"""The naive baseline: retract-until-consistent by from-scratch recompute.

A deliberately view-free, database-free implementation of the same
belief-change specification as :class:`~repro.revision.operators.BeliefRevisor`:
every candidate state is checked by rebuilding the whole sentence list and
re-running the from-scratch :class:`~repro.constraints.checker.IntegrityChecker`
— no materialized violation rules, no incremental maintenance, no peeks.
The *planning* logic is the shared :func:`~repro.revision.planner.plan_retractions`,
so the two stacks must agree sentence-for-sentence; the differential harness
(``tests/test_revision_differential.py``) replays random conflicting update
streams through both and asserts exactly that, and the ``revision`` section
of ``benchmarks/run_bench.py`` measures the price of the recompute this
baseline pays per operation.
"""

from repro.constraints.checker import IntegrityChecker
from repro.db.database import _as_formula
from repro.exceptions import NotASentenceError, NotFirstOrderError
from repro.logic.classify import is_first_order
from repro.logic.printer import to_text
from repro.logic.syntax import free_variables
from repro.logic.transform import simplify
from repro.revision.planner import plan_retractions
from repro.semantics.config import DEFAULT_CONFIG
from repro.store import OrderedMultiset, updated


def _normalize(sentence):
    formula = _as_formula(sentence)
    if not is_first_order(formula):
        raise NotFirstOrderError(
            "belief bases contain first-order sentences; epistemic "
            f"sentences belong in the constraints: {to_text(formula)}"
        )
    if free_variables(formula):
        raise NotASentenceError(
            f"beliefs must be closed sentences: {to_text(formula)}"
        )
    return simplify(formula)


def naive_update_batch(sentences, constraints, tells=(), retracts=(),
                       policy=None, config=DEFAULT_CONFIG, max_rounds=25):
    """Apply one belief-change batch to a plain sentence list, resolving
    constraint conflicts by minimal retraction with every probe recomputed
    from scratch.

    Returns ``(new_sentences, additions, removals, retracted)`` — the same
    decomposition :class:`~repro.revision.operators.RevisionResult` carries,
    for sentence-level comparison against the operator.  Raises
    :class:`~repro.exceptions.RevisionError` exactly when the operator
    would."""
    sentences = list(sentences)
    # Rebuilt from the list: the naive stand-in for the database's store
    # (relative recency agrees, which is all policies compare).
    base = OrderedMultiset(sentences)
    additions = []
    for sentence in tells:
        formula = _normalize(sentence)
        if formula not in additions:
            additions.append(formula)
    removals = []
    for sentence in retracts:
        formula = _normalize(sentence)
        if formula in additions or formula in removals:
            continue
        if formula in base:
            removals.append(formula)
    new_additions = [formula for formula in additions if formula not in base]
    if not new_additions and not removals:
        return sentences, tuple(additions), (), ()
    extra = ()
    if constraints:
        checker = IntegrityChecker(constraints=constraints, config=config)

        def preview(batch_additions, batch_retractions):
            return checker.check(
                updated(sentences, batch_additions, batch_retractions),
                with_witnesses=True, witness_limit=None,
            )

        extra = plan_retractions(
            preview, base, policy=policy,
            additions=new_additions, removals=removals,
            protected=additions, max_rounds=max_rounds,
        )
    expanded = [
        sentence
        for sentence in removals + list(extra)
        for _ in range(base.count(sentence))
    ]
    final = updated(sentences, new_additions, expanded)
    return final, tuple(new_additions), tuple(removals), tuple(extra)


def naive_revise(sentences, constraints, sentence, policy=None,
                 config=DEFAULT_CONFIG, max_rounds=25):
    """Revision ``K*A`` of a plain sentence list — see :func:`naive_update_batch`."""
    return naive_update_batch(
        sentences, constraints, tells=[sentence], policy=policy,
        config=config, max_rounds=max_rounds,
    )


def naive_contract(sentences, constraints, sentence, policy=None,
                   config=DEFAULT_CONFIG, max_rounds=25):
    """Contraction ``K-A`` of a plain sentence list — see :func:`naive_update_batch`."""
    return naive_update_batch(
        sentences, constraints, retracts=[sentence], policy=policy,
        config=config, max_rounds=max_rounds,
    )
