"""The shared minimal-retraction planner.

Belief revision's computational core is one loop: preview the updated base,
read off the violations, retract the least entrenched supporting fact of
each, repeat until the constraints hold, then give back anything that turned
out unnecessary.  :func:`plan_retractions` is that loop, written once and
parameterized *only* by the ``preview`` primitive:

* the view-backed operator (:class:`~repro.revision.operators.BeliefRevisor`)
  previews through :meth:`~repro.constraints.views.ViolationView.preview_report`
  — an O(delta) hold-and-rollback through the incremental maintenance
  machinery;
* the naive baseline (:func:`~repro.revision.naive.naive_update_batch`)
  rebuilds the candidate theory and re-runs the from-scratch
  :class:`~repro.constraints.checker.IntegrityChecker` on every probe.

Because the planning logic is shared and the entrenchment order is total,
the two stacks must produce *identical* plans — which is exactly what the
differential harness in ``tests/test_revision_differential.py`` asserts, and
why a disagreement there indicts the checking machinery, not the tie-break.

The plan is **inclusion-minimal** with respect to the greedy choices: after
convergence every chosen retraction is probed once more (most entrenched
first) and dropped if the base stays constraint-satisfying without it.
"""

from repro.constraints.views import violation_support
from repro.exceptions import RevisionError
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter
from repro.revision.entrenchment import EntrenchmentState, RecencyPolicy


def _match(pattern, base):
    """The sentences of the *base* (an :class:`~repro.store.OrderedMultiset`)
    matching a support *pattern* — the pattern itself when ground,
    otherwise every believed atom unifying with it (same predicate/arity,
    parameters agree, variables bind consistently)."""
    if all(isinstance(arg, Parameter) for arg in pattern.args):
        return [pattern] if pattern in base else []
    matches = []
    for sentence in base.distinct():
        if not isinstance(sentence, Atom):
            continue
        if sentence.predicate != pattern.predicate:
            continue
        if len(sentence.args) != len(pattern.args):
            continue
        binding = {}
        compatible = True
        for pattern_arg, sentence_arg in zip(pattern.args, sentence.args):
            if isinstance(pattern_arg, Parameter):
                if pattern_arg != sentence_arg:
                    compatible = False
                    break
            else:
                bound = binding.get(pattern_arg)
                if bound is None:
                    binding[pattern_arg] = sentence_arg
                elif bound != sentence_arg:
                    compatible = False
                    break
        if compatible:
            matches.append(sentence)
    return matches


def plan_retractions(preview, base, policy=None, additions=(),
                     removals=(), protected=(), max_rounds=25):
    """Compute the extra retractions that make ``base - removals + additions``
    satisfy the integrity constraints, greedily retracting the least
    entrenched support of every violation.

    ``preview(additions, retractions)`` returns the
    :class:`~repro.constraints.checker.ConstraintReport` of the hypothetical
    state (retractions occurrence-expanded, uncapped witnesses); *base* is
    the belief base, an :class:`~repro.store.OrderedMultiset` giving
    occurrence counts and assertion sequence numbers (read-only here).
    *protected* sentences are never retracted — the operators protect the
    very information being revised in, which is what makes the AGM success
    postulate hold.

    Returns the chosen sentences in a deterministic order.  Raises
    :class:`~repro.exceptions.RevisionError` when a violation has no
    retractable support (the additions conflict with the constraints on
    their own) or the loop exceeds *max_rounds*.
    """
    policy = policy if policy is not None else RecencyPolicy()
    state = EntrenchmentState(base)

    def entrenchment(sentence):
        return policy.key(sentence, state)

    additions = list(additions)
    removals = list(removals)
    protected_set = set(protected) | set(additions)
    excluded = set(removals)
    chosen = []
    chosen_set = set()

    def expanded(extra):
        # Retraction lists are occurrence-based (Transaction semantics);
        # belief change removes *every* occurrence, so each sentence is
        # staged once per occurrence in the base.
        return [
            sentence
            for sentence in removals + extra
            for _ in range(base.count(sentence))
        ]

    report = None
    satisfied = False
    for _ in range(max_rounds):
        report = preview(additions, expanded(chosen))
        if report.satisfied:
            satisfied = True
            break
        picks = set()
        for violation in report.violations:
            for witness in violation.witnesses or ((),):
                candidates = []
                for pattern in violation_support(violation.constraint, witness):
                    for candidate in _match(pattern, base):
                        if candidate in protected_set:
                            continue
                        if candidate in excluded or candidate in chosen_set:
                            continue
                        candidates.append(candidate)
                if not candidates:
                    raise RevisionError(
                        f"irreparable violation ({violation}): no retractable "
                        "support — the update conflicts with the integrity "
                        "constraints on its own",
                        violations=(violation,),
                    )
                picks.add(min(candidates, key=entrenchment))
        for pick in sorted(picks, key=entrenchment):
            chosen.append(pick)
            chosen_set.add(pick)
    if not satisfied:
        raise RevisionError(
            f"revision did not converge within {max_rounds} rounds",
            violations=report.violations if report is not None else (),
        )
    if len(chosen) > 1:
        # Give back what the greedy rounds over-retracted: probe each chosen
        # sentence, most entrenched first, and keep it out of the plan only
        # if the constraints need it gone.  A single chosen retraction is
        # minimal by construction (the empty plan was previewed first).
        kept = list(chosen)
        for candidate in sorted(chosen, key=entrenchment, reverse=True):
            trial = [sentence for sentence in kept if sentence != candidate]
            if preview(additions, expanded(trial)).satisfied:
                kept = trial
        chosen = kept
    return tuple(chosen)
