"""Differential tests: the compiled violation view against the checker.

The tentpole claim of the violation-view subsystem is *equivalence*: for any
constraint set and any insert/delete/commit stream, the incrementally
maintained :class:`~repro.constraints.views.ViolationView` must produce the
same verdicts and the same witness sets as the from-scratch
:class:`~repro.constraints.checker.IntegrityChecker` at every step.  This
module proves it three ways:

* a hypothesis harness replaying random update streams drawn from a small
  HR-style universe (ground atoms plus a non-atomic disjunction that forces
  the run-time fallback), asserting after every batch that the O(delta)
  preview taken *before* the commit equals the from-scratch check of the
  state *after* it — across object and columnar storage of the maintaining
  engine;
* an exhaustive sweep over every `repro.constraints.library` template:
  each either compiles (and the view's verdicts/witnesses match the checker
  on both a violating and a satisfying database) or falls back with a
  machine-readable reason — and the fallback path still matches the checker;
* directed unit tests for the seams: rollback leaves the view untouched,
  multiset retraction discipline, witness limits, runtime fallback on
  non-atomic sentences appearing and disappearing, and closed views.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.checker import IntegrityChecker
from repro.constraints.compile import (
    AUX_PREFIX,
    VIOLATION_PREFIX,
    compile_constraint,
    compile_constraints,
    is_compilable,
)
from repro.constraints.library import (
    disjoint_properties,
    known_instances_typed,
    mandatory_attribute,
    mandatory_known_attribute,
    referential_integrity,
    total_property,
    unique_attribute,
)
from repro.constraints.views import ViolationView
from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintCompilationError
from repro.logic.builders import atom, disj
from repro.logic.printer import to_text
from repro.semantics.config import SemanticsConfig

CONFIG = SemanticsConfig(extra_parameters=1)

# ---------------------------------------------------------------------------
# The universe the random streams draw from: a miniature of the HR workload,
# small enough that the from-scratch checker stays fast at every step.
# ---------------------------------------------------------------------------

FACT_POOL = [
    atom("emp", "A"), atom("emp", "B"),
    atom("ss", "A", "S1"), atom("ss", "A", "S2"), atom("ss", "B", "S1"),
    atom("person", "A"), atom("person", "B"),
    atom("male", "A"), atom("female", "A"),
    atom("male", "B"), atom("female", "B"),
    atom("works_in", "A", "D0"), atom("works_in", "B", "D1"),
    atom("dept", "D0"), atom("dept", "D1"),
]

#: a non-atomic sentence over the gender predicates: while present, every
#: compiled constraint touching male/female must be re-checked from scratch
#: (runtime fallback ``non-atomic-sentences``) — and still agree.
NONATOMIC = disj([atom("male", "C"), atom("female", "C")])

SENTENCE_POOL = FACT_POOL + [NONATOMIC, atom("person", "C")]

CONSTRAINT_POOL = [
    mandatory_known_attribute("emp", "ss"),
    disjoint_properties("male", "female"),
    total_property("person", "male", "female"),
    referential_integrity("works_in", 1, "dept"),
    unique_attribute("ss"),  # compile-time fallback: negated-equality
]

#: the engine matrix: both storage backends of the indexed strategy.
ENGINE_CELLS = {
    "objects": dict(storage="objects", strategy="indexed"),
    "columnar": dict(storage="columnar", strategy="indexed"),
}


def violation_map(report):
    """Canonical {constraint text: sorted witness-name tuples} for
    order-insensitive comparison of two reports."""
    return {
        to_text(violation.constraint): sorted(
            tuple(p.name for p in witness) for witness in violation.witnesses
        )
        for violation in report.violations
    }


def assert_equivalent(view_report, scratch_report):
    assert view_report.satisfied == scratch_report.satisfied
    assert violation_map(view_report) == violation_map(scratch_report)


def run_differential(constraints, initial, batches, engine_options):
    """Replay *batches* against a database, asserting after every commit that
    the view's O(delta) preview (taken before) and its maintained state
    (read after) both equal the from-scratch checker on the actual
    post-state."""
    database = EpistemicDatabase(initial, config=CONFIG)
    checker = IntegrityChecker(constraints=constraints, config=CONFIG)
    view = ViolationView(database, constraints=constraints, config=CONFIG,
                         **engine_options)
    try:
        assert_equivalent(
            view.check(witness_limit=None),
            checker.check(database.sentences(), witness_limit=None),
        )
        for batch in batches:
            additions = [fact for is_add, fact in batch if is_add]
            # Only retract occurrences actually present (net of what the
            # batch itself already consumes) — mirroring a client that
            # retracts facts it knows it holds.
            available = Counter(database.sentences())
            staged = Counter()
            retractions = []
            for is_add, fact in batch:
                if not is_add and staged[fact] < available[fact]:
                    staged[fact] += 1
                    retractions.append(fact)
            if not additions and not retractions:
                continue
            preview = view.preview_report(additions, retractions,
                                          witness_limit=None)
            transaction = database.transaction()
            for fact in additions:
                transaction.tell(fact)
            for fact in retractions:
                transaction.retract(fact)
            transaction.commit()
            scratch = checker.check(database.sentences(), witness_limit=None)
            # The preview taken before the commit predicted exactly the
            # state after it...
            assert_equivalent(preview, scratch)
            # ...and the maintained view now reads the same state.
            assert_equivalent(view.check(witness_limit=None), scratch)
    finally:
        view.close()


constraint_sets = st.lists(
    st.sampled_from(CONSTRAINT_POOL), min_size=1, max_size=3, unique_by=id
)
initial_states = st.lists(st.sampled_from(SENTENCE_POOL), max_size=6)
update_batches = st.lists(
    st.lists(
        st.tuples(st.booleans(), st.sampled_from(SENTENCE_POOL)),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=30, deadline=None)
@given(constraints=constraint_sets, initial=initial_states, batches=update_batches)
def test_view_equals_checker_on_random_streams(constraints, initial, batches):
    run_differential(constraints, initial, batches, ENGINE_CELLS["columnar"])


@pytest.mark.parametrize("cell", sorted(ENGINE_CELLS), ids=sorted(ENGINE_CELLS))
@settings(max_examples=8, deadline=None)
@given(constraints=constraint_sets, initial=initial_states, batches=update_batches)
def test_view_equals_checker_across_engine_matrix(cell, constraints, initial, batches):
    run_differential(constraints, initial, batches, ENGINE_CELLS[cell])


# ---------------------------------------------------------------------------
# Exhaustive library sweep: every template compiles or falls back with a
# machine-readable reason, and both paths match the checker.
# ---------------------------------------------------------------------------

#: (name, constraint, violating theory, satisfying theory).  The violating
#: theory must produce at least one witness; the satisfying one none.
LIBRARY_CASES = [
    (
        "mandatory_known_attribute",
        mandatory_known_attribute("emp", "ss"),
        [atom("emp", "A")],
        [atom("emp", "A"), atom("ss", "A", "S1")],
    ),
    (
        "mandatory_attribute",
        mandatory_attribute("emp", "ss"),
        [atom("emp", "A")],
        [atom("emp", "A"), atom("ss", "A", "S1")],
    ),
    (
        "disjoint_properties",
        disjoint_properties("male", "female"),
        [atom("male", "A"), atom("female", "A")],
        [atom("male", "A"), atom("female", "B")],
    ),
    (
        "total_property",
        total_property("person", "male", "female"),
        [atom("person", "A")],
        [atom("person", "A"), atom("male", "A")],
    ),
    (
        "known_instances_typed",
        known_instances_typed("works_in", ("emp",), ("dept",)),
        [atom("works_in", "A", "D0")],
        [atom("works_in", "A", "D0"), atom("emp", "A"), atom("dept", "D0")],
    ),
    (
        "referential_integrity",
        referential_integrity("works_in", 1, "dept"),
        [atom("works_in", "A", "D0")],
        [atom("works_in", "A", "D0"), atom("dept", "D0")],
    ),
    (
        "unique_attribute",
        unique_attribute("ss"),
        [atom("ss", "A", "S1"), atom("ss", "A", "S2")],
        [atom("ss", "A", "S1"), atom("ss", "B", "S1")],
    ),
]

#: which templates sit outside the compilable fragment, and why
EXPECTED_FALLBACKS = {"unique_attribute": "negated-equality"}


@pytest.mark.parametrize(
    "name,constraint", [(c[0], c[1]) for c in LIBRARY_CASES],
    ids=[c[0] for c in LIBRARY_CASES],
)
def test_library_compiles_or_falls_back_with_reason(name, constraint):
    if name in EXPECTED_FALLBACKS:
        assert not is_compilable(constraint)
        with pytest.raises(ConstraintCompilationError) as excinfo:
            compile_constraint(constraint)
        assert excinfo.value.code == EXPECTED_FALLBACKS[name]
        compiled_set = compile_constraints([constraint])
        assert len(compiled_set.compiled) == 0
        (fallback,) = compiled_set.fallbacks
        assert fallback.code == EXPECTED_FALLBACKS[name]
        assert fallback.message  # human-readable detail rides along
    else:
        assert is_compilable(constraint)
        compiled = compile_constraint(constraint)
        assert compiled.predicate.startswith(VIOLATION_PREFIX)
        assert compiled.rules
        for rule in compiled.rules:
            head = rule.head.predicate
            assert head.startswith(VIOLATION_PREFIX) or head.startswith(AUX_PREFIX)
        assert compiled.witnesses  # violations carry witnesses


@pytest.mark.parametrize(
    "name,constraint,violating,satisfying", LIBRARY_CASES,
    ids=[c[0] for c in LIBRARY_CASES],
)
def test_library_view_matches_checker(name, constraint, violating, satisfying):
    checker = IntegrityChecker(constraints=[constraint], config=CONFIG)
    for theory, expect_satisfied in ((violating, False), (satisfying, True)):
        database = EpistemicDatabase(theory, config=CONFIG)
        view = ViolationView(database, constraints=[constraint], config=CONFIG)
        try:
            view_report = view.check(witness_limit=None)
            scratch = checker.check(database.sentences(), witness_limit=None)
            assert view_report.satisfied is expect_satisfied
            assert_equivalent(view_report, scratch)
            if not expect_satisfied:
                (violation,) = view_report.violations
                assert violation.witnesses  # never a bare verdict
            if name in EXPECTED_FALLBACKS:
                codes = {fallback.code for fallback in view_report.fallbacks}
                assert EXPECTED_FALLBACKS[name] in codes
            else:
                assert view_report.fallbacks == ()
        finally:
            view.close()


def test_every_library_template_is_classified():
    """The sweep above is exhaustive: every public library template appears
    in LIBRARY_CASES (a new template must be added there, where it is forced
    to either compile or fall back with a reason)."""
    import inspect

    import repro.constraints.library as library

    templates = {
        name
        for name, value in vars(library).items()
        if inspect.isfunction(value)
        and value.__module__ == library.__name__
        and not name.startswith("_")
    }
    covered = {case[0] for case in LIBRARY_CASES}
    assert templates <= covered


# ---------------------------------------------------------------------------
# Directed seam tests
# ---------------------------------------------------------------------------


def test_rollback_leaves_view_untouched():
    database = EpistemicDatabase([atom("emp", "A"), atom("ss", "A", "S1")],
                                 config=CONFIG)
    view = ViolationView(database,
                         constraints=[mandatory_known_attribute("emp", "ss")],
                         config=CONFIG)
    before = view.violations()
    transaction = database.transaction()
    transaction.tell(atom("emp", "B"))
    transaction.rollback()
    assert view.violations() == before
    assert view.check().satisfied


def test_preview_is_side_effect_free():
    database = EpistemicDatabase([atom("emp", "A"), atom("ss", "A", "S1")],
                                 config=CONFIG)
    view = ViolationView(database,
                         constraints=[mandatory_known_attribute("emp", "ss")],
                         config=CONFIG)
    report = view.preview_report([atom("emp", "B")], [])
    assert not report.satisfied
    (violation,) = report.violations
    assert [tuple(p.name for p in w) for w in violation.witnesses] == [("B",)]
    # The peek changed nothing: the maintained state still has no violations.
    assert view.check().satisfied
    assert view.violations() == {"c0": ()}


def test_multiset_retraction_discipline():
    """Telling a fact twice and retracting it once must keep it derivable —
    the view counts occurrences exactly like the sentence list does."""
    database = EpistemicDatabase(config=CONFIG)
    view = ViolationView(database,
                         constraints=[referential_integrity("works_in", 1, "dept")],
                         config=CONFIG)
    database.tell(atom("dept", "D0"))
    database.tell(atom("dept", "D0"))
    database.tell(atom("works_in", "A", "D0"))
    assert view.check().satisfied
    database.retract(atom("dept", "D0"))
    # One occurrence remains: still satisfied.
    assert view.check().satisfied
    database.retract(atom("dept", "D0"))
    report = view.check()
    assert not report.satisfied
    assert violation_map(report) == {
        to_text(referential_integrity("works_in", 1, "dept")): [("A", "D0")]
    }


def test_fallback_preview_respects_multiset_retraction():
    """Regression (found by the differential harness): the run-time fallback
    path of ``preview_report`` must remove one occurrence per staged
    retraction, exactly like the commit it previews.  Set-based removal
    dropped *every* occurrence of a duplicated sentence and judged a
    still-violating post-state satisfied."""
    constraint = total_property("person", "male", "female")
    database = EpistemicDatabase(
        [atom("person", "A"), atom("person", "A")], config=CONFIG
    )
    view = ViolationView(database, constraints=[constraint], config=CONFIG)
    checker = IntegrityChecker([constraint], config=CONFIG)
    # The non-atomic addition forces the fallback path for this constraint.
    batch_adds = [NONATOMIC]
    batch_retracts = [atom("person", "A")]
    preview = view.preview_report(batch_adds, batch_retracts)
    # One person(A) survives the single retraction: still violating.
    assert not preview.satisfied
    assert [fallback.code for fallback in preview.fallbacks] == [
        "non-atomic-sentences"
    ]
    transaction = database.transaction()
    for sentence in batch_adds:
        transaction.tell(sentence)
    for sentence in batch_retracts:
        transaction.retract(sentence)
    transaction.commit()
    scratch = checker.check(database.sentences(), witness_limit=None)
    assert_equivalent(preview, scratch)
    assert_equivalent(view.check(witness_limit=None), scratch)


def test_check_update_respects_multiset_retraction():
    """The classical (view-less) ``check_update`` previews the same
    one-occurrence-per-retraction theory the commit produces."""
    constraint = mandatory_known_attribute("emp", "ss")
    checker = IntegrityChecker([constraint], config=CONFIG)
    theory = [atom("emp", "A"), atom("emp", "A"), atom("ss", "A", "S1")]
    report, updated = checker.check_update(
        theory, removed=[atom("emp", "A"), atom("ss", "A", "S1")]
    )
    assert updated == [atom("emp", "A")]
    assert not report.satisfied


def test_witness_limit_caps_view_witnesses():
    facts = [atom("emp", f"E{i}") for i in range(5)]
    database = EpistemicDatabase(facts, config=CONFIG)
    view = ViolationView(database,
                         constraints=[mandatory_known_attribute("emp", "ss")],
                         config=CONFIG)
    report = view.check(witness_limit=2)
    (violation,) = report.violations
    assert len(violation.witnesses) == 2
    full = view.check(witness_limit=None)
    assert len(full.violations[0].witnesses) == 5


def test_runtime_fallback_comes_and_goes_with_nonatomic_sentences():
    constraint = disjoint_properties("male", "female")
    database = EpistemicDatabase([atom("male", "A")], config=CONFIG)
    view = ViolationView(database, constraints=[constraint], config=CONFIG)
    assert view.check().fallbacks == ()
    database.tell(NONATOMIC)
    report = view.check()
    assert [fallback.code for fallback in report.fallbacks] == [
        "non-atomic-sentences"
    ]
    assert report.satisfied  # the disjunction alone proves neither conjunct
    database.retract(NONATOMIC)
    assert view.check().fallbacks == ()
    # ... and through the retraction the compiled side kept maintaining.
    database.tell(atom("female", "A"))
    assert not view.check().satisfied


def test_closed_view_stops_updating():
    database = EpistemicDatabase([atom("male", "A")], config=CONFIG)
    view = ViolationView(database,
                         constraints=[disjoint_properties("male", "female")],
                         config=CONFIG)
    view.close()
    database.tell(atom("female", "A"))
    # The view was detached before the violating fact arrived.
    assert view.violations() == {"c0": ()}


def test_constraint_id_of_unknown_constraint_raises():
    database = EpistemicDatabase(config=CONFIG)
    view = ViolationView(database,
                         constraints=[disjoint_properties("male", "female")],
                         config=CONFIG)
    assert view.constraint_id_of(view.compiled.compiled[0].constraint) == "c0"
    with pytest.raises(KeyError):
        view.constraint_id_of(atom("emp", "A"))
