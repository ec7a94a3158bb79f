"""The O(delta) commit path, end to end.

A commit checks the batch by *holding* it in the maintained violation view
(one maintenance pass), applies it to the database's sentence store in
O(delta), and the view then confirms the held batch instead of maintaining
it again; the maintenance planner's histograms follow each batch's delta.
This module proves that the fast path keeps every structure exact:

* a hypothesis property replays random tell / retract / transaction /
  revise / preview streams — duplicates, accepted and rejected updates —
  against a reference list, and compares the violation view, the Datalog
  view and the revisor's counts and recency with ones built fresh from the
  final database;
* a second property checks the delta-maintained
  :class:`~repro.datalog.stats.JoinStatistics` against a full re-snapshot
  after random apply / peek / hold sequences on both storages;
* counter tests pin the cost of a commit without timing anything: one
  maintenance pass and no full planner refresh per accepted commit, the
  same maintenance counters at two database sizes;
* a regression: a rejected scratch-mode retract keeps order and epoch.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.checker import IntegrityChecker
from repro.constraints.library import disjoint_properties, mandatory_known_attribute
from repro.datalog import DatalogLiteral, DatalogProgram, DatalogRule
from repro.datalog.engine import DatalogEngine
from repro.datalog.incremental import MaterializedModel
from repro.datalog.stats import JoinStatistics
from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintViolationError, RevisionError
from repro.logic.builders import atom, disj
from repro.logic.syntax import Atom
from repro.logic.terms import Variable
from repro.obs.tracing import Tracer
from repro.semantics.config import SemanticsConfig
from repro.store import updated
from repro.workloads import hr_constraints, hr_facts, hr_group

CONFIG = SemanticsConfig(extra_parameters=1)
CONSTRAINTS = [
    mandatory_known_attribute("emp", "ss"),
    disjoint_properties("male", "female"),
]
ATOMS = [
    atom("emp", "A"), atom("emp", "B"),
    atom("ss", "A", "S1"), atom("ss", "B", "S2"),
    atom("male", "A"), atom("female", "A"), atom("male", "B"),
]
#: a disjunction over a constrained predicate: while present, the view
#: re-checks male/female from scratch (runtime fallback)
NONATOMIC = disj([atom("male", "C"), atom("female", "C")])
POOL = ATOMS + [NONATOMIC]
#: valid, with a duplicated sentence
INITIAL = [atom("emp", "A"), atom("ss", "A", "S1"), atom("ss", "A", "S1"),
           atom("male", "A")]

x, y = Variable("x"), Variable("y")
RULES = [
    DatalogRule(Atom("staffed", (x,)), (
        DatalogLiteral(Atom("emp", (x,))), DatalogLiteral(Atom("ss", (x, y))),
    )),
    DatalogRule(Atom("unnumbered", (x,)), (
        DatalogLiteral(Atom("emp", (x,))),
        DatalogLiteral(Atom("staffed", (x,)), False),
    )),
]

batches = st.lists(st.sampled_from(POOL), max_size=3)
operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["tell", "retract"]), st.sampled_from(POOL)),
        st.tuples(st.just("revise"), st.sampled_from(ATOMS)),
        st.tuples(st.sampled_from(["txn", "preview"]), batches, batches),
    ),
    max_size=8,
)


def _statistics_match(materialized):
    fresh = JoinStatistics().refresh(materialized._index)
    return materialized.planner_statistics.snapshot() == fresh.snapshot()


def _replay(checking, steps):
    database = EpistemicDatabase(
        INITIAL, constraints=CONSTRAINTS, config=CONFIG,
        constraint_checking=checking,
    )
    violations = database.violation_view()
    datalog = database.datalog_view(rules=RULES)
    revisor = database.revision()
    checker = IntegrityChecker(CONSTRAINTS, config=CONFIG)
    reference = list(INITIAL)
    for step in steps:
        kind = step[0]
        epoch = database.revision_epoch
        if kind == "revise":
            try:
                result = revisor.revise(step[1])
            except RevisionError:
                assert database.revision_epoch == epoch
            else:
                gone = set(result.removals) | set(result.retracted)
                reference = [s for s in reference if s not in gone]
                reference += list(result.additions if result.changed else ())
        elif kind == "preview":
            _, additions, retractions = step
            facts = list(violations.materialized.program.facts)
            model = violations.materialized.model()
            report = violations.preview_report(additions, retractions)
            expected = updated(reference, additions, retractions)
            assert report.satisfied == checker.check(expected).satisfied
            transaction = database.transaction()
            for sentence in retractions:
                transaction.retract(sentence)
            for sentence in additions:
                transaction.tell(sentence)
            datalog.preview(transaction)
            transaction.rollback()
            assert list(violations.materialized.program.facts) == facts
            assert violations.materialized.model() == model
        else:
            if kind == "txn":
                _, additions, retractions = step
            elif kind == "tell":
                additions, retractions = [step[1]], []
            else:
                additions, retractions = [], [step[1]]
            expected = updated(reference, additions, retractions)
            present = kind != "retract" or step[1] in reference
            accepted = checker.check(expected).satisfied
            try:
                if kind == "txn":
                    transaction = database.transaction()
                    for sentence in retractions:
                        transaction.retract(sentence)
                    for sentence in additions:
                        transaction.tell(sentence)
                    transaction.commit()
                elif kind == "tell":
                    database.tell(step[1])
                else:
                    database.retract(step[1])
            except ConstraintViolationError:
                assert not accepted
                assert database.revision_epoch == epoch
            else:
                assert accepted or not present
                reference = expected
        assert database.sentences() == reference
        assert violations.materialized.held is None
        assert _statistics_match(violations.materialized)
        assert _statistics_match(datalog.materialized)

    fresh = EpistemicDatabase(
        reference, constraints=CONSTRAINTS, config=CONFIG,
        constraint_checking=checking,
    )
    fresh_violations = fresh.violation_view()
    assert violations.materialized.model() == fresh_violations.materialized.model()
    assert violations.violations() == fresh_violations.violations()
    assert violations._runtime_nonatomic() == fresh_violations._runtime_nonatomic()
    assert datalog.model() == fresh.datalog_view(rules=RULES).model()
    fresh_revisor = fresh.revision()
    store, fresh_store = database.store, fresh.store
    distinct = set(store.distinct())
    assert distinct == set(fresh_store.distinct())
    for sentence in distinct:
        assert store.count(sentence) == fresh_store.count(sentence)
        assert revisor.believes(sentence) and fresh_revisor.believes(sentence)
    assert bool(revisor._nonatomic) == bool(fresh_revisor._nonatomic)
    # Recency: the first surviving occurrences are ordered alike.
    assert sorted(distinct, key=store.first_sequence) == sorted(
        distinct, key=fresh_store.first_sequence
    )


@settings(max_examples=40, deadline=None)
@given(steps=operations)
def test_incremental_stream_matches_reference_and_fresh_builds(steps):
    _replay("incremental", steps)


@settings(max_examples=15, deadline=None)
@given(steps=operations)
def test_scratch_stream_matches_reference_and_fresh_builds(steps):
    _replay("scratch", steps)


# ---------------------------------------------------------------------------
# delta-maintained planner statistics
# ---------------------------------------------------------------------------

NODES = ["a", "b", "c", "d"]
EDGES = [atom("edge", s, t) for s in NODES for t in NODES if s != t]
edge_batches = st.lists(st.sampled_from(EDGES), max_size=4)


def _graph_program():
    z = Variable("z")
    program = DatalogProgram()
    for edge in EDGES[::3]:
        program.add_fact(edge)
    for node in NODES:
        program.add_fact(atom("node", node))
    program.add_rule(DatalogRule(Atom("path", (x, y)), (
        DatalogLiteral(Atom("edge", (x, y))),)))
    program.add_rule(DatalogRule(Atom("path", (x, z)), (
        DatalogLiteral(Atom("path", (x, y))), DatalogLiteral(Atom("edge", (y, z))),
    )))
    program.add_rule(DatalogRule(Atom("out", (x,)), (
        DatalogLiteral(Atom("edge", (x, y))),)))
    program.add_rule(DatalogRule(Atom("sink", (x,)), (
        DatalogLiteral(Atom("node", (x,))), DatalogLiteral(Atom("out", (x,)), False),
    )))
    return program


@settings(max_examples=40, deadline=None)
@given(
    storage=st.sampled_from(["objects", "columnar"]),
    steps=st.lists(
        st.tuples(st.sampled_from(["apply", "peek", "rollback", "confirm"]),
                  edge_batches, edge_batches),
        max_size=6,
    ),
)
def test_delta_statistics_equal_a_full_refresh(storage, steps):
    program = _graph_program()
    materialized = MaterializedModel(program, storage=storage)
    refreshes = materialized.planner_statistics.refreshes
    for kind, insertions, deletions in steps:
        facts = list(program.facts)
        if kind == "apply":
            materialized.apply(insertions, deletions)
        elif kind == "peek":
            materialized.peek(insertions, deletions)
            assert list(program.facts) == facts
        else:
            materialized.hold(insertions, deletions)
            getattr(materialized, kind)()
            if kind == "rollback":
                assert list(program.facts) == facts
        live = materialized.planner_statistics
        fresh = JoinStatistics().refresh(materialized._index)
        assert live.snapshot() == fresh.snapshot()
        for predicate, arity in fresh.snapshot():
            for size in range(arity + 1):
                for positions in combinations(range(arity), size):
                    assert live.selectivity(predicate, arity, positions) == (
                        fresh.selectivity(predicate, arity, positions)
                    )
    assert materialized.planner_statistics.refreshes == refreshes
    assert materialized.model() == DatalogEngine(program).least_model()


# ---------------------------------------------------------------------------
# the cost of a commit, as counts
# ---------------------------------------------------------------------------

def _hr_database(employees, tracer=None):
    database = EpistemicDatabase(
        hr_facts(employees, departments=10), constraints=hr_constraints(),
        constraint_checking="incremental", tracer=tracer,
    )
    database.violation_view()
    return database


def _commit_counters(employees, hire=100_000, planted=False):
    """Commit one fixed 10-fact transaction (employee 3 leaves, employee
    *hire* joins; *planted* drops the hire's ss fact) and return the
    violation view's maintenance counter deltas plus the number of full
    planner refreshes it caused."""
    database = _hr_database(employees)
    materialized = database.violation_view().materialized
    refreshes = materialized.planner_statistics.refreshes
    before = materialized.metrics()
    hired = hr_group(hire)
    if planted:
        hired = hired[:1] + hired[2:]
    transaction = database.transaction()
    for sentence in hr_group(3):
        transaction.retract(sentence)
    for sentence in hired:
        transaction.tell(sentence)
    try:
        transaction.commit()
    except ConstraintViolationError:
        assert planted
    after = materialized.metrics()
    assert materialized.held is None
    delta = {name: after[name] - before[name] for name in after}
    return delta, materialized.planner_statistics.refreshes - refreshes


def test_accepted_commit_is_one_pass_whatever_the_size():
    small, small_refreshes = _commit_counters(200)
    large, large_refreshes = _commit_counters(2000)
    assert small["maintenance.applies"] == 1
    assert small["maintenance.rebuilds"] == 0
    assert small_refreshes == large_refreshes == 0
    assert small == large


def test_rejected_commit_leaves_no_trace_in_the_counters():
    delta, refreshes = _commit_counters(200, planted=True)
    assert set(delta.values()) == {0}
    assert refreshes == 0


def test_commit_spans_attribute_the_store_and_the_confirm():
    tracer = Tracer()
    database = _hr_database(50, tracer=tracer)
    tracer.clear()
    transaction = database.transaction()
    for sentence in hr_group(3):
        transaction.retract(sentence)
    for sentence in hr_group(100_000):
        transaction.tell(sentence)
    transaction.commit()
    names = [entry["name"] for entry in tracer.entries]
    assert names.count("maintenance.batch") == 1
    by_id = {entry["id"]: entry for entry in tracer.entries}
    apply_span = next(e for e in tracer.entries if e["name"] == "txn.apply")
    children = {e["name"] for e in tracer.entries if e["parent"] == apply_span["id"]}
    assert {"txn.store", "violations.confirm"} <= children
    batch = next(e for e in tracer.entries if e["name"] == "maintenance.batch")
    assert by_id[batch["parent"]]["name"] == "violations.preview"


# ---------------------------------------------------------------------------
# regressions
# ---------------------------------------------------------------------------

def test_rejected_scratch_retract_keeps_order_and_epoch():
    database = EpistemicDatabase(
        [atom("emp", "A"), atom("ss", "A", "S1"), atom("emp", "B"),
         atom("ss", "B", "S2")],
        constraints=[mandatory_known_attribute("emp", "ss")], config=CONFIG,
    )
    assert database.constraint_checking == "scratch"
    before = database.sentences()
    epoch = database.revision_epoch
    with pytest.raises(ConstraintViolationError):
        database.retract(atom("ss", "A", "S1"))
    assert database.sentences() == before
    assert database.revision_epoch == epoch
    assert database.store.first_sequence(atom("ss", "A", "S1")) < (
        database.store.first_sequence(atom("emp", "B"))
    )
