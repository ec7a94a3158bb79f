"""Tests for incremental view maintenance (``repro.datalog.incremental``).

The load-bearing property: after any sequence of EDB insertions and
deletions, ``MaterializedModel.apply`` leaves the maintained model
fact-for-fact identical to a from-scratch ``least_model()`` of the mutated
program — on the recursive transitive-closure workload (DRed
overdelete/rederive) and on a stratified-negation program (counting strata
driven in both directions by lower-stratum changes), under hypothesis-driven
random update sequences.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    DatalogEngine,
    DatalogLiteral,
    DatalogProgram,
    DatalogRule,
    FactIndex,
    MaterializedModel,
)
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.semantics.worlds import World
from repro.workloads.generators import transitive_closure_program, update_stream

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Parameter("a"), Parameter("b"), Parameter("c")


# ---------------------------------------------------------------------------
# FactIndex deletion dual
# ---------------------------------------------------------------------------


class TestFactIndexDeletion:
    def test_discard_removes_from_all_buckets(self):
        index = FactIndex([Atom("p", (a, b)), Atom("p", (a, c))])
        assert index.discard(Atom("p", (a, b)))
        assert Atom("p", (a, b)) not in index
        assert len(index) == 1
        assert index.candidates("p", 2, [(0, a)]) == {Atom("p", (a, c))}
        assert index.candidates("p", 2, [(1, b)]) == frozenset()

    def test_discard_absent_is_noop(self):
        index = FactIndex([Atom("p", (a,))])
        assert not index.discard(Atom("p", (b,)))
        assert not index.discard(Atom("q", (a,)))
        assert len(index) == 1

    def test_discard_updates_selectivity(self):
        index = FactIndex([Atom("p", (a, b)), Atom("p", (b, b))])
        before = index.selectivity("p", 2, [0])
        index.discard(Atom("p", (a, b)))
        # only one distinct value remains at position 0
        assert index.selectivity("p", 2, [0]) == 1.0
        assert before < 2.0

    def test_discard_all_counts_only_present_facts(self):
        index = FactIndex([Atom("p", (a, b)), Atom("q", (c,))])
        removed = index.discard_all([Atom("p", (a, b)), Atom("p", (b, c))])
        assert removed == 1
        assert set(index) == {Atom("q", (c,))}

    def test_retract_all_is_absorb_dual(self):
        facts = [Atom("p", (a, b)), Atom("p", (b, c)), Atom("q", (a,))]
        index = FactIndex(facts)
        delta = FactIndex([Atom("p", (b, c)), Atom("q", (a,)), Atom("r", (c,))])
        removed = index.retract_all(delta)
        assert removed == 2
        assert set(index) == {Atom("p", (a, b))}
        assert index.count("q", 1) == 0

    def test_absorb_then_retract_roundtrip(self):
        base = [Atom("p", (a, b))]
        extra = [Atom("p", (a, c)), Atom("q", (b,))]
        index = FactIndex(base)
        index.absorb(FactIndex(extra))
        index.retract_all(FactIndex(extra))
        reference = FactIndex(base)
        assert set(index) == set(reference)
        assert index.candidates("p", 2, [(0, a)]) == reference.candidates("p", 2, [(0, a)])


def test_world_from_fact_index_matches_constructor():
    facts = [Atom("p", (a, b)), Atom("q", (c,)), Atom("p", (b, c))]
    seeded = World.from_fact_index(FactIndex(facts))
    direct = World(facts)
    assert seeded == direct
    assert hash(seeded) == hash(direct)
    assert set(seeded.atoms_for("p")) == set(direct.atoms_for("p"))
    assert seeded.holds(Atom("q", (c,)))


# ---------------------------------------------------------------------------
# deterministic maintenance behaviour
# ---------------------------------------------------------------------------


def closure_program():
    return transitive_closure_program(chains=2, length=3)


class TestMaterializedModel:
    def test_matches_engine_after_build(self):
        program = closure_program()
        assert MaterializedModel(program).model() == DatalogEngine(program).least_model()

    def test_insertion_extends_closure(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        materialized.apply(insertions=[atom("edge", "c0_n3", "c1_n0")])
        assert materialized.holds(atom("path", "c0_n0", "c1_n3"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_deletion_shrinks_closure(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        materialized.apply(deletions=[atom("edge", "c0_n1", "c0_n2")])
        assert not materialized.holds(atom("path", "c0_n0", "c0_n3"))
        assert materialized.holds(atom("path", "c0_n0", "c0_n1"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_dred_rederives_alternative_derivations(self):
        """Deleting one of two parallel routes must resurrect the facts the
        overdeletion tears down — the DRed rederivation step."""
        program = DatalogProgram()
        for edge in [("s", "m1"), ("s", "m2"), ("m1", "t"), ("m2", "t"), ("t", "u")]:
            program.add_fact(atom("edge", *edge))
        program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
        program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
        materialized = MaterializedModel(program)
        assert materialized.holds(atom("path", "s", "u"))
        materialized.apply(deletions=[atom("edge", "m1", "t")])
        # path(s, t) and path(s, u) survive via m2
        assert materialized.holds(atom("path", "s", "t"))
        assert materialized.holds(atom("path", "s", "u"))
        assert materialized.statistics.rederived > 0
        assert materialized.model() == DatalogEngine(program).least_model()
        materialized.apply(deletions=[atom("edge", "m2", "t")])
        assert not materialized.holds(atom("path", "s", "u"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_counting_tracks_multiple_derivations(self):
        program = DatalogProgram()
        program.add_fact(atom("q", "a"))
        program.add_fact(atom("r", "a"))
        program.add_fact(atom("p", "a"))  # EDB *and* derivable both ways
        program.rule(Atom("p", (x,)), Atom("q", (x,)))
        program.rule(Atom("p", (x,)), Atom("r", (x,)))
        materialized = MaterializedModel(program)
        assert materialized.derivation_count(atom("p", "a")) == 3
        materialized.apply(deletions=[atom("q", "a")])
        assert materialized.derivation_count(atom("p", "a")) == 2
        materialized.apply(deletions=[atom("r", "a"), atom("p", "a")])
        assert not materialized.holds(atom("p", "a"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_negation_flips_both_directions(self):
        """An insertion below a negation deletes above, and vice versa."""
        program = DatalogProgram()
        program.add_fact(atom("node", "a"))
        program.add_fact(atom("node", "b"))
        program.add_fact(atom("busy", "a"))
        program.rule(Atom("idle", (x,)), Atom("node", (x,)), (Atom("busy", (x,)), False))
        materialized = MaterializedModel(program)
        assert materialized.holds(atom("idle", "b"))
        assert not materialized.holds(atom("idle", "a"))
        materialized.apply(insertions=[atom("busy", "b")])
        assert not materialized.holds(atom("idle", "b"))
        materialized.apply(deletions=[atom("busy", "a"), atom("busy", "b")])
        assert materialized.holds(atom("idle", "a"))
        assert materialized.holds(atom("idle", "b"))
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_apply_set_semantics(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        before = materialized.model()
        # deleting an absent fact and re-inserting a present one are no-ops
        result = materialized.apply(
            insertions=[atom("edge", "c0_n0", "c0_n1")],
            deletions=[atom("edge", "zz", "zz")],
        )
        assert not result.edb_added and not result.edb_removed
        assert materialized.model() == before

    def test_apply_same_fact_in_both_lists_stays(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        target = atom("edge", "c0_n0", "c0_n1")
        result = materialized.apply(insertions=[target], deletions=[target])
        assert not result.edb_removed
        assert materialized.holds(target)
        assert materialized.model() == DatalogEngine(program).least_model()

    def test_peek_is_side_effect_free(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        before_world = materialized.model()
        before_counts = dict(materialized._counts)
        before_facts = list(program.facts)
        before_statistics = vars(materialized.statistics).copy()
        peeked = materialized.peek(
            insertions=[atom("edge", "c0_n3", "c1_n0")],
            deletions=[atom("edge", "c0_n0", "c0_n1")],
        )
        assert peeked.holds(atom("path", "c0_n1", "c1_n3"))
        assert not peeked.holds(atom("path", "c0_n0", "c0_n1"))
        assert materialized.model() == before_world
        assert dict(materialized._counts) == before_counts
        assert list(program.facts) == before_facts
        assert vars(materialized.statistics) == before_statistics  # no trace

    def test_engine_cache_serves_maintained_model(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        materialized.apply(insertions=[atom("edge", "c1_n3", "c0_n0")])
        world = materialized.model()
        engine = materialized.engine
        iterations = engine.statistics.iterations
        assert engine.least_model() is world
        assert engine.statistics.iterations == iterations  # no fixpoint re-run

    def test_engine_least_model_is_delta_maintained(self):
        """Calling the *engine* right after apply() — before model() — must
        pull from the maintained state, not re-run the fixpoint."""
        program = closure_program()
        materialized = MaterializedModel(program)
        engine = materialized.engine
        materialized.apply(insertions=[atom("edge", "c1_n3", "c0_n0")])
        iterations = engine.statistics.iterations
        world = engine.least_model()          # engine first, view second
        assert world is materialized.model()
        assert engine.statistics.iterations == iterations
        assert world.holds(atom("path", "c1_n0", "c0_n3"))

    def test_out_of_band_mutation_triggers_rebuild(self):
        program = closure_program()
        materialized = MaterializedModel(program)
        rebuilds = materialized.statistics.rebuilds
        program.add_fact(atom("edge", "c0_n3", "c1_n0"))  # not via apply()
        assert materialized.holds(atom("path", "c0_n0", "c1_n3"))
        assert materialized.statistics.rebuilds == rebuilds + 1

    def test_derivation_count_sees_out_of_band_mutation(self):
        program = DatalogProgram()
        program.add_fact(atom("q", "a"))
        program.rule(Atom("p", (x,)), Atom("q", (x,)))
        materialized = MaterializedModel(program)
        program.add_fact(atom("p", "b"))  # not via apply()
        assert materialized.derivation_count(atom("p", "b")) == 1
        assert materialized.derivation_count(atom("p", "a")) == 1

    def test_rejects_non_ground_updates(self):
        from repro.exceptions import ReproError

        materialized = MaterializedModel(closure_program())
        with pytest.raises(ReproError):
            materialized.apply(insertions=[Atom("edge", (x, y))])


# ---------------------------------------------------------------------------
# Histogram-planned maintenance
# ---------------------------------------------------------------------------

class TestMaintenancePlanning:
    def test_histogram_and_uniform_maintenance_agree(self):
        for planner in ("histogram", "uniform"):
            program = transitive_closure_program(chains=6, length=4)
            materialized = MaterializedModel(program, planner=planner)
            for batch in update_stream(program, batches=6, churn=0.05, seed=5):
                materialized.apply(*batch)
            assert materialized.model() == DatalogEngine(program).least_model()
            if planner == "histogram":
                assert materialized.planner_statistics.refreshes > 0
            else:
                assert materialized.planner_statistics.refreshes == 0

    def test_maintenance_schedules_are_reordered_by_histograms(self):
        # joined(x, z) :- r1(x, y), r2(y, z) with r2 much smaller than r1:
        # the histogram planner starts the no-delta (rederivation) schedule
        # from the small relation, the uniform planner keeps textual order.
        program = DatalogProgram()
        for i in range(30):
            program.add_fact(atom("r1", f"a{i}", "hub"))
        program.add_fact(atom("r2", "hub", "t"))
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        rule = DatalogRule(
            Atom("joined", (x, z)),
            (DatalogLiteral(Atom("r1", (x, y))), DatalogLiteral(Atom("r2", (y, z)))),
        )
        program.add_rule(rule)

        ordered = MaterializedModel(program, planner="histogram")
        ordered._refresh_planner_stats()
        schedule = ordered._maintenance_schedule(rule, None)
        assert schedule[0][0].atom.predicate == "r2"

        textual = MaterializedModel(program, planner="uniform")
        textual._refresh_planner_stats()
        schedule = textual._maintenance_schedule(rule, None)
        assert schedule[0][0].atom.predicate == "r1"

    def test_invalid_planner_rejected(self):
        with pytest.raises(ValueError):
            MaterializedModel(
                transitive_closure_program(chains=2, length=2), planner="psychic"
            )


# ---------------------------------------------------------------------------
# property: apply() agrees with from-scratch least_model()
# ---------------------------------------------------------------------------

TC_NODES = [f"c{chain}_n{i}" for chain in range(2) for i in range(4)]
TC_EDGES = [atom("edge", u, v) for u in TC_NODES for v in TC_NODES if u != v]


def stratified_program():
    """Recursion *and* negation: reach/2 is recursive over edge/2, blocked/1
    gates it through negation, and far/1 negates the recursive layer."""
    program = DatalogProgram()
    program.rule(Atom("dark", (x,)), Atom("shadow", (x,)))
    program.rule(
        Atom("reach", (x, y)), Atom("edge", (x, y)), (Atom("dark", (y,)), False)
    )
    program.rule(
        Atom("reach", (x, z)),
        Atom("reach", (x, y)),
        Atom("edge", (y, z)),
        (Atom("dark", (z,)), False),
    )
    program.rule(
        Atom("far", (x,)),
        Atom("node", (x,)),
        (Atom("reach", (Parameter("n0"), x)), False),
    )
    return program


SN_NODES = [f"n{i}" for i in range(5)]
SN_FACTS = (
    [atom("node", n) for n in SN_NODES]
    + [atom("shadow", n) for n in SN_NODES]
    + [atom("edge", u, v) for u in SN_NODES for v in SN_NODES if u != v]
)


def _replay(make_program, initial_facts, universe, operations):
    """Apply a random operation sequence both incrementally and by full
    recomputation, asserting agreement after every step."""
    program = make_program()
    for fact in initial_facts:
        program.add_fact(fact)
    materialized = MaterializedModel(program)
    for delete, indices in operations:
        if delete:
            current = sorted({f.atom for f in program.facts}, key=str)
            batch = [current[i % len(current)] for i in indices] if current else []
            materialized.apply(deletions=batch)
        else:
            batch = [universe[i % len(universe)] for i in indices]
            materialized.apply(insertions=batch)
        assert materialized.model() == DatalogEngine(program).least_model()
    # exactness: a final rebuild must reproduce the maintained state
    maintained = materialized.model()
    materialized.refresh()
    assert materialized.model() == maintained


operation_lists = st.lists(
    st.tuples(st.booleans(), st.lists(st.integers(0, 10_000), min_size=1, max_size=3)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(st.sampled_from(TC_EDGES), min_size=3, max_size=10, unique=True),
    operations=operation_lists,
)
def test_property_transitive_closure_agrees_with_recompute(edges, operations):
    def make_program():
        program = DatalogProgram()
        program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
        program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
        return program

    _replay(make_program, edges, TC_EDGES, operations)


@settings(max_examples=40, deadline=None)
@given(
    facts=st.lists(st.sampled_from(SN_FACTS), min_size=3, max_size=12, unique=True),
    operations=operation_lists,
)
def test_property_stratified_negation_agrees_with_recompute(facts, operations):
    _replay(stratified_program, facts, SN_FACTS, operations)


def test_update_stream_batches_are_consistent():
    program = transitive_closure_program(chains=4, length=4)
    live = {f.atom for f in program.facts}
    for insertions, deletions in update_stream(program, batches=12, churn=0.1, seed=5):
        assert set(deletions) <= live
        assert not (set(insertions) & live)
        assert not (set(insertions) & set(deletions))
        live = (live - set(deletions)) | set(insertions)
        assert all(f.predicate == "edge" for f in insertions)


def test_update_stream_drives_materialized_model():
    program = transitive_closure_program(chains=4, length=4)
    materialized = MaterializedModel(program)
    for insertions, deletions in update_stream(program, batches=10, churn=0.05, seed=9):
        materialized.apply(insertions, deletions)
        assert materialized.model() == DatalogEngine(program).least_model()
