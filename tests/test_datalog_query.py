"""The goal-directed query layer: magic-set rewriting, the QueryResult API,
histogram join statistics, and the materialized-model query path.

The headline property (mirroring the benchmark's contract) is at the
bottom: on randomly generated stratified programs and random goals,
magic-set evaluation returns exactly the bindings full materialization
does — with fallback to full evaluation when the rewrite would lose
stratifiability.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    DatalogEngine,
    DatalogLiteral,
    DatalogProgram,
    DatalogRule,
    JoinStatistics,
    MaterializedModel,
    QueryResult,
    adornment_of,
    magic_rewrite,
)
from repro.datalog.index import FactIndex
from repro.datalog.magic import answer as magic_answer
from repro.exceptions import MagicRewriteError
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.workloads.generators import (
    point_query,
    same_generation_program,
    transitive_closure_program,
)

x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def path_program(edges=(("a", "b"), ("b", "c"), ("c", "d"), ("e", "f"))):
    program = DatalogProgram()
    for source, target in edges:
        program.add_fact(atom("edge", source, target))
    program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
    program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
    return program


def _names(bindings, variable):
    return sorted(binding[variable].name for binding in bindings)


# ---------------------------------------------------------------------------
# Adornments and the rewrite itself
# ---------------------------------------------------------------------------


class TestAdornment:
    def test_constants_are_bound(self):
        assert adornment_of(Atom("sg", (Parameter("ann"), x))) == "bf"

    def test_variables_in_bound_set_are_bound(self):
        assert adornment_of(Atom("sg", (x, y)), bound={x}) == "bf"

    def test_all_free(self):
        assert adornment_of(Atom("sg", (x, y))) == "ff"


class TestRewrite:
    def test_rewrite_produces_seed_and_answer_predicate(self):
        rewritten = magic_rewrite(path_program(), Atom("path", (Parameter("a"), x)))
        assert rewritten.answer_predicate == "path#bf"
        assert rewritten.seed == Atom("magic#path#bf", (Parameter("a"),))
        assert ("path", "bf") in rewritten.adornments

    def test_rewrite_of_edb_goal_raises(self):
        with pytest.raises(MagicRewriteError):
            magic_rewrite(path_program(), Atom("edge", (Parameter("a"), x)))

    def test_rewritten_model_is_goal_relevant(self):
        # Chains a->b->c->d and e->f are disjoint: a bf query from "a" must
        # never derive path facts about the e/f chain.
        bindings, rewritten, engine = magic_answer(
            path_program(), Atom("path", (Parameter("a"), x))
        )
        assert _names(bindings, x) == ["b", "c", "d"]
        derived = engine.least_model().atoms_for(rewritten.answer_predicate)
        # Sub-goals of the recursion (path from b, c, ...) land in the same
        # adorned relation, but the untouched chain never does.
        assert derived
        assert all(
            fact.args[0].name not in ("e", "f") for fact in derived
        )

    def test_mixed_predicate_facts_are_imported(self):
        # A predicate with both facts and rules: the EDB facts must survive
        # the rewrite (guarded by the magic set).
        program = path_program()
        program.add_fact(atom("path", "x0", "x1"))
        result = DatalogEngine(program).query(
            Atom("path", (Parameter("x0"), x)), mode="magic"
        )
        assert _names(result, x) == ["x1"]


# ---------------------------------------------------------------------------
# QueryResult API and engine modes
# ---------------------------------------------------------------------------


class TestQueryResult:
    def test_is_a_list_of_bindings(self):
        result = DatalogEngine(path_program()).query(Atom("path", (Parameter("a"), x)))
        assert isinstance(result, list)
        assert result.bindings == list(result)
        assert _names(result, x) == ["b", "c", "d"]

    def test_magic_mode_counters(self):
        result = DatalogEngine(path_program()).query(
            Atom("path", (Parameter("a"), x)), mode="magic"
        )
        assert result.mode == "magic"
        assert result.adornment == "bf"
        assert result.join_passes > 0
        assert result.facts_derived > 0
        assert result.facts_touched > 0

    def test_full_mode_counters(self):
        result = DatalogEngine(path_program()).query(
            Atom("path", (Parameter("a"), x)), mode="full"
        )
        assert result.mode == "full"
        assert result.join_passes > 0          # this call ran the fixpoint

    def test_cached_model_answers_auto_with_zero_passes(self):
        engine = DatalogEngine(path_program())
        engine.least_model()
        result = engine.query(Atom("path", (Parameter("a"), x)))
        assert result.mode == "full"
        assert result.join_passes == 0         # no evaluation for this query

    def test_uncached_auto_goes_magic(self):
        result = DatalogEngine(path_program()).query(Atom("path", (Parameter("a"), x)))
        assert result.mode == "magic"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            DatalogEngine(path_program()).query(Atom("path", (x, y)), mode="sideways")

    def test_planner_choice_reaches_the_inner_magic_engine(self):
        _, _, inner = magic_answer(
            path_program(), Atom("path", (Parameter("a"), x)), planner="uniform"
        )
        assert inner.planner == "uniform"

    def test_cached_model_serves_edb_goals_in_auto_mode(self):
        engine = DatalogEngine(path_program())
        engine.least_model()
        result = engine.query(Atom("edge", (Parameter("a"), x)))
        assert result.mode == "full"           # probe the cached model's buckets
        assert result.join_passes == 0
        assert _names(result, x) == ["b"]


class TestQueryEdgeCases:
    def test_ground_goal_absent_from_model(self):
        engine = DatalogEngine(path_program())
        for mode in ("auto", "magic", "full"):
            result = engine.query(Atom("path", (Parameter("d"), Parameter("a"))), mode=mode)
            assert list(result) == []

    def test_ground_goal_present(self):
        result = DatalogEngine(path_program()).query(
            Atom("path", (Parameter("a"), Parameter("d"))), mode="magic"
        )
        assert result == [{}]                  # one answer, nothing to bind
        assert result.adornment == "bb"

    def test_edb_only_predicate_goal(self):
        engine = DatalogEngine(path_program())
        result = engine.query(Atom("edge", (Parameter("a"), x)))
        assert result.mode == "edb"
        assert _names(result, x) == ["b"]
        assert engine._model is None           # nothing was materialized

    def test_edb_goal_in_magic_mode_uses_direct_probe(self):
        # There is nothing to rewrite for an extensional goal; the probe is
        # already goal-directed, so magic mode uses it too.
        result = DatalogEngine(path_program()).query(Atom("edge", (x, y)), mode="magic")
        assert result.mode == "edb"
        assert len(result) == 4

    def test_unknown_predicate_goal(self):
        assert DatalogEngine(path_program()).query(Atom("nope", (x,))) == []

    def test_all_free_goal_still_goal_directed(self):
        # ff adornment: magic restricts nothing for the goal predicate, but
        # the evaluation still only touches goal-relevant predicates.
        result = DatalogEngine(path_program()).query(Atom("path", (x, y)), mode="magic")
        full = DatalogEngine(path_program()).query(Atom("path", (x, y)), mode="full")
        assert sorted(map(repr, result)) == sorted(map(repr, full))

    def test_goal_with_repeated_variable(self):
        program = path_program(edges=(("a", "b"), ("b", "a")))
        result = DatalogEngine(program).query(Atom("path", (x, x)), mode="magic")
        full = DatalogEngine(path_program(edges=(("a", "b"), ("b", "a")))).query(
            Atom("path", (x, x)), mode="full"
        )
        assert sorted(map(repr, result)) == sorted(map(repr, full))
        assert _names(result, x) == ["a", "b"]


class TestNegation:
    def negation_program(self):
        program = DatalogProgram()
        for name in ("a", "b", "c"):
            program.add_fact(atom("node", name))
        program.add_fact(atom("edge", "a", "b"))
        program.rule(Atom("reach", (x,)), Atom("edge", (Parameter("a"), x)))
        program.rule(
            Atom("isolated", (x,)), Atom("node", (x,)), (Atom("reach", (x,)), False)
        )
        return program

    def test_goal_under_stratified_negation(self):
        result = DatalogEngine(self.negation_program()).query(
            Atom("isolated", (x,)), mode="magic"
        )
        assert _names(result, x) == ["a", "c"]

    def unstratifiable_after_rewrite_program(self):
        # p(x) :- a(x,y), not r(y), b(y,z), q(z).   The SIP schedules the
        # negation right after a(x,y); q is evaluated after it and also
        # feeds r's sub-computation, so the magic/supplementary cycle
        # q# -> magic#q <- sup(p, after the negation) crosses the negative
        # edge: the rewritten program is unstratifiable although the
        # original is stratified.
        program = DatalogProgram()
        program.add_fact(atom("a", "n1", "n2"))
        program.add_fact(atom("b", "n2", "n3"))
        program.add_fact(atom("c", "n2", "n3"))
        program.add_fact(atom("d", "n3"))
        program.rule(
            Atom("p", (x,)),
            Atom("a", (x, y)),
            (Atom("r", (y,)), False),
            Atom("b", (y, z)),
            Atom("q", (z,)),
        )
        program.rule(Atom("r", (y,)), Atom("c", (y, w)), Atom("q", (w,)))
        program.rule(Atom("q", (z,)), Atom("d", (z,)))
        return program

    def test_unstratifiable_after_rewrite_raises_in_magic_mode(self):
        engine = DatalogEngine(self.unstratifiable_after_rewrite_program())
        with pytest.raises(MagicRewriteError):
            engine.query(Atom("p", (Parameter("n1"),)), mode="magic")

    def test_unstratifiable_after_rewrite_falls_back_in_auto_mode(self):
        engine = DatalogEngine(self.unstratifiable_after_rewrite_program())
        result = engine.query(Atom("p", (Parameter("n1"),)))
        assert result.mode == "full"
        assert result.fallback_reason is not None
        full = DatalogEngine(self.unstratifiable_after_rewrite_program()).query(
            Atom("p", (Parameter("n1"),)), mode="full"
        )
        assert sorted(map(repr, result)) == sorted(map(repr, full))


# ---------------------------------------------------------------------------
# Materialized / view query path
# ---------------------------------------------------------------------------


class TestMaterializedQuery:
    def test_materialized_query_returns_query_result(self):
        materialized = MaterializedModel(path_program())
        result = materialized.query(Atom("path", (Parameter("a"), x)))
        assert isinstance(result, QueryResult)
        assert result.mode == "materialized"
        assert result.join_passes == 0
        assert _names(result, x) == ["b", "c", "d"]

    def test_materialized_query_stays_correct_under_updates(self):
        materialized = MaterializedModel(path_program())
        materialized.apply(deletions=[atom("edge", "b", "c")])
        assert _names(materialized.query(Atom("path", (Parameter("a"), x))), x) == ["b"]

    def test_materialized_magic_mode_delegates_to_engine(self):
        materialized = MaterializedModel(path_program())
        result = materialized.query(Atom("path", (Parameter("a"), x)), mode="magic")
        assert result.mode == "magic"
        assert _names(result, x) == ["b", "c", "d"]

    def test_auto_mode_on_maintained_engine_uses_the_model(self):
        materialized = MaterializedModel(path_program())
        result = materialized.engine.query(Atom("path", (Parameter("a"), x)))
        assert result.mode == "full"
        assert result.join_passes == 0         # served by the maintained model


# ---------------------------------------------------------------------------
# Histogram join statistics
# ---------------------------------------------------------------------------


class TestJoinStatistics:
    def skewed_index(self):
        facts = [atom("r", "hub", f"t{i}") for i in range(9)]
        facts.append(atom("r", "leaf", "t9"))
        return FactIndex(facts)

    def test_histogram_accessor(self):
        histogram = self.skewed_index().histogram("r", 2, 0)
        assert histogram == {Parameter("hub"): 9, Parameter("leaf"): 1}

    def test_column_statistics_capture_skew(self):
        stats = JoinStatistics().refresh(self.skewed_index())
        column = stats.column("r", 2, 0)
        assert column.total == 10 and column.distinct == 2
        assert column.mean_bucket == 5.0
        assert column.expected_probe_matches == pytest.approx(8.2)  # (81+1)/10
        assert column.skew > 1.0

    def test_uniform_column_matches_uniform_estimate(self):
        index = FactIndex([atom("r", f"v{i}", "c") for i in range(10)])
        stats = JoinStatistics().refresh(index)
        assert stats.selectivity("r", 2, [0]) == pytest.approx(
            index.selectivity("r", 2, [0])
        )

    def test_skewed_estimate_exceeds_uniform(self):
        index = self.skewed_index()
        stats = JoinStatistics().refresh(index)
        assert stats.selectivity("r", 2, [0]) > index.selectivity("r", 2, [0])

    def test_unknown_relation_estimates_zero(self):
        assert JoinStatistics().selectivity("nope", 2, [0]) == 0.0

    def test_planners_compute_identical_models(self):
        histogram = DatalogEngine(path_program(), planner="histogram").least_model()
        uniform = DatalogEngine(path_program(), planner="uniform").least_model()
        assert histogram == uniform

    def test_engine_refreshes_per_round(self):
        engine = DatalogEngine(path_program())
        engine.least_model()
        assert engine.planner_statistics.refreshes == engine.statistics.iterations

    def test_invalid_planner_rejected(self):
        with pytest.raises(ValueError):
            DatalogEngine(path_program(), planner="oracle")


# ---------------------------------------------------------------------------
# Magic query cache
# ---------------------------------------------------------------------------

def canonical(result):
    return sorted(
        sorted((variable.name, parameter.name) for variable, parameter in binding.items())
        for binding in result
    )


class TestMagicQueryCache:
    def test_repeated_point_query_is_served_from_cache(self):
        program = same_generation_program(depth=3, branching=2)
        engine = DatalogEngine(program)
        goal = point_query(program, "sg")
        first = engine.query(goal, mode="magic")
        second = engine.query(goal, mode="magic")
        assert not first.cached and second.cached
        assert canonical(first) == canonical(second)
        assert second.join_passes == 0 and second.facts_derived == 0
        assert second.mode == "magic" and second.adornment == first.adornment

    def test_same_adornment_shares_the_rewrite_template(self):
        program = same_generation_program(depth=3, branching=2)
        engine = DatalogEngine(program)
        leaves = sorted(
            {f.atom.args[0] for f in program.facts if f.atom.predicate == "parent"},
            key=lambda p: p.name,
        )
        first = engine.query(Atom("sg", (leaves[0], Variable("z"))), mode="magic")
        second = engine.query(Atom("sg", (leaves[1], Variable("z"))), mode="magic")
        assert not first.cached and not second.cached  # different constants
        assert len(engine._magic_templates) == 1  # one bf template shared
        assert len(engine._magic_models) == 2

    def test_fact_changes_invalidate_the_cache(self):
        program = transitive_closure_program(chains=2, length=3)
        engine = DatalogEngine(program)
        goal = Atom("path", (Parameter("c0_n0"), Variable("z")))
        before = engine.query(goal, mode="magic")
        assert engine.query(goal, mode="magic").cached
        program.add_fact(Atom("edge", (Parameter("c0_n3"), Parameter("c0_n99"))))
        after = engine.query(goal, mode="magic")
        assert not after.cached
        assert len(after) == len(before) + 1

    def test_cache_is_bounded(self):
        from repro.datalog.engine import MAGIC_MODEL_CACHE_SIZE

        program = transitive_closure_program(chains=8, length=4)
        engine = DatalogEngine(program)
        constants = sorted(program.parameters(), key=lambda p: p.name)
        assert len(constants) > MAGIC_MODEL_CACHE_SIZE
        for constant in constants[: MAGIC_MODEL_CACHE_SIZE + 4]:
            engine.query(Atom("path", (constant, Variable("z"))), mode="magic")
        assert len(engine._magic_models) == MAGIC_MODEL_CACHE_SIZE

    def test_plan_instantiate_roundtrip_matches_rewrite(self):
        from repro.datalog import magic

        program = same_generation_program(depth=3, branching=2)
        goal = point_query(program, "sg")
        template = magic.plan(program, goal)
        assert template.adornment == "bf"
        via_template = magic.instantiate(template, program, goal)
        direct = magic.rewrite(program, goal)
        assert via_template.answer_predicate == direct.answer_predicate
        assert via_template.seed == direct.seed
        assert set(via_template.program.rules) == set(direct.program.rules)
        wrong = Atom("sg", (Variable("a"), Variable("b")))
        from repro.exceptions import MagicRewriteError

        with pytest.raises(MagicRewriteError):
            magic.instantiate(template, program, wrong)


# ---------------------------------------------------------------------------
# The equivalence property: magic ≡ full
# ---------------------------------------------------------------------------

datalog_edges = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=10
)
goal_seed = st.integers(0, 5)


def build_random_program(edges, with_same_generation, with_negation):
    program = DatalogProgram()
    names = set()
    for source, target in edges:
        program.add_fact(atom("edge", f"n{source}", f"n{target}"))
        names.update((f"n{source}", f"n{target}"))
    for name in sorted(names):
        program.add_fact(atom("node", name))
    program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
    program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
    if with_same_generation:
        program.rule(Atom("sg", (x, x)), Atom("node", (x,)))
        program.rule(
            Atom("sg", (x, z)),
            Atom("edge", (y, x)),
            Atom("sg", (y, w)),
            Atom("edge", (w, z)),
        )
    if with_negation:
        program.rule(
            Atom("unreachable", (x, y)),
            Atom("node", (x,)),
            Atom("node", (y,)),
            (Atom("path", (x, y)), False),
        )
    return program


@settings(max_examples=60, deadline=None)
@given(
    datalog_edges,
    st.booleans(),
    st.booleans(),
    st.sampled_from(["path", "sg", "unreachable"]),
    st.sampled_from(["bf", "fb", "bb", "ff"]),
    goal_seed,
    goal_seed,
)
def test_magic_answers_equal_full_answers(
    edges, with_same_generation, with_negation, predicate, pattern, first, second
):
    """Magic-set evaluation and full materialization return exactly the same
    bindings, for every binding pattern, on random stratified programs —
    with fallback (mode='auto') absorbing the non-rewritable cases."""
    if predicate == "sg" and not with_same_generation:
        predicate = "path"
    if predicate == "unreachable" and not with_negation:
        predicate = "path"
    args = (
        Parameter(f"n{first}") if pattern[0] == "b" else x,
        Parameter(f"n{second}") if pattern[1] == "b" else y,
    )
    goal = Atom(predicate, args)

    build = lambda: build_random_program(edges, with_same_generation, with_negation)
    auto = DatalogEngine(build()).query(goal)            # magic or fallback
    full = DatalogEngine(build()).query(goal, mode="full")
    canonical = lambda result: sorted(
        sorted((v.name, p.name) for v, p in binding.items()) for binding in result
    )
    assert canonical(auto) == canonical(full)
