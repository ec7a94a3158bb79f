"""Columnar interned fact storage.

Unit coverage for :mod:`repro.datalog.interner` (the bidirectional symbol
table) and :mod:`repro.datalog.columnar` (the :class:`RowStore` /
:class:`ColumnarFactIndex` backend and the generated id-space joins), plus
the ``storage="columnar"`` wiring of
:class:`~repro.datalog.engine.DatalogEngine`,
:class:`~repro.datalog.incremental.MaterializedModel` and
:class:`~repro.db.view.DatalogView`.

The load-bearing guarantee is *representation independence*: columnar
storage must be observationally identical to the object index — same least
models, same incremental apply results, same query answers, same evaluation
counters.  The hypothesis properties at the bottom prove it on random
add/discard/absorb sequences against the :class:`FactIndex` contract and on
random stratified programs (including negation).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.columnar import (
    ColumnarFactIndex,
    ColumnarRelation,
    RowStore,
    compile_schedule,
    decode_world,
)
from repro.datalog.engine import DatalogEngine
from repro.datalog.incremental import MaterializedModel
from repro.datalog.index import FactIndex
from repro.datalog.interner import Interner, fast_atom
from repro.datalog.program import DatalogLiteral, DatalogProgram, DatalogRule
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.workloads.generators import transitive_closure_program

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def edge_atoms(pairs):
    return [atom("edge", f"n{a}", f"n{b}") for a, b in pairs]


# ---------------------------------------------------------------------------
# Interner
# ---------------------------------------------------------------------------

class TestInterner:
    def test_intern_is_dense_stable_and_bidirectional(self):
        interner = Interner()
        a, b = Parameter("a"), Parameter("b")
        assert interner.intern(a) == 0
        assert interner.intern(b) == 1
        assert interner.intern(a) == 0  # stable on re-intern
        assert interner.parameter(0) == a and interner.parameter(1) == b
        assert len(interner) == 2 and a in interner and Parameter("zz") not in interner

    def test_encode_decode_roundtrip(self):
        interner = Interner()
        fact = atom("edge", "a", "b")
        key, row = interner.encode_atom(fact)
        assert key == ("edge", 2)
        assert interner.decode_row("edge", row) == fact

    def test_row_of_is_none_for_unknown_constants(self):
        interner = Interner()
        interner.encode_atom(atom("edge", "a", "b"))
        assert interner.row_of(atom("edge", "a", "b")) is not None
        assert interner.row_of(atom("edge", "a", "zz")) is None

    def test_fast_atom_equals_and_hashes_like_a_built_atom(self):
        built = atom("edge", "a", "b")
        fast = fast_atom("edge", (Parameter("a"), Parameter("b")))
        assert fast == built and hash(fast) == hash(built)
        assert len({fast, built}) == 1


# ---------------------------------------------------------------------------
# RowStore / ColumnarRelation
# ---------------------------------------------------------------------------

class TestRowStore:
    def test_add_discard_and_membership(self):
        store = RowStore()
        assert store.add_row(("edge", 2), (0, 1)) and not store.add_row(("edge", 2), (0, 1))
        assert (("edge", 2), (0, 1)) in store and len(store) == 1
        assert store.discard_row(("edge", 2), (0, 1)) and not store
        assert store.count("edge", 2) == 0

    def test_buckets_and_columns_are_lazy_and_consistent(self):
        relation = ColumnarRelation(2)
        for row in [(0, 1), (0, 2), (3, 1)]:
            relation.add(row)
        assert relation._buckets is None and relation._columns is None
        assert relation.buckets[0][0] == {(0, 1), (0, 2)}
        assert sorted(relation.columns[1]) == [1, 1, 2]
        # Mutation keeps materialized buckets honest and drops columns.
        relation.add((3, 2))
        assert relation.buckets[0][3] == {(3, 1), (3, 2)}
        assert sorted(relation.columns[0]) == [0, 0, 3, 3]
        relation.discard((0, 2))
        assert relation.buckets[0][0] == {(0, 1)}

    def test_histogram_and_selectivity_match_fact_index(self):
        facts = edge_atoms([(0, 1), (0, 2), (1, 2), (3, 2)])
        plain = FactIndex(facts)
        columnar = ColumnarFactIndex(facts)
        for position in (0, 1):
            assert sorted(plain.histogram_sizes("edge", 2, position)) == sorted(
                columnar.histogram_sizes("edge", 2, position)
            )
        for positions in ([], [0], [1], [0, 1]):
            assert plain.selectivity("edge", 2, positions) == pytest.approx(
                columnar.selectivity("edge", 2, positions)
            )


# ---------------------------------------------------------------------------
# ColumnarFactIndex: the FactIndex contract
# ---------------------------------------------------------------------------

class TestColumnarFactIndex:
    def facts(self):
        return edge_atoms([(i, (i * 3) % 7) for i in range(20)]) + [
            atom("node", f"n{i}") for i in range(7)
        ] + [atom("tick")]

    def test_mirrors_fact_index_contents(self):
        facts = self.facts()
        columnar = ColumnarFactIndex(facts)
        plain = FactIndex(facts)
        assert len(columnar) == len(plain)
        assert set(columnar) == set(plain)
        assert columnar.relations() == plain.relations()
        for predicate, arity in plain.relations():
            assert columnar.count(predicate, arity) == plain.count(predicate, arity)
            assert columnar.relation(predicate, arity) == plain.relation(predicate, arity)
        for fact in facts:
            assert fact in columnar
        assert atom("edge", "n99", "n0") not in columnar

    def test_candidates_agree_with_fact_index(self):
        facts = self.facts()
        columnar = ColumnarFactIndex(facts)
        plain = FactIndex(facts)
        for bound in ([], [(0, Parameter("n1"))], [(1, Parameter("n0"))],
                      [(0, Parameter("n1")), (1, Parameter("n3"))]):
            # Both return a superset bucket; the *smallest* bucket choice is
            # an implementation detail, membership restricted to matches is
            # the contract.
            mine = set(columnar.candidates("edge", 2, bound))
            theirs = set(plain.candidates("edge", 2, bound))
            matching = {
                fact for fact in plain.relation("edge", 2)
                if all(fact.args[p] == v for p, v in bound)
            }
            assert matching <= mine and matching <= theirs
        assert set(columnar.candidates("edge", 2, [(0, Parameter("zz"))])) == set()

    def test_absorb_and_retract_all_fast_paths(self):
        interner = Interner()
        base = ColumnarFactIndex(edge_atoms([(0, 1), (1, 2)]), interner=interner)
        delta = ColumnarFactIndex(edge_atoms([(2, 3)]), interner=interner)
        base.absorb(delta)
        assert atom("edge", "n2", "n3") in base and len(base) == 3
        base.retract_all(ColumnarFactIndex(edge_atoms([(0, 1), (9, 9)]), interner=interner))
        assert atom("edge", "n0", "n1") not in base and len(base) == 2

    def test_absorb_foreign_interner_reencodes(self):
        base = ColumnarFactIndex(edge_atoms([(0, 1)]))
        other = ColumnarFactIndex(edge_atoms([(1, 2)]))  # its own interner
        base.absorb(other)
        assert set(base) == set(edge_atoms([(0, 1), (1, 2)]))

    def test_decode_world_matches_from_fact_index(self):
        facts = self.facts()
        columnar = ColumnarFactIndex(facts)
        from repro.semantics.worlds import World

        assert decode_world(columnar.store, columnar.interner) == World(facts)


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------

class TestEngineStorage:
    def program(self):
        program = transitive_closure_program(chains=4, length=4)
        program.add_rule(DatalogRule(Atom("node", (X,)), (DatalogLiteral(Atom("edge", (X, Y))),)))
        program.add_rule(
            DatalogRule(
                Atom("sink", (X,)),
                (DatalogLiteral(Atom("node", (X,))),
                 DatalogLiteral(Atom("path", (X, X)), False)),
            )
        )
        return program

    def test_default_storage_resolution(self):
        program = self.program()
        assert DatalogEngine(program).storage == "columnar"
        assert DatalogEngine(program, strategy="semi-naive").storage == "objects"

    def test_columnar_rejected_under_scanning_strategies(self):
        with pytest.raises(ValueError):
            DatalogEngine(self.program(), strategy="semi-naive", storage="columnar")
        with pytest.raises(ValueError):
            DatalogEngine(self.program(), storage="rowwise")

    def test_models_and_counters_identical_across_storages(self):
        program = self.program()
        objects = DatalogEngine(self.program(), storage="objects")
        columnar = DatalogEngine(program, storage="columnar")
        assert columnar.least_model() == objects.least_model()
        assert columnar.statistics == objects.statistics

    def test_least_index_returns_storage_level_index(self):
        reference = set(DatalogEngine(self.program(), storage="objects").least_index())
        for kwargs, expected in (
            (dict(storage="objects"), FactIndex),
            (dict(storage="columnar"), ColumnarFactIndex),
        ):
            index = DatalogEngine(self.program(), **kwargs).least_index()
            assert isinstance(index, expected)
            assert set(index) == reference

    def test_least_index_rejected_under_scanning_strategies(self):
        with pytest.raises(ValueError):
            DatalogEngine(self.program(), strategy="naive").least_index()

    def test_repeated_variable_in_one_literal(self):
        # Regression: magic rewrites emit literals like magic(x, x); the
        # generated join must compare the row positions, not probe an
        # unbound local.
        program = DatalogProgram()
        program.add_fact(atom("pair", "a", "a"))
        program.add_fact(atom("pair", "a", "b"))
        program.add_rule(DatalogRule(Atom("same", (X,)), (DatalogLiteral(Atom("pair", (X, X))),)))
        model = DatalogEngine(program, storage="columnar").least_model()
        assert model == DatalogEngine(program, storage="objects").least_model()
        assert atom("same", "a") in model.atoms

    def test_zero_arity_predicates(self):
        program = DatalogProgram()
        program.add_fact(atom("go"))
        program.add_fact(atom("edge", "a", "b"))
        program.add_rule(
            DatalogRule(
                Atom("path", (X, Y)),
                (DatalogLiteral(Atom("go", ())), DatalogLiteral(Atom("edge", (X, Y)))),
            )
        )
        model = DatalogEngine(program, storage="columnar").least_model()
        assert model == DatalogEngine(program, storage="objects").least_model()
        assert atom("path", "a", "b") in model.atoms


# ---------------------------------------------------------------------------
# The equivalence properties: columnar ≡ objects
# ---------------------------------------------------------------------------

def build_random_program(edges, with_two_hop, with_negation, with_same_generation):
    """The random stratified program family of the engine property tests:
    transitive closure plus optional multi-literal
    joins, same-generation recursion and stratified negation."""
    program = DatalogProgram()
    names = set()
    for source, target in edges:
        program.add_fact(atom("edge", f"n{source}", f"n{target}"))
        names.update((f"n{source}", f"n{target}"))
    for name in sorted(names):
        program.add_fact(atom("node", name))
    program.add_rule(DatalogRule(Atom("path", (X, Y)), (DatalogLiteral(Atom("edge", (X, Y))),)))
    program.add_rule(
        DatalogRule(
            Atom("path", (X, Z)),
            (DatalogLiteral(Atom("edge", (X, Y))), DatalogLiteral(Atom("path", (Y, Z)))),
        )
    )
    if with_two_hop:
        program.add_rule(
            DatalogRule(
                Atom("two_hop", (X, Z)),
                (DatalogLiteral(Atom("edge", (X, Y))), DatalogLiteral(Atom("edge", (Y, Z)))),
            )
        )
    if with_same_generation:
        program.add_rule(DatalogRule(Atom("sg", (X, X)), (DatalogLiteral(Atom("node", (X,))),)))
        program.add_rule(
            DatalogRule(
                Atom("sg", (X, Z)),
                (
                    DatalogLiteral(Atom("edge", (Y, X))),
                    DatalogLiteral(Atom("sg", (Y, Variable("w")))),
                    DatalogLiteral(Atom("edge", (Variable("w"), Z))),
                ),
            )
        )
    if with_negation:
        program.add_rule(
            DatalogRule(
                Atom("unreachable", (X, Y)),
                (
                    DatalogLiteral(Atom("node", (X,))),
                    DatalogLiteral(Atom("node", (Y,))),
                    DatalogLiteral(Atom("path", (X, Y)), False),
                ),
            )
        )
    return program


def canonical(result):
    return sorted(
        sorted((variable.name, parameter.name) for variable, parameter in binding.items())
        for binding in result
    )


datalog_edges = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=10
)
index_moves = st.lists(
    st.tuples(st.sampled_from(["add", "discard", "absorb"]),
              st.integers(0, 4), st.integers(0, 4)),
    min_size=1,
    max_size=25,
)
update_moves = st.lists(
    st.tuples(st.booleans(), st.integers(0, 4), st.integers(0, 4)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=50, deadline=None)
@given(index_moves)
def test_columnar_index_equals_fact_index_under_mutation(moves):
    """A random add/discard/absorb sequence leaves ColumnarFactIndex and
    FactIndex holding identical fact sets, counts, histograms and
    selectivities — the whole observable FactIndex contract."""
    plain = FactIndex()
    columnar = ColumnarFactIndex()
    for action, a, b in moves:
        fact = atom("edge", f"n{a}", f"n{b}")
        if action == "add":
            assert plain.add(fact) == columnar.add(fact)
        elif action == "discard":
            assert plain.discard(fact) == columnar.discard(fact)
        else:
            batch = edge_atoms([(a, b), (b, a)])
            fresh = [f for f in batch if f not in plain]
            plain.absorb(FactIndex(fresh))
            columnar.absorb(ColumnarFactIndex(fresh, interner=columnar.interner))
    assert set(plain) == set(columnar)
    assert len(plain) == len(columnar)
    assert plain.relations() == columnar.relations()
    for predicate, arity in plain.relations():
        for position in range(arity):
            assert plain.histogram(predicate, arity, position) == columnar.histogram(
                predicate, arity, position
            )
        assert plain.selectivity(predicate, arity, [0]) == pytest.approx(
            columnar.selectivity(predicate, arity, [0])
        )


@settings(max_examples=25, deadline=None)
@given(datalog_edges, st.booleans(), st.booleans(), st.booleans())
def test_columnar_least_model_and_queries_match_objects(
    edges, with_two_hop, with_negation, with_same_generation
):
    """Columnar storage computes exactly the least model, the evaluation
    counters and the query answers of object storage, stratified negation
    included."""
    build = lambda: build_random_program(
        edges, with_two_hop, with_negation, with_same_generation
    )
    objects = DatalogEngine(build(), storage="objects")
    reference = objects.least_model()
    columnar = DatalogEngine(build(), storage="columnar")
    assert columnar.least_model() == reference
    assert columnar.statistics == objects.statistics
    goals = [
        Atom("path", (Variable("a"), Variable("b"))),
        Atom("path", (Parameter(f"n{edges[0][0]}"), Variable("b"))),
    ]
    if with_negation:
        goals.append(Atom("unreachable", (Parameter(f"n{edges[0][0]}"), Variable("b"))))
    for goal in goals:
        expected = canonical(DatalogEngine(build(), storage="objects").query(goal, mode="magic"))
        assert canonical(
            DatalogEngine(build(), storage="columnar").query(goal, mode="magic")
        ) == expected


@settings(max_examples=20, deadline=None)
@given(datalog_edges, update_moves, st.booleans())
def test_columnar_incremental_apply_matches_objects(edges, moves, with_negation):
    """A columnar MaterializedModel applies the same insert/delete stream to
    the same models and UpdateResults as an object one, and agrees with a
    from-scratch recompute at the end."""
    build = lambda: build_random_program(edges, False, with_negation, False)
    models = [
        MaterializedModel(build(), storage="objects"),
        MaterializedModel(build(), storage="columnar"),
    ]
    for is_insert, source, target in moves:
        fact = atom("edge", f"n{source}", f"n{target}")
        batch = ([fact], []) if is_insert else ([], [fact])
        results = [model.apply(*batch) for model in models]
        assert results[1] == results[0]
        assert models[1].model() == models[0].model()
    recomputed = DatalogEngine(models[0].program, storage="objects").least_model()
    for model in models:
        assert model.model() == recomputed
