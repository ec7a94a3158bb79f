"""The observability layer: tracing, metrics and provenance (repro.obs).

Four kinds of guarantees are pinned here:

* **units** — the tracer (nesting, thread parenting, export/replay, the
  summarize aggregation), the metrics registry (instrument semantics, the
  façade discipline the statistics objects now live on) and the provenance
  store (first-wins edges, iterative tree building, cycle detection);
* **correctness** — ``engine.explain(atom)`` returns a derivation tree
  whose every rule instance *re-evaluates* against the least model
  (matching substitution exists, positive premises hold, negated premises
  are absent), for every derived atom of transitive-closure and
  same-generation workloads, on both storage backends;
* **equivalence** — turning tracing/provenance on changes no model, no
  query answer and no statistic, across objects/columnar storage
  (hypothesis property), and the no-op default records
  exactly zero entries (directed);
* **pinning** — the registry-backed counters report the same numbers the
  pre-façade dataclasses did on a fixed workload (regression).
"""

import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.engine import DatalogEngine, EvaluationStatistics
from repro.datalog.incremental import MaterializedModel
from repro.datalog.program import DatalogLiteral, DatalogProgram, DatalogRule
from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintViolationError
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.obs import (
    NOOP_TRACER,
    Counter,
    Derivation,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopTracer,
    ProvenanceError,
    ProvenanceRecorder,
    Tracer,
    derivation_tree,
    read_trace,
    summarize_trace,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import MetricsFacade, facade_fields
from repro.obs.tracing import render_summary

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def tc_program(edges):
    program = DatalogProgram()
    for a, b in edges:
        program.add_fact(Atom("edge", (Parameter(a), Parameter(b))))
    program.add_rule(DatalogRule(Atom("path", (X, Y)), (DatalogLiteral(Atom("edge", (X, Y))),)))
    program.add_rule(
        DatalogRule(
            Atom("path", (X, Y)),
            (DatalogLiteral(Atom("edge", (X, Z))), DatalogLiteral(Atom("path", (Z, Y)))),
        )
    )
    return program


def sg_program(edges):
    """Same-generation over a parent relation, with a negated filter."""
    program = DatalogProgram()
    nodes = set()
    for a, b in edges:
        program.add_fact(Atom("parent", (Parameter(a), Parameter(b))))
        nodes.update((a, b))
    for n in sorted(nodes):
        program.add_fact(Atom("node", (Parameter(n),)))
    program.add_rule(DatalogRule(Atom("sg", (X, X)), (DatalogLiteral(Atom("node", (X,))),)))
    program.add_rule(
        DatalogRule(
            Atom("sg", (X, Y)),
            (
                DatalogLiteral(Atom("parent", (Z, X))),
                DatalogLiteral(Atom("sg", (Z, Z))),
                DatalogLiteral(Atom("parent", (Z, Y))),
            ),
        )
    )
    program.add_rule(
        DatalogRule(
            Atom("lonely", (X,)),
            (DatalogLiteral(Atom("node", (X,))), DatalogLiteral(Atom("parent", (X, X)), False)),
        )
    )
    return program


CHAIN = [(f"n{i}", f"n{i + 1}") for i in range(6)]
DIAMOND = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")]


# ---------------------------------------------------------------------------
# metrics units
# ---------------------------------------------------------------------------

def test_counter_gauge_histogram():
    counter = Counter("c")
    assert counter.inc() == 1 and counter.inc(4) == 5
    counter.reset()
    assert counter.value == 0

    gauge = Gauge("g")
    gauge.set(7)
    assert gauge.value == 7

    histogram = Histogram("h")
    assert histogram.percentile(50) is None
    for value in [5, 1, 3, 2, 4]:
        histogram.observe(value)
    assert histogram.values == [1, 2, 3, 4, 5]
    assert histogram.percentile(50) == 3
    assert histogram.percentile(99) == 5
    assert histogram.snapshot() == {"count": 5, "total": 15, "p50": 3, "p99": 5}


def test_registry_create_on_first_use_and_type_guard():
    registry = MetricsRegistry()
    registry.counter("a.x").inc(2)
    registry.gauge("a.y").set(9)
    registry.histogram("a.z").observe(1.5)
    assert registry.counter("a.x") is registry.counter("a.x")
    with pytest.raises(TypeError):
        registry.gauge("a.x")
    snap = registry.snapshot()
    assert snap["a.x"] == 2 and snap["a.y"] == 9
    assert snap["a.z"]["count"] == 1
    assert registry.snapshot(prefix="a.x") == {"a.x": 2}
    assert "a.x" in registry and "nope" not in registry


def test_facade_reads_and_writes_registry():
    @facade_fields
    class Demo(MetricsFacade):
        FIELDS = ("hits", "misses")
        PREFIX = "demo."

    registry = MetricsRegistry()
    facade = Demo(registry=registry, hits=3)
    assert facade.hits == 3 and facade.misses == 0
    facade.misses += 2
    assert registry.counter("demo.misses").value == 2
    registry.counter("demo.hits").inc()
    assert facade.hits == 4
    assert facade == {"hits": 4, "misses": 2}
    assert facade == Demo(registry=MetricsRegistry(), hits=4, misses=2)
    assert "hits=4" in repr(facade)
    with pytest.raises(TypeError):
        Demo(bogus=1)
    # A fresh façade on the same registry resets the shared counters.
    fresh = Demo(registry=registry)
    assert fresh.hits == 0 and registry.counter("demo.hits").value == 0


# ---------------------------------------------------------------------------
# tracer units
# ---------------------------------------------------------------------------

def test_spans_nest_and_record():
    tracer = Tracer()
    with tracer.span("outer", kind="test") as outer:
        with tracer.span("inner"):
            pass
        outer.annotate(extra=1)
    assert len(tracer) == 2
    inner, outer = tracer.entries  # completion order: children first
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None
    assert outer["attrs"] == {"kind": "test", "extra": 1}
    assert inner["duration"] >= 0


def test_span_records_error_and_unwinds():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("no")
    (entry,) = tracer.entries
    assert entry["attrs"]["error"] == "ValueError"
    with tracer.span("after"):
        pass
    assert tracer.entries[-1]["parent"] is None  # stack fully unwound


def test_threads_get_independent_span_stacks():
    tracer = Tracer()

    def work(name):
        with tracer.span(name):
            with tracer.span(f"{name}.child"):
                pass

    threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(tracer) == 8
    by_id = {entry["id"]: entry for entry in tracer.entries}
    for entry in tracer.entries:
        if entry["parent"] is None:
            continue
        parent = by_id[entry["parent"]]
        assert entry["name"] == f"{parent['name']}.child"
        assert entry["thread"] == parent["thread"]


def test_export_read_summarize_roundtrip(tmp_path):
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("round"):
            with tracer.span("pass"):
                pass
    path = tmp_path / "trace.jsonl"
    assert tracer.export(path) == 6
    entries = read_trace(path)
    assert entries == tracer.entries
    rows = summarize_trace(entries)
    assert [(depth, name, stats["count"]) for depth, name, stats in rows] == [
        (0, "round", 3),
        (1, "pass", 3),
    ]
    text = render_summary(rows)
    assert "round" in text and "  pass" in text and "p99" in text
    tracer.clear()
    assert len(tracer) == 0


def test_summarize_reports_self_time():
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # round in, pass in, pass out, round out
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("round"):
        with tracer.span("pass"):
            pass
    rows = summarize_trace(tracer.entries)
    stats = {name: row for _, name, row in rows}
    assert stats["round"]["total"] == 10.0 and stats["round"]["self"] == 8.0
    assert stats["pass"]["self"] == 2.0
    header, round_line, _ = render_summary(rows).splitlines()
    assert "self" in header and "8000.0ms" in round_line


def test_noop_tracer_is_free_of_state():
    tracer = NoopTracer()
    assert tracer.enabled is False
    span = tracer.span("anything", attr=1)
    with span as entered:
        entered.annotate(more=2)
    assert not hasattr(tracer, "entries")
    assert NOOP_TRACER.span("x") is NOOP_TRACER.span("y")


# ---------------------------------------------------------------------------
# provenance units
# ---------------------------------------------------------------------------

def test_recorder_first_edge_wins():
    recorder = ProvenanceRecorder()
    a, b, c = Atom("p", (Parameter("a"),)), Atom("q", (Parameter("b"),)), Atom("r", ())
    recorder.record(a, "rule1", (b,))
    recorder.record(a, "rule2", (c,))
    assert recorder.get(a) == ("rule1", (b,))
    assert a in recorder and b not in recorder and len(recorder) == 1
    recorder.clear()
    assert len(recorder) == 0


def test_derivation_tree_builds_shared_dag():
    a, b, c = Atom("a", ()), Atom("b", ()), Atom("c", ())
    edges = {a: ("ra", (b, b)), b: ("rb", (c,))}
    tree = derivation_tree(edges, a, known={a, b, c})
    assert tree.children[0] is tree.children[1]  # shared node, not a copy
    assert tree.depth == 2
    assert {node.atom for node in tree.nodes()} == {a, b, c}
    assert tree.children[0].children[0].is_fact
    with pytest.raises(ProvenanceError):
        derivation_tree(edges, Atom("ghost", ()), known=set())


def test_derivation_tree_detects_cycles():
    a, b = Atom("a", ()), Atom("b", ())
    with pytest.raises(ProvenanceError, match="cyclic"):
        derivation_tree({a: ("r", (b,)), b: ("r", (a,))}, a)


def test_derivation_render_marks_facts_and_repeats():
    engine = DatalogEngine(tc_program(CHAIN), provenance=True)
    tree = engine.explain(Atom("path", (Parameter("n0"), Parameter("n3"))))
    text = tree.render()
    assert "[fact]" in text and "[rule path/2]" in text
    assert tree.render(max_depth=0).count("\n") == 0 or "..." in tree.render(max_depth=0)


# ---------------------------------------------------------------------------
# explain correctness
# ---------------------------------------------------------------------------

def _match_terms(pattern, ground, binding):
    for pattern_arg, ground_arg in zip(pattern.args, ground.args):
        if isinstance(pattern_arg, Parameter):
            if pattern_arg != ground_arg:
                return False
        else:
            bound = binding.get(pattern_arg)
            if bound is None:
                binding[pattern_arg] = ground_arg
            elif bound != ground_arg:
                return False
    return True


def _instantiate(atom, binding):
    return Atom(
        atom.predicate,
        tuple(binding[arg] if isinstance(arg, Variable) else arg for arg in atom.args),
    )


def assert_tree_reevaluates(tree, model):
    """Every rule instance of the tree is a genuine application: a matching
    substitution exists, its positive premises are in the model (and are the
    recorded children), and its negated premises are absent."""
    for rule, head, body in tree.rule_instances():
        binding = {}
        assert rule.head.predicate == head.predicate
        assert _match_terms(rule.head, head, binding)
        positives = [literal for literal in rule.body if literal.positive]
        assert len(positives) == len(body)
        for literal, ground in zip(positives, body):
            assert literal.atom.predicate == ground.predicate
            assert _match_terms(literal.atom, ground, binding)
            assert ground in model
        for literal in rule.body:
            if not literal.positive:
                assert _instantiate(literal.atom, binding) not in model


@pytest.mark.parametrize("storage", ["objects", "columnar"])
@pytest.mark.parametrize("make", [tc_program, sg_program], ids=["tc", "sg"])
def test_explain_every_derived_atom(storage, make):
    program = make(DIAMOND)
    engine = DatalogEngine(program, storage=storage, provenance=True)
    model = engine.least_model()
    edb = {fact.atom for fact in program.facts}
    derived = [a for a in model.atoms if a not in edb]
    assert derived
    for atom in derived:
        tree = assert_explained(engine, model, atom)
        assert_tree_reevaluates(tree, model)


def assert_explained(engine, model, atom):
    tree = engine.explain(atom)
    assert tree.atom == atom
    assert not tree.is_fact
    for node in tree.nodes():
        assert node.atom in model
    return tree


def test_explain_refuses_without_provenance_and_unknown_atoms():
    engine = DatalogEngine(tc_program(CHAIN))
    with pytest.raises(ProvenanceError):
        engine.explain(Atom("path", (Parameter("n0"), Parameter("n1"))))
    traced = DatalogEngine(tc_program(CHAIN), provenance=True)
    with pytest.raises(ProvenanceError):
        traced.explain(Atom("path", (Parameter("n1"), Parameter("n0"))))


def test_explain_survives_model_cache_staleness():
    program = tc_program(CHAIN)
    engine = DatalogEngine(program, provenance=True)
    engine.explain(Atom("path", (Parameter("n0"), Parameter("n2"))))
    program.add_fact(Atom("edge", (Parameter("n6"), Parameter("n0"))))
    tree = engine.explain(Atom("path", (Parameter("n6"), Parameter("n3"))))
    assert_tree_reevaluates(tree, engine.least_model())


def test_provenance_requires_indexed_strategy():
    with pytest.raises(ValueError, match="indexed"):
        DatalogEngine(tc_program(CHAIN), strategy="naive", provenance=True)


# ---------------------------------------------------------------------------
# no-op equivalence
# ---------------------------------------------------------------------------

def test_noop_default_records_zero_entries():
    tracer = Tracer()
    plain = DatalogEngine(tc_program(CHAIN))
    assert plain.tracer is NOOP_TRACER
    plain.least_model()
    plain.query(Atom("path", (Parameter("n0"), Y)))
    traced = DatalogEngine(tc_program(CHAIN), tracer=tracer)
    traced.least_model()
    assert len(tracer) > 0
    assert not hasattr(plain.tracer, "entries")


edge_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
        lambda pair: (f"n{pair[0]}", f"n{pair[1]}")
    ),
    min_size=1,
    max_size=10,
    unique=True,
)


@settings(max_examples=20, deadline=None)
@given(edges=edge_lists, storage=st.sampled_from(["objects", "columnar"]))
def test_observability_on_changes_nothing(edges, storage):
    goal = Atom("path", (Variable("qx"), Variable("qy")))
    plain = DatalogEngine(tc_program(edges), storage=storage)
    observed = DatalogEngine(tc_program(edges), storage=storage, tracer=Tracer())
    assert plain.least_model() == observed.least_model()
    plain_answers = plain.query(goal)
    observed_answers = observed.query(goal)
    assert sorted(map(sorted_items, plain_answers)) == sorted(
        map(sorted_items, observed_answers)
    )
    assert plain.statistics == observed.statistics

    indexed_plain = DatalogEngine(tc_program(edges), storage=storage)
    indexed_prov = DatalogEngine(tc_program(edges), storage=storage, provenance=True)
    assert indexed_plain.least_model() == indexed_prov.least_model()
    assert indexed_plain.statistics == indexed_prov.statistics


def sorted_items(binding):
    return sorted((variable.name, parameter.name) for variable, parameter in binding.items())


# ---------------------------------------------------------------------------
# counter pinning (regression: façades report the dataclass numbers)
# ---------------------------------------------------------------------------

def test_fixed_workload_counters_are_pinned():
    engine = DatalogEngine(tc_program(CHAIN))
    engine.least_model()
    assert engine.statistics == EvaluationStatistics(
        iterations=7, rule_applications=8, facts_derived=21, strata=1,
        delta_passes_skipped=12,
    )
    result = engine.query(Atom("path", (Parameter("n0"), Y)), mode="full")
    assert len(result) == 6
    # Cached model: no fixpoint ran for the query, the probe scanned the
    # predicate's 21 path facts.
    assert result.join_passes == 0 and result.facts_touched == 21
    snap = engine.metrics()
    assert snap["engine.iterations"] == 7
    assert snap["engine.facts_derived"] == 21
    assert snap["query.calls"] == 1
    assert snap["query.answers"] == 6
    assert snap["query.mode.full"] == 1

    fresh = DatalogEngine(tc_program(CHAIN))
    result = fresh.query(Atom("path", (Parameter("n0"), Parameter("n5"))), mode="magic")
    # Magic queries evaluate an inner rewritten program; its join passes
    # land on the result and flow into the outer engine's registry.
    assert result.join_passes > 0
    assert fresh.metrics()["query.join_passes"] == result.join_passes
    assert fresh.metrics()["query.mode.magic"] == 1


# ---------------------------------------------------------------------------
# engine/database span coverage and snapshots
# ---------------------------------------------------------------------------

def test_engine_spans_cover_fixpoint_and_magic():
    tracer = Tracer()
    engine = DatalogEngine(tc_program(CHAIN), tracer=tracer)
    engine.least_model()
    names = {entry["name"] for entry in tracer.entries}
    assert {"engine.least_model", "fixpoint.round", "join.pass"} <= names
    engine2 = DatalogEngine(tc_program(CHAIN), tracer=Tracer())
    engine2.query(Atom("path", (Parameter("n0"), Parameter("n5"))), mode="magic")
    magic_names = {entry["name"] for entry in engine2.tracer.entries}
    assert {"magic.rewrite", "magic.evaluate"} <= magic_names


def test_maintenance_batches_are_spanned_and_snapshotted():
    tracer = Tracer()
    engine = DatalogEngine(tc_program(CHAIN), tracer=tracer)
    materialized = MaterializedModel(engine)
    materialized.apply(insertions=[Atom("edge", (Parameter("n9"), Parameter("n0")))])
    names = [entry["name"] for entry in tracer.entries]
    assert "maintenance.batch" in names
    snap = materialized.metrics()
    assert snap["maintenance.applies"] == 1
    assert snap["maintenance.rebuilds"] == 1
    assert snap["maintenance.facts_added"] > 0


def test_database_spans_metrics_and_explain_rejection():
    from repro.constraints.library import disjoint_properties, mandatory_known_attribute
    from repro.logic.builders import atom as fol_atom
    from repro.semantics.config import SemanticsConfig

    tracer = Tracer()
    db = EpistemicDatabase(config=SemanticsConfig(extra_parameters=1),
                           constraint_checking="incremental", tracer=tracer)
    db.tell(fol_atom("emp", "A"))
    db.tell(fol_atom("ss", "A", "S1"))
    db.add_constraint(mandatory_known_attribute("emp", "ss"))
    db.add_constraint(disjoint_properties("male", "female"))
    assert db.check_constraints().satisfied

    with pytest.raises(ConstraintViolationError) as caught:
        with db.transaction() as txn:
            txn.tell(fol_atom("emp", "B"))
    explanations = db.explain_rejection(caught.value)
    assert len(explanations) == 1
    (explanation,) = explanations
    assert explanation.witness == (Parameter("B"),)
    assert explanation.candidates == ()  # emp(B) is not yet believed
    assert "irreparable" in explanation.render()

    db.tell(fol_atom("male", "A"))
    result = db.revision().revise(fol_atom("female", "A"))
    assert result.retracted == (fol_atom("male", "A"),)

    names = {entry["name"] for entry in tracer.entries}
    assert {"txn.commit", "txn.check", "txn.apply", "violations.check",
            "violations.preview", "revision.plan", "revision.apply",
            "maintenance.batch"} <= names
    snap = db.metrics()
    assert snap["db.tells"] == 3
    assert snap["db.commits"] == 1
    assert snap["db.revision_epoch"] == db.revision_epoch
    assert snap["db.checks"] >= 1


def test_explain_rejection_candidates_are_entrenchment_ordered():
    from repro.constraints.library import disjoint_properties
    from repro.logic.builders import atom as fol_atom
    from repro.semantics.config import SemanticsConfig

    db = EpistemicDatabase(config=SemanticsConfig(extra_parameters=1),
                           constraint_checking="incremental")
    db.add_constraint(disjoint_properties("male", "female"), check_now=False)
    db.tell(fol_atom("male", "A"))
    report = None
    try:
        db.tell(fol_atom("female", "A"))
    except ConstraintViolationError as error:
        report = error
    assert report is not None
    (explanation,) = db.explain_rejection(report)
    # female(A) is the staged (unbelieved) sentence; male(A) the believed one.
    assert fol_atom("male", "A") in explanation.candidates
    assert explanation.candidates[0] == fol_atom("male", "A")
    with pytest.raises(TypeError):
        db.explain_rejection("not a report")


# ---------------------------------------------------------------------------
# the summarize CLI on a 10k-fact fixpoint trace
# ---------------------------------------------------------------------------

def test_summarize_cli_on_large_fixpoint_trace(tmp_path, capsys):
    edges = []
    for chain in range(80):
        for i in range(15):
            edges.append((f"c{chain}_{i}", f"c{chain}_{i + 1}"))
    tracer = Tracer()
    engine = DatalogEngine(tc_program(edges), storage="columnar", tracer=tracer)
    model = engine.least_model()
    assert len(model) > 10_000
    path = tmp_path / "trace.jsonl"
    tracer.export(path)
    assert obs_main(["summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fixpoint.round" in out and "join.pass" in out
    assert "p50" in out and "p99" in out
    assert f"{len(tracer)} spans" in out


def test_summarize_cli_reports_empty_traces(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert obs_main(["summarize", str(path)]) == 1
    assert "no completed spans" in capsys.readouterr().out


def test_trace_entries_are_json_serializable():
    tracer = Tracer()
    engine = DatalogEngine(tc_program(CHAIN), tracer=tracer)
    engine.least_model()
    for entry in tracer.entries:
        json.dumps(entry, default=str)
