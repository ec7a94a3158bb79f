#!/usr/bin/env python
"""Generate ``docs/api.md`` — the public Datalog/query API index — from the
live docstrings.

The index is *generated, committed, and guarded*: this script is the only
writer, ``tests/test_docs_api.py`` fails whenever the committed file
disagrees with a fresh generation (i.e. someone changed a public docstring
or signature without re-running this), and the docstrings themselves stay
the single source of truth.

Usage::

    PYTHONPATH=src python docs/gen_api.py          # rewrite docs/api.md
    PYTHONPATH=src python docs/gen_api.py --stdout # print instead
"""

import argparse
import inspect
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

API_PATH = ROOT / "docs" / "api.md"

HEADER = """\
# Datalog API index

The public surface of the deductive-database layer, generated from the
docstrings by `docs/gen_api.py` (re-run it after changing a public
docstring; `tests/test_docs_api.py` fails when this file goes stale).
User guides: [datalog.md](datalog.md) for programs, evaluation and
incremental maintenance, [queries.md](queries.md) for the goal-directed
query layer, [analysis.md](analysis.md) for the static analyzer and its diagnostic
codes, [revision.md](revision.md) for the AGM belief-change layer,
[observability.md](observability.md) for tracing, metrics and
provenance, [architecture.md](architecture.md) for the module map.
"""

#: (module path, section title, [exported names])
SECTIONS = [
    ("repro.store", "Sentence and fact store — `repro.store`",
     ["OrderedMultiset", "updated"]),
    ("repro.datalog.program", "Programs — `repro.datalog.program`",
     ["DatalogProgram", "DatalogRule", "DatalogLiteral", "DatalogFact"]),
    ("repro.datalog.analyze", "Static analysis — `repro.datalog.analyze`",
     ["analyze_program", "ProgramAnalysis", "Diagnostic", "PredicateSignature",
      "rule_safety", "condensation_of", "strongly_connected_components",
      "negative_cycle", "format_cycle", "subsumes", "unchecked_rule",
      "parse_program", "main"]),
    ("repro.datalog.engine", "Evaluation — `repro.datalog.engine`",
     ["DatalogEngine", "QueryResult", "EvaluationStatistics"]),
    ("repro.datalog.index", "Fact indexes — `repro.datalog.index`",
     ["FactIndex"]),
    ("repro.datalog.interner", "Constant interning — `repro.datalog.interner`",
     ["Interner", "fast_atom", "constant_kind"]),
    ("repro.datalog.columnar", "Columnar storage — `repro.datalog.columnar`",
     ["ColumnarRelation", "RowStore", "ColumnarFactIndex", "decode_world",
      "compile_schedule", "compiled_for", "columnar_fixpoint"]),
    ("repro.datalog.magic", "Goal-directed rewriting — `repro.datalog.magic`",
     ["plan", "instantiate", "rewrite", "answer", "adornment_of",
      "adorned_name", "magic_name", "MagicProgram", "MagicTemplate"]),
    ("repro.datalog.stats", "Join statistics — `repro.datalog.stats`",
     ["JoinStatistics", "ColumnStatistics"]),
    ("repro.datalog.incremental", "Incremental maintenance — `repro.datalog.incremental`",
     ["MaterializedModel", "UpdateResult", "MaintenanceStatistics"]),
    ("repro.db.view", "Database views — `repro.db.view`",
     ["DatalogView"]),
    ("repro.revision.operators", "Belief revision — `repro.revision.operators`",
     ["BeliefRevisor", "RevisionResult"]),
    ("repro.revision.entrenchment", "Entrenchment — `repro.revision.entrenchment`",
     ["EntrenchmentPolicy", "EntrenchmentState", "RecencyPolicy",
      "FactPriorityPolicy"]),
    ("repro.revision.planner", "Retraction planning — `repro.revision.planner`",
     ["plan_retractions"]),
    ("repro.revision.naive", "Naive baseline — `repro.revision.naive`",
     ["naive_update_batch", "naive_revise", "naive_contract"]),
    ("repro.obs.tracing", "Tracing — `repro.obs.tracing`",
     ["Tracer", "NoopTracer", "read_trace", "summarize_trace",
      "render_summary"]),
    ("repro.obs.metrics", "Metrics — `repro.obs.metrics`",
     ["MetricsRegistry", "Counter", "Gauge", "Histogram", "MetricsFacade",
      "facade_fields"]),
    ("repro.obs.provenance", "Provenance — `repro.obs.provenance`",
     ["ProvenanceRecorder", "Derivation", "derivation_tree",
      "RejectionExplanation", "ProvenanceError"]),
]


def first_paragraph(obj):
    doc = inspect.getdoc(obj)
    if not doc:
        return "*(undocumented)*"
    return " ".join(doc.split("\n\n", 1)[0].split())


def signature_of(value):
    try:
        return str(inspect.signature(value))
    except (TypeError, ValueError):
        return "(...)"


def public_members(cls):
    """The public methods and properties defined by *cls* itself, in
    definition order."""
    members = []
    for name, value in vars(cls).items():
        if name.startswith("_"):
            continue
        if callable(value) or isinstance(value, (property, classmethod, staticmethod)):
            members.append((name, value))
    return members


def render_class(cls, lines):
    lines.append(f"### `{cls.__name__}`")
    lines.append("")
    lines.append(first_paragraph(cls))
    lines.append("")
    members = public_members(cls)
    if not members:
        return
    for name, value in members:
        if isinstance(value, property):
            lines.append(f"- **`{name}`** *(property)* — {first_paragraph(value)}")
            continue
        if isinstance(value, (classmethod, staticmethod)):
            value = value.__func__
            lines.append(
                f"- **`{name}{signature_of(value)}`** — {first_paragraph(value)}"
            )
            continue
        lines.append(f"- **`{name}{signature_of(value)}`** — {first_paragraph(value)}")
    lines.append("")


def render_function(function, lines):
    lines.append(f"### `{function.__name__}{signature_of(function)}`")
    lines.append("")
    lines.append(first_paragraph(function))
    lines.append("")


def generate():
    import importlib

    lines = [HEADER]
    for module_path, title, names in SECTIONS:
        module = importlib.import_module(module_path)
        lines.append(f"## {title}")
        lines.append("")
        lines.append(first_paragraph(module))
        lines.append("")
        for name in names:
            value = getattr(module, name)
            if inspect.isclass(value):
                render_class(value, lines)
            else:
                render_function(value, lines)
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stdout", action="store_true",
                        help="print the index instead of writing docs/api.md")
    args = parser.parse_args(argv)
    content = generate()
    if args.stdout:
        sys.stdout.write(content)
    else:
        API_PATH.write_text(content)
        print(f"wrote {API_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
