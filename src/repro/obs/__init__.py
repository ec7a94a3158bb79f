"""Unified observability for the deduction stack: tracing, metrics,
provenance.

The ROADMAP's north star is a production-scale system, and a production
epistemic database must answer two questions its ad-hoc per-subsystem
counters could not: *where did the time go* and *why does the database
believe this* — the latter being exactly the paper's reading of the KB as a
set of known facts whose integrity verdicts must be justifiable.  This
package gives every layer one vocabulary for both:

* :mod:`repro.obs.tracing` — a zero-dependency span tracer
  (``tracer.span("fixpoint.round", **attrs)`` context managers,
  thread-safe, a shared near-zero-overhead
  no-op by default) with JSON-lines export and an aggregating CLI
  (``python -m repro.obs summarize trace.jsonl`` renders a per-operation
  count/total/p50/p99 tree);
* :mod:`repro.obs.metrics` — a registry of named counters, gauges and
  histograms that the existing statistics objects
  (:class:`~repro.datalog.engine.EvaluationStatistics`) are thin façades
  over, snapshot-able via ``DatalogEngine.metrics()`` /
  ``EpistemicDatabase.metrics()``;
* :mod:`repro.obs.provenance` — rule-level derivation edges recorded
  during indexed/columnar fixpoints (``provenance=True``, off by
  default), behind ``engine.explain(atom)`` (a derivation tree) and
  ``db.explain_rejection(report)`` (a constraint violation traced to its
  witnesses and entrenchment-ordered retraction candidates).

Everything here is dependency-free and off by default: an engine built
without a tracer uses the shared :data:`~repro.obs.tracing.NOOP_TRACER`
singleton, and the ``observability`` section of
``benchmarks/run_bench.py`` guards that the no-op instrumentation costs
at most 5% of a fixpoint.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.provenance import (
    Derivation,
    ProvenanceError,
    ProvenanceRecorder,
    RejectionExplanation,
    derivation_tree,
)
from repro.obs.tracing import (
    NOOP_TRACER,
    NoopTracer,
    Tracer,
    read_trace,
    summarize_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Derivation",
    "ProvenanceError",
    "ProvenanceRecorder",
    "RejectionExplanation",
    "derivation_tree",
    "NOOP_TRACER",
    "NoopTracer",
    "Tracer",
    "read_trace",
    "summarize_trace",
]
