"""Outside-in tracing: wrappers around each layer's public functions.

Nothing in the library changes.  :func:`install` replaces each listed
function where its caller looks it up (a class attribute, or a module
global such as ``repro.db.database.parse``) with a wrapper that appends a
span — name, start, end, parent span, op id — to an in-memory
:class:`SpanLog`; :func:`per_layer` turns the spans plus the libraries'
own counter snapshots into the per-layer metrics.  ``remove`` restores
the originals.
"""

import functools
import time

import repro.constraints.checker as checker_module
import repro.constraints.views as views_module
import repro.datalog.engine as engine_module
import repro.datalog.incremental as incremental_module
import repro.db.database as database_module
import repro.db.transactions as transactions_module
import repro.db.view as view_module
import repro.prover.dpll as dpll_module
import repro.prover.prove as prove_module
import repro.revision.operators as operators_module
import repro.semantics.reduction as reduction_module

from harness import median


def _fallbacks(args, result):
    return {"fallbacks": len(result.fallbacks)}


# (owner, attribute, span name, extra(args, result) -> dict or None)
TARGETS = (
    (transactions_module.Transaction, "commit", "db.commit", None),
    (database_module.EpistemicDatabase, "tell", "db.tell", None),
    (database_module.EpistemicDatabase, "retract", "db.retract", None),
    (database_module.EpistemicDatabase, "ask", "db.ask", None),
    (database_module.EpistemicDatabase, "answers", "db.answers", None),
    (database_module.EpistemicDatabase, "demo", "db.demo", None),
    (view_module.DatalogView, "query", "db.view_query", None),
    (view_module.DatalogView, "model", "db.view_model", None),
    (checker_module.IntegrityChecker, "check_update", "constraints.check_update",
     lambda args, result: {"fallbacks": len(result[0].fallbacks)}),
    (views_module.ViolationView, "preview_report", "constraints.preview_report", _fallbacks),
    (views_module.ViolationView, "check", "constraints.check", _fallbacks),
    (incremental_module.MaterializedModel, "apply", "datalog.apply", None),
    (incremental_module.MaterializedModel, "peek", "datalog.peek", None),
    (incremental_module.MaterializedModel, "query", "datalog.query",
     lambda args, result: {"touched": result.facts_touched, "answers": len(result)}),
    (incremental_module.MaterializedModel, "model", "datalog.model", None),
    (incremental_module.MaterializedModel, "refresh", "datalog.refresh", None),
    (engine_module.DatalogEngine, "query", "datalog.engine_query",
     lambda args, result: {"touched": result.facts_touched, "answers": len(result)}),
    (engine_module.DatalogEngine, "least_model", "datalog.least_model", None),
    (operators_module.BeliefRevisor, "revise", "revision.revise",
     lambda args, result: {"retracted": len(result.retracted)}),
    (operators_module, "plan_retractions", "revision.plan", None),
    (reduction_module.EpistemicReducer, "__init__", "semantics.reducer_build", None),
    (reduction_module.EpistemicReducer, "entails", "semantics.entails", None),
    (prove_module.FirstOrderProver, "__init__", "prover.build", None),
    (prove_module.FirstOrderProver, "entails", "prover.entails", None),
    (prove_module.FirstOrderProver, "is_satisfiable", "prover.is_satisfiable", None),
    (dpll_module.DPLLSolver, "is_satisfiable", "prover.dpll",
     lambda args, result: {"decisions": args[0].statistics.decisions}),
    (database_module, "all_answers", "evaluator.demo",
     lambda args, result: {"prove_calls": args[0].statistics.prove_calls}),
    (database_module, "parse", "logic.parse", None),
)

READS = ("db.ask", "db.answers", "db.demo", "db.view_query", "db.view_model")


class SpanLog:
    """Spans kept in parallel lists (cheap to append) plus the stack of
    open spans and the op currently running."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.raised = []
        self.extras = []
        self._stack = []
        self._op = -1
        self.op_kinds = {}

    def begin_op(self, index, kind):
        self._op = index
        if kind is not None:
            self.op_kinds[index] = kind

    def clear(self):
        self.__init__()

    def wrap(self, name, function, extra):
        log = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = len(log.names)
            log.names.append(name)
            log.parents.append(log._stack[-1] if log._stack else -1)
            log.ops.append(log._op)
            log.starts.append(0.0)
            log.ends.append(0.0)
            log.raised.append(False)
            log.extras.append(None)
            log._stack.append(span)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                log.raised[span] = True
                raise
            finally:
                log.ends[span] = time.perf_counter()
                log.starts[span] = start
                log._stack.pop()
            if extra is not None:
                log.extras[span] = extra(args, result)
            return result

        return wrapper

    def write(self, path):
        """Write every span as one tab-separated line: id, name, parent, op,
        start and end (seconds), raised, extras."""
        with open(path, "w") as out:
            out.write("id\tname\tparent\top\tstart\tend\traised\textra\n")
            for span, name in enumerate(self.names):
                out.write(
                    f"{span}\t{name}\t{self.parents[span]}\t{self.ops[span]}\t"
                    f"{self.starts[span]:.9f}\t{self.ends[span]:.9f}\t"
                    f"{int(self.raised[span])}\t{self.extras[span] or ''}\n"
                )


class BlockTracer:
    """Traces every other block of *block* consecutive ops: the wrappers
    are installed for the odd blocks and removed for the even ones.  Traced
    and untraced ops then interleave through one phase, on one set-up and
    at the host's speed of the moment, so comparing them gives the tracing
    overhead without an order effect."""

    def __init__(self, log, block):
        self.log = log
        self.block = block
        self.traced = set()
        self._originals = None

    def begin_op(self, index, kind):
        tracing = index >= 0 and (index // self.block) % 2 == 1
        if tracing and self._originals is None:
            self._originals = install(self.log)
        elif not tracing:
            self.close()
        if tracing:
            self.traced.add(index)
            self.log.begin_op(index, kind)
        else:
            self.log.begin_op(-1, None)

    def close(self):
        if self._originals is not None:
            remove(self._originals)
            self._originals = None


def overhead(phase, traced):
    """Compare the traced and untraced ops of *phase* kind by kind.
    Returns the overhead in percent — the p50s weighted by each kind's op
    count, traced over untraced, minus one — and one printable line per
    kind with both p50s and their difference."""
    samples = {}
    for index, kind, seconds in phase.timed:
        samples.setdefault(kind, ([], []))[index in traced].append(seconds)
    traced_total = untraced_total = 0.0
    lines = []
    for kind, (plain, timed) in sorted(samples.items()):
        if not plain or not timed:
            continue
        weight = len(plain) + len(timed)
        traced_total += weight * median(timed)
        untraced_total += weight * median(plain)
        lines.append(
            f"{kind}_p50_ms untraced {median(plain) * 1000.0:.4f} (n={len(plain)})"
            f" traced {median(timed) * 1000.0:.4f} (n={len(timed)})"
            f" diff {(median(timed) - median(plain)) * 1000.0:+.4f} ms"
        )
    percent = (traced_total / untraced_total - 1.0) * 100.0 if untraced_total else 0.0
    return percent, lines


def install(log):
    """Wrap every target; returns the list of originals for :func:`remove`."""
    originals = []
    for owner, attribute, name, extra in TARGETS:
        function = getattr(owner, attribute)
        originals.append((owner, attribute, function))
        setattr(owner, attribute, log.wrap(name, function, extra))
    return originals


def remove(originals):
    for owner, attribute, function in reversed(originals):
        setattr(owner, attribute, function)


def refresh_times(log):
    """The durations of the ``MaterializedModel.refresh`` spans in *log*."""
    return [
        log.ends[s] - log.starts[s]
        for s, name in enumerate(log.names) if name == "datalog.refresh"
    ]


def _spans(log):
    """Per span: its duration, its self time (duration minus its child
    spans' durations) and its child spans."""
    durations = [end - start for start, end in zip(log.starts, log.ends)]
    child_time = [0.0] * len(durations)
    children = [[] for _ in durations]
    for span, parent in enumerate(log.parents):
        if parent >= 0:
            child_time[parent] += durations[span]
            children[parent].append(span)
    return durations, [d - c for d, c in zip(durations, child_time)], children


def per_layer(log, workload, phase_counts, counters_before, counters_after, refresh,
              overhead_pct):
    """The per-layer metrics of one traced phase, as ``{name: (value,
    unit)}``, and printable lines for figures outside the metric set
    (retract self time, a separate latency mode from tell).  Span-based
    figures cover the traced ops (``log.op_kinds``); the maintenance
    counters are diffed around the whole phase, so they are divided by
    *phase_counts* (ops per kind over the phase).  *refresh*
    holds the set-up's refresh times in seconds.  Times are medians per
    call in milliseconds (0 when the layer was not called); ratios are
    totals over totals."""
    durations, selfs, children = _spans(log)
    kinds = log.op_kinds
    ops = len(kinds)
    writes = sum(kind in workload.WRITES for kind in kinds.values())
    count_of = {}
    for kind in kinds.values():
        count_of[kind] = count_of.get(kind, 0) + 1
    by_name = {}
    for span, name in enumerate(log.names):
        by_name.setdefault(name, []).append(span)

    def spans(name, top=None, raised=None, kind=None):
        found = by_name.get(name, [])
        if top is not None:
            found = [s for s in found if (log.parents[s] == -1) == top]
        if raised is not None:
            found = [s for s in found if log.raised[s] == raised]
        if kind is not None:
            found = [s for s in found if kinds.get(log.ops[s]) == kind]
        return found

    def ms(found, source):
        return median([source[s] for s in found]) * 1000.0

    def total(found, key):
        return sum(log.extras[s][key] for s in found if log.extras[s] is not None)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    reads = [s for name in READS for s in spans(name, top=True)]
    checks = spans("constraints.preview_report") + spans("constraints.check")
    entails = spans("prover.entails")
    missed = [s for s in entails if any(log.names[c] == "prover.dpll" for c in children[s])]
    dpll = spans("prover.dpll")
    demos = spans("evaluator.demo")
    queries = spans("datalog.query") + spans("datalog.engine_query")
    delta = {
        name: counters_after.get(name, 0) - counters_before.get(name, 0)
        for name in counters_after
    }
    accepted = sum(phase_counts.get(kind, 0) for kind in workload.WRITES if kind != "reject")

    metrics = {
        "db.commit.self_ms": (ms(spans("db.commit", top=True, raised=False), selfs), "ms"),
        "db.reject.self_ms": (ms(spans("db.commit", top=True, raised=True), selfs), "ms"),
        "db.tell.self_ms": (ms(spans("db.tell", top=True), selfs), "ms"),
        "db.read.self_ms": (ms(reads, selfs), "ms"),
        "constraints.check_update.ms": (ms(spans("constraints.check_update"), durations), "ms"),
        "constraints.check_update.self_ms": (
            ms(spans("constraints.check_update"), selfs), "ms"),
        "constraints.previews_per_write": (
            ratio(len(spans("constraints.preview_report")), writes), "calls/op"),
        "constraints.fallback_ratio": (
            ratio(sum(1 for s in checks if log.extras[s] and log.extras[s]["fallbacks"]),
                  len(checks)), "ratio"),
        "datalog.apply.calls_per_write": (ratio(len(spans("datalog.apply")), writes), "calls/op"),
        "datalog.apply.self_ms": (ms(spans("datalog.apply"), selfs), "ms"),
        "datalog.peek.self_ms": (ms(spans("datalog.peek"), selfs), "ms"),
        "datalog.maintenance.rebuilds": (delta.get("maintenance.rebuilds", 0), "count"),
        "datalog.maintenance.rederived_per_overdeleted": (
            ratio(delta.get("maintenance.rederived", 0),
                  delta.get("maintenance.overdeleted", 0)), "ratio"),
        "datalog.maintenance.facts_changed_per_commit": (
            ratio(delta.get("maintenance.facts_added", 0)
                  + delta.get("maintenance.facts_removed", 0), accepted), "facts/op"),
        "datalog.query.ms": (ms(queries, durations), "ms"),
        "datalog.query.facts_touched_per_answer": (
            ratio(total(queries, "touched"), total(queries, "answers")), "facts/answer"),
        "datalog.model.ms": (ms(spans("datalog.model"), durations), "ms"),
        "datalog.refresh.s": (median(refresh), "s"),
        "revision.revise.self_ms": (ms(spans("revision.revise"), selfs), "ms"),
        "revision.plan.ms": (ms(spans("revision.plan"), durations), "ms"),
        "revision.previews_per_revise": (
            ratio(len(spans("constraints.preview_report", kind="revise")),
                  count_of.get("revise", 0)), "calls/op"),
        "revision.retracted_per_revise": (
            ratio(total(spans("revision.revise"), "retracted"),
                  count_of.get("revise", 0)), "atoms/op"),
        "semantics.reducer_builds_per_write": (
            ratio(len(spans("semantics.reducer_build")), writes), "calls/op"),
        "semantics.reducer_build.ms": (ms(spans("semantics.reducer_build"), durations), "ms"),
        "semantics.entails_per_answers": (
            ratio(len(spans("semantics.entails", kind="answers")),
                  count_of.get("answers", 0)), "calls/op"),
        "prover.entails.self_ms": (ms(missed, selfs), "ms"),
        "prover.dpll.calls_per_op": (ratio(len(dpll), ops), "calls/op"),
        "prover.dpll.ms": (ms(dpll, durations), "ms"),
        "prover.dpll.decisions_per_solve": (ratio(total(dpll, "decisions"), len(dpll)), "count"),
        "prover.cache_hit_ratio": (
            1.0 - ratio(len(dpll), len(entails)) if entails else 0.0, "ratio"),
        "evaluator.demo.ms": (ms(demos, durations), "ms"),
        "evaluator.prove_calls_per_demo": (
            ratio(total(demos, "prove_calls"), len(demos)), "calls/op"),
        "logic.parse.ms": (ms(spans("logic.parse"), durations), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    retracts = spans("db.retract", top=True)
    lines = [f"db.retract.self_ms {ms(retracts, selfs):.6g} ms  (n={len(retracts)})"]
    return metrics, lines if retracts else []


def counter_snapshot(lib, workload):
    """Sum the maintenance counters of every materialized model the
    workload's library objects hold."""
    totals = {}
    for model in workload.materialized(lib):
        for name, value in model.metrics().items():
            totals[name] = totals.get(name, 0) + value
    return totals
