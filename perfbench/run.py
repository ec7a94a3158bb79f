"""End-to-end benchmark of the epistemic database library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hr_txn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --selftest

One workload runs in this interpreter; ``--workload all`` runs every
workload in a fresh interpreter, untraced and then traced.  Human-readable
lines go to standard output, and the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
program under test is the checkout's ``src/`` tree; without it the
benchmark exits with status 2.
"""

import argparse
import gc
import json
import subprocess
import sys
import time

from harness import (
    REPO_ROOT, metadata, median, p90, peak_rss_mb, rss_mb, run_phase, timed_setups,
)

SOURCE = REPO_ROOT / "src"
RESULTS = REPO_ROOT / "perfbench" / "results"
WORKLOAD_NAMES = ("hr_txn", "kb_query", "tc_view")
# Ops per block of a traced run; one period of the op cycle, so traced and
# untraced blocks see the same mix.
TRACE_BLOCK = 20


def use_checkout_source():
    """Put the checkout's ``src/`` first on the import path, so the library
    under test is the checkout's and not whatever is installed; exit with
    status 2 when it is missing."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SOURCE}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SOURCE))


def end_to_end(workload, latencies, busy, completed, setup_times, generated_mb):
    """The end-to-end metrics, as ``{name: (value, unit)}``, from per-kind
    *latencies* and set-up times in seconds.  *generated_mb* is the
    resident memory the generated ops and the shadow state took; it is the
    benchmark's, so it is not counted in ``peak_rss_mb``."""
    def slot(name):
        return latencies.get(workload.SLOTS[name], [])

    writes = slot("write")
    return {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (completed / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb() - generated_mb, "MB"),
        "write_p50_ms": (median(writes) * 1000.0, "ms"),
        "write_p90_ms": (p90(writes) * 1000.0, "ms"),
        "op1_p50_ms": (median(slot("op1")) * 1000.0, "ms"),
        "op2_p50_ms": (median(slot("op2")) * 1000.0, "ms"),
        "op3_p50_ms": (median(slot("op3")) * 1000.0, "ms"),
    }


def per_op_lines(phase):
    """Latency per op kind, rescaled to the reference speed; a p90 only
    where the phase holds at least 100 samples of that kind."""
    lines = []
    for kind, values in sorted(phase.scaled.items()):
        lines.append(f"{kind}_p50_ms {median(values) * 1000.0:.4f} ms  (n={len(values)})")
        if len(values) >= 100:
            lines.append(f"{kind}_p90_ms {p90(values) * 1000.0:.4f} ms  (n={len(values)})")
    return lines


def prepare(workload, seconds):
    """Generate the ops and a fresh shadow state, then move them out of the
    collector's sight (``gc.freeze``): they are the benchmark's, and an
    application holding none of them would not pay for traversing them in
    every full collection.  Nothing the library will own exists yet: set-up
    inputs come from ``workload.load()`` and an op's atoms from
    ``workload.instantiate()``, both called later.  Returns the ops, the
    shadow and the growth of the resident set over this call in MB, which
    ``peak_rss_mb`` leaves out; the op count scales with ``seconds``."""
    gc.collect()
    before = rss_mb()
    ops = workload.generate(int(seconds * workload.MAX_OPS_PER_SECOND) + 1)
    shadow = workload.new_shadow()
    gc.collect()
    gc.freeze()
    return ops, shadow, rss_mb() - before


def run_untraced(workload, seconds):
    """Set up ``SETUPS`` times, keeping the last set-up, and run the timed
    phase.  The metrics are rescaled to the reference speed; the lines
    also give them as measured."""
    ops, shadow, generated_mb = prepare(workload, seconds)
    lib, setup_times, setup_scaled = timed_setups(workload, workload.SETUPS)
    phase = run_phase(workload, lib, shadow, ops, seconds)
    metrics = end_to_end(workload, phase.scaled, phase.scaled_busy, phase.completed,
                         setup_scaled, generated_mb)
    measured = end_to_end(workload, phase.latencies, phase.busy, phase.completed,
                          setup_times, generated_mb)
    lines = per_op_lines(phase)
    lines.append(f"setup_runs_s {' '.join(f'{t:.4f}' for t in setup_times)}")
    lines += [f"measured_{name} {value:.6g} {unit}" for name, (value, unit) in measured.items()
              if name != "peak_rss_mb"]
    return phase.attempted, phase.failed, phase.failures, metrics, lines


def run_traced(workload, seconds, spans_path=None):
    """Set up traced (for the refresh time), then run one phase in which
    blocks of traced and untraced ops alternate.  The per-layer metrics
    come from the traced blocks; the tracing overhead from comparing the
    two kinds of block."""
    import layers

    ops, shadow, _ = prepare(workload, seconds)
    log = layers.SpanLog()
    originals = layers.install(log)
    try:
        lib, _, _ = timed_setups(workload, 1)
    finally:
        layers.remove(originals)
    refresh = layers.refresh_times(log)
    log.clear()
    tracer = layers.BlockTracer(log, TRACE_BLOCK)
    before = layers.counter_snapshot(lib, workload)
    try:
        phase = run_phase(workload, lib, shadow, ops, seconds, log=tracer)
    finally:
        tracer.close()
    after = layers.counter_snapshot(lib, workload)
    percent, lines = layers.overhead(phase, tracer.traced)
    counts = {kind: len(values) for kind, values in phase.latencies.items()}
    metrics, layer_lines = layers.per_layer(log, workload, counts, before, after, refresh,
                                            percent)
    lines += layer_lines
    lines.append(f"spans {len(log.names)} over {len(log.op_kinds)} traced ops"
                 f" of {phase.completed}")
    if spans_path is not None:
        log.write(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(REPO_ROOT)}")
    return phase.attempted, phase.failed, phase.failures, metrics, lines


def run_one(args):
    from loads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    if args.trace:
        attempted, failed, failures, metrics, lines = run_traced(
            workload, args.seconds, spans_path=RESULTS / f"{stem}-spans.tsv")
    else:
        attempted, failed, failures, metrics, lines = run_untraced(workload, args.seconds)
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"fail_ratio {failed / attempted if attempted else 0.0:.6f} ratio"
          f"  ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"wall_s {time.perf_counter() - started:.2f} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "result": result, "lines": lines}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in a fresh interpreter, untraced then traced."""
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"## {name} trace={trace}", flush=True)
            completed = subprocess.run(command, capture_output=True, text=True, check=False)
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            if completed.returncode != 0:
                status = 1
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            status = status or (0 if result["correct"] else 1)
            summary.append((name, trace, result))
    print("## summary")
    for name, trace, result in summary:
        print(f"{name} trace={trace} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {name}.{metric} {value['value']:.6g} {value['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="smoke-run every workload and seed a defect into each oracle")
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
