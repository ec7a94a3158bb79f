"""The closed-loop runner shared by every workload.

One client, no threads: the next operation is sent only after the previous
one returned.  Operation inputs are generated before the timed phase and
instantiated just before their op, outside its timing; each call is timed
with ``time.perf_counter`` around the library call alone, and the oracle
that checks its result runs outside that window.  The phase ends
once the timed calls have used up the time budget (oracle time does not
count), or when the pre-generated operations run out.

The host this runs on is shared, and its speed changes many times a
second: a fixed task takes up to twice as long in a slow moment as in
a fast one, and the mix of fast and slow moments differs from minute
to minute.  A median over a run therefore moves with the minute the run
fell in.  So :func:`host_speed` times a fixed reference task right
before and right after each op, and every latency is also reported
rescaled to the speed at which that task takes ``REFERENCE_S``: each
timing times ``REFERENCE_S`` over the probe's time around it.
"""

import gc
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path


REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE_OPS = 40
# The reference task's time at the speed every timing is rescaled to: its
# time in a fast moment of a 2-vCPU x86-64 host under Python 3.11.
REFERENCE_S = 0.0003
# Probe samples taken before and after each set-up.
SETUP_SAMPLES = 9


def reference_task(chains=12, length=8):
    """Fixed pure-Python work of the kind the library does: the transitive
    closure of *chains* disjoint chains of *length* nodes, by naive
    iteration over a dict of sets of tuples."""
    closure = {(c, n): {(c, n + 1)} for c in range(chains) for n in range(length - 1)}
    changed = True
    while changed:
        changed = False
        for reach in closure.values():
            extra = set()
            for node in reach:
                extra.update(closure.get(node, ()))
            if not extra <= reach:
                reach |= extra
                changed = True
    return sum(len(reach) for reach in closure.values())


def host_speed():
    """The host's speed of the moment, as the time of the second of two
    back-to-back runs of :func:`reference_task`, with the collector off:
    neither the caches an op left behind nor a collection of the library's
    heap is in it, so it depends on the host and not on the program under
    test."""
    gc.disable()
    try:
        reference_task()
        start = time.perf_counter()
        reference_task()
        return time.perf_counter() - start
    finally:
        gc.enable()


def rescale(before, after):
    """The factor that rescales a timing taken between two
    :func:`host_speed` samples to the reference speed."""
    return REFERENCE_S / ((before * after) ** 0.5)


class Phase:
    """What one timed phase measured: per-kind latencies (seconds) in op
    order as measured and rescaled to the reference speed, (op index, kind,
    seconds) per completed op, the attempted and failed counts and the busy
    time, measured and rescaled."""

    def __init__(self):
        self.latencies = {}
        self.scaled = {}
        self.timed = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.scaled_busy = 0.0
        self.failures = []

    def record(self, index, kind, seconds, scale):
        self.latencies.setdefault(kind, []).append(seconds)
        self.scaled.setdefault(kind, []).append(seconds * scale)
        self.timed.append((index, kind, seconds))
        self.busy += seconds
        self.scaled_busy += seconds * scale

    def fail(self, index, kind, reason):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"op {index} ({kind}): {reason}")

    @property
    def completed(self):
        return len(self.timed)


def run_phase(workload, lib, shadow, ops, budget, log=None, corrupt=None):
    """Run *ops* against *lib* until the timed calls have used *budget*
    seconds, as measured.  *log* (a :class:`layers.SpanLog` or
    :class:`layers.BlockTracer`) is told which op is about to run, so spans
    carry its id and kind;
    *corrupt* maps an op kind to a function applied to that kind's first
    result before the oracle sees it (the seeded-defect self-test).  The
    host's speed is sampled right before and right after each op, and the
    op's rescaled latency is recorded with it."""
    phase = Phase()
    pending = dict(corrupt or {})
    gc.collect()
    for index, op in enumerate(ops):
        if phase.busy >= budget:
            break
        kind = op[0]
        phase.attempted += 1
        op = workload.instantiate(op)
        if log is not None:
            log.begin_op(index, kind)
        before = host_speed()
        start = time.perf_counter()
        try:
            result = workload.execute(lib, op)
        except Exception:  # the benchmark keeps running and counts the failure
            elapsed = time.perf_counter() - start
            phase.busy += elapsed
            phase.scaled_busy += elapsed
            phase.fail(index, kind, traceback.format_exc(limit=3).strip().splitlines()[-1])
            continue
        elapsed = time.perf_counter() - start
        phase.record(index, kind, elapsed, rescale(before, host_speed()))
        if kind in pending:
            result = pending.pop(kind)(result)
        verdict = workload.check(shadow, lib, op, result)
        if verdict is not True:
            phase.fail(index, kind, verdict)
    if log is not None:
        log.begin_op(-1, None)
    final = workload.final_check(shadow, lib, corrupt=(corrupt or {}).get("final"))
    if final is not True:
        phase.fail(-1, "final", final)
    return phase


def timed_setups(workload, count):
    """Set the workload up *count* times and return (last handle, the list
    of set-up times in seconds, the list of those times rescaled to the
    reference speed).  Each set-up gets fresh inputs from :meth:`load`,
    built outside its timing.  A set-up lasts long enough for the host's
    speed to change during it, so the speed is sampled ``SETUP_SAMPLES``
    times before and after it and the medians are used.  Earlier handles
    are dropped and collected before the next set-up starts, so they do
    not add to peak memory."""
    times = []
    scaled = []
    lib = None
    for _ in range(count):
        lib = None
        gc.collect()
        inputs = workload.load()
        before = median([host_speed() for _ in range(SETUP_SAMPLES)])
        start = time.perf_counter()
        lib = workload.setup(inputs)
        elapsed = time.perf_counter() - start
        after = median([host_speed() for _ in range(SETUP_SAMPLES)])
        times.append(elapsed)
        scaled.append(elapsed * rescale(before, after))
        del inputs
    return lib, times, scaled


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """The 90th percentile (inclusive interpolation between order
    statistics); callers report it only with at least 100 samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb():
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb():
    """Current resident set size of this process, from ``/proc``."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmRSS line in /proc/self/status")


def git_commit():
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }
