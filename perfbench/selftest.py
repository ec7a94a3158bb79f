"""Self-tests of the benchmark: a smoke run of every workload, untraced
and traced, and a seeded-defect check per oracle.

Each defect corrupts the first result of one op kind (or the final state
read back from the database) before the oracle sees it; the oracle must
count a failure.  Run with ``python3 perfbench/run.py --selftest``; the
exit status is 0 only when every smoke run is clean and every defect is
caught.
"""

import dataclasses
from types import SimpleNamespace

from harness import SMOKE_OPS, run_phase, timed_setups
from loads import WORKLOADS
from repro.logic.terms import Parameter, Variable
from repro.semantics.answers import AnswerStatus

import layers

BOGUS = Parameter("Nobody")


def _drop_or_add(values, bogus):
    """A corrupted copy of a collection of bindings: one dropped, or a
    bogus one added when there is nothing to drop."""
    values = list(values)
    return values[1:] if values else [bogus]


def _flip(answer):
    status = AnswerStatus.NO if answer.is_yes else AnswerStatus.YES
    return dataclasses.replace(answer, status=status)


DEFECTS = {
    "hr_txn": {
        "skipped rejection": ("reject", lambda result: "committed"),
        "lost commit": ("commit", lambda result: "rejected"),
        "wrong revision": ("revise", lambda result: SimpleNamespace(
            retracted=(), additions=result.additions)),
        "violation reported": ("check", lambda result: dataclasses.replace(
            result, satisfied=False)),
        "sentence dropped": ("final", lambda sentences: sentences[1:]),
    },
    "kb_query": {
        "dropped binding": ("answers", lambda answer: dataclasses.replace(
            answer, bindings=tuple(_drop_or_add(answer.bindings, (BOGUS,))))),
        "flipped ask": ("ask", _flip),
        "demo binding": ("demo", lambda tuples: set(_drop_or_add(tuples, (BOGUS,)))),
        "sentence dropped": ("final", lambda sentences: set(sorted(sentences)[1:])),
    },
    "tc_view": {
        "dropped binding": ("query", lambda result: _drop_or_add(
            result, {Variable("y"): BOGUS})),
        "reverse binding": ("reverse", lambda result: _drop_or_add(
            result, {Variable("x"): BOGUS})),
        "model size": ("model", lambda size: size + 1),
        "edge dropped": ("final", lambda edges: set(sorted(edges)[1:])),
    },
}


def smoke(name, traced):
    """Run *name* at smoke size over all of its ops; returns the phase."""
    workload = WORKLOADS[name](seed=7, smoke=True)
    ops = workload.generate(SMOKE_OPS)
    log = originals = None
    if traced:
        log = layers.SpanLog()
        originals = layers.install(log)
    try:
        lib, _, _ = timed_setups(workload, 1)
        phase = run_phase(workload, lib, workload.new_shadow(), ops, float("inf"), log=log)
    finally:
        if originals is not None:
            layers.remove(originals)
    if traced:
        metrics, _ = layers.per_layer(log, workload, {}, {}, {}, [], 0.0)
        assert all(isinstance(value, (int, float)) for value, _ in metrics.values())
    return phase, len(ops)


def seeded(name, kind, corrupt):
    workload = WORKLOADS[name](seed=7, smoke=True)
    ops = workload.generate(SMOKE_OPS)
    kinds = {op[0] for op in ops}
    if kind != "final" and kind not in kinds:
        raise AssertionError(f"{name}: the smoke ops hold no {kind!r} op")
    lib, _, _ = timed_setups(workload, 1)
    return run_phase(workload, lib, workload.new_shadow(), ops, float("inf"),
                     corrupt={kind: corrupt})


def main():
    problems = []
    for name in WORKLOADS:
        for traced in (False, True):
            phase, count = smoke(name, traced)
            label = f"smoke {name} traced={traced}"
            if phase.failed or phase.attempted != count:
                problems.append(f"{label}: {phase.failed} failed of {phase.attempted}"
                                f" ({'; '.join(phase.failures)})")
            print(f"{label}: {phase.attempted} ops, {phase.failed} failed")
        for defect, (kind, corrupt) in DEFECTS[name].items():
            phase = seeded(name, kind, corrupt)
            caught = phase.failed > 0
            print(f"defect {name} / {defect}: {'caught' if caught else 'MISSED'}"
                  f" ({phase.failures[0] if phase.failures else 'no failure'})")
            if not caught:
                problems.append(f"defect {name} / {defect} was not caught")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0
