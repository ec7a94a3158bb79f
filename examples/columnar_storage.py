#!/usr/bin/env python
"""Columnar interned fact storage: dense ids, id-space joins, same model.

Evaluates one transitive-closure workload twice — ``storage="objects"``
(the original ``Atom``-hashing representation) and ``storage="columnar"``
(the default under the indexed strategy: constants interned to dense
integer ids, relations stored as per-column integer arrays, joins run as
generated id-space code) — and shows the storage contract:

* the least models, the evaluation statistics and the query answers are
  *identical* — storage is an ablatable representation choice, not a
  semantic one;
* the interner is a bidirectional symbol table: every fact crosses the
  boundary as a compact integer row and decodes back to the same ``Atom``;
* ``least_index()`` exposes the id-space fixpoint without paying the
  decode to ``Atom`` objects, which is where the columnar backend's
  speed shows up undiluted.

Run with ``PYTHONPATH=src python examples/columnar_storage.py``.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.datalog import DatalogEngine, MaterializedModel
from repro.logic.builders import atom
from repro.workloads.generators import transitive_closure_program


def main():
    build = lambda: transitive_closure_program(chains=60, length=8)
    facts = len(build().facts)

    # -- identical models, identical statistics -----------------------------
    objects_engine = DatalogEngine(build(), storage="objects")
    columnar_engine = DatalogEngine(build(), storage="columnar")
    objects_model = objects_engine.least_model()
    columnar_model = columnar_engine.least_model()
    print(f"transitive closure: {facts} facts, "
          f"{len(columnar_model)} atoms in the least model")
    print(f"  models identical across storages: {columnar_model == objects_model}")
    print(f"  statistics identical: "
          f"{columnar_engine.statistics == objects_engine.statistics}")

    # -- the interner: Parameter <-> dense id -------------------------------
    interner = columnar_engine.interner
    fact = atom("edge", "c0_n0", "c0_n1")
    key, row = interner.encode_atom(fact)
    print(f"  interned {fact} -> relation {key}, id row {row}")
    print(f"  decodes back: {interner.decode_row(key[0], row) == fact}")

    # -- the fixpoint without the decode ------------------------------------
    timings = {}
    for storage in ("objects", "columnar"):
        best = None
        for _ in range(3):
            engine = DatalogEngine(build(), storage=storage)
            start = time.perf_counter()
            index = engine.least_index()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
        timings[storage] = best
    print(f"  least_index() best-of-3: objects {timings['objects'] * 1000:.1f} ms, "
          f"columnar {timings['columnar'] * 1000:.1f} ms "
          f"({timings['objects'] / timings['columnar']:.1f}x)")

    # -- the same switch on incremental maintenance --------------------------
    maintained = MaterializedModel(build(), storage="columnar")
    maintained.apply(insertions=[atom("edge", "c0_n8", "c1_n0")], deletions=[])
    print(f"  columnar MaterializedModel after an insert: "
          f"{maintained.holds(atom('path', 'c0_n0', 'c1_n8'))} "
          f"(path now crosses into chain 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
