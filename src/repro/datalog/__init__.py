"""A Datalog substrate: deductive databases in the Prolog-like sense.

The paper repeatedly refers to "Prolog-like" / deductive databases — for
example the completion-based definitions of integrity-constraint
satisfaction (Definitions 3.3 and 3.4) only make sense for databases whose
Clark completion is defined, and Section 5.1 points out that Σ "could be a
Datalog program and *prove* could be realized using negation-as-failure".
This subpackage provides that substrate:

* :mod:`repro.datalog.program` — facts, rules (with optional stratified
  negation in rule bodies), programs, and conversion to/from FOPCE sentences;
* :mod:`repro.datalog.engine` — naive, semi-naive and indexed semi-naive
  bottom-up evaluation with stratified negation;
* :mod:`repro.datalog.analyze` — static program analysis: structured
  diagnostics (safety per variable, arity/constant-kind conflicts,
  negative cycles spelled out as predicate paths, duplicate/subsumed
  rules, dead code), inferred per-predicate signatures, the dependency
  condensation shared with the engine, the dead-rule pruner behind
  ``DatalogEngine(check=...)``, and a linter CLI
  (``python -m repro.datalog.analyze``);
* :mod:`repro.datalog.index` — hash indexes over ground facts (per
  relation and per argument position) backing the indexed strategy;
* :mod:`repro.datalog.interner` — the bidirectional symbol table
  (:class:`~repro.datalog.interner.Interner`) mapping constants to dense
  integer ids at the program boundary;
* :mod:`repro.datalog.columnar` — columnar interned fact storage
  (:class:`~repro.datalog.columnar.ColumnarFactIndex` over per-column
  integer arrays) and the generated id-space joins; the default backend of
  the indexed strategy (``storage="columnar"``), with
  object-graph storage (``storage="objects"``) kept as the ablation
  baseline;
* :mod:`repro.datalog.incremental` — incremental view maintenance: a
  :class:`~repro.datalog.incremental.MaterializedModel` keeps the least
  model consistent under EDB insertions *and* deletions at delta cost
  (derivation counting for non-recursive predicates, DRed
  overdelete/rederive for recursive ones);
* :mod:`repro.datalog.magic` — goal-directed query evaluation: adornment
  propagation and magic-set rewriting (supplementary predicates / sideways
  information passing), behind ``DatalogEngine.query``;
* :mod:`repro.datalog.stats` — observed per-predicate bucket-size
  histograms (:class:`~repro.datalog.stats.JoinStatistics`) feeding the
  indexed strategy's join planner;
* :mod:`repro.datalog.completion` — Clark's completion ``Comp(DB)`` as a set
  of FOPCE sentences (plus unique-names handled by the FOPCE semantics
  itself).
"""

from repro.datalog.program import DatalogFact, DatalogLiteral, DatalogProgram, DatalogRule
from repro.datalog.analyze import (
    CODES,
    Diagnostic,
    PredicateSignature,
    ProgramAnalysis,
    analyze_program,
    parse_program,
    unchecked_rule,
)
from repro.datalog.engine import (
    CHECK_MODES,
    PLANNERS,
    QUERY_MODES,
    STRATEGIES,
    DatalogEngine,
    EvaluationStatistics,
    QueryResult,
)
from repro.datalog.columnar import ColumnarFactIndex, RowStore
from repro.datalog.index import FactIndex
from repro.datalog.incremental import MaintenanceStatistics, MaterializedModel, UpdateResult
from repro.datalog.interner import Interner
from repro.datalog.magic import MagicProgram, MagicTemplate, adornment_of
from repro.datalog.magic import rewrite as magic_rewrite
from repro.datalog.stats import ColumnStatistics, JoinStatistics
from repro.datalog.completion import clark_completion

__all__ = [
    "CHECK_MODES",
    "CODES",
    "ColumnStatistics",
    "ColumnarFactIndex",
    "DatalogEngine",
    "DatalogFact",
    "DatalogLiteral",
    "DatalogProgram",
    "DatalogRule",
    "Diagnostic",
    "EvaluationStatistics",
    "FactIndex",
    "Interner",
    "JoinStatistics",
    "MagicProgram",
    "MagicTemplate",
    "MaintenanceStatistics",
    "MaterializedModel",
    "PLANNERS",
    "PredicateSignature",
    "ProgramAnalysis",
    "QUERY_MODES",
    "QueryResult",
    "RowStore",
    "STRATEGIES",
    "UpdateResult",
    "adornment_of",
    "analyze_program",
    "clark_completion",
    "magic_rewrite",
    "parse_program",
    "unchecked_rule",
]
