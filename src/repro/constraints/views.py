"""Incrementally maintained violation views over an epistemic database.

The checker makes Definition 3.5 literal — constraint checking is query
evaluation — but re-evaluates every constraint from scratch on every check.
A :class:`ViolationView` compiles the constraint set with
:mod:`repro.constraints.compile` and materializes the resulting
``__violation__<id>(witness...)`` rules through a
:class:`~repro.datalog.incremental.MaterializedModel` over the database's
ground-atomic EDB, subscribed to the PR 3 update listeners.  Checking then
becomes a read:

* :meth:`check` probes the maintained violation buckets — O(touched
  buckets), no evaluation;
* :meth:`hold_report` answers "would this batch violate anything?" at
  commit time in one O(delta) maintenance pass and keeps the batch held
  for the commit to confirm; :meth:`preview_report` is its side-effect-free
  form (hold, read, roll back);
* :meth:`add_delta_listener` streams *net violation deltas* (constraint id →
  witness tuples appearing/disappearing) to subscribers —
  :class:`~repro.constraints.triggers.TriggerManager` fires off these instead
  of polling.

Two fallback layers keep the view's verdicts identical to the from-scratch
checker (the differential harness in ``tests/test_constraints_views.py``
proves this):

* **compile-time** — constraints outside the Datalog fragment (see the
  boundary table in :mod:`repro.constraints.compile`) are routed to the
  from-scratch checker; the report's ``fallbacks`` carries the
  machine-readable reason;
* **run-time** — the compiled rules are exact only for the Prolog-like
  (ground-atomic) reading of the database, so a compiled constraint whose
  predicates are touched by any *non-atomic* sentence (a disjunction, an
  existential, ...) is also re-checked from scratch for as long as such
  sentences are present, with reason ``non-atomic-sentences``.
"""

from repro.constraints.checker import (
    ConstraintReport,
    ConstraintViolation,
    IntegrityChecker,
)
from repro.constraints.compile import (
    VIOLATION_PREFIX,
    CompilationFallback,
    compile_constraints,
)
from repro.datalog.incremental import MaterializedModel
from repro.datalog.program import DatalogProgram
from repro.db.view import _net_edb_change, _staged_edb_change
from repro.logic.substitution import substitute
from repro.obs.tracing import NOOP_TRACER
from repro.logic.syntax import (
    And,
    Atom,
    Exists,
    Forall,
    Iff,
    Implies,
    Know,
    Not,
    Or,
    free_variables,
    predicates_of,
)
from repro.logic.terms import Parameter, Variable
from repro.logic.transform import to_admissible_form
from repro.store import updated


def _is_ground_atom(sentence):
    return isinstance(sentence, Atom) and all(
        isinstance(arg, Parameter) for arg in sentence.args
    )


def _predicate_names(sentence):
    return {name for name, _ in predicates_of(sentence)}


def _support_atoms(formula, positive, out):
    """Collect the atoms of *formula* that occur in positive polarity —
    the facts whose joint presence makes the (instantiated) violation body
    true, and whose retraction therefore removes the violation."""
    if isinstance(formula, Atom):
        if positive:
            out.append(formula)
    elif isinstance(formula, Know):
        if positive:
            _support_atoms(formula.body, True, out)
    elif isinstance(formula, Not):
        _support_atoms(formula.body, not positive, out)
    elif isinstance(formula, (And, Or)):
        _support_atoms(formula.left, positive, out)
        _support_atoms(formula.right, positive, out)
    elif isinstance(formula, Implies):
        _support_atoms(formula.left, not positive, out)
        _support_atoms(formula.right, positive, out)
    elif isinstance(formula, (Forall, Exists)):
        _support_atoms(formula.body, positive, out)
    elif isinstance(formula, Iff):
        # Either polarity could carry the violation; no sound syntactic
        # support exists, so contribute none (the caller falls back to
        # reporting the violation as irreparable).
        pass
    # Equals / Top / Bottom carry no retractable support.


def violation_support(constraint, witness=()):
    """The *support* of one violation witness: the atoms (instantiated at
    *witness*) whose presence in the database makes *constraint* fail there.

    The constraint's admissible form is ``~ exists x̄. body`` — exactly what
    :class:`~repro.constraints.checker.IntegrityChecker` and
    :mod:`repro.constraints.compile` negate to find witnesses — so the
    witness tuple binds the existential variables (sorted by name, matching
    both witness extractors) and the positive atoms of the instantiated body
    are the facts the violation rests on.  Retracting any of them removes
    this witness, which is what makes these the *retraction candidates* of
    the belief-revision layer (:mod:`repro.revision`).

    Atoms that keep free variables (an inner existential of the body) are
    returned as patterns; callers match them against the database.  Returns
    ``()`` when the constraint has no extractable support (not in negated
    existential form, or witness arity mismatch).
    """
    admissible = to_admissible_form(constraint)
    if not isinstance(admissible, Not):
        return ()
    body = admissible.body
    witness_variables = []
    while isinstance(body, Exists):
        witness_variables.append(body.variable)
        body = body.body
    free_names = {v.name for v in free_variables(body)}
    ordered = sorted({v.name for v in witness_variables} & free_names)
    if witness and len(ordered) != len(witness):
        return ()
    by_name = {variable.name: variable for variable in witness_variables}
    mapping = {by_name[name]: value for name, value in zip(ordered, witness)}
    instantiated = substitute(body, mapping) if mapping else body
    collected = []
    _support_atoms(instantiated, True, collected)
    seen, support = set(), []
    for candidate in collected:
        if candidate not in seen:
            seen.add(candidate)
            support.append(candidate)
    return tuple(support)


class ViolationView:
    """A continuously maintained map from constraints to their violations.

    Example::

        db = EpistemicDatabase(facts, constraints=constraints)
        view = ViolationView(db)
        view.check().satisfied          # probe of the violation buckets
        with db.transaction() as txn:
            txn.tell("emp(Fred)")
            report = view.preview_report(*txn.pending)   # O(delta) peek

    ``strategy`` / ``planner`` / ``storage`` configure the
    maintaining :class:`~repro.datalog.incremental.MaterializedModel`
    exactly as for :class:`~repro.db.view.DatalogView`; the default is the
    columnar indexed engine.  ``checker`` is the
    :class:`~repro.constraints.checker.IntegrityChecker` used for fallback
    constraints (the database passes its own so strategy/config agree).

    The view stays subscribed to the database until :meth:`close`.
    """

    def __init__(self, database, constraints=None, config=None, strategy="indexed",
                 planner=None, storage="columnar", checker=None):
        self._database = database
        active = list(database.constraints() if constraints is None else constraints)
        self._constraints = active
        self._compiled_set = compile_constraints(active)
        self._by_id = {c.constraint_id: c for c in self._compiled_set.compiled}
        self._by_predicate = self._compiled_set.by_predicate()
        config = database.config if config is None else config
        self._checker = checker if checker is not None else IntegrityChecker(
            constraints=active, config=config
        )
        self._delta_listeners = []

        program = DatalogProgram()
        for rule in self._compiled_set.rules():
            program.add_rule(rule)
        for compiled in self._compiled_set.compiled:
            program.declare_output(compiled.predicate, len(compiled.witnesses))
        self._nonatomic = {}
        store = database.store
        for sentence in store.distinct():
            if _is_ground_atom(sentence):
                program.add_fact(sentence)
            else:
                self._count_nonatomic(sentence, store.count(sentence))
        self._materialized = MaterializedModel(
            program, strategy=strategy, planner=planner, storage=storage
        )
        # Maintenance rounds driven by this view show up in the database's
        # trace (the wrapped engine defaults to the no-op tracer).
        self._materialized.engine.tracer = getattr(
            database, "tracer", self._materialized.engine.tracer
        )
        database.add_update_listener(self._on_update)

    # -- introspection ------------------------------------------------------
    @property
    def materialized(self):
        """The underlying :class:`~repro.datalog.incremental.MaterializedModel`."""
        return self._materialized

    @property
    def compiled(self):
        """The :class:`~repro.constraints.compile.CompiledConstraintSet`."""
        return self._compiled_set

    @property
    def fallbacks(self):
        """Compile-time :class:`~repro.constraints.compile.CompilationFallback`
        entries (the run-time ``non-atomic-sentences`` ones appear on check
        reports only, since they come and go with the offending sentences)."""
        return self._compiled_set.fallbacks

    def constraint_id_of(self, constraint):
        """The id (``c<index>``) the view assigned to *constraint*."""
        compiled = self._compiled_set.compiled_for(constraint)
        if compiled is not None:
            return compiled.constraint_id
        fallback = self._compiled_set.fallback_for(constraint)
        if fallback is not None:
            return fallback.constraint_id
        raise KeyError(f"not a constraint of this view: {constraint!r}")

    # -- checking -----------------------------------------------------------
    def check(self, with_witnesses=True, witness_limit=None):
        """Check the database against the constraint set by *reading* the
        maintained view (plus a from-scratch pass over the fallback
        constraints, if any).  Returns a
        :class:`~repro.constraints.checker.ConstraintReport` whose
        ``fallbacks`` records every constraint that was not answered by the
        view and why."""
        self._materialized.rollback()
        tracer = getattr(self._database, "tracer", NOOP_TRACER)
        with tracer.span("violations.check"):
            return self._report(
                self._witnesses_of,
                self._database.sentences,
                self._runtime_nonatomic(),
                with_witnesses=with_witnesses,
                witness_limit=witness_limit,
            )

    def preview_report(self, additions=(), retractions=(), with_witnesses=True,
                       witness_limit=None):
        """The report :meth:`check` would produce if the batch were applied —
        side-effect-free: :meth:`hold_report`, then an exact rollback, so
        neither the maintained state nor the engine cache changes and no
        full model is ever built."""
        try:
            return self.hold_report(
                additions, retractions, with_witnesses=with_witnesses,
                witness_limit=witness_limit,
            )
        finally:
            self._materialized.rollback()

    def hold_report(self, additions=(), retractions=(), with_witnesses=True,
                    witness_limit=None):
        """The report :meth:`check` would produce if the batch were applied,
        read in one O(delta) maintenance pass that stays *held* when the
        report is satisfied: the commit's update notification then confirms
        it at no further cost.  A violated report is rolled back at once;
        any other call reaching the view first rolls a stale hold back."""
        additions = list(additions)
        retractions = list(retractions)
        store = self._database.store
        insertions, deletions = _staged_edb_change(store, additions, retractions)

        nonatomic = dict(self._nonatomic)
        for sentence in retractions:
            if not _is_ground_atom(sentence):
                for name in _predicate_names(sentence):
                    nonatomic[name] = nonatomic.get(name, 0) - 1
        for sentence in additions:
            if not _is_ground_atom(sentence):
                for name in _predicate_names(sentence):
                    nonatomic[name] = nonatomic.get(name, 0) + 1
        nonatomic_names = {name for name, count in nonatomic.items() if count > 0}

        def fallback_theory():
            # Only built when a fallback constraint needs it; one occurrence
            # per retraction (set-based removal could judge a still-violating
            # post-state satisfied — the differential harness caught that).
            return updated(store, additions, retractions)

        def read(compiled_constraints):
            self._materialized.hold(insertions, deletions)
            return self._witnesses_of(compiled_constraints)

        self._materialized.rollback()
        tracer = getattr(self._database, "tracer", NOOP_TRACER)
        with tracer.span(
            "violations.preview",
            additions=len(additions),
            retractions=len(retractions),
        ):
            report = self._report(
                read,
                fallback_theory,
                nonatomic_names,
                with_witnesses=with_witnesses,
                witness_limit=witness_limit,
            )
        if not report.satisfied:
            self._materialized.rollback()
        return report

    def violations(self):
        """The current violations as ``{constraint_id: (witness, ...)}`` —
        compiled constraints only, read straight off the maintained index."""
        self._materialized.rollback()
        return self._witnesses_of(self._compiled_set.compiled)

    def retraction_candidates(self, report, protected=()):
        """Map each violation of *report* to the database sentences it rests
        on: for every witness, :func:`violation_support` instantiates the
        constraint's violation body and the atoms currently present in the
        database (minus *protected*) are returned, ordered and de-duplicated.
        This is the raw material of minimal-retraction planning — the
        belief-revision layer picks the least entrenched of these."""
        protected_set = set(protected)
        candidates = []
        seen = set()
        for violation in report.violations:
            for witness in violation.witnesses or ((),):
                for pattern in violation_support(violation.constraint, witness):
                    if not _is_ground_atom(pattern):
                        continue
                    if pattern in protected_set or pattern in seen:
                        continue
                    if pattern in self._database.store:
                        seen.add(pattern)
                        candidates.append(pattern)
        return tuple(candidates)

    # -- delta subscriptions ------------------------------------------------
    def add_delta_listener(self, listener):
        """Subscribe ``listener(added, removed)`` to net violation deltas:
        both arguments map constraint ids to tuples of witness tuples that
        appeared / disappeared with an applied database update.  Only applied
        changes notify — rollbacks and rejected batches never do — and only
        when the violation set actually changed."""
        self._delta_listeners.append(listener)
        return listener

    def remove_delta_listener(self, listener):
        """Unsubscribe a previously added delta listener."""
        self._delta_listeners.remove(listener)

    # -- lifecycle ------------------------------------------------------------
    def close(self):
        """Unsubscribe from the database; the view stops updating."""
        self._database.remove_update_listener(self._on_update)

    # -- internals ------------------------------------------------------------
    def _count_nonatomic(self, sentence, delta):
        for name in _predicate_names(sentence):
            self._nonatomic[name] = self._nonatomic.get(name, 0) + delta

    def _runtime_nonatomic(self):
        return {name for name, count in self._nonatomic.items() if count > 0}

    def _witnesses_of(self, compiled_constraints):
        """``{constraint id: sorted witness tuples}`` read off the maintained
        (possibly held) index."""
        return {
            compiled.constraint_id: self._read_witnesses(compiled)
            for compiled in compiled_constraints
        }

    def _read_witnesses(self, compiled):
        goal = Atom(
            compiled.predicate,
            tuple(Variable(f"w{i}") for i in range(len(compiled.witnesses))),
        )
        answers = self._materialized.query(goal, mode="materialized")
        witnesses = {
            tuple(binding[variable] for variable in goal.args) for binding in answers
        }
        return tuple(sorted(witnesses, key=lambda w: tuple(p.name for p in w)))

    def _report(self, read, fallback_theory, nonatomic_names, with_witnesses=True,
                witness_limit=None):
        """Assemble a :class:`ConstraintReport`: compiled constraints whose
        predicates stay inside the atomic reading come from the view (via
        *read*, which maps a list of them to their witnesses), everything
        else from the from-scratch checker.  *fallback_theory* is a thunk,
        only called when a fallback constraint actually needs the sentence
        list."""
        view_constraints, runtime_fallbacks = [], []
        for compiled in self._compiled_set.compiled:
            if compiled.edb_predicates & nonatomic_names:
                runtime_fallbacks.append(
                    CompilationFallback(
                        constraint=compiled.constraint,
                        constraint_id=compiled.constraint_id,
                        code="non-atomic-sentences",
                        message=(
                            "predicates "
                            + ", ".join(sorted(compiled.edb_predicates & nonatomic_names))
                            + " are touched by non-atomic sentences; the compiled "
                            "rules only cover the ground-atomic reading"
                        ),
                    )
                )
            else:
                view_constraints.append(compiled)

        view_witnesses = read(view_constraints) if view_constraints else {}

        fallbacks = list(self._compiled_set.fallbacks) + runtime_fallbacks
        fallback_constraints = [fallback.constraint for fallback in fallbacks]
        scratch = None
        if fallback_constraints:
            scratch = self._checker.check(
                fallback_theory(),
                constraints=fallback_constraints,
                with_witnesses=with_witnesses,
                witness_limit=witness_limit,
            )
        scratch_by_constraint = {}
        if scratch is not None:
            for violation in scratch.violations:
                scratch_by_constraint[violation.constraint] = violation

        fallback_ids = {fallback.constraint_id for fallback in fallbacks}
        violations = []
        for index, constraint in enumerate(self._constraints):
            constraint_id = f"c{index}"
            if constraint_id in fallback_ids:
                violation = scratch_by_constraint.get(constraint)
                if violation is not None:
                    violations.append(violation)
                continue
            witnesses = view_witnesses.get(constraint_id, ())
            if not witnesses:
                continue
            if witness_limit is not None:
                witnesses = witnesses[:witness_limit]
            violations.append(
                ConstraintViolation(
                    constraint=constraint,
                    witnesses=witnesses if with_witnesses else (),
                )
            )
        return ConstraintReport(
            satisfied=not violations,
            violations=tuple(violations),
            checked=len(self._constraints),
            fallbacks=tuple(fallbacks),
        )

    def _on_update(self, added, removed):
        # The store is already updated: an EDB fact is inserted with its
        # first occurrence and deleted with its last (O(delta) reads).
        for sentence in removed:
            if not _is_ground_atom(sentence):
                self._count_nonatomic(sentence, -1)
        for sentence in added:
            if not _is_ground_atom(sentence):
                self._count_nonatomic(sentence, +1)
        insertions, deletions = _net_edb_change(self._database.store, added, removed)
        materialized = self._materialized
        held = materialized.held
        tracer = getattr(self._database, "tracer", NOOP_TRACER)
        if held is not None and (held.edb_added, held.edb_removed) == (
            frozenset(insertions), frozenset(deletions)
        ):
            # The commit applied exactly the batch its check held.
            with tracer.span("violations.confirm"):
                result = materialized.confirm()
        else:
            if held is not None:
                with tracer.span("violations.rollback"):
                    materialized.rollback()
            if not insertions and not deletions:
                return
            result = materialized.apply(insertions, deletions)
        if not self._delta_listeners:
            return
        added_deltas = self._violation_deltas(result.derived_added)
        removed_deltas = self._violation_deltas(result.derived_removed)
        if not added_deltas and not removed_deltas:
            return
        for listener in list(self._delta_listeners):
            listener(added_deltas, removed_deltas)

    def _violation_deltas(self, derived):
        deltas = {}
        for atom in derived:
            compiled = self._by_predicate.get(atom.predicate)
            if compiled is not None:
                deltas.setdefault(compiled.constraint_id, []).append(tuple(atom.args))
        return {
            constraint_id: tuple(
                sorted(witnesses, key=lambda w: tuple(p.name for p in w))
            )
            for constraint_id, witnesses in deltas.items()
        }

    def __repr__(self):
        return (
            f"ViolationView({len(self._compiled_set.compiled)} compiled, "
            f"{len(self._compiled_set.fallbacks)} fallbacks over {self._database!r})"
        )
