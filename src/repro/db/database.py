"""``EpistemicDatabase`` — the user-facing database object.

A thin, stateful orchestration layer over the rest of the package:

* the **content** is a sequence of FOPCE sentences (facts, disjunctions,
  existentials, rules — anything first order), exactly the paper's notion of
  a database, kept in one :class:`~repro.store.OrderedMultiset` that the
  views and the belief revisor read their counts and recency from;
* **queries** are KFOPCE formulas (strings are parsed); ``ask`` returns
  yes/no/unknown for sentences, ``answers`` returns bindings for open
  queries, ``demo`` exposes the Prolog-style evaluator for admissible
  queries;
* **integrity constraints** are KFOPCE sentences checked with the same
  machinery (Definition 3.5); updates re-check incrementally and can fire
  procedural triggers;
* ``closed_world()`` returns a closed-world view of the same content
  (Section 7).

Evaluation strategy defaults to the prover-based reduction; the
model-enumeration oracle can be requested per call for small databases
(``strategy="models"``), which is also how the test-suite cross-checks the
two paths.
"""

from repro.exceptions import ConstraintViolationError, NotFirstOrderError
from repro.logic.classify import is_first_order
from repro.logic.parser import parse, parse_many
from repro.logic.printer import to_text
from repro.logic.syntax import Formula, free_variables
from repro.constraints.checker import IntegrityChecker
from repro.constraints.triggers import TriggerManager
from repro.cwa.evaluation import ClosedWorldEvaluator
from repro.evaluator.all_answers import all_answers
from repro.evaluator.demo import DemoEvaluator
from repro.semantics import entailment as model_entailment
from repro.semantics.answers import Answer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NOOP_TRACER
from repro.semantics.config import DEFAULT_CONFIG
from repro.semantics.reduction import EpistemicReducer
from repro.store import OrderedMultiset, updated


def _as_formula(value):
    if isinstance(value, Formula):
        return value
    if isinstance(value, str):
        return parse(value)
    raise TypeError(f"expected a formula or a string, got {value!r}")


class EpistemicDatabase:
    """A deductive database queried in KFOPCE.

    Example::

        db = EpistemicDatabase.from_text('''
            Teach(John, Math)
            exists x. Teach(x, CS)
            Teach(Mary, Psych) | Teach(Sue, Psych)
        ''')
        db.ask("K Teach(John, Math)").is_yes          # True
        db.ask("exists x. K Teach(x, CS)").is_no      # True — no known CS teacher
        db.answers("K Teach(John, ?c)").values()      # {Parameter('Math')}
    """

    def __init__(self, sentences=(), constraints=(), config=DEFAULT_CONFIG,
                 constraint_checking="scratch", view_options=None, tracer=None):
        if constraint_checking not in ("scratch", "incremental"):
            raise ValueError(
                "constraint_checking must be 'scratch' or 'incremental'"
            )
        self.config = config
        self.tracer = NOOP_TRACER if tracer is None else tracer
        self._metrics = MetricsRegistry()
        self._sentences = OrderedMultiset()
        self._constraints = []
        self._checker = IntegrityChecker(config=config)
        self._triggers = TriggerManager(config=config)
        self._dirty = True
        self._reducer = None
        self._update_listeners = []
        self._revision_epoch = 0
        self._constraint_checking = constraint_checking
        self._view_options = dict(view_options or {})
        self._violation_view = None
        for sentence in sentences:
            self.tell(sentence, check_constraints=False, fire_triggers=False)
        for constraint in constraints:
            self.add_constraint(constraint, check_now=False)

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_text(cls, text, constraints_text="", config=DEFAULT_CONFIG):
        """Build a database from newline/semicolon separated sentences (and
        optionally constraints) in the parser's surface syntax."""
        database = cls(parse_many(text), config=config)
        for constraint in parse_many(constraints_text):
            database.add_constraint(constraint, check_now=False)
        return database

    @classmethod
    def from_relational(cls, relational_database, config=DEFAULT_CONFIG):
        """Build an (open-world) database from a relational instance; combine
        with :meth:`closed_world` for the classical relational reading."""
        return cls(relational_database.to_theory(), config=config)

    @classmethod
    def from_datalog(cls, program, config=DEFAULT_CONFIG):
        """Build a database from a Datalog program, rendered as first-order
        sentences (facts plus universally quantified rules)."""
        return cls(program.to_sentences(), config=config)

    # -- content management -----------------------------------------------------
    def sentences(self):
        """Return the database content (a copy)."""
        return list(self._sentences)

    @property
    def store(self):
        """The live sentence store (an :class:`~repro.store.OrderedMultiset`;
        treat as read-only)."""
        return self._sentences

    def constraints(self):
        """Return the registered integrity constraints (a copy)."""
        return list(self._constraints)

    @property
    def triggers(self):
        """The :class:`~repro.constraints.triggers.TriggerManager`."""
        return self._triggers

    # -- update notifications ---------------------------------------------------
    def add_update_listener(self, listener):
        """Register ``listener(added, removed)`` to be called after every
        *applied* content change — ``tell``, ``retract`` and
        :meth:`~repro.db.transactions.Transaction.commit` (once per batch,
        with the net change).  Rejected updates and rollbacks never notify,
        which is what keeps derived caches (e.g. a
        :class:`~repro.db.view.DatalogView`) consistent with committed state
        only.  Returns the listener for decorator-style use."""
        self._update_listeners.append(listener)
        return listener

    def remove_update_listener(self, listener):
        """Unregister a listener previously added with
        :meth:`add_update_listener` (no-op when absent)."""
        if listener in self._update_listeners:
            self._update_listeners.remove(listener)

    @property
    def revision_epoch(self):
        """A monotone version counter: incremented once per *applied* content
        change (``tell``, ``retract``, one per committed transaction batch —
        including each belief-change operation of :meth:`revision`, which
        applies as a single transaction).  Rejected updates and rollbacks
        never advance it.  :class:`~repro.db.transactions.Transaction`
        records the epoch it created as ``committed_epoch``, and the
        revision layer stamps it on every
        :class:`~repro.revision.operators.RevisionResult`."""
        return self._revision_epoch

    def _notify_update(self, added, removed):
        """Tell every registered listener about an applied content change.
        Called after constraint checking succeeds and before triggers fire,
        so listeners see the new state before any trigger queries it."""
        self._revision_epoch += 1
        self._metrics.gauge("db.revision_epoch").set(self._revision_epoch)
        if not self._update_listeners:
            return
        added = tuple(added)
        removed = tuple(removed)
        for listener in list(self._update_listeners):
            listener(added, removed)

    def tell(self, sentence, check_constraints=True, fire_triggers=True):
        """Assert a first-order sentence.

        When *check_constraints* is set and the updated database would
        violate a registered constraint, the assertion is rejected and
        :class:`~repro.exceptions.ConstraintViolationError` is raised.
        Under ``constraint_checking="incremental"`` the check holds the
        sentence in the maintained :meth:`violation_view` (one O(delta)
        pass, confirmed once the store took it) instead of a from-scratch
        re-evaluation.  Returns the constraint report (or ``None`` when
        checking was skipped).
        """
        formula = _as_formula(sentence)
        if not is_first_order(formula):
            raise NotFirstOrderError(
                "databases contain first-order sentences; epistemic sentences "
                f"belong in the constraints: {to_text(formula)}"
            )
        if free_variables(formula):
            raise ValueError(f"database sentences must be closed: {to_text(formula)}")
        report = None
        if check_constraints and self._constraints:
            # Checked *before* the store changes: the incremental path holds
            # the batch in the maintained view, which must see the
            # pre-update state, and confirms it when notified below.
            report, _ = self._checker.check_update(
                self._sentences, added=[formula], constraints=self._constraints,
                view=self._update_view(),
            )
            if not report.satisfied:
                raise ConstraintViolationError(
                    f"asserting {to_text(formula)} violates integrity constraints",
                    violations=report.violations,
                )
        self._sentences.add(formula)
        self._dirty = True
        self._metrics.counter("db.tells").inc()
        self._notify_update([formula], [])
        if fire_triggers and self._triggers.triggers:
            self._triggers.fire(self)
        return report

    def retract(self, sentence, check_constraints=True):
        """Remove the earliest occurrence of a previously asserted sentence
        (no-op when absent).

        The store changes only once the check passed, so a rejected
        retraction leaves the order and :attr:`revision_epoch` untouched.
        Under ``constraint_checking="incremental"`` the check is an O(delta)
        hold of the maintained :meth:`violation_view`; the scratch mode
        re-checks every constraint on the theory without the sentence."""
        formula = _as_formula(sentence)
        if formula not in self._sentences:
            return None
        report = None
        if check_constraints and self._constraints:
            view = self._update_view()
            if view is not None:
                report, _ = self._checker.check_update(
                    self._sentences, removed=[formula],
                    constraints=self._constraints, view=view,
                )
            else:
                self._metrics.counter("db.checks").inc()
                report = self._checker.check(
                    updated(self._sentences, retractions=[formula]),
                    constraints=self._constraints,
                )
            if not report.satisfied:
                raise ConstraintViolationError(
                    f"retracting {to_text(formula)} violates integrity constraints",
                    violations=report.violations,
                )
        self._sentences.remove(formula)
        self._dirty = True
        self._metrics.counter("db.retracts").inc()
        self._notify_update([], [formula])
        return report

    def add_constraint(self, constraint, check_now=True):
        """Register a KFOPCE integrity constraint (Definition 3.5)."""
        formula = _as_formula(constraint)
        self._constraints.append(formula)
        # The constraint set changed — any maintained violation view compiles
        # the old set, so drop it; the next check rebuilds it lazily.
        self._close_view()
        if check_now:
            report = self.check_constraints()
            if not report.satisfied:
                self._constraints.pop()
                self._close_view()
                raise ConstraintViolationError(
                    f"the database does not satisfy {to_text(formula)}",
                    violations=report.violations,
                )
            return report
        return None

    # -- violation view ---------------------------------------------------------
    @property
    def constraint_checking(self):
        """``"scratch"`` (re-evaluate constraints on every check) or
        ``"incremental"`` (read the maintained violation view, falling back
        from-scratch only for uncompilable constraints)."""
        return self._constraint_checking

    def violation_view(self):
        """The lazily built
        :class:`~repro.constraints.views.ViolationView` over this database:
        the registered constraints compiled to materialized violation rules,
        maintained through the update listeners.  Shared by every incremental
        check; invalidated (and rebuilt on next use) when the constraint set
        changes.  ``view_options`` passed to the constructor configure its
        engine (``strategy`` / ``planner`` / ``storage``)."""
        if self._violation_view is None:
            from repro.constraints.views import ViolationView

            self._violation_view = ViolationView(
                self,
                constraints=self._constraints,
                config=self.config,
                checker=self._checker,
                **self._view_options,
            )
        return self._violation_view

    def _update_view(self):
        """The view commit-time checks hold their batch in — ``None``
        under scratch checking, which keeps ``check_update`` on the
        classical from-scratch path."""
        if self._constraint_checking == "incremental" and self._constraints:
            return self.violation_view()
        return None

    def _close_view(self):
        if self._violation_view is not None:
            self._violation_view.close()
            self._violation_view = None

    # -- evaluation ---------------------------------------------------------------
    def _reducer_for(self, queries):
        if self._dirty or self._reducer is None:
            self._reducer = EpistemicReducer(
                self._sentences,
                config=self.config,
                queries=list(queries) + list(self._constraints),
            )
            self._dirty = False
            return self._reducer
        # Reuse only when the cached universe already covers the new queries.
        from repro.logic.signature import signature_of

        needed = signature_of(self._sentences, queries).parameters
        if needed <= set(self._reducer.universe):
            return self._reducer
        self._reducer = EpistemicReducer(
            self._sentences, config=self.config, queries=list(queries) + list(self._constraints)
        )
        return self._reducer

    def ask(self, query, strategy="reduction"):
        """Answer a KFOPCE sentence with yes / no / unknown.

        ``strategy="models"`` uses the model-enumeration oracle instead of
        the prover-based reduction (small databases only).
        """
        formula = _as_formula(query)
        if strategy == "models":
            return model_entailment.ask(self._sentences, formula, config=self.config)
        return self._reducer_for([formula]).ask(formula)

    def answers(self, query, strategy="reduction"):
        """Return the definite answers to an open KFOPCE query."""
        formula = _as_formula(query)
        if strategy == "models":
            return model_entailment.answers(self._sentences, formula, config=self.config)
        return self._reducer_for([formula]).answers(formula)

    def indefinite_answers(self, query, max_group_size=3):
        """Return definite plus indefinite (disjunctive) answers — the
        paper's "Mary or Sue" — via the model-enumeration semantics."""
        formula = _as_formula(query)
        return model_entailment.indefinite_answers(
            self._sentences, formula, config=self.config, max_group_size=max_group_size
        )

    def entails(self, query):
        """Return True when the database entails the KFOPCE sentence."""
        return self.ask(query).is_yes

    def demo(self, query, validate=True):
        """Run the Prolog-style ``demo`` evaluator on an admissible query and
        return the set of answer tuples (Section 5)."""
        formula = _as_formula(query)
        evaluator = DemoEvaluator(
            self._sentences,
            config=self.config,
            prover=self._reducer_for([formula]).prover,
        )
        return all_answers(evaluator, formula, validate=validate)

    def demo_evaluator(self, queries=()):
        """Return a :class:`~repro.evaluator.demo.DemoEvaluator` bound to the
        current content (for callers who want the generator interface)."""
        parsed = [_as_formula(q) for q in queries]
        return DemoEvaluator(
            self._sentences, config=self.config, prover=self._reducer_for(parsed).prover
        )

    # -- constraints ------------------------------------------------------------------
    def check_constraints(self, with_witnesses=True):
        """Check every registered constraint; returns a
        :class:`~repro.constraints.checker.ConstraintReport`.

        Under ``constraint_checking="incremental"`` this reads the
        maintained violation view (O(touched buckets)) instead of
        re-evaluating; the report's ``fallbacks`` names any constraint that
        still went through the from-scratch path and why."""
        self._metrics.counter("db.checks").inc()
        if self._constraint_checking == "incremental" and self._constraints:
            return self.violation_view().check(with_witnesses=with_witnesses)
        return self._checker.check(
            self._sentences, constraints=self._constraints, with_witnesses=with_witnesses
        )

    def satisfies(self, constraint):
        """Definition 3.5: does the database satisfy this (possibly
        unregistered) constraint?"""
        formula = _as_formula(constraint)
        return self._reducer_for([formula]).entails(formula)

    def metrics(self):
        """One flat snapshot of the database's own instruments (``db.*``:
        tells, retracts, commits, checks, the revision-epoch gauge).  The
        engine-level numbers live on the evaluating objects —
        ``violation_view().engine.metrics()`` et al."""
        return self._metrics.snapshot()

    def explain_rejection(self, report, policy=None):
        """Why did this constraint report (or
        :class:`~repro.exceptions.ConstraintViolationError`) reject an
        update — and what could give way?

        For every violation witness, traces the violated constraint to its
        **support**: the instantiated positive atoms the violation rests on
        (:func:`~repro.constraints.views.violation_support`), and matches
        that support against the currently believed ground atoms to list
        the **retraction candidates** the revision planner would consider,
        ordered least entrenched first under *policy* (default: recency,
        exactly :meth:`revision`'s default).  Returns a tuple of
        :class:`~repro.obs.provenance.RejectionExplanation`, one per
        (violation, witness) pair, each with a human-readable
        ``render()``.
        """
        from repro.constraints.views import violation_support
        from repro.obs.provenance import RejectionExplanation
        from repro.revision.entrenchment import EntrenchmentState, RecencyPolicy
        from repro.revision.planner import _match

        violations = getattr(report, "violations", None)
        if violations is None:
            raise TypeError(
                "expected a ConstraintReport or ConstraintViolationError "
                f"(something with .violations), got {type(report).__name__}"
            )
        policy = RecencyPolicy() if policy is None else policy
        state = EntrenchmentState(self._sentences)
        explanations = []
        for violation in violations:
            constraint = violation.constraint
            constraint_id = None
            if self._violation_view is not None:
                try:
                    constraint_id = self._violation_view.constraint_id_of(constraint)
                except KeyError:
                    constraint_id = None
            for witness in violation.witnesses or ((),):
                support = tuple(violation_support(constraint, witness))
                candidates = []
                for pattern in support:
                    for candidate in _match(pattern, self._sentences):
                        if candidate not in candidates:
                            candidates.append(candidate)
                candidates.sort(key=lambda sentence: policy.key(sentence, state))
                explanations.append(RejectionExplanation(
                    constraint=constraint,
                    witness=tuple(witness),
                    support=support,
                    candidates=tuple(candidates),
                    constraint_id=constraint_id,
                ))
        return tuple(explanations)

    def transaction(self):
        """Return a :class:`~repro.db.transactions.Transaction` for staging a
        batch of assertions/retractions that must satisfy the constraints as
        a unit (e.g. a new employee together with her social security
        number)."""
        from repro.db.transactions import Transaction

        return Transaction(self)

    def revision(self, policy=None, **options):
        """Return a :class:`~repro.revision.operators.BeliefRevisor` over
        this database: AGM-style ``expand`` / ``contract`` / ``revise`` /
        ``update_batch`` operators that resolve constraint conflicts by
        minimal retraction, arbitrated by the entrenchment *policy*
        (default recency) and applied as single transactions.  *options*
        are passed through (``consistency``, ``closed_world``,
        ``max_rounds``)."""
        from repro.revision.operators import BeliefRevisor

        return BeliefRevisor(self, policy=policy, **options)

    # -- datalog view -------------------------------------------------------------------
    def datalog_view(self, rules=(), strategy="indexed", planner=None, storage=None):
        """Return a :class:`~repro.db.view.DatalogView`: the Prolog-like
        reading of this database (its ground atomic sentences plus the given
        Datalog *rules*) with the least model materialized and incrementally
        maintained across every subsequent ``tell`` / ``retract`` /
        transaction commit (*planner* tunes the maintenance join planning;
        ``storage="columnar"`` keeps the view's index in interned dense-id
        columnar relations)."""
        from repro.db.view import DatalogView

        return DatalogView(self, rules=rules, strategy=strategy, planner=planner,
                           storage=storage)

    # -- closed world -------------------------------------------------------------------
    def closed_world(self, queries=()):
        """Return a :class:`~repro.cwa.evaluation.ClosedWorldEvaluator` over
        the current content (Section 7)."""
        parsed = [_as_formula(q) for q in queries]
        return ClosedWorldEvaluator(self._sentences, queries=parsed, config=self.config)

    # -- misc --------------------------------------------------------------------------
    def __len__(self):
        return len(self._sentences)

    def __contains__(self, sentence):
        return _as_formula(sentence) in self._sentences

    def __repr__(self):
        return (
            f"EpistemicDatabase(sentences={len(self._sentences)}, "
            f"constraints={len(self._constraints)})"
        )
