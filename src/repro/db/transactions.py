"""Transactional updates for :class:`~repro.db.database.EpistemicDatabase`.

The paper's discussion of incremental integrity maintenance (Section 8,
item 4) presumes updates arrive as units: a batch of assertions and
retractions whose *net* effect must leave the constraints satisfied, even if
intermediate states would not (recording a new employee and her social
security number is one update, regardless of the order of the two facts).
:class:`Transaction` provides exactly that:

* ``tell`` / ``retract`` stage changes without touching the database;
* ``commit`` checks the whole batch first — under incremental checking by
  holding it in the maintained violation view (one O(delta) maintenance
  pass), under scratch checking by re-checking only the constraints whose
  predicates the batch touches (the Nicolas-style relevance filter) — and
  only then applies it to the database's sentence store in O(delta): the
  view confirms its held batch instead of maintaining it again, triggers
  fire once, and a failed check leaves everything untouched;
* the object is also a context manager — leaving the ``with`` block commits,
  an exception inside it discards the staged changes.
"""

from repro.exceptions import ConstraintViolationError
from repro.logic.printer import to_text
from repro.obs.tracing import NOOP_TRACER


class Transaction:
    """A staged batch of assertions and retractions against one database."""

    def __init__(self, database):
        self._database = database
        self._additions = []
        self._retractions = []
        self._committed = False
        self._committed_epoch = None

    # -- staging ---------------------------------------------------------
    def tell(self, sentence):
        """Stage an assertion (string or formula)."""
        from repro.db.database import _as_formula

        self._additions.append(_as_formula(sentence))
        return self

    def retract(self, sentence):
        """Stage a retraction."""
        from repro.db.database import _as_formula

        self._retractions.append(_as_formula(sentence))
        return self

    @property
    def pending(self):
        """The staged (additions, retractions) as tuples."""
        return tuple(self._additions), tuple(self._retractions)

    @property
    def committed_epoch(self):
        """The database's ``revision_epoch`` this commit created, or ``None``
        while uncommitted / after a rollback — the handle revision history
        keeps to order belief states."""
        return self._committed_epoch

    # -- lifecycle --------------------------------------------------------
    def commit(self, constraints=None):
        """Apply the batch atomically.

        Raises :class:`~repro.exceptions.ConstraintViolationError` (and leaves
        the database untouched) when the *net* state violates a registered
        constraint.  Returns the constraint report of the incremental check
        (``None`` when the database has no constraints).

        The check runs before the store changes.  Once it passed, each
        staged retraction removes the earliest remaining occurrence of its
        sentence (absent ones are skipped) and the additions are appended —
        O(1) per staged sentence on the store — and listeners hear the net
        batch once.  An accepted incremental commit therefore costs one
        maintenance pass of the violation view (its held check) plus
        O(delta) bookkeeping.

        *constraints* selects the checking mode for this commit —
        ``"scratch"`` (classical re-check through the relevance filter) or
        ``"incremental"`` (an O(delta) hold of the database's maintained
        :meth:`~repro.db.database.EpistemicDatabase.violation_view`, with
        witnesses from the view and fallback reasons on the report).  The
        default is the database's own ``constraint_checking`` mode.
        """
        if self._committed:
            raise RuntimeError("transaction already committed")
        database = self._database
        mode = database.constraint_checking if constraints is None else constraints
        if mode not in ("scratch", "incremental"):
            raise ValueError("constraints must be 'scratch' or 'incremental'")
        tracer = getattr(database, "tracer", NOOP_TRACER)
        with tracer.span(
            "txn.commit",
            additions=len(self._additions),
            retractions=len(self._retractions),
            mode=mode,
        ):
            report = None
            if database.constraints():
                view = None
                if mode == "incremental":
                    view = database.violation_view()
                with tracer.span("txn.check", mode=mode):
                    report, _ = database._checker.check_update(
                        database.store,
                        added=self._additions,
                        removed=self._retractions,
                        constraints=database.constraints(),
                        view=view,
                    )
                if not report.satisfied:
                    staged = ", ".join(
                        to_text(s) for s in self._additions + self._retractions
                    )
                    raise ConstraintViolationError(
                        f"transaction [{staged}] violates integrity constraints",
                        violations=report.violations,
                    )
            with tracer.span("txn.apply"):
                applied_retractions = []
                with tracer.span("txn.store"):
                    store = database.store
                    for sentence in self._retractions:
                        if sentence in store:
                            store.remove(sentence)
                            applied_retractions.append(sentence)
                    for sentence in self._additions:
                        store.add(sentence)
                database._dirty = True
                self._committed = True
                metrics = getattr(database, "_metrics", None)
                if metrics is not None:
                    metrics.counter("db.commits").inc()
                database._notify_update(self._additions, applied_retractions)
                self._committed_epoch = database.revision_epoch
            if database.triggers.triggers:
                database.triggers.fire(database)
            return report

    def rollback(self):
        """Discard the staged changes.

        Rolling back never notifies update listeners, so any derived state —
        in particular a :class:`~repro.db.view.DatalogView`'s materialized
        model and the engine cache behind it — is left exactly as it was
        before the transaction started.  Code that wants to *look* at the
        pending state without committing should use
        :meth:`~repro.db.view.DatalogView.preview` (a side-effect-free peek)
        rather than applying and rolling back.
        """
        self._additions.clear()
        self._retractions.clear()
        self._committed = True

    # -- context manager ----------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        if exc_type is not None:
            self.rollback()
            return False
        if not self._committed:
            self.commit()
        return False
