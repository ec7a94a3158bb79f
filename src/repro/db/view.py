"""Materialized Datalog views over an :class:`~repro.db.database.EpistemicDatabase`.

The paper's Section 5.1 observes that Σ "could be a Datalog program"; a
:class:`DatalogView` takes that reading literally and keeps it *hot*: the
database's ground atomic sentences are the EDB, the caller supplies the
rules, and a :class:`~repro.datalog.incremental.MaterializedModel` maintains
the least model.  The view subscribes to the database's update
notifications, so every ``tell`` / ``retract`` / transaction commit updates
the materialized closure at delta cost — the engine never re-runs its
fixpoint for fact traffic.

Two properties matter for correctness under transactional traffic:

* only *applied* changes notify — a rejected batch or an explicit
  ``rollback`` leaves the view (and the engine cache behind it) untouched;
* looking at pending state goes through :meth:`DatalogView.preview`, a
  side-effect-free peek (hold, read, exact rollback), so a peek can never
  poison the maintained model.

Non-atomic sentences (disjunctions, existentials, arbitrary FOPCE) are not
part of the Prolog-like reading and are ignored by the view; ask the
database itself about those.
"""

from repro.datalog.incremental import MaterializedModel
from repro.datalog.program import DatalogProgram
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter


def _ground_atoms(sentences):
    """The sentences that take part in the Datalog reading: ground,
    non-equality atoms."""
    return [
        sentence
        for sentence in sentences
        if isinstance(sentence, Atom)
        and all(isinstance(arg, Parameter) for arg in sentence.args)
    ]


def _staged_edb_change(store, additions, retractions):
    """The ``(insertions, deletions)`` batch that committing the staged
    *additions* and *retractions* against *store* would make to the EDB:
    each staged retraction removes one occurrence, so a fact is deleted
    only once no occurrence is left (the model's set semantics keep a fact
    that is also re-added)."""
    staged = {}
    for atom in _ground_atoms(retractions):
        staged[atom] = staged.get(atom, 0) + 1
    deletions = [atom for atom, count in staged.items() if store.count(atom) <= count]
    return _ground_atoms(additions), deletions


def _net_edb_change(store, added, removed):
    """The net EDB change of an applied update (*store* already updated):
    the ground atoms whose occurrence count went from zero to positive
    (insertions) or from positive to zero (deletions)."""
    change = {}
    for atom in _ground_atoms(added):
        change[atom] = change.get(atom, 0) + 1
    for atom in _ground_atoms(removed):
        change[atom] = change.get(atom, 0) - 1
    insertions, deletions = [], []
    for atom, delta in change.items():
        after = store.count(atom)
        before = after - delta
        if after and not before:
            insertions.append(atom)
        elif before and not after:
            deletions.append(atom)
    return insertions, deletions


class DatalogView:
    """A continuously maintained Datalog reading of a database.

    Example::

        db = EpistemicDatabase.from_text("edge(a, b); edge(b, c)")
        view = db.datalog_view(rules=path_rules)
        view.holds(parse("path(a, c)"))        # True
        with db.transaction() as txn:
            txn.retract("edge(b, c)")
        view.holds(parse("path(a, c)"))        # False — maintained, not recomputed

    The view stays subscribed to the database until :meth:`close` is called.

    ``strategy`` / ``planner`` / ``storage`` configure the maintaining
    :class:`~repro.datalog.incremental.MaterializedModel` (and through it
    the wrapped engine): ``storage="columnar"`` interns the EDB constants
    and keeps the materialized state in dense-id columnar relations
    (:class:`~repro.datalog.columnar.ColumnarFactIndex`).
    """

    def __init__(self, database, rules=(), strategy="indexed", planner=None,
                 storage=None):
        self._database = database
        program = DatalogProgram()
        for rule in rules:
            program.add_rule(rule)
        for sentence in _ground_atoms(database.store.distinct()):
            program.add_fact(sentence)
        self._materialized = MaterializedModel(
            program, strategy=strategy, planner=planner, storage=storage
        )
        database.add_update_listener(self._on_update)

    # -- reading ------------------------------------------------------------
    @property
    def materialized(self):
        """The underlying :class:`~repro.datalog.incremental.MaterializedModel`."""
        return self._materialized

    @property
    def engine(self):
        """The wrapped :class:`~repro.datalog.engine.DatalogEngine`."""
        return self._materialized.engine

    def model(self):
        """The maintained least model as a
        :class:`~repro.semantics.worlds.World`."""
        return self._materialized.model()

    def holds(self, atom):
        """Return True when the ground atom is in the maintained model."""
        return self._materialized.holds(self._as_atom(atom))

    def query(self, atom, mode="materialized"):
        """Answer a goal *atom* (a formula or source text, possibly with
        variables) against the view; returns a
        :class:`~repro.datalog.engine.QueryResult` — the binding dicts plus
        counters.

        ``mode="materialized"`` (default) probes the incrementally
        maintained index — goal-directed reads at O(candidate bucket) cost.
        ``"magic"`` / ``"auto"`` / ``"full"`` are delegated to the
        underlying engine, so a magic-set evaluation can be run against the
        view's current EDB (e.g. to cross-check the maintained state, or
        after a rule change invalidated it).
        """
        return self._materialized.query(self._as_atom(atom), mode=mode)

    def preview(self, transaction):
        """The :class:`~repro.semantics.worlds.World` the view would show if
        *transaction* committed — computed as a side-effect-free peek, so the
        maintained state survives a subsequent rollback untouched."""
        insertions, deletions = _staged_edb_change(
            self._database.store, *transaction.pending
        )
        return self._materialized.peek(insertions=insertions, deletions=deletions)

    # -- lifecycle ------------------------------------------------------------
    def close(self):
        """Unsubscribe from the database; the view stops updating."""
        self._database.remove_update_listener(self._on_update)

    def _on_update(self, added, removed):
        insertions, deletions = _net_edb_change(self._database.store, added, removed)
        if insertions or deletions:
            self._materialized.apply(insertions, deletions)

    def _as_atom(self, value):
        if isinstance(value, str):
            from repro.db.database import _as_formula

            value = _as_formula(value)
        return value

    def __repr__(self):
        return f"DatalogView({self._materialized!r})"
