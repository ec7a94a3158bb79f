"""Constant interning: dense integer ids for the parameters of a program.

Python-object facts are the storage ceiling the ROADMAP names: at millions
of atoms, every join probe pays a Python-level ``__hash__``/``__eq__`` call
on :class:`~repro.logic.terms.Parameter` and every derived fact allocates an
:class:`~repro.logic.syntax.Atom` (a non-slotted dataclass instance carrying
its own ``__dict__``), and the resident object graph taxes every subsequent
cyclic-GC pass.  An :class:`Interner` removes both costs at the root: each
distinct parameter is assigned a **dense integer id** (0, 1, 2, ... in first
-seen order) once, at the ``Program``/``World`` boundary, and everything
inside the columnar storage layer (:mod:`repro.datalog.columnar`) speaks
ids — hashed and compared at C speed, stored in machine-sized arrays, and
decoded back to the *original* parameter objects only at the API edge.

The table is bidirectional and append-only: ids are never reused and an
interned parameter keeps its id for the lifetime of the table, so id-tuples
remain stable across evaluation rounds and incremental updates.  Interning
happens on the write paths (EDB load, rule compilation, ``apply`` batches);
derived facts only recombine ids that already exist.  The table takes no
lock: evaluation is sequential, so one thread owns it at a time.
"""

from repro.logic.syntax import Atom
from repro.logic.terms import Parameter


def constant_kind(parameter):
    """The lexical *kind* of a constant — ``"int"`` when its name parses as
    an integer, ``"symbol"`` otherwise.

    Parameters carry no type information (they are name-only terms), so this
    lexical classification is what the static analyzer's per-predicate column
    signatures are built from: a column whose facts mix kinds (``edge(1, b)``
    next to ``edge(n1, b)``) almost always indicates two encodings of the
    same domain leaking into one relation, and is reported as a
    kind-conflict diagnostic before the ids ever reach the columnar store.
    """
    try:
        int(parameter.name)
    except (TypeError, ValueError):
        return "symbol"
    return "int"


def fast_atom(predicate, args):
    """Construct a ground :class:`~repro.logic.syntax.Atom` without
    re-validating its arguments — the decode path of the columnar storage
    layer, where every argument is by construction a parameter that already
    passed validation when it was interned.  Hash semantics are identical to
    ``Atom.__init__`` (same formula), so decoded atoms compare and hash
    equal to the originals.

    ``Atom`` is a (non-slotted) frozen dataclass, so writing the instance
    ``__dict__`` directly lands the fields exactly where attribute lookup
    reads them while skipping the frozen-dataclass ``__setattr__`` guard —
    the decode loop allocates millions of atoms, so the three saved calls
    per atom matter."""
    atom = Atom.__new__(Atom)
    fields = atom.__dict__
    fields["predicate"] = predicate
    fields["args"] = args
    fields["_hash"] = hash((predicate, args))
    return atom


class Interner:
    """A bidirectional symbol table mapping
    :class:`~repro.logic.terms.Parameter` objects to dense integer ids.

    One interner is shared by everything that must agree on ids: an engine
    and its columnar store, a materialized model and its deltas.  Decoding
    returns the identical parameter objects that were interned (not equal
    copies), so no string is ever re-parsed and decoded atoms share their
    arguments with the program that produced them.
    """

    __slots__ = ("_ids", "_parameters")

    def __init__(self, parameters=()):
        self._ids = {}
        self._parameters = []
        for parameter in parameters:
            self.intern(parameter)

    # -- encoding ------------------------------------------------------------
    def intern(self, parameter):
        """The id of *parameter*, assigning the next dense id when it has
        not been seen before."""
        ident = self._ids.get(parameter)
        if ident is None:
            if not isinstance(parameter, Parameter):
                raise TypeError(f"only parameters are interned, got {parameter!r}")
            ident = len(self._parameters)
            self._ids[parameter] = ident
            self._parameters.append(parameter)
        return ident

    def id_of(self, parameter):
        """The id of *parameter*, or ``None`` when it was never interned —
        the read-only probe used by queries and membership checks, which
        must not grow the table for constants the data has never seen."""
        return self._ids.get(parameter)

    def encode_atom(self, atom):
        """Encode a ground atom as ``((predicate, arity), id_tuple)`` —
        the row-fact representation of the columnar storage layer."""
        args = atom.args
        return (atom.predicate, len(args)), tuple(self.intern(a) for a in args)

    def row_of(self, atom):
        """The id-tuple of a ground atom when every argument is already
        interned, ``None`` otherwise (the membership-probe dual of
        :meth:`encode_atom`)."""
        ids = self._ids
        row = []
        for arg in atom.args:
            ident = ids.get(arg)
            if ident is None:
                return None
            row.append(ident)
        return tuple(row)

    # -- decoding ------------------------------------------------------------
    def parameter(self, ident):
        """The parameter owning id *ident* (the identical object that was
        interned)."""
        return self._parameters[ident]

    def decode_row(self, predicate, row):
        """Decode one ``(predicate, id_tuple)`` row back into a real
        :class:`~repro.logic.syntax.Atom`."""
        parameters = self._parameters
        return fast_atom(predicate, tuple([parameters[i] for i in row]))

    @property
    def parameters(self):
        """Every interned parameter, in id order (treat as read-only)."""
        return self._parameters

    def __len__(self):
        return len(self._parameters)

    def __contains__(self, parameter):
        return parameter in self._ids

    def __repr__(self):
        return f"Interner({len(self._parameters)} parameters)"
