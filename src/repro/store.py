"""An insertion-ordered multiset: the database's sentence store and a
Datalog program's fact store.

Both are sequences with duplicates whose readers need list order (the
reducer, the prover, ``list(program.facts)``) *and* O(1) occurrence counts,
earliest-occurrence removal and first-occurrence sequence numbers (commit
bookkeeping, recency for the revision policies).  ``_items`` maps a
monotone sequence number to its element — dicts keep insertion order — and
``_where`` maps an element to the sequence of its only occurrence, or to a
``deque`` of them once it occurs twice, so a unique element costs no
container.  Every edit bumps ``version``: a reader remembering ``(store,
version)`` notices any later edit without comparing contents.
"""

from bisect import bisect_left
from collections import deque


class OrderedMultiset:
    """A list-like sequence with O(1) ``count``, membership,
    earliest-occurrence :meth:`remove` and :meth:`first_sequence`."""

    __slots__ = ("_items", "_where", "_next", "_ordered", "version")

    def __init__(self, items=()):
        self._items = {}
        self._where = {}
        self._next = 0
        self._ordered = True
        self.version = 0
        for item in items:
            self.add(item)

    def add(self, item):
        """Append one occurrence of *item*; returns its sequence number."""
        sequence = self._next
        self._next = sequence + 1
        self._items[sequence] = item
        if self._where.setdefault(item, sequence) != sequence:
            self._place(item, sequence)
        self.version += 1
        return sequence

    def remove(self, item):
        """Remove the earliest occurrence of *item*, returning its sequence
        number (``ValueError`` when absent, as ``list.remove``)."""
        where = self._where.get(item)
        if where is None:
            raise ValueError(f"{item!r} is not in the multiset")
        if type(where) is int:
            del self._where[item]
            sequence = where
        else:
            sequence = where.popleft()
            if len(where) == 1:
                self._where[item] = where[0]
        del self._items[sequence]
        self.version += 1
        return sequence

    def restore(self, item, sequence):
        """Put back an occurrence :meth:`remove` took out under *sequence*,
        at its old position (the next iteration re-sorts once)."""
        self._items[sequence] = item
        self._ordered = False
        self._place(item, sequence)
        self.version += 1

    def _place(self, item, sequence):
        where = self._where.get(item)
        if where is None:
            self._where[item] = sequence
        elif type(where) is int:
            self._where[item] = deque(sorted((where, sequence)))
        else:
            where.insert(bisect_left(where, sequence), sequence)

    def count(self, item):
        """How many occurrences of *item* are held."""
        where = self._where.get(item)
        if where is None:
            return 0
        return 1 if type(where) is int else len(where)

    def first_sequence(self, item):
        """The sequence number of *item*'s earliest surviving occurrence
        (``None`` when absent); sequence numbers grow with every add."""
        where = self._where.get(item)
        return where if where is None or type(where) is int else where[0]

    def distinct(self):
        """The distinct elements (a live view)."""
        return self._where.keys()

    def __iter__(self):
        if not self._ordered:
            self._items = dict(sorted(self._items.items()))
            self._ordered = True
        return iter(self._items.values())

    def __len__(self):
        return len(self._items)

    def __contains__(self, item):
        return item in self._where

    def __repr__(self):
        return f"OrderedMultiset({list(self)!r})"


def updated(items, additions=(), retractions=()):
    """The list committing the batch would leave of *items*: each retraction
    removes the earliest remaining occurrence (if any), then the additions
    append — :meth:`~repro.db.transactions.Transaction.commit`'s discipline,
    in O(len(items)) for from-scratch checks."""
    result = OrderedMultiset(items)
    for item in retractions:
        if item in result:
            result.remove(item)
    for item in additions:
        result.add(item)
    return list(result)
