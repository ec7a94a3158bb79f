"""Entrenchment policies: which belief gives way when revision must retract.

AGM revision under-determines *which* minimal retraction to apply when a
conflict has several repairs; an epistemic entrenchment ordering breaks the
tie.  A policy ranks the retraction candidates of a violation — lower rank
means *less entrenched*, retracted first — and the planner always appends
the candidate's canonical text as the final tie-breaker, so the complete
order is total and the chosen plan is deterministic.  Determinism is not a
cosmetic property here: the differential harness proves the view-backed
operator equal to the from-scratch baseline *because* both resolve ties the
same way.

Two concrete policies ship with the layer:

* :class:`RecencyPolicy` — beliefs acquired earlier are more entrenched;
  the newest conflicting belief gives way first (the classic foundations
  reading: long-held knowledge survives a fresh contradiction).
* :class:`FactPriorityPolicy` — per-predicate priorities (e.g. ``emp`` facts
  outrank ``works_in`` assignments), falling back to recency among equals.
"""

from repro.logic.printer import to_text
from repro.logic.syntax import Atom


class EntrenchmentState:
    """Read-only view handed to policies over the belief base (an
    :class:`~repro.store.OrderedMultiset`, e.g. the database's store): for
    each sentence currently believed, the *sequence number* of its first
    surviving occurrence — monotonically increasing with assertion order,
    refreshed when a sentence is retracted and later re-asserted."""

    def __init__(self, base):
        self._base = base

    def sequence(self, sentence):
        """Assertion sequence number of *sentence* (-1 when unknown)."""
        sequence = self._base.first_sequence(sentence)
        return -1 if sequence is None else sequence


class EntrenchmentPolicy:
    """Base class: subclasses implement :meth:`rank`."""

    def rank(self, sentence, state):
        """A tuple; candidates with *smaller* rank are retracted first."""
        raise NotImplementedError

    def key(self, sentence, state):
        """The total sort key: the policy's rank plus the sentence's
        canonical text as a deterministic tie-breaker."""
        return (*self.rank(sentence, state), to_text(sentence))


class RecencyPolicy(EntrenchmentPolicy):
    """Older beliefs are more entrenched: rank is the negated assertion
    sequence number, so the most recently told conflicting fact is the one
    retracted."""

    def rank(self, sentence, state):
        return (-state.sequence(sentence),)


class FactPriorityPolicy(EntrenchmentPolicy):
    """Per-predicate priorities: an atom's rank is the priority of its
    predicate (*default* when unlisted; non-atomic sentences always use the
    default), so low-priority facts are sacrificed before high-priority
    ones.  Equal priorities fall back to recency, then text."""

    def __init__(self, priorities=None, default=0):
        self.priorities = dict(priorities or {})
        self.default = default

    def rank(self, sentence, state):
        priority = self.default
        if isinstance(sentence, Atom):
            priority = self.priorities.get(sentence.predicate, self.default)
        return (priority, -state.sequence(sentence))
