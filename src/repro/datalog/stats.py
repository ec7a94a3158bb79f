"""Observed join statistics for the Datalog planner.

The indexed engine orders rule bodies greedily by estimated selectivity.
Until this module existed the only estimate available was
:meth:`~repro.datalog.index.FactIndex.selectivity` — relation cardinality
divided by the distinct-value count of each bound position, i.e. a
*uniform-distribution* assumption: every value of a column is presumed to
own an equally sized bucket.  Real workloads are skewed (a hub node in a
graph, a hot key in a join chain), and under skew the uniform estimate
systematically underestimates the cost of probing a column whose few heavy
values carry most of the facts.

:class:`JoinStatistics` replaces that assumption with *observed* per-column
bucket-size histograms, snapshotted from the live
:class:`~repro.datalog.index.FactIndex` as evaluation proceeds:

* for every ``(predicate, arity)`` relation and every argument position, a
  :class:`ColumnStatistics` records the total fact count, the distinct-value
  count and the sum of squared bucket sizes;
* the planner-facing estimate for probing a bound column is the
  **frequency-weighted expected bucket size** ``Σ sizeᵢ² / Σ sizeᵢ`` — the
  expected number of matching facts when the probe value is drawn from the
  data distribution itself (which is exactly what a join does: probe values
  come from the facts of the other literals).  For a uniform column this
  collapses to ``total / distinct``, so the histogram estimate strictly
  generalises the old one.

The engine refreshes the histograms at the start of every fixpoint round
(:meth:`JoinStatistics.refresh`), so derived relations that grow during
evaluation — the typical recursive predicate — feed their observed shape
back into the next round's join plans.  The snapshot is O(distinct values)
per relation — negligible next to a fixpoint, not next to a small
incremental batch, which therefore uses :meth:`JoinStatistics.adjust`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ColumnStatistics:
    """The bucket-size histogram summary of one argument position.

    ``total`` is the relation cardinality, ``distinct`` the number of
    distinct values at this position and ``sum_of_squares`` the sum of
    squared bucket sizes (the raw material of the frequency-weighted
    estimate) — all three maintainable from a delta.
    """

    total: int
    distinct: int
    sum_of_squares: int

    @property
    def mean_bucket(self):
        """The uniform-assumption bucket size: ``total / distinct``."""
        return self.total / self.distinct if self.distinct else 0.0

    @property
    def expected_probe_matches(self):
        """Expected matches when probing with a value drawn from the data
        distribution: ``sum_of_squares / total`` (≥ :attr:`mean_bucket`,
        with equality exactly for uniform columns)."""
        return self.sum_of_squares / self.total if self.total else 0.0

    @property
    def skew(self):
        """How non-uniform the column is: ``expected_probe_matches /
        mean_bucket`` (1.0 for a perfectly uniform column)."""
        mean = self.mean_bucket
        return self.expected_probe_matches / mean if mean else 1.0


class JoinStatistics:
    """Per-relation, per-argument-position histograms observed from a live
    :class:`~repro.datalog.index.FactIndex`, plus the planner-facing
    selectivity estimate built on them.

    One instance belongs to one evaluation (the engine creates a fresh one
    per fixpoint); :meth:`refresh` re-snapshots every relation, and
    :meth:`selectivity` answers the planner with the frequency-weighted
    estimate, falling back to the index's uniform estimate for relations
    not yet snapshotted.
    """

    __slots__ = ("_columns", "refreshes")

    def __init__(self):
        self._columns = {}
        self.refreshes = 0

    def refresh(self, index):
        """Re-snapshot the bucket-size histograms of every relation held by
        *index*.  Called by the engine at the start of each fixpoint round;
        returns ``self`` for chaining.

        Only bucket *sizes* feed the summary, so indexes exposing
        ``histogram_sizes`` (both storage backends do) hand them over
        without materialising a value-keyed dict per refresh; others fall
        back to the full :meth:`histogram
        <repro.datalog.index.FactIndex.histogram>` contract."""
        self.refreshes += 1
        sizes_of = getattr(index, "histogram_sizes", None)
        if sizes_of is None:
            def sizes_of(predicate, arity, position):
                return index.histogram(predicate, arity, position).values()
        columns = {}
        for key in index.relations():
            predicate, arity = key
            total = index.count(predicate, arity)
            columns[key] = tuple(
                self._summarise(sizes_of(predicate, arity, position), total)
                for position in range(arity)
            )
        self._columns = columns
        return self

    def adjust(self, index, added, removed):
        """Bring the snapshot up to date after *index* gained the atoms
        *added* and lost the atoms *removed* (one batch's net change,
        already applied), reading only the touched buckets through the
        index's ``bucket_size``: a bucket now of size ``after`` that changed
        by ``d`` held ``after - d`` before.  The result equals a
        :meth:`refresh` of the changed index.  Returns ``self``."""
        changes = {}
        for atoms, sign in ((added, 1), (removed, -1)):
            for atom in atoms:
                key = (atom.predicate, len(atom.args))
                by_position = changes.get(key)
                if by_position is None:
                    by_position = changes[key] = tuple({} for _ in atom.args)
                for net, value in zip(by_position, atom.args):
                    net[value] = net.get(value, 0) + sign
        for key, by_position in changes.items():
            predicate, arity = key
            total = index.count(predicate, arity)
            old = self._columns.get(key)
            if not total:
                # refresh() only snapshots relations holding facts
                self._columns.pop(key, None)
                continue
            columns = []
            for position, net in enumerate(by_position):
                column = old[position] if old else None
                distinct = column.distinct if column else 0
                squares = column.sum_of_squares if column else 0
                for value, change in net.items():
                    after = index.bucket_size(predicate, arity, position, value)
                    before = after - change
                    distinct += (after > 0) - (before > 0)
                    squares += after * after - before * before
                columns.append(ColumnStatistics(total, distinct, squares))
            self._columns[key] = tuple(columns)
        return self

    @staticmethod
    def _summarise(sizes, total):
        """Fold an iterable of bucket *sizes* into a
        :class:`ColumnStatistics`."""
        distinct = 0
        sum_of_squares = 0
        for size in sizes:
            distinct += 1
            sum_of_squares += size * size
        return ColumnStatistics(total, distinct, sum_of_squares)

    def column(self, predicate, arity, position):
        """The :class:`ColumnStatistics` of one argument position, or
        ``None`` when the relation has not been snapshotted (empty or not
        yet derived)."""
        columns = self._columns.get((predicate, arity))
        return columns[position] if columns is not None else None

    def relation_total(self, predicate, arity):
        """The snapshotted cardinality of ``predicate/arity`` (0 when the
        relation has not been seen)."""
        columns = self._columns.get((predicate, arity))
        return columns[0].total if columns else 0

    def selectivity(self, predicate, arity, positions):
        """Estimate how many facts of ``predicate/arity`` survive binding
        the argument *positions* (an iterable of position indexes).

        The estimate starts from the snapshotted cardinality and multiplies,
        per bound position, by the fraction of the relation an average
        *data-drawn* probe hits (``expected_probe_matches / total``) —
        independence across positions is assumed, as in the uniform
        estimate it replaces.  Relations with no snapshot estimate to 0.0
        (nothing to join against yet).
        """
        columns = self._columns.get((predicate, arity))
        if not columns:
            return 0.0
        total = columns[0].total
        estimate = float(total)
        for position in positions:
            column = columns[position]
            if column.total:
                estimate *= column.expected_probe_matches / column.total
        return estimate

    def snapshot(self):
        """The current histograms as a plain dict
        ``{(predicate, arity): (ColumnStatistics, ...)}`` — for diagnostics
        and tests; mutating it does not affect the planner."""
        return dict(self._columns)

    def __repr__(self):
        rendered = ", ".join(
            f"{predicate}/{arity}:{columns[0].total if columns else 0}"
            for (predicate, arity), columns in sorted(self._columns.items())
        )
        return f"JoinStatistics({self.refreshes} refreshes; {rendered})"
