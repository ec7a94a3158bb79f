"""The span tracer: zero-dependency, thread-safe, no-op by default.

A **span** is one timed operation — a fixpoint round, a join pass, a
commit stage — opened as a context manager::

    with tracer.span("fixpoint.round", iteration=3, stratum=1):
        ...

Spans nest: each thread keeps its own open-span stack, so a tracer shared
by several threads still produces correctly-parented spans without any
coordination beyond one lock around the shared entry list.  A finished
span becomes one plain dict entry (``name``, ``start``, ``duration``,
``attrs``, ``id``, ``parent``, ``thread``), exportable as JSON lines
(:meth:`Tracer.export`) for the aggregating CLI
(``python -m repro.obs summarize trace.jsonl``).

The default on every instrumented object is the shared
:data:`NOOP_TRACER`: its ``span()`` returns one reusable do-nothing
context manager, so the instrumentation points cost an attribute call and
a dict of keyword arguments and nothing else — the ``observability``
benchmark section guards that this stays under 5% of a 10k-fact
fixpoint.  Instrumentation sites that loop tightly may additionally guard
on :attr:`Tracer.enabled`.
"""

import json
import threading
import time
from itertools import count


class _NoopSpan:
    """The reusable do-nothing span (shared; carries no state)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        return False

    def annotate(self, **attrs):
        """Ignore late attributes (the recording span merges them)."""
        return self


NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The do-nothing tracer: every instrumented object's default.

    ``enabled`` is False so hot loops can skip attribute packing
    entirely; ``span()`` still works (returning the shared no-op span) so
    unguarded instrumentation points need no branch.
    """

    __slots__ = ()
    enabled = False

    def span(self, name, **attrs):
        """Return the shared no-op span (name and attrs are discarded)."""
        return NOOP_SPAN

    def __repr__(self):
        return "NoopTracer()"


NOOP_TRACER = NoopTracer()


class _Span:
    """One live recording span (returned by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "name", "attrs", "id", "parent", "start", "duration")

    def __init__(self, tracer, name, attrs, span_id):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = span_id
        self.parent = None
        self.start = None
        self.duration = None

    def annotate(self, **attrs):
        """Attach attributes discovered after the span opened (e.g. how
        many facts a round derived)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack()
        self.parent = stack[-1].id if stack else None
        stack.append(self)
        self.start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        tracer = self._tracer
        self.duration = tracer._clock() - self.start
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        tracer._record(self)
        return False


class Tracer:
    """A recording tracer: collects finished spans as plain dict entries.

    Thread-safe by construction — per-thread open-span stacks for
    parenting, one lock around the shared entry list and the id counter —
    so one tracer can serve every thread of the process that uses it.

    *entries* is the list of finished-span dicts, in completion order
    (children complete before parents, which is what the summarize tree
    relies on being reconstructable from ``parent`` ids).
    """

    def __init__(self, clock=time.perf_counter):
        self.entries = []
        self._clock = clock
        self._lock = threading.Lock()
        self._ids = count(1)
        self._local = threading.local()

    enabled = True

    def span(self, name, **attrs):
        """Open a span named *name* carrying *attrs*; use as a context
        manager."""
        with self._lock:
            span_id = next(self._ids)
        return _Span(self, name, attrs, span_id)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span):
        entry = {
            "name": span.name,
            "start": span.start,
            "duration": span.duration,
            "attrs": span.attrs,
            "id": span.id,
            "parent": span.parent,
            "thread": threading.get_ident(),
        }
        with self._lock:
            self.entries.append(entry)

    def clear(self):
        """Drop every recorded entry."""
        with self._lock:
            self.entries = []

    def __len__(self):
        return len(self.entries)

    def export(self, path):
        """Write the recorded spans as JSON lines to *path*; returns how
        many entries were written."""
        with open(path, "w") as handle:
            for entry in self.entries:
                handle.write(json.dumps(entry, default=str) + "\n")
        return len(self.entries)

    def __repr__(self):
        return f"Tracer({len(self.entries)} spans)"


def read_trace(path):
    """Load a JSON-lines trace file back into a list of entry dicts
    (blank lines are skipped)."""
    entries = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def summarize_trace(entries):
    """Aggregate trace entries into a per-operation tree.

    Operations are grouped by their *path* — the chain of span names from
    the root down (two ``fixpoint.round`` spans under different parents
    aggregate separately).  Returns a list of ``(depth, name, stats)``
    rows in tree order, where ``stats`` has ``count``, ``total``, ``p50``
    and ``p99`` (seconds) plus ``self``: the total minus the time of the
    spans' direct children, i.e. the time no child span accounts for.
    """
    from repro.obs.metrics import Histogram

    by_id = {entry["id"]: entry for entry in entries if entry.get("id") is not None}

    def path_of(entry):
        names = [entry["name"]]
        parent = entry.get("parent")
        seen = set()
        while parent is not None and parent in by_id and parent not in seen:
            seen.add(parent)
            parent_entry = by_id[parent]
            names.append(parent_entry["name"])
            parent = parent_entry.get("parent")
        return tuple(reversed(names))

    child_time = {}
    for entry in entries:
        parent = entry.get("parent")
        if parent is not None and entry.get("duration") is not None:
            child_time[parent] = child_time.get(parent, 0.0) + entry["duration"]

    histograms = {}
    self_time = {}
    for entry in entries:
        duration = entry.get("duration")
        if duration is None:
            continue
        path = path_of(entry)
        histogram = histograms.get(path)
        if histogram is None:
            histogram = histograms[path] = Histogram(entry["name"])
        histogram.observe(duration)
        self_time[path] = self_time.get(path, 0.0) + duration - child_time.get(
            entry.get("id"), 0.0
        )

    rows = []
    for path in sorted(histograms):
        stats = histograms[path].snapshot()
        stats["self"] = self_time[path]
        rows.append((len(path) - 1, path[-1], stats))
    return rows


def render_summary(rows):
    """Render :func:`summarize_trace` rows as an aligned text tree."""
    lines = [
        f"{'operation':<44} {'count':>7} {'total':>10} {'self':>10} "
        f"{'p50':>9} {'p99':>9}"
    ]
    for depth, name, stats in rows:
        label = "  " * depth + name
        lines.append(
            f"{label:<44} {stats['count']:>7} "
            f"{stats['total'] * 1000:>8.1f}ms "
            f"{stats['self'] * 1000:>8.1f}ms "
            f"{stats['p50'] * 1000:>7.2f}ms "
            f"{stats['p99'] * 1000:>7.2f}ms"
        )
    return "\n".join(lines)
