"""The three workloads: what they generate, set up, run and check.

Each workload generates every operation from its seed before anything is
timed, sets the library up the way an embedding application would (library
defaults throughout), runs one operation per :meth:`execute` call, and keeps
a cheap shadow state of its own against which :meth:`check` verifies every
result.  Operations are tuples whose first element is the op kind.

What the library will own is built after generation, outside the timed
windows: :meth:`load` makes fresh set-up inputs (the EDB, the rules) for
each set-up, and :meth:`instantiate` turns a generated op — plain strings
and integers — into the atoms it tells or retracts just before the op
runs.  The generated ops and the shadow state are the benchmark's own and
are frozen out of the collector's sight; the library's objects are not.

The sequence of op kinds (and of query shapes) is a fixed cycle with the
workload's exact mix; the seed picks the arguments — which employee leaves,
which fact is told, which node is queried.  The latency of a cached read
depends on how many reads came since the last write, so a seeded kind
sequence would make every median depend on the seed; the fixed cycle keeps
that structure, and the cache behaviour it produces, the same across seeds.

``SLOTS`` maps the benchmark's workload-independent latency metrics
(``write``, ``op1``..``op3``) onto the workload's op kinds.
"""

import random
from collections import Counter
from types import SimpleNamespace

from repro.db.database import EpistemicDatabase
from repro.exceptions import ConstraintViolationError
from repro.logic.builders import atom, param
from repro.logic.printer import to_text
from repro.semantics.answers import AnswerStatus
from repro.workloads import hr_constraints, hr_facts, hr_group, transitive_closure_program
from repro.workloads.generators import update_stream


def _move(counter, removed, added):
    """Take *removed* out of the multiset *counter* and put *added* in,
    dropping the keys that reach zero so its size does not grow with the
    number of ops."""
    for item in removed:
        counter[item] -= 1
        if not counter[item]:
            del counter[item]
    counter.update(added)


def cycle(weights, count):
    """*count* kinds following the evenly interleaved cycle of *weights*
    (``{kind: integer weight}``): smooth weighted round robin, so each kind
    appears exactly its weight's number of times per cycle, spread out."""
    total = sum(weights.values())
    current = dict.fromkeys(weights, 0)
    kinds = []
    for _ in range(count):
        for kind, weight in weights.items():
            current[kind] += weight
        chosen = max(current, key=current.get)
        current[chosen] -= total
        kinds.append(chosen)
    return kinds


class HrTxn:
    """The write path: fixed 10-fact transactions on the scaled HR EDB
    under incrementally checked integrity constraints."""

    name = "hr_txn"
    SLOTS = {"write": "commit", "op1": "reject", "op2": "revise", "op3": "check"}
    WRITES = ("commit", "reject", "revise")
    WEIGHTS = {"commit": 12, "reject": 3, "revise": 3, "check": 2}
    SETUPS = 3
    MAX_OPS_PER_SECOND = 100

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.employees = 200 if smoke else 5000
        self.departments = 10

    def generate(self, count):
        """*count* operations, simulating the state the operations leave
        behind so each one's outcome is known in advance.  An op names
        employees by index: ``(kind, departing, its gender if revised,
        hire)``, ``("revise", employee, new gender, old gender)`` or
        ``("check",)``."""
        self.facts = hr_facts(self.employees, departments=self.departments)
        rng = random.Random(self.seed)
        live = list(range(self.employees))
        gender = {}
        fresh = self.employees
        ops = []
        for kind in cycle(self.WEIGHTS, count):
            if kind in ("commit", "reject"):
                slot = rng.randrange(len(live))
                departing = live[slot]
                ops.append((kind, departing, gender.get(departing), fresh))
                if kind == "commit":
                    live[slot] = fresh
                    gender.pop(departing, None)
                fresh += 1
            elif kind == "revise":
                index = live[rng.randrange(len(live))]
                old = gender.get(index, "male" if index % 2 == 0 else "female")
                new = "female" if old == "male" else "male"
                gender[index] = new
                ops.append(("revise", index, new, old))
            else:
                ops.append(("check",))
        return ops

    def instantiate(self, op):
        """The atoms of *op*: the departing group and the hire, or the new
        and the stale gender atom."""
        kind = op[0]
        if kind in ("commit", "reject"):
            _, departing, gender, hire = op
            leaving = list(hr_group(departing, departments=self.departments))
            if gender is not None:
                leaving[3] = atom(gender, param(f"E{departing}"))
            hired = tuple(hr_group(hire, departments=self.departments))
            if kind == "reject":
                # A planted violation: the hire has no ss fact.
                hired = hired[:1] + hired[2:]
            return (kind, tuple(leaving), hired)
        if kind == "revise":
            _, index, new, old = op
            employee = param(f"E{index}")
            return ("revise", atom(new, employee), atom(old, employee))
        return op

    def load(self):
        return hr_facts(self.employees, departments=self.departments)

    def setup(self, facts):
        db = EpistemicDatabase(
            facts, constraints=hr_constraints(), constraint_checking="incremental"
        )
        db.violation_view()
        return SimpleNamespace(db=db, revisor=db.revision())

    def materialized(self, lib):
        return [lib.db.violation_view().materialized]

    def new_shadow(self):
        return SimpleNamespace(facts=Counter(self.facts), size=len(self.facts))

    def execute(self, lib, op):
        kind = op[0]
        if kind in ("commit", "reject"):
            txn = lib.db.transaction()
            for sentence in op[1]:
                txn.retract(sentence)
            for sentence in op[2]:
                txn.tell(sentence)
            try:
                txn.commit()
            except ConstraintViolationError:
                return "rejected"
            return "committed"
        if kind == "revise":
            return lib.revisor.revise(op[1])
        return lib.db.check_constraints()

    def check(self, shadow, lib, op, result):
        kind = op[0]
        if kind == "commit":
            if result != "committed":
                return "a consistent transaction was rejected"
            _move(shadow.facts, op[1], op[2])
            shadow.size += len(op[2]) - len(op[1])
        elif kind == "reject":
            if result != "rejected":
                return "a planted violation was committed"
        elif kind == "revise":
            if tuple(result.retracted) != (op[2],) or tuple(result.additions) != (op[1],):
                return f"revise retracted {result.retracted}, expected ({op[2]},)"
            _move(shadow.facts, (op[2],), (op[1],))
        elif not result.satisfied or result.fallbacks:
            return "check_constraints reported a violation or a fallback"
        if len(lib.db) != shadow.size:
            return f"database holds {len(lib.db)} sentences, shadow {shadow.size}"
        return True

    def final_check(self, shadow, lib, corrupt=None):
        sentences = lib.db.sentences()
        if corrupt is not None:
            sentences = corrupt(sentences)
        if Counter(sentences) != shadow.facts:
            return "the database's sentence multiset differs from the shadow's"
        return True


class KbQuery:
    """The paper's own queries: K-queries with negation, K-sentences and
    ``demo`` on an atomic HR EDB, interleaved with single-sentence writes."""

    name = "kb_query"
    # A retract scans the sentence list and a tell appends, so the two have
    # separate latency modes and a median over both would fall between
    # them.  The write slot holds the tells; retracts print on their own.
    SLOTS = {"write": "tell", "op1": "answers", "op2": "ask", "op3": "demo"}
    WRITES = ("tell", "retract")
    WEIGHTS = {"answers": 7, "ask": 5, "demo": 3, "write": 5}
    SETUPS = 9
    MAX_OPS_PER_SECOND = 300

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.employees = 12 if smoke else 40
        self.departments = 3

    def _period(self):
        """One period of the op cycle: (kind, query shape) per position.
        Each position gets a fixed query, so every period replays the same
        reads against the same cache state; only the ground ``ask`` targets
        and the written facts change with the seed."""
        def open_query(shape, d):
            return (
                ("K emp(?x) & ~K male(?x)", ("emp", ("?x",)), ("male", ("?x",))),
                (f"K works_in(?x, D{d})", ("works_in", ("?x", f"D{d}")), None),
                (f"K emp(?x) & ~K works_in(?x, D{d})", ("emp", ("?x",)),
                 ("works_in", ("?x", f"D{d}"))),
            )[shape]

        # ask forms: K emp(e), K male(e), ~K works_in(e, D), K emp(e), and
        # one existential K-sentence.
        ask_forms = (0, 1, 2, 0, 3)
        seen = dict.fromkeys(self.WEIGHTS, 0)
        period = []
        for kind in cycle(self.WEIGHTS, sum(self.WEIGHTS.values())):
            turn = seen[kind]
            seen[kind] += 1
            if kind == "answers":
                period.append((kind, open_query(turn % 3, turn % self.departments)))
            elif kind == "demo":
                period.append((kind, open_query(turn, (turn + 1) % self.departments)))
            elif kind == "ask":
                period.append((kind, ask_forms[turn]))
            else:
                period.append((kind, None))
        return period

    def generate(self, count):
        facts = hr_facts(self.employees, departments=self.departments)
        self.facts = [to_text(fact) for fact in facts]
        rng = random.Random(self.seed)
        # Writes toggle department assignments: one sentence shape, so a
        # tell's cost does not depend on which fact the seed picked.  Tells
        # and retracts alternate, which keeps the database's size steady and
        # gives every write position of the period as many of each.
        pool = {
            f"works_in(E{index}, D{d})"
            for index in range(self.employees)
            for d in range(self.departments)
        }
        present = sorted(pool & set(self.facts))
        absent = sorted(pool - set(self.facts))
        writes = 0
        period = self._period()
        ops = []
        for position in range(count):
            kind, shape = period[position % len(period)]
            if kind in ("answers", "demo"):
                ops.append((kind,) + shape)
            elif kind == "ask":
                index = rng.randrange(self.employees)
                if shape == 0:
                    ops.append(("ask", f"K emp(E{index})", "known", f"emp(E{index})"))
                elif shape == 1:
                    ops.append(("ask", f"K male(E{index})", "known", f"male(E{index})"))
                elif shape == 2:
                    sentence = f"works_in(E{index}, D{index % self.departments})"
                    ops.append(("ask", f"~K {sentence}", "unknown", sentence))
                else:
                    ops.append(("ask", "exists x. K works_in(x, D1) & ~K male(x)",
                                "exists", "D1"))
            else:
                source, target = (absent, present) if writes % 2 == 0 else (present, absent)
                writes += 1
                slot = rng.randrange(len(source))
                sentence = source[slot]
                source[slot] = source[-1]
                source.pop()
                target.append(sentence)
                ops.append(("tell" if target is present else "retract", sentence))
        return ops

    def instantiate(self, op):
        return op

    def load(self):
        return self.facts

    def setup(self, facts):
        return SimpleNamespace(db=EpistemicDatabase.from_text("\n".join(facts)))

    def materialized(self, lib):
        return []

    def new_shadow(self):
        return SimpleNamespace(facts=set(self.facts))

    def execute(self, lib, op):
        kind = op[0]
        if kind == "tell":
            return lib.db.tell(op[1])
        if kind == "retract":
            return lib.db.retract(op[1])
        if kind == "answers":
            return lib.db.answers(op[1])
        if kind == "ask":
            return lib.db.ask(op[1])
        return lib.db.demo(op[1])

    @staticmethod
    def _expected(facts, positive, negative):
        """Set algebra over the shadow facts: on an atomic database
        ``K p(a)`` holds exactly when ``p(a)`` is a fact."""
        def render(pattern, value):
            predicate, args = pattern
            return f"{predicate}({', '.join(value if a == '?x' else a for a in args)})"

        predicate, args = positive
        position = args.index("?x")
        candidates = set()
        for fact in facts:
            name, _, rest = fact.partition("(")
            if name != predicate:
                continue
            values = rest.rstrip(")").split(", ")
            if len(values) == len(args) and all(
                a == "?x" or a == v for a, v in zip(args, values)
            ):
                candidates.add(values[position])
        if negative is None:
            return candidates
        return {x for x in candidates if render(negative, x) not in facts}

    def check(self, shadow, lib, op, result):
        kind = op[0]
        facts = shadow.facts
        if kind in ("tell", "retract"):
            if kind == "tell":
                facts.add(op[1])
            else:
                facts.discard(op[1])
            if len(lib.db) != len(facts):
                return f"database holds {len(lib.db)} sentences, shadow {len(facts)}"
            return True
        if kind == "ask":
            form, argument = op[2], op[3]
            if form == "known":
                expected = argument in facts
            elif form == "unknown":
                expected = argument not in facts
            else:
                expected = bool(self._expected(
                    facts, ("works_in", ("?x", argument)), ("male", ("?x",))
                ))
            status = AnswerStatus.YES if expected else AnswerStatus.NO
            if result.status is not status:
                return f"ask {op[1]!r} gave {result.status}, expected {status}"
            return True
        expected = self._expected(facts, op[2], op[3])
        if kind == "answers":
            got = [binding[0].name for binding in result.bindings]
        else:
            got = [binding[0].name for binding in result]
        if len(got) != len(set(got)) or set(got) != expected:
            return f"{kind} {op[1]!r}: {len(got)} bindings, expected {len(expected)}"
        return True

    def final_check(self, shadow, lib, corrupt=None):
        sentences = {to_text(sentence) for sentence in lib.db.sentences()}
        if corrupt is not None:
            sentences = corrupt(sentences)
        if sentences != shadow.facts or len(lib.db) != len(shadow.facts):
            return "the database's sentences differ from the shadow's"
        return True


class TcView:
    """A recursive Datalog view: transitive closure over disjoint chains,
    maintained across edge-batch transactions and read by point queries."""

    name = "tc_view"
    SLOTS = {"write": "commit", "op1": "query", "op2": "model", "op3": "reverse"}
    WRITES = ("commit",)
    # "model" stands for a commit followed by a model() read, so every
    # model() call follows an update.
    WEIGHTS = {"commit": 7, "model": 2, "query": 9, "reverse": 2}
    # Edge batches drawn from update_stream per period of commits; the
    # period then undoes them in reverse order.
    BATCHES = 100
    SETUPS = 3
    MAX_OPS_PER_SECOND = 200

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.chains = 40 if smoke else 1000
        self.length = 10

    def generate(self, count):
        """*count* operations; a commit carries its deleted and inserted
        edges as ``(source, target)`` name pairs.

        The commits repeat one period: ``BATCHES`` batches from
        ``update_stream``, then their inverses in reverse order.  About a
        third of its insertions are new edges between random nodes, which
        join chains and grow the closure; replaying the stream forward only
        would make the model, and every cost that scales with it, grow with
        the number of commits a run gets through."""
        program = transitive_closure_program(chains=self.chains, length=self.length)
        self.edges = [_names(fact.atom) for fact in program.facts]
        rng = random.Random(self.seed)
        forward = [
            (tuple(map(_names, deletions)), tuple(map(_names, insertions)))
            for insertions, deletions in update_stream(
                program, batches=self.BATCHES, batch_size=5, seed=self.seed
            )
        ]
        period = forward + [(added, removed) for removed, added in reversed(forward)]
        commits = 0
        turns = dict.fromkeys(self.WEIGHTS, 0)
        ops = []
        for kind in cycle(self.WEIGHTS, count):
            if kind in ("commit", "model"):
                ops.append(("commit",) + period[commits % len(period)])
                commits += 1
                if kind == "model":
                    ops.append(("model",))
            else:
                # Positions along the chain cycle, so every run sees the
                # same spread of answer-set sizes.
                position = turns[kind] % (self.length + 1)
                turns[kind] += 1
                node = f"c{rng.randrange(self.chains)}_n{position}"
                if kind == "query":
                    ops.append(("query", f"path({node}, ?y)", node))
                else:
                    ops.append(("reverse", f"path(?x, {node})", node))
        return ops

    def instantiate(self, op):
        if op[0] != "commit":
            return op
        return ("commit",) + tuple(
            tuple(atom("edge", param(u), param(v)) for u, v in edges) for edges in op[1:]
        )

    def load(self):
        program = transitive_closure_program(chains=self.chains, length=self.length)
        return [fact.atom for fact in program.facts], list(program.rules)

    def setup(self, inputs):
        edges, rules = inputs
        db = EpistemicDatabase(edges)
        return SimpleNamespace(db=db, view=db.datalog_view(rules))

    def materialized(self, lib):
        return [lib.view.materialized]

    def new_shadow(self):
        shadow = SimpleNamespace(succ={}, pred={}, reach={}, closure=0, edges=0)
        for edge in self.edges:
            self._link(shadow, edge, +1)
        for node in list(shadow.succ):
            shadow.reach[node] = self._search(shadow.succ, node)
            shadow.closure += len(shadow.reach[node])
        return shadow

    @staticmethod
    def _link(shadow, edge, sign):
        u, v = edge
        if sign > 0:
            shadow.succ.setdefault(u, set()).add(v)
            shadow.pred.setdefault(v, set()).add(u)
        else:
            shadow.succ[u].discard(v)
            shadow.pred[v].discard(u)
        shadow.edges += sign

    @staticmethod
    def _search(adjacency, start):
        """Nodes reachable from *start* by one or more steps."""
        seen = set()
        frontier = list(adjacency.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen.add(node)
                frontier.extend(adjacency.get(node, ()))
        return seen

    def _ancestors(self, shadow, nodes):
        found = set(nodes)
        for node in nodes:
            found |= self._search(shadow.pred, node)
        return found

    def execute(self, lib, op):
        kind = op[0]
        if kind == "commit":
            txn = lib.db.transaction()
            for sentence in op[1]:
                txn.retract(sentence)
            for sentence in op[2]:
                txn.tell(sentence)
            return txn.commit()
        if kind == "model":
            return len(lib.view.model())
        return lib.view.query(op[1])

    def check(self, shadow, lib, op, result):
        kind = op[0]
        if kind == "commit":
            # Only nodes that reach a changed edge's source, before or after
            # the change, can have a different closure.
            sources = {edge.args[0].name for edge in op[1] + op[2]}
            affected = self._ancestors(shadow, sources)
            for edge in op[1]:
                self._link(shadow, _names(edge), -1)
            for edge in op[2]:
                self._link(shadow, _names(edge), +1)
            affected |= self._ancestors(shadow, sources)
            for node in affected:
                reach = self._search(shadow.succ, node)
                shadow.closure += len(reach) - len(shadow.reach.get(node, ()))
                shadow.reach[node] = reach
            if len(lib.db) != shadow.edges:
                return f"database holds {len(lib.db)} edges, shadow {shadow.edges}"
            return True
        if kind == "model":
            expected = shadow.edges + shadow.closure
            if result != expected:
                return f"model() holds {result} facts, expected {expected}"
            return True
        node = op[2]
        if kind == "query":
            expected = shadow.reach.get(node, set())
        else:
            expected = self._search(shadow.pred, node)
        got = [next(iter(binding.values())).name for binding in result]
        if len(got) != len(set(got)) or set(got) != expected:
            return f"{op[1]}: {len(got)} bindings, expected {len(expected)}"
        return True

    def final_check(self, shadow, lib, corrupt=None):
        edges = {_names(sentence) for sentence in lib.db.sentences()}
        if corrupt is not None:
            edges = corrupt(edges)
        expected = {(u, v) for u, targets in shadow.succ.items() for v in targets}
        if edges != expected or len(lib.db) != shadow.edges:
            return "the database's edges differ from the shadow's"
        return True


def _names(edge):
    """An ``edge`` atom as its (source, target) name pair."""
    return edge.args[0].name, edge.args[1].name


WORKLOADS = {cls.name: cls for cls in (HrTxn, KbQuery, TcView)}
