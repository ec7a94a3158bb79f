"""Synthetic workload generators.

Used by the randomized soundness experiment (E5), the completeness/scaling
experiment (E6), the ablation benchmarks (E9) and the Datalog benchmark
matrix (``benchmarks/run_bench.py``): random elementary databases and
normal queries, relational instances, parameterised Datalog workloads
(transitive closure, same-generation, join-heavy chains) that scale to
thousands of facts, tell/retract update streams over a program's EDB
(``update_stream``) for the incremental view-maintenance benchmark, and
goal workloads (``query_workload`` for bound/free mixes, ``point_query``
for single reproducible point goals) for the magic-set query benchmark.
All generators take an explicit ``seed`` so that benchmark rows are
reproducible run to run.
"""

import random

from repro.logic.builders import conj, disj, exists, forall, implies, knows
from repro.logic.syntax import Atom, Not
from repro.logic.terms import Parameter, Variable
from repro.relational.schema import RelationalDatabase, RelationSchema


def _rng(seed):
    return random.Random(seed)


def random_elementary_database(
    facts=20,
    rules=3,
    predicates=("p", "q", "r"),
    parameters=8,
    disjunction_rate=0.15,
    existential_rate=0.1,
    seed=0,
):
    """Generate a random elementary database (Definition 6.3).

    The result is a list of FOPCE sentences: ground atoms, occasional ground
    disjunctions and existential sentences (keeping the theory elementary),
    plus range-restricted rules of the shape ``∀x. p(x) ⊃ q(x)`` /
    ``∀x,y. p(x) ∧ q(y) ⊃ r(x, y)``.
    """
    rng = _rng(seed)
    constants = [Parameter(f"c{i}") for i in range(parameters)]
    unary = list(predicates[:2])
    binary = predicates[2] if len(predicates) > 2 else None
    sentences = []
    for _ in range(facts):
        roll = rng.random()
        if binary is not None and roll < 0.4:
            atom = Atom(binary, (rng.choice(constants), rng.choice(constants)))
        else:
            atom = Atom(rng.choice(unary), (rng.choice(constants),))
        if rng.random() < disjunction_rate:
            other = Atom(rng.choice(unary), (rng.choice(constants),))
            sentences.append(disj([atom, other]))
        elif rng.random() < existential_rate:
            variable = Variable("w")
            predicate = rng.choice(unary)
            sentences.append(exists("w", Atom(predicate, (variable,))))
        else:
            sentences.append(atom)
    x, y = Variable("x"), Variable("y")
    rule_shapes = []
    if len(unary) >= 2:
        rule_shapes.append(forall("x", implies(Atom(unary[0], (x,)), Atom(unary[1], (x,)))))
    if binary is not None and len(unary) >= 2:
        rule_shapes.append(
            forall(
                ["x", "y"],
                implies(conj([Atom(unary[0], (x,)), Atom(unary[1], (y,))]), Atom(binary, (x, y))),
            )
        )
        rule_shapes.append(
            forall(["x", "y"], implies(Atom(binary, (x, y)), Atom(unary[1], (y,))))
        )
    for index in range(min(rules, len(rule_shapes))):
        sentences.append(rule_shapes[index])
    return sentences


def random_normal_query(
    literals=3,
    predicates=("p", "q", "r"),
    parameters=8,
    variables=2,
    negation_rate=0.3,
    seed=0,
):
    """Generate a random *safe normal query* (Section 5.2): a conjunction of
    first-order literals, K-literals and negated K-literals whose first
    conjunct is a positive first-order atom binding every variable used by
    the negative conjuncts."""
    rng = _rng(seed)
    constants = [Parameter(f"c{i}") for i in range(parameters)]
    query_variables = [Variable(f"v{i}") for i in range(max(1, variables))]
    unary = list(predicates[:2])
    binary = predicates[2] if len(predicates) > 2 else None

    def random_term(allow_variable=True):
        if allow_variable and rng.random() < 0.6:
            return rng.choice(query_variables)
        return rng.choice(constants)

    # A positive binder first, mentioning every variable.
    if binary is not None and len(query_variables) >= 2:
        binder = Atom(binary, (query_variables[0], query_variables[1]))
    else:
        binder = Atom(rng.choice(unary), (query_variables[0],))
    conjuncts = [knows(binder)]
    for _ in range(max(0, literals - 1)):
        if binary is not None and rng.random() < 0.4:
            atom = Atom(binary, (random_term(), random_term()))
        else:
            atom = Atom(rng.choice(unary), (random_term(),))
        if rng.random() < negation_rate:
            conjuncts.append(Not(knows(atom)))
        else:
            conjuncts.append(knows(atom))
    return conj(conjuncts)


def random_relational_instance(rows=50, width=3, distinct_values=20, seed=0, name="R"):
    """Generate a single-relation instance for the relational/CWA benchmarks."""
    rng = _rng(seed)
    schema = RelationSchema(name, tuple(f"a{i+1}" for i in range(width)))
    database = RelationalDatabase([schema])
    for _ in range(rows):
        database.insert(name, *(f"v{rng.randrange(distinct_values)}" for _ in range(width)))
    return database


def _path_rules(program):
    from repro.datalog.program import DatalogRule, DatalogLiteral

    x, y, z = Variable("x"), Variable("y"), Variable("z")
    program.add_rule(
        DatalogRule(Atom("path", (x, y)), (DatalogLiteral(Atom("edge", (x, y))),))
    )
    program.add_rule(
        DatalogRule(
            Atom("path", (x, z)),
            (DatalogLiteral(Atom("edge", (x, y))), DatalogLiteral(Atom("path", (y, z)))),
        )
    )
    return program


def chain_datalog_program(length=50, fanout=1, seed=0):
    """Generate the classic transitive-closure workload: an ``edge`` chain of
    the given *length* (with optional extra random edges) plus the two
    ``path`` rules.  Used by the naive vs semi-naive ablation (E9)."""
    from repro.datalog.program import DatalogProgram

    rng = _rng(seed)
    program = DatalogProgram()
    nodes = [Parameter(f"n{i}") for i in range(length + 1)]
    for i in range(length):
        program.add_fact(Atom("edge", (nodes[i], nodes[i + 1])))
    for _ in range(fanout * length // 10):
        a, b = rng.choice(nodes), rng.choice(nodes)
        program.add_fact(Atom("edge", (a, b)))
    return _path_rules(program)


def transitive_closure_program(chains=40, length=10, extra_edges=0, seed=0):
    """Transitive closure at parameterised scale: *chains* disjoint ``edge``
    chains of the given *length* (``chains * length`` edge facts) plus the
    two ``path`` rules.

    Unlike a single long chain — whose closure grows quadratically in the
    fact count — the disjoint-chain shape keeps the least model at
    ``O(chains * length^2)`` atoms, so the edge set can be scaled 10–100×
    while the output stays bounded; this is the workload the indexed-join
    speedup is measured on.  *extra_edges* random within-chain shortcut
    edges can be added to densify individual chains.
    """
    from repro.datalog.program import DatalogProgram

    rng = _rng(seed)
    program = DatalogProgram()
    nodes = [
        [Parameter(f"c{chain}_n{i}") for i in range(length + 1)]
        for chain in range(chains)
    ]
    for chain in nodes:
        for i in range(length):
            program.add_fact(Atom("edge", (chain[i], chain[i + 1])))
    for _ in range(extra_edges):
        chain = rng.choice(nodes)
        a, b = sorted(rng.sample(range(len(chain)), 2))
        program.add_fact(Atom("edge", (chain[a], chain[b])))
    return _path_rules(program)


def independent_components_program(components=4, chains=25, length=5, extra_edges=0, seed=0):
    """*components* mutually independent transitive closures in one program:
    component *c* gets its own ``edge_c`` chains (as in
    :func:`transitive_closure_program`) and its own ``path_c`` rules, with no
    predicate shared between components.

    The dependency condensation therefore has *components* independent
    recursive SCCs in one stratum — a many-component shape for the
    stratifier, the incremental maintainer's per-component passes and the
    analyzer CLI (``--workload independent-components``), where a
    single-predicate workload has just one.
    """
    from repro.datalog.program import DatalogProgram, DatalogRule, DatalogLiteral

    rng = _rng(seed)
    program = DatalogProgram()
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    for component in range(components):
        edge, path = f"edge_{component}", f"path_{component}"
        nodes = [
            [Parameter(f"p{component}_c{chain}_n{i}") for i in range(length + 1)]
            for chain in range(chains)
        ]
        for chain in nodes:
            for i in range(length):
                program.add_fact(Atom(edge, (chain[i], chain[i + 1])))
        for _ in range(extra_edges):
            chain = rng.choice(nodes)
            a, b = sorted(rng.sample(range(len(chain)), 2))
            program.add_fact(Atom(edge, (chain[a], chain[b])))
        program.add_rule(
            DatalogRule(Atom(path, (x, y)), (DatalogLiteral(Atom(edge, (x, y))),))
        )
        program.add_rule(
            DatalogRule(
                Atom(path, (x, z)),
                (DatalogLiteral(Atom(edge, (x, y))), DatalogLiteral(Atom(path, (y, z)))),
            )
        )
    return program


def same_generation_program(depth=5, branching=2, seed=0):
    """The classic same-generation workload over a random tree.

    Generates ``person`` facts for every node of a *branching*-ary tree of
    the given *depth* (children counts are randomised between 1 and
    *branching* when a seed produces it) and ``parent`` facts along the tree
    edges, plus the rules::

        sg(x, x) :- person(x).
        sg(x, z) :- parent(px, x), sg(px, py), parent(py, z).

    The recursive rule joins three positive literals, which is what makes
    this workload sensitive to join ordering and indexing.
    """
    from repro.datalog.program import DatalogProgram, DatalogRule, DatalogLiteral

    rng = _rng(seed)
    program = DatalogProgram()
    root = Parameter("g0_0")
    program.add_fact(Atom("person", (root,)))
    level = [root]
    for generation in range(1, depth + 1):
        next_level = []
        for parent_node in level:
            for _ in range(rng.randint(max(1, branching - 1), branching)):
                child = Parameter(f"g{generation}_{len(next_level)}")
                next_level.append(child)
                program.add_fact(Atom("person", (child,)))
                program.add_fact(Atom("parent", (parent_node, child)))
        level = next_level
    x, z = Variable("x"), Variable("z")
    px, py = Variable("px"), Variable("py")
    program.add_rule(DatalogRule(Atom("sg", (x, x)), (DatalogLiteral(Atom("person", (x,))),)))
    program.add_rule(
        DatalogRule(
            Atom("sg", (x, z)),
            (
                DatalogLiteral(Atom("parent", (px, x))),
                DatalogLiteral(Atom("sg", (px, py))),
                DatalogLiteral(Atom("parent", (py, z))),
            ),
        )
    )
    return program


def update_stream(
    program,
    batches=20,
    churn=0.01,
    batch_size=None,
    reinsert_ratio=0.7,
    predicates=None,
    seed=0,
):
    """Yield ``(insertions, deletions)`` batches simulating a tell/retract
    stream against a Datalog program's EDB — the update workload the
    incremental view-maintenance benchmark replays.

    Each batch deletes ``batch_size`` (default: ``churn`` × the current EDB
    size, at least 1) random live facts and inserts as many new ones; an
    insertion re-tells a previously deleted fact with probability
    *reinsert_ratio* (the natural shape of transactional traffic: most
    deletions are temporary) and otherwise synthesises a fresh fact by
    recombining argument values already seen at each position of the chosen
    predicate.  The stream tracks its own view of the EDB, so a batch never
    deletes an absent fact or inserts a present one, and no fact is both
    inserted and deleted in the same batch.

    *predicates* restricts the churn to the given predicate names (default:
    every extensional predicate of the program).  The generator only reads
    the program — apply the batches via
    :meth:`~repro.datalog.incremental.MaterializedModel.apply` or a
    transaction loop.
    """
    rng = _rng(seed)
    if predicates is None:
        predicates = {name for name, _ in program.edb_predicates()}
    else:
        predicates = set(predicates)
    live = [f.atom for f in program.facts if f.atom.predicate in predicates]
    live_set = set(live)
    retired = []
    values_at = {}
    for fact in live:
        key = (fact.predicate, len(fact.args))
        pools = values_at.setdefault(key, tuple(set() for _ in fact.args))
        for position, value in enumerate(fact.args):
            pools[position].add(value)
    # The pools are fixed after the initial scan; sort them once so
    # synthesis is deterministic without re-sorting per attempt.
    values_at = {
        key: tuple(tuple(sorted(pool, key=str)) for pool in pools)
        for key, pools in values_at.items()
    }
    relation_keys = sorted(values_at)
    if not relation_keys:
        return

    def synthesise(blocked):
        for _ in range(20):
            key = relation_keys[rng.randrange(len(relation_keys))]
            pools = values_at[key]
            candidate = Atom(key[0], tuple(rng.choice(pool) for pool in pools))
            if candidate not in live_set and candidate not in blocked:
                return candidate
        return None

    for _ in range(batches):
        size = batch_size or max(1, int(len(live) * churn))
        deletions = rng.sample(live, min(size, len(live)))
        deleted_set = set(deletions)
        insertions = []
        chosen = set()
        for _ in range(size):
            candidate = None
            if retired and rng.random() < reinsert_ratio:
                candidate = retired.pop(rng.randrange(len(retired)))
                if candidate in live_set or candidate in chosen or candidate in deleted_set:
                    candidate = None
            if candidate is None:
                candidate = synthesise(chosen | deleted_set)
            if candidate is None:
                continue
            chosen.add(candidate)
            insertions.append(candidate)
        yield insertions, deletions
        live = [fact for fact in live if fact not in deleted_set] + insertions
        live_set = (live_set - deleted_set) | chosen
        retired.extend(deletions)


def query_workload(program, count=20, bound_ratio=0.5, patterns=None, predicates=None, seed=0):
    """Generate goal atoms for the goal-directed query benchmark: *count*
    queries against the IDB predicates of *program*, each argument position
    independently bound to a constant (drawn from the program's parameters)
    with probability *bound_ratio*, or left as a fresh variable.

    *patterns* forces explicit binding patterns instead: an iterable of
    adornment strings (``"bf"``, ``"bb"``, ...) cycled across the generated
    goals — the way the benchmark pins down per-pattern rows.  *predicates*
    restricts the goals to the given predicate names (default: every IDB
    predicate).  Returns a list of :class:`~repro.logic.syntax.Atom` goals;
    feed them to ``DatalogEngine.query`` (any mode).
    """
    rng = _rng(seed)
    idb = sorted(
        (name, arity)
        for name, arity in program.idb_predicates()
        if predicates is None or name in predicates
    )
    if not idb:
        return []
    constants = sorted(program.parameters(), key=lambda p: p.name)
    if patterns is not None:
        patterns = list(patterns)
    goals = []
    for index in range(count):
        name, arity = idb[rng.randrange(len(idb))]
        if patterns:
            pattern = patterns[index % len(patterns)]
            if len(pattern) != arity:
                pattern = (pattern * arity)[:arity]
            bound = [flag == "b" for flag in pattern]
        else:
            bound = [rng.random() < bound_ratio for _ in range(arity)]
        args = tuple(
            rng.choice(constants) if is_bound else Variable(f"q{position}")
            for position, is_bound in enumerate(bound)
        )
        goals.append(Atom(name, args))
    return goals


def point_query(program, predicate, seed=None):
    """A single bound/free point query ``predicate(c, z)`` — the
    benchmark's same-generation "which z is in c's generation?" shape.

    The bound constant is drawn from the EDB values that can actually
    *reach the goal's first argument*: for every rule defining
    *predicate*, the positions of extensional body literals carrying the
    head's first-argument variable (falling back to position 0 of the
    predicate's own facts when no rule binds it through the EDB), so the
    goal always names a constant the rules can bind.  With the default
    ``seed=None`` the lexicographically largest such constant is picked
    (the deepest leaf of a :func:`same_generation_program` tree); an
    integer *seed* picks a reproducible random one instead.
    """
    edb = program.edb_predicates()
    slots = set()
    for rule in program.rules:
        if rule.head.predicate != predicate or not rule.head.args:
            continue
        binder = rule.head.args[0]
        for literal in rule.body:
            if not literal.positive:
                continue
            if (literal.atom.predicate, literal.atom.arity) not in edb:
                continue
            for position, arg in enumerate(literal.atom.args):
                if arg == binder:
                    slots.add((literal.atom.predicate, position))
    if not slots:
        slots = {(predicate, 0)}
    by_predicate = {}
    for name, position in slots:
        by_predicate.setdefault(name, set()).add(position)
    support = sorted(
        {
            fact.atom.args[position]
            for fact in program.facts
            for position in by_predicate.get(fact.atom.predicate, ())
            if position < len(fact.atom.args)
        },
        key=lambda p: p.name,
    )
    if not support:
        raise ValueError(
            f"no EDB facts support predicate {predicate!r} — nothing to bind"
        )
    constant = support[-1] if seed is None else _rng(seed).choice(support)
    return Atom(predicate, (constant, Variable("z")))


def join_chain_program(relations=3, rows=200, distinct_values=40, seed=0):
    """A join-heavy single-rule workload: *relations* binary relations
    ``r1 … rk`` of *rows* facts each, whose values are arranged in layers so
    that ``r_i`` connects layer ``i-1`` to layer ``i``, plus one rule joining
    the whole chain::

        joined(x0, xk) :- r1(x0, x1), r2(x1, x2), ..., rk(x_{k-1}, xk).

    With ``k`` positive body literals the nested-loop baseline is
    O(rows^k) while the indexed join probes each literal with its bound
    join key.
    """
    from repro.datalog.program import DatalogProgram, DatalogRule, DatalogLiteral

    rng = _rng(seed)
    program = DatalogProgram()
    layers = [
        [Parameter(f"l{layer}_v{i}") for i in range(distinct_values)]
        for layer in range(relations + 1)
    ]
    for relation in range(1, relations + 1):
        for _ in range(rows):
            program.add_fact(
                Atom(
                    f"r{relation}",
                    (rng.choice(layers[relation - 1]), rng.choice(layers[relation])),
                )
            )
    variables = [Variable(f"x{i}") for i in range(relations + 1)]
    body = tuple(
        DatalogLiteral(Atom(f"r{i}", (variables[i - 1], variables[i])))
        for i in range(1, relations + 1)
    )
    program.add_rule(DatalogRule(Atom("joined", (variables[0], variables[-1])), body))
    return program


#: Registry of the Datalog *program* generators by stable name — the
#: resolution table of the analyzer CLI's ``--workload`` flag
#: (``python -m repro.datalog.analyze --workload transitive-closure``) and
#: of anything else that wants to enumerate the lintable program builders.
#: Every builder takes only integer keyword parameters and returns a
#: :class:`~repro.datalog.program.DatalogProgram`; each is covered by the
#: lints-clean-under-strict property test.
WORKLOAD_PROGRAMS = {
    "chain": chain_datalog_program,
    "transitive-closure": transitive_closure_program,
    "independent-components": independent_components_program,
    "same-generation": same_generation_program,
    "join-chain": join_chain_program,
}
