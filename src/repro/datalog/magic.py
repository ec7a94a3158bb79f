"""Magic-set rewriting: goal-directed Datalog evaluation.

``DatalogEngine.least_model()`` computes *everything* a program entails.
For a point query — "which ``z`` satisfy ``sg(ann, z)``?" — that is the
wrong cost model: the answer only depends on the part of the least model
reachable from the goal's bound arguments.  Magic-set rewriting is the
classical bridge between bottom-up evaluation and that goal-directedness:
it specialises the program to the query's *binding pattern* so that the
ordinary (indexed, semi-naive) fixpoint computes only goal-relevant facts.

The rewrite has three ingredients, all standard:

* **Adornments.**  Every IDB predicate reachable from the goal is split
  into binding-pattern variants, written ``sg#bf`` — "first argument bound,
  second free".  An argument position is bound when, at the point the
  literal is evaluated, its term is a constant or a variable already bound
  by the sideways information passing below.

* **Sideways information passing (SIP) with supplementary predicates.**
  Each adorned rule body is processed in evaluation order (positive
  literals textually, negated literals as soon as their variables are
  bound, mirroring the engine's own scheduling discipline).  The chain of
  *supplementary* predicates ``sup#r#i`` materialises, per rule ``r`` and
  body prefix ``i``, exactly the variable bindings that later literals (or
  the head) still need — so each prefix is evaluated once, not once per
  downstream literal.

* **Magic predicates.**  ``magic#sg#bf(x)`` holds the set of bound-argument
  tuples the query is actually interested in.  The goal seeds it with one
  fact; every IDB body literal contributes a rule deriving the callee's
  magic tuples from the caller's supplementary prefix; every adorned rule
  guards its own derivations behind its magic predicate.  The fixpoint of
  the rewritten program therefore interleaves "which sub-goals are asked"
  with "what do they answer" — the bottom-up emulation of top-down
  evaluation with memoing.

**Negation.**  Negated EDB literals pass through untouched.  A negated IDB
literal is adorned all-bound (the SIP schedules it only once its variables
are ground) and gets magic rules like any positive occurrence, so every
tuple probed against ``not q#bb`` is guaranteed to have its magic fact —
the restricted ``q#bb`` is complete for exactly the tuples it is asked
about.  The rewrite itself, however, can destroy stratifiability: when a
predicate evaluated *after* a negated literal feeds (through the magic
rules) the negated predicate's sub-computation, the binding-passing cycle
crosses the negation.  :func:`rewrite` detects this (the rewritten program
fails the engine's exact stratification check) and raises
:class:`~repro.exceptions.MagicRewriteError`; ``query(mode="auto")`` then
falls back to full materialization — slower, never wrong.

The module is deliberately engine-agnostic: :func:`rewrite` maps a
``(program, goal)`` pair to a :class:`MagicProgram` (an ordinary
:class:`~repro.datalog.program.DatalogProgram` plus bookkeeping), and
:func:`answer` runs it through a fresh :class:`DatalogEngine` and matches
the goal against the adorned answer predicate.  Generated predicate names
use ``#`` as a separator (``sg#bf``, ``magic#sg#bf``, ``sup#3#1#sg#bf``),
which cannot collide with parser-produced predicates.

The rewrite factors into two halves so that repeated queries can share
work (this is what backs the engine's per-program magic cache):
:func:`plan` derives the *constant-independent* half — the adorned /
supplementary / magic rule set for one ``(predicate, adornment)`` pair,
already validated for stratifiability — as a reusable
:class:`MagicTemplate`, and :func:`instantiate` assembles a concrete
:class:`MagicProgram` from a template, the current EDB and one goal's
bound constants.  ``rewrite`` is exactly ``instantiate(plan(...), ...)``.
"""

from dataclasses import dataclass, field

from repro.datalog.program import DatalogLiteral, DatalogProgram, DatalogRule
from repro.exceptions import MagicRewriteError, StratificationError
from repro.logic.syntax import Atom
from repro.logic.terms import Variable


def adornment_of(goal, bound=()):
    """The binding pattern of *goal* as a string of ``b``/``f`` flags, one
    per argument position: ``b`` for constants and for variables in the
    *bound* set, ``f`` for unbound variables.  ``sg(ann, z)`` adorns to
    ``"bf"``."""
    return "".join(
        "b" if not isinstance(arg, Variable) or arg in bound else "f"
        for arg in goal.args
    )


def adorned_name(predicate, adornment):
    """The relation name of an adorned predicate variant: ``sg#bf``."""
    return f"{predicate}#{adornment}"


def magic_name(predicate, adornment):
    """The relation name of an adornment's magic predicate:
    ``magic#sg#bf``."""
    return f"magic#{predicate}#{adornment}"


@dataclass(frozen=True)
class MagicProgram:
    """The output of :func:`rewrite`: the rewritten program plus the
    bookkeeping needed to seed and read it.

    ``program`` is a fresh :class:`~repro.datalog.program.DatalogProgram`
    holding the original EDB facts, the magic seed fact, and the
    magic/supplementary/adorned rules.  ``answer_predicate`` is the adorned
    relation name whose facts are the goal-relevant slice of the original
    goal predicate; match the original goal against its facts to extract
    bindings.  ``adornments`` lists every ``(predicate, adornment)`` pair
    the rewrite reached — its length is the size of the goal-relevant
    subprogram.
    """

    program: DatalogProgram
    goal: Atom
    answer_predicate: str
    adornment: str
    seed: Atom
    adornments: tuple = field(default=())

    def answers(self, model):
        """Extract the goal's bindings from a least *model* of
        :attr:`program`: returns a list of ``{Variable: Parameter}`` dicts,
        one per matching fact of :attr:`answer_predicate`."""
        from repro.datalog.engine import _match_goal

        return _match_goal(self.goal, model.atoms_for(self.answer_predicate))[0]


def _sip_order(rule):
    """The sideways-information-passing order of a rule body: positive
    literals in textual order, each negated literal emitted as soon as the
    positives before it have bound all of its variables — the same
    discipline the engine's join scheduler uses, which guarantees every
    negated literal is adorned all-bound."""
    ordered = []
    bound = set()
    pending_negative = [l for l in rule.body if not l.positive]

    def emit_ready_negatives():
        for literal in list(pending_negative):
            if literal.variables() <= bound:
                ordered.append(literal)
                pending_negative.remove(literal)

    emit_ready_negatives()
    for literal in rule.body:
        if not literal.positive:
            continue
        ordered.append(literal)
        bound |= literal.variables()
        emit_ready_negatives()
    if pending_negative:
        # DatalogRule safety already rejects this; defend anyway.
        raise MagicRewriteError(
            f"rule {rule} has a negated literal that never becomes ground"
        )
    return ordered


def _bound_terms(atom, bound):
    """The argument terms of *atom* at its bound positions (constants and
    already-bound variables), in position order."""
    return tuple(
        arg
        for arg in atom.args
        if not isinstance(arg, Variable) or arg in bound
    )


def _sup_terms(available, needed):
    """The head terms of a supplementary predicate: the variables bound so
    far that some later literal or the head still needs, in deterministic
    (name) order."""
    return tuple(sorted(available & needed, key=lambda v: v.name))


@dataclass(frozen=True)
class MagicTemplate:
    """The constant-independent half of a magic-set rewrite: the adorned /
    supplementary / magic rule set for one ``(predicate, arity,
    adornment)`` triple, already validated for stratifiability.

    A template depends only on the program's *rules* and on which
    predicates carry EDB facts — not on the facts themselves or on the
    goal's bound constants — so it can be cached and re-instantiated
    (:func:`instantiate`) for every goal sharing the binding pattern.
    ``adornments`` lists every ``(predicate, adornment)`` pair the rewrite
    reached; its length is the size of the goal-relevant subprogram.
    """

    predicate: str
    arity: int
    adornment: str
    rules: tuple
    answer_predicate: str
    magic_predicate: str
    adornments: tuple = field(default=())


def plan(program, goal):
    """Derive the :class:`MagicTemplate` for *goal*'s binding pattern.

    Raises :class:`~repro.exceptions.MagicRewriteError` when the goal
    predicate is extensional (nothing to specialise — probe the facts
    directly) or when the rewritten rule set is no longer stratifiable
    (negation entangled with binding passing; fall back to full
    evaluation).  Validation is eager and needs only the rules —
    stratification never looks at facts — so a cached template can be
    instantiated against any EDB state of the program.
    """
    idb = program.idb_predicates()
    goal_key = (goal.predicate, len(goal.args))
    if goal_key not in idb:
        raise MagicRewriteError(
            f"goal predicate {goal.predicate}/{len(goal.args)} is extensional — "
            "answer it with a direct index probe, not a rewrite"
        )

    adornment = adornment_of(goal)
    collected = DatalogProgram()

    rules_for = {}
    facts_for = set()
    for index, rule in enumerate(program.rules):
        rules_for.setdefault((rule.head.predicate, rule.head.arity), []).append(
            (index, rule)
        )
    for fact in program.facts:
        facts_for.add((fact.atom.predicate, len(fact.atom.args)))

    seen = set()
    worklist = [(goal.predicate, len(goal.args), adornment)]
    while worklist:
        predicate, arity, pattern = worklist.pop()
        if (predicate, arity, pattern) in seen:
            continue
        seen.add((predicate, arity, pattern))
        answer = adorned_name(predicate, pattern)
        magic = magic_name(predicate, pattern)

        if (predicate, arity) in facts_for:
            # The predicate is mixed (facts *and* rules): import its EDB
            # facts into the adorned relation, guarded by the magic set.
            variables = tuple(Variable(f"_x{i}") for i in range(arity))
            bound_vars = tuple(
                v for v, flag in zip(variables, pattern) if flag == "b"
            )
            collected.add_rule(
                DatalogRule(
                    Atom(answer, variables),
                    (
                        DatalogLiteral(Atom(magic, bound_vars)),
                        DatalogLiteral(Atom(predicate, variables)),
                    ),
                )
            )

        for rule_index, rule in rules_for.get((predicate, arity), ()):
            _rewrite_rule(
                collected, rule, rule_index, pattern, idb, worklist
            )

    try:
        # Validate stratifiability with the engine's exact check (it only
        # reads the rules, so the facts need not be assembled yet); import
        # here to keep module loading cycle-free.
        from repro.datalog.engine import DatalogEngine

        # check="off": the rewrite is generated code (benign duplicates by
        # construction) and only stratifiability is in question here — the
        # constructor's exact check raises StratificationError, whose
        # message now spells out the offending negative cycle.
        DatalogEngine(collected, check="off")
    except StratificationError as error:
        raise MagicRewriteError(
            f"magic-set rewrite of goal {goal} is not stratifiable "
            f"(binding passing crosses a negation): {error}"
        ) from error

    return MagicTemplate(
        predicate=goal.predicate,
        arity=len(goal.args),
        adornment=adornment,
        rules=tuple(collected.rules),
        answer_predicate=adorned_name(goal.predicate, adornment),
        magic_predicate=magic_name(goal.predicate, adornment),
        adornments=tuple(sorted((p, a) for p, _, a in seen)),
    )


def instantiate(template, program, goal):
    """Assemble a concrete :class:`MagicProgram` from a cached *template*,
    the current EDB facts of *program* and one *goal*'s bound constants
    (which become the magic seed fact).  The goal must match the template's
    predicate, arity and binding pattern."""
    adornment = adornment_of(goal)
    if (goal.predicate, len(goal.args), adornment) != (
        template.predicate, template.arity, template.adornment
    ):
        raise MagicRewriteError(
            f"goal {goal} (adornment {adornment!r}) does not match template "
            f"{template.predicate}/{template.arity}#{template.adornment}"
        )
    rewritten = DatalogProgram()
    for fact in program.facts:
        rewritten.add_fact(fact)
    seed = Atom(
        template.magic_predicate,
        tuple(arg for arg in goal.args if not isinstance(arg, Variable)),
    )
    rewritten.add_fact(seed)
    for rule in template.rules:
        rewritten.add_rule(rule)
    return MagicProgram(
        program=rewritten,
        goal=goal,
        answer_predicate=template.answer_predicate,
        adornment=adornment,
        seed=seed,
        adornments=template.adornments,
    )


def rewrite(program, goal):
    """Rewrite *program* for goal-directed evaluation of *goal*.

    Returns a :class:`MagicProgram`; raises
    :class:`~repro.exceptions.MagicRewriteError` when the goal predicate is
    extensional (nothing to specialise — probe the facts directly) or when
    the rewritten program is no longer stratifiable (negation entangled
    with binding passing; fall back to full evaluation).

    The rewrite is validated eagerly: the returned program has already
    passed the engine's exact stratification check, so feeding it to a
    :class:`~repro.datalog.engine.DatalogEngine` cannot fail later.
    (Equivalent to ``instantiate(plan(program, goal), program, goal)`` —
    callers answering many goals should cache the :func:`plan` half, as
    ``DatalogEngine.query`` does.)
    """
    return instantiate(plan(program, goal), program, goal)


def _rewrite_rule(rewritten, rule, rule_index, pattern, idb, worklist):
    """Emit the supplementary chain, magic rules and guarded adorned rule
    for one original rule under one head adornment, appending newly reached
    ``(predicate, arity, adornment)`` triples to *worklist*."""
    head = rule.head
    bound = {
        arg
        for arg, flag in zip(head.args, pattern)
        if flag == "b" and isinstance(arg, Variable)
    }
    ordered = _sip_order(rule)
    head_variables = {a for a in head.args if isinstance(a, Variable)}

    # needed_after[i]: variables some literal at SIP position >= i, or the
    # head, still needs — the keep-set of supplementary predicate i.
    needed_after = [set(head_variables) for _ in range(len(ordered) + 1)]
    for i in range(len(ordered) - 1, -1, -1):
        needed_after[i] = needed_after[i + 1] | ordered[i].variables()

    sup_of = lambda i: f"sup#{rule_index}#{i}#{adorned_name(head.predicate, pattern)}"
    magic_head = Atom(
        magic_name(head.predicate, pattern),
        tuple(arg for arg, flag in zip(head.args, pattern) if flag == "b"),
    )
    sup_terms = _sup_terms(bound, needed_after[0])
    sup_atom = Atom(sup_of(0), sup_terms)
    rewritten.add_rule(DatalogRule(sup_atom, (DatalogLiteral(magic_head),)))

    for i, literal in enumerate(ordered):
        atom = literal.atom
        key = (atom.predicate, len(atom.args))
        if key in idb:
            literal_pattern = adornment_of(atom, bound)
            worklist.append((atom.predicate, len(atom.args), literal_pattern))
            # The caller's prefix asks the callee's magic set.
            rewritten.add_rule(
                DatalogRule(
                    Atom(
                        magic_name(atom.predicate, literal_pattern),
                        _bound_terms(atom, bound),
                    ),
                    (DatalogLiteral(sup_atom),),
                )
            )
            body_atom = Atom(adorned_name(atom.predicate, literal_pattern), atom.args)
        else:
            body_atom = atom
        if literal.positive:
            bound |= literal.variables()
        next_terms = _sup_terms(bound, needed_after[i + 1])
        next_atom = Atom(sup_of(i + 1), next_terms)
        rewritten.add_rule(
            DatalogRule(
                next_atom,
                (
                    DatalogLiteral(sup_atom),
                    DatalogLiteral(body_atom, literal.positive),
                ),
            )
        )
        sup_atom = next_atom

    rewritten.add_rule(
        DatalogRule(
            Atom(adorned_name(head.predicate, pattern), head.args),
            (DatalogLiteral(sup_atom),),
        )
    )


def answer(program, goal, strategy="indexed", planner="histogram"):
    """Answer *goal* against *program* by magic-set rewriting: rewrite,
    evaluate the rewritten program with a fresh
    :class:`~repro.datalog.engine.DatalogEngine` of the given *strategy*
    and *planner*, and extract the goal's bindings.

    Returns ``(bindings, magic_program, engine)`` — the engine is the inner
    one that evaluated the rewrite; its ``statistics`` describe the
    goal-directed fixpoint (this is where ``QueryResult``'s counters come
    from).  Raises :class:`~repro.exceptions.MagicRewriteError` exactly when
    :func:`rewrite` does.
    """
    from repro.datalog.engine import DatalogEngine

    magic_program = rewrite(program, goal)
    engine = DatalogEngine(
        magic_program.program, strategy=strategy, planner=planner, check="off"
    )
    model = engine.least_model()
    return magic_program.answers(model), magic_program, engine
