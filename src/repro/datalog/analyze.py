"""Static program analysis for Datalog: diagnostics plus optimization.

The engine family (indexed / incremental / magic / columnar)
evaluates whatever program it is handed; this module is the pass that looks
at the *program as an object* first — Reiter's KB-as-first-class-artifact
view applied to the Datalog substrate.  :func:`analyze_program` runs a
battery of static checks over a :class:`~repro.datalog.program.DatalogProgram`
and returns a :class:`ProgramAnalysis` holding structured
:class:`Diagnostic` objects plus the byproduct analyses the engine itself
consumes:

* **safety / range restriction** (``DL001``, ``DL002``) — per-variable: the
  unbound head variable, or the unbound variable together with the negated
  literal that needs it;
* **arity conflicts** (``DL003``) — one predicate name used at two arities
  across rules and facts;
* **constant-kind conflicts** (``DL004``) — a column whose constants mix
  lexical kinds (``int`` vs ``symbol``, see
  :func:`~repro.datalog.interner.constant_kind`);
* **non-stratifiable negation** (``DL005``) — reported as the actual
  negative cycle, a predicate path like ``p/1 -not-> q/1 -> p/1``, not a
  bare "unstratifiable";
* **unbound variables under negation** (``DL002``);
* **duplicate rules** (``DL006``) and **subsumed rules** (``DL007``,
  classical θ-subsumption, capped at :data:`SUBSUMPTION_LIMIT` rules);
* **dead rules and predicates** (``DL008``, ``DL009``) — rules that can
  never fire because some positive body predicate is provably empty, and
  (when an output set is declared via
  :meth:`~repro.datalog.program.DatalogProgram.declare_output` or passed
  explicitly) rules and predicates unreachable from the outputs;
* **unknown outputs** (``DL010``) — a declared output predicate the program
  never defines.

Byproducts shared with the engine: the predicate dependency condensation
(:func:`condensation_of`, also the substrate of
``DatalogEngine._condensation``),
per-predicate :class:`PredicateSignature` objects (inferred arity plus
per-column constant kinds, pre-validating the columnar/interner layout),
and the never-fire rule set that
:meth:`ProgramAnalysis.pruned_program` strips — the dead-rule pruner the
engine applies before stratification and magic rewriting.  Pruning is
*semantics-preserving*: only rules whose positive body mentions a provably
empty predicate are removed, so the least model is unchanged by
construction (output-unreachability is diagnosed but never pruned).

The module is also a linter: ``python -m repro.datalog.analyze`` checks a
Datalog source file (classic syntax — capitalized variables, ``not`` for
negation, ``%`` comments, ``.output p/2`` directives) or a generated
workload by name, and prints diagnostics with locations.
"""

import re
from collections import defaultdict
from dataclasses import dataclass, field

from repro.datalog.interner import constant_kind
from repro.datalog.program import (
    DatalogFact,
    DatalogLiteral,
    DatalogProgram,
    DatalogRule,
)
from repro.exceptions import ParseError, ProgramAnalysisError
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable

#: Severities, most severe first.  ``check="strict"`` rejects a program on
#: any diagnostic that is not ``"info"``; ``check="warn"`` surfaces only
#: ``"error"`` findings through :mod:`warnings`.
SEVERITIES = ("error", "warning", "info")

UNSAFE_HEAD_VARIABLE = "DL001"
UNBOUND_UNDER_NEGATION = "DL002"
ARITY_CONFLICT = "DL003"
KIND_CONFLICT = "DL004"
NEGATIVE_CYCLE = "DL005"
DUPLICATE_RULE = "DL006"
SUBSUMED_RULE = "DL007"
DEAD_RULE = "DL008"
DEAD_PREDICATE = "DL009"
UNKNOWN_OUTPUT = "DL010"

#: code -> (severity, one-line description); the single source of the
#: diagnostic table in ``docs/analysis.md`` and of ``--codes``.
CODES = {
    UNSAFE_HEAD_VARIABLE: (
        "error", "head variable not bound by any positive body literal"),
    UNBOUND_UNDER_NEGATION: (
        "error", "variable under negation not bound by any positive body literal"),
    ARITY_CONFLICT: (
        "error", "one predicate name used with conflicting arities"),
    KIND_CONFLICT: (
        "warning", "a column mixes int-like and symbolic constants"),
    NEGATIVE_CYCLE: (
        "error", "negation inside a recursive component (not stratifiable)"),
    DUPLICATE_RULE: (
        "warning", "rule duplicates an earlier rule up to variable renaming"),
    SUBSUMED_RULE: (
        "warning", "rule is subsumed by a more general rule"),
    DEAD_RULE: (
        "warning", "rule can never fire, or feeds no declared output"),
    DEAD_PREDICATE: (
        "warning", "predicate can never hold, or feeds no declared output"),
    UNKNOWN_OUTPUT: (
        "warning", "declared output predicate is never defined"),
}

#: θ-subsumption is pairwise (O(n²) match attempts); programs beyond this
#: many rules skip the DL007 check (all other checks still run).
SUBSUMPTION_LIMIT = 400


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer.

    ``code`` is a stable identifier from :data:`CODES`; ``severity`` is one
    of :data:`SEVERITIES`.  Location is carried as the rendered ``rule``
    text plus its ``rule_index`` in ``program.rules`` (``None`` for
    program-level findings), the ``predicate`` concerned (``"name/arity"``),
    the offending ``variable`` name when the finding is per-variable, and
    the source ``line`` when the program came from a parsed file.
    ``suggestion`` is the human fix-it hint.
    """

    code: str
    severity: str
    message: str
    rule: str = None
    rule_index: int = None
    predicate: str = None
    variable: str = None
    line: int = None
    suggestion: str = None

    def location(self):
        """A short human-readable location: the source line when known,
        otherwise the rule index, otherwise the predicate."""
        if self.line is not None:
            return f"line {self.line}"
        if self.rule_index is not None:
            return f"rule #{self.rule_index}"
        if self.predicate is not None:
            return self.predicate
        return "program"

    def __str__(self):
        rendered = f"{self.location()}: {self.severity}[{self.code}] {self.message}"
        if self.suggestion:
            rendered += f" (hint: {self.suggestion})"
        return rendered


@dataclass(frozen=True)
class PredicateSignature:
    """The inferred signature of one ``name/arity`` predicate: per-column
    sets of constant kinds (``"int"`` / ``"symbol"``, from
    :func:`~repro.datalog.interner.constant_kind`; a column no constant ever
    touches has an empty set) plus how many EDB facts and rule heads define
    it.  This is what pre-validates the columnar/interner layout: every
    fact row must have exactly ``arity`` ids and each column is expected to
    stay kind-homogeneous."""

    name: str
    arity: int
    column_kinds: tuple
    facts: int = 0
    rule_heads: int = 0

    @property
    def key(self):
        """The ``(name, arity)`` relation key the signature describes."""
        return (self.name, self.arity)

    def __str__(self):
        columns = ", ".join(
            "|".join(sorted(kinds)) if kinds else "?" for kinds in self.column_kinds
        )
        return f"{self.name}({columns})"


def _predicate_str(key):
    return f"{key[0]}/{key[1]}"


def rule_text(rule):
    """The rendered rule — the one textual format shared by the static
    diagnostics and the runtime :class:`~repro.exceptions.UnsafeRuleError`."""
    return str(rule)


def unchecked_rule(head, body=()):
    """Construct a :class:`~repro.datalog.program.DatalogRule` *without* the
    constructor's safety validation.

    The normal constructor raises
    :class:`~repro.exceptions.UnsafeRuleError` on unsafe rules, which is
    right for programs headed into an engine but wrong for a linter that
    must *hold* the broken rule to report it.  The parser and the seeded
    defect tests use this to materialize rules the analyzer then diagnoses.
    """
    rule = object.__new__(DatalogRule)
    object.__setattr__(rule, "head", head)
    object.__setattr__(rule, "body", tuple(body))
    return rule


# -- safety (range restriction) ---------------------------------------------
def rule_safety(rule, rule_index=None, line=None):
    """The safety diagnostics of one rule: a tuple of :class:`Diagnostic`
    objects, one per unbound variable — ``DL001`` for head variables not
    bound by any positive body literal, ``DL002`` for variables of negated
    literals not bound by any positive literal (naming the negated literal
    that needs them).  Empty exactly when the rule is range-restricted.

    This is the single safety checker:
    :meth:`DatalogRule._check_safety
    <repro.datalog.program.DatalogRule>` raises
    :class:`~repro.exceptions.UnsafeRuleError` from these diagnostics, so
    runtime rejection and static linting share one message format.
    """
    text = rule_text(rule)
    positive_variables = set()
    for literal in rule.body:
        if literal.positive:
            positive_variables |= literal.variables()
    diagnostics = []
    head_variables = {a for a in rule.head.args if isinstance(a, Variable)}
    for variable in sorted(head_variables - positive_variables, key=lambda v: v.name):
        diagnostics.append(Diagnostic(
            code=UNSAFE_HEAD_VARIABLE,
            severity=CODES[UNSAFE_HEAD_VARIABLE][0],
            message=(
                f"unsafe rule {text}: head variable '{variable.name}' does not "
                "occur in any positive body literal"
            ),
            rule=text,
            rule_index=rule_index,
            predicate=_predicate_str((rule.head.predicate, len(rule.head.args))),
            variable=variable.name,
            line=line,
            suggestion=(
                f"add a positive body literal that binds '{variable.name}', "
                "or drop it from the head"
            ),
        ))
    for literal in rule.body:
        if literal.positive:
            continue
        loose = literal.variables() - positive_variables
        for variable in sorted(loose, key=lambda v: v.name):
            diagnostics.append(Diagnostic(
                code=UNBOUND_UNDER_NEGATION,
                severity=CODES[UNBOUND_UNDER_NEGATION][0],
                message=(
                    f"unsafe rule {text}: variable '{variable.name}' of negated "
                    f"literal {literal} is not bound by any positive body literal"
                ),
                rule=text,
                rule_index=rule_index,
                predicate=_predicate_str((rule.head.predicate, len(rule.head.args))),
                variable=variable.name,
                line=line,
                suggestion=(
                    f"bind '{variable.name}' with a positive literal before "
                    f"negating {literal.atom.predicate}"
                ),
            ))
    return tuple(diagnostics)


# -- dependency graph / condensation ----------------------------------------
def dependency_graph(rules):
    """The predicate dependency graph of a rule set, restricted to the
    intensional predicates: ``(idb, positive_edges, negative_edges)`` where
    each edge map sends a head ``(name, arity)`` to the set of IDB body
    predicates it depends on with that sign."""
    idb = {(rule.head.predicate, rule.head.arity) for rule in rules}
    positive_edges = defaultdict(set)
    negative_edges = defaultdict(set)
    for rule in rules:
        head_key = (rule.head.predicate, rule.head.arity)
        for literal in rule.body:
            body_key = (literal.atom.predicate, literal.atom.arity)
            if body_key not in idb:
                continue
            if literal.positive:
                positive_edges[head_key].add(body_key)
            else:
                negative_edges[head_key].add(body_key)
    return idb, positive_edges, negative_edges


def strongly_connected_components(nodes, successors):
    """Tarjan's strongly connected components, iteratively (no recursion
    limit), emitted **dependencies-first**: every successor of a component
    member lies in the same or an earlier component.  Returns ``(components,
    component_of)`` — the ordered list of frozen member sets and the node ->
    component-position map.

    This is the one SCC routine of the Datalog layer: the engine's
    stratifier and the incremental maintainer both condense with it.
    """
    preorder = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    component_of = {}
    counter = 0
    for root in nodes:
        if root in preorder:
            continue
        work = [(root, iter(successors.get(root, ())))]
        while work:
            node, iterator = work[-1]
            if node not in preorder:
                preorder[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for successor in iterator:
                if successor not in preorder:
                    work.append((successor, iter(successors.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], preorder[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == preorder[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.remove(member)
                    component.add(member)
                    component_of[member] = len(components)
                    if member == node:
                        break
                components.append(component)
    return components, component_of


def condensation_of(rules):
    """The dependency condensation of a rule set: ``(components,
    component_of, positive_edges, negative_edges)``, components emitted
    dependencies-first.  Unlike ``DatalogEngine._condensation`` (which is
    built on this and *raises* on non-stratifiable programs) this never
    raises — the analyzer reports negative in-component edges as ``DL005``
    diagnostics instead."""
    idb, positive_edges, negative_edges = dependency_graph(rules)
    if not idb:
        return [], {}, positive_edges, negative_edges
    successors = {p: positive_edges[p] | negative_edges[p] for p in idb}
    components, component_of = strongly_connected_components(idb, successors)
    return components, component_of, positive_edges, negative_edges


def negative_cycle(head, dependency, component, positive_edges, negative_edges):
    """The actual cycle witnessing a negative edge inside a recursive
    component: the edge ``head -not-> dependency`` followed by a shortest
    path from *dependency* back to *head* inside *component*.  Returns a
    list of ``(source, sign, target)`` triples where ``sign`` is ``"not"``
    or ``""``."""
    parents = {dependency: None}
    if head != dependency:
        frontier = [dependency]
        while frontier and head not in parents:
            next_frontier = []
            for node in frontier:
                for sign, edges in (("", positive_edges), ("not", negative_edges)):
                    for successor in sorted(edges.get(node, ())):
                        if successor in component and successor not in parents:
                            parents[successor] = (node, sign)
                            next_frontier.append(successor)
            frontier = next_frontier
    path = []
    node = head
    while parents.get(node) is not None:
        previous, sign = parents[node]
        path.append((previous, sign, node))
        node = previous
    return [(head, "not", dependency)] + list(reversed(path))


def format_cycle(edges):
    """Render a :func:`negative_cycle` as a predicate path, e.g.
    ``p/1 -not-> q/1 -> p/1``."""
    parts = [_predicate_str(edges[0][0])]
    for _, sign, target in edges:
        parts.append("-not->" if sign else "->")
        parts.append(_predicate_str(target))
    return " ".join(parts)


# -- θ-subsumption -----------------------------------------------------------
def _match_atom(pattern, target, binding):
    """Extend *binding* (variables of *pattern* -> terms of *target*) so
    that the substituted pattern equals *target*; ``None`` when impossible."""
    if pattern.predicate != target.predicate or len(pattern.args) != len(target.args):
        return None
    binding = dict(binding)
    for source, destination in zip(pattern.args, target.args):
        if isinstance(source, Variable):
            seen = binding.get(source)
            if seen is None:
                binding[source] = destination
            elif seen != destination:
                return None
        elif source != destination:
            return None
    return binding


def subsumes(general, specific):
    """Classical θ-subsumption: True when a substitution θ over *general*'s
    variables makes ``θ(general.head) == specific.head`` and maps every
    body literal of *general* onto some body literal of *specific* (sign-
    preserving).  Whenever it holds, every fact the specific rule derives,
    the general one derives too — the specific rule is redundant."""
    binding = _match_atom(general.head, specific.head, {})
    if binding is None:
        return False
    body = general.body

    def backtrack(position, binding):
        if position == len(body):
            return True
        literal = body[position]
        for candidate in specific.body:
            if candidate.positive != literal.positive:
                continue
            extended = _match_atom(literal.atom, candidate.atom, binding)
            if extended is not None and backtrack(position + 1, extended):
                return True
        return False

    return backtrack(0, binding)


def _canonical_rule(rule):
    """The rule with variables renamed by first occurrence — duplicate
    detection up to alphabetic variance."""
    renaming = {}

    def term_key(term):
        if isinstance(term, Variable):
            if term not in renaming:
                renaming[term] = f"_v{len(renaming)}"
            return ("v", renaming[term])
        return ("c", term.name)

    def atom_key(atom):
        return (atom.predicate, tuple(term_key(a) for a in atom.args))

    return (
        atom_key(rule.head),
        tuple((literal.positive, atom_key(literal.atom)) for literal in rule.body),
    )


# -- the analysis ------------------------------------------------------------
@dataclass
class ProgramAnalysis:
    """The result of :func:`analyze_program`: the diagnostics plus the
    byproduct analyses the engine consumes (condensation, signatures, the
    never-fire rule set behind :meth:`pruned_program`)."""

    program: object
    diagnostics: tuple
    signatures: dict
    components: list
    component_of: dict
    positive_edges: dict
    negative_edges: dict
    outputs: frozenset
    never_fire: frozenset
    dead_rules: frozenset
    dead_predicates: frozenset
    _pruned: object = field(default=None, repr=False)

    def errors(self):
        """The error-severity diagnostics."""
        return tuple(d for d in self.diagnostics if d.severity == "error")

    def warnings(self):
        """The warning-severity diagnostics."""
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    def by_code(self, code):
        """The diagnostics with the given code."""
        return tuple(d for d in self.diagnostics if d.code == code)

    @property
    def ok(self):
        """True when the analysis found no errors (warnings allowed)."""
        return not self.errors()

    def strict_violations(self):
        """The diagnostics that reject the program under ``check="strict"``
        — everything that is not informational."""
        return tuple(d for d in self.diagnostics if d.severity != "info")

    def signature_of(self, name, arity):
        """The :class:`PredicateSignature` of ``name/arity`` (``None`` when
        the program never mentions it)."""
        return self.signatures.get((name, arity))

    def pruned_program(self):
        """The program with its never-fire rules removed (the original
        object, unchanged, when there are none).

        Only *never-fire* rules — rules with a positive body literal whose
        predicate is provably empty (no facts, no live rules) — are pruned,
        so the least model is identical by construction; output-
        unreachability is diagnosed (``DL008``/``DL009``) but never pruned.
        The pruned program shares the original's fact list, so later EDB
        growth stays visible through it.
        """
        if not self.never_fire:
            return self.program
        if self._pruned is None:
            pruned = DatalogProgram.__new__(DatalogProgram)
            pruned.facts = self.program.facts
            pruned.rules = [
                rule for index, rule in enumerate(self.program.rules)
                if index not in self.never_fire
            ]
            pruned.outputs = set(self.outputs)
            self._pruned = pruned
        return self._pruned

    def validate_columns(self, interner=None):
        """Pre-validate the columnar layout against the inferred signatures:
        every fact row must have exactly its predicate's arity (columns are
        fixed-width id arrays) — raises
        :class:`~repro.exceptions.ProgramAnalysisError` citing the ``DL003``
        diagnostics when one predicate name would need two widths.  Called
        by the engine's columnar path before facts are interned, so a
        conflicted program is rejected with the analyzer's explanation
        instead of corrupting or silently forking the relation."""
        conflicts = self.by_code(ARITY_CONFLICT)
        if conflicts:
            raise ProgramAnalysisError(
                "columnar storage needs one arity per predicate: "
                + "; ".join(d.message for d in conflicts),
                diagnostics=conflicts,
            )
        return self.signatures

    def report(self):
        """A human-readable multi-line report of every diagnostic (empty
        string when the program is clean)."""
        return "\n".join(str(d) for d in self.diagnostics)


def analyze_program(program, outputs=None, rule_lines=None):
    """Statically analyze *program* and return a :class:`ProgramAnalysis`.

    *outputs* optionally declares the output predicates (an iterable of
    ``(name, arity)`` pairs or ``"name/arity"`` strings) on top of any
    recorded on the program itself
    (:meth:`~repro.datalog.program.DatalogProgram.declare_output`); when an
    output set is declared, rules and predicates that cannot reach it are
    reported as dead (with the default — no declaration — the output set is
    inferred as every consumerless component, under which nothing is
    unreachable).  *rule_lines* optionally maps rule indexes to source
    lines (the CLI parser provides it) for line-precise diagnostics.
    """
    rules = list(program.rules)
    facts = list(program.facts)
    rule_lines = rule_lines or {}
    diagnostics = []

    # 1. Safety (range restriction), per rule, per variable.
    unsafe_indexes = set()
    for index, rule in enumerate(rules):
        found = rule_safety(rule, rule_index=index, line=rule_lines.get(index))
        if found:
            unsafe_indexes.add(index)
            diagnostics.extend(found)

    # 2. Arity conflicts: one predicate name, two arities.
    occurrences = defaultdict(dict)  # name -> arity -> first occurrence text
    for fact in facts:
        occurrences[fact.atom.predicate].setdefault(
            len(fact.atom.args), f"fact {fact}"
        )
    for index, rule in enumerate(rules):
        occurrences[rule.head.predicate].setdefault(
            rule.head.arity, f"rule #{index} head {rule_text(rule)}"
        )
        for literal in rule.body:
            occurrences[literal.atom.predicate].setdefault(
                literal.atom.arity, f"rule #{index} body {rule_text(rule)}"
            )
    for name in sorted(occurrences):
        arities = occurrences[name]
        if len(arities) > 1:
            witnesses = "; ".join(
                f"arity {arity} in {where}" for arity, where in sorted(arities.items())
            )
            diagnostics.append(Diagnostic(
                code=ARITY_CONFLICT,
                severity=CODES[ARITY_CONFLICT][0],
                message=f"predicate '{name}' is used with conflicting arities: {witnesses}",
                predicate=f"{name}/{'|'.join(str(a) for a in sorted(arities))}",
                suggestion="rename one of the uses — relations are keyed by name and arity",
            ))

    # 3. Signatures + constant-kind conflicts, per (name, arity) column.
    column_kinds = defaultdict(lambda: None)
    fact_counts = defaultdict(int)
    head_counts = defaultdict(int)
    kind_witness = {}

    def observe(key, position, parameter, where):
        kinds = column_kinds[key]
        if kinds is None:
            kinds = column_kinds[key] = [set() for _ in range(key[1])]
        kind = constant_kind(parameter)
        kinds[position].add(kind)
        kind_witness.setdefault((key, position, kind), where)

    for fact in facts:
        key = (fact.atom.predicate, len(fact.atom.args))
        fact_counts[key] += 1
        for position, argument in enumerate(fact.atom.args):
            observe(key, position, argument, f"fact {fact}")
    for index, rule in enumerate(rules):
        head_counts[(rule.head.predicate, rule.head.arity)] += 1
        for atom in [rule.head] + [literal.atom for literal in rule.body]:
            key = (atom.predicate, len(atom.args))
            for position, argument in enumerate(atom.args):
                if isinstance(argument, Parameter):
                    observe(key, position, argument, f"rule #{index} {rule_text(rule)}")

    signatures = {}
    all_keys = set(column_kinds) | set(fact_counts) | set(head_counts)
    for key in all_keys:
        kinds = column_kinds.get(key) or [set() for _ in range(key[1])]
        signatures[key] = PredicateSignature(
            name=key[0], arity=key[1],
            column_kinds=tuple(frozenset(k) for k in kinds),
            facts=fact_counts.get(key, 0),
            rule_heads=head_counts.get(key, 0),
        )
    for key in sorted(all_keys):
        signature = signatures[key]
        for position, kinds in enumerate(signature.column_kinds):
            if len(kinds) > 1:
                witnesses = "; ".join(
                    f"{kind} in {kind_witness[(key, position, kind)]}"
                    for kind in sorted(kinds)
                )
                diagnostics.append(Diagnostic(
                    code=KIND_CONFLICT,
                    severity=CODES[KIND_CONFLICT][0],
                    message=(
                        f"column {position} of {_predicate_str(key)} mixes "
                        f"constant kinds: {witnesses}"
                    ),
                    predicate=_predicate_str(key),
                    suggestion="pick one encoding for the column's domain",
                ))

    # 4. Stratifiability: negative edges inside a condensation component,
    # reported as the actual cycle.
    components, component_of, positive_edges, negative_edges = condensation_of(rules)
    for head in sorted(negative_edges):
        for dependency in sorted(negative_edges[head]):
            if component_of[head] == component_of[dependency]:
                cycle = negative_cycle(
                    head, dependency,
                    components[component_of[head]],
                    positive_edges, negative_edges,
                )
                diagnostics.append(Diagnostic(
                    code=NEGATIVE_CYCLE,
                    severity=CODES[NEGATIVE_CYCLE][0],
                    message=(
                        f"negation inside a recursive component: {format_cycle(cycle)}"
                        " — the program is not stratifiable"
                    ),
                    predicate=_predicate_str(head),
                    suggestion="break the cycle or make the negated predicate non-recursive",
                ))

    # 5. Duplicate rules (up to variable renaming).
    canonical = {}
    duplicate_pairs = set()
    for index, rule in enumerate(rules):
        if index in unsafe_indexes:
            continue
        key = _canonical_rule(rule)
        first = canonical.setdefault(key, index)
        if first != index:
            duplicate_pairs.add((first, index))
            diagnostics.append(Diagnostic(
                code=DUPLICATE_RULE,
                severity=CODES[DUPLICATE_RULE][0],
                message=(
                    f"rule #{index} {rule_text(rule)} duplicates rule #{first} "
                    f"{rule_text(rules[first])} up to variable renaming"
                ),
                rule=rule_text(rule),
                rule_index=index,
                predicate=_predicate_str((rule.head.predicate, rule.head.arity)),
                line=rule_lines.get(index),
                suggestion="remove the duplicate",
            ))

    # 6. Subsumed rules (θ-subsumption; duplicates already reported above).
    if len(rules) <= SUBSUMPTION_LIMIT:
        by_head = defaultdict(list)
        for index, rule in enumerate(rules):
            if index not in unsafe_indexes:
                by_head[(rule.head.predicate, rule.head.arity)].append(index)
        for indexes in by_head.values():
            for slot, i in enumerate(indexes):
                for j in indexes[slot + 1:]:
                    if (i, j) in duplicate_pairs:
                        continue
                    forward = subsumes(rules[i], rules[j])
                    backward = subsumes(rules[j], rules[i])
                    if forward and backward:
                        # Mutually subsuming non-duplicates (e.g. a repeated
                        # literal): the longer body is the redundant one.
                        redundant, keeper = (
                            (i, j) if len(rules[i].body) > len(rules[j].body) else (j, i)
                        )
                    elif forward:
                        redundant, keeper = j, i
                    elif backward:
                        redundant, keeper = i, j
                    else:
                        continue
                    diagnostics.append(Diagnostic(
                        code=SUBSUMED_RULE,
                        severity=CODES[SUBSUMED_RULE][0],
                        message=(
                            f"rule #{redundant} {rule_text(rules[redundant])} is "
                            f"subsumed by rule #{keeper} {rule_text(rules[keeper])}: "
                            "every fact it derives, the more general rule derives too"
                        ),
                        rule=rule_text(rules[redundant]),
                        rule_index=redundant,
                        predicate=_predicate_str(
                            (rules[redundant].head.predicate, rules[redundant].head.arity)
                        ),
                        line=rule_lines.get(redundant),
                        suggestion="remove the subsumed rule",
                    ))

    # 7. Never-fire rules: least fixpoint of "possibly non-empty".
    nonempty = {key for key, count in fact_counts.items() if count}
    live = set()
    changed = True
    while changed:
        changed = False
        for index, rule in enumerate(rules):
            if index in live:
                continue
            if all(
                (literal.atom.predicate, literal.atom.arity) in nonempty
                for literal in rule.body if literal.positive
            ):
                live.add(index)
                nonempty.add((rule.head.predicate, rule.head.arity))
                changed = True
    never_fire = frozenset(range(len(rules))) - live
    for index in sorted(never_fire):
        rule = rules[index]
        empty = next(
            literal for literal in rule.body
            if literal.positive
            and (literal.atom.predicate, literal.atom.arity) not in nonempty
        )
        empty_key = (empty.atom.predicate, empty.atom.arity)
        diagnostics.append(Diagnostic(
            code=DEAD_RULE,
            severity=CODES[DEAD_RULE][0],
            message=(
                f"rule #{index} {rule_text(rule)} can never fire: "
                f"{_predicate_str(empty_key)} has no facts and no rule that "
                "could ever derive it"
            ),
            rule=rule_text(rule),
            rule_index=index,
            predicate=_predicate_str((rule.head.predicate, rule.head.arity)),
            line=rule_lines.get(index),
            suggestion=(
                f"remove the rule or provide {_predicate_str(empty_key)} facts"
            ),
        ))
    idb = {(rule.head.predicate, rule.head.arity) for rule in rules}
    dead_predicates = {
        key for key in idb
        if key not in nonempty and not fact_counts.get(key)
    }
    for key in sorted(dead_predicates):
        diagnostics.append(Diagnostic(
            code=DEAD_PREDICATE,
            severity=CODES[DEAD_PREDICATE][0],
            message=(
                f"predicate {_predicate_str(key)} can never hold: every rule "
                "defining it is dead and it has no facts"
            ),
            predicate=_predicate_str(key),
            suggestion="remove its rules or feed the predicates they read",
        ))

    # 8. Output reachability.  With no declaration the output set is
    # inferred as the consumerless components — under which every predicate
    # reaches an output, so nothing is flagged; a declaration narrows it.
    declared = set()
    for source in (getattr(program, "outputs", ()), outputs or ()):
        for item in source:
            if isinstance(item, str):
                name, _, arity = item.partition("/")
                declared.add((name, int(arity)))
            else:
                declared.add((item[0], int(item[1])))
    known = {key for key in all_keys}
    for key in sorted(declared - known):
        diagnostics.append(Diagnostic(
            code=UNKNOWN_OUTPUT,
            severity=CODES[UNKNOWN_OUTPUT][0],
            message=(
                f"declared output {_predicate_str(key)} is never defined by "
                "any rule or fact"
            ),
            predicate=_predicate_str(key),
            suggestion="drop the declaration or define the predicate",
        ))
    dead_rule_indexes = set(never_fire)
    if declared:
        body_reads = defaultdict(set)  # head key -> body keys (any sign)
        for rule in rules:
            head_key = (rule.head.predicate, rule.head.arity)
            for literal in rule.body:
                body_reads[head_key].add((literal.atom.predicate, literal.atom.arity))
        reachable = set(declared & known)
        frontier = list(reachable)
        while frontier:
            key = frontier.pop()
            for read in body_reads.get(key, ()):
                if read not in reachable:
                    reachable.add(read)
                    frontier.append(read)
        for index, rule in enumerate(rules):
            head_key = (rule.head.predicate, rule.head.arity)
            if head_key in reachable or index in dead_rule_indexes:
                continue
            dead_rule_indexes.add(index)
            diagnostics.append(Diagnostic(
                code=DEAD_RULE,
                severity=CODES[DEAD_RULE][0],
                message=(
                    f"rule #{index} {rule_text(rule)} does not contribute to "
                    "any declared output"
                ),
                rule=rule_text(rule),
                rule_index=index,
                predicate=_predicate_str(head_key),
                line=rule_lines.get(index),
                suggestion="remove the rule or declare its head an output",
            ))
        for key in sorted(idb - reachable - dead_predicates):
            diagnostics.append(Diagnostic(
                code=DEAD_PREDICATE,
                severity=CODES[DEAD_PREDICATE][0],
                message=(
                    f"predicate {_predicate_str(key)} is unreachable from the "
                    "declared output set"
                ),
                predicate=_predicate_str(key),
                suggestion="remove its rules or declare it an output",
            ))

    severity_rank = {severity: rank for rank, severity in enumerate(SEVERITIES)}
    diagnostics.sort(key=lambda d: (
        severity_rank[d.severity], d.code,
        d.rule_index if d.rule_index is not None else -1,
        d.predicate or "", d.variable or "",
    ))
    return ProgramAnalysis(
        program=program,
        diagnostics=tuple(diagnostics),
        signatures=signatures,
        components=components,
        component_of=component_of,
        positive_edges=positive_edges,
        negative_edges=negative_edges,
        outputs=frozenset(declared),
        never_fire=never_fire,
        dead_rules=frozenset(dead_rule_indexes),
        dead_predicates=frozenset(dead_predicates),
    )


# -- the textual format ------------------------------------------------------
_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^()]*)\))?\s*$")
_LITERAL_SPLIT_RE = re.compile(r",(?![^()]*\))")


def _parse_term(text, line):
    text = text.strip()
    if not re.fullmatch(r"[A-Za-z0-9_]+", text or ""):
        raise ParseError(f"line {line}: cannot read term {text!r}", text=text)
    if text[0].isupper() or text[0] == "_":
        return Variable(text)
    return Parameter(text)


def _parse_atom(text, line):
    match = _ATOM_RE.match(text)
    if match is None:
        raise ParseError(f"line {line}: cannot read atom {text!r}", text=text)
    name, arguments = match.group(1), match.group(2)
    if arguments is None or not arguments.strip():
        return Atom(name, ())
    return Atom(name, tuple(_parse_term(a, line) for a in arguments.split(",")))


def _parse_literal(text, line):
    text = text.strip()
    positive = True
    if text.startswith("not ") or text.startswith("not\t"):
        positive = False
        text = text[4:]
    elif text.startswith("!"):
        positive = False
        text = text[1:]
    return DatalogLiteral(_parse_atom(text, line), positive)


def parse_program(text):
    """Parse classic Datalog text into ``(program, rule_lines)``.

    Syntax: statements end with ``.``; ``head :- lit, lit, not lit.`` for
    rules and ``p(a, b).`` for facts; capitalized (or ``_``-leading)
    identifiers are variables, everything else (including integers) is a
    constant; ``%`` starts a comment; ``.output name/arity`` declares an
    output predicate (recorded on the program for the reachability checks).
    Unsafe rules and non-ground facts are *accepted* — they land in the
    program unvalidated (via :func:`unchecked_rule`) so that
    :func:`analyze_program` can report them instead of the parser throwing.
    ``rule_lines`` maps each rule's index to its source line.
    """
    program = DatalogProgram()
    rule_lines = {}
    buffer = ""
    start_line = None
    for line_number, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("%", 1)[0].strip()
        if not stripped:
            continue
        if not buffer and stripped.startswith(".output"):
            rest = stripped[len(".output"):].strip().rstrip(".")
            for token in rest.replace(",", " ").split():
                name, slash, arity = token.partition("/")
                if not slash or not arity.isdigit():
                    raise ParseError(
                        f"line {line_number}: .output wants name/arity, got {token!r}"
                    )
                program.declare_output(name, int(arity))
            continue
        if not buffer:
            start_line = line_number
        buffer = f"{buffer} {stripped}".strip()
        while "." in buffer:
            statement, buffer = buffer.split(".", 1)
            buffer = buffer.strip()
            statement = statement.strip()
            if not statement:
                continue
            if ":-" in statement:
                head_text, body_text = statement.split(":-", 1)
                head = _parse_atom(head_text, start_line)
                body = tuple(
                    _parse_literal(part, start_line)
                    for part in _LITERAL_SPLIT_RE.split(body_text)
                )
                rule_lines[len(program.rules)] = start_line
                program.rules.append(unchecked_rule(head, body))
            else:
                atom = _parse_atom(statement, start_line)
                if any(isinstance(a, Variable) for a in atom.args):
                    # A "fact" with variables: an unsafe bodiless rule —
                    # hold it for the analyzer rather than rejecting here.
                    rule_lines[len(program.rules)] = start_line
                    program.rules.append(unchecked_rule(atom, ()))
                else:
                    program.add_fact(DatalogFact(atom))
            start_line = line_number
    if buffer:
        raise ParseError(
            f"line {start_line}: statement is missing its final '.': {buffer!r}"
        )
    return program, rule_lines


# -- the CLI -----------------------------------------------------------------
def _codes_table():
    lines = ["code    severity  description"]
    for code, (severity, description) in sorted(CODES.items()):
        lines.append(f"{code}   {severity:<9} {description}")
    return "\n".join(lines)


def main(argv=None):
    """``python -m repro.datalog.analyze`` — lint a Datalog source file or a
    generated workload program and print diagnostics with locations.
    Exit status: 0 clean, 1 findings (errors; any finding under
    ``--strict``), 2 usage or parse errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.datalog.analyze",
        description=(
            "Static analysis for Datalog programs: safety, arity/kind "
            "conflicts, stratifiability (with the negative cycle spelled "
            "out), duplicate/subsumed rules and dead code.  See "
            "docs/analysis.md for the file syntax and the code table."
        ),
    )
    parser.add_argument(
        "path", nargs="?", default=None,
        help="a Datalog source file (classic syntax; '%%' comments, "
             "'.output p/2' directives)",
    )
    parser.add_argument(
        "--workload", metavar="NAME", default=None,
        help="lint a generated workload program by registry name "
             "(see repro.workloads.WORKLOAD_PROGRAMS)",
    )
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="an integer parameter for --workload (repeatable)",
    )
    parser.add_argument(
        "--output", action="append", default=[], metavar="PRED/ARITY",
        help="declare an output predicate for the reachability checks "
             "(repeatable; adds to any .output directives)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any finding, not just errors (the engine's "
             "check='strict' contract)",
    )
    parser.add_argument(
        "--codes", action="store_true",
        help="print the diagnostic code table and exit",
    )
    args = parser.parse_args(argv)
    if args.codes:
        print(_codes_table())
        return 0
    if (args.path is None) == (args.workload is None):
        parser.print_usage()
        print("analyze: give exactly one of a source file or --workload NAME")
        return 2

    rule_lines = {}
    if args.workload is not None:
        from repro.workloads import WORKLOAD_PROGRAMS

        builder = WORKLOAD_PROGRAMS.get(args.workload)
        if builder is None:
            known = ", ".join(sorted(WORKLOAD_PROGRAMS))
            print(f"analyze: unknown workload {args.workload!r} (known: {known})")
            return 2
        parameters = {}
        for item in args.param:
            key, equals, value = item.partition("=")
            if not equals or not value.lstrip("-").isdigit():
                print(f"analyze: --param wants KEY=INTEGER, got {item!r}")
                return 2
            parameters[key] = int(value)
        try:
            program = builder(**parameters)
        except TypeError as error:
            print(f"analyze: {error}")
            return 2
        source = f"workload:{args.workload}"
    else:
        import pathlib

        path = pathlib.Path(args.path)
        try:
            text = path.read_text()
        except OSError as error:
            print(f"analyze: cannot read {args.path}: {error}")
            return 2
        try:
            program, rule_lines = parse_program(text)
        except ParseError as error:
            print(f"{path.name}: parse error: {error}")
            return 2
        source = path.name

    analysis = analyze_program(
        program, outputs=args.output or None, rule_lines=rule_lines
    )
    for diagnostic in analysis.diagnostics:
        print(f"{source}:{diagnostic}")
    errors = len(analysis.errors())
    warnings_found = len(analysis.warnings())
    facts, rules = len(program.facts), len(program.rules)
    print(
        f"{source}: {facts} facts, {rules} rules — "
        f"{errors} error(s), {warnings_found} warning(s)"
    )
    if errors or (args.strict and analysis.strict_violations()):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    import sys

    sys.exit(main())
