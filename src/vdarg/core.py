"""Value-driven agent model and the ethical preference relation.

An agent carries a language (perception atoms, actions, duties), one total
valuation per named situation, an action matrix per situation assigning each
action an integer vector of duty satisfaction/violation degrees, and a
principle: an ordered collection of lower-bound vectors (disjuncts).

Action a is weakly preferred to action b under a disjunct when every
componentwise differential of their duty vectors meets that disjunct's lower
bound.  The relation is computed once per matrix, with the duty lists
checked once per call: per duty, one cumulative bitmask of action positions
per distinct value, so the actions one action prefers under a disjunct are
one mask AND per duty.  Strict preference holds when
some disjunct covers the forward differential and none covers the backward
one.  Solutions are the actions that can head a total ordering of the
matrix with no strict-preference inversion; with an acyclic strict relation
these are exactly the undominated actions.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .errors import (
    SchemaError,
    SelfComparisonError,
    UnknownNameError,
)

DEFAULT_VALUE_RANGE = (-2, 2)


@dataclass(frozen=True)
class VdaLanguage:
    """Perception atoms, action names, and duty names, each in declaration order."""

    atoms: tuple[str, ...]
    actions: tuple[str, ...]
    duties: tuple[str, ...]

    def __post_init__(self):
        for label, names in (("atoms", self.atoms), ("actions", self.actions), ("duties", self.duties)):
            if len(set(names)) != len(names):
                raise SchemaError(f"duplicate names in {label}: {names}")
        overlap = set(self.actions) & set(self.duties)
        if overlap:
            raise SchemaError(f"actions and duties must be disjoint; shared: {sorted(overlap)}")
        for atom in self.atoms:
            # A literal is written 'atom' or '~atom'; an atom whose name reads
            # as another literal could not be told apart from it.
            if Literal.parse(atom) != Literal(atom):
                raise SchemaError(f"atom {atom!r} reads as a different literal")


@dataclass(frozen=True, order=True)
class Literal:
    """A perception atom or its negation."""

    atom: str
    positive: bool = True

    @property
    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    @property
    def token(self) -> str:
        """File form: bare atom or '~atom'."""
        return self.atom if self.positive else f"~{self.atom}"

    def __str__(self) -> str:
        return self.atom if self.positive else f"¬{self.atom}"

    @classmethod
    def parse(cls, text: str) -> "Literal":
        text = text.strip()
        for prefix in ("~", "¬", "!"):
            if text.startswith(prefix):
                atom = text[len(prefix):].strip()
                if not atom:
                    raise SchemaError(f"empty literal: {text!r}")
                return cls(atom, False)
        if not text:
            raise SchemaError("empty literal")
        return cls(text, True)


@dataclass(frozen=True)
class Situation:
    """A total valuation: exactly one literal per atom."""

    literals: frozenset[Literal]

    @classmethod
    def from_perceptions(cls, atoms: Sequence[str], perceptions: Sequence[str]) -> "Situation":
        unknown = set(perceptions) - set(atoms)
        if unknown:
            raise SchemaError(f"perceptions outside the atom set: {sorted(unknown)}")
        true_set = set(perceptions)
        return cls(frozenset(Literal(a, a in true_set) for a in atoms))

    def check_total(self, atoms: Sequence[str]) -> None:
        seen = {lit.atom for lit in self.literals}
        if seen != set(atoms) or len(self.literals) != len(atoms):
            raise SchemaError("situation is not a total valuation over the atom set")

    @property
    def positives(self) -> frozenset[str]:
        return frozenset(lit.atom for lit in self.literals if lit.positive)

    def ordered(self, atoms: Sequence[str]) -> tuple[Literal, ...]:
        return ordered_literals(self.literals, atoms)


def ordered_literals(literals: Iterable[Literal], atoms: Sequence[str]) -> tuple[Literal, ...]:
    """The literals over atoms: positive ones first, then negative ones, each
    in atom declaration order."""
    present = set(literals)
    return tuple(lit for positive in (True, False) for a in atoms if (lit := Literal(a, positive)) in present)


@dataclass(frozen=True)
class DutyVector:
    """Duty satisfaction/violation degrees of one action in one situation."""

    action: str
    values: Mapping[str, int]

    def differential(self, other: "DutyVector") -> dict[str, int]:
        return duty_differential(self, other)

    def satisfies_some_duty(self) -> bool:
        return any(v >= 1 for v in self.values.values())

    def as_row(self, duties: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.values[d] for d in duties)


@dataclass(frozen=True)
class ActionMatrix:
    """One duty vector per action for a single situation."""

    situation_id: str
    vectors: Mapping[str, DutyVector]

    def vector(self, action: str) -> DutyVector:
        try:
            return self.vectors[action]
        except KeyError:
            raise UnknownNameError(f"action {action!r} has no vector in matrix {self.situation_id!r}") from None


@dataclass(frozen=True)
class Disjunct:
    """A vector of lower bounds on duty differentials, one bound per duty."""

    id: str
    bounds: Mapping[str, int]


@dataclass(frozen=True)
class Principle:
    """Ordered, non-empty collection of disjuncts with unique ids."""

    disjuncts: tuple[Disjunct, ...]

    def __post_init__(self):
        if not self.disjuncts:
            raise SchemaError("a principle needs at least one disjunct")
        ids = [u.id for u in self.disjuncts]
        if len(set(ids)) != len(ids):
            raise SchemaError(f"duplicate disjunct ids: {ids}")

    def __iter__(self):
        return iter(self.disjuncts)

    def index_of(self, disjunct_id: str) -> int:
        for i, u in enumerate(self.disjuncts):
            if u.id == disjunct_id:
                return i
        raise UnknownNameError(f"unknown disjunct {disjunct_id!r}")

    def by_id(self, disjunct_id: str) -> Disjunct:
        return self.disjuncts[self.index_of(disjunct_id)]


@dataclass(frozen=True)
class EpistemicRule:
    """head <- body over literals; an empty body makes the head a fact."""

    id: str
    head: Literal
    body: tuple[Literal, ...] = ()


@dataclass(frozen=True)
class EpistemicSpec:
    """Assumption literals, contrary overrides, and epistemic rules.

    The contrary of an assumption defaults to its complement literal and may
    be overridden per assumption.
    """

    atoms: tuple[str, ...]
    assumptions: tuple[Literal, ...]
    rules: tuple[EpistemicRule, ...] = ()
    contraries: Mapping[Literal, Literal] = field(default_factory=dict)
    facts: tuple[Literal, ...] = ()

    def contrary_of(self, assumption: Literal) -> Literal:
        return self.contraries.get(assumption, assumption.negated)


@dataclass(frozen=True)
class VdaAgent:
    """Language, situations, per-situation matrices, principle, optional epistemic spec."""

    language: VdaLanguage
    situations: Mapping[str, Situation]
    matrices: Mapping[str, ActionMatrix]
    principle: Principle | None
    epistemic: EpistemicSpec | None = None
    value_range: tuple[int, int] = DEFAULT_VALUE_RANGE
    duty_names: Mapping[str, str] = field(default_factory=dict)

    def situation(self, situation_id: str) -> Situation:
        try:
            return self.situations[situation_id]
        except KeyError:
            raise UnknownNameError(f"unknown situation {situation_id!r}") from None

    def matrix_for(self, situation_id: str) -> ActionMatrix:
        if situation_id not in self.situations:
            raise UnknownNameError(f"unknown situation {situation_id!r}")
        try:
            return self.matrices[situation_id]
        except KeyError:
            raise UnknownNameError(f"situation {situation_id!r} has no action matrix") from None

    def situation_matching(self, literals: frozenset[Literal]) -> str | None:
        for sid, situation in self.situations.items():
            if situation.literals == literals:
                return sid
        return None

    def require_principle(self) -> Principle:
        if self.principle is None:
            raise SchemaError("agent declares no principle; practical reasoning is unavailable")
        return self.principle


def vector_sentence(situation_id: str, action: str) -> str:
    return f"v_{situation_id}({action})"


def negation_sentence(situation_id: str, action: str) -> str:
    return f"¬v_{situation_id}({action})"


def check_sentence_names(agent: VdaAgent, situation_id: str) -> None:
    """Disjunct ids, actions, and the situation's vector and negated-vector
    sentences share one practical framework language, so they must differ."""
    actions = agent.language.actions
    seen: set[str] = set()
    for part in (
        [u.id for u in agent.principle or ()],
        [vector_sentence(situation_id, a) for a in actions],
        [negation_sentence(situation_id, a) for a in actions],
        actions,
    ):
        for name in part:
            if name in seen:
                raise SchemaError(
                    f"sentence name collision between disjuncts, vectors, and actions: {name!r}"
                )
            seen.add(name)


def validate_agent(agent: VdaAgent) -> VdaAgent:
    """Check referential integrity, totality of situations, vector shapes, and
    that no practical sentence is named twice."""
    lang = agent.language
    duties = lang.duties
    lo, hi = agent.value_range
    if lo > hi:
        raise SchemaError(f"empty value range: {agent.value_range}")
    for sid, situation in agent.situations.items():
        situation.check_total(lang.atoms)
    for sid, matrix in agent.matrices.items():
        if sid not in agent.situations:
            raise SchemaError(f"matrix {sid!r} references an undeclared situation")
        if set(matrix.vectors) != set(lang.actions):
            raise SchemaError(f"matrix {sid!r} must have exactly one vector per action")
        check_sentence_names(agent, sid)
        for action, vec in matrix.vectors.items():
            if vec.action != action:
                raise SchemaError(f"matrix {sid!r}: vector keyed {action!r} names {vec.action!r}")
            if tuple(vec.values.keys()) != duties:
                raise SchemaError(f"matrix {sid!r}, action {action!r}: duty list mismatch")
            for d, v in vec.values.items():
                if not (lo <= v <= hi):
                    raise SchemaError(
                        f"matrix {sid!r}, action {action!r}: degree {v} for {d} outside [{lo}, {hi}]"
                    )
    if agent.principle is not None:
        for u in agent.principle:
            if tuple(u.bounds.keys()) != duties:
                raise SchemaError(f"disjunct {u.id!r}: duty list mismatch")
    if agent.epistemic is not None:
        spec = agent.epistemic
        atom_set = set(spec.atoms)
        if set(lang.atoms) - atom_set:
            raise SchemaError("epistemic spec must cover all language atoms")
        mentioned = list(spec.assumptions) + list(spec.facts) + list(spec.contraries.values())
        for rule in spec.rules:
            mentioned.append(rule.head)
            mentioned.extend(rule.body)
        for lit in mentioned:
            if lit.atom not in atom_set:
                raise SchemaError(f"epistemic literal {lit} references an undeclared atom")
        assumption_set = set(spec.assumptions)
        if len(assumption_set) != len(spec.assumptions):
            raise SchemaError("duplicate epistemic assumptions")
        for key in spec.contraries:
            if key not in assumption_set:
                raise SchemaError(f"contrary override for non-assumption {key}")
    return agent


def duty_differential(a: DutyVector, b: DutyVector) -> dict[str, int]:
    """Componentwise a - b over a shared, identically ordered duty list."""
    if tuple(a.values.keys()) != tuple(b.values.keys()):
        raise SchemaError(
            f"duty list mismatch between vectors for {a.action!r} and {b.action!r}"
        )
    return {d: a.values[d] - b.values[d] for d in a.values}


def meets_lower_bounds(differential: Mapping[str, int], disjunct: Disjunct) -> bool:
    """True iff every component of the differential meets the disjunct's bound."""
    if set(differential.keys()) != set(disjunct.bounds.keys()):
        raise SchemaError(f"duty list mismatch between differential and disjunct {disjunct.id!r}")
    return all(differential[d] >= bound for d, bound in disjunct.bounds.items())


def prefers(matrix: ActionMatrix, principle: Principle, alpha: str, beta: str) -> tuple[str, ...]:
    """Ids of every disjunct under which alpha is weakly preferred to beta."""
    w = duty_differential(matrix.vector(alpha), matrix.vector(beta))
    return tuple(u.id for u in principle if meets_lower_bounds(w, u))


def strictly_prefers(matrix: ActionMatrix, principle: Principle, alpha: str, beta: str) -> bool:
    """Weak preference holds forward under some disjunct and backward under none."""
    if alpha == beta:
        raise SelfComparisonError(f"strict preference is undefined for {alpha!r} against itself")
    return bool(prefers(matrix, principle, alpha, beta)) and not prefers(matrix, principle, beta, alpha)


def weak_preference_pairs(matrix: ActionMatrix, principle: Principle) -> dict[tuple[str, str], tuple[str, ...]]:
    """Map (alpha, beta) -> prefers(matrix, principle, alpha, beta), over all
    ordered pairs of distinct actions that some disjunct qualifies.

    Keys come alpha-major, both in matrix order; ids in principle order.
    Action a weakly prefers b under u when b's value of every duty k is at
    most a's value minus u's bound on k.  So per duty the column's distinct
    values are sorted and each gets the mask of actions valued at most it;
    the actions a prefers under u are the AND over the duties of the mask
    that a bisect finds for a's threshold, minus a itself.
    """
    if len(matrix.vectors) < 2:
        return {}
    first, *others = matrix.vectors.values()
    for v in others:
        duty_differential(first, v)
    for u in principle:
        meets_lower_bounds(first.values, u)
    actions = list(matrix.vectors)
    rows = [tuple(v.values.values()) for v in matrix.vectors.values()]
    bound_rows = [(u.id, tuple(u.bounds[d] for d in first.values)) for u in principle]
    columns = []
    for column in zip(*rows):
        with_value: dict[int, int] = {}
        for i, x in enumerate(column):
            with_value[x] = with_value.get(x, 0) | 1 << i
        values = sorted(with_value)
        # at_most[j]: the actions valued at most values[j - 1]; at_most[0] is none.
        at_most = [0]
        for x in values:
            at_most.append(at_most[-1] | with_value[x])
        columns.append((values, at_most))
    everyone = (1 << len(actions)) - 1
    out: dict[tuple[str, str], tuple[str, ...]] = {}
    for i, (a, row) in enumerate(zip(actions, rows)):
        preferred = []
        for uid, lows in bound_rows:
            mask = everyone ^ 1 << i
            for (values, at_most), x, low in zip(columns, row, lows):
                mask &= at_most[bisect_right(values, x - low)]
            if mask:
                preferred.append((uid, mask))
        remaining = 0
        for _, mask in preferred:
            remaining |= mask
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            out[(a, actions[bit.bit_length() - 1])] = tuple(uid for uid, mask in preferred if mask & bit)
    return out


def strict_preference_graph(matrix: ActionMatrix, principle: Principle) -> dict[str, frozenset[str]]:
    """Map action -> set of actions it strictly dominates."""
    return _strict_graph(matrix.vectors, weak_preference_pairs(matrix, principle))


def _strict_graph(
    actions: Iterable[str], weak: Mapping[tuple[str, str], tuple[str, ...]]
) -> dict[str, frozenset[str]]:
    beaten: dict[str, list[str]] = {a: [] for a in actions}
    for a, b in weak:
        if (b, a) not in weak:
            beaten[a].append(b)
    return {a: frozenset(bs) for a, bs in beaten.items()}


def _find_cycle(graph: Mapping[str, frozenset[str]]) -> tuple[str, ...] | None:
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in graph}
    parent: dict[str, str] = {}
    for root in graph:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(graph[root])))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
                if color[nxt] == GREY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return tuple(cycle[:-1])
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


@dataclass(frozen=True)
class SolutionReport:
    """Solution set plus a diagnostic when a strict-preference cycle blocks ordering."""

    actions: frozenset[str]
    cycle: tuple[str, ...] | None = None


def solution_report(agent: VdaAgent, situation_id: str) -> SolutionReport:
    matrix = agent.matrix_for(situation_id)
    principle = agent.require_principle()
    return solution_report_from_pairs(matrix.vectors, weak_preference_pairs(matrix, principle))


def solution_report_from_pairs(
    actions: Iterable[str], weak: Mapping[tuple[str, str], tuple[str, ...]]
) -> SolutionReport:
    """The solution report of a matrix's actions, in matrix order, given its
    weak preference pairs as weak_preference_pairs returns them."""
    strict = _strict_graph(actions, weak)
    cycle = _find_cycle(strict)
    if cycle is not None:
        # No total ordering avoids inverting a strict edge inside the cycle.
        return SolutionReport(frozenset(), cycle)
    dominated = {b for targets in strict.values() for b in targets}
    return SolutionReport(frozenset(a for a in strict if a not in dominated))


def solutions(agent: VdaAgent, situation_id: str) -> frozenset[str]:
    """Actions that can head some ethical ordering of the situation's matrix."""
    return solution_report(agent, situation_id).actions


@dataclass(frozen=True)
class OrderingStep:
    action: str
    to_next: tuple[str, ...]  # disjunct ids relating this action to its successor


@dataclass(frozen=True)
class OrderingReport:
    steps: tuple[OrderingStep, ...]
    stuck: tuple[str, ...] | None = None  # remaining actions when a cycle blocks the greedy pick


def ethical_ordering(
    agent: VdaAgent,
    situation_id: str,
    tie_break: Sequence[str] | None = None,
) -> OrderingReport:
    """Greedy ordering by repeated selection of an undominated action.

    Display artifact only: solution computation never depends on it.  Ties are
    broken by the given priority sequence, lexicographically by default.
    """
    matrix = agent.matrix_for(situation_id)
    principle = agent.require_principle()
    return ordering_from_pairs(matrix.vectors, weak_preference_pairs(matrix, principle), tie_break)


def ordering_from_pairs(
    actions: Iterable[str],
    weak: Mapping[tuple[str, str], tuple[str, ...]],
    tie_break: Sequence[str] | None = None,
) -> OrderingReport:
    """ethical_ordering over a matrix's actions, given its weak preference
    pairs as weak_preference_pairs returns them."""
    actions = list(actions)
    if tie_break is None:
        priority = sorted(actions)
    else:
        priority = list(tie_break)
        if Counter(priority) != Counter(actions):
            raise SchemaError("tie_break must be a permutation of the matrix's actions")
    strict = _strict_graph(actions, weak)

    # Kahn's topological sort, taking the undominated action of least rank.
    rank = {a: i for i, a in enumerate(priority)}
    dominators = dict.fromkeys(actions, 0)
    for targets in strict.values():
        for b in targets:
            dominators[b] += 1
    ready = [rank[a] for a in actions if not dominators[a]]
    heapify(ready)
    picked: list[str] = []
    while ready:
        choice = priority[heappop(ready)]
        picked.append(choice)
        for b in strict[choice]:
            dominators[b] -= 1
            if not dominators[b]:
                heappush(ready, rank[b])

    steps = tuple(
        OrderingStep(action, weak.get((action, following), ()))
        for action, following in zip(picked, picked[1:])
    )
    if picked:
        steps += (OrderingStep(picked[-1], ()),)
    stuck = tuple(sorted(set(actions).difference(picked))) or None
    return OrderingReport(steps, stuck)
