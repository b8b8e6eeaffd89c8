"""Value-driven agent model and the ethical preference relation.

An agent carries a language (perception atoms, actions, duties), one total
valuation per named situation, an action matrix per situation assigning each
action an integer vector of duty satisfaction/violation degrees, and a
principle: an ordered collection of lower-bound vectors (disjuncts).

Action a is weakly preferred to action b under a disjunct when every
componentwise differential of their duty vectors meets that disjunct's lower
bound.  The relation is computed once per matrix as bitmasks
(``WeakPreference``), with the duty lists checked once per call: per duty,
one cumulative bitmask of action positions per distinct value, so for each
action and disjunct the actions it weakly prefers, and those that weakly
prefer it, are one mask AND per duty.  Strict preference holds when some
disjunct covers the forward differential and none covers the backward one:
per action, the first union of masks without the second.  Solutions are the
actions that can head a total ordering of the matrix with no
strict-preference inversion: none when the depth-first cycle search over the
strict masks finds a cycle, which ``solve`` names, else exactly the
undominated actions.  Solutions, orderings and the practical compiler read
the masks; the weakly preferred pairs and the strict graph by name are views.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import or_

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

    @cached_property
    def ranked(self) -> list[tuple[int, Disjunct]]:  # tightest first: greatest total bound, earliest on ties
        return sorted(enumerate(self.disjuncts), key=lambda ju: (-sum(ju[1].bounds.values()), ju[0]))


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

    @cached_property
    def named_situations(self) -> set[str]:
        """The situations whose practical sentence names ``check_sentence_names`` found distinct."""
        return set()


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
        agent.named_situations.add(sid)
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


def _check_vector_duties(a: DutyVector, b: DutyVector) -> None:
    if tuple(a.values.keys()) != tuple(b.values.keys()):
        raise SchemaError(
            f"duty list mismatch between vectors for {a.action!r} and {b.action!r}"
        )


def _check_bound_duties(duties: Iterable[str], disjunct: Disjunct) -> None:
    if set(duties) != set(disjunct.bounds.keys()):
        raise SchemaError(f"duty list mismatch between differential and disjunct {disjunct.id!r}")


def duty_differential(a: DutyVector, b: DutyVector) -> dict[str, int]:
    """Componentwise a - b over a shared, identically ordered duty list."""
    _check_vector_duties(a, b)
    return {d: a.values[d] - b.values[d] for d in a.values}


def meets_lower_bounds(differential: Mapping[str, int], disjunct: Disjunct) -> bool:
    """True iff every component of the differential meets the disjunct's bound."""
    _check_bound_duties(differential.keys(), disjunct)
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


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def names_at(mask: int, names: Sequence[str]) -> tuple[str, ...]:
    """The names at the set bits of mask, in order: bit i stands for names[i].
    The binary digits, lowest first, become the bytes 0 / 1 that select names."""
    return tuple(compress(names, bin(mask)[:1:-1].encode().translate(_BITS)))


def set_bits(mask: int) -> Iterator[int]:
    """The positions of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class WeakPreference:
    """One matrix's weak preference relation as bitmasks, computed once.

    Bit i of every mask stands for ``actions[i]``: the matrix's actions, in
    matrix order unless another order of them is given.  For action i and
    the principle's j-th disjunct, ``over[i][j]`` holds the actions that
    action i weakly prefers under it, and ``under[i][j]`` the actions that
    weakly prefer action i under it; neither holds i.  Action a weakly
    prefers b under u when b's value of every duty k is at most a's value
    minus u's bound on k.  So per duty the column's distinct values are
    sorted and each gets the mask of the actions valued at most it and the
    mask of those valued at least it: ``over[i][j]`` is the AND over the
    duties of the "at most" mask that ``bisect_right`` finds for i's value
    minus the bound, and ``under[i][j]`` of the "at least" mask that
    ``bisect_left`` finds for i's value plus the bound.  ``strict[i]`` holds
    the actions that action i strictly prefers: the union of its ``over``
    masks without the union of its ``under`` masks; ``dominators[i]`` holds
    those that strictly prefer it.  The duty lists are checked once, and not
    at all below two actions, where nothing is compared.
    """

    def __init__(self, matrix: ActionMatrix, principle: Principle, actions: Sequence[str] | None = None):
        self.matrix = matrix
        self.actions = tuple(matrix.vectors if actions is None else actions)
        self.ids = tuple(u.id for u in principle)
        if len(matrix.vectors) < 2:
            self.over = self.under = [(0,) * len(self.ids)] * len(self.actions)
            self.strict = self.dominators = [0] * len(self.actions)
            return
        first, *others = matrix.vectors.values()
        for v in others:
            _check_vector_duties(first, v)
        for u in principle:
            _check_bound_duties(first.values.keys(), u)
        rows = [tuple(matrix.vectors[a].values.values()) for a in self.actions]
        bound_rows = [tuple(map(u.bounds.__getitem__, first.values)) for u in principle]
        everyone = (1 << len(rows)) - 1
        columns = []
        for column in zip(*rows):
            with_value: dict[int, int] = {}
            for i, x in enumerate(column):
                with_value[x] = with_value.get(x, 0) | 1 << i
            values = sorted(with_value)
            # at_most[m]: the actions valued at most values[m - 1]; at_most[0] is none.
            # at_least[m]: the actions valued at least values[m]; at_least[-1] is none.
            at_most = [0]
            for x in values:
                at_most.append(at_most[-1] | with_value[x])
            columns.append((values, at_most, [everyone ^ m for m in at_most]))
        self.over: list[tuple[int, ...]] = []
        self.under: list[tuple[int, ...]] = []
        self.strict: list[int] = []
        self.dominators: list[int] = []
        for i, row in enumerate(rows):
            others = everyone ^ 1 << i
            over, under = [], []
            for lows in bound_rows:
                below = above = others
                for (values, at_most, at_least), x, low in zip(columns, row, lows):
                    below &= at_most[bisect_right(values, x - low)]
                    above &= at_least[bisect_left(values, x + low)]
                over.append(below)
                under.append(above)
            self.over.append(tuple(over))
            self.under.append(tuple(under))
            over_any, under_any = reduce(or_, over), reduce(or_, under)
            self.strict.append(over_any & ~under_any)
            self.dominators.append(under_any & ~over_any)

    def disjuncts(self, i: int, k: int) -> tuple[str, ...]:
        """Ids of the disjuncts under which action i weakly prefers action k, in principle order."""
        return tuple(uid for uid, mask in zip(self.ids, self.over[i]) if mask >> k & 1)

    def names(self, mask: int) -> tuple[str, ...]:
        """The actions in mask, in bit order."""
        return names_at(mask, self.actions)

    def _matrix_order(self) -> list[int]:
        position = {a: i for i, a in enumerate(self.matrix.vectors)}
        return sorted(range(len(self.actions)), key=lambda i: position[self.actions[i]])

    def pairs(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """The relation as weak_preference_pairs returns it."""
        order = self._matrix_order()
        rank = {i: r for r, i in enumerate(order)}
        out: dict[tuple[str, str], tuple[str, ...]] = {}
        for i in order:
            a = self.actions[i]
            for k in sorted(set_bits(reduce(or_, self.over[i], 0)), key=rank.__getitem__):
                out[(a, self.actions[k])] = self.disjuncts(i, k)
        return out

    def strict_graph(self) -> dict[str, frozenset[str]]:
        """Map action -> the actions it strictly prefers, in matrix order."""
        return {self.actions[i]: frozenset(self.names(self.strict[i])) for i in self._matrix_order()}

    def solutions(self) -> frozenset[str]:
        """The actions that can head an ordering with no strict-preference
        inversion: none under a strict cycle, else the undominated ones."""
        if _find_cycle(self.strict, range(len(self.strict))) is not None:
            return frozenset()
        return frozenset(a for a, dominators in zip(self.actions, self.dominators) if not dominators)


def _find_cycle(successors: Sequence[int], roots: Iterable[int]) -> list[int] | None:
    """A cycle of the graph whose node i has the successor mask successors[i],
    as its nodes in path order, or None when the graph has none.

    Depth first (Tarjan 1972), from each root in the order given that is not
    yet finished: the node on top of the path steps to its lowest successor
    bit that is not finished, and finishes when it has none.  A successor
    already on the path closes the cycle that runs from it to the top.
    """
    unfinished, seen = (1 << len(successors)) - 1, 0  # seen and unfinished: on the path
    for root in roots:
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            fresh = successors[stack[-1]] & unfinished
            if fresh:
                low = fresh & -fresh
                if low & seen:
                    return stack[stack.index(low.bit_length() - 1):]
                seen |= low
                stack.append(low.bit_length() - 1)
            else:
                unfinished ^= 1 << stack.pop()
    return None


def weak_preference_pairs(matrix: ActionMatrix, principle: Principle) -> dict[tuple[str, str], tuple[str, ...]]:
    """Map (alpha, beta) -> prefers(matrix, principle, alpha, beta), over all
    ordered pairs of distinct actions that some disjunct qualifies.

    Keys come alpha-major, both in matrix order; ids in principle order.  A
    view of WeakPreference, built for callers that read pairs: the pipeline
    and ``solve`` read the masks.
    """
    return WeakPreference(matrix, principle).pairs()


def strict_preference_graph(matrix: ActionMatrix, principle: Principle) -> dict[str, frozenset[str]]:
    """Map action -> set of actions it strictly dominates."""
    return WeakPreference(matrix, principle).strict_graph()


@dataclass(frozen=True)
class SolutionReport:
    """Solution set plus a diagnostic when a strict-preference cycle blocks ordering."""

    actions: frozenset[str]
    cycle: tuple[str, ...] | None = None


def solution_report(agent: VdaAgent, situation_id: str) -> SolutionReport:
    matrix = agent.matrix_for(situation_id)
    return solution_report_from_pairs(WeakPreference(matrix, agent.require_principle()))


def solution_report_from_pairs(weak: WeakPreference) -> SolutionReport:
    """The solution report of a matrix, given its weak preference as masks.

    Strict preference is ``over & ~under`` per action, and one depth-first
    search over those masks tells whether it has a cycle.  Without a solution
    it runs again, bit r renumbered to the r-th action by name and rooted in
    matrix order, to report the cycle a name-ordered search meets first.
    """
    solutions = weak.solutions()
    if solutions or not weak.actions:
        return SolutionReport(solutions)
    # Every action is dominated only under a strict cycle, and no total
    # ordering avoids inverting a strict edge inside it.
    by_name = sorted(range(len(weak.actions)), key=weak.actions.__getitem__)
    rank = {i: r for r, i in enumerate(by_name)}
    bit = [1 << rank[i] for i in range(len(by_name))]  # a mask's new bits sum to the renumbered mask
    successors = [sum(names_at(weak.strict[i], bit)) for i in by_name]
    cycle = _find_cycle(successors, map(rank.__getitem__, weak._matrix_order()))
    return SolutionReport(solutions, tuple(weak.actions[by_name[r]] for r in cycle))


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
    return ordering_from_pairs(WeakPreference(matrix, agent.require_principle()), tie_break)


def ordering_from_pairs(weak: WeakPreference, tie_break: Sequence[str] | None = None) -> OrderingReport:
    """ethical_ordering over a matrix's actions, given its weak preference
    as masks: only the steps of the ordering look up their disjunct ids."""
    actions = weak.actions
    if tie_break is None:
        priority = sorted(actions)
    else:
        priority = list(tie_break)
        if Counter(priority) != Counter(actions):
            raise SchemaError("tie_break must be a permutation of the matrix's actions")
    strict, dominators = weak.strict, weak.dominators

    # Kahn's topological sort, taking the undominated action of least rank:
    # an action is ready once the last action that strictly prefers it is picked.
    index = {a: i for i, a in enumerate(actions)}
    rank = [0] * len(actions)
    for r, a in enumerate(priority):
        rank[index[a]] = r
    ready = [rank[i] for i, mask in enumerate(dominators) if not mask]
    heapify(ready)
    remaining = (1 << len(actions)) - 1
    picked: list[int] = []
    while ready:
        choice = index[priority[heappop(ready)]]
        picked.append(choice)
        remaining ^= 1 << choice
        for k in set_bits(strict[choice]):
            if not dominators[k] & remaining:
                heappush(ready, rank[k])

    steps = tuple(
        OrderingStep(actions[i], weak.disjuncts(i, k)) for i, k in zip(picked, picked[1:])
    )
    if picked:
        steps += (OrderingStep(actions[picked[-1]], ()),)
    stuck = tuple(sorted(weak.names(remaining))) or None
    return OrderingReport(steps, stuck)
