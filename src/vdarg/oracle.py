"""Brute-force oracles and seeded random instance generation.

Everything here is deliberately naive and shares no code with the production
solvers: solutions come from enumerating action permutations, extensions from
testing every argument subset against the textbook definitions, and
epistemic verdicts from testing every assumption subset, closed by naive
forward chaining, against the flat-ABA definitions.  The subsets are tested
all at once, with no pruning and no propagation: subset m is bit m of a
2^n-bit integer, so each definition is a few AND and OR operations over such
integers, one per item.  The only shared ingredient is the *definition* of
strict preference (forward cover, no backward cover), which the oracle
recomputes from raw vectors.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import permutations
from operator import and_, or_

from .aba import Aaf, Argument, to_aaf
from .core import (
    ActionMatrix,
    Disjunct,
    DutyVector,
    EpistemicRule,
    EpistemicSpec,
    Literal,
    Principle,
    Situation,
    VdaAgent,
    VdaLanguage,
)
from .errors import ResourceCapError, SchemaError

MAX_ORACLE_ACTIONS = 7
MAX_ORACLE_ARGUMENTS = 16
MAX_ORACLE_ASSUMPTIONS = 10


def _covers(bounds: dict[str, int], diff: dict[str, int]) -> bool:
    return all(diff[d] >= b for d, b in bounds.items())


def _weak_relation(matrix: ActionMatrix, principle: Principle) -> set[tuple[str, str]]:
    """Every ordered pair of distinct actions that some disjunct covers."""
    rows = {a: dict(v.values) for a, v in matrix.vectors.items()}
    bounds = [dict(u.bounds) for u in principle]

    def weak(a: str, b: str) -> bool:
        diff = {d: rows[a][d] - rows[b][d] for d in rows[a]}
        return any(_covers(u, diff) for u in bounds)

    return {(a, b) for a in rows for b in rows if a != b and weak(a, b)}


def brute_force_solutions(agent: VdaAgent, situation_id: str) -> frozenset[str]:
    """First elements of every total order with no strict-preference inversion."""
    matrix = agent.matrix_for(situation_id)
    principle = agent.require_principle()
    actions = list(matrix.vectors.keys())
    if len(actions) > MAX_ORACLE_ACTIONS:
        raise ResourceCapError("max_oracle_actions", MAX_ORACLE_ACTIONS)

    weak = _weak_relation(matrix, principle)
    strict = {
        (a, b): (a, b) in weak and (b, a) not in weak
        for a in actions for b in actions if a != b
    }

    firsts = set()
    for order in permutations(actions):
        ok = True
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                if strict[(order[j], order[i])]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            firsts.add(order[0])
    return frozenset(firsts)


def _subset_tables(n: int) -> tuple[int, list[int]]:
    """The table of all 2^n subsets of n items, and each item's table of the
    subsets that hold it.  A table is one 2^n-bit integer whose bit m stands
    for subset m, the subset of the items i with bit i of m set."""
    everything, holds = 1, []
    for i in range(n):  # the subsets with item i are the 2^i after the 2^i without it
        holds = [h | h << (1 << i) for h in holds] + [everything << (1 << i)]
        everything |= everything << (1 << i)
    return everything, holds


def _members(table: int) -> list[int]:
    """The subsets that a table holds, by number, in increasing order."""
    bits = bin(table)[:1:-1]
    found = []
    m = bits.find("1")
    while m >= 0:
        found.append(m)
        m = bits.find("1", m + 1)
    return found


def _extension_subsets(semantics: str, everything: int, holds: list[int], attacks: list[int],
                       defends: list[int]) -> list[int]:
    """The extensions, as subset numbers, from each item's tables of the
    subsets that hold it, attack it and defend it (attack everything that
    attacks it).  Conflict-free sets attack none of their members, admissible
    ones defend all of them, complete ones also hold all they defend, stable
    ones are conflict-free and attack every item they do not hold; preferred
    ones are the maximal complete sets and the grounded one the least."""
    conflict_free = everything & ~reduce(or_, map(and_, holds, attacks), 0)
    if semantics == "stable":
        return _members(reduce(and_, map(or_, holds, attacks), conflict_free))
    undefended_member = reduce(or_, (h & ~d for h, d in zip(holds, defends)), 0)
    defended_outsider = reduce(or_, (d & ~h for h, d in zip(holds, defends)), 0)
    completes = _members(conflict_free & ~undefended_member & ~defended_outsider)
    if semantics == "complete":
        return completes
    if semantics == "preferred":
        return [m for m in completes if not any(other != m and other & m == m for other in completes)]
    if semantics == "grounded":
        least = [m for m in completes if all(m & other == m for other in completes)]
        if len(least) != 1:
            raise AssertionError("grounded oracle: no unique least complete extension")
        return least
    raise SchemaError(f"unknown semantics {semantics!r}")


def brute_force_extensions(aaf: Aaf, semantics: str) -> set[frozenset[str]]:
    """Every argument subset tested against the textbook definitions of each
    semantics.  The subsets are the bits of one 2^n-bit integer, and each
    argument has three such tables: the subsets that hold it, those that
    attack it (hold one of its attackers) and those that defend it (attack
    each of its attackers).  Only the subsets that pass are decoded to ids."""
    ids = aaf.ids
    n = len(ids)
    if n > MAX_ORACLE_ARGUMENTS:
        raise ResourceCapError("max_oracle_arguments", MAX_ORACLE_ARGUMENTS)
    everything, holds = _subset_tables(n)
    attackers = [[aaf.index[src] for src in srcs] for srcs in aaf.attackers_of.values()]
    attacks = [reduce(or_, (holds[j] for j in js), 0) for js in attackers]
    defends = [reduce(and_, (attacks[j] for j in js), everything) for js in attackers]
    return {
        frozenset(ids[i] for i in range(n) if m >> i & 1)
        for m in _extension_subsets(semantics, everything, holds, attacks, defends)
    }


def brute_force_assumption_verdicts(
    spec: EpistemicSpec, perceptions: Sequence[str], semantics: str
) -> dict[Literal, str]:
    """Each assumption's verdict, in declaration order, from the extensions
    over sets of assumptions (flat ABA).

    Cn(S) closes S, the declared facts and the perceptions by naive forward
    chaining over the rules; a fact or perception that is an assumption is
    not a fact, as no rule of a flat framework derives an assumption.  S
    attacks an assumption b when contrary(b) is in Cn(S), and defends b when
    it attacks every set that attacks b.  An assumption is "justified" when
    it is in every extension, "rejected" when its contrary is in Cn of their
    intersection, and "undecided" otherwise, as it is when there is none.
    """
    assumptions = list(spec.assumptions)
    n = len(assumptions)
    if n > MAX_ORACLE_ASSUMPTIONS:
        raise ResourceCapError("max_oracle_assumptions", MAX_ORACLE_ASSUMPTIONS)
    facts = {*spec.facts, *map(Literal, perceptions)} - set(assumptions)
    rules = [(rule.head, set(rule.body)) for rule in spec.rules]

    def cn(mask: int) -> set[Literal]:
        known = facts | {a for i, a in enumerate(assumptions) if mask >> i & 1}
        grown = True
        while grown:
            grown = False
            for head, body in rules:
                if head not in known and body <= known:
                    known.add(head)
                    grown = True
        return known

    subsets = range(1 << n)
    contraries = list(map(spec.contrary_of, assumptions))
    # hit[S]: the assumptions that S attacks.
    hit = []
    for mask in subsets:
        known = cn(mask)
        hit.append(sum(1 << i for i, c in enumerate(contraries) if c in known))
    everything, holds = _subset_tables(n)
    attacks = [sum(1 << m for m in subsets if hit[m] >> i & 1) for i in range(n)]
    # against[T]: the subsets that attack some member of T.
    against = [reduce(or_, (attacks[i] for i in range(n) if t >> i & 1), 0) for t in subsets]
    defends = [reduce(and_, (against[t] for t in subsets if hit[t] >> i & 1), everything) for i in range(n)]
    extensions = _extension_subsets(semantics, everything, holds, attacks, defends)
    if not extensions:
        return dict.fromkeys(assumptions, "undecided")
    common = reduce(and_, extensions)
    return {
        a: "justified" if common >> i & 1 else "rejected" if hit[common] >> i & 1 else "undecided"
        for i, a in enumerate(assumptions)
    }


def random_epistemic_spec(seed: int) -> EpistemicSpec:
    """Seeded random flat epistemic spec: 2-5 atoms, 1-6 assumption literals,
    some contraries overridden, up to 7 rules with 0-2 body literals (rule
    cycles among them) that derive no assumption, and a few declared facts."""
    rng = random.Random(seed)
    atoms = tuple(f"p{i + 1}" for i in range(rng.randint(2, 5)))
    literals = [Literal(atom, positive) for atom in atoms for positive in (True, False)]
    assumptions = tuple(rng.sample(literals, rng.randint(1, min(6, len(literals)))))
    contraries = {a: rng.choice(literals) for a in assumptions if rng.random() < 0.3}
    heads = [lit for lit in literals if lit not in assumptions]
    rules = [
        EpistemicRule(f"r{k + 1}", rng.choice(heads), tuple(rng.sample(literals, rng.randint(0, 2))))
        for k in range(rng.randint(0, 7) if heads else 0)
    ]
    if len(heads) >= 2 and rng.random() < 0.3:  # close a cycle through two derivable literals
        x, y = rng.sample(heads, 2)
        rules += [EpistemicRule(f"r{len(rules) + 1}", x, (y,)), EpistemicRule(f"r{len(rules) + 2}", y, (x,))]
    facts = tuple(lit for lit in heads if rng.random() < 0.1)
    return EpistemicSpec(atoms, assumptions, tuple(rules), contraries, facts)


def random_aaf(seed: int, max_arguments: int = 12, max_density: float = 0.4,
               self_loops: bool = True) -> Aaf:
    """Random abstract framework with placeholder arguments (ids only matter)."""
    rng = random.Random(seed)
    n = rng.randint(1, max_arguments)
    density = rng.uniform(0.0, max_density)
    args = tuple(
        Argument(f"A{i + 1}", f"s{i + 1}", (), (), (f"s{i + 1}", None, ()))
        for i in range(n)
    )
    attacks = set()
    for i in range(n):
        for j in range(n):
            if i == j and not self_loops:
                continue
            if rng.random() < density:
                attacks.add((f"A{i + 1}", f"A{j + 1}"))
    return to_aaf(args, attacks)


@dataclass(frozen=True)
class RandomVdaSpec:
    """Reproducible random-agent parameters; bounds keep brute force tractable."""

    seed: int
    actions: int = 4
    duties: int = 3
    disjuncts: int = 3
    value_range: tuple[int, int] = (-2, 2)
    assumption_policy: str = "any"  # "any" | "satisfying" | "none-satisfying"
    order_inducing: bool = False    # resample until weak preference is transitive

    def __post_init__(self):
        if not (1 <= self.actions <= 6):
            raise SchemaError("actions must be within 1..6")
        if not (1 <= self.duties <= 5):
            raise SchemaError("duties must be within 1..5")
        if not (1 <= self.disjuncts <= 5):
            raise SchemaError("disjuncts must be within 1..5")
        if self.assumption_policy not in ("any", "satisfying", "none-satisfying"):
            raise SchemaError(f"unknown assumption policy {self.assumption_policy!r}")


def _transitive(weak: Iterable[tuple[str, str]], actions: list[str]) -> bool:
    related = set(weak)
    for a in actions:
        for b in actions:
            if a == b or (a, b) not in related:
                continue
            for c in actions:
                if c in (a, b):
                    continue
                if (b, c) in related and (a, c) not in related:
                    return False
    return True


def random_vda(spec: RandomVdaSpec) -> tuple[VdaAgent, str]:
    """Seeded random agent with one situation 'R'; same spec, same agent."""
    attempt = 0
    while True:
        agent, sid = _generate(spec, attempt)
        if not spec.order_inducing:
            return agent, sid
        if _transitive(_weak_relation(agent.matrices[sid], agent.principle), list(agent.language.actions)):
            return agent, sid
        attempt += 1
        if attempt > 10_000:
            raise ResourceCapError("order_inducing_attempts", 10_000)


def _generate(spec: RandomVdaSpec, attempt: int) -> tuple[VdaAgent, str]:
    rng = random.Random(spec.seed * 1_000_003 + attempt)
    lo, hi = spec.value_range
    atoms = ("p1", "p2", "p3")
    actions = tuple(f"a{i + 1}" for i in range(spec.actions))
    duties = tuple(f"d{i + 1}" for i in range(spec.duties))

    perceptions = [a for a in atoms if rng.random() < 0.5]
    situation = Situation.from_perceptions(atoms, perceptions)

    vectors = {}
    for action in actions:
        values = {d: rng.randint(lo, hi) for d in duties}
        if spec.assumption_policy == "satisfying" and not any(v >= 1 for v in values.values()):
            values[rng.choice(duties)] = rng.randint(1, max(hi, 1))
        elif spec.assumption_policy == "none-satisfying":
            values = {d: min(v, 0) for d, v in values.items()}
        vectors[action] = DutyVector(action, values)

    disjuncts = tuple(
        Disjunct(f"u{i + 1}", {d: rng.randint(2 * lo, hi) for d in duties})
        for i in range(spec.disjuncts)
    )

    agent = VdaAgent(
        language=VdaLanguage(atoms, actions, duties),
        situations={"R": situation},
        matrices={"R": ActionMatrix("R", vectors)},
        principle=Principle(disjuncts),
        value_range=spec.value_range,
    )
    return agent, "R"
