"""Extension semantics for abstract argumentation frameworks.

Every semantics runs over classes of arguments that have identical attacker
sets.  In a complete labelling an argument is IN when all its attackers are
OUT, OUT when one is IN and UNDEC otherwise, so arguments that share their
attackers always share their label: the complete labellings of the framework
are exactly those of the class graph, lifted to the members of each class.
Lifting is injective and monotone, so the least (grounded), the maximal
(preferred) and the undecided-free (stable) ones correspond as well.  In the
flat ABA frameworks compiled here an argument is attacked only through its
assumptions, so this is the assumption-level semantics of flat ABA, derived
from the attack graph alone.

Grounded extensions come from the usual defense fixpoint.  Complete
extensions are enumerated by a three-valued labelling search (in/out/undec)
with constraint propagation; its ``budget`` counts search nodes over
classes.  Preferred extensions are the set-inclusion maximal complete ones
and stable extensions the complete ones with nothing undecided.  Results are
canonically ordered, by their members' positions in argument order, so
identical inputs always produce identical output.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .aba import Aaf
from .errors import ResourceCapError, UnknownNameError

SEMANTICS = ("grounded", "complete", "preferred", "stable")

_UNASSIGNED, _IN, _OUT, _UNDEC = 0, 1, 2, 3

DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class Extension:
    members: frozenset[str]
    semantics: str


def _bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Graph:
    """Attack graph over classes of arguments with identical attacker sets.

    Classes are numbered by their first member in argument order; class d
    attacks class c when some member of d attacks the members of c.
    """

    def __init__(self, aaf: Aaf):
        self.ids = aaf.ids
        index = aaf.index
        argument_attackers = [0] * len(self.ids)
        for src, dst in aaf.attacks:
            argument_attackers[index[dst]] |= 1 << index[src]
        classes: dict[int, list[int]] = {}
        for i, mask in enumerate(argument_attackers):
            classes.setdefault(mask, []).append(i)
        self.members = list(classes.values())
        class_of = {i: c for c, members in enumerate(self.members) for i in members}
        n = len(self.members)
        self.n = n
        self.lifted = [sum(1 << i for i in members) for members in self.members]
        self.attackers = [0] * n
        self.victims = [0] * n
        for c, mask in enumerate(classes):
            while mask:
                d = class_of[(mask & -mask).bit_length() - 1]
                mask &= ~self.lifted[d]
                self.attackers[c] |= 1 << d
                self.victims[d] |= 1 << c

    def lift(self, mask: int) -> int:
        """The argument mask of the members of the classes in mask."""
        return sum(self.lifted[c] for c in _bits(mask))

    def extension(self, in_mask: int, semantics: str) -> Extension:
        members = frozenset(self.ids[i] for c in _bits(in_mask) for i in self.members[c])
        return Extension(members, semantics)


def _grounded_mask(g: _Graph) -> tuple[int, int]:
    """Least fixpoint: repeatedly accept classes whose attackers are all defeated."""
    in_mask = 0
    out_mask = 0
    changed = True
    while changed:
        changed = False
        for i in range(g.n):
            bit = 1 << i
            if (in_mask | out_mask) & bit:
                continue
            if g.attackers[i] & ~out_mask == 0:
                in_mask |= bit
                changed = True
            elif g.attackers[i] & in_mask:
                out_mask |= bit
                changed = True
    return in_mask, out_mask


def _complete_in_masks(g: _Graph, budget: int = DEFAULT_SEARCH_BUDGET) -> list[int]:
    n = g.n
    if n == 0:
        return [0]
    full = (1 << n) - 1
    attackers = g.attackers
    victims = g.victims
    results: dict[int, None] = {}
    nodes_visited = 0

    def propagate(labels: list[int]) -> bool:
        """Apply forced moves until fixpoint; False on contradiction."""
        while True:
            in_mask = out_mask = undec_mask = 0
            for i in range(n):
                lab = labels[i]
                if lab == _IN:
                    in_mask |= 1 << i
                elif lab == _OUT:
                    out_mask |= 1 << i
                elif lab == _UNDEC:
                    undec_mask |= 1 << i
            unassigned = full & ~(in_mask | out_mask | undec_mask)
            changed = False
            for i in range(n):
                att = attackers[i]
                lab = labels[i]
                if lab == _UNASSIGNED:
                    if att & in_mask:
                        labels[i] = _OUT
                        changed = True
                    elif att & ~out_mask == 0:
                        labels[i] = _IN
                        changed = True
                elif lab == _IN:
                    if att & (in_mask | undec_mask):
                        return False
                    forced_out = (att | victims[i]) & unassigned
                    while forced_out:
                        j = (forced_out & -forced_out).bit_length() - 1
                        forced_out &= forced_out - 1
                        labels[j] = _OUT
                        changed = True
                elif lab == _OUT:
                    if att & in_mask == 0 and att & ~(out_mask | undec_mask) == 0:
                        return False  # no attacker left that could witness OUT
                elif lab == _UNDEC:
                    if att & in_mask:
                        return False
                    if att & ~out_mask == 0:
                        return False  # all attackers out: would have to be IN
                    if victims[i] & in_mask:
                        return False  # an IN victim needs all attackers out
            if not changed:
                return True

    def search(labels: list[int]) -> None:
        nonlocal nodes_visited
        nodes_visited += 1
        if nodes_visited > budget:
            raise ResourceCapError("complete_search", budget)
        try:
            pivot = labels.index(_UNASSIGNED)
        except ValueError:
            # Every argument is labelled, and the last pass of propagate saw
            # these final labels: IN has all attackers OUT, OUT has an IN
            # attacker, UNDEC has an UNDEC attacker and no IN one.
            in_mask = sum(1 << i for i in range(n) if labels[i] == _IN)
            results[in_mask] = None
            return
        for lab in (_IN, _OUT, _UNDEC):
            trial = labels.copy()
            trial[pivot] = lab
            if propagate(trial):
                search(trial)

    start = [_UNASSIGNED] * n
    if propagate(start):
        search(start)
    return sorted(results, key=g.lift)


def grounded(aaf: Aaf) -> Extension:
    g = _Graph(aaf)
    in_mask, _ = _grounded_mask(g)
    return g.extension(in_mask, "grounded")


def complete(aaf: Aaf, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[Extension, ...]:
    g = _Graph(aaf)
    return tuple(g.extension(m, "complete") for m in _complete_in_masks(g, budget))


def preferred(aaf: Aaf, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[Extension, ...]:
    g = _Graph(aaf)
    masks = _complete_in_masks(g, budget)
    maximal = [
        m for m in masks
        if not any(other != m and other & m == m for other in masks)
    ]
    return tuple(g.extension(m, "preferred") for m in maximal)


def stable(aaf: Aaf, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[Extension, ...]:
    g = _Graph(aaf)
    full = (1 << g.n) - 1
    out = []
    for m in _complete_in_masks(g, budget):
        defeated = 0
        for i in range(g.n):
            if m >> i & 1:
                defeated |= g.victims[i]
        if m | defeated == full:
            out.append(m)
    return tuple(g.extension(m, "stable") for m in out)


def extensions_for(aaf: Aaf, semantics: str, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[Extension, ...]:
    if semantics == "grounded":
        return (grounded(aaf),)
    if semantics == "complete":
        return complete(aaf, budget)
    if semantics == "preferred":
        return preferred(aaf, budget)
    if semantics == "stable":
        return stable(aaf, budget)
    raise UnknownNameError(f"unknown semantics {semantics!r}; expected one of {SEMANTICS}")


@dataclass(frozen=True)
class ArgumentStatus:
    argument_id: str
    status: str
    in_all: bool
    in_some: bool

    @property
    def credulously_accepted(self) -> bool:
        """Membership in at least one extension (the standard credulous predicate)."""
        return self.in_some


@dataclass(frozen=True)
class AcceptanceReport:
    semantics: str
    extensions: tuple[Extension, ...]
    statuses: Mapping[str, ArgumentStatus]
    vacuous: bool = False
    diagnostic: str | None = None

    def labelled(self) -> tuple[tuple[str, Extension], ...]:
        return tuple((f"E{i + 1}", ext) for i, ext in enumerate(self.extensions))

    def extension_labels_containing(self, argument_id: str) -> tuple[str, ...]:
        return tuple(label for label, ext in self.labelled() if argument_id in ext.members)


def acceptance_status(aaf: Aaf, semantics: str, budget: int = DEFAULT_SEARCH_BUDGET) -> AcceptanceReport:
    """Per-argument verdicts under the paper's justification vocabulary.

    skeptically-justified: in every extension; credulously-justified: in at
    least one but not all; skeptically/credulously-rejected: attacked by an
    argument with the corresponding justified status; undecided otherwise.
    With no extension at all every status is vacuous, with in_all and
    in_some both false.
    """
    exts = extensions_for(aaf, semantics, budget)
    ids = aaf.ids
    if not exts:
        statuses = {
            arg_id: ArgumentStatus(arg_id, "vacuous", False, False) for arg_id in ids
        }
        return AcceptanceReport(
            semantics, exts, statuses, vacuous=True,
            diagnostic=f"{semantics} semantics yielded no extensions; statuses are vacuous",
        )
    member_sets = [ext.members for ext in exts]
    in_all = {arg_id: all(arg_id in s for s in member_sets) for arg_id in ids}
    in_some = {arg_id: any(arg_id in s for s in member_sets) for arg_id in ids}

    statuses = {}
    for arg_id in ids:
        attackers = aaf.attackers_of[arg_id]
        if in_all[arg_id]:
            status = "skeptically-justified"
        elif in_some[arg_id]:
            status = "credulously-justified"
        elif any(in_all[a] for a in attackers):
            status = "skeptically-rejected"
        elif any(in_some[a] and not in_all[a] for a in attackers):
            status = "credulously-rejected"
        else:
            status = "undecided"
        statuses[arg_id] = ArgumentStatus(arg_id, status, in_all[arg_id], in_some[arg_id])
    return AcceptanceReport(semantics, exts, statuses)
