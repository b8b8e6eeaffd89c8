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

All four semantics are read off one three-valued labelling search
(in/out/undec) with constraint propagation.  Grounded is the least complete
labelling: what propagation forces from the empty labelling, with no search.
The search labels one open class at a time, depth first over an explicit
stack, so its depth is not bounded by Python's recursion limit; ``budget``
counts its nodes.  Its leaves are the complete labellings; preferred are the
maximal ones and stable the ones with nothing UNDEC.  Extensions are ordered
by their members' positions in argument order, so output is deterministic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

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


def _propagate(g: _Graph, labels: list[int]) -> bool:
    """Apply forced moves until fixpoint; False on contradiction.

    From the empty labelling this is the grounded labelling: a class goes IN
    once all its attackers are OUT and OUT once one of them is IN.
    """
    n = g.n
    attackers = g.attackers
    victims = g.victims
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
        unassigned = ((1 << n) - 1) & ~(in_mask | out_mask | undec_mask)
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


def _complete_labellings(g: _Graph, budget: int) -> dict[int, bool]:
    """Every complete labelling, as its IN mask -> whether it leaves a class UNDEC.

    Depth-first over an explicit stack: each node labels the first unassigned
    class IN, OUT or UNDEC and propagates; budget bounds the nodes visited.
    """
    if g.n == 0:
        return {0: False}
    leaves: dict[int, bool] = {}
    start = [_UNASSIGNED] * g.n
    stack = [start] if _propagate(g, start) else []
    nodes_visited = 0
    while stack:
        labels = stack.pop()
        nodes_visited += 1
        if nodes_visited > budget:
            raise ResourceCapError("complete_search", budget)
        try:
            pivot = labels.index(_UNASSIGNED)
        except ValueError:
            # Every class is labelled, and the last pass of propagate saw
            # these final labels: IN has all attackers OUT, OUT has an IN
            # attacker, UNDEC has an UNDEC attacker and no IN one.
            leaves[sum(1 << i for i, lab in enumerate(labels) if lab == _IN)] = _UNDEC in labels
            continue
        for lab in (_UNDEC, _OUT, _IN):  # pushed in reverse, so IN is searched first
            trial = labels.copy()
            trial[pivot] = lab
            if _propagate(g, trial):
                stack.append(trial)
    return leaves


def grounded(aaf: Aaf) -> Extension:
    return extensions_for(aaf, "grounded")[0]


def complete(aaf: Aaf, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[Extension, ...]:
    return extensions_for(aaf, "complete", budget)


def preferred(aaf: Aaf, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[Extension, ...]:
    return extensions_for(aaf, "preferred", budget)


def stable(aaf: Aaf, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[Extension, ...]:
    return extensions_for(aaf, "stable", budget)


def extensions_for(aaf: Aaf, semantics: str, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[Extension, ...]:
    if semantics not in SEMANTICS:
        raise UnknownNameError(f"unknown semantics {semantics!r}; expected one of {SEMANTICS}")
    g = _Graph(aaf)
    if semantics == "grounded":
        labels = [_UNASSIGNED] * g.n
        _propagate(g, labels)
        return (g.extension(sum(1 << i for i, lab in enumerate(labels) if lab == _IN), semantics),)
    leaves = _complete_labellings(g, budget)
    masks = sorted(leaves, key=g.lift)
    if semantics == "preferred":
        masks = [m for m in masks if not any(other != m and other & m == m for other in masks)]
    elif semantics == "stable":
        masks = [m for m in masks if not leaves[m]]
    return tuple(g.extension(m, semantics) for m in masks)


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

    @cached_property
    def _labelled(self) -> tuple[tuple[str, Extension], ...]:
        return tuple((f"E{i + 1}", ext) for i, ext in enumerate(self.extensions))

    def labelled(self) -> tuple[tuple[str, Extension], ...]:
        return self._labelled

    def extension_labels_containing(self, argument_id: str) -> tuple[str, ...]:
        return tuple(label for label, ext in self._labelled if argument_id in ext.members)


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
