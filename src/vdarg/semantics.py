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
from the attack graph alone.  The graph is an ordered map from each node
to its attackers: an Aaf's ``attackers_of``, or the qualifying actions
of a practical decision, each with the actions whose arguments attack it
(see ``frameworks``).  ``_Graph`` groups the
nodes into classes itself, and ``acceptance_status`` decides one status
record per class, which all members of the class share; each record carries
the labels of the extensions that hold its class.

A complete extension is fixed by its IN set S: S is complete exactly when
it is conflict-free and S = F(S), where F(S) is the set of classes that S
defends (Caminada 2006).  So all four semantics come from one two-valued
search that puts each class IN or not-IN, with constraint propagation.
Grounded is the least fixpoint of F: what propagation forces from the empty
assignment, with no search.  The search decides one open class at a time,
IN first, depth first over an explicit stack, so its depth is not bounded
by Python's recursion limit; ``budget`` counts its IN / not-IN nodes.  Its
leaves are the complete extensions, each an IN set with a flag for whether
some class is neither IN nor attacked by it (UNDEC); preferred are the
maximal ones and stable the ones with nothing UNDEC.  Extensions are
ordered by their members' positions in node order, so output is
deterministic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .aba import Aaf
from .core import set_bits
from .errors import ResourceCapError, UnknownNameError

SEMANTICS = ("grounded", "complete", "preferred", "stable")

DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class Extension:
    members: frozenset[str]
    semantics: str


class _Graph:
    """Attack graph over classes of nodes with identical attackers.

    Built from an Aaf, whose nodes are its arguments, or from an ordered map
    from each node to its attackers.  Classes are numbered by their first
    member in node order; class d attacks class c when some member of d
    attacks the members of c.
    """

    def __init__(self, graph: Aaf | Mapping[str, tuple[str, ...]]):
        attackers_of = getattr(graph, "attackers_of", graph)
        ids = self.ids = tuple(attackers_of)
        index: dict[tuple[str, ...], int] = {}  # attacker tuple -> class
        self.class_at = [index.setdefault(key, len(index)) for key in attackers_of.values()]
        self.keys = tuple(index)
        n = self.n = len(index)
        self.members: list[list[int]] = [[] for _ in range(n)]
        for i, c in enumerate(self.class_at):
            self.members[c].append(i)
        class_of = dict(zip(ids, self.class_at))
        self.attackers = [0] * n
        self.victims = [0] * n
        for c, key in enumerate(self.keys):
            for d in {class_of[a] for a in key}:
                self.attackers[c] |= 1 << d
                self.victims[d] |= 1 << c

    def lift(self, mask: int) -> int:
        """The node mask of the members of the classes in mask."""
        return sum(1 << i for c in set_bits(mask) for i in self.members[c])

    def extension(self, in_mask: int, semantics: str) -> Extension:
        members = frozenset(self.ids[i] for c in set_bits(in_mask) for i in self.members[c])
        return Extension(members, semantics)


def _propagate(g: _Graph, in_mask: int, out_mask: int, attacked: int) -> tuple[int, int, int] | None:
    """Close an IN / not-IN assignment under its forced moves; None on contradiction.

    attacked is the mask of classes attacked by an IN class.  An IN class
    makes its attackers and victims not-IN; an open class whose attackers
    are all attacked goes IN, and a not-IN one is a contradiction.  An
    attacker of an IN class that no IN class attacks needs an open attacker:
    none is a contradiction, exactly one goes IN.  attacked grows with every
    class that goes IN, because an attack it missed would read as a
    contradiction.  From (0, 0, 0) this is the least fixpoint of F, the
    grounded extension.
    """
    attackers = g.attackers
    victims = g.victims
    changed = True
    while changed:
        changed = False
        for c in range(g.n):
            bit = 1 << c
            att = attackers[c]
            if in_mask & bit:
                near = att | victims[c]
                if near & in_mask:
                    return None
                if near & ~out_mask:
                    out_mask |= near
                    changed = True
                for a in set_bits(att & ~attacked):
                    if attacked >> a & 1:  # a class forced IN above attacks it
                        continue
                    witnesses = attackers[a] & ~(in_mask | out_mask)
                    if not witnesses:
                        return None
                    if witnesses & (witnesses - 1) == 0:
                        in_mask |= witnesses
                        attacked |= victims[witnesses.bit_length() - 1]
                        changed = True
            elif att & ~attacked == 0:
                if out_mask & bit:
                    return None
                in_mask |= bit
                attacked |= victims[c]
                changed = True
    return in_mask, out_mask, attacked


def _complete_extensions(g: _Graph, least: tuple[int, int, int], budget: int) -> dict[int, bool]:
    """Every complete extension, as its IN mask -> whether a class is neither IN nor attacked.

    Depth-first over an explicit stack from the grounded assignment: each
    node puts the lowest open class IN or not-IN and propagates; budget
    bounds the nodes visited.
    """
    leaves: dict[int, bool] = {}
    all_classes = (1 << g.n) - 1
    stack = [least]
    nodes_visited = 0
    while stack:
        in_mask, out_mask, attacked = stack.pop()
        nodes_visited += 1
        if nodes_visited > budget:
            raise ResourceCapError("complete_search", budget)
        open_classes = all_classes & ~(in_mask | out_mask)
        if not open_classes:
            # Propagation's last pass saw this assignment: IN is conflict-free
            # and defended, and no not-IN class is defended.
            leaves[in_mask] = all_classes & ~(in_mask | attacked) != 0
            continue
        pivot = open_classes & -open_classes
        for trial in (  # pushed in reverse, so IN is searched first
            _propagate(g, in_mask, out_mask | pivot, attacked),
            _propagate(g, in_mask | pivot, out_mask, attacked | g.victims[pivot.bit_length() - 1]),
        ):
            if trial is not None:
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


def extensions_for(
    aaf: Aaf | Mapping[str, tuple[str, ...]], semantics: str, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[Extension, ...]:
    """The extensions of an Aaf, or of an ordered node -> attackers map."""
    return _extensions(_Graph(aaf), semantics, budget)


def _extensions(g: _Graph, semantics: str, budget: int) -> tuple[Extension, ...]:
    if semantics not in SEMANTICS:
        raise UnknownNameError(f"unknown semantics {semantics!r}; expected one of {SEMANTICS}")
    least = _propagate(g, 0, 0, 0)
    assert least is not None  # the grounded extension is complete
    if semantics == "grounded":
        return (g.extension(least[0], semantics),)
    leaves = _complete_extensions(g, least, budget)
    masks = sorted(leaves, key=g.lift)
    if semantics == "preferred":
        masks = [m for m in masks if not any(other != m and other & m == m for other in masks)]
    elif semantics == "stable":
        masks = [m for m in masks if not leaves[m]]
    return tuple(g.extension(m, semantics) for m in masks)


@dataclass(frozen=True)
class ArgumentStatus:
    status: str
    in_all: bool
    in_some: bool
    extensions: tuple[str, ...] = ()  # the labels of the extensions that hold it, in extension order

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
        return _labelled(self.extensions)


def _labelled(extensions: tuple[Extension, ...]) -> tuple[tuple[str, Extension], ...]:
    return tuple((f"E{i}", ext) for i, ext in enumerate(extensions, 1))


def acceptance_status(
    aaf: Aaf | Mapping[str, tuple[str, ...]], semantics: str, budget: int = DEFAULT_SEARCH_BUDGET
) -> AcceptanceReport:
    """Per-node verdicts under the paper's justification vocabulary, for the
    arguments of an Aaf or the nodes of an ordered node -> attackers map.

    skeptically-justified: in every extension; credulously-justified: in at
    least one but not all; skeptically/credulously-rejected: attacked by an
    argument with the corresponding justified status; undecided otherwise.
    With no extension at all every status is vacuous, with in_all and
    in_some both false.  Members of a class share their attackers and their
    extensions, so each class gets one status record, read off its first
    member, and every member maps to that record.  The record carries the
    labels of the extensions that hold the class, as ``labelled`` writes them.
    """
    g = _Graph(aaf)
    exts = _extensions(g, semantics, budget)
    if not exts:
        vacuous = ArgumentStatus("vacuous", False, False)
        return AcceptanceReport(
            semantics, exts, dict.fromkeys(g.ids, vacuous), vacuous=True,
            diagnostic=f"{semantics} semantics yielded no extensions; statuses are vacuous",
        )
    member_sets = [ext.members for ext in exts]
    in_all = frozenset.intersection(*member_sets)
    credulous_only = frozenset.union(*member_sets) - in_all
    labelled = _labelled(exts)
    records = []
    for attackers, members in zip(g.keys, g.members):
        first = g.ids[members[0]]
        labels = tuple([label for label, ext in labelled if first in ext.members])
        if first in in_all:
            status = "skeptically-justified"
        elif labels:
            status = "credulously-justified"
        elif not in_all.isdisjoint(attackers):
            status = "skeptically-rejected"
        elif not credulous_only.isdisjoint(attackers):
            status = "credulously-rejected"
        else:
            status = "undecided"
        records.append(ArgumentStatus(status, first in in_all, bool(labels), labels))
    return AcceptanceReport(semantics, exts, dict(zip(g.ids, map(records.__getitem__, g.class_at))))
