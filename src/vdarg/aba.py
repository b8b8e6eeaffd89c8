"""Assumption-based argumentation kernel.

A framework is a deductive system (sentences plus rules) together with a set
of assumptions and a total contrary map on them.  Arguments are deduction
trees built by backward chaining: assumptions and axioms are leaves, every
other node must be expanded by a rule whose head labels it, and a branch
never repeats a sentence.  Axioms are sentences accepted without proof and
without a contrary (here: principle disjuncts); they appear among an
argument's premises but not in its attackable support.

An argument attacks another when its conclusion is the contrary of an
assumption in the other's support.  Only flat frameworks are supported: no
assumption may head a rule.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import FlatnessError, ResourceCapError, SchemaError, TotalityError

DEFAULT_MAX_DEPTH = 64
DEFAULT_MAX_ARGUMENTS = 100_000


@dataclass(frozen=True)
class Rule:
    id: str
    head: str
    body: tuple[str, ...] = ()


@dataclass(frozen=True)
class AbaFramework:
    language: frozenset[str]
    rules: tuple[Rule, ...]
    assumptions: tuple[str, ...]  # declaration order matters for argument numbering
    contraries: Mapping[str, str]
    axioms: frozenset[str] = frozenset()

    @cached_property
    def assumption_set(self) -> frozenset[str]:
        return frozenset(self.assumptions)

    @cached_property
    def rules_by_head(self) -> Mapping[str, tuple[tuple[int, Rule], ...]]:
        index: dict[str, list[tuple[int, Rule]]] = {}
        for i, rule in enumerate(self.rules):
            index.setdefault(rule.head, []).append((i, rule))
        return {head: tuple(entries) for head, entries in index.items()}


def validate_framework(framework: AbaFramework) -> AbaFramework:
    """Return the framework unchanged if all structural invariants hold."""
    if not framework.assumptions:
        raise SchemaError("a framework needs a non-empty assumption set")
    if len(framework.assumption_set) != len(framework.assumptions):
        raise SchemaError("duplicate assumptions")
    dangling = framework.assumption_set - framework.language
    if dangling:
        raise SchemaError(f"assumptions outside the language: {sorted(dangling)}")
    if framework.axioms - framework.language:
        raise SchemaError("axioms outside the language")
    for a in framework.assumptions:
        if a not in framework.contraries:
            raise TotalityError(f"assumption {a!r} has no contrary")
        if framework.contraries[a] not in framework.language:
            raise SchemaError(f"contrary of {a!r} is outside the language")
    seen_ids: set[str] = set()
    for rule in framework.rules:
        if rule.id in seen_ids:
            raise SchemaError(f"duplicate rule id {rule.id!r}")
        seen_ids.add(rule.id)
        if rule.head in framework.assumption_set:
            raise FlatnessError(f"rule {rule.id!r} derives assumption {rule.head!r}")
        if rule.head not in framework.language:
            raise SchemaError(f"rule {rule.id!r}: head outside the language")
        for s in rule.body:
            if s not in framework.language:
                raise SchemaError(f"rule {rule.id!r}: body sentence {s!r} outside the language")
    return framework


@dataclass(frozen=True)
class TreeNode:
    """Deduction tree node.  rule_id None marks a leaf (assumption or axiom);
    a rule_id with no children marks an applied empty-body rule."""

    sentence: str
    rule_id: str | None = None
    children: tuple["TreeNode", ...] = ()


@dataclass(frozen=True)
class Argument:
    id: str
    conclusion: str
    support: frozenset[str]   # assumption leaves; attacks target these
    premises: frozenset[str]  # support plus axiom leaves, as displayed
    rules_used: frozenset[str]
    tree: TreeNode

    @property
    def identity(self) -> tuple[str, frozenset[str], frozenset[str]]:
        return (self.conclusion, self.support, self.rules_used)


@dataclass(frozen=True)
class _Proof:
    tree: TreeNode
    support: frozenset[str]
    premises: frozenset[str]
    rules_used: frozenset[str]
    depth: int


def derive_arguments(
    framework: AbaFramework,
    *,
    label: str = "A",
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_arguments: int = DEFAULT_MAX_ARGUMENTS,
    keep_conclusions: Iterable[str] | None = None,
) -> tuple[Argument, ...]:
    """Enumerate every argument constructible by backward chaining.

    Returns the single-assumption argument {a} |- a for every assumption,
    then one argument per distinct (conclusion, support, rules used) rooted
    at each rule, in rule order.  With keep_conclusions, arguments whose
    conclusion falls outside the given set are dropped before numbering.
    """
    validate_framework(framework)
    keep = None if keep_conclusions is None else frozenset(keep_conclusions)

    def proofs_for(sentence: str, path: frozenset[str], depth: int) -> list[_Proof]:
        if depth > max_depth:
            raise ResourceCapError("max_depth", max_depth)
        if sentence in framework.assumption_set:
            leaf = TreeNode(sentence)
            return [_Proof(leaf, frozenset({sentence}), frozenset({sentence}), frozenset(), depth)]
        if sentence in framework.axioms:
            leaf = TreeNode(sentence)
            return [_Proof(leaf, frozenset(), frozenset({sentence}), frozenset(), depth)]
        out: list[_Proof] = []
        for _, rule in framework.rules_by_head.get(sentence, ()):
            if any(b in path for b in rule.body):
                continue  # cycle guard: a branch never repeats a sentence
            out.extend(_apply_rule(rule, path, depth))
        return out

    def _apply_rule(rule: Rule, path: frozenset[str], depth: int) -> list[_Proof]:
        child_options = [proofs_for(b, path | {b}, depth + 1) for b in rule.body]
        combos: list[_Proof] = []
        for parts in product(*child_options):
            tree = TreeNode(rule.head, rule.id, tuple(p.tree for p in parts))
            support = frozenset().union(*(p.support for p in parts)) if parts else frozenset()
            premises = frozenset().union(*(p.premises for p in parts)) if parts else frozenset()
            rules_used = frozenset({rule.id}).union(*(p.rules_used for p in parts))
            node_depth = max([p.depth for p in parts], default=depth)
            combos.append(_Proof(tree, support, premises, rules_used, node_depth))
        return combos

    collected: dict[tuple, tuple[str, _Proof]] = {}

    def add(conclusion: str, proof: _Proof) -> None:
        if keep is not None and conclusion not in keep:
            return
        key = (conclusion, proof.support, proof.rules_used)
        if key in collected:
            return
        collected[key] = (conclusion, proof)
        if len(collected) > max_arguments:
            raise ResourceCapError("max_arguments", max_arguments)

    for a in framework.assumptions:
        leaf = TreeNode(a)
        add(a, _Proof(leaf, frozenset({a}), frozenset({a}), frozenset(), 1))
    for rule in framework.rules:
        for proof in _apply_rule(rule, frozenset({rule.head}), 1):
            add(rule.head, proof)

    return tuple(
        Argument(f"{label}{i + 1}", conclusion, p.support, p.premises, p.rules_used, p.tree)
        for i, (conclusion, p) in enumerate(collected.values())
    )


def compute_attacks(
    arguments: Sequence[Argument],
    framework: AbaFramework,
) -> frozenset[tuple[str, str]]:
    """(X, Y) iff X's conclusion is the contrary of an assumption in Y's support."""
    targets_by_contrary: dict[str, list[str]] = {}
    for arg in arguments:
        for a in arg.support:
            targets_by_contrary.setdefault(framework.contraries[a], []).append(arg.id)
    attacks = set()
    for arg in arguments:
        for target in targets_by_contrary.get(arg.conclusion, ()):
            attacks.add((arg.id, target))
    return frozenset(attacks)


@dataclass(frozen=True)
class Aaf:
    """Abstract argumentation framework: indexed arguments plus an attack relation."""

    arguments: tuple[Argument, ...]
    attacks: frozenset[tuple[str, str]]

    def __post_init__(self):
        ids = {a.id for a in self.arguments}
        if len(ids) != len(self.arguments):
            raise SchemaError("duplicate argument ids")
        for src, dst in self.attacks:
            if src not in ids or dst not in ids:
                raise SchemaError(f"attack ({src!r}, {dst!r}) references an unknown argument")

    @cached_property
    def by_id(self) -> Mapping[str, Argument]:
        return {a.id: a for a in self.arguments}

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arguments)

    @cached_property
    def index(self) -> Mapping[str, int]:
        """Position of each argument id in argument order."""
        return {arg_id: i for i, arg_id in enumerate(self.ids)}

    @cached_property
    def attackers_of(self) -> Mapping[str, tuple[str, ...]]:
        """Each argument's attackers, listed in argument order."""
        attackers: dict[str, list[str]] = {arg_id: [] for arg_id in self.ids}
        for src, dst in self.attacks:
            attackers[dst].append(src)
        return {arg_id: tuple(sorted(lst, key=self.index.__getitem__)) for arg_id, lst in attackers.items()}

    def argument(self, argument_id: str) -> Argument:
        return self.by_id[argument_id]


def to_aaf(arguments: Sequence[Argument], attacks: Iterable[tuple[str, str]]) -> Aaf:
    return Aaf(tuple(arguments), frozenset(attacks))


def ordered_premises(premises: Iterable[str], premise_order: Mapping[str, int] | None = None) -> list[str]:
    """Display order: by position in premise_order, unlisted sentences last,
    ties by name."""
    order = premise_order or {}
    return sorted(premises, key=lambda s: (order.get(s, len(order)), s))


def render_argument(argument: Argument, premise_order: Mapping[str, int] | None = None) -> str:
    """Display form '{p1, p2} ⊢ conclusion' with premises canonically ordered."""
    inner = ", ".join(ordered_premises(argument.premises, premise_order))
    return f"{{{inner}}} ⊢ {argument.conclusion}"
