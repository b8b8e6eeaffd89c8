"""Assumption-based argumentation kernel.

A framework is a deductive system (sentences plus rules) together with a set
of assumptions and a total contrary map on them.  Arguments are deduction
trees built by backward chaining: assumptions and axioms are leaves, every
other node must be expanded by a rule whose head labels it, and a branch
never repeats a sentence.  Axioms are sentences accepted without proof and
without a contrary (here: principle disjuncts); they appear among an
argument's premises but not in its attackable support.

A derivation builds each sentence's proofs once and shares them among the
rule bodies that name it, unless they depend on the branch: the cycle guard
skipped a rule below the sentence (a branch sentence below it would put it on
a rule cycle, where the guard fires), or a leaf below it is an axiom that
heads a rule (a leaf in proofs, but a branch at the top level).  The top
level applies only rules whose head is kept; other heads are sub-proofs only.
The max_arguments cap bounds both the kept arguments and each sentence's
list of sub-proofs, as they are filled.  While it runs, a proof is a plain
tuple (sentence, rule id, child proofs, leaf mask, rule mask): bit i of the
leaf mask is the i-th leaf sentence (the assumptions in declaration order,
then the axioms, sorted) and bit i of the rule mask is the i-th rule.
Combining proofs ORs their masks, and two proofs of a sentence are the same
argument when their masks are equal, since no sentence is both an assumption
and an axiom.  A kept argument's premises are its leaves as a tuple in leaf
order, decoded once per distinct leaf mask and shared, and its support is
their assumption prefix.  It keeps its proof; its rule set and its
``TreeNode`` tree are built from the proof when first read.

An argument attacks another when its conclusion is the contrary of an
assumption in the other's support, so its attackers depend only on which of
its support's contraries some argument concludes; ``compute_attacks`` keys
each argument by the assumptions of its support with a concluded contrary,
builds one attacker tuple per distinct set of those contraries and shares
it, and stops past DEFAULT_MAX_ATTACKS attacker entries.  ``Aaf`` maps
each argument, in argument order, to its attackers and derives the set of
attack pairs from them.  Only flat frameworks are supported: no assumption
may head a rule.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, product

from .core import names_at
from .errors import FlatnessError, ResourceCapError, SchemaError, TotalityError

DEFAULT_MAX_DEPTH = 64
DEFAULT_MAX_ARGUMENTS = 100_000
DEFAULT_MAX_ATTACKS = 5_000_000


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
    both = framework.assumption_set & framework.axioms
    if both:
        raise SchemaError(f"sentences both assumption and axiom: {sorted(both)}")
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


# A deduction as a plain tuple (sentence, rule_id, children, ...), read like a
# TreeNode; derive_arguments appends the proof's leaf mask and rule mask.
_Proof = tuple


def _tree(proof: _Proof) -> TreeNode:
    sentence, rule_id, children = proof[:3]
    return TreeNode(sentence, rule_id, tuple(map(_tree, children)))


@dataclass(frozen=True, init=False)
class Argument:
    """{premises} ⊢ conclusion, deduced by proof.  The rule set and the
    TreeNode tree are built from the proof when first read."""

    id: str
    conclusion: str
    support: tuple[str, ...]   # assumption leaves in declaration order; attacks target these
    premises: tuple[str, ...]  # all leaves in leaf order: the support, then the axioms sorted
    proof: _Proof

    def __init__(self, id: str, conclusion: str, support: tuple[str, ...], premises: tuple[str, ...], proof: _Proof):
        # Written into the instance dict, as a frozen dataclass cannot set its
        # fields through __setattr__: one store per field, no call.
        fields = self.__dict__
        fields["id"] = id
        fields["conclusion"] = conclusion
        fields["support"] = support
        fields["premises"] = premises
        fields["proof"] = proof

    @cached_property
    def tree(self) -> TreeNode:
        return _tree(self.proof)

    @cached_property
    def rules_used(self) -> frozenset[str]:
        found, stack = set(), [self.proof]
        while stack:
            _, rule_id, children = stack.pop()[:3]
            if rule_id is not None:
                found.add(rule_id)
            stack.extend(children)
        return frozenset(found)


def _combine(rule: Rule, rule_bit: int, child_options: list[list[_Proof]]) -> Iterator[_Proof]:
    """The proofs of rule's head that apply rule to one proof of each body sentence."""
    head, rule_id = rule.head, rule.id
    for parts in product(*child_options):
        leaf_mask, rule_mask = 0, rule_bit
        for part in parts:
            leaf_mask |= part[3]
            rule_mask |= part[4]
        yield head, rule_id, parts, leaf_mask, rule_mask


class _Search:
    """One derivation's proof search.  Its methods call each other through
    the instance, so no closure cycle keeps the memo of sub-proofs alive
    once the derivation returns."""

    def __init__(self, framework: AbaFramework, leaves: Sequence[str], max_depth: int, max_arguments: int):
        self.framework = framework
        self.max_depth = max_depth
        self.max_arguments = max_arguments
        self.leaf_proofs = {s: [(s, None, (), 1 << i, 0)] for i, s in enumerate(leaves)}
        self.memo: dict[str, tuple[list[_Proof], int]] = {}  # sentence -> (proofs, call height)

    def proofs_for(self, sentence: str, path: frozenset[str], depth: int) -> tuple[list[_Proof], int, bool]:
        """The sentence's proofs, the height of the calls below this one, and
        whether the proofs depend on the branch: the cycle guard skipped a rule
        below, or a leaf below is an axiom that heads a rule."""
        framework, max_depth, max_arguments = self.framework, self.max_depth, self.max_arguments
        if sentence in self.memo:
            proofs, height = self.memo[sentence]
            if depth + height > max_depth:
                raise ResourceCapError("max_depth", max_depth)
            return proofs, height, False
        if depth > max_depth:
            raise ResourceCapError("max_depth", max_depth)
        if sentence in framework.assumption_set:
            return self.leaf_proofs[sentence], 0, False
        if sentence in framework.axioms:
            # An axiom that heads a rule is on the branch of that rule at the
            # top level, where the guard skips every rule naming it.
            return self.leaf_proofs[sentence], 0, sentence in framework.rules_by_head
        out: list[_Proof] = []
        height, guarded = 0, False
        for i, rule in framework.rules_by_head.get(sentence, ()):
            if any(b in path for b in rule.body):
                guarded = True  # cycle guard: a branch never repeats a sentence
                continue
            child_options, rule_height, rule_guarded = self.children(rule, path, depth)
            # Filled one at a time, so max_arguments bounds each sentence's list.
            out.extend(islice(_combine(rule, 1 << i, child_options), max_arguments + 1 - len(out)))
            if len(out) > max_arguments:
                raise ResourceCapError("max_arguments", max_arguments)
            height = max(height, rule_height)
            guarded = guarded or rule_guarded
        if not guarded:
            self.memo[sentence] = (out, height)
        return out, height, guarded

    def children(self, rule: Rule, path: frozenset[str], depth: int) -> tuple[list[list[_Proof]], int, bool]:
        """Each body sentence's proofs below depth, the height of the calls
        below the rule, and whether any of the proofs depend on the branch."""
        options: list[list[_Proof]] = []
        height, guarded = 0, False
        for b in rule.body:
            proofs, child_height, child_guarded = self.proofs_for(b, path | {b}, depth + 1)
            options.append(proofs)
            height = max(height, child_height + 1)
            guarded = guarded or child_guarded
        return options, height, guarded


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
    conclusion falls outside the given set are dropped before numbering, and
    only rules with a kept head are applied at the top level.  A sentence
    with more than max_arguments proofs below the top level also hits the
    max_arguments cap.
    """
    validate_framework(framework)
    keep = None if keep_conclusions is None else frozenset(keep_conclusions)
    leaves = framework.assumptions + tuple(sorted(framework.axioms))
    search = _Search(framework, leaves, max_depth, max_arguments)

    def top_level() -> Iterator[_Proof]:
        for a in framework.assumptions:
            if keep is None or a in keep:
                yield search.leaf_proofs[a][0]
        for i, rule in enumerate(framework.rules):
            if keep is None or rule.head in keep:
                yield from _combine(rule, 1 << i, search.children(rule, frozenset({rule.head}), 1)[0])

    collected: dict[tuple[str, int, int], _Proof] = {}  # (conclusion, leaves, rules) -> proof
    for proof in top_level():  # one at a time, so max_arguments bounds the work
        collected.setdefault((proof[0], proof[3], proof[4]), proof)
        if len(collected) > max_arguments:
            raise ResourceCapError("max_arguments", max_arguments)

    assumption_mask = (1 << len(framework.assumptions)) - 1
    leaf_tuples: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}  # leaf mask -> (support, premises)
    arguments = []
    for i, ((conclusion, leaf_mask, _), proof) in enumerate(collected.items()):
        found = leaf_tuples.get(leaf_mask)
        if found is None:
            premises = names_at(leaf_mask, leaves)
            # The assumptions lead the leaves; a whole-tuple slice is the tuple itself.
            found = leaf_tuples[leaf_mask] = (premises[:(leaf_mask & assumption_mask).bit_count()], premises)
        arguments.append(Argument(f"{label}{i + 1}", conclusion, *found, proof))
    return tuple(arguments)


def compute_attacks(
    arguments: Sequence[Argument],
    framework: AbaFramework,
) -> dict[str, tuple[str, ...]]:
    """Each argument's attackers, in argument order: X attacks Y iff X's
    conclusion is the contrary of an assumption in Y's support.

    The attackers depend only on the support's assumptions whose contrary
    some argument concludes, so they are keyed by that part of the support;
    keys with the same such contraries share one attacker tuple.  Past
    DEFAULT_MAX_ATTACKS attacker entries in all, it raises ResourceCapError."""
    positions: dict[str, list[int]] = {}  # conclusion -> positions of the arguments concluding it
    for i, arg in enumerate(arguments):
        positions.setdefault(arg.conclusion, []).append(i)
    contraries = framework.contraries
    has_contrary = frozenset(contraries)
    hit = frozenset(a for a, c in contraries.items() if c in positions)
    by_key: dict[frozenset[str], tuple[str, ...]] = {}  # support & hit -> attackers
    shared: dict[frozenset[str], tuple[str, ...]] = {}  # concluded contraries -> attackers
    attackers: dict[str, tuple[str, ...]] = {}
    total, limit = 0, DEFAULT_MAX_ATTACKS
    for arg in arguments:
        support = arg.support
        # Checked first: an assumption without a contrary is never in hit.
        if not has_contrary.issuperset(support):
            missing = next(s for s in support if s not in has_contrary)
            raise SchemaError(f"argument {arg.id!r}: {missing!r} is not an assumption")
        key = hit.intersection(support)
        found = by_key.get(key)
        if found is None:
            concluded = frozenset(contraries[a] for a in key)
            found = shared.get(concluded)
            if found is None:
                # Distinct contraries, so an attacker is listed once; sorted positions keep argument order.
                found_at = sorted(chain.from_iterable(positions[c] for c in concluded))
                found = shared[concluded] = tuple(arguments[i].id for i in found_at)
            by_key[key] = found
        attackers[arg.id] = found
        total += len(found)
        if total > limit:
            raise ResourceCapError("max_attacks", limit)
    return attackers


def union_of(tuples: Iterable[tuple[str, ...]]) -> set[str]:
    """The union of the tuples, reading each distinct tuple object once:
    attacker tuples are shared, and one may be listed many times."""
    return set().union(*{id(t): t for t in tuples}.values())


@dataclass(frozen=True)
class Aaf:
    """Abstract argumentation framework: indexed arguments and each one's attackers,
    both the map and each attacker tuple in argument order."""

    arguments: tuple[Argument, ...]
    attackers_of: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        ids = {a.id for a in self.arguments}
        if len(ids) != len(self.arguments):
            raise SchemaError("duplicate argument ids")
        if tuple(self.attackers_of) != self.ids:
            raise SchemaError("the attackers must be listed for exactly the argument ids, in argument order")
        unknown = union_of(self.attackers_of.values()) - ids
        if unknown:
            raise SchemaError(f"attackers {sorted(unknown)} are unknown arguments")

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
    def attacks(self) -> frozenset[tuple[str, str]]:
        """The attack relation as (attacker, attacked) id pairs."""
        return frozenset((src, dst) for dst, srcs in self.attackers_of.items() for src in srcs)

    def argument(self, argument_id: str) -> Argument:
        return self.by_id[argument_id]


def to_aaf(arguments: Sequence[Argument], attacks: Iterable[tuple[str, str]]) -> Aaf:
    """The Aaf of (attacker, attacked) id pairs; a repeated pair counts once."""
    attackers: dict[str, set[str]] = {a.id: set() for a in arguments}
    for src, dst in attacks:
        if src not in attackers or dst not in attackers:
            raise SchemaError(f"attack ({src!r}, {dst!r}) references an unknown argument")
        attackers[dst].add(src)
    order = {a.id: i for i, a in enumerate(arguments)}
    return Aaf(tuple(arguments), {dst: tuple(sorted(srcs, key=order.get)) for dst, srcs in attackers.items()})


def ordered_premises(premises: Iterable[str], premise_order: Mapping[str, int] | None = None) -> list[str]:
    """Display order: by position in premise_order, unlisted sentences last,
    ties by name.  Listed sentences must have distinct positions."""
    order = premise_order or {}
    try:
        return sorted(premises, key=order.__getitem__)
    except KeyError:  # some premise is unlisted
        return sorted(premises, key=lambda s: (order.get(s, len(order)), s))


def argument_text(premises: Iterable[str], conclusion: str) -> str:
    """Display form '{p1, p2} ⊢ conclusion', premises in the order given."""
    return f"{{{', '.join(premises)}}} ⊢ {conclusion}"


def render_argument(argument: Argument, premise_order: Mapping[str, int] | None = None) -> str:
    """argument_text with the premises canonically ordered."""
    return argument_text(ordered_premises(argument.premises, premise_order), argument.conclusion)
