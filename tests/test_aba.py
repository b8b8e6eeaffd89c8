"""Kernel behaviour: validation, argument derivation, attacks, determinism."""

from __future__ import annotations

import gc
import random
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, dataclass, fields, replace
from itertools import product

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from vdarg import (
    Aaf,
    AbaFramework,
    FlatnessError,
    ResourceCapError,
    Rule,
    SchemaError,
    TotalityError,
    compute_attacks,
    derive_arguments,
    to_aaf,
    validate_framework,
)
from vdarg import aba
from vdarg.aba import TreeNode


def nixon_framework() -> AbaFramework:
    language = frozenset({"quaker", "republican", "pacifist", "~pacifist", "asm_p", "asm_np"})
    rules = (
        Rule("r1", "quaker"),
        Rule("r2", "republican"),
        Rule("r3", "pacifist", ("quaker", "asm_p")),
        Rule("r4", "~pacifist", ("republican", "asm_np")),
    )
    return AbaFramework(
        language=language,
        rules=rules,
        assumptions=("asm_p", "asm_np"),
        contraries={"asm_p": "~pacifist", "asm_np": "pacifist"},
    )


def test_nixon_framework_validates():
    validate_framework(nixon_framework())


def test_missing_contrary_is_a_totality_error():
    fw = AbaFramework(
        language=frozenset({"a", "b"}),
        rules=(),
        assumptions=("a", "b"),
        contraries={"a": "b"},
    )
    with pytest.raises(TotalityError):
        validate_framework(fw)


def test_assumption_as_rule_head_is_a_flatness_error():
    fw = AbaFramework(
        language=frozenset({"a", "b"}),
        rules=(Rule("r1", "a", ("b",)),),
        assumptions=("a",),
        contraries={"a": "b"},
    )
    with pytest.raises(FlatnessError):
        validate_framework(fw)


def test_assumption_that_is_also_an_axiom_is_a_schema_error():
    fw = AbaFramework(
        language=frozenset({"a", "na", "s"}),
        rules=(Rule("r1", "s", ("a",)),),
        assumptions=("a",),
        contraries={"a": "na"},
        axioms=frozenset({"a"}),
    )
    with pytest.raises(SchemaError, match="both assumption and axiom"):
        validate_framework(fw)
    with pytest.raises(SchemaError):
        derive_arguments(fw)


def test_dangling_sentence_is_a_schema_error():
    fw = AbaFramework(
        language=frozenset({"a", "b"}),
        rules=(Rule("r1", "b", ("ghost",)),),
        assumptions=("a",),
        contraries={"a": "b"},
    )
    with pytest.raises(SchemaError):
        validate_framework(fw)


def test_nixon_has_exactly_four_relevant_arguments():
    fw = nixon_framework()
    relevant = set(fw.assumptions) | set(fw.contraries.values())
    args = derive_arguments(fw, label="Y", keep_conclusions=relevant)
    shapes = [(a.id, sorted(a.support), a.conclusion) for a in args]
    assert shapes == [
        ("Y1", ["asm_p"], "asm_p"),
        ("Y2", ["asm_np"], "asm_np"),
        ("Y3", ["asm_p"], "pacifist"),
        ("Y4", ["asm_np"], "~pacifist"),
    ]


def test_unfiltered_enumeration_includes_fact_arguments():
    args = derive_arguments(nixon_framework())
    conclusions = sorted(a.conclusion for a in args)
    assert conclusions == sorted(
        ["asm_p", "asm_np", "pacifist", "~pacifist", "quaker", "republican"]
    )


def test_framework_with_no_rules_yields_one_argument_per_assumption():
    fw = AbaFramework(
        language=frozenset({"a", "b", "na", "nb"}),
        rules=(),
        assumptions=("a", "b"),
        contraries={"a": "na", "b": "nb"},
    )
    args = derive_arguments(fw)
    assert [(a.conclusion, set(a.support)) for a in args] == [("a", {"a"}), ("b", {"b"})]


def test_nixon_attacks():
    fw = nixon_framework()
    relevant = set(fw.assumptions) | set(fw.contraries.values())
    args = derive_arguments(fw, label="Y", keep_conclusions=relevant)
    attacks = compute_attacks(args, fw)
    assert attacks == {"Y1": ("Y4",), "Y2": ("Y3",), "Y3": ("Y4",), "Y4": ("Y3",)}
    assert Aaf(args, attacks).attacks == frozenset({("Y4", "Y1"), ("Y4", "Y3"), ("Y3", "Y2"), ("Y3", "Y4")})


def test_disjoint_supports_and_plain_conclusions_do_not_attack():
    fw = AbaFramework(
        language=frozenset({"a", "b", "na", "nb", "p", "q"}),
        rules=(Rule("r1", "p", ("a",)), Rule("r2", "q", ("b",))),
        assumptions=("a", "b"),
        contraries={"a": "na", "b": "nb"},
    )
    args = derive_arguments(fw)
    assert compute_attacks(args, fw) == {a.id: () for a in args}


def test_attacks_recomputed_from_stored_trees_match():
    fw = nixon_framework()
    args = derive_arguments(fw)
    attacks = compute_attacks(args, fw)

    def leaves(node):
        if not node.children and node.rule_id is None:
            yield node.sentence
        for child in node.children:
            yield from leaves(child)

    recomputed = set()
    for x in args:
        for y in args:
            support = {s for s in leaves(y.tree) if s in fw.assumption_set}
            assert support == set(y.support)
            if any(fw.contraries[a] == x.conclusion for a in support):
                recomputed.add((x.id, y.id))
    assert recomputed == Aaf(args, attacks).attacks


def test_axioms_are_premises_but_not_support():
    fw = AbaFramework(
        language=frozenset({"a", "na", "u", "goal"}),
        rules=(Rule("r1", "goal", ("u", "a")),),
        assumptions=("a",),
        contraries={"a": "na"},
        axioms=frozenset({"u"}),
    )
    args = derive_arguments(fw)
    goal = next(a for a in args if a.conclusion == "goal")
    assert goal.support == frozenset({"a"})
    assert goal.premises == frozenset({"a", "u"})


def test_underivable_body_sentence_blocks_the_rule():
    # "u" heads no rule and is neither assumption nor axiom: no argument arises.
    fw = AbaFramework(
        language=frozenset({"a", "na", "u", "goal"}),
        rules=(Rule("r1", "goal", ("u", "a")),),
        assumptions=("a",),
        contraries={"a": "na"},
    )
    args = derive_arguments(fw)
    assert [a.conclusion for a in args] == ["a"]


def test_two_cycle_rules_terminate_without_arguments():
    fw = AbaFramework(
        language=frozenset({"p", "q", "a", "na"}),
        rules=(Rule("r1", "p", ("q",)), Rule("r2", "q", ("p",))),
        assumptions=("a",),
        contraries={"a": "na"},
    )
    args = derive_arguments(fw)
    assert [a.conclusion for a in args] == ["a"]


def test_derivation_is_deterministic():
    fw = nixon_framework()
    first = derive_arguments(fw, label="Y")
    second = derive_arguments(fw, label="Y")
    assert [(a.id, a.conclusion, a.support, a.rules_used) for a in first] == [
        (a.id, a.conclusion, a.support, a.rules_used) for a in second
    ]
    assert compute_attacks(first, fw) == compute_attacks(second, fw)


def test_max_arguments_cap():
    fw = nixon_framework()
    with pytest.raises(ResourceCapError) as err:
        derive_arguments(fw, max_arguments=2)
    assert err.value.cap == "max_arguments"


def test_max_depth_cap():
    # A long chain p1 <- p2 <- ... <- a exceeds a depth limit of 3.
    chain = [Rule(f"r{i}", f"p{i}", (f"p{i + 1}",)) for i in range(1, 6)]
    chain.append(Rule("r6", "p6", ("a",)))
    fw = AbaFramework(
        language=frozenset({f"p{i}" for i in range(1, 7)} | {"a", "na"}),
        rules=tuple(chain),
        assumptions=("a",),
        contraries={"a": "na"},
    )
    with pytest.raises(ResourceCapError) as err:
        derive_arguments(fw, max_depth=3)
    assert err.value.cap == "max_depth"


def test_duplicate_deductions_are_merged():
    # Two routes to the same (support, conclusion, rules) collapse into one.
    fw = AbaFramework(
        language=frozenset({"a", "na", "p"}),
        rules=(Rule("r1", "p", ("a",)), Rule("r2", "p", ("a",))),
        assumptions=("a",),
        contraries={"a": "na"},
    )
    args = derive_arguments(fw)
    p_args = [a for a in args if a.conclusion == "p"]
    assert len(p_args) == 2  # distinct rule sets stay distinct
    assert len({(a.conclusion, a.support, a.rules_used) for a in p_args}) == 2


def test_aaf_rejects_unknown_attack_endpoints():
    fw = nixon_framework()
    args = derive_arguments(fw)
    with pytest.raises(SchemaError):
        to_aaf(args, {("Y1", "ghost")})
    attackers = {a.id: () for a in args}
    with pytest.raises(SchemaError, match="ghost"):
        Aaf(args, {**attackers, args[0].id: ("ghost",)})
    with pytest.raises(SchemaError, match="exactly the argument ids"):
        Aaf(args, {**attackers, "ghost": ()})
    with pytest.raises(SchemaError, match="exactly the argument ids"):
        Aaf(args, {a.id: () for a in args[1:]})
    with pytest.raises(SchemaError, match="in argument order"):
        Aaf(args, dict(reversed(attackers.items())))
    with pytest.raises(SchemaError, match="duplicate"):
        Aaf(args + args[:1], attackers)


def test_an_attacker_on_two_assumptions_with_one_contrary_is_listed_once():
    fw = AbaFramework(
        language=frozenset({"a", "b", "n", "p"}),
        rules=(Rule("r1", "p", ("a", "b")), Rule("r2", "n")),
        assumptions=("a", "b"),
        contraries={"a": "n", "b": "n"},
    )
    args = derive_arguments(fw)
    assert [(a.id, a.conclusion, sorted(a.support)) for a in args] == [
        ("A1", "a", ["a"]), ("A2", "b", ["b"]), ("A3", "p", ["a", "b"]), ("A4", "n", []),
    ]
    assert compute_attacks(args, fw) == {"A1": ("A4",), "A2": ("A4",), "A3": ("A4",), "A4": ()}


def test_support_outside_the_framework_is_a_schema_error():
    args = derive_arguments(nixon_framework(), label="Y")
    other = AbaFramework(
        language=frozenset({"x", "nx"}),
        rules=(),
        assumptions=("x",),
        contraries={"x": "nx"},
    )
    with pytest.raises(SchemaError, match="'asm_p'"):
        compute_attacks(args, other)


def test_max_depth_cap_ignores_heads_that_are_not_kept():
    # The same chain, but only the assumption is kept: p1 is never a top-level
    # conclusion, and no kept argument needs it.
    chain = [Rule(f"r{i}", f"p{i}", (f"p{i + 1}",)) for i in range(1, 6)]
    chain.append(Rule("r6", "p6", ("a",)))
    fw = AbaFramework(
        language=frozenset({f"p{i}" for i in range(1, 7)} | {"a", "na"}),
        rules=tuple(chain),
        assumptions=("a",),
        contraries={"a": "na"},
    )
    assert [a.conclusion for a in derive_arguments(fw, max_depth=3, keep_conclusions={"a"})] == ["a"]
    with pytest.raises(ResourceCapError) as err:
        derive_arguments(fw, max_depth=3, keep_conclusions={"a", "p1"})
    assert err.value.cap == "max_depth"


def count_built_proofs(monkeypatch) -> Counter:
    """Count, per rule head, the proofs that derive_arguments builds."""
    built: Counter = Counter()
    combine = aba._combine

    def counting(rule, rule_bit, child_options):
        for proof in combine(rule, rule_bit, child_options):
            built[rule.head] += 1
            yield proof

    monkeypatch.setattr(aba, "_combine", counting)
    return built


def test_max_arguments_bounds_the_work_of_one_rule(monkeypatch):
    # One kept rule over 16 body sentences with two proofs each: 2^16 combinations.
    built = count_built_proofs(monkeypatch)
    body = tuple(f"p{i}" for i in range(16))
    rules = [Rule(f"{side}{i}", p) for i, p in enumerate(body) for side in "xy"]
    rules.append(Rule("goal", "g", body))
    fw = AbaFramework(
        language=frozenset(body) | {"g", "a", "na"},
        rules=tuple(rules),
        assumptions=("a",),
        contraries={"a": "na"},
    )
    with pytest.raises(ResourceCapError) as err:
        derive_arguments(fw, max_arguments=10, keep_conclusions={"g"})
    assert (err.value.cap, err.value.limit) == ("max_arguments", 10)
    assert sum(built.values()) <= 43  # 32 body proofs and 11 goal proofs


def test_max_arguments_bounds_the_proofs_of_one_sentence(monkeypatch):
    # s <- p0, ..., p5 with two proofs of each p_i: 64 proofs of s, below the
    # one kept rule g <- s.  The cap stops s's list as it is filled.
    built = count_built_proofs(monkeypatch)
    body = tuple(f"p{i}" for i in range(6))
    rules = [Rule(f"{side}{i}", p) for i, p in enumerate(body) for side in "xy"]
    rules += [Rule("sub", "s", body), Rule("goal", "g", ("s",))]
    fw = AbaFramework(
        language=frozenset(body) | {"s", "g", "a", "na"},
        rules=tuple(rules),
        assumptions=("a",),
        contraries={"a": "na"},
    )
    with pytest.raises(ResourceCapError) as err:
        derive_arguments(fw, max_arguments=10, keep_conclusions={"g"})
    assert (err.value.cap, err.value.limit) == ("max_arguments", 10)
    assert built["s"] <= 11
    assert built["g"] == 0
    assert len(derive_arguments(fw, max_arguments=64, keep_conclusions={"g"})) == 64


def test_trees_and_rule_sets_are_built_when_first_read():
    fw = wide_mask_framework(0)
    caps = dict(max_depth=64, max_arguments=100_000, keep_conclusions=None)
    args = derive_arguments(fw, **caps)
    assert not any({"tree", "rules_used"} & vars(a).keys() for a in args)
    assert [(a.rules_used, a.tree) for a in args] == [
        (rules_used, tree) for _, _, _, _, rules_used, tree in reference_arguments(fw, **caps)
    ]
    assert all({"tree", "rules_used"} <= vars(a).keys() for a in args)


# Reference derivation: backward chaining with the cycle guard and no shared
# proofs, every body sentence derived afresh on every branch.  Like
# derive_arguments, it applies only rules with a kept head at the top level,
# and a sentence below the top level with more than max_arguments proofs hits
# the max_arguments cap.


@dataclass(frozen=True)
class _RefProof:
    tree: TreeNode
    support: frozenset[str]
    premises: frozenset[str]
    rules_used: frozenset[str]
    depth: int


def reference_arguments(framework, *, max_depth, max_arguments, keep_conclusions):
    keep = None if keep_conclusions is None else frozenset(keep_conclusions)

    def proofs_for(sentence, path, depth):
        if depth > max_depth:
            raise ResourceCapError("max_depth", max_depth)
        if sentence in framework.assumption_set:
            leaf = TreeNode(sentence)
            return [_RefProof(leaf, frozenset({sentence}), frozenset({sentence}), frozenset(), depth)]
        if sentence in framework.axioms:
            leaf = TreeNode(sentence)
            return [_RefProof(leaf, frozenset(), frozenset({sentence}), frozenset(), depth)]
        out = []
        for _, rule in framework.rules_by_head.get(sentence, ()):
            if any(b in path for b in rule.body):
                continue
            out.extend(_apply_rule(rule, path, depth))
            if len(out) > max_arguments:
                raise ResourceCapError("max_arguments", max_arguments)
        return out

    def _apply_rule(rule, path, depth):
        child_options = [proofs_for(b, path | {b}, depth + 1) for b in rule.body]
        combos = []
        for parts in product(*child_options):
            tree = TreeNode(rule.head, rule.id, tuple(p.tree for p in parts))
            support = frozenset().union(*(p.support for p in parts)) if parts else frozenset()
            premises = frozenset().union(*(p.premises for p in parts)) if parts else frozenset()
            rules_used = frozenset({rule.id}).union(*(p.rules_used for p in parts))
            node_depth = max([p.depth for p in parts], default=depth)
            combos.append(_RefProof(tree, support, premises, rules_used, node_depth))
        return combos

    collected = {}

    def add(conclusion, proof):
        if keep is not None and conclusion not in keep:
            return
        key = (conclusion, proof.support, proof.rules_used)
        if key in collected:
            return
        collected[key] = (conclusion, proof)
        if len(collected) > max_arguments:
            raise ResourceCapError("max_arguments", max_arguments)

    for a in framework.assumptions:
        add(a, _RefProof(TreeNode(a), frozenset({a}), frozenset({a}), frozenset(), 1))
    for rule in framework.rules:
        if keep is not None and rule.head not in keep:
            continue
        for proof in _apply_rule(rule, frozenset({rule.head}), 1):
            add(rule.head, proof)
    return [
        (f"A{i + 1}", conclusion, p.support, p.premises, p.rules_used, p.tree)
        for i, (conclusion, p) in enumerate(collected.values())
    ]


def derivation_outcome(derive, framework, **caps):
    try:
        return derive(framework, **caps)
    except ResourceCapError as exc:
        return exc.cap


def production_arguments(framework, **caps):
    return [
        (a.id, a.conclusion, a.support, a.premises, a.rules_used, a.tree)
        for a in derive_arguments(framework, **caps)
    ]


@st.composite
def flat_frameworks(draw):
    """Up to 8 sentences, at least one assumption, some axioms, and up to 8
    rules whose bodies may repeat sentences, loop on their head or be empty."""
    sentences = [f"s{i}" for i in range(draw(st.integers(1, 8)))]
    assumptions = [s for s in sentences if draw(st.booleans())] or [sentences[0]]
    others = [s for s in sentences if s not in assumptions]
    axioms = frozenset(s for s in others if draw(st.integers(0, 3)) == 0)
    rules = []
    if others:
        for i in range(draw(st.integers(0, 8))):
            head = draw(st.sampled_from(others))
            body = draw(st.lists(st.sampled_from(sentences), max_size=3))
            rules.append(Rule(f"r{i + 1}", head, tuple(body)))
    return AbaFramework(
        language=frozenset(sentences),
        rules=tuple(rules),
        assumptions=tuple(assumptions),
        contraries={a: draw(st.sampled_from(sentences)) for a in assumptions},
        axioms=axioms,
    )


@settings(max_examples=400, deadline=None)
@given(
    framework=flat_frameworks(),
    keep_mask=st.one_of(st.none(), st.integers(0, 255)),
    max_depth=st.integers(1, 6),
    max_arguments=st.integers(1, 40),
)
def test_shared_proofs_match_the_reference_derivation(framework, keep_mask, max_depth, max_arguments):
    keep = None if keep_mask is None else {f"s{i}" for i in range(8) if keep_mask >> i & 1}
    caps = dict(max_depth=max_depth, max_arguments=max_arguments, keep_conclusions=keep)
    assert derivation_outcome(production_arguments, framework, **caps) == derivation_outcome(
        reference_arguments, framework, **caps
    )


def reference_attacks(arguments, framework):
    """X attacks Y iff X's conclusion is a contrary of an assumption in Y's
    support, checked for every pair; attackers in argument order."""
    return {
        y.id: tuple(x.id for x in arguments if x.conclusion in {framework.contraries[a] for a in y.support})
        for y in arguments
    }


@settings(max_examples=400, deadline=None)
@given(framework=flat_frameworks(), keep_mask=st.one_of(st.none(), st.integers(0, 255)))
def test_attackers_match_the_all_pairs_definition(framework, keep_mask):
    keep = None if keep_mask is None else {f"s{i}" for i in range(8) if keep_mask >> i & 1}
    try:
        args = derive_arguments(framework, max_arguments=500, keep_conclusions=keep)
    except ResourceCapError:
        reject()
    attacks = compute_attacks(args, framework)
    assert list(attacks) == [a.id for a in args]
    assert attacks == reference_attacks(args, framework)


def per_argument_attacks(arguments, framework):
    """compute_attacks with one attacker list per argument, filled one
    attacker at a time from an index of the lists by contrary."""
    attackers = {}
    targets_by_contrary = {}
    for arg in arguments:
        target = attackers[arg.id] = []
        try:
            wanted = {framework.contraries[a] for a in arg.support}
        except KeyError as missing:
            raise SchemaError(f"argument {arg.id!r}: {missing.args[0]!r} is not an assumption") from None
        for contrary in wanted:
            targets_by_contrary.setdefault(contrary, []).append(target)
    for arg in arguments:
        for target in targets_by_contrary.get(arg.conclusion, ()):
            target.append(arg.id)
    return {arg_id: tuple(lst) for arg_id, lst in attackers.items()}


def attack_outcome(compute, arguments, framework):
    try:
        return compute(arguments, framework)
    except SchemaError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    framework=flat_frameworks(),
    keep_mask=st.one_of(st.none(), st.integers(0, 255)),
    drop_mask=st.one_of(st.just(0), st.integers(1, 255)),
)
@example(  # s2 lacks a contrary; s0's contrary is the only one concluded
    framework=AbaFramework(
        language=frozenset({"s0", "s1", "s2"}),
        rules=(Rule("r1", "s1", ("s0", "s2")),),
        assumptions=("s0", "s2"),
        contraries={"s0": "s1", "s2": "s1"},
        axioms=frozenset({"s1"}),
    ),
    keep_mask=0b10,
    drop_mask=0b10,
)
def test_shared_attackers_match_the_per_argument_reference(framework, keep_mask, drop_mask):
    keep = None if keep_mask is None else {f"s{i}" for i in range(8) if keep_mask >> i & 1}
    try:
        args = derive_arguments(framework, max_arguments=500, keep_conclusions=keep)
    except ResourceCapError:
        reject()
    # Drop the contraries of some assumptions: a support sentence missing
    # from the framework is a SchemaError that names it.
    dropped = {a for i, a in enumerate(framework.assumptions) if drop_mask >> i & 1}
    other = replace(framework, contraries={a: c for a, c in framework.contraries.items() if a not in dropped})
    got = attack_outcome(compute_attacks, args, other)
    assert got == attack_outcome(per_argument_attacks, args, other)
    if isinstance(got, str):
        assert any(f"{a!r} is not an assumption" in got for a in dropped)
        return
    # Arguments whose supports have the same concluded contraries share one tuple.
    concluded = {a.conclusion for a in args}
    shared = {}
    for a in args:
        key = frozenset(framework.contraries[s] for s in a.support) & concluded
        assert got[a.id] is shared.setdefault(key, got[a.id])


class _InOrder(frozenset):
    """A set that iterates its members in the order given, in every process."""

    def __new__(cls, members):
        self = super().__new__(cls, members)
        self.order = tuple(members)
        return self

    def __iter__(self):
        return iter(self.order)


def test_a_support_sentence_without_a_contrary_is_named_after_a_concluded_one():
    # a's contrary is the only concluded sentence, and a is read first, so
    # an intersection that stops once it has found na never reads b.
    support = _InOrder(("a", "b"))
    fw = AbaFramework(
        language=frozenset({"a", "b", "na"}),
        rules=(Rule("r1", "na", ("a", "b")),),
        assumptions=("a", "b"),
        contraries={"a": "na"},
    )
    args = (aba.Argument("A1", "na", support, support, ("na", "r1", ())),)
    with pytest.raises(SchemaError, match="argument 'A1': 'b' is not an assumption"):
        compute_attacks(args, fw)


def test_contraries_that_no_argument_concludes_do_not_split_attacker_tuples():
    # nb is never concluded, so {a} and {a, b} have the same attackers.
    fw = AbaFramework(
        language=frozenset({"a", "b", "na", "nb", "p", "q"}),
        rules=(Rule("r1", "p", ("a", "b")), Rule("r2", "na", ("q",)), Rule("r3", "q")),
        assumptions=("a", "b"),
        contraries={"a": "na", "b": "nb"},
    )
    args = derive_arguments(fw)
    attacks = compute_attacks(args, fw)
    assert attacks == {"A1": ("A4",), "A2": (), "A3": ("A4",), "A4": (), "A5": ()}
    assert attacks["A1"] is attacks["A3"]
    assert attacks["A2"] is attacks["A4"] is attacks["A5"]


def test_sentence_below_a_rule_cycle():
    # s <- t, and t <-> u: t's proofs depend on whether u is on the branch, so
    # the proofs of s, of t and of u each come out as the guard allows.
    fw = AbaFramework(
        language=frozenset({"s", "t", "u", "a", "b", "na", "nb"}),
        rules=(
            Rule("r1", "s", ("t",)),
            Rule("r2", "t", ("u",)),
            Rule("r3", "u", ("t",)),
            Rule("r4", "t", ("a",)),
            Rule("r5", "u", ("b",)),
        ),
        assumptions=("a", "b"),
        contraries={"a": "na", "b": "nb"},
    )
    shapes = [(a.conclusion, sorted(a.support), sorted(a.rules_used)) for a in derive_arguments(fw)]
    assert shapes == [
        ("a", ["a"], []),
        ("b", ["b"], []),
        ("s", ["b"], ["r1", "r2", "r5"]),
        ("s", ["a"], ["r1", "r4"]),
        ("t", ["b"], ["r2", "r5"]),
        ("u", ["a"], ["r3", "r4"]),
        ("t", ["a"], ["r4"]),
        ("u", ["b"], ["r5"]),
    ]
    caps = dict(max_depth=64, max_arguments=100, keep_conclusions=None)
    assert production_arguments(fw, **caps) == reference_arguments(fw, **caps)


def test_axiom_that_heads_a_rule_cycle():
    # s0 is an axiom: a leaf inside proofs, but the head of r3 at the top
    # level, where the guard skips r4 because s0 is on the branch.
    fw = AbaFramework(
        language=frozenset({"s0", "s4", "s6", "a", "na"}),
        rules=(
            Rule("r1", "s4", ("s6",)),
            Rule("r2", "s0"),
            Rule("r3", "s0", ("s4",)),
            Rule("r4", "s6", ("s0",)),
        ),
        assumptions=("a",),
        contraries={"a": "na"},
        axioms=frozenset({"s0"}),
    )
    for max_depth in (3, 64):
        caps = dict(max_depth=max_depth, max_arguments=100, keep_conclusions=None)
        assert production_arguments(fw, **caps) == reference_arguments(fw, **caps)
    assert [a.conclusion for a in derive_arguments(fw, max_depth=3)] == ["a", "s4", "s0", "s6"]


def wide_mask_framework(seed: int) -> AbaFramework:
    """20 assumptions, 6 axioms and 331 rules in a seeded order, so that leaf
    masks run past 16 bits and rule masks past 300.  30 lower sentences have
    ten rules each over at most two leaves; 10 upper sentences chain on a
    lower one and a leaf; six rules derive a lower sentence from an upper
    one, closing cycles for the guard."""
    rng = random.Random(seed)
    assumptions = [f"a{i}" for i in range(20)]
    axioms = [f"x{i}" for i in range(6)]
    lower = [f"s{i}" for i in range(30)]
    upper = [f"t{i}" for i in range(10)]
    leaves = assumptions + axioms
    shapes = [(lower[i % 30], tuple(rng.sample(leaves, rng.randint(0, 2)))) for i in range(300)]
    shapes += [(upper[i % 10], (rng.choice(lower), rng.choice(leaves))) for i in range(25)]
    shapes += [(rng.choice(lower), (rng.choice(upper),)) for _ in range(6)]
    rng.shuffle(shapes)
    return AbaFramework(
        language=frozenset(leaves + lower + upper),
        rules=tuple(Rule(f"r{i}", head, body) for i, (head, body) in enumerate(shapes)),
        assumptions=tuple(assumptions),
        contraries={a: rng.choice(lower + upper) for a in assumptions},
        axioms=frozenset(axioms),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_masks_match_the_reference_derivation(seed):
    fw = wide_mask_framework(seed)
    caps = dict(max_depth=64, max_arguments=100_000, keep_conclusions=None)
    got = production_arguments(fw, **caps)
    assert got == reference_arguments(fw, **caps)
    cycle_rules = {r.id for r in fw.rules if r.head.startswith("s") and r.body[:1] and r.body[0].startswith("t")}
    assert any(rules_used & cycle_rules for _, _, _, _, rules_used, _ in got)
    assert any(premises & {"a16", "a17", "a18", "a19"} and premises != support
               for _, _, support, premises, _, _ in got)
    assert max(int(r[1:]) for _, _, _, _, rules_used, _ in got for r in rules_used) >= 300


def chain_framework(length: int) -> AbaFramework:
    """A rule chain c0 -> c1 -> ... -> c<length> like the benchmark's chains:
    link i derives c<i> from c<i-1> with assumption a<i> or b<i>, so c<k> has
    2^k proofs, built on the shared proofs of c<k-1>.  The contraries of p
    and q hang off the last two links, and c2 concludes the contrary of b4."""
    links = range(1, length + 1)
    assumptions = tuple(f"{x}{i}" for i in links for x in "ab") + ("p", "q")
    contraries = {a: f"not-{a}" for a in assumptions}
    rules = [Rule("f1", "c0")]
    rules += [Rule(f"r{x}{i}", f"c{i}", (f"c{i - 1}", f"{x}{i}")) for i in links for x in "ab"]
    rules += [
        Rule("rp", "not-p", (f"c{length}",)),
        Rule("rq", "not-q", (f"c{length - 1}",)),
        Rule("rb", "not-b4", ("c2",)),
    ]
    return AbaFramework(
        language=frozenset(assumptions) | frozenset(contraries.values()) | {f"c{i}" for i in range(length + 1)},
        rules=tuple(rules),
        assumptions=assumptions,
        contraries=contraries,
    )


def test_derivation_leaves_nothing_for_the_cyclic_collector():
    # The memo of sub-proofs is freed by reference counting when the
    # derivation returns, not left in a reference cycle.
    fw = chain_framework(8)
    gc.collect()
    gc.disable()
    try:
        assert len(derive_arguments(fw)) > 2**8
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_arguments_are_frozen_records():
    proof = ("p", "r1", (("a", None, (), 1, 0),), 1, 1)
    arg = aba.Argument("A1", "p", frozenset({"a"}), frozenset({"a", "u"}), proof)
    assert [f.name for f in fields(arg)] == ["id", "conclusion", "support", "premises", "proof"]
    for name in ("id", "conclusion", "support", "premises", "proof", "tree"):
        with pytest.raises(FrozenInstanceError):
            setattr(arg, name, None)
    assert asdict(arg) == {
        "id": "A1", "conclusion": "p", "support": frozenset({"a"}), "premises": frozenset({"a", "u"}), "proof": proof,
    }
    assert repr(arg) == (
        "Argument(id='A1', conclusion='p', support=frozenset({'a'}), premises="
        f"{frozenset({'a', 'u'})!r}, proof={proof!r})"
    )
    same = aba.Argument(id="A1", conclusion="p", support=frozenset({"a"}), premises=frozenset({"a", "u"}), proof=proof)
    assert arg == same and hash(arg) == hash(same)
    assert arg != replace(arg, id="A2")
    assert replace(arg, id="A2").id == "A2"
    assert arg.tree == TreeNode("p", "r1", (TreeNode("a"),))
    assert arg == same  # the cached tree is not a field


def test_assumptions_with_one_contrary_share_one_attacker_tuple():
    # {a} and {b} are different keys with one concluded contrary, n.
    fw = AbaFramework(
        language=frozenset({"a", "b", "c", "n", "nc", "p"}),
        rules=(Rule("r1", "p", ("a", "b")), Rule("r2", "n")),
        assumptions=("a", "b", "c"),
        contraries={"a": "n", "b": "n", "c": "nc"},
    )
    args = derive_arguments(fw)
    supports = {a.id: sorted(a.support) for a in args}
    assert supports == {"A1": ["a"], "A2": ["b"], "A3": ["c"], "A4": ["a", "b"], "A5": []}
    attacks = compute_attacks(args, fw)
    assert attacks["A1"] == ("A5",)
    assert attacks["A1"] is attacks["A2"] is attacks["A4"]
    assert attacks["A3"] is attacks["A5"]


def test_max_attacks_caps_the_attacker_entries(monkeypatch):
    fw = nixon_framework()
    args = derive_arguments(fw)
    total = sum(map(len, compute_attacks(args, fw).values()))
    monkeypatch.setattr(aba, "DEFAULT_MAX_ATTACKS", total)
    assert sum(map(len, compute_attacks(args, fw).values())) == total
    monkeypatch.setattr(aba, "DEFAULT_MAX_ATTACKS", total - 1)
    with pytest.raises(ResourceCapError) as err:
        compute_attacks(args, fw)
    assert (err.value.cap, err.value.limit) == ("max_attacks", total - 1)
