"""Extension semantics against fixtures and the brute-force oracle."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdarg import (
    ActionMatrix,
    Aaf,
    Argument,
    ArgumentStatus,
    Disjunct,
    DutyVector,
    Principle,
    ResourceCapError,
    Situation,
    UnknownNameError,
    VdaAgent,
    VdaLanguage,
    acceptance_status,
    complete,
    extensions_for,
    grounded,
    practical_framework,
    preferred,
    stable,
    to_aaf,
)
from vdarg.frameworks import argument_graph
from vdarg.oracle import brute_force_extensions, random_aaf
from vdarg.semantics import SEMANTICS, _Graph


def placeholder(name: str) -> Argument:
    return Argument(name, name, frozenset(), frozenset(), (name, None, ()))


def make_aaf(n: int, attacks: set[tuple[int, int]]) -> Aaf:
    args = tuple(
        Argument(f"A{i}", f"s{i}", frozenset(), frozenset(), (f"s{i}", None, ()))
        for i in range(1, n + 1)
    )
    return to_aaf(args, ((f"A{i}", f"A{j}") for i, j in attacks))


@pytest.fixture(scope="module")
def nixon_aaf() -> Aaf:
    # Y4 attacks Y1 and Y3; Y3 attacks Y2 and Y4.
    return make_aaf(4, {(4, 1), (4, 3), (3, 2), (3, 4)})


def members(extensions):
    return {e.members for e in extensions}


class TestNixon:
    def test_grounded_is_empty(self, nixon_aaf):
        assert grounded(nixon_aaf).members == frozenset()

    def test_three_complete_extensions(self, nixon_aaf):
        assert members(complete(nixon_aaf)) == {
            frozenset(),
            frozenset({"A1", "A3"}),
            frozenset({"A2", "A4"}),
        }

    def test_preferred_and_stable(self, nixon_aaf):
        expected = {frozenset({"A1", "A3"}), frozenset({"A2", "A4"})}
        assert members(preferred(nixon_aaf)) == expected
        assert members(stable(nixon_aaf)) == expected

    def test_all_credulous_none_skeptical_under_preferred(self, nixon_aaf):
        report = acceptance_status(nixon_aaf, "preferred")
        for status in report.statuses.values():
            assert status.credulously_accepted
            assert not status.in_all
            assert status.status == "credulously-justified"


class TestSmallCases:
    def test_edgeless_aaf(self):
        aaf = make_aaf(3, set())
        assert grounded(aaf).members == frozenset({"A1", "A2", "A3"})
        assert members(complete(aaf)) == {frozenset({"A1", "A2", "A3"})}
        assert members(preferred(aaf)) == {frozenset({"A1", "A2", "A3"})}
        report = acceptance_status(aaf, "grounded")
        assert all(s.status == "skeptically-justified" for s in report.statuses.values())

    def test_self_attacker_has_no_stable_extension(self):
        aaf = make_aaf(1, {(1, 1)})
        assert stable(aaf) == ()
        assert members(complete(aaf)) == {frozenset()}

    def test_vacuous_stable_statuses_carry_a_diagnostic(self):
        aaf = make_aaf(1, {(1, 1)})
        report = acceptance_status(aaf, "stable")
        assert report.vacuous
        assert report.diagnostic is not None
        assert report.statuses["A1"].status == "vacuous"
        assert not report.statuses["A1"].in_all
        assert not report.statuses["A1"].in_some

    def test_empty_aaf(self):
        aaf = make_aaf(0, set())
        assert grounded(aaf).members == frozenset()
        assert members(complete(aaf)) == {frozenset()}

    def test_acyclic_aaf_has_one_extension_under_all_semantics(self):
        aaf = make_aaf(3, {(1, 2), (2, 3)})
        for semantics in ("grounded", "complete", "preferred", "stable"):
            exts = extensions_for(aaf, semantics)
            assert members(exts) == {frozenset({"A1", "A3"})}

    def test_unknown_semantics(self, nixon_aaf):
        with pytest.raises(UnknownNameError):
            extensions_for(nixon_aaf, "semi-stable")


class TestStatuses:
    def test_rejection_statuses(self):
        # A1 -> A2, A3 <-> A4: A2 skeptically rejected, the cycle credulous.
        aaf = make_aaf(4, {(1, 2), (3, 4), (4, 3)})
        report = acceptance_status(aaf, "preferred")
        assert report.statuses["A1"].status == "skeptically-justified"
        assert report.statuses["A2"].status == "skeptically-rejected"
        assert report.statuses["A3"].status == "credulously-justified"
        assert report.statuses["A4"].status == "credulously-justified"

    def test_credulously_rejected(self):
        # A1 <-> A2 and A2 -> A3 -> hmm: keep it direct: A3 attacked only by A1.
        aaf = make_aaf(3, {(1, 2), (2, 1), (1, 3), (3, 3)})
        report = acceptance_status(aaf, "preferred")
        assert report.statuses["A3"].status == "credulously-rejected"

    def test_undecided_status_under_grounded(self):
        aaf = make_aaf(2, {(1, 2), (2, 1)})
        report = acceptance_status(aaf, "grounded")
        assert report.statuses["A1"].status == "undecided"
        assert report.statuses["A2"].status == "undecided"


class TestOracleAgreement:
    def test_small_random_sample_matches_oracle(self):
        # The dense draws make propagation force classes IN in chains; they
        # catch a search that reads a stale mask of attacked classes, which
        # the sparse ones miss.
        samples = [(seed, random_aaf(seed, max_arguments=8)) for seed in range(60)]
        samples += [
            (seed, random_aaf(seed, max_arguments=14, max_density=0.5)) for seed in range(10_000, 10_300)
        ]
        for seed, aaf in samples:
            for semantics in ("grounded", "complete", "preferred", "stable"):
                assert members(extensions_for(aaf, semantics)) == brute_force_extensions(
                    aaf, semantics
                ), f"seed {seed}, {semantics}"

    def test_lattice_properties_small_sample(self):
        for seed in range(40):
            aaf = random_aaf(seed + 1000, max_arguments=8)
            completes = members(complete(aaf))
            preferreds = members(preferred(aaf))
            stables = members(stable(aaf))
            g = grounded(aaf).members
            assert g in completes
            assert all(g <= c for c in completes)
            assert preferreds <= completes
            assert stables <= preferreds


def argument_mask(aaf: Aaf, members: frozenset[str]) -> int:
    return sum(1 << aaf.index[arg_id] for arg_id in members)


@st.composite
def aafs_with_clones(draw):
    """A random AAF whose arguments are then cloned: each clone is attacked
    by exactly the attackers of its original, and attacks some of the
    original's victims, so that classes of arguments with equal attackers
    have several members.  The arguments come out in a shuffled order.
    Returns the framework and the attack pairs it was built from."""
    k = draw(st.integers(1, 5), label="originals")
    sizes = [draw(st.integers(1, 3), label=f"copies of C{c}") for c in range(k)]
    pairs = [(d, c) for d in range(k) for c in range(k)]
    attacks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)), label="attacks")
    names = [[f"C{c}.{m}" for m in range(size)] for c, size in enumerate(sizes)]
    relation = set()
    for d, c in attacks:
        sources = draw(
            st.lists(st.sampled_from(names[d]), min_size=1, unique=True), label=f"C{d} -> C{c}",
        )
        relation.update((src, dst) for src in sources for dst in names[c])
    order = draw(st.permutations([name for group in names for name in group]), label="order")
    return to_aaf(tuple(placeholder(name) for name in order), relation), relation


DENSE_DUTIES = ("d1", "d2", "d3", "d4", "d5")
TEN_DENSE_ROWS = {
    "a1": (2, -1, -1, -2, -2), "a2": (-2, 2, 2, 2, -1), "a3": (-1, 1, 2, -1, -1),
    "a4": (-1, 0, 2, -1, -2), "a5": (0, 2, 0, 1, -1), "a6": (1, 2, -2, 0, 2),
    "a7": (1, 0, 0, -2, 2), "a8": (-2, 0, 0, 2, 0), "a9": (-1, -1, -1, 2, 1),
    "a10": (1, -1, 1, -1, 1),
}


def seeded_dense_rows(actions: int, seed: int) -> dict[str, tuple[int, ...]]:
    """Duty values in [-2, 2], one row per action, each satisfying some duty."""
    draw = random.Random(seed)
    rows = {}
    for a in range(actions):
        values = [draw.randint(-2, 2) for _ in DENSE_DUTIES]
        if not any(v >= 1 for v in values):
            values[draw.randrange(len(DENSE_DUTIES))] = draw.randint(1, 2)
        rows[f"a{a + 1}"] = tuple(values)
    return rows


class TestClassQuotient:
    @settings(max_examples=150, deadline=None)
    @given(case=aafs_with_clones())
    def test_extensions_equal_the_oracle_in_argument_order(self, case):
        aaf, _ = case
        for semantics in SEMANTICS:
            got = [ext.members for ext in extensions_for(aaf, semantics)]
            expected = sorted(brute_force_extensions(aaf, semantics), key=lambda m: argument_mask(aaf, m))
            assert got == expected, semantics

    @pytest.mark.parametrize(
        "rows, arguments, extensions, budget",
        [(TEN_DENSE_ROWS, 47, 5, 50), (seeded_dense_rows(40, seed=0), 720, 3, 200)],
        ids=["10-actions", "40-actions"],
    )
    def test_dense_agent_finishes_in_a_small_budget(self, rows, arguments, extensions, budget):
        # 5 duties; disjunct u_k asks for +1 on duty k and allows a loss of 2
        # on every other duty, so weak preference is dense: the frameworks
        # have many arguments but at most one class of equal attackers per
        # action.
        duties = DENSE_DUTIES
        agent = VdaAgent(
            language=VdaLanguage(("p",), tuple(rows), duties),
            situations={"R": Situation.from_perceptions(("p",), ["p"])},
            matrices={"R": ActionMatrix("R", {
                a: DutyVector(a, dict(zip(duties, row))) for a, row in rows.items()
            })},
            principle=Principle(tuple(
                Disjunct(f"u{k + 1}", {d: 1 if i == k else -2 for i, d in enumerate(duties)})
                for k in range(4)
            )),
        )
        build = practical_framework(agent, "R")
        aaf = argument_graph(build.framework, "X", build.relevant)
        assert len(aaf.arguments) == arguments

        found = complete(aaf, budget=budget)
        assert len(found) == extensions
        for ext in found:
            assert is_complete(aaf, ext.members)
        least = grounded(aaf).members
        assert found[0].members == least
        assert all(least <= ext.members for ext in found)


def reference_attackers(aaf: Aaf, relation) -> dict[str, tuple[str, ...]]:
    """Each argument's attackers in the pair relation the framework was built
    from, sorted by argument position."""
    return {
        arg_id: tuple(sorted({src for src, dst in relation if dst == arg_id}, key=aaf.index.__getitem__))
        for arg_id in aaf.ids
    }


def reference_statuses(aaf: Aaf, relation, semantics: str) -> dict[str, ArgumentStatus]:
    """One status per argument, each from its own attackers: the loop that
    acceptance_status ran before it decided one status per class."""
    exts = extensions_for(aaf, semantics)
    if not exts:
        return {arg_id: ArgumentStatus("vacuous", False, False) for arg_id in aaf.ids}
    member_sets = [ext.members for ext in exts]
    in_all = {arg_id: all(arg_id in s for s in member_sets) for arg_id in aaf.ids}
    in_some = {arg_id: any(arg_id in s for s in member_sets) for arg_id in aaf.ids}
    attackers = reference_attackers(aaf, relation)
    statuses = {}
    for arg_id in aaf.ids:
        if in_all[arg_id]:
            status = "skeptically-justified"
        elif in_some[arg_id]:
            status = "credulously-justified"
        elif any(in_all[a] for a in attackers[arg_id]):
            status = "skeptically-rejected"
        elif any(in_some[a] and not in_all[a] for a in attackers[arg_id]):
            status = "credulously-rejected"
        else:
            status = "undecided"
        statuses[arg_id] = ArgumentStatus(status, in_all[arg_id], in_some[arg_id])
    return statuses


def assert_index_matches_the_reference(aaf: Aaf, relation) -> int:
    """Check attackers_of, the class index and every semantics' statuses
    against the pair relation the framework was built from; return the
    number of semantics with vacuous statuses."""
    attackers = reference_attackers(aaf, relation)
    assert aaf.attackers_of == attackers
    assert aaf.attacks == frozenset(relation)
    g = _Graph(aaf)
    assert g.ids == aaf.ids
    positions = [i for members in g.members for i in members]
    assert sorted(positions) == list(range(len(aaf.ids)))
    assert [members[0] for members in g.members] == sorted(members[0] for members in g.members)
    for c, (key, members) in enumerate(zip(g.keys, g.members)):
        assert list(members) == sorted(members)
        assert all(attackers[aaf.ids[i]] == key and g.class_at[i] == c for i in members)
    assert len(set(g.keys)) == len(g.keys) == len(g.members) == g.n
    vacuous = 0
    for semantics in SEMANTICS:
        report = acceptance_status(aaf, semantics)
        expected = reference_statuses(aaf, relation, semantics)
        assert list(report.statuses) == list(aaf.ids)
        assert report.statuses == expected, semantics
        assert report.vacuous == (not report.extensions)
        vacuous += report.vacuous
    return vacuous


def random_relation(seed: int, max_arguments: int, max_density: float = 0.4) -> tuple[Aaf, list[tuple[str, str]]]:
    """A random framework, self-attacks included, with its arguments in a
    shuffled order; returns it and the attack pairs it was built from."""
    rng = random.Random(seed)
    names = [f"A{i + 1}" for i in range(rng.randint(1, max_arguments))]
    density = rng.uniform(0.0, max_density)
    relation = [(src, dst) for src in names for dst in names if rng.random() < density]
    rng.shuffle(names)
    return to_aaf(tuple(placeholder(name) for name in names), relation), relation


class TestIndex:
    def test_random_aafs_match_the_per_argument_reference(self):
        samples = [random_relation(seed, max_arguments=12) for seed in range(150)]
        samples += [random_relation(seed, max_arguments=14, max_density=0.5) for seed in range(10_000, 10_050)]
        vacuous = sum(assert_index_matches_the_reference(aaf, relation) for aaf, relation in samples)
        assert vacuous > 0  # stable without extensions is in the sample

    def test_arguments_with_equal_attackers_share_one_status_record(self):
        samples = [random_relation(seed, max_arguments=12)[0] for seed in range(150)]
        shared_classes = 0
        for aaf in samples:
            classes = len(set(aaf.attackers_of.values()))
            shared_classes += classes < len(aaf.ids)
            for semantics in SEMANTICS:
                report = acceptance_status(aaf, semantics)
                record_of: dict[tuple[str, ...], ArgumentStatus] = {}
                for arg_id, status in report.statuses.items():
                    assert record_of.setdefault(aaf.attackers_of[arg_id], status) is status
                distinct = len({id(status) for status in report.statuses.values()})
                assert distinct == (1 if report.vacuous else classes), semantics
        assert shared_classes > 0  # some class has several members

    @settings(max_examples=150, deadline=None)
    @given(case=aafs_with_clones())
    def test_cloned_aafs_match_the_per_argument_reference(self, case):
        assert_index_matches_the_reference(*case)

    @pytest.mark.parametrize("seed", range(5))
    def test_to_aaf_drops_repeated_pairs_and_orders_attackers_by_argument(self, seed):
        pairs = [("A2", "A1"), ("A3", "A1"), ("A1", "A1"), ("A3", "A2")] * 2
        random.Random(seed).shuffle(pairs)
        aaf = to_aaf(tuple(placeholder(name) for name in ("A3", "A1", "A2")), pairs)
        assert aaf.attackers_of == {"A3": (), "A1": ("A3", "A1", "A2"), "A2": ("A3",)}
        assert aaf.attacks == frozenset(pairs)
        assert_index_matches_the_reference(aaf, pairs)


class TestDeepSearch:
    @pytest.mark.parametrize("solver", [complete, preferred, stable])
    def test_search_depth_is_not_bounded_by_the_recursion_limit(self, solver):
        # 200 mutually attacking pairs: 400 classes, each pair left open by
        # propagation, so the search is 200 levels deep before any leaf.
        aaf = make_aaf(400, {(i, i + 1) for i in range(1, 400, 2)} | {(i + 1, i) for i in range(1, 400, 2)})
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            with pytest.raises(ResourceCapError) as caught:
                solver(aaf, budget=400)
        finally:
            sys.setrecursionlimit(limit)
        assert caught.value.cap == "complete_search"
        assert caught.value.limit == 400


def is_complete(aaf: Aaf, members: frozenset[str]) -> bool:
    """Conflict-free, and exactly the arguments it defends (textbook definition)."""
    attackers = aaf.attackers_of
    if any(src in members for arg_id in members for src in attackers[arg_id]):
        return False
    defeated = {dst for src, dst in aaf.attacks if src in members}
    defended = {arg_id for arg_id in aaf.ids if set(attackers[arg_id]) <= defeated}
    return defended == members
