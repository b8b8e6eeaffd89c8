"""Extension semantics against fixtures and the brute-force oracle."""

from __future__ import annotations

import pytest

from vdarg import (
    Aaf,
    Argument,
    TreeNode,
    UnknownNameError,
    acceptance_status,
    complete,
    extensions_for,
    grounded,
    preferred,
    stable,
)
from vdarg.oracle import brute_force_extensions, random_aaf


def make_aaf(n: int, attacks: set[tuple[int, int]]) -> Aaf:
    args = tuple(
        Argument(f"A{i}", f"s{i}", frozenset(), frozenset(), frozenset(), TreeNode(f"s{i}"))
        for i in range(1, n + 1)
    )
    return Aaf(args, frozenset((f"A{i}", f"A{j}") for i, j in attacks))


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
        for seed in range(60):
            aaf = random_aaf(seed, max_arguments=8)
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
