"""Acceptance suite: one test per criterion, each at its stated tolerance.

A summary line per criterion is printed at the end of the pytest run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

import pytest

from vdarg import (
    Literal,
    analyze_epistemic,
    analyze_practical,
    dump_agent,
    explain_action,
    explain_all_actions,
    load_agent,
    parse_agent,
    solutions,
)
from vdarg.cli import main as cli_main
from vdarg.oracle import RandomVdaSpec, brute_force_extensions, random_aaf, random_vda
from vdarg.semantics import extensions_for


@pytest.mark.acceptance(1, "eldercare S1 end-to-end")
def test_criterion_1_eldercare_s1(eldercare_path):
    started = time.perf_counter()
    agent = load_agent(eldercare_path)
    result = analyze_practical(agent, "S1", "grounded")

    kinds = {f"r{k}": "action" if disjunct is None else "principle"
             for k, (_, _, disjunct) in enumerate(result.build.rows, 1)}
    assert [r.id for r in result.build.framework.rules] == [f"r{i}" for i in range(1, 11)]
    assert [rid for rid, kind in kinds.items() if kind == "action"] == ["r1", "r2", "r3", "r4"]
    assert [rid for rid, kind in kinds.items() if kind == "principle"] == [
        "r5", "r6", "r7", "r8", "r9", "r10",
    ]
    assert [a.id for a in result.aaf.arguments] == [f"X{i}" for i in range(1, 11)]
    assert result.report.extensions[0].members == frozenset({"X2", "X5", "X8", "X9"})
    assert result.solutions == frozenset({"warn"})
    assert result.justified_actions == frozenset({"warn"})
    assert time.perf_counter() - started < 1.0


@pytest.mark.acceptance(2, "Nixon diamond semantics")
def test_criterion_2_nixon(nixon_path):
    from vdarg import acceptance_status, epistemic_framework
    from vdarg.aba import Aaf, compute_attacks, derive_arguments

    agent = load_agent(nixon_path)
    build = epistemic_framework(agent.epistemic)
    args = derive_arguments(build.framework, label="Y", keep_conclusions=build.relevant)
    aaf = Aaf(args, compute_attacks(args, build.framework))

    assert len(aaf.arguments) == 4
    grounded_exts = {e.members for e in extensions_for(aaf, "grounded")}
    assert grounded_exts == {frozenset()}
    complete_exts = {e.members for e in extensions_for(aaf, "complete")}
    assert len(complete_exts) == 3
    two = {frozenset({"Y1", "Y3"}), frozenset({"Y2", "Y4"})}
    assert {e.members for e in extensions_for(aaf, "preferred")} == two
    assert {e.members for e in extensions_for(aaf, "stable")} == two

    report = acceptance_status(aaf, "preferred")
    for status in report.statuses.values():
        assert status.credulously_accepted
        assert not status.in_all


@pytest.mark.acceptance(3, "epistemic S2 adjudication")
def test_criterion_3_epistemic_s2(eldercare):
    result = analyze_epistemic(
        eldercare.epistemic, sorted(eldercare.situation("S2").positives), "grounded"
    )
    assert [a.id for a in result.aaf.arguments] == [f"Y{i}" for i in range(1, 7)]
    assert result.aaf.attacks == frozenset({
        ("Y4", "Y1"), ("Y4", "Y5"),
        ("Y5", "Y2"), ("Y5", "Y4"),
        ("Y6", "Y3"), ("Y6", "Y5"),
    })
    assert [e.members for e in result.report.extensions] == [frozenset({"Y2", "Y4", "Y6"})]
    conclusions = {result.aaf.argument(arg_id).conclusion for arg_id in ("Y2", "Y4", "Y6")}
    assert conclusions == {"lb", "¬fc", "ab"}
    assert result.justified_perceptions == frozenset(
        Literal(a) for a in ("lb", "mrt", "r", "rm", "ab")
    )
    expected_sj = eldercare.situation("S2J").literals
    assert result.situation.literals == expected_sj
    rendered = [str(lit) for lit in result.situation.ordered(eldercare.language.atoms)]
    assert rendered == [
        "lb", "mrt", "r", "rm", "ab",
        "¬fc", "¬ni", "¬w", "¬pi", "¬e", "¬iw",
    ]


@dataclass(frozen=True)
class _CorpusRecord:
    seed: int
    solution_count: int
    solutions_match_credulous: bool
    unique_has_single_complete_equal_to_grounded: bool | None


@pytest.fixture(scope="module")
def proposition_corpus():
    """1000 seeded agents (2-5 actions, 1-4 duties, values [-2,2], 1-4 disjuncts).

    Instances are sampled in the regime the agent's decision procedure
    presumes: every vector satisfies some duty, and the principle induces a
    transitive weak-preference relation (it acts as a sorting comparator).
    See the non-transitive divergence test in test_frameworks for why.
    """
    records = []
    started = time.perf_counter()
    for i in range(1000):
        rng = random.Random(i)
        spec = RandomVdaSpec(
            seed=i,
            actions=rng.randint(2, 5),
            duties=rng.randint(1, 4),
            disjuncts=rng.randint(1, 4),
            value_range=(-2, 2),
            assumption_policy="satisfying",
            order_inducing=True,
        )
        agent, sid = random_vda(spec)
        sols = solutions(agent, sid)
        result = analyze_practical(agent, sid, "complete")
        unique_check = None
        if len(sols) == 1:
            grounded_members = {
                e.members for e in extensions_for(result.aaf, "grounded")
            }.pop()
            unique_check = (
                len(result.report.extensions) == 1
                and result.report.extensions[0].members == grounded_members
            )
        records.append(
            _CorpusRecord(
                seed=i,
                solution_count=len(sols),
                solutions_match_credulous=(sols == result.credulous_actions),
                unique_has_single_complete_equal_to_grounded=unique_check,
            )
        )
    elapsed = time.perf_counter() - started
    return records, elapsed


@pytest.mark.acceptance(4, "unique solution implies unique complete extension")
def test_criterion_4_unique_solution_unique_extension(proposition_corpus):
    records, elapsed = proposition_corpus
    assert len(records) >= 1000
    unique = [r for r in records if r.solution_count == 1]
    assert len(unique) >= 100  # the premise must actually be exercised
    violations = [r.seed for r in unique if not r.unique_has_single_complete_equal_to_grounded]
    assert violations == []
    assert elapsed < 60.0


@pytest.mark.acceptance(5, "solutions equal credulously justified actions")
def test_criterion_5_solutions_equal_credulous_actions(proposition_corpus):
    records, _ = proposition_corpus
    violations = [r.seed for r in records if not r.solutions_match_credulous]
    assert violations == []


@pytest.mark.acceptance(6, "semantics solver equals the brute-force oracle")
def test_criterion_6_semantics_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(500):
        aaf = random_aaf(seed, max_arguments=12, max_density=0.4, self_loops=True)
        by_semantics = {}
        for semantics in ("grounded", "complete", "preferred", "stable"):
            solver = {e.members for e in extensions_for(aaf, semantics)}
            oracle = brute_force_extensions(aaf, semantics)
            assert solver == oracle, f"seed {seed}, {semantics}"
            by_semantics[semantics] = solver
        assert by_semantics["stable"] <= by_semantics["preferred"]
        assert by_semantics["preferred"] <= by_semantics["complete"]
        (grounded_members,) = by_semantics["grounded"]
        assert grounded_members in by_semantics["complete"]
        assert all(grounded_members <= c for c in by_semantics["complete"])
    assert time.perf_counter() - started < 120.0


@pytest.mark.acceptance(7, "explanations are faithful and name the deciding premises")
def test_criterion_7_explanation_faithfulness(eldercare):
    result = analyze_practical(eldercare, "S1", "grounded")
    labelled = dict(result.report.labelled())
    for explanation in explain_all_actions(result):
        if explanation.verdict.startswith("justified"):
            for label in explanation.extensions:
                assert explanation.argument_id in labelled[label].members
        for attacker in explanation.attackers:
            for label in attacker.extensions:
                assert attacker.argument_id in labelled[label].members

    charge = explain_action(result, "charge")
    assert charge.attackers[0].premises == ("u7", "v_S1(warn)")
    assert "u7" in charge.text and "v_S1(warn)" in charge.text
    assert "MG2P" not in charge.text


@pytest.mark.acceptance(8, "deterministic CLI output and file round-trips")
def test_criterion_8_determinism_and_round_trip(
    capsys, eldercare_path, nixon_path, standoff_path
):
    commands = [
        (0, ["solve", str(eldercare_path), "S1"]),
        (0, ["solve", str(eldercare_path), "S1", "--format", "json"]),
        (0, ["justify", str(eldercare_path), "S1", "--semantics", "grounded"]),
        (0, ["justify", str(eldercare_path), "S1", "--format", "json"]),
        (0, ["justify", str(eldercare_path), "S1", "--dot"]),
        (0, ["justify", str(nixon_path), "--semantics", "preferred"]),
        (0, ["explain", str(eldercare_path), "S1", "charge"]),
        (0, ["explain", str(eldercare_path), "S1", "warn", "--format", "json"]),
        (0, ["explain", str(eldercare_path), "S2", "--situation"]),
        (0, ["epistemic", str(eldercare_path), "S2"]),
        (1, ["epistemic", str(standoff_path), "T"]),
    ]
    for expected_code, argv in commands:
        code_a = cli_main(list(argv))
        out_a = capsys.readouterr().out.encode("utf-8")
        code_b = cli_main(list(argv))
        out_b = capsys.readouterr().out.encode("utf-8")
        assert code_a == code_b == expected_code, argv
        assert out_a == out_b, argv
        assert out_a, argv

    for path in (eldercare_path, nixon_path, standoff_path):
        agent = load_agent(path)
        assert parse_agent(dump_agent(agent)) == agent
        assert json.loads(dump_agent(agent)) == json.loads(dump_agent(parse_agent(dump_agent(agent))))
