"""Golden CLI output and the public import surface.

Every case runs one CLI command in process and compares its exit code and
stdout, byte for byte, with ``golden/cli.json``.  Two runs of a changed
renderer agree with each other, so only a stored copy catches a change that
is the same on every run.

After a deliberate output change, rewrite the snapshots with
``PYTHONPATH=src python tests/test_snapshots.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import vdarg
from vdarg.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli.json"
FILES = {
    "eldercare": HERE.parent / "scenarios" / "eldercare.json",
    "nixon": HERE.parent / "scenarios" / "nixon.json",
    "standoff": HERE.parent / "scenarios" / "standoff.json",
    # No stable extension: assumptions a, b, c attack one another in an odd cycle.
    "vacuous": HERE / "golden" / "vacuous.json",
    # Assumptions declared b, a, c: display order is not alphabetical order.
    "premise_order": HERE / "golden" / "premise_order.json",
    # A strict-preference cycle among the actions, and no epistemic assumptions.
    "cycle": HERE / "golden" / "cycle.json",
}

# Each command runs with --format text and --format json; the {file}
# placeholder names a key of FILES.
COMMANDS = (
    "solve {eldercare} S1",
    "solve {eldercare} S2J",
    "solve {eldercare} S2",
    "solve {standoff} T",
    "solve {cycle} R",
    *(f"justify {{eldercare}} S1 --semantics {s}" for s in ("grounded", "complete", "preferred", "stable")),
    "justify {eldercare} S2J",
    "justify {eldercare}",
    "justify {nixon} --semantics preferred",
    "justify {nixon}",
    "justify {standoff}",
    "justify {vacuous} --semantics stable",
    "justify {premise_order}",
    "justify {cycle} R --semantics preferred",
    *(f"explain {{eldercare}} S1 {a}" for a in ("charge", "remind", "engage", "warn", "notify", "seekTask")),
    "explain {eldercare} S1 charge --semantics preferred",
    "explain {eldercare} S2 --situation",
    "explain {standoff} T --situation",
    "explain {vacuous} P --situation --semantics stable",
    "explain {premise_order} P --situation",
    "epistemic {eldercare} S2",
    "epistemic {eldercare} --perceptions mrt,r,rm,fc,lb,ab",
    "epistemic {nixon} --perceptions quaker,republican --semantics preferred",
    "epistemic {standoff} T",
    "epistemic {vacuous} P --semantics stable",
    "epistemic {vacuous} P",
    "epistemic {premise_order} P",
    "epistemic {cycle} R",
)

DOT_COMMANDS = (
    "justify {eldercare} S1 --dot",
    "justify {eldercare} --dot",
    "justify {nixon} --dot",
    "justify {vacuous} --semantics stable --dot",
    "justify {premise_order} --dot",
)

CASES = tuple(
    f"{command} --format {fmt}" for command in COMMANDS for fmt in ("text", "json")
) + DOT_COMMANDS


def run_case(case: str) -> tuple[int, str]:
    argv = [word.format(**FILES) for word in case.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_the_snapshot(case, golden):
    code, stdout = run_case(case)
    expected = golden[case]
    assert code == expected["code"]
    assert stdout.encode("utf-8") == expected["stdout"].encode("utf-8")


def test_every_snapshot_has_a_case(golden):
    assert sorted(golden) == sorted(CASES)


def _option(words: list[str], flag: str, default: str | None) -> str | None:
    return words[words.index(flag) + 1] if flag in words else default


@pytest.mark.parametrize("command", [c for c in COMMANDS if c.startswith("epistemic")])
def test_every_report_cites_the_verdicts_rejecting_attacker(command):
    """The epistemic JSON and text forms and the explain --situation text
    all name the rejecting attacker that adjudicate decided."""
    words = [word.format(**FILES) for word in command.split()]
    agent = vdarg.load_agent(words[1])
    semantics = _option(words, "--semantics", "grounded")
    situation = None if words[2].startswith("--") else words[2]
    perceptions = (
        sorted(agent.situation(situation).positives) if situation
        else _option(words, "--perceptions", "").split(",")
    )
    verdicts = vdarg.analyze_epistemic(agent.epistemic, perceptions, semantics).verdicts
    rejecting = [v.rejecting_attacker for v in verdicts]

    payload = json.loads(run_case(f"{command} --format json")[1])
    # A section with no assumptions has no verdicts and no "assumptions" key.
    assert [entry["rejecting_attacker"] for entry in payload.get("assumptions", ())] == rejecting
    text = run_case(f"{command} --format text")[1].splitlines()
    for v in verdicts:
        if v.rejecting_attacker is not None:
            assert f"  {v.literal}: rejected (attacked by {v.rejecting_attacker})" in text
    if situation is None:
        return
    _, explained = run_case(f"explain {command.split()[1]} {situation} --situation --semantics {semantics}")
    blocks = explained.split("subject: ")[1:]
    assert len(blocks) == len(verdicts)
    for block, attacker in zip(blocks, rejecting):
        if attacker is not None:
            lines = block.splitlines()
            assert lines[lines.index("attackers:") + 1].startswith(f"  {attacker} in ")


# vdarg.__all__ as it stood before the CLI reports were rendered from one payload.
PUBLIC_NAMES = (
    "Aaf", "AbaFramework", "AcceptanceReport", "ActionMatrix", "AgentFileError",
    "Argument", "ArgumentStatus", "AssumptionVerdict", "AttackerCitation", "Decision",
    "Disjunct", "DutyVector", "EpistemicResult", "EpistemicRule", "EpistemicSpec",
    "Explanation", "Extension", "FlatnessError", "IndeterminateSituationError",
    "JustifiedSituation", "Literal", "OrderingReport", "OrderingStep", "PracticalResult",
    "Principle", "ResourceCapError", "Rule", "SEMANTICS", "SchemaError",
    "SelfComparisonError", "Situation", "SolutionReport", "TotalityError", "TreeNode",
    "UnknownNameError", "VdaAgent", "VdaError", "VdaLanguage", "aba", "acceptance_status",
    "agent_to_dict", "agentfile", "analyze_epistemic", "analyze_practical", "complete",
    "compute_attacks", "core", "derive_arguments", "dump_agent", "duty_differential",
    "end_to_end_decide", "epistemic_framework", "errors", "ethical_ordering", "explain",
    "explain_action", "explain_all_actions", "explain_situation", "extensions_for",
    "frameworks", "grounded", "justified_situation", "load_agent", "meets_lower_bounds",
    "parse_agent", "practical_framework", "preferred", "prefers", "render_argument",
    "render_text", "save_agent", "semantics", "solution_report", "solutions", "stable",
    "strict_preference_graph", "strictly_prefers", "to_aaf", "validate_agent",
    "validate_framework", "weak_preference_pairs",
)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_still_imports(name):
    assert name in vdarg.__all__
    assert getattr(vdarg, name) is not None


if __name__ == "__main__":
    snapshots = {}
    for case in CASES:
        code, stdout = run_case(case)
        snapshots[case] = {"code": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(snapshots, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(snapshots)} snapshots to {GOLDEN}")
