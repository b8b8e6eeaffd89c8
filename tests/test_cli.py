"""CLI behaviour: reports, flags, exit codes, determinism."""

from __future__ import annotations

import json
import re

import pytest

from vdarg.cli import main


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def _variant(tmp_path, eldercare_path, edit) -> str:
    """The path of a copy of eldercare changed in place by edit."""
    data = json.loads(eldercare_path.read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    return str(path)


def _no_assumptions(data) -> None:
    data["epistemic"] = {"assumptions": []}


class TestSolve:
    def test_eldercare_s1(self, run, eldercare_path):
        code, out, _ = run("solve", str(eldercare_path), "S1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "situation: S1"
        assert lines[1] == "solutions: warn"
        assert lines[2].startswith("ordering: warn ")
        assert "≥[u7] seekTask" in lines[2]

    def test_single_action_file(self, run, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "language": {"atoms": ["p"], "actions": ["go"], "duties": ["d"]},
            "situations": {"R": ["p"]},
            "matrices": {"R": {"go": [1]}},
            "principle": {"u1": [-2]},
        }), encoding="utf-8")
        code, out, _ = run("solve", str(path), "R")
        assert code == 0
        assert "solutions: go" in out

    def test_strict_cycle_reports_no_solution_and_exits_1(self, run, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({
            "language": {"atoms": ["p"], "actions": ["a", "b", "c"],
                         "duties": ["d1", "d2", "d3"]},
            "situations": {"R": []},
            "matrices": {"R": {"a": [0, 0, 0], "b": [-2, 1, 1], "c": [-1, -1, 2]}},
            "principle": {"u1": [2, -1, -1], "u2": [-1, 2, -1], "u3": [-1, -1, 2]},
        }), encoding="utf-8")
        code, out, _ = run("solve", str(path), "R")
        assert code == 1
        assert "solutions: (none)" in out
        assert "strict-preference cycle" in out

    def test_malformed_duty_row_is_a_parse_error(self, run, tmp_path, eldercare_path):
        data = json.loads(eldercare_path.read_text(encoding="utf-8"))
        data["matrices"]["S1"]["warn"] = [0, 0, 1]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run("solve", str(path), "S1")
        assert code == 2
        assert "matrices.S1.warn" in err

    def test_unknown_situation(self, run, eldercare_path):
        code, _, err = run("solve", str(eldercare_path), "S9")
        assert code == 2
        assert "S9" in err

    def test_json_format(self, run, eldercare_path):
        code, out, _ = run("solve", str(eldercare_path), "S1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["solutions"] == ["warn"]
        assert payload["ordering"][0]["action"] == "warn"


class TestJustify:
    def test_eldercare_s1_grounded(self, run, eldercare_path):
        code, out, _ = run("justify", str(eldercare_path), "S1", "--semantics", "grounded")
        assert code == 0
        assert "  E1: {X2, X5, X8, X9}" in out
        assert "skeptically justified actions: warn" in out
        assert out.count("\n  r") == 10 or "r10:" in out

    def test_nixon_preferred_has_two_extensions(self, run, nixon_path):
        code, out, _ = run("justify", str(nixon_path), "--semantics", "preferred")
        assert code == 0
        assert "E1: {Y1, Y3}" in out
        assert "E2: {Y2, Y4}" in out

    def test_dot_output_counts(self, run, eldercare_path):
        code, out, _ = run("justify", str(eldercare_path), "S1", "--dot")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "digraph aaf {"
        nodes = [l for l in lines if "[label=" in l]
        edges = [l for l in lines if " -> " in l]
        assert len(nodes) == 10
        assert len(edges) == 10

    def test_dot_labels_escape_quotes_and_backslashes(self, run, tmp_path, eldercare_path):
        data = json.loads(eldercare_path.read_text(encoding="utf-8"))
        renames = {"warn": 'warn "now"', "notify": "notify\\all"}
        data["language"]["actions"] = [renames.get(a, a) for a in data["language"]["actions"]]
        for matrix in data["matrices"].values():
            for old, new in renames.items():
                matrix[new] = matrix.pop(old)
        path = tmp_path / "quoted.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run("justify", str(path), "S1", "--dot")
        assert code == 0
        nodes = [line for line in out.splitlines() if "[label=" in line]
        assert len(nodes) == 10
        for line in nodes:
            assert re.fullmatch(r'  X\d+ \[label="(?:[^"\\]|\\.)*"\];', line), line
        assert '  X2 [label="X2: {v_S1(warn \\"now\\")} ⊢ warn \\"now\\""];' in nodes

    def test_json_carries_the_full_pipeline_result(self, run, eldercare_path):
        code, out, _ = run("justify", str(eldercare_path), "S1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [r["id"] for r in payload["rules"]] == [f"r{i}" for i in range(1, 11)]
        assert payload["extensions"] == [["X2", "X5", "X8", "X9"]]
        assert payload["actions"]["warn"] == "skeptically-justified"
        assert payload["solutions"] == ["warn"]

    def test_without_situation_needs_an_epistemic_section(self, run, tmp_path):
        path = tmp_path / "none.json"
        path.write_text(json.dumps({
            "language": {"atoms": [], "actions": [], "duties": []},
        }), encoding="utf-8")
        code, _, err = run("justify", str(path))
        assert code == 2
        assert "epistemic" in err

    def test_without_situation_needs_epistemic_assumptions(self, run, tmp_path, eldercare_path):
        code, out, err = run("justify", _variant(tmp_path, eldercare_path, _no_assumptions))
        assert (code, out) == (2, "")
        assert err == "error: no situation given and the epistemic section declares no assumptions\n"

    @pytest.mark.parametrize("argv", [("{nixon}",), ("{eldercare}", "S1")], ids=["nixon", "eldercare-S1"])
    def test_dot_and_json_format_cannot_be_combined(self, run, eldercare_path, nixon_path, argv):
        resolved = [a.format(eldercare=eldercare_path, nixon=nixon_path) for a in argv]
        code, out, err = run("justify", *resolved, "--dot", "--format", "json")
        assert (code, out) == (2, "")
        assert err == "error: --dot and --format json cannot be combined\n"

    def test_attack_cap_stops_before_printing(self, run, eldercare_path, monkeypatch):
        # Eldercare S1's argument graph has more than one attack.
        monkeypatch.setattr("vdarg.aba.DEFAULT_MAX_ATTACKS", 1)
        code, out, err = run("justify", str(eldercare_path), "S1")
        assert (code, out) == (2, "")
        assert err == "error: resource cap exceeded: max_attacks (limit 1)\n"


class TestExplain:
    def test_charge_rejection(self, run, eldercare_path):
        code, out, _ = run("explain", str(eldercare_path), "S1", "charge")
        assert code == 0
        assert "verdict: rejected" in out
        assert "u7" in out and "v_S1(warn)" in out

    def test_warn_justification(self, run, eldercare_path):
        code, out, _ = run("explain", str(eldercare_path), "S1", "warn")
        assert code == 0
        assert "verdict: justified-skeptical" in out
        assert "has no attacker" in out

    def test_situation_mode(self, run, eldercare_path):
        code, out, _ = run("explain", str(eldercare_path), "S2", "--situation")
        assert code == 0
        assert "subject: fc" in out
        assert "subject: lb" in out
        assert "subject: ¬ab" in out

    def test_partial_duty_table_shows_unnamed_duties_by_id(self, run, tmp_path, eldercare_path):
        data = json.loads(eldercare_path.read_text(encoding="utf-8"))
        del data["duty_names"]["MMR"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run("explain", str(path), "S1", "charge")
        assert code == 0
        assert "satisfying MMR with degree 1 (MMR:1)" in out
        assert "minimize harm to patient" in out

    def test_unknown_action_is_reported_before_deciding(self, run, eldercare_path, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("explain decided before checking the action name")

        monkeypatch.setattr("vdarg.cli.analyze_practical", refuse)
        code, out, err = run("explain", str(eldercare_path), "S1", "nosuch")
        assert (code, out) == (2, "")
        assert err == "error: unknown action 'nosuch'\n"
        code, out, err = run("explain", str(eldercare_path), "S9", "nosuch")
        assert (code, out) == (2, "")
        assert err == "error: unknown situation 'S9'\n"

    def test_action_and_situation_flags_conflict(self, run, eldercare_path):
        code, _, err = run("explain", str(eldercare_path), "S1", "warn", "--situation")
        assert code == 2
        assert "either" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_situation_mode_needs_epistemic_assumptions(self, run, tmp_path, eldercare_path, fmt):
        path = _variant(tmp_path, eldercare_path, _no_assumptions)
        code, out, err = run("explain", path, "S1", "--situation", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: the epistemic section declares no assumptions to explain\n"

    def test_situation_mode_needs_an_epistemic_section(self, run, tmp_path, eldercare_path):
        path = _variant(tmp_path, eldercare_path, lambda data: data.pop("epistemic"))
        code, out, err = run("explain", path, "S1", "--situation")
        assert (code, out) == (2, "")
        assert err == "error: the file has no epistemic section\n"

    def test_compile_cap_stops_before_deciding(self, run, eldercare_path, monkeypatch):
        # Eldercare S1 compiles to 10 arguments.
        monkeypatch.setattr("vdarg.frameworks.DEFAULT_MAX_ARGUMENTS", 9)
        code, out, err = run("explain", str(eldercare_path), "S1", "charge")
        assert (code, out) == (2, "")
        assert "max_arguments" in err


class TestEpistemic:
    def test_s2_report(self, run, eldercare_path):
        code, out, _ = run("epistemic", str(eldercare_path), "S2")
        assert code == 0
        assert "P^J: lb, mrt, r, rm, ab" in out
        assert "S^J: lb, mrt, r, rm, ab, ¬fc, ¬ni, ¬w, ¬pi, ¬e, ¬iw" in out

    def test_fact_rules_skip_the_ids_of_epistemic_rules(self, run, tmp_path, eldercare_path):
        data = json.loads(eldercare_path.read_text(encoding="utf-8"))
        rules = data["epistemic"]["rules"]
        data["epistemic"]["rules"] = {("f1" if rid == "r11" else rid): rule for rid, rule in rules.items()}
        path = tmp_path / "fact-ids.json"
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        code, out, err = run("epistemic", str(path), "S2")
        assert (code, err) == (0, "")
        assert "S^J: lb, mrt, r, rm, ab, ¬fc, ¬ni, ¬w, ¬pi, ¬e, ¬iw" in out

    def test_explicit_perceptions(self, run, eldercare_path):
        code, out, _ = run(
            "epistemic", str(eldercare_path), "--perceptions", "mrt,r,rm,fc,lb,ab"
        )
        assert code == 0
        assert "P^J: lb, mrt, r, rm, ab" in out

    def test_empty_assumptions_is_identity(self, run, tmp_path):
        path = tmp_path / "noassume.json"
        path.write_text(json.dumps({
            "language": {"atoms": ["x", "y"], "actions": [], "duties": []},
            "epistemic": {"assumptions": [], "rules": {}},
        }), encoding="utf-8")
        code, out, _ = run("epistemic", str(path), "--perceptions", "x")
        assert code == 0
        assert "P^J: x" in out
        assert "S^J: x, ¬y" in out

    def test_empty_assumptions_keep_the_identity_report_for_a_situation(self, run, tmp_path, eldercare_path):
        code, out, err = run("epistemic", _variant(tmp_path, eldercare_path, _no_assumptions), "S1")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "perceptions: mrt, r, rm, fc",
            "assumptions: (none)",
            "P^J: mrt, r, rm, fc",
            "S^J: mrt, r, rm, fc, ¬lb, ¬ni, ¬w, ¬pi, ¬e, ¬iw, ¬ab",
        ]

    @pytest.mark.parametrize("argv, message", [
        (("S1", "--perceptions", "x"), "give a situation name or --perceptions, not both"),
        (("--perceptions", "bogus"), "perceptions outside the atom set: ['bogus']"),
        (("BOGUS",), "unknown situation 'BOGUS'"),
    ], ids=["situation-and-perceptions", "unknown-perception", "unknown-situation"])
    def test_bad_perceptions_exit_2(self, run, eldercare_path, argv, message):
        code, out, err = run("epistemic", str(eldercare_path), *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_needs_an_epistemic_section(self, run, tmp_path, eldercare_path):
        path = _variant(tmp_path, eldercare_path, lambda data: data.pop("epistemic"))
        code, out, err = run("epistemic", path, "S1")
        assert (code, out) == (2, "")
        assert err == "error: the file has no epistemic section\n"

    def test_json_carries_the_diagnostic_of_the_text(self, run, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({
            "language": {"atoms": ["a", "b", "c", "x", "y", "z"], "actions": [], "duties": []},
            "epistemic": {
                "assumptions": ["a", "b", "c"],
                "contraries": {"a": "x", "b": "y", "c": "z"},
                "rules": {"r1": {"head": "x", "body": ["b"]}, "r2": {"head": "y", "body": ["c"]},
                          "r3": {"head": "z", "body": ["a"]}},
            },
        }), encoding="utf-8")
        argv = ("epistemic", str(path), "--perceptions", "", "--semantics", "stable")
        _, text, _ = run(*argv)
        code, out, _ = run(*argv, "--format", "json")
        payload = json.loads(out)
        assert code == 1
        assert payload["diagnostic"].startswith("stable semantics yielded no extensions")
        assert f"diagnostic: {payload['diagnostic']}" in text.splitlines()
        assert all(v["defenders"] == [] for v in payload["assumptions"])

    @pytest.mark.parametrize("command", [("epistemic", "--perceptions", ""), ("justify",)])
    def test_json_premises_follow_the_display_order(self, run, tmp_path, command):
        path = tmp_path / "order.json"
        path.write_text(json.dumps({
            "language": {"atoms": ["a", "b", "c", "x"], "actions": [], "duties": []},
            "epistemic": {
                "assumptions": ["b", "a", "c"],
                "contraries": {"c": "x"},
                "rules": {"r1": {"head": "x", "body": ["a", "b"]}},
            },
        }), encoding="utf-8")
        argv = (command[0], str(path), *command[1:])
        _, text, _ = run(*argv)
        _, out, _ = run(*argv, "--format", "json")
        assert "  Y4: {b, a} ⊢ x" in text.splitlines()
        y4 = next(arg for arg in json.loads(out)["arguments"] if arg["id"] == "Y4")
        assert y4["premises"] == ["b", "a"]

    def test_symmetric_conflict_exits_nonzero(self, run, standoff_path):
        code, out, _ = run("epistemic", str(standoff_path), "T")
        assert code == 1
        assert "undecided assumptions: x, ¬x" in out

    def test_justified_contradiction_is_reported_by_epistemic_not_justify(self, run, tmp_path):
        # Both p and ~p are unattacked, so both are justified: the framework
        # report lists them, but no situation can hold both.
        path = tmp_path / "contradiction.json"
        path.write_text(json.dumps({
            "language": {"atoms": ["p", "q", "r"], "actions": [], "duties": []},
            "epistemic": {"assumptions": ["p", "~p"], "contraries": {"p": "q", "~p": "r"}},
        }), encoding="utf-8")
        code, out, err = run("justify", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[-3:] == ["assumption status:", "  p: skeptically-justified",
                                         "  ¬p: skeptically-justified"]
        code, out, err = run("epistemic", str(path), "--perceptions", "")
        assert (code, out) == (2, "")
        assert err == "error: justified perceptions are contradictory for atoms: ['p']\n"


    CONTRADICTION_DOT = (
        "digraph aaf {\n  rankdir=LR;\n"
        '  Y1 [label="Y1: {p} ⊢ p"];\n  Y2 [label="Y2: {¬p} ⊢ ¬p"];\n}\n'
    )

    def test_justify_reports_the_contradiction_epistemic_raises(self, run, tmp_path):
        from vdarg import SchemaError, analyze_epistemic, load_agent

        path = tmp_path / "contradiction.json"
        path.write_text(json.dumps({
            "language": {"atoms": ["p", "q", "r"], "actions": [], "duties": []},
            "epistemic": {"assumptions": ["p", "~p"], "contraries": {"p": "q", "~p": "r"}},
        }), encoding="utf-8")
        message = "justified perceptions are contradictory for atoms: ['p']"
        with pytest.raises(SchemaError, match=re.escape(message)):
            analyze_epistemic(load_agent(path).epistemic, ())
        code, out, err = run("justify", str(path))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[lines.index("assumption status:") - 1] == f"diagnostic: {message}"
        code, out, err = run("justify", str(path), "--format", "json")
        payload = json.loads(out)
        assert (code, err, payload["diagnostic"]) == (0, "", message)
        # Written in place: the key keeps its position after the extensions.
        keys = list(payload)
        assert keys.index("diagnostic") == keys.index("extensions") + 1
        assert run("justify", str(path), "--dot") == (0, self.CONTRADICTION_DOT, "")

    def test_an_undecided_assumption_leaves_no_contradiction_to_report(self, run, tmp_path):
        path = tmp_path / "contradiction.json"
        path.write_text(json.dumps({
            "language": {"atoms": ["p", "q", "r", "s"], "actions": [], "duties": []},
            "epistemic": {"assumptions": ["p", "~p", "s", "~s"], "contraries": {"p": "q", "~p": "r"}},
        }), encoding="utf-8")
        code, out, _ = run("justify", str(path))
        assert code == 0
        assert not any(line.startswith("diagnostic:") for line in out.splitlines())
        code, out, _ = run("justify", str(path), "--format", "json")
        assert (code, json.loads(out)["diagnostic"]) == (0, None)
        code, out, err = run("epistemic", str(path), "--perceptions", "")
        assert (code, err) == (1, "")
        assert out.splitlines()[-2:] == ["P^J: p, ¬p", "S^J: indeterminate (undecided assumptions: s, ¬s)"]

    def test_justify_diagnoses_exactly_what_analyze_epistemic_raises(self):
        from vdarg import SEMANTICS, SchemaError, analyze_epistemic
        from vdarg.cli import _epistemic_framework_payload
        from vdarg.oracle import random_epistemic_spec

        diagnosed = 0
        for seed in range(700):  # seeds 347, 391 and 610 hold a justified contradiction
            spec = random_epistemic_spec(seed)
            for semantics in SEMANTICS:
                diagnostic = _epistemic_framework_payload(spec, semantics)["diagnostic"]
                try:
                    analyze_epistemic(spec, (), semantics)
                except SchemaError as exc:
                    diagnosed += 1
                    assert diagnostic == str(exc)
                else:
                    assert diagnostic is None or diagnostic.endswith("statuses are vacuous")
        assert diagnosed

    def test_text_reads_the_rejecting_attacker_from_the_payload(self):
        from vdarg.cli import _epistemic_text

        # Y2 and Y3 both attack Y1 from every extension; the verdict names Y3.
        payload = {
            "perceptions": [],
            "justified_perceptions": [],
            "situation": ["~a", "~b", "~c"],
            "undecided": [],
            "arguments": [
                {"id": "Y1", "premises": ["a"], "conclusion": "a"},
                {"id": "Y2", "premises": [], "conclusion": "b"},
                {"id": "Y3", "premises": [], "conclusion": "c"},
            ],
            "attacks": [["Y2", "Y1"], ["Y3", "Y1"]],
            "extensions": [["Y2", "Y3"]],
            "diagnostic": None,
            "assumptions": [{
                "literal": "a", "argument": "Y1", "status": "rejected", "attackers": ["Y2", "Y3"],
                "defenders": [], "rejecting_attacker": "Y3",
            }],
        }
        assert "  a: rejected (attacked by Y3)" in _epistemic_text(payload).splitlines()


class TestArgumentsDerivedOnce:
    """Each command derives the argument graph at most once: the epistemic
    reports read one derived graph, the practical justify report reads a
    graph written from the compiler's rows, and deciding or explaining an
    action reads none."""

    @pytest.mark.parametrize("argv, derivations", [
        (("justify", "{nixon}"), 1),
        (("epistemic", "{eldercare}", "S2"), 1),
        (("explain", "{eldercare}", "S2", "--situation"), 1),
        (("justify", "{eldercare}", "S1"), 0),
        (("solve", "{eldercare}", "S1"), 0),
        (("explain", "{eldercare}", "S1", "charge"), 0),
    ])
    def test_derivations_per_command(self, run, monkeypatch, eldercare_path, nixon_path, argv, derivations):
        import vdarg.frameworks

        calls = []
        derive = vdarg.frameworks.derive_arguments

        def counting(*args, **kwargs):
            calls.append(1)
            return derive(*args, **kwargs)

        monkeypatch.setattr(vdarg.frameworks, "derive_arguments", counting)
        code, _, err = run(*(a.format(eldercare=eldercare_path, nixon=nixon_path) for a in argv))
        assert (code, err) == (0, "")
        assert len(calls) == derivations


class TestDeterminismAndCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "{eldercare}", "S1"),
            ("justify", "{eldercare}", "S1", "--semantics", "complete"),
            ("justify", "{nixon}", "--semantics", "preferred"),
            ("justify", "{eldercare}", "S1", "--dot"),
            ("explain", "{eldercare}", "S1", "charge", "--format", "json"),
            ("epistemic", "{eldercare}", "S2", "--format", "json"),
        ],
    )
    def test_byte_identical_across_runs(self, run, argv, eldercare_path, nixon_path):
        resolved = [
            a.format(eldercare=eldercare_path, nixon=nixon_path) for a in argv
        ]
        first = run(*resolved)
        second = run(*resolved)
        assert first == second
        assert first[0] == 0

    def test_byte_identical_across_processes(self, eldercare_path):
        # Separate interpreters have different hash seeds; output must not
        # depend on set or dict hash order.
        import subprocess
        import sys

        def once(extra_env_seed):
            import os
            env = dict(os.environ, PYTHONHASHSEED=extra_env_seed)
            return subprocess.run(
                [sys.executable, "-m", "vdarg.cli", "justify", str(eldercare_path),
                 "S1", "--format", "json"],
                capture_output=True, env=env, check=True,
            ).stdout

        assert once("1") == once("2")

    def test_usage_error_exits_2(self, run):
        code, _, _ = run("solve")
        assert code == 2

    def test_missing_file_exits_2(self, run):
        code, _, err = run("solve", "/nonexistent/agent.json", "S1")
        assert code == 2

    def test_oracle_check_smoke(self, run):
        code, out, _ = run("oracle-check", "--instances", "5", "--aafs", "5")
        assert code == 0
        assert "mismatches=0" in out

    def test_oracle_check_covers_practical_decisions(self, run, monkeypatch):
        # With no random AAFs, only the agents' solutions and their lifted
        # practical extensions are checked; an oracle that finds no extension
        # must disagree with the second.
        import vdarg.cli

        monkeypatch.setattr(vdarg.cli, "brute_force_extensions", lambda aaf, semantics: set())
        code, out, _ = run("oracle-check", "--instances", "2", "--aafs", "0")
        assert code == 1
        assert out.strip() == "oracle-check: instances=2 aafs=0 mismatches=8"

    @pytest.mark.parametrize("counts", [("-3", "-1"), ("0", "-1"), ("-1", "0")])
    def test_oracle_check_refuses_negative_counts(self, run, counts):
        code, out, err = run("oracle-check", "--instances", counts[0], "--aafs", counts[1])
        assert (code, out) == (2, "")
        assert err == "error: --instances and --aafs must not be negative\n"

    def test_solve_needs_a_principle(self, run, tmp_path, eldercare_path):
        path = _variant(tmp_path, eldercare_path, lambda data: data.pop("principle"))
        code, out, err = run("solve", path, "S1")
        assert (code, out) == (2, "")
        assert err == "error: agent declares no principle; practical reasoning is unavailable\n"

    def test_oracle_check_has_no_format_option(self, run):
        code, _, _ = run("oracle-check", "--instances", "1", "--aafs", "1", "--format", "json")
        assert code == 2

    def test_non_utf8_file_exits_2(self, run, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code, _, err = run("solve", str(path), "S1")
        assert code == 2
        assert "utf16.json" in err

    def test_oracle_check_is_hidden_from_help(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "oracle-check" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "S1"],
            ["justify", "S1"],
            ["explain", "S1", "charge"],
            ["epistemic", "S2"],
        ],
    )
    def test_sentence_name_collision_exits_2_at_load(self, run, tmp_path, eldercare_path, argv):
        data = json.loads(eldercare_path.read_text(encoding="utf-8"))
        data["principle"]["warn"] = data["principle"].pop("u1")
        path = tmp_path / "collision.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert "collision" in err

    def test_two_spellings_of_one_contrary_key_exit_2(self, run, tmp_path, eldercare_path):
        data = json.loads(eldercare_path.read_text(encoding="utf-8"))
        data["epistemic"]["contraries"] = {"~ab": "lb", "¬ab": "fc"}
        path = tmp_path / "contraries.json"
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        code, out, err = run("epistemic", str(path), "S2")
        assert code == 2
        assert out == ""
        assert "'~ab' and '¬ab'" in err

    @pytest.mark.parametrize("argv", [["solve", "S1"], ["justify", "S1"]])
    @pytest.mark.parametrize("digit_limit", [None, 0])
    def test_integer_past_the_digit_limit_exits_2(self, run, tmp_path, eldercare_path, argv, digit_limit):
        # Written as raw text: json.dumps cannot write an integer this long.
        # With the interpreter's digit limit off (0), the value range rejects it.
        import sys

        text = eldercare_path.read_text(encoding="utf-8")
        huge = text.replace('"charge":   [0, 1,', '"charge":   [0, ' + "9" * 5000 + ",", 1)
        assert huge != text
        path = tmp_path / "huge.json"
        path.write_text(huge, encoding="utf-8")
        default_limit = sys.get_int_max_str_digits()
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
        try:
            code, out, err = run(argv[0], str(path), *argv[1:])
        finally:
            sys.set_int_max_str_digits(default_limit)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [["solve", "S1"], ["solve", "S1", "--format", "json"]])
    def test_lone_surrogate_in_a_name_exits_2_at_load(self, tmp_path, eldercare_path, argv):
        # In a subprocess: an in-process StringIO accepts what stdout cannot encode.
        import subprocess
        import sys

        text = eldercare_path.read_text(encoding="utf-8")
        path = tmp_path / "surrogate.json"
        path.write_text(text.replace('"warn"', '"w\\ud800"'), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "vdarg.cli", argv[0], str(path), *argv[1:]],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "surrogate.json" in proc.stderr

    def test_lone_surrogate_in_a_duty_name_exits_2(self, run, tmp_path, eldercare_path):
        text = eldercare_path.read_text(encoding="utf-8")
        path = tmp_path / "duty-name.json"
        path.write_text(text.replace('"maximize honor', '"\\udc00 honor', 1), encoding="utf-8")
        code, out, err = run("explain", str(path), "S1", "charge")
        assert (code, out) == (2, "")
        assert "duty_names.MHC" in err

    def test_deeply_nested_json_exits_2(self, run, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text('{"language": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        code, out, err = run("solve", str(path), "S1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
