"""Agent file parsing, canonical serialization, and round-trip identity."""

from __future__ import annotations

import json

import pytest

from vdarg import AgentFileError, Literal, dump_agent, load_agent, parse_agent


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["eldercare.json", "nixon.json", "standoff.json"])
    def test_parse_serialize_parse_identity(self, name, eldercare_path):
        path = eldercare_path.parent / name
        agent = load_agent(path)
        again = parse_agent(dump_agent(agent))
        assert again == agent

    def test_serialization_is_stable(self, eldercare):
        assert dump_agent(eldercare) == dump_agent(eldercare)


class TestParsing:
    def test_eldercare_shape(self, eldercare):
        assert eldercare.language.actions == (
            "charge", "remind", "engage", "warn", "notify", "seekTask",
        )
        assert len(eldercare.principle.disjuncts) == 10
        assert eldercare.situation("S1").positives == frozenset({"mrt", "r", "rm", "fc"})
        assert eldercare.epistemic.assumptions == (
            Literal("fc"), Literal("lb"), Literal("ab", False),
        )

    def test_json_syntax_errors_carry_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"language": }', encoding="utf-8")
        with pytest.raises(AgentFileError, match=r"bad\.json:1:14"):
            load_agent(bad)

    def test_non_utf8_file_is_a_file_error(self, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(AgentFileError, match=r"utf16\.json"):
            load_agent(bad)

    @pytest.mark.parametrize("atom", ["~p", "¬p", "!p", " p", ""])
    def test_atom_that_reads_as_another_literal_is_rejected(self, atom):
        data = {"language": {"atoms": [atom], "actions": [], "duties": []}}
        with pytest.raises(AgentFileError):
            parse_agent(json.dumps(data))

    def test_short_duty_row_names_the_action(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["matrices"]["S1"]["charge"] = [0, 1, -1]
        with pytest.raises(AgentFileError, match=r"matrices\.S1\.charge"):
            parse_agent(json.dumps(data))

    def test_value_outside_the_range_is_rejected(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["matrices"]["S1"]["charge"][0] = 7
        with pytest.raises(AgentFileError, match="outside"):
            parse_agent(json.dumps(data))

    def test_matrix_for_undeclared_situation_is_rejected(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["matrices"]["S9"] = data["matrices"]["S1"]
        with pytest.raises(AgentFileError, match="undeclared situation"):
            parse_agent(json.dumps(data))

    def test_unknown_duty_name_key_is_rejected(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["duty_names"]["BOGUS"] = "nope"
        with pytest.raises(AgentFileError, match="BOGUS"):
            parse_agent(json.dumps(data))

    def test_unknown_perception_is_rejected(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["situations"]["S1"].append("zzz")
        with pytest.raises(AgentFileError, match="zzz"):
            parse_agent(json.dumps(data))

    def test_epistemic_literal_must_reference_a_declared_atom(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["epistemic"]["assumptions"].append("~ghost")
        with pytest.raises(AgentFileError, match="ghost"):
            parse_agent(json.dumps(data))

    def test_negation_prefixes_are_interchangeable_on_parse(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["epistemic"]["assumptions"] = ["fc", "lb", "¬ab"]
        agent = parse_agent(json.dumps(data))
        assert agent == eldercare

    def test_principle_is_optional(self, nixon):
        assert nixon.principle is None
        assert nixon.epistemic is not None
