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

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            '{"language": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=["top-level", "language"],
    )
    def test_deeply_nested_json_is_a_file_error(self, text):
        with pytest.raises(AgentFileError, match="nested too deeply"):
            parse_agent(text)

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

    def test_two_spellings_of_one_contrary_key_are_rejected(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["epistemic"]["contraries"] = {"~ab": "lb", "¬ab": "fc"}
        with pytest.raises(AgentFileError, match="'~ab' and '¬ab'"):
            parse_agent(json.dumps(data))

    def test_principle_is_optional(self, nixon):
        assert nixon.principle is None
        assert nixon.epistemic is not None


class TestDuplicateKeys:
    @pytest.mark.parametrize(
        "anchor, repeated, key",
        [
            ("{\n", '"principle": {"u1": [0, 0, 0, 0, 0, 0, 0]},\n', "principle"),
            ('"situations": {\n', '"S1": [],\n', "S1"),
            ('"principle": {\n', '"u1": [0, 0, 0, 0, 0, 0, 0],\n', "u1"),
        ],
        ids=["top-level", "situation", "disjunct"],
    )
    def test_repeated_key_is_rejected_by_name(self, eldercare, anchor, repeated, key):
        text = dump_agent(eldercare)
        assert anchor in text
        text = text.replace(anchor, anchor + repeated, 1)
        with pytest.raises(AgentFileError, match=f"duplicate key '{key}'"):
            parse_agent(text)


class TestBooleansAreNotIntegers:
    def test_boolean_in_value_range(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["value_range"] = [True, 2]
        with pytest.raises(AgentFileError, match="value_range"):
            parse_agent(json.dumps(data))

    def test_boolean_matrix_degree(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["matrices"]["S1"]["charge"][0] = False
        with pytest.raises(AgentFileError, match=r"matrices\.S1\.charge"):
            parse_agent(json.dumps(data))

    def test_boolean_principle_bound(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["principle"]["u1"][6] = True
        with pytest.raises(AgentFileError, match=r"principle\.u1"):
            parse_agent(json.dumps(data))


class TestNameCollisions:
    def test_disjunct_named_like_an_action_is_rejected_at_load(self, eldercare):
        data = json.loads(dump_agent(eldercare))
        data["principle"] = {
            ("warn" if uid == "u1" else uid): row for uid, row in data["principle"].items()
        }
        with pytest.raises(AgentFileError, match="collision.*'warn'"):
            parse_agent(json.dumps(data))

    def test_action_named_like_a_vector_sentence_is_rejected_at_load(self):
        data = {
            "language": {"atoms": ["p"], "actions": ["go", "v_R(go)"], "duties": ["d"]},
            "situations": {"R": ["p"]},
            "matrices": {"R": {"go": [1], "v_R(go)": [0]}},
            "principle": {"u1": [-2]},
        }
        with pytest.raises(AgentFileError, match=r"collision.*'v_R\(go\)'"):
            parse_agent(json.dumps(data))


class TestErrorMessages:
    """Loader and validation errors, each with its exact message."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("language"), "top level: missing key 'language'"),
        (lambda d: d["language"].update(atoms="lb"), "language.atoms: expected list"),
        (lambda d: d["language"].update(duties=["MHC", 1]), "language.duties: expected a list of strings"),
        (lambda d: d["duty_names"].update(MHC=3), "duty_names.MHC: expected a string"),
        (lambda d: d["matrices"].update(S1=[]), "matrices.S1: expected an object of action rows"),
        (lambda d: d["matrices"]["S1"].update(warn=[0, "1"]), "matrices.S1.warn: expected a list of integers"),
        (lambda d: d["principle"].update(u2=[0]), "principle.u2: expected 7 values, got 1"),
        (lambda d: d["epistemic"].update(contraries={"fc": 3}), "epistemic.contraries.fc: expected a string"),
        (lambda d: d["epistemic"]["rules"].update(r11=["lb"]),
         "epistemic.rules.r11: expected an object with head/body"),
        (lambda d: d["epistemic"]["rules"]["r11"].update(body="lb"), "epistemic.rules.r11.body: expected list"),
        (lambda d: d["epistemic"].update(facts=[None]), "epistemic.facts: expected a list of strings"),
        (lambda d: d.update(value_range=[2, -2]), "empty value range: (2, -2)"),
        (lambda d: d["epistemic"].update(assumptions=["fc", "fc"]), "duplicate epistemic assumptions"),
        (lambda d: d["epistemic"].update(contraries={"mrt": "r"}), "contrary override for non-assumption mrt"),
        (lambda d: d["epistemic"].update(assumptions=["~"]), "empty literal: '~'"),
    ], ids=[
        "no-language", "atoms-not-a-list", "duty-not-a-string", "duty-name-not-a-string", "matrix-not-an-object",
        "row-not-integers", "short-principle-row", "contrary-not-a-string", "rule-not-an-object",
        "body-not-a-list", "fact-not-a-string", "empty-value-range", "duplicate-assumption",
        "contrary-of-non-assumption", "bare-negation",
    ])
    def test_edited_eldercare(self, eldercare, edit, message):
        data = json.loads(dump_agent(eldercare))
        edit(data)
        with pytest.raises(AgentFileError) as info:
            parse_agent(json.dumps(data))
        assert str(info.value) == f"<string>: {message}"

    def test_top_level_list(self):
        with pytest.raises(AgentFileError) as info:
            parse_agent("[]")
        assert str(info.value) == "<string>: top level must be a JSON object"
