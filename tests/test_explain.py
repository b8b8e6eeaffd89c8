"""Explanation structure, faithfulness, and deterministic rendering."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest

from vdarg import (
    ActionMatrix,
    AttackerCitation,
    Disjunct,
    DutyVector,
    EpistemicRule,
    EpistemicSpec,
    Explanation,
    Literal,
    Principle,
    SchemaError,
    Situation,
    UnknownNameError,
    VdaAgent,
    VdaLanguage,
    analyze_epistemic,
    analyze_practical,
    explain_action,
    explain_all_actions,
    explain_situation,
    render_text,
)
from vdarg.oracle import RandomVdaSpec, random_vda


@pytest.fixture(scope="module")
def s1_result(eldercare):
    return analyze_practical(eldercare, "S1", "grounded")


@pytest.fixture(scope="module")
def s2_result(eldercare):
    return analyze_epistemic(eldercare.epistemic, sorted(eldercare.situation("S2").positives))


class TestJustifiedAction:
    def test_warn_cites_its_extension_and_no_attacker(self, s1_result):
        e = explain_action(s1_result, "warn")
        assert e.verdict == "justified-skeptical"
        assert e.argument_id == "X2"
        assert e.extensions == ("E1",)
        assert e.attackers == ()
        assert "has no attacker" in e.text
        assert "X2" in e.text

    def test_unknown_action(self, s1_result):
        with pytest.raises(UnknownNameError):
            explain_action(s1_result, "sleep")


class TestRejectedAction:
    def test_charge_cites_u7_and_warn(self, s1_result):
        e = explain_action(s1_result, "charge")
        assert e.verdict == "rejected"
        attacker = e.attackers[0]
        assert attacker.argument_id == "X5"
        assert attacker.premises == ("u7", "v_S1(warn)")
        assert attacker.disjunct == "u7"
        assert attacker.source_action == "warn"
        assert "premises (u7 and v_S1(warn)) are accepted" in e.text

    def test_charge_gloss_names_differentiating_duties_only(self, s1_result):
        e = explain_action(s1_result, "charge")
        assert "mH2P:1" in e.text
        assert "MRA:-1" in e.text
        assert "MMR:1" in e.text
        assert "MG2P" not in e.text  # equal on both sides: no role here

    def test_remind_is_rejected_a_priori(self, s1_result):
        e = explain_action(s1_result, "remind")
        assert e.verdict == "rejected-a-priori"
        assert e.argument_id is None
        assert "satisfies no duty" in e.text


class TestFaithfulnessAndCoverage:
    def test_cited_arguments_are_in_the_cited_extensions(self, s1_result):
        labelled = dict(s1_result.report.labelled())
        for e in explain_all_actions(s1_result):
            if e.verdict.startswith("justified"):
                for label in e.extensions:
                    assert e.argument_id in labelled[label].members
            for att in e.attackers:
                for label in att.extensions:
                    assert att.argument_id in labelled[label].members

    def test_every_action_gets_exactly_one_verdict(self, s1_result):
        verdicts = {e.subject: e.verdict for e in explain_all_actions(s1_result)}
        assert set(verdicts) == set(s1_result.build.agent.language.actions)
        allowed = {"justified-skeptical", "justified-credulous", "rejected",
                   "rejected-a-priori", "indeterminate"}
        assert set(verdicts.values()) <= allowed

    def test_rendering_is_deterministic(self, s1_result):
        first = [explain_action(s1_result, a).text for a in ("warn", "charge", "remind")]
        second = [explain_action(s1_result, a).text for a in ("warn", "charge", "remind")]
        assert first == second


class TestSituationExplanations:
    def test_s2_assumption_explanations(self, s2_result):
        by_subject = {e.subject: e for e in explain_situation(s2_result)}
        assert by_subject["fc"].verdict == "rejected"
        assert "attacked by a skeptically accepted argument".replace("a skeptically", "the skeptically") \
            in by_subject["fc"].text or "skeptically accepted argument" in by_subject["fc"].text
        assert by_subject["¬ab"].verdict == "rejected"
        lb = by_subject["lb"]
        assert lb.verdict == "justified-skeptical"
        assert lb.defenders == ("Y4", "Y6")
        assert "Y4 and Y6" in lb.text

    def test_no_attack_framework_justifies_everything(self):
        spec = EpistemicSpec(("x", "y"), (Literal("x"),))
        result = analyze_epistemic(spec, ["x", "y"])
        (e,) = explain_situation(result)
        assert e.verdict == "justified-skeptical"
        assert "no attacker" in e.text

    def test_symmetric_conflict_is_explained_as_indeterminate(self):
        spec = EpistemicSpec(("x",), (Literal("x"), Literal("x", False)))
        result = analyze_epistemic(spec, ["x"])
        explanations = explain_situation(result)
        assert [e.verdict for e in explanations] == ["indeterminate", "indeterminate"]
        assert all(e.attackers for e in explanations)


def _chain_spec(length: int) -> EpistemicSpec:
    """c0 -> ... -> c<length>, each link by a<i> or b<i>; c2 rejects b4, c<length>
    rejects p, and m / ¬m attack each other."""
    links = range(1, length + 1)
    rules = [
        EpistemicRule(f"r{x}{i}", Literal(f"c{i}"), (Literal(f"c{i - 1}"), Literal(f"{x}{i}")))
        for i in links for x in "ab"
    ]
    rules += [
        EpistemicRule("rb", Literal("b4", False), (Literal("c2"),)),
        EpistemicRule("rp", Literal("p", False), (Literal(f"c{length}"),)),
    ]
    atoms = tuple(f"c{i}" for i in range(length + 1)) + tuple(f"{x}{i}" for i in links for x in "ab") + ("p", "m")
    assumptions = tuple(Literal(f"{x}{i}") for i in links for x in "ab") + (Literal("p"), Literal("m"), Literal("m", False))
    return EpistemicSpec(atoms, assumptions, tuple(rules))


@pytest.mark.parametrize("semantics", ["grounded", "complete", "preferred"])
def test_situation_citations_match_each_cited_argument(s2_result, semantics):
    # Citations of arguments with one attacker tuple share their status
    # record's labels and, per verdict, their counter-attackers; each must
    # still be the cited argument's own.
    for result in (s2_result, analyze_epistemic(_chain_spec(5), ["c0"], semantics)):
        report, aaf = result.report, result.aaf
        labelled = report.labelled()

        def labels_of(arg_id):
            return tuple(label for label, ext in labelled if arg_id in ext.members)

        assert all(st.extensions == labels_of(x) for x, st in report.statuses.items())
        cited = 0
        for e in explain_situation(result):
            assert e.extensions == labels_of(e.argument_id)
            for att in e.attackers:
                cited += 1
                assert att.extensions == labels_of(att.argument_id)
                assert att.counter_attackers == tuple(
                    d for d in aaf.attackers_of[att.argument_id] if d in e.defenders
                )
                # Cited as the argument holds them, in leaf order, with no copy.
                assert att.premises is aaf.by_id[att.argument_id].premises
        assert cited > 0


def test_attacker_citations_are_frozen_records():
    values = dict(
        argument_id="X3", conclusion="¬v(b)", premises=("u1", "v(a)"), extensions=("E1", "E2"),
        counter_attackers=("X4",), disjunct="u1", disjunct_bounds=(("d1", 0),), source_action="a",
        source_vector=(("d1", 1),), target_vector=(("d1", 0),),
    )
    citation = AttackerCitation(**values)
    assert [f.name for f in fields(citation)] == list(values)
    assert asdict(citation) == values
    for name in values:
        with pytest.raises(FrozenInstanceError):
            setattr(citation, name, None)
    assert repr(citation) == "AttackerCitation(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    assert citation == AttackerCitation(*values.values())
    assert citation != replace(citation, extensions=("E1",))
    bare = AttackerCitation("Y2", "¬a", ("b",), ("E1",), ())
    assert asdict(bare) == dict(
        argument_id="Y2", conclusion="¬a", premises=("b",), extensions=("E1",), counter_attackers=(),
        disjunct=None, disjunct_bounds=None, source_action=None, source_vector=None, target_vector=None,
    )


def test_explanations_are_frozen_records(s1_result):
    citation = explain_action(s1_result, "charge").attackers[0]
    values = dict(
        subject="charge", kind="action", verdict="rejected", argument_id="X2", premises=("v_S1(charge)",),
        extensions=("E1",), attackers=(citation,), defenders=("X1",), semantics="grounded", text="Because.",
    )
    explanation = Explanation(**values)
    assert [f.name for f in fields(explanation)] == list(values)
    assert asdict(explanation) == values | {"attackers": (asdict(citation),)}
    for name in values:
        with pytest.raises(FrozenInstanceError):
            setattr(explanation, name, None)
    assert repr(explanation) == "Explanation(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    assert explanation == Explanation(*values.values())
    assert explanation != replace(explanation, text="")
    assert replace(explanation, text="") == Explanation(*list(values.values())[:-1])
    assert Explanation(*list(values.values())[:-1]).text == ""


def _practical_results(eldercare):
    inputs = [(eldercare, "S1"), (eldercare, "S2J")]
    inputs += [random_vda(RandomVdaSpec(seed=seed, actions=6, duties=3)) for seed in range(12)]
    for agent, sid in inputs:
        for semantics in ("grounded", "preferred"):
            yield analyze_practical(agent, sid, semantics)


def test_citations_of_one_result_share_their_value_pairs(eldercare):
    # Each disjunct's bound pairs and each action's value pairs are built once
    # per result, and every citation of that result holds the same objects.
    reused = 0  # citations of a disjunct cited before in the same result
    for result in _practical_results(eldercare):
        bounds: dict[str, object] = {}
        vectors: dict[str, object] = {}
        for e in explain_all_actions(result):
            for att in e.attackers:
                reused += att.disjunct in bounds
                assert bounds.setdefault(att.disjunct, att.disjunct_bounds) is att.disjunct_bounds
                assert vectors.setdefault(att.source_action, att.source_vector) is att.source_vector
                assert vectors.setdefault(e.subject, att.target_vector) is att.target_vector
    assert reused > 100


def test_explanations_read_no_disjunct_by_scanning_the_principle(eldercare, monkeypatch):
    expected = [[e.text for e in explain_all_actions(result)] for result in _practical_results(eldercare)]

    def refuse(self, disjunct_id):
        raise AssertionError("explanations must not scan the principle")

    monkeypatch.setattr(Principle, "by_id", refuse)
    monkeypatch.setattr(Principle, "index_of", refuse)
    found = [[e.text for e in explain_all_actions(result)] for result in _practical_results(eldercare)]
    assert found == expected
    assert any("attacked by" in text for texts in found for text in texts)


def _two_action_result(rows, bounds, duty_names=None):
    duties = tuple(f"d{i + 1}" for i in range(len(next(iter(rows.values())))))
    agent = VdaAgent(
        language=VdaLanguage(("p",), tuple(rows), duties),
        situations={"R": Situation.from_perceptions(("p",), ())},
        matrices={"R": ActionMatrix("R", {
            a: DutyVector(a, dict(zip(duties, row))) for a, row in rows.items()
        })},
        principle=Principle(tuple(
            Disjunct(f"u{i + 1}", dict(zip(duties, b))) for i, b in enumerate(bounds)
        )),
        duty_names=duty_names or {},
    )
    return analyze_practical(agent, "R", "grounded")


class TestRendering:
    def test_rejection_gloss_names_only_differing_duties(self):
        result = _two_action_result({"a": (1, 1), "b": (1, 0)}, [(0, 0)])
        e = explain_action(result, "b")
        assert e.verdict == "rejected"
        assert "(d2:1)" in e.text
        assert "d1" not in e.text  # equal on both sides

    def test_zero_differential_pair_notes_no_differentiating_duty(self):
        from vdarg import AttackerCitation, Explanation

        vector = (("d1", 1), ("d2", 0))
        e = Explanation(
            subject="b", kind="action", verdict="rejected", argument_id="X2",
            premises=("v(b)",), extensions=("E1",),
            attackers=(AttackerCitation(
                argument_id="X3", conclusion="¬v(b)", premises=("u1", "v(a)"),
                extensions=("E1",), counter_attackers=(), disjunct="u1",
                disjunct_bounds=(("d1", 0), ("d2", 0)), source_action="a",
                source_vector=vector, target_vector=vector,
            ),),
            defenders=(), semantics="grounded",
        )
        text = render_text(e, {"d1": "duty one", "d2": "duty two"})
        assert "no duty differentiates" in text

    def test_missing_duty_name_is_a_schema_error(self, s1_result):
        e = explain_action(s1_result, "charge")
        with pytest.raises(SchemaError):
            render_text(e, {"MHC": "only one duty named"})

    def test_identity_duty_table_is_the_default(self, s1_result):
        e = explain_action(s1_result, "charge")
        assert render_text(e, None)  # falls back to duty ids


class TestAttackPairsStayOffTheDecidePath:
    """Deciding and explaining read each argument's attackers; the pair set
    Aaf.attacks is built only for the readers that print or brute-force it.
    A practical decision builds no argument graph at all until it is read."""

    def test_practical_decision_and_explanations(self, eldercare):
        result = analyze_practical(eldercare, "S1")
        explain_all_actions(result)
        assert "aaf" not in vars(result)
        assert "attacks" not in vars(result.aaf)

    def test_epistemic_decision_and_explanation(self, eldercare):
        result = analyze_epistemic(eldercare.epistemic, sorted(eldercare.situation("S2").positives))
        explain_situation(result)
        assert "attacks" not in vars(result.aaf)

    def test_no_tree_or_rule_set_is_built(self, eldercare):
        cases = [
            (eldercare.epistemic, sorted(eldercare.situation("S2").positives)),
            (chain_spec(6), ["c0"]),
        ]
        for spec, perceptions in cases:
            result = analyze_epistemic(spec, perceptions)
            assert len(result.aaf.arguments) > len(spec.assumptions)
            explain_situation(result)
            assert not any({"tree", "rules_used"} & vars(arg).keys() for arg in result.aaf.arguments)


def chain_spec(length: int) -> EpistemicSpec:
    """c0 -> c1 -> ... -> cL, link i through assumption a_i or b_i, so c_k has
    2^k proofs; c_L concludes the contrary of p, and c_2 that of a_4."""
    links = range(1, length + 1)
    rules = [(Literal(f"c{i}"), (Literal(f"c{i - 1}"), Literal(f"{x}{i}"))) for i in links for x in "ab"]
    rules += [(Literal("p", False), (Literal(f"c{length}"),)), (Literal("a4", False), (Literal("c2"),))]
    return EpistemicSpec(
        atoms=tuple(f"c{i}" for i in range(length + 1)) + tuple(f"{x}{i}" for i in links for x in "ab") + ("p",),
        assumptions=tuple(Literal(f"{x}{i}") for i in links for x in "ab") + (Literal("p"),),
        rules=tuple(EpistemicRule(f"r{n + 1}", head, body) for n, (head, body) in enumerate(rules)),
    )
