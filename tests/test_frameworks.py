"""Framework generation, justified situations, and the end-to-end pipeline."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from vdarg import (
    ActionMatrix,
    Disjunct,
    DutyVector,
    EpistemicRule,
    EpistemicSpec,
    FlatnessError,
    IndeterminateSituationError,
    Literal,
    Principle,
    ResourceCapError,
    SchemaError,
    Situation,
    UnknownNameError,
    VdaAgent,
    VdaLanguage,
    analyze_epistemic,
    analyze_practical,
    end_to_end_decide,
    epistemic_framework,
    justified_situation,
    meets_lower_bounds,
    practical_framework,
    prefers,
    solutions,
)
from vdarg.aba import compute_attacks, derive_arguments
from vdarg.oracle import RandomVdaSpec, brute_force_solutions, random_vda


def rule_shapes(framework):
    return [(r.id, r.head, r.body) for r in framework.rules]


class TestPracticalGeneration:
    def test_s1_rules_match_the_worked_example(self, eldercare):
        build = practical_framework(eldercare, "S1")
        v = build.vector_of
        n = build.negation_of
        assert rule_shapes(build.framework) == [
            ("r1", "charge", (v["charge"],)),
            ("r2", "warn", (v["warn"],)),
            ("r3", "notify", (v["notify"],)),
            ("r4", "seekTask", (v["seekTask"],)),
            ("r5", n["charge"], ("u7", v["warn"])),
            ("r6", n["charge"], ("u7", v["notify"])),
            ("r7", n["charge"], ("u4", v["seekTask"])),
            ("r8", n["notify"], ("u5", v["warn"])),
            ("r9", n["seekTask"], ("u7", v["warn"])),
            ("r10", n["seekTask"], ("u7", v["notify"])),
        ]

    def test_s1_assumptions(self, eldercare):
        build = practical_framework(eldercare, "S1")
        assert build.assumption_actions == ("charge", "warn", "notify", "seekTask")
        assert build.framework.assumptions == tuple(
            build.vector_of[a] for a in ("charge", "warn", "notify", "seekTask")
        )
        assert all(
            build.framework.contraries[build.vector_of[a]] == build.negation_of[a]
            for a in build.assumption_actions
        )

    def test_language_covers_principle_matrix_negations_actions(self, eldercare):
        build = practical_framework(eldercare, "S1")
        lang = build.framework.language
        assert {u.id for u in eldercare.principle} <= lang
        assert set(build.vector_of.values()) <= lang
        assert set(build.negation_of.values()) <= lang
        assert set(eldercare.language.actions) <= lang

    def test_all_action_rules_when_nothing_satisfies_a_duty(self):
        duties = ("d1", "d2")
        rows = {"a": (-1, 0), "b": (0, -2)}
        agent = VdaAgent(
            language=VdaLanguage(("p",), ("a", "b"), duties),
            situations={"R": Situation.from_perceptions(("p",), ())},
            matrices={"R": ActionMatrix("R", {
                k: DutyVector(k, dict(zip(duties, row))) for k, row in rows.items()
            })},
            principle=Principle((Disjunct("u1", {"d1": -4, "d2": -4}),)),
        )
        build = practical_framework(agent, "R")
        assert build.assumption_actions == ("a", "b")
        action_rules = [row for row in build.rows if row[2] is None]
        assert len(action_rules) == 2

    def test_generation_is_sound_and_complete(self, eldercare):
        # Sound: every principle rule's bound re-verifies; complete: an
        # exhaustive pair scan finds no covered pair without a rule.
        for sid in ("S1", "S2J"):
            build = practical_framework(eldercare, sid)
            matrix = eldercare.matrices[sid]
            principle = eldercare.principle
            covered = set()
            for source, target, disjunct in build.rows:
                if disjunct is None:
                    continue
                w = matrix.vector(source).differential(matrix.vector(target))
                assert meets_lower_bounds(w, principle.by_id(disjunct))
                covered.add((source, target))
            assumption_set = set(build.assumption_actions)
            for a in eldercare.language.actions:
                for b in eldercare.language.actions:
                    if a == b or b not in assumption_set:
                        continue
                    expected = bool(prefers(matrix, principle, a, b))
                    assert ((a, b) in covered) == expected

    def test_principle_rules_cite_the_tightest_disjunct(self, eldercare):
        # The qualifying disjunct with the greatest total bound; the earliest
        # in principle order among those.
        principle = eldercare.principle
        order = [u.id for u in principle]
        total = {u.id: sum(u.bounds.values()) for u in principle}
        for sid in eldercare.matrices:
            build = practical_framework(eldercare, sid)
            for source, target, disjunct in build.rows:
                if disjunct is None:
                    continue
                ids = build.weak_preference[(source, target)]
                best = max(total[uid] for uid in ids)
                assert disjunct == min(
                    (uid for uid in ids if total[uid] == best), key=order.index
                )

    @pytest.mark.parametrize("reverse_ids", [False, True])
    def test_equal_totals_go_to_the_earliest_disjunct(self, monkeypatch, reverse_ids):
        # u1 is looser (total -4); u2 and u3 tie at -2.  Reversing the ids that
        # weak preference lists shows that principle order, not list order,
        # breaks the tie.
        from vdarg import core
        if reverse_ids:
            pairs = core.weak_preference_pairs
            monkeypatch.setattr(core, "weak_preference_pairs", lambda m, p: {
                key: ids[::-1] for key, ids in pairs(m, p).items()
            })
        duties = ("d1", "d2")
        rows = {"a": (2, 1), "b": (1, 1)}
        bounds = [(-2, -2), (-1, -1), (0, -2)]
        agent = VdaAgent(
            language=VdaLanguage(("p",), ("a", "b"), duties),
            situations={"R": Situation.from_perceptions(("p",), ())},
            matrices={"R": ActionMatrix("R", {
                k: DutyVector(k, dict(zip(duties, row))) for k, row in rows.items()
            })},
            principle=Principle(tuple(
                Disjunct(f"u{i + 1}", dict(zip(duties, b))) for i, b in enumerate(bounds)
            )),
        )
        build = practical_framework(agent, "R")
        listed = ("u1", "u2", "u3")
        assert build.weak_preference[("a", "b")] == (listed[::-1] if reverse_ids else listed)
        cited = [disjunct for source, _, disjunct in build.rows if source == "a" and disjunct is not None]
        assert cited == ["u2"]

    def test_principle_rules_follow_language_order(self):
        # Rules go target-major, then source, both in language order, which
        # the matrix need not share; checked against the pair-by-pair loop.
        rng = random.Random(13)
        for _ in range(60):
            n, duties = rng.randint(2, 9), ("d1", "d2", "d3")
            actions = tuple(f"a{i}" for i in range(n))
            rows = {a: {d: rng.randint(-2, 2) for d in duties} for a in rng.sample(actions, n)}
            agent = VdaAgent(
                language=VdaLanguage(("p",), actions, duties),
                situations={"R": Situation.from_perceptions(("p",), ())},
                matrices={"R": ActionMatrix("R", {a: DutyVector(a, v) for a, v in rows.items()})},
                principle=Principle(tuple(
                    Disjunct(f"u{i}", {d: rng.randint(-4, 1) for d in duties}) for i in range(3)
                )),
            )
            build = practical_framework(agent, "R")
            matrix, principle = agent.matrices["R"], agent.principle
            total = {u.id: sum(u.bounds.values()) for u in principle}
            expected = [
                (build.negation_of[target], source, target)
                for target in actions if target in build.assumption_actions
                for source in actions
                if source != target and prefers(matrix, principle, source, target)
            ]
            principle_rules = [
                (r.head, row[0], row[1])
                for r, row in zip(build.framework.rules, build.rows, strict=True) if row[2] is not None
            ]
            assert principle_rules == expected
            assert [r.id for r in build.framework.rules] == [
                f"r{i + 1}" for i in range(len(build.framework.rules))
            ]
            for source, target, disjunct in build.rows:
                if disjunct is not None:
                    ids = prefers(matrix, principle, source, target)
                    assert disjunct == max(ids, key=lambda uid: (total[uid], -ids.index(uid)))

    def test_argument_count_formula_on_s1(self, eldercare):
        result = analyze_practical(eldercare, "S1")
        principle_rules = [
            r for r, row in zip(result.build.framework.rules, result.build.rows, strict=True)
            if row[2] is not None
        ]
        satisfiable = [
            r for r in principle_rules
            if r.body[1] in result.build.framework.assumption_set
        ]
        assert len(result.aaf.arguments) == len(result.build.framework.assumptions) + len(satisfiable)
        assert len(result.aaf.arguments) == 10

    def test_sentence_collision_is_rejected(self):
        duties = ("d1",)
        agent = VdaAgent(
            language=VdaLanguage(("p",), ("u1",), duties),  # action named like a disjunct
            situations={"R": Situation.from_perceptions(("p",), ())},
            matrices={"R": ActionMatrix("R", {"u1": DutyVector("u1", {"d1": 1})})},
            principle=Principle((Disjunct("u1", {"d1": -4}),)),
        )
        with pytest.raises(SchemaError):
            practical_framework(agent, "R")

    def test_missing_matrix(self, eldercare):
        with pytest.raises(UnknownNameError):
            practical_framework(eldercare, "S2")

    def test_argument_cap_is_checked_at_compile_time(self, eldercare, monkeypatch):
        monkeypatch.setattr("vdarg.frameworks.DEFAULT_MAX_ARGUMENTS", 10)
        assert len(practical_framework(eldercare, "S1").arguments) == 10
        monkeypatch.setattr("vdarg.frameworks.DEFAULT_MAX_ARGUMENTS", 9)
        with pytest.raises(ResourceCapError) as info:
            practical_framework(eldercare, "S1")
        assert (info.value.cap, info.value.limit) == ("max_arguments", 9)


class TestPracticalPipeline:
    def test_s1_statuses_and_extension(self, eldercare):
        result = analyze_practical(eldercare, "S1", "grounded")
        assert [a.id for a in result.aaf.arguments] == [f"X{i}" for i in range(1, 11)]
        assert result.report.extensions[0].members == frozenset({"X2", "X5", "X8", "X9"})
        assert result.action_status == {
            "charge": "skeptically-rejected",
            "remind": "rejected-a-priori",
            "engage": "rejected-a-priori",
            "warn": "skeptically-justified",
            "notify": "skeptically-rejected",
            "seekTask": "skeptically-rejected",
        }
        assert result.justified_actions == frozenset({"warn"})
        assert result.solutions == frozenset({"warn"})

    def test_s1_attack_list(self, eldercare):
        result = analyze_practical(eldercare, "S1")
        assert result.aaf.attacks == frozenset({
            ("X5", "X1"), ("X6", "X1"), ("X7", "X1"),
            ("X8", "X3"), ("X8", "X6"), ("X8", "X10"),
            ("X9", "X4"), ("X9", "X7"), ("X10", "X4"), ("X10", "X7"),
        })

    def test_s1_complete_extension_is_unique_and_grounded(self, eldercare):
        result = analyze_practical(eldercare, "S1", "complete")
        assert len(result.report.extensions) == 1
        assert result.report.extensions[0].members == frozenset({"X2", "X5", "X8", "X9"})


    @pytest.mark.parametrize("semantics", ["grounded", "complete", "preferred", "stable"])
    def test_a_source_that_satisfies_no_duty_gives_no_argument(self, semantics):
        # a = (1, 0) and b = (0, 0) prefer each other weakly under u1 = (-1, 0),
        # but b satisfies no duty: v(b) is not an assumption, so the rule
        # not-v(a) <- u1, v(b) has no argument and a stays unattacked.
        duties = ("d1", "d2")
        agent = VdaAgent(
            language=VdaLanguage(("p",), ("a", "b"), duties),
            situations={"R": Situation.from_perceptions(("p",), ())},
            matrices={"R": ActionMatrix("R", {
                "a": DutyVector("a", {"d1": 1, "d2": 0}),
                "b": DutyVector("b", {"d1": 0, "d2": 0}),
            })},
            principle=Principle((Disjunct("u1", {"d1": -1, "d2": 0}),)),
        )
        result = analyze_practical(agent, "R", semantics)
        assert result.solutions == frozenset({"a", "b"})
        assert result.credulous_actions == frozenset({"a"})
        assert result.action_status["b"] == "rejected-a-priori"

        build = result.build
        (row,) = [row for row in build.rows if row[2] is not None]
        rule = build.framework.rules[build.rows.index(row)]
        assert rule.body == ("u1", build.vector_of["b"])
        assert row not in build.arguments.values()
        assert build.attackers_of == {"a": ()}
        assert all(rule.id not in arg.rules_used for arg in result.aaf.arguments)
        assert result.aaf.ids == tuple(build.arguments) == ("X1",)


def eldercare_epistemic_result(agent, semantics="grounded"):
    perceptions = sorted(agent.situation("S2").positives)
    return analyze_epistemic(agent.epistemic, perceptions, semantics)


class TestEpistemicGeneration:
    def test_s2_arguments_and_attacks(self, eldercare):
        result = eldercare_epistemic_result(eldercare)
        shapes = [(a.id, sorted(a.premises), a.conclusion) for a in result.aaf.arguments]
        assert shapes == [
            ("Y1", ["fc"], "fc"),
            ("Y2", ["lb"], "lb"),
            ("Y3", ["¬ab"], "¬ab"),
            ("Y4", ["lb"], "¬fc"),
            ("Y5", ["fc", "¬ab"], "¬lb"),
            ("Y6", [], "ab"),
        ]
        assert result.aaf.attacks == frozenset({
            ("Y4", "Y1"), ("Y4", "Y5"),
            ("Y5", "Y2"), ("Y5", "Y4"),
            ("Y6", "Y3"), ("Y6", "Y5"),
        })

    def test_no_rules_yields_only_assumption_arguments(self):
        spec = EpistemicSpec(("x", "y"), (Literal("x"), Literal("y", False)))
        build = epistemic_framework(spec)
        args = derive_arguments(build.framework, label="Y", keep_conclusions=build.relevant)
        assert [(a.id, a.conclusion) for a in args] == [("Y1", "x"), ("Y2", "¬y")]

    def test_cyclic_rules_terminate(self):
        spec = EpistemicSpec(
            ("p", "q", "x"),
            (Literal("x"),),
            rules=(
                EpistemicRule("r1", Literal("p"), (Literal("q"),)),
                EpistemicRule("r2", Literal("q"), (Literal("p"),)),
            ),
        )
        build = epistemic_framework(spec)
        args = derive_arguments(build.framework, label="Y", keep_conclusions=build.relevant)
        assert [a.conclusion for a in args] == ["x"]

    def test_head_naming_an_assumption_is_non_flat(self):
        spec = EpistemicSpec(
            ("p", "q"),
            (Literal("p"),),
            rules=(EpistemicRule("r1", Literal("p"), (Literal("q"),)),),
        )
        build = epistemic_framework(spec)
        with pytest.raises(FlatnessError):
            derive_arguments(build.framework)

    def test_fact_rules_come_from_true_non_assumption_perceptions(self, eldercare):
        result = eldercare_epistemic_result(eldercare)
        fact_heads = [
            r.head for r in result.build.framework.rules if not r.body
        ]
        assert fact_heads == ["mrt", "r", "rm", "ab"]


class TestJustifiedSituation:
    def test_s2_justified_situation(self, eldercare):
        js = justified_situation(
            eldercare.epistemic, sorted(eldercare.situation("S2").positives)
        )
        assert js.perceptions == frozenset(
            Literal(a) for a in ("lb", "mrt", "r", "rm", "ab")
        )
        assert js.situation.literals == eldercare.situation("S2J").literals
        by_literal = {str(v.literal): v for v in js.verdicts}
        assert by_literal["fc"].status == "rejected"
        assert by_literal["fc"].rejecting_attacker == "Y4"
        assert by_literal["lb"].status == "justified"
        assert by_literal["lb"].defenders == ("Y4", "Y6")
        assert by_literal["¬ab"].status == "rejected"

    def test_unattacked_assumptions_keep_all_perceptions(self):
        spec = EpistemicSpec(("x", "y"), (Literal("x"),))
        js = justified_situation(spec, ["x", "y"])
        assert js.perceptions == frozenset({Literal("x"), Literal("y")})
        assert js.situation.positives == frozenset({"x", "y"})

    def test_mutual_attack_is_indeterminate(self):
        spec = EpistemicSpec(("x",), (Literal("x"), Literal("x", False)))
        with pytest.raises(IndeterminateSituationError) as err:
            justified_situation(spec, ["x"])
        assert set(err.value.undecided) == {"x", "¬x"}

    def test_no_extension_claims_no_defender(self):
        # a, b, c are attacked through x <- b, y <- c, z <- a: an odd cycle,
        # so stable semantics has no extension to defend anything in.
        atoms = ("a", "b", "c", "x", "y", "z")
        spec = EpistemicSpec(
            atoms,
            (Literal("a"), Literal("b"), Literal("c")),
            (
                EpistemicRule("r1", Literal("x"), (Literal("b"),)),
                EpistemicRule("r2", Literal("y"), (Literal("c"),)),
                EpistemicRule("r3", Literal("z"), (Literal("a"),)),
            ),
            {Literal("a"): Literal("x"), Literal("b"): Literal("y"), Literal("c"): Literal("z")},
        )
        result = analyze_epistemic(spec, [], "stable")
        assert result.report.vacuous
        assert [v.status for v in result.verdicts] == ["undecided"] * 3
        assert all(v.defenders == () for v in result.verdicts)
        assert all(v.attackers for v in result.verdicts)

    def test_empty_assumption_set_is_identity(self):
        spec = EpistemicSpec(("x", "y"), ())
        result = analyze_epistemic(spec, ["y"])
        assert result.situation.positives == frozenset({"y"})
        assert result.aaf is None


class TestEndToEnd:
    def test_s2_decides_on_the_justified_matrix(self, eldercare):
        decision = end_to_end_decide(
            eldercare, sorted(eldercare.situation("S2").positives)
        )
        assert decision.situation_id == "S2J"
        assert decision.practical.justified_actions == frozenset({"warn"})
        # The S2J matrix adds one principle rule over S1: u9 now covers
        # charge against seekTask (the readiness differential reaches 3).
        principle_rules = [
            (disjunct, source, target)
            for source, target, disjunct in decision.practical.build.rows
            if disjunct is not None
        ]
        assert ("u9", "charge", "seekTask") in principle_rules
        assert len(principle_rules) == 7

    def test_without_epistemic_assumptions_it_is_the_direct_pipeline(self, eldercare):
        bare = VdaAgent(
            language=eldercare.language,
            situations=dict(eldercare.situations),
            matrices=dict(eldercare.matrices),
            principle=eldercare.principle,
            epistemic=None,
            value_range=eldercare.value_range,
            duty_names=dict(eldercare.duty_names),
        )
        decision = end_to_end_decide(bare, sorted(eldercare.situation("S1").positives))
        assert decision.epistemic is None
        assert decision.situation_id == "S1"
        direct = analyze_practical(eldercare, "S1")
        assert decision.practical.action_status == direct.action_status

    def test_fact_rules_skip_the_ids_of_epistemic_rules(self, eldercare):
        spec = eldercare.epistemic
        rules = tuple(replace(rule, id="f1") if rule.id == "r11" else rule for rule in spec.rules)
        agent = replace(eldercare, epistemic=replace(spec, rules=rules))
        perceptions = sorted(eldercare.situation("S2").positives)
        decision = end_to_end_decide(agent, perceptions)
        assert decision.situation_id == "S2J"
        assert decision.practical.action_status == end_to_end_decide(eldercare, perceptions).practical.action_status
        rule_ids = [rule.id for rule in decision.epistemic.build.framework.rules]
        assert "f1" in rule_ids
        assert len(set(rule_ids)) == len(rule_ids)

    def test_unregistered_justified_valuation_raises(self, eldercare):
        # lb and ab adjudicate cleanly, but no declared situation carries
        # the resulting valuation (mrt, r, rm are all false).
        with pytest.raises(UnknownNameError):
            end_to_end_decide(eldercare, ["lb", "ab"])

    def test_unresolved_standoff_propagates_as_indeterminate(self, eldercare):
        with pytest.raises(IndeterminateSituationError):
            end_to_end_decide(eldercare, ["lb"])

    def test_random_agents_decide_like_the_oracle(self):
        rng = random.Random(99)
        for _ in range(60):
            seed = rng.randrange(10**6)
            spec = RandomVdaSpec(seed=seed, actions=rng.randint(2, 4),
                                 duties=rng.randint(1, 3), disjuncts=rng.randint(1, 3))
            agent, sid = random_vda(spec)
            decision = end_to_end_decide(agent, sorted(agent.situations[sid].positives))
            assert decision.situation_id == sid
            assert decision.practical.solutions == brute_force_solutions(agent, sid)


class TestRepresentationBoundary:
    def test_reinstatement_divergence_outside_the_order_inducing_regime(self):
        # With a non-transitive weak preference, credulous acceptance can
        # reinstate a dominated action: the solution/justification match is
        # only guaranteed for order-inducing principles.
        duties = ("d1", "d2", "d3")
        rows = {"alpha": (-2, 1, 1), "beta": (1, 0, 1), "gamma": (0, -2, 1)}
        bounds = {"u1": (3, -1, -4), "u2": (1, 2, -4), "u3": (-1, -2, -4)}
        agent = VdaAgent(
            language=VdaLanguage(("p",), tuple(rows), duties),
            situations={"R": Situation.from_perceptions(("p",), ())},
            matrices={"R": ActionMatrix("R", {
                a: DutyVector(a, dict(zip(duties, row))) for a, row in rows.items()
            })},
            principle=Principle(tuple(
                Disjunct(uid, dict(zip(duties, b))) for uid, b in bounds.items()
            )),
        )
        assert solutions(agent, "R") == frozenset({"beta", "gamma"})
        result = analyze_practical(agent, "R", "complete")
        assert result.credulous_actions == frozenset({"alpha", "beta", "gamma"})
