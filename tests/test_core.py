"""Model-level operations: differentials, bounds, preference, solutions, ordering."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdarg import (
    ActionMatrix,
    Disjunct,
    DutyVector,
    Literal,
    Principle,
    SchemaError,
    SelfComparisonError,
    Situation,
    UnknownNameError,
    VdaAgent,
    VdaLanguage,
    duty_differential,
    ethical_ordering,
    meets_lower_bounds,
    practical_framework,
    prefers,
    solution_report,
    solutions,
    strictly_prefers,
    validate_agent,
    weak_preference_pairs,
)
from vdarg.core import ordered_literals

DUTIES = ("MHC", "MMR", "mH2P", "MG2P", "mNI", "MRA", "MPPI")


def _vec(action, row):
    return DutyVector(action, dict(zip(DUTIES, row)))


def _disjunct(uid, row):
    return Disjunct(uid, dict(zip(DUTIES, row)))


@pytest.fixture(scope="module")
def s1_matrix(eldercare):
    return eldercare.matrices["S1"]


@pytest.fixture(scope="module")
def principle(eldercare):
    return eldercare.principle


class TestDutyDifferential:
    def test_warn_minus_charge(self, s1_matrix):
        w = duty_differential(s1_matrix.vector("warn"), s1_matrix.vector("charge"))
        assert tuple(w.values()) == (0, -1, 2, 0, 0, -1, 0)

    def test_self_differential_is_zero(self, s1_matrix):
        v = s1_matrix.vector("notify")
        assert all(x == 0 for x in duty_differential(v, v).values())

    def test_seektask_minus_charge(self, s1_matrix):
        w = duty_differential(s1_matrix.vector("seekTask"), s1_matrix.vector("charge"))
        assert tuple(w.values()) == (0, -2, 0, 2, 0, 0, 0)

    def test_mismatched_duty_lists(self):
        a = DutyVector("a", {"d1": 1})
        b = DutyVector("b", {"d2": 1})
        with pytest.raises(SchemaError):
            duty_differential(a, b)


class TestMeetsLowerBounds:
    def test_u7_covers_warn_charge_differential(self, principle):
        w = dict(zip(DUTIES, (0, -1, 2, 0, 0, -1, 0)))
        assert meets_lower_bounds(w, principle.by_id("u7"))

    def test_zero_meets_zero(self):
        u = _disjunct("u", (0,) * 7)
        w = dict(zip(DUTIES, (0,) * 7))
        assert meets_lower_bounds(w, u)

    def test_fails_at_third_duty(self, principle):
        w = dict(zip(DUTIES, (0, 1, -2, 0, 0, 1, 0)))
        assert not meets_lower_bounds(w, principle.by_id("u5"))

    def test_componentwise_against_direct_check(self, principle):
        rng = random.Random(7)
        for _ in range(200):
            w = {d: rng.randint(-4, 4) for d in DUTIES}
            for u in principle:
                assert meets_lower_bounds(w, u) == all(w[d] >= u.bounds[d] for d in DUTIES)

    def test_mismatched_duty_lists(self):
        u = Disjunct("u", {"d1": 0})
        with pytest.raises(SchemaError):
            meets_lower_bounds({"d2": 0}, u)


class TestPreference:
    def test_warn_over_notify_includes_u5(self, s1_matrix, principle):
        assert "u5" in prefers(s1_matrix, principle, "warn", "notify")

    def test_seektask_over_charge_includes_u4(self, s1_matrix, principle):
        assert "u4" in prefers(s1_matrix, principle, "seekTask", "charge")

    def test_notify_over_warn_is_empty(self, s1_matrix, principle):
        assert prefers(s1_matrix, principle, "notify", "warn") == ()

    def test_unknown_action(self, s1_matrix, principle):
        with pytest.raises(UnknownNameError):
            prefers(s1_matrix, principle, "warn", "sleep")

    def test_strict_warn_notify(self, s1_matrix, principle):
        assert strictly_prefers(s1_matrix, principle, "warn", "notify")
        assert not strictly_prefers(s1_matrix, principle, "notify", "warn")

    def test_mutual_preference_is_not_strict(self):
        matrix = ActionMatrix("R", {"a": _vec("a", (1, 0, 0, 0, 0, 0, 0)),
                                    "b": _vec("b", (0, 1, 0, 0, 0, 0, 0))})
        permissive = Principle((_disjunct("u1", (-4,) * 7),))
        assert prefers(matrix, permissive, "a", "b")
        assert prefers(matrix, permissive, "b", "a")
        assert not strictly_prefers(matrix, permissive, "a", "b")

    def test_self_comparison_rejected(self, s1_matrix, principle):
        with pytest.raises(SelfComparisonError):
            strictly_prefers(s1_matrix, principle, "warn", "warn")


class TestWeakPreferencePairs:
    @staticmethod
    def _per_pair(matrix, principle):
        return {
            (a, b): ids
            for a, b in permutations(matrix.vectors, 2)
            if (ids := prefers(matrix, principle, a, b))
        }

    def test_equals_prefers_over_every_ordered_pair(self):
        # Some disjuncts list their duties in another order: the bound rows
        # are indexed by the vectors' duty names, not by bound position.
        rng = random.Random(7)
        duties = ("d1", "d2", "d3", "d4")
        for n_actions in (0, 1, 2, 3, 6):
            for _ in range(25):
                actions = [f"a{i}" for i in range(n_actions)]
                matrix = ActionMatrix("R", {
                    a: DutyVector(a, {d: rng.randint(-2, 2) for d in duties}) for a in actions
                })
                disjuncts = []
                for i in range(rng.randint(1, 4)):
                    order = rng.sample(duties, len(duties))
                    disjuncts.append(Disjunct(f"u{i}", {d: rng.randint(-4, 1) for d in order}))
                principle = Principle(tuple(disjuncts))
                assert weak_preference_pairs(matrix, principle) == self._per_pair(matrix, principle)

    def test_eldercare_matrices(self, eldercare):
        for matrix in eldercare.matrices.values():
            pairs = weak_preference_pairs(matrix, eldercare.principle)
            assert pairs == self._per_pair(matrix, eldercare.principle)

    @pytest.mark.parametrize("n_actions", [0, 1, 2, 5, 63, 64, 65, 90])
    def test_equals_prefers_at_every_size(self, n_actions):
        # Bounds in [-6, 3] against values in [-2, 2] put some thresholds
        # below a column's minimum and some above its maximum; 63-65 actions
        # straddle a 64-bit word.  The key order is pinned, not just the map.
        rng = random.Random(n_actions)
        below = above = 0
        for _ in range(3):
            duties = tuple(f"d{i}" for i in range(rng.randint(1, 5)))
            actions = rng.sample([f"a{i}" for i in range(n_actions)], n_actions)
            matrix = ActionMatrix("R", {
                a: DutyVector(a, {d: rng.randint(-2, 2) for d in duties}) for a in actions
            })
            principle = Principle(tuple(
                Disjunct(f"u{i}", {d: rng.randint(-6, 3) for d in rng.sample(duties, len(duties))})
                for i in range(rng.randint(1, 4))
            ))
            pairs = weak_preference_pairs(matrix, principle)
            assert list(pairs.items()) == list(self._per_pair(matrix, principle).items())
            for d in duties:
                column = [v.values[d] for v in matrix.vectors.values()]
                for x in column:
                    for u in principle:
                        below += x - u.bounds[d] < min(column)
                        above += x - u.bounds[d] > max(column)
        if n_actions:
            assert below and above

    def test_fewer_than_two_actions_need_no_check(self):
        # No pair is compared, so a disjunct over other duties goes unchecked.
        stray = Principle((Disjunct("u1", {"x": 0}),))
        assert weak_preference_pairs(ActionMatrix("R", {}), stray) == {}
        assert weak_preference_pairs(ActionMatrix("R", {"a": _vec("a", (0,) * 7)}), stray) == {}


def _mismatched_agents():
    duties = ("d1", "d2")
    swapped = {"a": {"d1": 1, "d2": 0}, "b": {"d2": 0, "d1": 1}}
    missing = {"a": {"d1": 1, "d2": 0}, "b": {"d1": 1}}
    even = {"a": {"d1": 1, "d2": 0}, "b": {"d1": 0, "d2": 1}}
    short_bound = Principle((Disjunct("u1", {"d1": -4}),))
    full_bound = Principle((Disjunct("u1", {"d1": -4, "d2": -4}),))
    cases = [(swapped, full_bound), (missing, full_bound), (even, short_bound)]
    for rows, principle in cases:
        yield VdaAgent(
            language=VdaLanguage(("p1",), ("a", "b"), duties),
            situations={"R": Situation.from_perceptions(("p1",), ())},
            matrices={"R": ActionMatrix("R", {a: DutyVector(a, v) for a, v in rows.items()})},
            principle=principle,
        )


@pytest.mark.parametrize("agent", _mismatched_agents(), ids=["order", "missing", "disjunct"])
def test_duty_list_mismatch_in_code_built_agents(agent):
    with pytest.raises(SchemaError, match="duty list mismatch"):
        weak_preference_pairs(agent.matrices["R"], agent.principle)
    with pytest.raises(SchemaError, match="duty list mismatch"):
        solution_report(agent, "R")
    with pytest.raises(SchemaError, match="duty list mismatch"):
        practical_framework(agent, "R")


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
    bounds=st.lists(st.integers(min_value=-4, max_value=0), min_size=3, max_size=3),
)
def test_reflexive_bound_check(values, bounds):
    # Any vector's self-differential meets every all-nonpositive disjunct.
    duties = ("d1", "d2", "d3")
    v = DutyVector("a", dict(zip(duties, values)))
    u = Disjunct("u", dict(zip(duties, bounds)))
    assert meets_lower_bounds(duty_differential(v, v), u)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_strict_preference_antisymmetry(data):
    duties = ("d1", "d2")
    rows = {
        a: data.draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2), label=a)
        for a in ("a", "b")
    }
    bounds = data.draw(
        st.lists(st.lists(st.integers(-4, 2), min_size=2, max_size=2), min_size=1, max_size=3),
        label="bounds",
    )
    matrix = ActionMatrix("R", {a: DutyVector(a, dict(zip(duties, row))) for a, row in rows.items()})
    principle = Principle(tuple(
        Disjunct(f"u{i}", dict(zip(duties, b))) for i, b in enumerate(bounds)
    ))
    forward = strictly_prefers(matrix, principle, "a", "b")
    backward = strictly_prefers(matrix, principle, "b", "a")
    assert not (forward and backward)


def _tiny_agent(rows, bounds, actions=None):
    duties = tuple(f"d{i + 1}" for i in range(len(next(iter(rows.values())))))
    actions = tuple(rows) if actions is None else actions
    lang = VdaLanguage(("p1",), actions, duties)
    matrix = ActionMatrix("R", {
        a: DutyVector(a, dict(zip(duties, row))) for a, row in rows.items()
    })
    principle = Principle(tuple(
        Disjunct(f"u{i + 1}", dict(zip(duties, b))) for i, b in enumerate(bounds)
    ))
    return VdaAgent(
        language=lang,
        situations={"R": Situation.from_perceptions(("p1",), ())},
        matrices={"R": matrix},
        principle=principle,
    )


class TestSolutions:
    def test_eldercare_unique_solution(self, eldercare):
        assert solutions(eldercare, "S1") == frozenset({"warn"})

    def test_all_minimal_bounds_makes_everything_a_solution(self):
        agent = _tiny_agent({"a": (1, 0), "b": (0, 1), "c": (-1, -1)}, [(-4, -4)])
        assert solutions(agent, "R") == frozenset({"a", "b", "c"})

    def test_missing_matrix(self, eldercare):
        with pytest.raises(UnknownNameError):
            solutions(eldercare, "S2")

    def test_strict_cycle_yields_empty_set_with_diagnostic(self):
        # Rock-paper-scissors: each pair is covered one way by exactly one
        # disjunct, so the strict relation is the 3-cycle a -> b -> c -> a
        # and no total ordering avoids an inversion.
        rows = {"a": (0, 0, 0), "b": (-2, 1, 1), "c": (-1, -1, 2)}
        bounds = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        agent = _tiny_agent(rows, bounds)
        report = solution_report(agent, "R")
        assert report.cycle is not None
        assert len(report.cycle) == 3
        assert report.actions == frozenset()
        from vdarg.oracle import brute_force_solutions
        assert brute_force_solutions(agent, "R") == frozenset()

    def test_acyclic_strict_relation_keeps_undominated(self):
        rng = random.Random(3)
        from vdarg import strict_preference_graph
        for _ in range(50):
            rows = {a: tuple(rng.randint(-2, 2) for _ in range(3)) for a in ("a", "b", "c", "d")}
            bounds = [tuple(rng.randint(-4, 2) for _ in range(3)) for _ in range(3)]
            agent = _tiny_agent(rows, bounds)
            report = solution_report(agent, "R")
            strict = strict_preference_graph(agent.matrices["R"], agent.principle)
            if report.cycle is None:
                dominated = {b for targets in strict.values() for b in targets}
                assert report.actions == frozenset(rows) - dominated
                assert report.actions  # acyclic strict relations leave a maximum


class TestEthicalOrdering:
    def test_eldercare_chain(self, eldercare):
        report = ethical_ordering(eldercare, "S1")
        assert [s.action for s in report.steps] == [
            "warn", "notify", "seekTask", "charge", "engage", "remind",
        ]
        assert report.stuck is None

    def test_annotation_between_warn_and_notify_includes_u5(self, eldercare):
        report = ethical_ordering(eldercare, "S1")
        assert "u5" in report.steps[0].to_next

    def test_single_action_agent(self):
        agent = _tiny_agent({"a": (1, 0)}, [(-4, -4)])
        report = ethical_ordering(agent, "R")
        assert [s.action for s in report.steps] == ["a"]
        assert report.steps[0].to_next == ()

    def test_tie_break_must_cover_actions(self, eldercare):
        with pytest.raises(SchemaError):
            ethical_ordering(eldercare, "S1", tie_break=("warn",))

    def test_tie_break_must_be_a_permutation(self, eldercare):
        actions = eldercare.language.actions
        for tie_break in (
            actions + (actions[0],),  # same set, one action twice
            (actions[1],) + actions[1:],  # same length, first action missing
        ):
            with pytest.raises(SchemaError, match="permutation"):
                ethical_ordering(eldercare, "S1", tie_break=tie_break)

    def test_solution_count_equals_distinct_greedy_firsts(self):
        # Every solution heads the greedy ordering under some tie-break
        # permutation, and nothing else does (checked on acyclic instances).
        rng = random.Random(11)
        checked = 0
        for _ in range(40):
            rows = {a: tuple(rng.randint(-2, 2) for _ in range(3)) for a in ("a", "b", "c", "d")}
            bounds = [tuple(rng.randint(-4, 2) for _ in range(3)) for _ in range(2)]
            agent = _tiny_agent(rows, bounds)
            report = solution_report(agent, "R")
            if report.cycle is not None:
                continue
            firsts = set()
            for perm in permutations(("a", "b", "c", "d")):
                ordering = ethical_ordering(agent, "R", tie_break=perm)
                assert ordering.stuck is None
                firsts.add(ordering.steps[0].action)
            assert firsts == set(report.actions)
            checked += 1
        assert checked > 10


class TestValidation:
    def test_actions_and_duties_must_be_disjoint(self):
        with pytest.raises(SchemaError):
            VdaLanguage((), ("x",), ("x",))

    def test_duplicate_disjunct_ids(self):
        with pytest.raises(SchemaError):
            Principle((Disjunct("u1", {"d": 0}), Disjunct("u1", {"d": 1})))

    def test_empty_principle(self):
        with pytest.raises(SchemaError):
            Principle(())

    def test_ordered_literals_project_onto_the_atoms(self):
        # Positives first, then negatives, each in atom order; a literal on an unlisted atom is dropped.
        literals = {Literal("q", False), Literal("p"), Literal("extra"), Literal("r", False)}
        expected = (Literal("p"), Literal("r", False), Literal("q", False))
        assert ordered_literals(literals, ("r", "q", "p")) == expected
        situation = Situation.from_perceptions(("p", "q", "extra"), ("q",))
        assert situation.ordered(("p", "q")) == (Literal("q"), Literal("p", False))

    def test_situation_totality(self):
        situation = Situation.from_perceptions(("p", "q"), ("p",))
        assert situation.positives == frozenset({"p"})
        with pytest.raises(SchemaError):
            Situation.from_perceptions(("p",), ("zzz",))


class TestValidateCodeBuiltAgents:
    """Checks that a loaded file cannot reach: the loader builds each vector
    and disjunct from a row in declared duty order."""

    @staticmethod
    def _with_s1_vector(agent, action, vector):
        matrix = ActionMatrix("S1", {**agent.matrices["S1"].vectors, action: vector})
        return replace(agent, matrices={**agent.matrices, "S1": matrix})

    def test_vector_keyed_under_another_action(self, eldercare):
        charge = eldercare.matrices["S1"].vector("charge")
        agent = self._with_s1_vector(eldercare, "warn", charge)
        with pytest.raises(SchemaError, match=r"^matrix 'S1': vector keyed 'warn' names 'charge'$"):
            validate_agent(agent)

    def test_vector_duty_list_mismatch(self, eldercare):
        values = eldercare.matrices["S1"].vector("warn").values
        agent = self._with_s1_vector(eldercare, "warn", DutyVector("warn", dict(reversed(values.items()))))
        with pytest.raises(SchemaError, match=r"^matrix 'S1', action 'warn': duty list mismatch$"):
            validate_agent(agent)

    def test_disjunct_duty_list_mismatch(self, eldercare):
        first, *rest = eldercare.principle
        short = Disjunct(first.id, dict(list(first.bounds.items())[:-1]))
        with pytest.raises(SchemaError, match=r"^disjunct 'u1': duty list mismatch$"):
            validate_agent(replace(eldercare, principle=Principle((short, *rest))))

    def test_epistemic_spec_missing_a_language_atom(self, eldercare):
        spec = replace(eldercare.epistemic, atoms=eldercare.epistemic.atoms[:-1])
        with pytest.raises(SchemaError, match=r"^epistemic spec must cover all language atoms$"):
            validate_agent(replace(eldercare, epistemic=spec))


def _reference_strict_graph(actions, weak):
    return {
        a: frozenset(b for b in actions if b != a and (a, b) in weak and (b, a) not in weak)
        for a in actions
    }


def _reference_ordering(actions, weak, priority):
    """Repeatedly pick the undominated remaining action first in priority."""
    strict = _reference_strict_graph(actions, weak)
    remaining = set(actions)
    picked = []
    while remaining:
        candidates = remaining.difference(*(strict[b] for b in remaining))
        if not candidates:
            break
        choice = min(candidates, key=list(priority).index)
        picked.append(choice)
        remaining.discard(choice)
    steps = [(a, weak.get((a, b), ())) for a, b in zip(picked, picked[1:])]
    if picked:
        steps.append((picked[-1], ()))
    return steps, tuple(sorted(remaining)) if remaining else None


class TestStrictGraphAndOrdering:
    """The strict graph, the greedy ordering and the solutions against
    all-pairs references, on random matrices with and without strict cycles."""

    @staticmethod
    def _agents(seed, count, sizes):
        # Random cycles are rare, so every other agent of three or more
        # actions gets the rock-paper-scissors triangle of
        # test_strict_cycle_yields_empty_set_with_diagnostic planted among
        # random rows.  Matrix order differs from language order.
        rng = random.Random(seed)
        for k in range(count):
            n = rng.choice(sizes)
            actions = tuple(f"a{i}" for i in range(n))
            if k % 2 and n >= 3:
                duties = 3
                planted = [(0, 0, 0), (-2, 1, 1), (-1, -1, 2)]
                bounds = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
            else:
                duties = rng.randint(1, 4)
                planted = []
                bounds = [tuple(rng.randint(-4, 2) for _ in range(duties)) for _ in range(rng.randint(1, 4))]
            rows = planted + [tuple(rng.randint(-2, 2) for _ in range(duties)) for _ in range(n - len(planted))]
            rng.shuffle(rows)
            yield _tiny_agent(dict(zip(rng.sample(actions, n), rows)), bounds, actions)

    def test_strict_graph_and_default_ordering(self):
        from vdarg import strict_preference_graph
        stuck = 0
        for agent in self._agents(5, 400, (2, 3, 4, 5, 6, 8, 12)):
            matrix = agent.matrices["R"]
            weak = TestWeakPreferencePairs._per_pair(matrix, agent.principle)
            strict = strict_preference_graph(matrix, agent.principle)
            assert list(strict.items()) == list(_reference_strict_graph(list(matrix.vectors), weak).items())
            report = ethical_ordering(agent, "R")
            steps, expected_stuck = _reference_ordering(list(matrix.vectors), weak, sorted(matrix.vectors))
            assert [(s.action, s.to_next) for s in report.steps] == steps
            assert report.stuck == expected_stuck
            stuck += report.stuck is not None
        assert stuck > 10  # strict cycles are in the sample

    def test_every_tie_break_permutation(self):
        stuck = 0
        for agent in self._agents(6, 30, (4, 5)):
            matrix = agent.matrices["R"]
            weak = TestWeakPreferencePairs._per_pair(matrix, agent.principle)
            for perm in permutations(agent.language.actions):
                report = ethical_ordering(agent, "R", tie_break=perm)
                steps, expected_stuck = _reference_ordering(list(matrix.vectors), weak, perm)
                assert [(s.action, s.to_next) for s in report.steps] == steps
                assert report.stuck == expected_stuck
                stuck += report.stuck is not None
        assert stuck

    def test_solution_report_matches_brute_force(self):
        from vdarg.oracle import MAX_ORACLE_ACTIONS, brute_force_solutions
        cycles = 0
        for agent in self._agents(7, 300, range(1, MAX_ORACLE_ACTIONS + 1)):
            report = solution_report(agent, "R")
            assert report.actions == brute_force_solutions(agent, "R")
            cycles += report.cycle is not None
        assert cycles
