"""The brute-force oracles themselves, plus random instance generation."""

from __future__ import annotations

import random

import pytest

from vdarg import ResourceCapError, analyze_practical, solutions
from vdarg.oracle import (
    RandomVdaSpec,
    brute_force_extensions,
    brute_force_solutions,
    random_aaf,
    random_vda,
)
from vdarg.semantics import extensions_for


class TestBruteForceSolutions:
    def test_eldercare_unique_solution(self, eldercare):
        assert brute_force_solutions(eldercare, "S1") == frozenset({"warn"})

    def test_fully_incomparable_actions_all_head_an_ordering(self):
        spec = RandomVdaSpec(seed=5, actions=3, duties=2, disjuncts=1)
        agent, sid = random_vda(spec)
        # Make the single disjunct unsatisfiable so no pair is related.
        from vdarg import Disjunct, Principle, VdaAgent
        duties = agent.language.duties
        hostile = Principle((Disjunct("u1", {d: 9 for d in duties}),))
        agent = VdaAgent(
            language=agent.language, situations=dict(agent.situations),
            matrices=dict(agent.matrices), principle=hostile,
        )
        assert brute_force_solutions(agent, sid) == frozenset(agent.language.actions)

    def test_matches_production_solutions_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(150):
            spec = RandomVdaSpec(
                seed=rng.randrange(10**6),
                actions=rng.randint(2, 5),
                duties=rng.randint(1, 4),
                disjuncts=rng.randint(1, 4),
            )
            agent, sid = random_vda(spec)
            assert solutions(agent, sid) == brute_force_solutions(agent, sid)

    def test_action_count_cap(self):
        spec = RandomVdaSpec(seed=1, actions=6)
        agent, sid = random_vda(spec)
        import vdarg.oracle as oracle_module
        original = oracle_module.MAX_ORACLE_ACTIONS
        oracle_module.MAX_ORACLE_ACTIONS = 5
        try:
            with pytest.raises(ResourceCapError):
                brute_force_solutions(agent, sid)
        finally:
            oracle_module.MAX_ORACLE_ACTIONS = original


class TestBruteForceExtensions:
    def test_nixon_complete_count(self):
        aaf = random_aaf(0)  # placeholder; replaced below with the fixed graph
        from vdarg import Argument, to_aaf
        args = tuple(
            Argument(f"Y{i}", f"s{i}", frozenset(), frozenset(), (f"s{i}", None, ()))
            for i in range(1, 5)
        )
        aaf = to_aaf(args, {("Y4", "Y1"), ("Y4", "Y3"), ("Y3", "Y2"), ("Y3", "Y4")})
        assert len(brute_force_extensions(aaf, "complete")) == 3
        assert brute_force_extensions(aaf, "grounded") == {frozenset()}

    def test_s1_grounded_extension(self, eldercare):
        result = analyze_practical(eldercare, "S1")
        assert brute_force_extensions(result.aaf, "grounded") == {
            frozenset({"X2", "X5", "X8", "X9"})
        }

    def test_matches_solver_on_random_aafs(self):
        for seed in range(80):
            aaf = random_aaf(seed + 2000, max_arguments=9)
            for semantics in ("grounded", "complete", "preferred", "stable"):
                solver = {e.members for e in extensions_for(aaf, semantics)}
                assert solver == brute_force_extensions(aaf, semantics)

    def test_argument_count_cap(self):
        aaf = random_aaf(7, max_arguments=12)
        import vdarg.oracle as oracle_module
        original = oracle_module.MAX_ORACLE_ARGUMENTS
        oracle_module.MAX_ORACLE_ARGUMENTS = len(aaf.arguments) - 1
        try:
            with pytest.raises(ResourceCapError):
                brute_force_extensions(aaf, "complete")
        finally:
            oracle_module.MAX_ORACLE_ARGUMENTS = original


class TestRandomVda:
    def test_same_seed_same_agent(self):
        spec = RandomVdaSpec(seed=0)
        assert random_vda(spec) == random_vda(spec)

    def test_single_action_agent_solves_to_itself(self):
        spec = RandomVdaSpec(seed=3, actions=1, assumption_policy="satisfying")
        agent, sid = random_vda(spec)
        assert solutions(agent, sid) == frozenset(agent.language.actions)

    def test_satisfying_policy_makes_every_vector_an_assumption(self):
        for seed in range(30):
            agent, sid = random_vda(RandomVdaSpec(seed=seed, assumption_policy="satisfying"))
            matrix = agent.matrices[sid]
            assert all(v.satisfies_some_duty() for v in matrix.vectors.values())

    def test_none_satisfying_policy_triggers_the_fallback(self):
        from vdarg import practical_framework
        agent, sid = random_vda(RandomVdaSpec(seed=9, assumption_policy="none-satisfying"))
        matrix = agent.matrices[sid]
        assert not any(v.satisfies_some_duty() for v in matrix.vectors.values())
        build = practical_framework(agent, sid)
        assert build.assumption_actions == agent.language.actions

    def test_order_inducing_instances_have_transitive_weak_preference(self):
        from vdarg import weak_preference_pairs
        from vdarg.oracle import _transitive
        for seed in range(30):
            agent, sid = random_vda(RandomVdaSpec(seed=seed, order_inducing=True))
            weak = weak_preference_pairs(agent.matrices[sid], agent.principle)
            assert _transitive(weak, list(agent.language.actions))

    def test_bounds_are_validated(self):
        with pytest.raises(Exception):
            RandomVdaSpec(seed=0, actions=9)
