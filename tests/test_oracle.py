"""The brute-force oracles themselves, plus random instance generation."""

from __future__ import annotations

import random
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdarg import (
    SEMANTICS,
    Argument,
    EpistemicRule,
    EpistemicSpec,
    Literal,
    ResourceCapError,
    SchemaError,
    analyze_epistemic,
    analyze_practical,
    solutions,
    to_aaf,
)
from vdarg.oracle import (
    RandomVdaSpec,
    brute_force_assumption_verdicts,
    brute_force_extensions,
    brute_force_solutions,
    random_aaf,
    random_epistemic_spec,
    random_vda,
)
from vdarg.semantics import extensions_for


def reference_extensions(aaf, semantics):
    """The per-subset reference for brute_force_extensions: each subset in
    turn, tested by loops over its arguments."""
    ids = aaf.ids
    n = len(ids)
    index = {arg_id: i for i, arg_id in enumerate(ids)}
    attackers = [0] * n
    victims = [0] * n
    for src, dst in aaf.attacks:
        victims[index[src]] |= 1 << index[dst]
        attackers[index[dst]] |= 1 << index[src]
    full = (1 << n) - 1

    def members(mask):
        return frozenset(ids[i] for i in range(n) if mask >> i & 1)

    def conflict_free(mask):
        for i in range(n):
            if mask >> i & 1 and victims[i] & mask:
                return False
        return True

    def attacked_by(mask):
        hit = 0
        for i in range(n):
            if mask >> i & 1:
                hit |= victims[i]
        return hit

    def admissible(mask):
        if not conflict_free(mask):
            return False
        defeated = attacked_by(mask)
        for i in range(n):
            if mask >> i & 1 and attackers[i] & ~defeated:
                return False
        return True

    def complete(mask):
        if not admissible(mask):
            return False
        defeated = attacked_by(mask)
        for i in range(n):
            if not mask >> i & 1 and attackers[i] & ~defeated == 0:
                return False  # defended but not included
        return True

    if semantics == "stable":
        return {members(m) for m in range(1 << n) if conflict_free(m) and m | attacked_by(m) == full}
    completes = [m for m in range(1 << n) if complete(m)]
    if semantics == "complete":
        return {members(m) for m in completes}
    if semantics == "preferred":
        return {members(m) for m in completes if not any(o != m and o & m == m for o in completes)}
    least = [m for m in completes if all(m & o == m for o in completes)]
    if len(least) != 1:
        raise AssertionError("grounded oracle: no unique least complete extension")
    return {members(least[0])}


def reference_assumption_verdicts(spec, perceptions, semantics):
    """The per-subset reference for brute_force_assumption_verdicts: each
    subset's defence tested against every attacking set in turn."""
    assumptions = list(spec.assumptions)
    n = len(assumptions)
    facts = {*spec.facts, *map(Literal, perceptions)} - set(assumptions)
    rules = [(rule.head, set(rule.body)) for rule in spec.rules]

    def cn(mask):
        known = facts | {a for i, a in enumerate(assumptions) if mask >> i & 1}
        grown = True
        while grown:
            grown = False
            for head, body in rules:
                if head not in known and body <= known:
                    known.add(head)
                    grown = True
        return known

    subsets = range(1 << n)
    hit = []
    for mask in subsets:
        known = cn(mask)
        hit.append(sum(1 << i for i, a in enumerate(assumptions) if spec.contrary_of(a) in known))
    attacking = [[t for t in subsets if hit[t] >> i & 1] for i in range(n)]

    def defends(mask, i):
        return all(hit[mask] & t for t in attacking[i])

    conflict_free = [m for m in subsets if not hit[m] & m]
    admissible = [m for m in conflict_free if all(defends(m, i) for i in range(n) if m >> i & 1)]
    complete = [m for m in admissible if all(m >> i & 1 for i in range(n) if defends(m, i))]
    if semantics == "stable":
        extensions = [m for m in conflict_free if m | hit[m] == (1 << n) - 1]
    elif semantics == "complete":
        extensions = complete
    elif semantics == "preferred":
        extensions = [m for m in admissible if not any(o != m and o & m == m for o in admissible)]
    else:
        extensions = [m for m in complete if all(m & o == m for o in complete)]
        if len(extensions) != 1:
            raise AssertionError("grounded oracle: no unique least complete set")
    if not extensions:
        return dict.fromkeys(assumptions, "undecided")
    common = reduce(and_, extensions)
    return {
        a: "justified" if common >> i & 1 else "rejected" if hit[common] >> i & 1 else "undecided"
        for i, a in enumerate(assumptions)
    }


def outcome(oracle, *args):
    """What an oracle returns, or the class of the AssertionError it raises."""
    try:
        return oracle(*args)
    except AssertionError as error:
        return type(error)


def aaf_of(n: int, density: float, seed: int):
    """n placeholder arguments, each ordered pair (self-attacks too) an attack with probability density."""
    rng = random.Random(seed)
    ids = [f"A{i + 1}" for i in range(n)]
    args = tuple(Argument(i, f"s{i}", (), (), (f"s{i}", None, ())) for i in ids)
    return to_aaf(args, {(a, b) for a in ids for b in ids if rng.random() < density})


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
            Argument(f"Y{i}", f"s{i}", (), (), (f"s{i}", None, ()))
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

    @pytest.mark.parametrize("n", range(17))
    def test_matches_the_per_subset_reference(self, n):
        densities = (0.0, 0.05, 0.2, 0.5, 0.8) if n <= 12 else (0.05, 0.8)
        for seed, density in enumerate(densities):
            aaf = aaf_of(n, density, 100 * n + seed)
            for semantics in SEMANTICS:
                expected = outcome(reference_extensions, aaf, semantics)
                assert outcome(brute_force_extensions, aaf, semantics) == expected, (n, density, semantics)

    def test_seventeen_arguments_hit_the_cap_before_any_table(self, monkeypatch):
        import vdarg.oracle as oracle_module

        def no_tables(n):
            raise AssertionError("a subset table was built")

        monkeypatch.setattr(oracle_module, "_subset_tables", no_tables)
        with pytest.raises(ResourceCapError):
            brute_force_extensions(aaf_of(17, 0.2, 0), "grounded")

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


class TestBruteForceAssumptionVerdicts:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_analyze_epistemic_under_every_semantics(self, seed, data):
        spec = random_epistemic_spec(seed)
        perceptions = data.draw(st.lists(st.sampled_from(spec.atoms), unique=True))
        facts = {*spec.facts, *map(Literal, perceptions)} - set(spec.assumptions)
        for semantics in SEMANTICS:
            verdicts = brute_force_assumption_verdicts(spec, perceptions, semantics)
            # The settled literals: the declared and perception facts and the justified assumptions.
            settled = facts | {lit for lit, verdict in verdicts.items() if verdict == "justified"}
            atoms = sorted(lit.atom for lit in settled if not lit.positive and lit.negated in settled)
            if "undecided" in verdicts.values() or not atoms:
                result = analyze_epistemic(spec, perceptions, semantics)
                assert [(v.literal, v.status) for v in result.verdicts] == list(verdicts.items())
            else:
                message = f"justified perceptions are contradictory for atoms: {atoms}"
                with pytest.raises(SchemaError) as raised:
                    analyze_epistemic(spec, perceptions, semantics)
                assert str(raised.value) == message

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_matches_the_per_subset_reference(self, semantics):
        for seed in range(3000):
            spec = random_epistemic_spec(seed)
            expected = outcome(reference_assumption_verdicts, spec, (), semantics)
            assert outcome(brute_force_assumption_verdicts, spec, (), semantics) == expected, seed

    def test_eldercare_s2(self, eldercare):
        perceptions = sorted(eldercare.situation("S2").positives)
        verdicts = brute_force_assumption_verdicts(eldercare.epistemic, perceptions, "grounded")
        assert {str(lit): v for lit, v in verdicts.items()} == {
            "fc": "rejected", "lb": "justified", "¬ab": "rejected",
        }

    def test_nixon_defaults_are_undecided_in_both_preferred_extensions(self, nixon):
        verdicts = brute_force_assumption_verdicts(nixon.epistemic, [], "preferred")
        assert set(verdicts.values()) == {"undecided"}

    def test_an_odd_cycle_leaves_every_verdict_undecided(self):
        # b attacks a, c attacks b and a attacks c: no stable set, an empty grounded one.
        a, b, c, x, y, z = map(Literal, "abcxyz")
        spec = EpistemicSpec(
            tuple("abcxyz"), (a, b, c),
            (EpistemicRule("r1", x, (b,)), EpistemicRule("r2", y, (c,)), EpistemicRule("r3", z, (a,))),
            {a: x, b: y, c: z},
        )
        for semantics in SEMANTICS:
            assert set(brute_force_assumption_verdicts(spec, [], semantics).values()) == {"undecided"}

    def test_assumption_count_cap(self, monkeypatch):
        import vdarg.oracle as oracle_module
        spec = random_epistemic_spec(0)
        monkeypatch.setattr(oracle_module, "MAX_ORACLE_ASSUMPTIONS", len(spec.assumptions) - 1)
        with pytest.raises(ResourceCapError):
            brute_force_assumption_verdicts(spec, [], "grounded")

    def test_random_specs_cover_overrides_empty_bodies_and_cycles(self):
        specs = [random_epistemic_spec(seed) for seed in range(200)]
        assert random_epistemic_spec(7) == specs[7]

        def has_cycle(spec: EpistemicSpec) -> bool:
            links = {(rule.body[0], rule.head) for rule in spec.rules if len(rule.body) == 1}
            return any((head, body) in links for body, head in links)

        assert any(spec.contraries for spec in specs)
        assert any(not rule.body for spec in specs for rule in spec.rules)
        assert any(map(has_cycle, specs))
        # Flat: no rule derives an assumption.
        assert all(rule.head not in spec.assumptions for spec in specs for rule in spec.rules)


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
