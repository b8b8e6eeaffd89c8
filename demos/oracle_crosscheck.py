"""Cross-validate the solvers against brute-force oracles on random inputs.

Solutions are recomputed by enumerating every permutation of the actions;
extensions by testing every subset of arguments against the textbook
definitions.  The production paths must agree exactly.

Run:  python3 demos/oracle_crosscheck.py
"""

import random

from vdarg import solutions
from vdarg.oracle import (
    RandomVdaSpec,
    brute_force_extensions,
    brute_force_solutions,
    random_aaf,
    random_vda,
)
from vdarg.semantics import extensions_for

rng = random.Random(2024)

print("Random agents: solutions() vs permutation enumeration")
agreements = 0
for _ in range(100):
    spec = RandomVdaSpec(
        seed=rng.randrange(10**6),
        actions=rng.randint(2, 5),
        duties=rng.randint(1, 4),
        disjuncts=rng.randint(1, 4),
    )
    agent, sid = random_vda(spec)
    assert solutions(agent, sid) == brute_force_solutions(agent, sid)
    agreements += 1
print(f"  {agreements}/100 instances agree")

print("Random attack graphs: search solver vs subset enumeration")
agreements = 0
for seed in range(100):
    aaf = random_aaf(seed, max_arguments=10)
    for semantics in ("grounded", "complete", "preferred", "stable"):
        solver = {e.members for e in extensions_for(aaf, semantics)}
        assert solver == brute_force_extensions(aaf, semantics)
    agreements += 1
print(f"  {agreements}/100 graphs agree on all four semantics")
