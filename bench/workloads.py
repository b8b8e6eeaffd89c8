"""Seeded workloads for the decide / justify / explain benchmark.

Every operation runs three stages on one input: a decision (an
``analyze_*`` call), its explanation (an ``explain_*`` call on that result)
and one CLI command in process.  The stages are called through module
attributes at call time (``frameworks.analyze_practical``, ``cli.main``...),
so the traced run can substitute its wrappers without touching the program.

Inputs are grouped into rounds.  A timed run stops only at a round
boundary, so every run measures whole rounds and the mix of inputs behind
each percentile does not depend on where the clock ran out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from vdarg import cli, explain, frameworks
from vdarg.agentfile import dump_agent, load_agent
from vdarg.core import (
    ActionMatrix,
    Disjunct,
    DutyVector,
    EpistemicRule,
    EpistemicSpec,
    Literal,
    Principle,
    Situation,
    VdaAgent,
    VdaLanguage,
)
from vdarg.oracle import (
    MAX_ORACLE_ACTIONS,
    MAX_ORACLE_ARGUMENTS,
    RandomVdaSpec,
    brute_force_extensions,
    brute_force_solutions,
    random_vda,
)

DEFAULT_SEED = 0
FILE = "{file}"  # argv placeholder for the item's own agent file


@dataclass(frozen=True)
class Item:
    """One input: what to decide, how to explain it, and which CLI command to run."""

    key: str
    kind: str                        # "practical" | "epistemic"
    agent: VdaAgent
    situation: str
    semantics: str
    argv: tuple[str, ...]            # FILE stands for the agent file written for this item
    perceptions: tuple[str, ...] = ()
    expected_code: int | None = None  # None: derived from the decision
    order_inducing: bool = False     # solutions must equal the credulous actions
    fixture: Path | None = None      # CLI reads this file instead of a generated one


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], list[tuple[Item, ...]]]  # (seed, tiny) -> rounds


# -- corpus ---------------------------------------------------------------

_CORPUS_COMBOS = tuple(
    (actions, duties, disjuncts)
    for actions in range(2, 6)
    for duties in range(1, 5)
    for disjuncts in range(1, 5)
)


# The run time of an agent is heavy-tailed and a few agents set most of a
# round's time: with 3 rounds, decisions_per_s moved by a sixth from seed to
# seed on the inputs alone.  8 rounds, 512 agents, average more of the tail.
CORPUS_ROUNDS = 8


def build_corpus(seed: int, tiny: bool) -> list[tuple[Item, ...]]:
    """The acceptance criterion-4 generator, unfiltered.

    Criterion 4 draws the action, duty and disjunct counts at random.  Here
    each round holds every one of the 64 combinations once, in a seeded
    order, so that two seeds differ in the duty values and principles they
    draw but not in how many large agents they contain.
    """
    rng = random.Random(seed)
    rounds = 1 if tiny else CORPUS_ROUNDS
    combos = _CORPUS_COMBOS[::8] if tiny else _CORPUS_COMBOS
    out = []
    for r in range(rounds):
        items = []
        for j, (actions, duties, disjuncts) in enumerate(rng.sample(combos, len(combos))):
            index = r * len(combos) + j
            spec = RandomVdaSpec(
                seed=seed * 100_000 + index,
                actions=actions,
                duties=duties,
                disjuncts=disjuncts,
                value_range=(-2, 2),
                assumption_policy="satisfying",
                order_inducing=True,
            )
            agent, sid = random_vda(spec)
            items.append(Item(
                key=f"corpus-{index}", kind="practical", agent=agent, situation=sid,
                semantics="complete", argv=("solve", FILE, sid), order_inducing=True,
            ))
        out.append(tuple(items))
    return out


# -- wide -----------------------------------------------------------------

WIDE_SIZES = (20, 40, 60, 80)
# (slack, sizes): disjunct u_k asks for +1 on duty k and allows a loss of up
# to ``slack`` on every other duty, so more slack means denser weak
# preference.  Slack 2 stops at 40 actions: at 80 it gives ~125k attacks and
# explain_all_actions alone takes seconds, longer than a round should be.
WIDE_DENSITIES = ((0, WIDE_SIZES), (1, WIDE_SIZES), (2, (20, 30, 40)))
# One agent per (actions, slack) cell, 11 in all, keeps a round near 1.5 s,
# so that a 25 s run visits each input a dozen times or more and its median
# is taken over that many visits.
WIDE_REPLICATES = 1


def wide_agent(seed: int, actions: int, slack: int, replicate: int = 0) -> VdaAgent:
    """5 duties, 4 disjuncts, values in [-2, 2], every vector satisfying a duty.

    The principle is fixed by ``slack`` and not filtered for order-inducing.
    The duty vectors are one fixed draw per (actions, slack, replicate) and the seed
    deals them out to the actions in its own order.  A second draw of
    vectors would move the attack count of an 80-action input by about a
    fifth, and with it every time measured on it; dealing the same vectors
    keeps the work of an input fixed while the seed still changes argument
    numbering, tie-breaks and the explanation text.
    """
    draw = random.Random(f"wide:{actions}:{slack}:{replicate}")
    duties = tuple(f"d{i + 1}" for i in range(5))
    rows = []
    for _ in range(actions):
        values = [draw.randint(-2, 2) for _ in duties]
        if not any(v >= 1 for v in values):
            values[draw.randrange(len(duties))] = draw.randint(1, 2)
        rows.append(values)
    random.Random(f"wide:{seed}:{actions}:{slack}:{replicate}").shuffle(rows)
    names = tuple(f"a{i + 1}" for i in range(actions))
    principle = Principle(tuple(
        Disjunct(f"u{k + 1}", {d: 1 if i == k else -slack for i, d in enumerate(duties)})
        for k in range(4)
    ))
    return VdaAgent(
        language=VdaLanguage(("p",), names, duties),
        situations={"R": Situation.from_perceptions(("p",), ["p"])},
        matrices={"R": ActionMatrix("R", {
            name: DutyVector(name, dict(zip(duties, row))) for name, row in zip(names, rows)
        })},
        principle=principle,
    )


def build_wide(seed: int, tiny: bool) -> list[tuple[Item, ...]]:
    densities = ((0, (8,)), (1, (8,)), (2, (12,))) if tiny else WIDE_DENSITIES
    replicates = 1 if tiny else WIDE_REPLICATES
    grid = [(n, slack, r) for slack, sizes in densities for n in sizes for r in range(replicates)]
    random.Random(seed).shuffle(grid)
    items = tuple(
        Item(
            key=f"wide-{n}-s{slack}-{r}", kind="practical", agent=wide_agent(seed, n, slack, r),
            situation="R", semantics="grounded", argv=("solve", FILE, "R"),
        )
        for n, slack, r in grid
    )
    return [items]


# -- chains ---------------------------------------------------------------

CHAIN_LENGTHS = (6, 7, 8, 9, 10)
# Variants 1 and 3 at every length: 10 inputs, a round near 1.8 s, so that a
# 25 s run visits each input a dozen times or more.
CHAIN_VARIANTS = (1, 3)


def chain_agent(seed: int, length: int, variant: int) -> VdaAgent:
    """An epistemic rule chain c0 -> c1 -> ... -> cL with two rules per link.

    Link i derives c_i from c_{i-1} with either assumption a_i or b_i, so a
    sentence at depth k has 2^k proofs.  The contraries of two outside
    assumptions p and q hang off c_L and c_{L-1}.  ``variant`` more rules
    conclude the contrary of a later link's assumption from c_2, c_3 or c_4,
    which rejects that assumption and knocks out the proofs through it.
    Variant 3 adds a mutually attacking pair m / not-m, which stays undecided.
    The small practical part gives the CLI a situation to solve.

    The chain's shape is fixed by (length, variant), because the attack
    count grows with 2^k for a rule hanging off c_k.  The seed picks which
    of a_j / b_j each inner rule rejects and the order of rules and
    assumptions, which changes argument numbering but not the work.
    """
    rng = random.Random(f"chains:{seed}:{length}:{variant}")
    links = range(1, length + 1)
    atoms = (
        [f"c{i}" for i in range(length + 1)]
        + [f"{x}{i}" for i in links for x in "ab"]
        + ["p", "q", "m"]
    )
    assumptions = [Literal(f"{x}{i}") for i in links for x in "ab"] + [Literal("p"), Literal("q")]
    if variant == 3:
        assumptions += [Literal("m"), Literal("m", False)]
    rules: list[tuple[Literal, tuple[Literal, ...]]] = []
    for i in links:
        for x in "ab":
            rules.append((Literal(f"c{i}"), (Literal(f"c{i - 1}"), Literal(f"{x}{i}"))))
    rules.append((Literal("p", False), (Literal(f"c{length}"),)))
    rules.append((Literal("q", False), (Literal(f"c{length - 1}"),)))
    for t in range(variant):
        k = 2 + t
        j = min(length, k + 2 + t)
        rules.append((Literal(f"{rng.choice('ab')}{j}", False), (Literal(f"c{k}"),)))
    rng.shuffle(rules)
    rng.shuffle(assumptions)
    spec = EpistemicSpec(
        atoms=tuple(atoms),
        assumptions=tuple(assumptions),
        rules=tuple(EpistemicRule(f"r{n + 1}", head, body) for n, (head, body) in enumerate(rules)),
    )
    duties = ("d1", "d2")
    matrix = {
        "act": DutyVector("act", {"d1": rng.randint(0, 2), "d2": -1}),
        "wait": DutyVector("wait", {"d1": 0, "d2": rng.randint(0, 2)}),
    }
    return VdaAgent(
        language=VdaLanguage(tuple(atoms), ("act", "wait"), duties),
        situations={"S": Situation.from_perceptions(tuple(atoms), ["c0"])},
        matrices={"S": ActionMatrix("S", matrix)},
        principle=Principle((Disjunct("u1", {"d1": 1, "d2": -2}), Disjunct("u2", {"d1": -1, "d2": 1}))),
        epistemic=spec,
    )


def build_chains(seed: int, tiny: bool) -> list[tuple[Item, ...]]:
    lengths = (4, 5) if tiny else CHAIN_LENGTHS
    grid = [(n, v) for n in lengths for v in CHAIN_VARIANTS]
    random.Random(seed).shuffle(grid)
    items = tuple(
        Item(
            key=f"chains-{n}-{v}", kind="epistemic", agent=chain_agent(seed, n, v),
            situation="S", semantics="grounded", perceptions=("c0",), argv=("solve", FILE, "S"),
        )
        for n, v in grid
    )
    return [items]


# -- cli ------------------------------------------------------------------

# Acceptance criterion 8's command list: (expected exit code, argv, decision
# the command makes).  The decision is also run directly in the decide and
# explain stages.  Exit code 1 for standoff T is the documented outcome for
# an indeterminate situation, not a failure.
CLI_COMMANDS = (
    (0, ("solve", "eldercare", "S1"), ("practical", "S1", "grounded")),
    (0, ("solve", "eldercare", "S1", "--format", "json"), ("practical", "S1", "grounded")),
    (0, ("justify", "eldercare", "S1", "--semantics", "grounded"), ("practical", "S1", "grounded")),
    (0, ("justify", "eldercare", "S1", "--format", "json"), ("practical", "S1", "grounded")),
    (0, ("justify", "eldercare", "S1", "--dot"), ("practical", "S1", "grounded")),
    (0, ("justify", "nixon", "--semantics", "preferred"), ("epistemic", None, "preferred")),
    (0, ("explain", "eldercare", "S1", "charge"), ("practical", "S1", "grounded")),
    (0, ("explain", "eldercare", "S1", "warn", "--format", "json"), ("practical", "S1", "grounded")),
    (0, ("explain", "eldercare", "S2", "--situation"), ("epistemic", "S2", "grounded")),
    (0, ("epistemic", "eldercare", "S2"), ("epistemic", "S2", "grounded")),
    (1, ("epistemic", "standoff", "T"), ("epistemic", "T", "grounded")),
)


def build_cli(seed: int, tiny: bool, root: Path) -> list[tuple[Item, ...]]:
    """Seeded permutations of the criterion-8 commands on the three fixtures."""
    paths = {name: root / "scenarios" / f"{name}.json" for name in ("eldercare", "nixon", "standoff")}
    agents = {name: load_agent(path) for name, path in paths.items()}
    rng = random.Random(seed)
    out = []
    for r in range(1 if tiny else 8):
        items = []
        for index in rng.sample(range(len(CLI_COMMANDS)), len(CLI_COMMANDS)):
            code, argv, (kind, sid, semantics) = CLI_COMMANDS[index]
            fixture = argv[1]
            agent = agents[fixture]
            perceptions = tuple(sorted(agent.situation(sid).positives)) if kind == "epistemic" and sid else ()
            items.append(Item(
                key=f"cli-{index}", kind=kind, agent=agent, situation=sid or "",
                semantics=semantics, argv=(argv[0], FILE) + argv[2:], perceptions=perceptions,
                expected_code=code, fixture=paths[fixture],
            ))
        out.append(tuple(items))
    return out


def workloads(root: Path) -> dict[str, Workload]:
    return {
        "corpus": Workload("corpus", build_corpus),
        "wide": Workload("wide", build_wide),
        "chains": Workload("chains", build_chains),
        "cli": Workload("cli", lambda seed, tiny: build_cli(seed, tiny, root)),
    }


def inputs_digest(rounds: list[tuple[Item, ...]]) -> str:
    """Digest of the generated inputs, stable across processes."""
    h = hashlib.sha256()
    for items in rounds:
        for item in items:
            h.update(repr((item.key, item.kind, item.situation, item.semantics, item.argv,
                           item.perceptions, item.expected_code)).encode())
            h.update(dump_agent(item.agent).encode())
    return h.hexdigest()


# -- the three stages -----------------------------------------------------

def decide(item: Item):
    if item.kind == "practical":
        return frameworks.analyze_practical(item.agent, item.situation, item.semantics)
    return frameworks.analyze_epistemic(item.agent.epistemic, item.perceptions, item.semantics)


def explain_result(item: Item, result):
    if item.kind == "practical":
        return explain.explain_all_actions(result)
    return explain.explain_situation(result)


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


# -- output checks --------------------------------------------------------

def grounded_is_complete(aaf, members: frozenset[str]) -> bool:
    """The extension is conflict-free, defends every member, and contains
    every argument it defends (checked from the attack relation alone)."""
    attackers: dict[str, list[str]] = {arg_id: [] for arg_id in aaf.ids}
    for src, dst in aaf.attacks:
        attackers[dst].append(src)
    defeated = {dst for src, dst in aaf.attacks if src in members}
    if defeated & members:
        return False
    defended = {arg_id for arg_id in aaf.ids if all(a in defeated for a in attackers[arg_id])}
    return defended == members


def check(item: Item, result, explanations, code: int, stdout: bytes) -> list[str]:
    """Output checks for one operation; returns the failures found."""
    problems = []
    aaf, report = result.aaf, result.report
    if aaf is not None:
        members = {ext.members for ext in report.extensions}
        if item.semantics == "grounded" and not grounded_is_complete(aaf, report.extensions[0].members):
            problems.append("grounded extension is not complete")
        if len(aaf.arguments) <= MAX_ORACLE_ARGUMENTS and members != brute_force_extensions(aaf, item.semantics):
            problems.append("extensions differ from brute_force_extensions")
    if item.kind == "practical":
        actions = item.agent.language.actions
        if item.order_inducing and result.solutions != result.credulous_actions:
            problems.append("solutions differ from the credulous actions")
        if len(actions) <= MAX_ORACLE_ACTIONS and result.solutions != brute_force_solutions(item.agent, item.situation):
            problems.append("solutions differ from brute_force_solutions")
        if [e.subject for e in explanations] != list(actions):
            problems.append("not one explanation per action")
        for e in explanations:
            justified = e.verdict == "justified-skeptical"
            if justified != (e.subject in result.justified_actions):
                problems.append(f"explanation verdict of {e.subject} disagrees with the decision")
    else:
        if [e.subject for e in explanations] != [str(v.literal) for v in result.verdicts]:
            problems.append("not one explanation per assumption")
    if item.expected_code is not None:
        if code != item.expected_code or not stdout:
            problems.append(f"CLI exit code {code}, expected {item.expected_code}")
    else:
        # Generated items run `solve`: exit 1 exactly when no action is a solution.
        expected = result.solutions if item.kind == "practical" else brute_force_solutions(item.agent, item.situation)
        solutions = [a for a in item.agent.language.actions if a in expected]
        line = "solutions: " + (", ".join(solutions) if solutions else "(none)")
        if code != (0 if solutions else 1) or line.encode() not in stdout.split(b"\n"):
            problems.append("CLI solve output disagrees with the decision")
    return problems


def output_digest(item: Item, result, explanations, code: int, stdout: bytes) -> str:
    """Digest of extensions, statuses, explanation text, CLI stdout and exit code."""
    parts: list = [item.key]
    if result.aaf is not None:
        index = {arg_id: i for i, arg_id in enumerate(result.aaf.ids)}
        parts.append([sorted(ext.members, key=index.__getitem__) for ext in result.report.extensions])
        parts.append([(arg_id, st.status) for arg_id, st in result.report.statuses.items()])
    if item.kind == "practical":
        parts.append(sorted(result.action_status.items()))
        parts.append((sorted(result.justified_actions), sorted(result.credulous_actions), sorted(result.solutions)))
    else:
        parts.append([(str(v.literal), v.status) for v in result.verdicts])
        parts.append(sorted(str(lit) for lit in result.justified_perceptions))
    parts.append([e.text for e in explanations])
    parts.append(code)
    h = hashlib.sha256(repr(parts).encode("utf-8"))
    h.update(stdout)
    return h.hexdigest()
