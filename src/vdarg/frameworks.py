"""Compile agents into argumentation frameworks and run the full pipelines.

Practical reasoning: a situation's action matrix and the principle become a
framework whose assumptions are the duty vectors that satisfy at least one
duty (the qualifying actions).  Each such vector gets an action rule
(action <- vector), and every ordered pair of actions where the source is
weakly preferred to an assumption target gets one principle rule
(not-vector(target) <- disjunct, vector(source)) citing the tightest
qualifying disjunct.  Disjuncts are axioms: accepted premises with no
contrary.

Each rule is fixed by one row (source, target, disjunct): an action rule is
(a, a, None) and a principle rule is (s, t, u).  Every rule body holds one
vector and at most one axiom, so each rule whose body is derivable gives
exactly one argument: every action rule, and every principle rule whose
source qualifies.  An argument's support, its source's vector, fixes its
status (flat ABA: Bondarenko, Dung, Kowalski & Toni 1997; Toni 2014), so
the compiler keeps masks over the actions: the qualifying mask, the weak
preference masks (``core.WeakPreference``) and, per qualifying target, its
attack mask (the qualifying sources in the OR of its ``under`` masks) and
its first argument number.  Arguments X1, X2... are numbered in rule order,
the action arguments first; row (s, t)'s id is t's first number plus the
rank of s in t's attack mask.  The decision runs the semantics on the
qualifying actions in the order of their last argument, which keeps the
extensions in the argument graph's order, and explanations read the masks
and that action-level report.  Every per-argument structure is a view built
on first read: the rows, the argument ids, the decision lifted to them
(``PracticalResult.report``), the ABA framework and the argument graph,
whose arguments apply their rows' rules to the leaf proofs of their bodies,
as ``derive_arguments`` would.

Epistemic reasoning: perception literals are sentences, designated literals
are assumptions (contrary defaults to the complement), epistemic rules carry
over, and the declared facts and true perceptions that are not assumptions
become empty-body fact rules.  ``adjudicate`` derives the argument graph,
decides it and gives each assumption its verdict, which every epistemic
report reads: the justified perceptions (those facts and the justified
assumptions) and, when every assumption is settled, a justified situation.
``contradiction`` decides when they hold an atom and its negation, for
``analyze_epistemic`` to raise and for the framework-only report to print.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count
from operator import itemgetter, or_
from typing import NamedTuple

from . import aba, core
from .aba import DEFAULT_MAX_ARGUMENTS, AbaFramework, Aaf, Argument, Rule, compute_attacks, derive_arguments, union_of
from .core import (
    Disjunct,
    EpistemicSpec,
    Literal,
    Situation,
    VdaAgent,
    check_sentence_names,
    negation_sentence,
    vector_sentence,
)
from .errors import (
    IndeterminateSituationError,
    ResourceCapError,
    SchemaError,
    UnknownNameError,
)
from .semantics import AcceptanceReport, Extension, acceptance_status


# A practical rule: (source, target, disjunct).  An action rule a <- v(a) is
# (a, a, None); a principle rule not-v(t) <- u, v(s) is (s, t, u).
Row = tuple[str, str, str | None]


@dataclass(frozen=True)
class PracticalBuild:
    agent: VdaAgent
    situation_id: str
    vector_of: Mapping[str, str]  # action -> vector sentence
    negation_of: Mapping[str, str]  # action -> negated vector sentence
    ranked: list[tuple[int, Disjunct]]  # the principle's disjuncts, tightest first
    # Bit i of every mask stands for the i-th action in language order.
    preference: core.WeakPreference
    qualifying: int  # the actions whose vectors are assumptions
    attack: tuple[int, ...]  # per action: the qualifying sources of the rows against it; 0 unless it qualifies
    first: tuple[int, ...]  # per qualifying action: the number k of X<k>, its block's first attacker

    def argument_number(self, source: int, target: int) -> int:
        """The k of X<k>, the argument of row (source, target): target's first
        number plus the rank of source in its attack mask, or the action's."""
        if source == target:
            return (self.qualifying & ((1 << source) - 1)).bit_count() + 1
        return self.first[target] + (self.attack[target] & ((1 << source) - 1)).bit_count()

    @cached_property
    def assumption_actions(self) -> tuple[str, ...]:  # the qualifying actions
        return self.preference.names(self.qualifying)

    @cached_property
    def relevant(self) -> frozenset[str]:  # the actions and the assumptions' contraries
        return frozenset(self.preference.actions) | frozenset(map(self.negation_of.get, self.assumption_actions))

    @cached_property
    def display_order(self) -> Mapping[str, int]:
        """The language in canonical sentence order, for premise rendering."""
        ordered = [u.id for u in self.agent.require_principle()]
        ordered += [*self.vector_of.values(), *self.negation_of.values(), *self.preference.actions]
        return {s: i for i, s in enumerate(ordered)}

    def sentences(self, row: Row) -> tuple[str, tuple[str, ...]]:
        """A rule's head and its body, in display order."""
        source, target, disjunct = row
        if disjunct is None:
            return source, (self.vector_of[source],)
        return self.negation_of[target], (disjunct, self.vector_of[source])

    def cited(self, target: int, sources: int) -> dict[int, str]:
        """Each source in the mask, in language order -> the disjunct its row against
        target cites: the first in rank order whose ``under[target]`` mask holds it."""
        under, ranked = self.preference.under[target], self.ranked
        cited: dict[int, str] = {}
        # names_at decodes a dense mask faster than set_bits.
        dense = sources.bit_count() >= 8
        for s in core.names_at(sources, range(sources.bit_length())) if dense else core.set_bits(sources):
            for j, u in ranked:
                if under[j] >> s & 1:
                    cited[s] = u.id
                    break
        return cited

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """One per rule, in rule order: rule r<k> is rows[k-1].  The action
        rules come first; then, for each qualifying target, one row per
        source in the OR of its ``under`` masks."""
        actions, under = self.preference.actions, self.preference.under
        rows: list[Row] = [(a, a, None) for a in self.assumption_actions]
        for t in core.set_bits(self.qualifying):
            rows += [(actions[s], actions[t], uid) for s, uid in self.cited(t, reduce(or_, under[t], 0)).items()]
        return tuple(rows)

    @cached_property
    def attackers_of(self) -> Mapping[str, tuple[str, ...]]:
        """Qualifying action -> the ids of the arguments concluding its
        contrary, in argument order; the actions come in language order."""
        actions, first, attack = self.preference.actions, self.first, self.attack
        return {
            actions[t]: tuple(map("X%d".__mod__, range(first[t], first[t] + attack[t].bit_count())))
            for t in core.set_bits(self.qualifying)
        }

    @cached_property
    def arguments(self) -> Mapping[str, Row]:
        """Argument id -> the row of the rule it applies: the rows whose source
        qualifies, in rule order."""
        qualifying = set(self.assumption_actions)
        return {f"X{k}": row for k, row in enumerate([row for row in self.rows if row[0] in qualifying], 1)}

    @cached_property
    def framework(self) -> AbaFramework:
        """The ABA framework the rows write out."""
        sentences = self.sentences
        return AbaFramework(
            language=frozenset(self.display_order),
            rules=tuple(Rule(f"r{k}", *sentences(row)) for k, row in enumerate(self.rows, 1)),
            assumptions=tuple(self.vector_of[a] for a in self.assumption_actions),
            contraries={self.vector_of[a]: self.negation_of[a] for a in self.assumption_actions},
            axioms=frozenset(u.id for u in self.agent.require_principle()),
        )


def practical_framework(agent: VdaAgent, situation_id: str) -> PracticalBuild:
    """Compile one situation's weak preference masks and each qualifying
    action's attack mask, and number the arguments block by block."""
    matrix = agent.matrix_for(situation_id)
    principle = agent.require_principle()
    actions = agent.language.actions

    qualifying = sum(1 << i for i, a in enumerate(actions) if matrix.vector(a).satisfies_some_duty())
    if not qualifying:
        # Nothing satisfies any duty: the least-violating action should still
        # win, so every vector becomes an assumption with an action rule.
        qualifying = (1 << len(actions)) - 1

    if situation_id not in agent.named_situations:
        check_sentence_names(agent, situation_id)
        agent.named_situations.add(situation_id)
    vector_of = {a: vector_sentence(situation_id, a) for a in actions}
    negation_of = {a: negation_sentence(situation_id, a) for a in actions}

    # Bit i of every mask stands for actions[i], so set bits come in language order.
    preference = core.WeakPreference(matrix, principle, actions)
    # Only assumptions have contraries to conclude, and only a qualifying
    # source's vector is an assumption, so only its rows give arguments.
    attack = [0] * len(actions)
    first = [0] * len(actions)
    numbered = qualifying.bit_count()  # the action arguments come first
    for t in core.set_bits(qualifying):
        attack[t] = reduce(or_, preference.under[t], 0) & qualifying
        first[t] = numbered + 1
        numbered += attack[t].bit_count()
    if numbered > DEFAULT_MAX_ARGUMENTS:  # derive_arguments' cap, checked before any semantics runs
        raise ResourceCapError("max_arguments", DEFAULT_MAX_ARGUMENTS)
    ranked, attack, first = principle.ranked, tuple(attack), tuple(first)
    return PracticalBuild(agent, situation_id, vector_of, negation_of, ranked, preference, qualifying, attack, first)


@dataclass(frozen=True)
class PracticalResult:
    """Practical pipeline output: the decision, made on the qualifying actions,
    and the action verdicts.  The decision lifted to the argument ids and the
    argument graph are views, built on first read."""

    build: PracticalBuild
    semantics: str
    # The decision on the qualifying actions, each attacked by the sources in
    # its attack mask; the actions come in the order of their last argument.
    action_report: AcceptanceReport
    action_status: Mapping[str, str]
    justified_actions: frozenset[str]
    credulous_actions: frozenset[str]
    solutions: frozenset[str]

    @cached_property
    def report(self) -> AcceptanceReport:
        """The decision lifted to the argument ids X1, X2...: each argument
        holds its source's status record, and an extension holds the
        arguments whose source is in it."""
        decided, semantics = self.action_report, self.semantics
        ids = self.build.arguments.keys()
        sources = [*map(itemgetter(0), self.build.arguments.values())]
        status_of = decided.statuses
        return AcceptanceReport(
            semantics,
            tuple([
                Extension(frozenset(compress(ids, map(ext.members.__contains__, sources))), semantics)
                for ext in decided.extensions
            ]),
            dict(zip(ids, map(status_of.__getitem__, sources))),
            decided.vacuous,
            decided.diagnostic,
        )

    @cached_property
    def extension_index(self) -> ExtensionIndex:
        """Where the action-level extensions stand, for explanations."""
        build, decided = self.build, self.action_report
        bit = {a: 1 << i for i, a in enumerate(build.preference.actions)}
        labelled = tuple((label, sum(map(bit.__getitem__, ext.members))) for label, ext in decided.labelled())
        return ExtensionIndex(labelled, CounterAttackers(build, reduce(or_, (mask for _, mask in labelled), 0)))

    @cached_property
    def aaf(self) -> Aaf:
        """The arguments and their attackers, written from the rows: each proof
        is derive_arguments', its row's rule over the body's leaf proofs."""
        build = self.build
        attackers_of = {x: build.attackers_of[row[0]] for x, row in build.arguments.items()}
        limit = aba.DEFAULT_MAX_ATTACKS  # compute_attacks' cap
        if sum(map(len, attackers_of.values())) > limit:
            raise ResourceCapError("max_attacks", limit)
        leaves = [build.vector_of[a] for a in build.assumption_actions]
        leaves += sorted(u.id for u in build.agent.require_principle())
        leaf_proof = {s: (s, None, (), 1 << i, 0) for i, s in enumerate(leaves)}
        leaf_tuples: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}  # leaf mask -> (support, premises)
        arguments = []
        ids = iter(build.arguments)  # the rows whose source qualifies, in rule order
        for k, row in enumerate(build.rows):
            vector = leaf_proof.get(build.vector_of[row[0]])
            if vector is None:  # the source does not qualify: the body is not derivable
                continue
            head, body = build.sentences(row)
            children = tuple(map(leaf_proof.__getitem__, body))
            mask = children[0][3] | vector[3]
            found = leaf_tuples.get(mask)
            if found is None:
                # Leaf order: the vector, an assumption, then the disjunct, an axiom.
                premises = (vector[0],) if row[2] is None else (vector[0], row[2])
                found = leaf_tuples[mask] = (premises[:1], premises)
            arguments.append(Argument(next(ids), head, *found, (head, f"r{k + 1}", children, mask, 1 << k)))
        return Aaf(tuple(arguments), attackers_of)

    @cached_property
    def value_table(self) -> ValueTable:
        """What explanations cite, built once per result."""
        agent = self.build.agent
        matrix = agent.matrix_for(self.build.situation_id)
        return ValueTable(
            {u.id: (i, tuple(u.bounds.items())) for i, u in enumerate(agent.require_principle())},
            {a: tuple(matrix.vector(a).values.items()) for a in agent.language.actions},
            {d: d for d in agent.language.duties} | dict(agent.duty_names),
        )


class CounterAttackers(dict[int, tuple[str, ...]]):
    """Qualifying action's position -> the ids of its attackers that some
    extension holds, in argument order, each found on first read."""

    def __init__(self, build: PracticalBuild, in_some: int):
        self.build, self.in_some = build, in_some

    def __missing__(self, s: int) -> tuple[str, ...]:
        in_some, attack = self.in_some, self.build.attack[s]
        self[s] = found = tuple(
            [f"X{k}" for k, c in enumerate(core.set_bits(attack), self.build.first[s]) if in_some >> c & 1]
        ) if attack & in_some else ()
        return found


class ExtensionIndex(NamedTuple):
    labelled: tuple[tuple[str, int], ...]  # each extension's label and its mask over the actions
    counters: CounterAttackers


class ValueTable(NamedTuple):
    disjuncts: Mapping[str, tuple[int, tuple[tuple[str, int], ...]]]  # id -> (position, bound pairs)
    vectors: Mapping[str, tuple[tuple[str, int], ...]]  # action -> its duty vector's value pairs
    duty_names: Mapping[str, str]  # duty -> display name, the duty itself when unnamed


def analyze_practical(agent: VdaAgent, situation_id: str, semantics: str = "grounded") -> PracticalResult:
    build = practical_framework(agent, situation_id)
    actions, attack = build.preference.actions, build.attack
    # Decide on the actions; an argument's status is its source action's.
    # Extensions are ordered by their node masks, and two extensions'
    # argument masks compare at the last argument of the last action in one
    # and not the other: with the actions in the order of their last argument
    # (in the last block whose attack mask holds them, else their action
    # argument), the action masks compare the same way.
    backwards: list[int] = []
    seen = 0
    for mask in (*reversed(attack), build.qualifying):
        fresh = mask & ~seen
        if fresh:
            seen |= fresh
            backwards += reversed([*core.set_bits(fresh)])
    names = build.preference.names
    decided = acceptance_status({actions[a]: names(attack[a]) for a in reversed(backwards)}, semantics)

    status_of = decided.statuses
    return PracticalResult(
        build=build,
        semantics=semantics,
        action_report=decided,
        action_status={a: status_of[a].status if a in status_of else "rejected-a-priori" for a in actions},
        justified_actions=frozenset(a for a, status in status_of.items() if status.in_all),
        credulous_actions=frozenset(a for a, status in status_of.items() if status.in_some),
        solutions=build.preference.solutions(),
    )


@dataclass(frozen=True)
class EpistemicBuild:
    spec: EpistemicSpec
    framework: AbaFramework
    relevant: frozenset[str]
    facts: tuple[Literal, ...]  # the declared, then the extra facts that are not assumptions: justified outright


def epistemic_framework(spec: EpistemicSpec, extra_facts: Iterable[Literal] = ()) -> EpistemicBuild:
    """Build the epistemic framework; the declared facts and extra_facts
    that are not assumptions become empty-body rules."""
    if not spec.assumptions:
        raise SchemaError("epistemic reasoning needs at least one assumption literal")
    language = frozenset(
        str(Literal(atom, polarity)) for atom in spec.atoms for polarity in (True, False)
    )
    assumption_sentences = tuple(str(a) for a in spec.assumptions)
    contraries = {str(a): str(spec.contrary_of(a)) for a in spec.assumptions}

    rules: list[Rule] = []
    seen_shapes: set[tuple[str, tuple[str, ...]]] = set()
    for rule in spec.rules:
        shape = (str(rule.head), tuple(str(b) for b in rule.body))
        seen_shapes.add(shape)
        rules.append(Rule(rule.id, shape[0], shape[1]))

    assumption_set = set(spec.assumptions)
    # Facts take the ids f1, f2, ... that no epistemic rule already uses.
    used_ids = {rule.id for rule in spec.rules}
    fact_ids = (rid for rid in (f"f{k}" for k in count(1)) if rid not in used_ids)
    facts = tuple(dict.fromkeys(lit for lit in (*spec.facts, *extra_facts) if lit not in assumption_set))
    for lit in facts:
        shape = (str(lit), ())
        if shape in seen_shapes:
            continue
        seen_shapes.add(shape)
        rules.append(Rule(next(fact_ids), shape[0], ()))

    framework = AbaFramework(
        language=language,
        rules=tuple(rules),
        assumptions=assumption_sentences,
        contraries=contraries,
        axioms=frozenset(),
    )
    relevant = frozenset(assumption_sentences) | frozenset(contraries.values())
    return EpistemicBuild(spec, framework, relevant, facts)


@dataclass(frozen=True)
class AssumptionVerdict:
    literal: Literal
    argument_id: str
    status: str  # "justified" | "rejected" | "undecided"
    attackers: tuple[str, ...]
    defenders: tuple[str, ...]
    rejecting_attacker: str | None


def adjudicate(
    build: EpistemicBuild, semantics: str
) -> tuple[Aaf, AcceptanceReport, tuple[AssumptionVerdict, ...]]:
    """The argument graph, its acceptance report under one semantics, and
    each assumption's verdict in declaration order."""
    arguments = derive_arguments(build.framework, label="Y", keep_conclusions=build.relevant)
    aaf = Aaf(arguments, compute_attacks(arguments, build.framework))
    report = acceptance_status(aaf, semantics)

    # derive_arguments numbers the argument {a} |- a of each assumption a
    # first, in declaration order: every assumption is relevant.
    verdicts: list[AssumptionVerdict] = []
    for lit, argument in zip(build.spec.assumptions, aaf.arguments):
        arg_id = argument.id
        status = report.statuses[arg_id]
        atts = aaf.attackers_of[arg_id]
        counter_attackers = union_of(map(aaf.attackers_of.__getitem__, atts))
        defenders = tuple(sorted(
            (d for d in counter_attackers if report.statuses[d].in_all), key=aaf.index.__getitem__
        ))
        verdict = {"skeptically-justified": "justified", "skeptically-rejected": "rejected"}.get(
            status.status, "undecided"
        )
        # No attacker of a justified or undecided argument is in every extension.
        rejecting = next((a for a in atts if report.statuses[a].in_all), None)
        verdicts.append(AssumptionVerdict(lit, arg_id, verdict, atts, defenders, rejecting))
    return aaf, report, tuple(verdicts)


def contradiction(verdicts: Sequence[AssumptionVerdict], facts: Iterable[Literal] = ()) -> str | None:
    """The error when the facts and the justified assumptions hold an atom and
    its negation, or None: an undecided assumption leaves no situation to contradict."""
    if any(v.status == "undecided" for v in verdicts):
        return None
    justified = {*facts, *(v.literal for v in verdicts if v.status == "justified")}
    atoms = sorted(lit.atom for lit in justified if not lit.positive and lit.negated in justified)
    return f"justified perceptions are contradictory for atoms: {atoms}" if atoms else None


@dataclass(frozen=True)
class EpistemicResult:
    spec: EpistemicSpec
    semantics: str
    perceptions: tuple[str, ...]
    build: EpistemicBuild | None
    aaf: Aaf | None
    report: AcceptanceReport | None
    verdicts: tuple[AssumptionVerdict, ...]
    justified_perceptions: frozenset[Literal]
    situation: Situation | None
    undecided: tuple[Literal, ...]


def analyze_epistemic(
    spec: EpistemicSpec,
    perceptions: Sequence[str],
    semantics: str = "grounded",
) -> EpistemicResult:
    perception_set = set(perceptions)
    unknown = perception_set - set(spec.atoms)
    if unknown:
        raise SchemaError(f"perceptions outside the atom set: {sorted(unknown)}")
    ordered_p = tuple(a for a in spec.atoms if a in perception_set)

    build = aaf = report = None
    verdicts: tuple[AssumptionVerdict, ...] = ()
    if spec.assumptions:
        build = epistemic_framework(spec, extra_facts=map(Literal, ordered_p))
        aaf, report, verdicts = adjudicate(build, semantics)
        facts = build.facts
    else:
        # Identity stage: nothing to adjudicate, so the declared facts and
        # the perceptions are justified outright.
        facts = (*spec.facts, *map(Literal, ordered_p))

    conflict = contradiction(verdicts, facts)
    if conflict:
        raise SchemaError(conflict)
    pj = frozenset(facts) | frozenset(v.literal for v in verdicts if v.status == "justified")
    undecided = tuple(v.literal for v in verdicts if v.status == "undecided")
    positives = [lit.atom for lit in pj if lit.positive]
    situation = None if undecided else Situation.from_perceptions(spec.atoms, positives)

    return EpistemicResult(
        spec, semantics, ordered_p, build, aaf, report,
        verdicts, pj, situation, undecided,
    )


@dataclass(frozen=True)
class JustifiedSituation:
    perceptions: frozenset[Literal]
    situation: Situation
    verdicts: tuple[AssumptionVerdict, ...]


def justified_situation(
    spec: EpistemicSpec,
    perceptions: Sequence[str],
    semantics: str = "grounded",
) -> JustifiedSituation:
    """Adjudicated perception set and the situation it determines.

    Raises IndeterminateSituationError when some assumption is neither
    skeptically justified nor skeptically rejected.
    """
    result = analyze_epistemic(spec, perceptions, semantics)
    if result.undecided:
        raise IndeterminateSituationError(str(lit) for lit in result.undecided)
    assert result.situation is not None
    return JustifiedSituation(result.justified_perceptions, result.situation, result.verdicts)


@dataclass(frozen=True)
class Decision:
    epistemic: EpistemicResult | None
    situation_id: str
    practical: PracticalResult


def end_to_end_decide(
    agent: VdaAgent,
    perceptions: Sequence[str],
    semantics: str = "grounded",
) -> Decision:
    """Justified situation, then practical reasoning on its registered matrix."""
    epistemic_result: EpistemicResult | None = None
    if agent.epistemic is not None:
        epistemic_result = analyze_epistemic(agent.epistemic, perceptions, semantics)
        if epistemic_result.undecided:
            raise IndeterminateSituationError(str(lit) for lit in epistemic_result.undecided)
        situation = epistemic_result.situation
        assert situation is not None
    else:
        situation = Situation.from_perceptions(agent.language.atoms, perceptions)

    sid = agent.situation_matching(situation.literals)
    if sid is None:
        shown = ", ".join(str(lit) for lit in situation.ordered(agent.language.atoms))
        raise UnknownNameError(f"no declared situation matches the justified valuation {{{shown}}}")
    practical = analyze_practical(agent, sid, semantics)
    return Decision(epistemic_result, sid, practical)
