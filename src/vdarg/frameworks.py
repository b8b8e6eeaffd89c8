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
source qualifies.  The compiler reads the principle rows off the weak
preference masks (``core.WeakPreference``), target by target, and numbers
the arguments X1, X2... in rule order without deriving them.  An argument's
support is its source's vector and its attackers are the principle
arguments that target that action, so the compiler indexes the attackers
by source.  An argument's status is fixed by its support (flat ABA:
Bondarenko, Dung, Kowalski & Toni 1997; Toni 2014): the arguments of one
action share their attackers and are decided as one class.  So the
decision runs the semantics on the qualifying actions, each attacked by
the qualifying sources of the rows against it, and lifts the verdicts to
the argument ids: each argument holds its source's status record, and an
extension holds the arguments whose source is in it.  The actions are
passed in the order of their last argument, which keeps the extensions in
the argument graph's order.  ``PracticalBuild.sentences``
writes a row out as a rule's head and body, and the ABA framework is built
from the rows only when ``PracticalBuild.framework`` is first read.  So is
the argument graph, with no derivation, when ``PracticalResult.aaf`` is read,
as the commands that print rules and arguments do: each argument applies its
row's rule to the leaf proofs of its body, as ``derive_arguments`` would.

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
from functools import cached_property
from itertools import compress, count
from operator import itemgetter
from typing import NamedTuple

from . import aba, core
from .aba import DEFAULT_MAX_ARGUMENTS, AbaFramework, Aaf, Argument, Rule, compute_attacks, derive_arguments, union_of
from .core import (
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
    vector_of: Mapping[str, str]      # action -> vector sentence
    negation_of: Mapping[str, str]    # action -> negated vector sentence
    assumption_actions: tuple[str, ...]
    relevant: frozenset[str]
    display_order: Mapping[str, int]  # the language in canonical sentence order, for premise rendering
    preference: core.WeakPreference  # over the actions in language order
    rows: tuple[Row, ...]  # one per rule, in rule order: rule r<k> is rows[k-1]
    # Argument id -> the row of the rule it applies: the rows whose source
    # qualifies, in rule order.
    arguments: Mapping[str, Row]
    # Qualifying action -> the ids of the arguments concluding its contrary,
    # in argument order; the actions come in language order.
    attackers_of: Mapping[str, tuple[str, ...]]
    # Qualifying action -> the qualifying actions whose arguments attack it;
    # both in language order.
    action_attackers: Mapping[str, tuple[str, ...]]

    def sentences(self, row: Row) -> tuple[str, tuple[str, ...]]:
        """A rule's head and its body, in display order."""
        source, target, disjunct = row
        if disjunct is None:
            return source, (self.vector_of[source],)
        return self.negation_of[target], (disjunct, self.vector_of[source])

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

    @cached_property
    def argument_index(self) -> Mapping[str, int]:
        """Position of each argument id in argument order."""
        return {arg_id: i for i, arg_id in enumerate(self.arguments)}


def practical_framework(agent: VdaAgent, situation_id: str) -> PracticalBuild:
    """Compile one situation's practical rules, their arguments and each
    qualifying action's attackers."""
    matrix = agent.matrix_for(situation_id)
    principle = agent.require_principle()
    actions = agent.language.actions

    qualifying = [a for a in actions if matrix.vector(a).satisfies_some_duty()]
    if not qualifying:
        # Nothing satisfies any duty: the least-violating action should still
        # win, so every vector becomes an assumption with an action rule.
        qualifying = list(actions)
    qualifying_set = set(qualifying)

    check_sentence_names(agent, situation_id)
    vector_of = {a: vector_sentence(situation_id, a) for a in actions}
    negation_of = {a: negation_sentence(situation_id, a) for a in actions}

    # Bit i of every mask stands for actions[i], so set bits come in language order.
    preference = core.WeakPreference(matrix, principle, actions)
    qualifies = [a in qualifying_set for a in actions]
    # The tightest qualifying disjunct: greatest total bound, earliest on ties.
    ranked = sorted(enumerate(principle), key=lambda ju: (-sum(ju[1].bounds.values()), ju[0]))
    rows: list[Row] = [(a, a, None) for a in qualifying]
    # The action rules come first, and their sources qualify.
    arguments: dict[str, Row] = {f"X{k}": row for k, row in enumerate(rows, 1)}
    attackers: dict[str, tuple[str, ...]] = {}
    action_attackers: dict[str, tuple[str, ...]] = {}  # the sources of attackers_of
    # Only assumptions have contraries to conclude: one block of rows per
    # qualifying target, its sources in language order, each citing the
    # first disjunct in rank order that qualifies it.
    for t, target in enumerate(actions):
        if not qualifies[t]:
            continue
        under = preference.under[t]
        cited: dict[int, str] = {}
        seen = 0
        for j, u in ranked:
            fresh = under[j] & ~seen
            if fresh:
                seen |= fresh
                cited.update(dict.fromkeys(core.set_bits(fresh), u.id))
        ids: list[str] = []
        sources: list[str] = []
        for k in core.set_bits(seen):
            source = actions[k]
            row = (source, target, cited[k])
            rows.append(row)
            if qualifies[k]:  # its vector is an assumption, so the body is derivable
                arg_id = f"X{len(arguments) + 1}"
                arguments[arg_id] = row
                ids.append(arg_id)
                sources.append(source)
        attackers[target] = tuple(ids)
        action_attackers[target] = tuple(sources)
    if len(arguments) > DEFAULT_MAX_ARGUMENTS:  # derive_arguments' cap, checked before any semantics runs
        raise ResourceCapError("max_arguments", DEFAULT_MAX_ARGUMENTS)

    ordered = (
        [u.id for u in principle]
        + [vector_of[a] for a in actions]
        + [negation_of[a] for a in actions]
        + list(actions)
    )
    return PracticalBuild(
        agent=agent,
        situation_id=situation_id,
        vector_of=vector_of,
        negation_of=negation_of,
        assumption_actions=tuple(qualifying),
        relevant=frozenset(actions) | frozenset(negation_of[a] for a in qualifying),
        display_order={s: i for i, s in enumerate(ordered)},
        preference=preference,
        rows=tuple(rows),
        arguments=arguments,
        attackers_of=attackers,
        action_attackers=action_attackers,
    )


@dataclass(frozen=True)
class PracticalResult:
    """Practical pipeline output: the decision, made on the qualifying actions
    and lifted to the compiler's argument index, and the action verdicts; the
    argument graph is built on first read."""

    build: PracticalBuild
    semantics: str
    report: AcceptanceReport  # extensions and statuses name the arguments X1, X2...
    action_argument: Mapping[str, str]
    action_status: Mapping[str, str]
    justified_actions: frozenset[str]
    credulous_actions: frozenset[str]
    solutions: frozenset[str]

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
    def extension_labels(self) -> Mapping[str, tuple[str, ...]]:
        """Each qualifying action's extension labels: the extensions that
        hold its arguments, which are one class with one membership."""
        labelled = self.report.labelled()
        return {
            action: tuple(label for label, ext in labelled if arg_id in ext.members)
            for action, arg_id in self.action_argument.items()
        }

    @cached_property
    def counter_attackers(self) -> Mapping[str, tuple[str, ...]]:
        """Each qualifying action's attackers that are in some extension, in
        argument order: the accepted arguments that strike back for it."""
        statuses = self.report.statuses
        return {
            action: tuple(a for a in attackers if statuses[a].in_some)
            for action, attackers in self.build.attackers_of.items()
        }

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


class ValueTable(NamedTuple):
    disjuncts: Mapping[str, tuple[int, tuple[tuple[str, int], ...]]]  # id -> (position, bound pairs)
    vectors: Mapping[str, tuple[tuple[str, int], ...]]  # action -> its duty vector's value pairs
    duty_names: Mapping[str, str]  # duty -> display name, the duty itself when unnamed


def analyze_practical(agent: VdaAgent, situation_id: str, semantics: str = "grounded") -> PracticalResult:
    build = practical_framework(agent, situation_id)
    # Decide on the actions; an argument's status is its source action's.
    # Extensions are ordered by their node masks.  An action's arguments are
    # one class, so two extensions' argument masks compare at the last
    # argument of the last action in one and not the other: with the actions
    # in the order of their last argument, the action masks compare the same way.
    ids = build.arguments.keys()
    sources = [*map(itemgetter(0), build.arguments.values())]
    last_first = dict.fromkeys(reversed(sources))  # each action at its last argument, read backwards
    decided = acceptance_status({a: build.action_attackers[a] for a in reversed(last_first)}, semantics)
    status_of = decided.statuses
    report = AcceptanceReport(
        semantics,
        tuple([
            Extension(frozenset(compress(ids, map(ext.members.__contains__, sources))), semantics)
            for ext in decided.extensions
        ]),
        dict(zip(ids, map(status_of.__getitem__, sources))),
        decided.vacuous,
        decided.diagnostic,
    )

    # The action rules come first, one per qualifying action.
    action_argument = dict(zip(build.assumption_actions, build.arguments))
    action_status: dict[str, str] = {}
    justified: set[str] = set()
    credulous: set[str] = set()
    for a in agent.language.actions:
        status = status_of.get(a)
        if status is None:
            action_status[a] = "rejected-a-priori"
            continue
        action_status[a] = status.status
        if status.in_all:
            justified.add(a)
        if status.in_some:
            credulous.add(a)

    return PracticalResult(
        build=build,
        semantics=semantics,
        report=report,
        action_argument=action_argument,
        action_status=action_status,
        justified_actions=frozenset(justified),
        credulous_actions=frozenset(credulous),
        solutions=build.preference.solutions(),
    )


@dataclass(frozen=True)
class EpistemicBuild:
    spec: EpistemicSpec
    framework: AbaFramework
    relevant: frozenset[str]
    display_order: Mapping[str, int]
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
    display_order = {s: i for i, s in enumerate(assumption_sentences)}
    return EpistemicBuild(spec, framework, relevant, display_order, facts)


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

    if not spec.assumptions:
        # Identity stage: nothing to adjudicate.
        pj = frozenset(Literal(p) for p in ordered_p)
        situation = Situation.from_perceptions(spec.atoms, ordered_p)
        return EpistemicResult(
            spec, semantics, ordered_p, None, None, None, (), pj, situation, (),
        )

    build = epistemic_framework(spec, extra_facts=map(Literal, ordered_p))
    aaf, report, verdicts = adjudicate(build, semantics)

    conflict = contradiction(verdicts, build.facts)
    if conflict:
        raise SchemaError(conflict)
    pj = frozenset(build.facts) | frozenset(v.literal for v in verdicts if v.status == "justified")
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
    if agent.epistemic is not None and agent.epistemic.assumptions:
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
