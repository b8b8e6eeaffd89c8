"""Structured explanations for justified/rejected actions and situations.

The structured record is the contract; the rendered text is derived from it
and never parsed back.  Rejection explanations cite, per extension, one
attacking argument whose premises are accepted there, with the deciding
disjunct and both duty vectors embedded so the prose can name the duties
that actually differentiate the two actions.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace

from .aba import argument_text, ordered_premises
from .errors import SchemaError, UnknownNameError
from .frameworks import EpistemicResult, PracticalResult

_ValuePairs = tuple[tuple[str, int], ...]


@dataclass(frozen=True, init=False)
class AttackerCitation:
    argument_id: str
    conclusion: str
    premises: tuple[str, ...]
    extensions: tuple[str, ...]          # extension labels where this attacker is accepted
    counter_attackers: tuple[str, ...]   # accepted arguments striking back
    disjunct: str | None = None
    disjunct_bounds: _ValuePairs | None = None
    source_action: str | None = None
    source_vector: _ValuePairs | None = None
    target_vector: _ValuePairs | None = None

    def __init__(
        self,
        argument_id: str,
        conclusion: str,
        premises: tuple[str, ...],
        extensions: tuple[str, ...],
        counter_attackers: tuple[str, ...],
        disjunct: str | None = None,
        disjunct_bounds: _ValuePairs | None = None,
        source_action: str | None = None,
        source_vector: _ValuePairs | None = None,
        target_vector: _ValuePairs | None = None,
    ):
        # One store per field into the instance dict, as aba.Argument does.
        fields = self.__dict__
        fields["argument_id"] = argument_id
        fields["conclusion"] = conclusion
        fields["premises"] = premises
        fields["extensions"] = extensions
        fields["counter_attackers"] = counter_attackers
        fields["disjunct"] = disjunct
        fields["disjunct_bounds"] = disjunct_bounds
        fields["source_action"] = source_action
        fields["source_vector"] = source_vector
        fields["target_vector"] = target_vector


@dataclass(frozen=True)
class Explanation:
    subject: str
    kind: str     # "action" | "assumption"
    verdict: str  # justified-skeptical | justified-credulous | rejected | rejected-a-priori | indeterminate
    argument_id: str | None
    premises: tuple[str, ...]
    extensions: tuple[str, ...]
    attackers: tuple[AttackerCitation, ...]
    defenders: tuple[str, ...]
    semantics: str
    text: str = ""


def explain_action(result: PracticalResult, action: str) -> Explanation:
    """Explain one action from the decision over the compiler's argument
    index, by argument id: each argument's row names its source and
    disjunct, and ``build.sentences`` writes out its conclusion and
    premises, so neither the framework nor the argument graph is built."""
    build = result.build
    agent = build.agent
    if action not in agent.language.actions:
        raise UnknownNameError(f"unknown action {action!r}")
    duty_names = {d: d for d in agent.language.duties} | dict(agent.duty_names)

    matrix = agent.matrix_for(build.situation_id)
    principle = agent.require_principle()
    report, arguments, attackers_of = result.report, build.arguments, build.attackers_of

    def citation(att_id: str, extensions: tuple[str, ...]) -> AttackerCitation:
        row = arguments[att_id]
        source, _, disjunct = row
        conclusion, premises = build.sentences(row)
        return AttackerCitation(
            argument_id=att_id,
            conclusion=conclusion,
            premises=premises,
            extensions=extensions,
            counter_attackers=result.counter_attackers[source],
            disjunct=disjunct,
            disjunct_bounds=tuple(principle.by_id(disjunct).bounds.items()),
            source_action=source,
            source_vector=tuple(matrix.vector(source).values.items()),
            target_vector=tuple(matrix.vector(action).values.items()),
        )

    def rank(att_id: str) -> tuple[int, str]:
        source, _, disjunct = arguments[att_id]
        return (principle.index_of(disjunct), source)

    def rejection(attackers: tuple[str, ...]) -> tuple[AttackerCitation, ...] | None:
        # Per extension, the best-ranked accepted attacker; None if one accepts none.
        chosen: dict[str, AttackerCitation] = {}
        for label, ext in report.labelled():
            accepted = [a for a in attackers if a in ext.members]
            if not accepted:
                return None
            best = min(accepted, key=rank)
            if best in chosen:
                chosen[best] = replace(chosen[best], extensions=chosen[best].extensions + (label,))
            else:
                chosen[best] = citation(best, (label,))
        return tuple(chosen.values()) or None

    arg_id = result.action_argument.get(action)
    premises = extensions = attackers = defenders = ()
    if arg_id is None:
        verdict = "rejected-a-priori"
    else:
        premises = build.sentences(arguments[arg_id])[1]
        status = report.statuses[arg_id]
        rejected = None if status.in_some else rejection(attackers_of[action])
        if rejected is not None:
            verdict, attackers = "rejected", rejected
            extensions = tuple(label for label, _ in report.labelled())
        else:
            verdict = (
                "justified-skeptical" if status.in_all
                else "justified-credulous" if status.in_some else "indeterminate"
            )
            extensions = report.extension_labels_containing(arg_id)
            attackers = tuple(
                citation(a, report.extension_labels_containing(a)) for a in attackers_of[action]
            )
            if status.in_some:
                defenders = tuple(sorted(
                    {c for att in attackers for c in att.counter_attackers},
                    key=build.argument_index.__getitem__,
                ))
    expl = Explanation(
        subject=action, kind="action", verdict=verdict, argument_id=arg_id,
        premises=premises, extensions=extensions, attackers=attackers,
        defenders=defenders, semantics=result.semantics,
    )
    return replace(expl, text=render_text(expl, duty_names))


def explain_all_actions(result: PracticalResult) -> tuple[Explanation, ...]:
    return tuple(explain_action(result, a) for a in result.build.agent.language.actions)


def explain_situation(result: EpistemicResult) -> tuple[Explanation, ...]:
    """One explanation per perception assumption, indeterminate ones included."""
    report, aaf = result.report, result.aaf
    if report is None:
        return ()
    assert aaf is not None
    order = result.build.display_order if result.build else {}
    by_id, attackers_of = aaf.by_id, aaf.attackers_of
    # Arguments that hold one attacker tuple are in one class, so they share
    # their extensions and, within a verdict, their counter-attackers.  Keyed
    # by the tuple's identity, for this call only: aaf keeps every tuple alive.
    labels_of: dict[int, tuple[str, ...]] = {}

    def cite(att_id: str, defenders: frozenset[str], counters_of: dict[int, tuple[str, ...]]) -> AttackerCitation:
        att = by_id[att_id]
        attackers = attackers_of[att_id]
        key = id(attackers)
        labels = labels_of.get(key)
        if labels is None:
            labels = labels_of[key] = report.extension_labels_containing(att_id)
        counters = counters_of.get(key)
        if counters is None:
            counters = counters_of[key] = tuple(d for d in attackers if d in defenders)
        return AttackerCitation(att_id, att.conclusion, tuple(ordered_premises(att.premises, order)), labels, counters)

    out: list[Explanation] = []
    for verdict in result.verdicts:
        mapped = {
            "justified": "justified-skeptical",
            "rejected": "rejected",
            "undecided": "indeterminate",
        }[verdict.status]
        # The skeptically accepted attacker that decides a rejection is cited first.
        attacker_ids = list(verdict.attackers)
        if verdict.rejecting_attacker in attacker_ids:
            attacker_ids.remove(verdict.rejecting_attacker)
            attacker_ids.insert(0, verdict.rejecting_attacker)
        defenders = frozenset(verdict.defenders)
        counters_of: dict[int, tuple[str, ...]] = {}
        expl = Explanation(
            subject=str(verdict.literal), kind="assumption", verdict=mapped,
            argument_id=verdict.argument_id,
            premises=(str(verdict.literal),),
            extensions=report.extension_labels_containing(verdict.argument_id),
            attackers=tuple(cite(a, defenders, counters_of) for a in attacker_ids),
            defenders=verdict.defenders,
            semantics=result.semantics,
        )
        out.append(replace(expl, text=render_text(expl, None)))
    return tuple(out)


def _join(parts: tuple[str, ...]) -> str:
    if not parts:
        return ""
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def _duty_phrase(
    vector: _ValuePairs,
    differing: set[str],
    duty_names: Mapping[str, str],
) -> str:
    parts = []
    for duty, value in vector:
        if duty not in differing or value == 0:
            continue
        if duty not in duty_names:
            raise SchemaError(f"duty table is missing {duty!r}")
        verb = "satisfying" if value > 0 else "violating"
        parts.append(f"{verb} {duty_names[duty]} with degree {abs(value)} ({duty}:{value})")
    return ", ".join(parts)


def render_text(explanation: Explanation, duty_names: Mapping[str, str] | None = None) -> str:
    """Deterministic prose for an explanation.

    Duties whose differential is zero are omitted entirely: they do not help
    differentiate the two actions.
    """
    e = explanation
    if e.kind == "assumption":
        return _render_assumption(e)

    if e.verdict == "rejected-a-priori":
        return (
            f"Action '{e.subject}' is rejected a priori: its duty vector satisfies "
            "no duty, so no action rule was generated."
        )

    head = f"{e.argument_id} ({argument_text(e.premises, e.subject)})"
    if e.verdict in ("justified-skeptical", "justified-credulous"):
        where = (
            f"in every extension ({_join(e.extensions)})"
            if e.verdict == "justified-skeptical"
            else f"in extension(s) {_join(e.extensions)}"
        )
        kind_word = "skeptically" if e.verdict == "justified-skeptical" else "credulously"
        text = f"Action '{e.subject}' is a {kind_word} justified action: argument {head} is {where}."
        vector = next((p for p in e.premises), None)
        if not e.attackers:
            text += f" The ethical consequence {vector} is accepted: it has no attacker."
        else:
            clauses = [
                f"{att.argument_id} is counter-attacked by {_join(att.counter_attackers) or 'no accepted argument'}"
                for att in e.attackers
            ]
            text += (
                f" The ethical consequence {vector} is accepted: "
                f"all its attackers are attacked in each extension ({'; '.join(clauses)})."
            )
        return text

    if e.verdict == "rejected":
        text = f"Action '{e.subject}' is a rejected action: argument {head} is in no extension."
        for att in e.attackers:
            prem = _join(att.premises)
            text += (
                f" In {_join(att.extensions)} it is attacked by {att.argument_id} "
                f"({argument_text(att.premises, att.conclusion)}), "
                f"whose premises ({prem}) are accepted."
            )
        gloss = _rejection_gloss(e, duty_names)
        if gloss:
            text += " " + gloss
        return text

    listed = ", ".join(att.argument_id for att in e.attackers) or "none"
    return (
        f"Action '{e.subject}' is neither justified nor rejected under {e.semantics} "
        f"semantics (attackers: {listed})."
    )


def _rejection_gloss(e: Explanation, duty_names: Mapping[str, str] | None) -> str:
    att = next((a for a in e.attackers if a.source_vector and a.target_vector), None)
    if att is None:
        return ""
    names = dict(duty_names) if duty_names else {d: d for d, _ in att.source_vector}
    source = dict(att.source_vector)
    target = dict(att.target_vector)
    differing = {d for d in source if source[d] - target[d] != 0}
    if not differing:
        return (
            f"Under {att.disjunct}, no duty differentiates '{att.source_action}' "
            f"from '{e.subject}'."
        )
    source_phrase = _duty_phrase(att.source_vector, differing, names)
    target_phrase = _duty_phrase(att.target_vector, differing, names)
    source_part = f"'{att.source_action}' ({source_phrase})" if source_phrase else f"'{att.source_action}'"
    target_part = f"'{e.subject}' ({target_phrase})" if target_phrase else f"'{e.subject}'"
    return f"Under {att.disjunct}, {source_part} is ethically preferable to {target_part}."


def _render_assumption(e: Explanation) -> str:
    if e.verdict == "justified-skeptical":
        text = f"Assumption '{e.subject}' is skeptically justified: argument {e.argument_id} is in every extension."
        if not e.attackers:
            text += " It has no attacker."
        else:
            text += f" It is defended by skeptically accepted arguments {_join(e.defenders)}."
        return text
    if e.verdict == "rejected":
        attacker = e.attackers[0] if e.attackers else None
        if attacker is not None:
            prem = (
                f"premises {_join(attacker.premises)}"
                if attacker.premises
                else "an unattackable fact"
            )
            return (
                f"Assumption '{e.subject}' is skeptically rejected: its argument "
                f"{e.argument_id} is attacked by the skeptically accepted argument "
                f"{attacker.argument_id} ({argument_text(attacker.premises, attacker.conclusion)}; {prem})."
            )
        return f"Assumption '{e.subject}' is skeptically rejected."
    listed = ", ".join(att.argument_id for att in e.attackers) or "none"
    return (
        f"Assumption '{e.subject}' is neither skeptically justified nor rejected "
        f"(attackers: {listed})."
    )
