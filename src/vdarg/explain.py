"""Structured explanations for justified/rejected actions and situations.

The structured record is the contract; the rendered text is derived from it
and never parsed back.  Rejection explanations cite, per extension, one
attacking argument whose premises are accepted there, with the deciding
disjunct and both duty vectors embedded so the prose can name the duties
that actually differentiate the two actions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import chain

from .aba import argument_text
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


@dataclass(frozen=True, init=False)
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

    def __init__(
        self, subject: str, kind: str, verdict: str, argument_id: str | None, premises: tuple[str, ...],
        extensions: tuple[str, ...], attackers: tuple[AttackerCitation, ...], defenders: tuple[str, ...],
        semantics: str, text: str = "",
    ):
        # One store per field into the instance dict, as aba.Argument does.
        fields = self.__dict__
        fields["subject"] = subject
        fields["kind"] = kind
        fields["verdict"] = verdict
        fields["argument_id"] = argument_id
        fields["premises"] = premises
        fields["extensions"] = extensions
        fields["attackers"] = attackers
        fields["defenders"] = defenders
        fields["semantics"] = semantics
        fields["text"] = text


def _explained(duty_names: Mapping[str, str] | None, **fields) -> Explanation:
    """The explanation of the fields, built once, with its text rendered from it."""
    explanation = Explanation(**fields)
    explanation.__dict__["text"] = render_text(explanation, duty_names)
    return explanation


def explain_action(result: PracticalResult, action: str) -> Explanation:
    """Explain one action from the masks and the action-level report, building no per-argument
    view: each attacker is a source in its attack mask, cited with the id and disjunct ``build``
    gives its row, ``result.value_table``'s value pairs and its counter-attackers."""
    build = result.build
    disjuncts, vectors, duty_names = result.value_table
    if action not in vectors:
        raise UnknownNameError(f"unknown action {action!r}")
    statuses, (labelled, counters) = result.action_report.statuses, result.extension_index
    actions, attack_of, number = build.preference.actions, build.attack, build.argument_number
    t = actions.index(action)
    attack = attack_of[t]
    target_vector = vectors[action]

    def cite(rows: Iterable[tuple[int, str, str, tuple[str, ...] | None]]) -> tuple[AttackerCitation, ...]:
        # Per (source, id, disjunct, labels or None for all holding it), written as build.sentences writes it.
        conclusion, vector_of = build.negation_of[action], build.vector_of
        return tuple([
            AttackerCitation(
                att_id, conclusion, (disjunct, vector_of[source := actions[s]]),
                statuses[source].extensions if labels is None else labels,
                counters[s],
                disjunct, disjuncts[disjunct][1], source, vectors[source], target_vector,
            )
            for s, att_id, disjunct, labels in rows
        ])

    def rank(cited: tuple[int, str]) -> tuple[int, str]:  # its disjunct earliest in the principle, then its name
        return (disjuncts[cited[1]][0], actions[cited[0]])

    def rejection() -> tuple[AttackerCitation, ...] | None:
        # Per extension, the best-ranked accepted attacker; None if one accepts none.
        labels: dict[tuple[int, str], list[str]] = {}
        for label, members in labelled:
            if not attack & members:
                return None
            labels.setdefault(min(build.cited(t, attack & members).items(), key=rank), []).append(label)
        return cite((s, f"X{number(s, t)}", u, tuple(ls)) for (s, u), ls in labels.items()) or None

    arg_id = None
    premises = extensions = attackers = defenders = ()
    if not build.qualifying >> t & 1:
        verdict = "rejected-a-priori"
    else:
        arg_id = f"X{number(t, t)}"
        premises = (build.vector_of[action],)  # as build.sentences writes an action rule's body
        status = statuses[action]
        rejected = None if status.in_some else rejection()
        if rejected is not None:
            verdict, attackers = "rejected", rejected
            extensions = tuple([label for label, _ in labelled])
        else:
            verdict = (
                "justified-skeptical" if status.in_all
                else "justified-credulous" if status.in_some else "indeterminate"
            )
            extensions = status.extensions
            if attack:
                # Row (s, t)'s id is t's first number plus the rank of s in its attack mask.
                cited = enumerate(build.cited(t, attack).items(), build.first[t])
                attackers = cite((s, f"X{k}", u, None) for k, (s, u) in cited)
            if status.in_some:
                # Each attacker's counter-attackers are its own block's, so in source order they come in argument order.
                defenders = tuple(chain.from_iterable(att.counter_attackers for att in attackers))
    return _explained(
        duty_names, subject=action, kind="action", verdict=verdict, argument_id=arg_id,
        premises=premises, extensions=extensions, attackers=attackers,
        defenders=defenders, semantics=result.semantics,
    )


def explain_all_actions(result: PracticalResult) -> tuple[Explanation, ...]:
    return tuple(explain_action(result, a) for a in result.build.agent.language.actions)


def explain_situation(result: EpistemicResult) -> tuple[Explanation, ...]:
    """One explanation per perception assumption, indeterminate ones included."""
    report, aaf = result.report, result.aaf
    if report is None:
        return ()
    assert aaf is not None
    by_id, attackers_of, statuses = aaf.by_id, aaf.attackers_of, report.statuses
    # Arguments that hold one attacker tuple share, within a verdict, their
    # counter-attackers.  Keyed by the tuple's identity, for this verdict
    # only: aaf keeps every tuple alive.

    def cite(att_id: str, defenders: frozenset[str], counters_of: dict[int, tuple[str, ...]]) -> AttackerCitation:
        att = by_id[att_id]
        attackers = attackers_of[att_id]
        counters = counters_of.get(id(attackers))
        if counters is None:
            counters = counters_of[id(attackers)] = tuple(d for d in attackers if d in defenders)
        # An epistemic framework has no axioms, so its leaf order is the display order.
        return AttackerCitation(att_id, att.conclusion, att.premises, statuses[att_id].extensions, counters)

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
        out.append(_explained(
            None, subject=str(verdict.literal), kind="assumption", verdict=mapped,
            argument_id=verdict.argument_id,
            premises=(str(verdict.literal),),
            extensions=statuses[verdict.argument_id].extensions,
            attackers=tuple(cite(a, defenders, counters_of) for a in attacker_ids),
            defenders=verdict.defenders,
            semantics=result.semantics,
        ))
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
    try:
        return ", ".join([
            f"{'satisfying' if value > 0 else 'violating'} {duty_names[duty]} with degree {abs(value)} ({duty}:{value})"
            for duty, value in vector
            if value and duty in differing
        ])
    except KeyError as missing:
        raise SchemaError(f"duty table is missing {missing.args[0]!r}") from None


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
    names = duty_names or {d: d for d, _ in att.source_vector}
    target = dict(att.target_vector)
    differing = {d for d, value in att.source_vector if value != target[d]}
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
