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

from .aba import ordered_premises
from .errors import SchemaError, UnknownNameError
from .frameworks import EpistemicResult, PracticalResult

_VvaluePairs = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class AttackerCitation:
    argument_id: str
    conclusion: str
    premises: tuple[str, ...]
    extensions: tuple[str, ...]          # extension labels where this attacker is accepted
    counter_attackers: tuple[str, ...]   # accepted arguments striking back
    disjunct: str | None = None
    disjunct_bounds: _VvaluePairs | None = None
    source_action: str | None = None
    source_vector: _VvaluePairs | None = None
    target_vector: _VvaluePairs | None = None


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


def _value_pairs(values: Mapping[str, int]) -> _VvaluePairs:
    return tuple(values.items())


def explain_action(result: PracticalResult, action: str) -> Explanation:
    build = result.build
    agent = build.agent
    if action not in agent.language.actions:
        raise UnknownNameError(f"unknown action {action!r}")
    duty_names = dict(agent.duty_names) or {d: d for d in agent.language.duties}

    matrix = agent.matrix_for(build.situation_id)
    principle = agent.require_principle()
    semantics = result.semantics

    if action not in result.action_argument:
        expl = Explanation(
            subject=action, kind="action", verdict="rejected-a-priori",
            argument_id=None, premises=(), extensions=(), attackers=(), defenders=(),
            semantics=semantics,
        )
        return replace(expl, text=render_text(expl, duty_names))

    arg_id = result.action_argument[action]
    argument = result.aaf.argument(arg_id)
    premises = tuple(ordered_premises(argument.premises, build.display_order))
    report = result.report
    labelled = report.labelled()
    attackers_of = result.aaf.attackers_of

    def citation(att_id: str, extensions: tuple[str, ...]) -> AttackerCitation:
        att = result.aaf.argument(att_id)
        info = build.rule_info.get(att.tree.rule_id or "", None)
        disjunct = info.disjunct if info else None
        source = info.source if info else None
        target = info.target if info else None
        counter = tuple(
            c for c in attackers_of[att_id] if any(c in ext.members for _, ext in labelled)
        )
        return AttackerCitation(
            argument_id=att_id,
            conclusion=att.conclusion,
            premises=tuple(ordered_premises(att.premises, build.display_order)),
            extensions=extensions,
            counter_attackers=counter,
            disjunct=disjunct,
            disjunct_bounds=_value_pairs(principle.by_id(disjunct).bounds) if disjunct else None,
            source_action=source,
            source_vector=_value_pairs(matrix.vector(source).values) if source else None,
            target_vector=_value_pairs(matrix.vector(target).values) if target else None,
        )

    status = report.statuses[arg_id]
    member_labels = report.extension_labels_containing(arg_id)

    if status.in_all:
        verdict = "justified-skeptical"
    elif status.in_some:
        verdict = "justified-credulous"
    else:
        verdict = None

    if verdict is not None:
        cited = tuple(
            citation(att_id, tuple(
                label for label, ext in labelled if att_id in ext.members
            ))
            for att_id in attackers_of[arg_id]
        )
        defenders = tuple(
            sorted({c for att in cited for c in att.counter_attackers}, key=result.aaf.index.__getitem__)
        )
        expl = Explanation(
            subject=action, kind="action", verdict=verdict, argument_id=arg_id,
            premises=premises, extensions=member_labels, attackers=cited,
            defenders=defenders, semantics=semantics,
        )
        return replace(expl, text=render_text(expl, duty_names))

    # Not in any extension: rejected if every extension accepts an attacker.
    chosen: list[AttackerCitation] = []
    rejected_everywhere = bool(labelled)
    for label, ext in labelled:
        accepted = [a for a in attackers_of[arg_id] if a in ext.members]
        if not accepted:
            rejected_everywhere = False
            break

        def rank(att_id: str) -> tuple[int, str]:
            info = build.rule_info.get(result.aaf.argument(att_id).tree.rule_id or "")
            if info and info.disjunct is not None:
                return (principle.index_of(info.disjunct), info.source or "")
            return (len(principle.disjuncts), att_id)

        best = min(accepted, key=rank)
        existing = next((c for c in chosen if c.argument_id == best), None)
        if existing is None:
            chosen.append(citation(best, (label,)))
        else:
            chosen[chosen.index(existing)] = replace(
                existing, extensions=existing.extensions + (label,)
            )
    if rejected_everywhere:
        expl = Explanation(
            subject=action, kind="action", verdict="rejected", argument_id=arg_id,
            premises=premises, extensions=tuple(label for label, _ in labelled),
            attackers=tuple(chosen), defenders=(), semantics=semantics,
        )
        return replace(expl, text=render_text(expl, duty_names))

    cited = tuple(
        citation(att_id, tuple(label for label, ext in labelled if att_id in ext.members))
        for att_id in attackers_of[arg_id]
    )
    expl = Explanation(
        subject=action, kind="action", verdict="indeterminate", argument_id=arg_id,
        premises=premises, extensions=member_labels, attackers=cited, defenders=(),
        semantics=semantics,
    )
    return replace(expl, text=render_text(expl, duty_names))


def explain_all_actions(result: PracticalResult) -> tuple[Explanation, ...]:
    return tuple(explain_action(result, a) for a in result.build.agent.language.actions)


def explain_situation(result: EpistemicResult) -> tuple[Explanation, ...]:
    """One explanation per perception assumption, indeterminate ones included."""
    out: list[Explanation] = []
    if result.report is None:
        return ()
    labelled = result.report.labelled()
    assert result.aaf is not None
    by_id = result.aaf.by_id
    order = result.build.display_order if result.build else {}

    for verdict in result.verdicts:
        def cite(att_id: str) -> AttackerCitation:
            att = by_id[att_id]
            return AttackerCitation(
                argument_id=att_id,
                conclusion=att.conclusion,
                premises=tuple(ordered_premises(att.premises, order)),
                extensions=tuple(label for label, ext in labelled if att_id in ext.members),
                counter_attackers=tuple(
                    d for d in verdict.defenders
                    if (d, att_id) in result.aaf.attacks
                ),
            )

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
        expl = Explanation(
            subject=str(verdict.literal), kind="assumption", verdict=mapped,
            argument_id=verdict.argument_id,
            premises=(str(verdict.literal),),
            extensions=result.report.extension_labels_containing(verdict.argument_id),
            attackers=tuple(cite(a) for a in attacker_ids),
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
    vector: _VvaluePairs,
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

    head = f"{e.argument_id} ({{{', '.join(e.premises)}}} ⊢ {e.subject})"
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
                f"({{{', '.join(att.premises)}}} ⊢ {att.conclusion}), "
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
                f"{attacker.argument_id} ({{{', '.join(attacker.premises)}}} ⊢ "
                f"{attacker.conclusion}; {prem})."
            )
        return f"Assumption '{e.subject}' is skeptically rejected."
    listed = ", ".join(att.argument_id for att in e.attackers) or "none"
    return (
        f"Assumption '{e.subject}' is neither skeptically justified nor rejected "
        f"(attackers: {listed})."
    )
