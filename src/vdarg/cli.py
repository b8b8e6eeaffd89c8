"""Command-line front end: solve | justify | explain | epistemic.

Each report is built once, as the payload that --format json prints; the
text and --dot forms are rendered from that payload alone.  The epistemic
reports take each verdict, its rejecting attacker and any contradiction from
``frameworks``; no renderer decides them again.  All reports are
byte-deterministic for identical inputs and flags.  Exit
codes: 0 success, 1 domain outcome (indeterminate situation, empty solution
set), 2 usage or file errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import core
from .aba import Aaf, Rule, argument_text, compute_attacks, derive_arguments, ordered_premises
from .agentfile import load_agent
from .core import EpistemicSpec, Literal, ordered_literals, ordering_from_pairs
from .errors import SchemaError, UnknownNameError, VdaError
from .explain import explain_action, explain_situation
from .frameworks import (
    EpistemicResult,
    PracticalResult,
    Row,
    adjudicate,
    analyze_epistemic,
    analyze_practical,
    contradiction,
    epistemic_framework,
    practical_framework,
)
from .oracle import (
    MAX_ORACLE_ARGUMENTS,
    RandomVdaSpec,
    brute_force_extensions,
    brute_force_solutions,
    random_aaf,
    random_vda,
)
from .semantics import SEMANTICS, AcceptanceReport, extensions_for


def _graph_payload(aaf: Aaf, report: AcceptanceReport) -> dict:
    """The attacks source-major in argument order, and the extensions."""
    victims: dict[str, list[str]] = {arg_id: [] for arg_id in aaf.ids}
    for dst in aaf.ids:  # targets in argument order, so every victim list comes out sorted
        for src in aaf.attackers_of[dst]:
            victims[src].append(dst)
    return {
        "attacks": [[src, dst] for src in aaf.ids for dst in victims[src]],
        "extensions": [sorted(ext.members, key=aaf.index.__getitem__) for ext in report.extensions],
    }


def _epistemic_graph_payload(aaf: Aaf, report: AcceptanceReport, conflict: str | None = None) -> dict:
    # With no axioms, an argument's premises are in leaf order, the display order.
    arguments = [
        {"id": arg.id, "premises": list(arg.premises), "conclusion": arg.conclusion}
        for arg in aaf.arguments
    ]
    return {"arguments": arguments, **_graph_payload(aaf, report), "diagnostic": report.diagnostic or conflict}


def _rule_lines(payload: dict) -> list[str]:
    lines = ["rules:"]
    for rule in payload["rules"]:
        body = ", ".join(rule["body"])
        lines.append(f"  {rule['id']}: {rule['head']} ← {body}")
    return lines


def _graph_lines(payload: dict) -> list[str]:
    lines = ["arguments:"]
    lines.extend(f"  {a['id']}: {argument_text(a['premises'], a['conclusion'])}" for a in payload["arguments"])
    lines.append("attacks:")
    lines.extend(f"  {src} → {dst}" for src, dst in payload["attacks"])
    lines.append("extensions:")
    for i, members in enumerate(payload["extensions"]):
        lines.append(f"  E{i + 1}: {{{', '.join(members)}}}")
    if payload["diagnostic"]:
        lines.append(f"diagnostic: {payload['diagnostic']}")
    return lines


def _dot(payload: dict) -> str:
    lines = ["digraph aaf {", "  rankdir=LR;"]
    for arg in payload["arguments"]:
        text = argument_text(arg["premises"], arg["conclusion"])
        label = f"{arg['id']}: {text}".replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {arg["id"]} [label="{label}"];')
    for src, dst in payload["attacks"]:
        lines.append(f"  {src} -> {dst};")
    lines.append("}")
    return "\n".join(lines)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_report(payload: dict, fmt: str, render_text) -> None:
    """Print a report's payload as JSON, or its text form rendered from it."""
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        _emit(render_text(payload))


def _solve_text(payload: dict) -> str:
    lines = [f"situation: {payload['situation']}"]
    solutions = payload["solutions"]
    lines.append("solutions: " + (", ".join(solutions) if solutions else "(none)"))
    cycle = payload["cycle"]
    if cycle:
        lines.append("strict-preference cycle: " + " → ".join(cycle + cycle[:1]))
    steps = payload["ordering"]
    if steps:
        chain = []
        for i, step in enumerate(steps):
            chain.append(step["action"])
            if i + 1 < len(steps):
                chain.append(f"≥[{', '.join(step['disjuncts_to_next'])}]")
        lines.append("ordering: " + " ".join(chain))
    if payload["stuck"]:
        lines.append("ordering stuck at: " + ", ".join(payload["stuck"]))
    return "\n".join(lines)


def cmd_solve(args: argparse.Namespace) -> int:
    agent = load_agent(args.file)
    matrix = agent.matrix_for(args.situation)
    weak = core.WeakPreference(matrix, agent.require_principle())
    report = core.solution_report_from_pairs(weak)
    ordering = ordering_from_pairs(weak)
    payload = {
        "situation": args.situation,
        "solutions": [a for a in agent.language.actions if a in report.actions],
        "cycle": list(report.cycle) if report.cycle else None,
        "ordering": [
            {"action": step.action, "disjuncts_to_next": list(step.to_next)}
            for step in ordering.steps
        ],
        "stuck": list(ordering.stuck) if ordering.stuck else None,
    }
    _emit_report(payload, args.format, _solve_text)
    return 0 if payload["solutions"] else 1


def _rule_payload(rule: Rule, row: Row) -> dict:
    source, target, disjunct = row
    principle = disjunct is not None
    return {
        "id": rule.id,
        "head": rule.head,
        "body": list(rule.body),
        "kind": "principle" if principle else "action",
        "action": None if principle else source,
        "disjunct": disjunct,
        "source": source if principle else None,
        "target": target if principle else None,
    }


def _practical_payload(result: PracticalResult) -> dict:
    build = result.build
    actions = build.agent.language.actions
    order = build.display_order
    return {
        "situation": build.situation_id,
        "semantics": result.semantics,
        "rules": [_rule_payload(rule, row) for rule, row in zip(build.framework.rules, build.rows)],
        "arguments": [
            {
                "id": arg.id,
                "premises": ordered_premises(arg.premises, order),
                "support": ordered_premises(arg.support, order),
                "conclusion": arg.conclusion,
            }
            for arg in result.aaf.arguments
        ],
        **_graph_payload(result.aaf, result.report),
        "statuses": {
            arg_id: {
                "status": st.status,
                "in_all": st.in_all,
                "in_some": st.in_some,
            }
            for arg_id, st in result.report.statuses.items()
        },
        "diagnostic": result.report.diagnostic,
        "actions": {a: result.action_status[a] for a in actions},
        "justified": [a for a in actions if a in result.justified_actions],
        "credulous": [a for a in actions if a in result.credulous_actions],
        "solutions": [a for a in actions if a in result.solutions],
    }


def _practical_text(payload: dict) -> str:
    lines = [f"situation: {payload['situation']}", f"semantics: {payload['semantics']}"]
    lines.extend(_rule_lines(payload))
    lines.extend(_graph_lines(payload))
    lines.append("action status:")
    for action, status in payload["actions"].items():
        lines.append(f"  {action}: {status}")
    lines.append("skeptically justified actions: " + (", ".join(payload["justified"]) or "(none)"))
    lines.append("credulously accepted actions: " + (", ".join(payload["credulous"]) or "(none)"))
    return "\n".join(lines)


def _epistemic_framework_payload(spec: EpistemicSpec, semantics: str) -> dict:
    """The epistemic framework on its own, with no perception facts added; its
    diagnostic names the contradiction that analyze_epistemic would raise."""
    build = epistemic_framework(spec)
    aaf, report, verdicts = adjudicate(build, semantics)
    return {
        "framework": "epistemic",
        "semantics": semantics,
        "rules": [{"id": r.id, "head": r.head, "body": list(r.body)} for r in build.framework.rules],
        **_epistemic_graph_payload(aaf, report, contradiction(verdicts, build.facts)),
        "assumptions": {str(v.literal): report.statuses[v.argument_id].status for v in verdicts},
    }


def _epistemic_framework_text(payload: dict) -> str:
    lines = [f"framework: {payload['framework']}", f"semantics: {payload['semantics']}"]
    lines.extend(_rule_lines(payload))
    lines.extend(_graph_lines(payload))
    lines.append("assumption status:")
    for literal, status in payload["assumptions"].items():
        lines.append(f"  {literal}: {status}")
    return "\n".join(lines)


def cmd_justify(args: argparse.Namespace) -> int:
    if args.dot and args.format == "json":
        raise SchemaError("--dot and --format json cannot be combined")
    agent = load_agent(args.file)
    if args.situation is not None:
        payload = _practical_payload(analyze_practical(agent, args.situation, args.semantics))
        render_text = _practical_text
    else:
        if agent.epistemic is None:
            raise SchemaError("no situation given and the file has no epistemic section")
        if not agent.epistemic.assumptions:
            raise SchemaError("no situation given and the epistemic section declares no assumptions")
        payload = _epistemic_framework_payload(agent.epistemic, args.semantics)
        render_text = _epistemic_framework_text
    if args.dot:
        _emit(_dot(payload))
    else:
        _emit_report(payload, args.format, render_text)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    agent = load_agent(args.file)
    if args.situation_mode == (args.action is not None):
        raise SchemaError("give either an action to explain or --situation, not both")

    if args.situation_mode:
        if agent.epistemic is None:
            raise SchemaError("the file has no epistemic section")
        if not agent.epistemic.assumptions:
            raise SchemaError("the epistemic section declares no assumptions to explain")
        perceptions = sorted(agent.situation(args.situation).positives)
        result = analyze_epistemic(agent.epistemic, perceptions, args.semantics)
        payload = [asdict(e) for e in explain_situation(result)]
        _emit_report(payload, args.format, lambda p: "\n".join(map(_explanation_text, p)))
        return 0

    agent.matrix_for(args.situation)  # an unknown situation is reported first, then an unknown action
    if args.action not in agent.language.actions:
        raise UnknownNameError(f"unknown action {args.action!r}")
    result = analyze_practical(agent, args.situation, args.semantics)
    _emit_report(asdict(explain_action(result, args.action)), args.format, _explanation_text)
    return 0


def _explanation_text(e: dict) -> str:
    lines = [f"subject: {e['subject']}"]
    lines.append(f"verdict: {e['verdict']}")
    if e["argument_id"]:
        lines.append(f"argument: {e['argument_id']}")
    if e["premises"]:
        lines.append("premises: " + ", ".join(e["premises"]))
    if e["extensions"]:
        lines.append("extensions: " + ", ".join(e["extensions"]))
    if e["attackers"]:
        lines.append("attackers:")
        for att in e["attackers"]:
            where = ", ".join(att["extensions"]) or "(no extension)"
            counters = ", ".join(att["counter_attackers"]) or "(none)"
            lines.append(
                f"  {att['argument_id']} in {where}: premises {', '.join(att['premises']) or '(none)'}; "
                f"counter-attackers: {counters}"
            )
    if e["defenders"]:
        lines.append("defenders: " + ", ".join(e["defenders"]))
    lines.append(f"text: {e['text']}")
    return "\n".join(lines)


def _epistemic_payload(result: EpistemicResult) -> dict:
    atoms = result.spec.atoms
    payload: dict = {
        "perceptions": list(result.perceptions),
        "semantics": result.semantics,
        "justified_perceptions": [
            lit.token for lit in ordered_literals(result.justified_perceptions, atoms)
        ],
        "situation": (
            [lit.token for lit in result.situation.ordered(atoms)]
            if result.situation is not None
            else None
        ),
        "undecided": [lit.token for lit in result.undecided],
    }
    if result.aaf is not None:
        payload.update(_epistemic_graph_payload(result.aaf, result.report))
        payload["assumptions"] = [
            {
                "literal": v.literal.token,
                "argument": v.argument_id,
                "status": v.status,
                "attackers": list(v.attackers),
                "defenders": list(v.defenders),
                "rejecting_attacker": v.rejecting_attacker,
            }
            for v in result.verdicts
        ]
    return payload


def _epistemic_text(payload: dict) -> str:
    def shown(tokens) -> str:  # '~atom' is shown as '¬atom'
        return ", ".join(str(Literal.parse(token)) for token in tokens)

    lines = ["perceptions: " + ", ".join(payload["perceptions"])]
    if "arguments" not in payload:
        lines.append("assumptions: (none)")
    else:
        lines.extend(_graph_lines(payload))
        lines.append("assumptions:")
        for verdict in payload["assumptions"]:
            if verdict["status"] == "justified":
                detail = "defended by " + (", ".join(verdict["defenders"]) or "no one; unattacked")
            elif verdict["status"] == "rejected":
                detail = f"attacked by {verdict['rejecting_attacker']}"
            else:
                detail = "undecided"
            lines.append(f"  {Literal.parse(verdict['literal'])}: {verdict['status']} ({detail})")
    lines.append("P^J: " + (shown(payload["justified_perceptions"]) or "(empty)"))
    if payload["situation"] is not None:
        lines.append("S^J: " + shown(payload["situation"]))
    else:
        lines.append(f"S^J: indeterminate (undecided assumptions: {shown(payload['undecided'])})")
    return "\n".join(lines)


def cmd_epistemic(args: argparse.Namespace) -> int:
    agent = load_agent(args.file)
    if agent.epistemic is None:
        raise SchemaError("the file has no epistemic section")
    if (args.situation is None) == (args.perceptions is None):
        raise SchemaError("give a situation name or --perceptions, not both")
    if args.situation is not None:
        perceptions = sorted(agent.situation(args.situation).positives)
    else:
        perceptions = [p for p in args.perceptions.split(",") if p]
    result = analyze_epistemic(agent.epistemic, perceptions, args.semantics)
    _emit_report(_epistemic_payload(result), args.format, _epistemic_text)
    return 1 if result.undecided else 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if min(args.instances, args.aafs) < 0:
        raise SchemaError("--instances and --aafs must not be negative")
    mismatches = 0
    for i in range(args.instances):
        spec = RandomVdaSpec(seed=args.seed + i)
        agent, sid = random_vda(spec)
        if core.solutions(agent, sid) != brute_force_solutions(agent, sid):
            mismatches += 1
        # The decision runs on the actions and is lifted to the arguments, and its graph is
        # written from the rows: both must agree with the derived graph, its extensions found
        # by brute force.
        build = practical_framework(agent, sid)
        arguments = derive_arguments(build.framework, label="X", keep_conclusions=build.relevant)
        derived = Aaf(arguments, compute_attacks(arguments, build.framework))
        for semantics in SEMANTICS:
            result = analyze_practical(agent, sid, semantics)
            if result.aaf != derived:
                mismatches += 1
            if len(arguments) > MAX_ORACLE_ARGUMENTS:
                break
            decided = {e.members for e in result.report.extensions}
            if decided != brute_force_extensions(derived, semantics):
                mismatches += 1
    for i in range(args.aafs):
        aaf = random_aaf(args.seed + i)
        for semantics in SEMANTICS:
            solver = {e.members for e in extensions_for(aaf, semantics)}
            if solver != brute_force_extensions(aaf, semantics):
                mismatches += 1
    _emit(f"oracle-check: instances={args.instances} aafs={args.aafs} mismatches={mismatches}")
    return 1 if mismatches else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdarg",
        description="Decide, justify, and explain value-driven agent behaviour.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{solve,justify,explain,epistemic}", required=True
    )

    def common(p: argparse.ArgumentParser, semantics: bool = True) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        if semantics:
            p.add_argument("--semantics", choices=SEMANTICS, default="grounded")

    p_solve = sub.add_parser("solve", help="solutions and the annotated ethical ordering")
    p_solve.add_argument("file")
    p_solve.add_argument("situation")
    common(p_solve, semantics=False)
    p_solve.set_defaults(func=cmd_solve)

    p_justify = sub.add_parser("justify", help="rules, arguments, attacks, extensions, statuses")
    p_justify.add_argument("file")
    p_justify.add_argument("situation", nargs="?")
    p_justify.add_argument("--dot", action="store_true", help="emit the attack graph as DOT text")
    common(p_justify)
    p_justify.set_defaults(func=cmd_justify)

    p_explain = sub.add_parser("explain", help="explain a justified or rejected action, or the situation")
    p_explain.add_argument("file")
    p_explain.add_argument("situation")
    p_explain.add_argument("action", nargs="?")
    p_explain.add_argument("--situation", dest="situation_mode", action="store_true",
                           help="explain the justified situation instead of an action")
    common(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_epistemic = sub.add_parser("epistemic", help="adjudicate perceptions into a justified situation")
    p_epistemic.add_argument("file")
    p_epistemic.add_argument("situation", nargs="?")
    p_epistemic.add_argument("--perceptions", help="comma-separated true perceptions")
    common(p_epistemic)
    p_epistemic.set_defaults(func=cmd_epistemic)

    p_oracle = sub.add_parser("oracle-check")  # debugging aid, hidden from help
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--instances", type=int, default=25)
    p_oracle.add_argument("--aafs", type=int, default=25)
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except VdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
