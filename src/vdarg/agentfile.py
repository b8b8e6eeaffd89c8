"""Agent scenario files: a single UTF-8 JSON document.

Sections: language (atoms/actions/duties in order), optional duty_names and
value_range, situations (named true-perception sets), matrices (per
situation, one row per action, values in declared duty order), principle
(ordered disjunct id -> bound row), and an optional epistemic section
(assumption literals, contrary overrides, rules, facts).  Negative literals
are written with a '~' prefix.  Serialization is canonical, so
parse -> serialize -> parse is the identity on agent values.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .core import (
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
    validate_agent,
    DEFAULT_VALUE_RANGE,
)
from .errors import AgentFileError, SchemaError


def load_agent(path: str | Path) -> VdaAgent:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise AgentFileError(f"{path}: {exc}") from exc
    return parse_agent(text, source=str(path))


def parse_agent(text: str, source: str = "<string>") -> VdaAgent:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise AgentFileError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (SchemaError, ValueError) as exc:  # ValueError: an integer past the interpreter's digit limit
        raise AgentFileError(f"{source}: {exc}") from exc
    except RecursionError as exc:
        raise AgentFileError(f"{source}: JSON nested too deeply") from exc
    try:
        agent = _build(data)
        return validate_agent(agent)
    except SchemaError as exc:
        raise AgentFileError(f"{source}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object, refusing a key that appears twice in it."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"duplicate key {key!r}")
        obj[_utf8(key, "key")] = value
    return obj


def _utf8(name: str, where: str) -> str:
    """A name, refusing a lone surrogate escape, which no report can print."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(f"{where}: {name!r} cannot be encoded as UTF-8") from None
    return name


def _expect(data: Any, key: str, kind: type, where: str, default: Any = None, required: bool = False) -> Any:
    if key not in data:
        if required:
            raise SchemaError(f"{where}: missing key {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _int_list(values: Any) -> bool:
    """True for a list of integers; JSON true and false are not integers."""
    return isinstance(values, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    )


def _name_list(values: Any, where: str) -> tuple[str, ...]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise SchemaError(f"{where}: expected a list of strings")
    return tuple(_utf8(v, where) for v in values)


def _names(data: Any, key: str, where: str) -> tuple[str, ...]:
    """The optional list of names under key, empty when absent."""
    values = _expect(data, key, list, where, default=[])
    return _name_list(values, f"{where}.{key}")


def _duty_row(row: Any, duties: tuple[str, ...], where: str) -> dict[str, int]:
    """A matrix or principle row: one integer per duty, in declared order."""
    if not _int_list(row):
        raise SchemaError(f"{where}: expected a list of integers")
    if len(row) != len(duties):
        raise SchemaError(f"{where}: expected {len(duties)} values, got {len(row)}")
    return dict(zip(duties, row))


def _build(data: Any) -> VdaAgent:
    if not isinstance(data, dict):
        raise SchemaError("top level must be a JSON object")
    lang_data = _expect(data, "language", dict, "top level", required=True)
    atoms = _names(lang_data, "atoms", "language")
    actions = _names(lang_data, "actions", "language")
    duties = _names(lang_data, "duties", "language")
    language = VdaLanguage(atoms, actions, duties)

    duty_names = _expect(data, "duty_names", dict, "top level", default={})
    for key, value in duty_names.items():
        if key not in duties:
            raise SchemaError(f"duty_names: unknown duty {key!r}")
        if not isinstance(value, str):
            raise SchemaError(f"duty_names.{key}: expected a string")
        _utf8(value, f"duty_names.{key}")

    range_data = _expect(data, "value_range", list, "top level", default=list(DEFAULT_VALUE_RANGE))
    if len(range_data) != 2 or not _int_list(range_data):
        raise SchemaError("value_range: expected [low, high] integers")
    value_range = (range_data[0], range_data[1])

    situations: dict[str, Situation] = {}
    for sid, perceptions in _expect(data, "situations", dict, "top level", default={}).items():
        names = _name_list(perceptions, f"situations.{sid}")
        situations[sid] = Situation.from_perceptions(atoms, names)

    matrices: dict[str, ActionMatrix] = {}
    for sid, rows in _expect(data, "matrices", dict, "top level", default={}).items():
        if not isinstance(rows, dict):
            raise SchemaError(f"matrices.{sid}: expected an object of action rows")
        vectors = {
            action: DutyVector(action, _duty_row(row, duties, f"matrices.{sid}.{action}"))
            for action, row in rows.items()
        }
        matrices[sid] = ActionMatrix(sid, vectors)

    principle = None
    principle_data = _expect(data, "principle", dict, "top level", default=None)
    if principle_data:
        principle = Principle(tuple(
            Disjunct(uid, _duty_row(row, duties, f"principle.{uid}")) for uid, row in principle_data.items()
        ))

    epistemic = None
    epistemic_data = _expect(data, "epistemic", dict, "top level", default=None)
    if epistemic_data is not None:
        assumptions = tuple(map(Literal.parse, _names(epistemic_data, "assumptions", "epistemic")))
        contraries = {}
        spelling: dict[Literal, str] = {}
        for key, value in _expect(epistemic_data, "contraries", dict, "epistemic", default={}).items():
            if not isinstance(value, str):
                raise SchemaError(f"epistemic.contraries.{key}: expected a string")
            assumption = Literal.parse(key)
            if assumption in spelling:
                raise SchemaError(
                    f"epistemic.contraries: keys {spelling[assumption]!r} and {key!r} name the same literal"
                )
            spelling[assumption] = key
            contraries[assumption] = Literal.parse(value)
        rules = []
        for rid, body in _expect(epistemic_data, "rules", dict, "epistemic", default={}).items():
            where = f"epistemic.rules.{rid}"
            if not isinstance(body, dict):
                raise SchemaError(f"{where}: expected an object with head/body")
            head = _expect(body, "head", str, where, required=True)
            body_tokens = _names(body, "body", where)
            rules.append(EpistemicRule(rid, Literal.parse(head), tuple(map(Literal.parse, body_tokens))))
        facts = tuple(map(Literal.parse, _names(epistemic_data, "facts", "epistemic")))
        epistemic = EpistemicSpec(atoms, assumptions, tuple(rules), contraries, facts)

    return VdaAgent(
        language=language,
        situations=situations,
        matrices=matrices,
        principle=principle,
        epistemic=epistemic,
        value_range=value_range,
        duty_names=dict(duty_names),
    )


def agent_to_dict(agent: VdaAgent) -> dict:
    lang = agent.language
    out: dict[str, Any] = {
        "language": {
            "atoms": list(lang.atoms),
            "actions": list(lang.actions),
            "duties": list(lang.duties),
        }
    }
    if agent.duty_names:
        out["duty_names"] = {d: agent.duty_names[d] for d in lang.duties if d in agent.duty_names}
    out["value_range"] = list(agent.value_range)
    out["situations"] = {
        sid: [a for a in lang.atoms if a in situation.positives]
        for sid, situation in agent.situations.items()
    }
    out["matrices"] = {
        sid: {
            action: list(matrix.vector(action).as_row(lang.duties))
            for action in lang.actions
        }
        for sid, matrix in agent.matrices.items()
    }
    if agent.principle is not None:
        out["principle"] = {
            u.id: [u.bounds[d] for d in lang.duties] for u in agent.principle
        }
    if agent.epistemic is not None:
        spec = agent.epistemic
        section: dict[str, Any] = {
            "assumptions": [lit.token for lit in spec.assumptions],
        }
        if spec.contraries:
            section["contraries"] = {
                key.token: value.token for key, value in spec.contraries.items()
            }
        if spec.rules:
            section["rules"] = {
                rule.id: {"head": rule.head.token, "body": [b.token for b in rule.body]}
                for rule in spec.rules
            }
        if spec.facts:
            section["facts"] = [lit.token for lit in spec.facts]
        out["epistemic"] = section
    return out


def dump_agent(agent: VdaAgent) -> str:
    return json.dumps(agent_to_dict(agent), indent=2, ensure_ascii=False) + "\n"


def save_agent(agent: VdaAgent, path: str | Path) -> None:
    Path(path).write_text(dump_agent(agent), encoding="utf-8")
