"""Mutated agent files end in a result or a documented exit code, never a
traceback; mutated epistemic stages disagree with the assumption-level oracle."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vdarg import frameworks
from vdarg.cli import main
from vdarg.errors import SchemaError
from vdarg.oracle import brute_force_assumption_verdicts, random_epistemic_spec

ELDERCARE = (Path(__file__).resolve().parent.parent / "scenarios" / "eldercare.json").read_text(encoding="utf-8")

COMMANDS = (
    ("solve", "S1"),
    ("justify", "S1"),
    ("explain", "S1", "charge"),
    ("epistemic", "S2"),
)

# One value of each JSON type, to put where another type is expected.
VALUES = (None, True, 0, 1, -3, 1.5, "", "S1", "~ab", [], [1, "x"], {}, {"head": "ab", "body": []})


class Obj(list):
    """A JSON object as its list of key/value pairs, so a key can appear twice."""


def dump(value) -> str:
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    return json.dumps(value, ensure_ascii=False)


def sites(value) -> list[tuple[list, int]]:
    """(container, index) for every key of every object and every list item."""
    found = []
    if isinstance(value, list):
        for i, item in enumerate(value):
            found.append((value, i))
            found.extend(sites(item[1] if isinstance(value, Obj) else item))
    return found


def mutate(doc, data) -> None:
    places = sites(doc)
    if not places:
        return
    container, i = places[data.draw(st.integers(0, len(places) - 1), label="site")]
    is_obj = isinstance(container, Obj)
    op = data.draw(st.sampled_from(("drop", "duplicate", "rekey", "retype")), label="op")
    if op == "drop":
        del container[i]
    elif op == "duplicate":
        container.insert(i, container[i])
    elif op == "rekey" and is_obj:
        keys = [k for k, _ in container] + ["", "~x", "S1", "charge", "u1", "atoms"]
        container[i] = (data.draw(st.sampled_from(keys), label="key"), container[i][1])
    else:
        value = json.loads(json.dumps(data.draw(st.sampled_from(VALUES), label="value")), object_pairs_hook=Obj)
        container[i] = (container[i][0], value) if is_obj else value


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_eldercare_ends_in_an_exit_code(data):
    doc = json.loads(ELDERCARE, object_pairs_hook=Obj)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate(doc, data)
    text = dump(doc)
    if data.draw(st.integers(0, 3), label="truncate") == 0:
        text = text[: data.draw(st.integers(0, len(text)), label="length")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "agent.json"
        path.write_text(text, encoding="utf-8")
        for command, *rest in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, str(path), *rest])
            assert code in (0, 1, 2), (command, text)


def epistemic_outcome(spec, semantics: str):
    """analyze_epistemic's verdicts with no perceptions, or the message of the error it raises."""
    try:
        return [(v.literal, v.status) for v in frameworks.analyze_epistemic(spec, (), semantics).verdicts]
    except SchemaError as error:
        return str(error)


def oracle_outcome(spec, semantics: str):
    """The same, from the assumption-level oracle: its verdicts, or the
    contradiction that the facts and the justified assumptions hold."""
    verdicts = brute_force_assumption_verdicts(spec, (), semantics)
    settled = {*spec.facts} - set(spec.assumptions) | {lit for lit, v in verdicts.items() if v == "justified"}
    atoms = sorted(lit.atom for lit in settled if not lit.positive and lit.negated in settled)
    if atoms and "undecided" not in verdicts.values():
        return f"justified perceptions are contradictory for atoms: {atoms}"
    return list(verdicts.items())


def first_caught(semantics: str, seeds=range(500)) -> int | None:
    """The first seed whose random spec the epistemic stage and the oracle decide differently."""
    for seed in seeds:
        spec = random_epistemic_spec(seed)
        if epistemic_outcome(spec, semantics) != oracle_outcome(spec, semantics):
            return seed
    return None


def assert_the_oracle_catches(monkeypatch, semantics: str) -> None:
    seed = first_caught(semantics)
    assert seed is not None, "the mutant survived the seed scan"
    monkeypatch.undo()
    spec = random_epistemic_spec(seed)
    assert epistemic_outcome(spec, semantics) == oracle_outcome(spec, semantics)


def test_the_oracle_catches_preferred_decided_as_grounded(monkeypatch):
    decide = frameworks.acceptance_status
    monkeypatch.setattr(
        frameworks, "acceptance_status",
        lambda aaf, semantics: decide(aaf, "grounded" if semantics == "preferred" else semantics),
    )
    assert_the_oracle_catches(monkeypatch, "preferred")


def test_the_oracle_catches_a_dropped_contrary(monkeypatch):
    # The first assumption's contrary becomes a sentence no argument concludes, so nothing attacks it.
    attacks = frameworks.compute_attacks

    def without_first_contrary(arguments, framework):
        contraries = {**framework.contraries, framework.assumptions[0]: "dropped"}
        return attacks(arguments, dataclasses.replace(framework, contraries=contraries))

    monkeypatch.setattr(frameworks, "compute_attacks", without_first_contrary)
    assert_the_oracle_catches(monkeypatch, "grounded")
