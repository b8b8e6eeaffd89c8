"""Mutated agent files end in a result or a documented exit code, never a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vdarg.cli import main

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
