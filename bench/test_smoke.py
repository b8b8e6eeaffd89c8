"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

wl = run._import_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Every workload builds its tiny inputs, whatever the seed."""
    full = wl.workloads(run.ROOT)
    small = {
        name: dataclasses.replace(w, build=lambda seed, _tiny, build=w.build: build(seed, True))
        for name, w in full.items()
    }
    monkeypatch.setattr(wl, "workloads", lambda root: small)
    return small


def _result(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit_and_checks_pass(tiny, capsys, workload, trace, section):
    result = _result(capsys, "--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_digests_and_other_seed_other_inputs(tiny, tmp_path, workload):
    w = tiny[workload]
    digests = []
    for seed in (1, 1):
        rounds = w.build(seed, True)
        runner = run.Runner(wl, tmp_path / f"run{len(digests)}")
        digests.append(run.run_rounds(runner, rounds, 0.0).digests)
    assert digests[0] == digests[1]
    assert wl.inputs_digest(w.build(1, True)) == wl.inputs_digest(w.build(1, True))
    assert wl.inputs_digest(w.build(1, True)) != wl.inputs_digest(w.build(2, True))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
