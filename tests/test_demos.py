"""Every demo script runs to completion and prints what ``golden/demos.json`` holds.

Each demo runs in a fresh interpreter, and its stdout is compared byte for
byte with the stored copy, as ``test_snapshots`` does for the CLI.

After a deliberate output change, rewrite the golden with
``python tests/test_demos.py`` and review the diff.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos.json"


def run_demo(script: Path) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, encoding="utf-8", timeout=120
    )


def test_demos_exist():
    assert DEMOS
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stdout == json.loads(GOLDEN.read_text(encoding="utf-8"))[script.stem]


if __name__ == "__main__":
    golden = {}
    for script in DEMOS:
        proc = run_demo(script)
        if proc.returncode != 0:
            sys.exit(f"{script.name} failed:\n{proc.stderr}")
        golden[script.stem] = proc.stdout
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} demo outputs to {GOLDEN}")
