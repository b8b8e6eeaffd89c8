"""Record the output digests that every benchmark run compares against.

    python3 bench/record_digests.py

For each workload this runs, at the default seed, the tiny reference inputs
and the first round of the full inputs, checks their outputs, and writes the
digests to bench/digests.json.  Re-record only when a change to the program
is meant to change its output.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    wl = run._import_program()
    if wl is None:
        print("error: run from a vdarg checkout", file=sys.stderr)
        return 2
    workdir = run.BENCH / ".work" / "record"
    recorded = {}
    problems = []
    try:
        for name, workload in wl.workloads(run.ROOT).items():
            reference, ref_problems = run.reference_digest(wl, workload, workdir / name / "ref")
            rounds = workload.build(wl.DEFAULT_SEED, False)
            runner = run.Runner(wl, workdir / name / "round0")
            first = run.Pass()
            for item in rounds[0]:
                runner.op(item, first, check=True)
            problems += ref_problems + first.problems
            recorded[name] = {"reference": reference, "round0": run.round_digest(rounds, first, 0)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    (run.BENCH / "digests.json").write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
