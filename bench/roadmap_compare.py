"""Per-layer times of the 80-action wide inputs, beside ROADMAP's baseline.

    python3 bench/roadmap_compare.py

ROADMAP's baseline table times an 80-action agent with 4,239 arguments and
about 200k attacks under grounded semantics, layer by layer, without the
explanation.  This script runs the wide workload's three 80-action inputs
(slack 0 and 1, as in every wide round, and slack 2, which is too slow for a
round) once to warm up and once traced, and prints each layer's self time in
seconds for one decide -> explain -> CLI operation.
"""

from __future__ import annotations

import shutil
import sys

import run


ROADMAP = {"frameworks.compile_ms": 0.08, "aba.derive_ms": 0.11, "aba.attacks_ms": 0.15,
           "semantics.extensions_ms": 0.31, "core.preference_ms": 0.08}


def main() -> int:
    wl = run._import_program()
    if wl is None:
        print("error: run from a vdarg checkout", file=sys.stderr)
        return 2
    import spans

    workdir = run.BENCH / ".work" / "roadmap"
    columns = {}
    try:
        runner = run.Runner(wl, workdir)
        for slack in (0, 1, 2):
            item = wl.Item(
                key=f"wide-80-s{slack}", kind="practical", agent=wl.wide_agent(wl.DEFAULT_SEED, 80, slack),
                situation="R", semantics="grounded", argv=("solve", wl.FILE, "R"),
            )
            runner.op(item, run.Pass(), check=False)
            tracer = spans.Tracer()
            traced_pass = run.Pass()
            with tracer.installed():
                runner.op(item, traced_pass, check=False, tracer=tracer)
            if traced_pass.problems:
                print("\n".join(traced_pass.problems), file=sys.stderr)
                return 1
            columns[slack] = tracer.layer_metrics(1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("| layer | ROADMAP 80 actions | " + " | ".join(
        f"wide 80, slack {s} ({columns[s]['aba.arguments']:.0f} args, {columns[s]['aba.attacks']:.0f} attacks)"
        for s in columns) + " |")
    print("| --- | --- |" + " --- |" * len(columns))
    for name in spans.TIME_METRICS:
        roadmap = ROADMAP.get(name)
        cells = " | ".join(f"{columns[s][name] / 1e3:.3f}" for s in columns)
        print(f"| {name[:-3]} | {'' if roadmap is None else f'{roadmap:.2f}'} | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
