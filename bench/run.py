"""Decide / justify / explain benchmark for vdarg.

    python3 bench/run.py --workload {corpus,wide,chains,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One process, one caller, no threads: a
closed loop that starts the next operation when the last one returns.  The
inputs come from --seed; the program only receives the generated agents or
CLI argv.  Output checks run outside the timed stages.  The last line of
standard output is one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics of a separate traced run (--trace 1).  See
bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# Times are reported at the reference speed: the speed at which
# calibration_loop() takes REFERENCE_CAL_S, its time at full speed on the
# 2-core x86-64 host the baseline comes from.  See speed_factor().
REFERENCE_CAL_S = 0.0021
CAL_EVERY_S = 0.05
WORKLOADS = ("corpus", "wide", "chains", "cli")
STAGES = ("decide", "explain", "cli")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import vdarg from this checkout's src/, or return None when it is absent."""
    src = ROOT / "src"
    if not (src / "vdarg" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        return None
    for path in (str(src), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import vdarg
    import workloads
    if Path(vdarg.__file__).resolve().parent != src / "vdarg":
        return None
    return workloads


def calibration_loop() -> float:
    """Seconds one fixed piece of pure-Python dict work takes now."""
    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(15_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i * i
    return perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """REFERENCE_CAL_S over the calibration time around a stretch of work.

    The host slows the whole process by up to 2x for seconds to minutes at a
    time, in CPU time as well as wall time, and every stage slows alike.  A
    time multiplied by this factor is the time the work would have taken at
    the reference speed.
    """
    return REFERENCE_CAL_S / ((before + after) / 2)


class Speed:
    """Calibration samples taken between ops, at most CAL_EVERY_S apart."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> int:
        """Take a sample if one is due; the index of the latest sample."""
        if force or perf_counter() - self._last >= CAL_EVERY_S:
            self.samples.append(calibration_loop())
            self._last = perf_counter()
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """speed_factor() of the samples on either side of the ops that
        started after sample ``index``."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return speed_factor(self.samples[index], after)


def percentile(values: list[float], level: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level * len(ordered)) - 1)]


@dataclass
class Pass:
    """Stage timings, digests and failures of the ops run in one pass."""

    visits: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)
    calibrations: dict[str, list[int]] = field(default_factory=dict)  # Speed sample before each visit
    digests: dict[str, str] = field(default_factory=dict)
    rounds: list[int] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def op_seconds(self) -> float:
        return sum(sum(map(sum, stages)) for stages in self.visits.values())

    def per_input(self, speed: Speed) -> dict[str, list[float]]:
        """Per stage, each input's median over its visits of the time at the
        reference speed; "op" is the whole operation."""
        adjusted = [
            [tuple(t * speed.factor(c) for t in stages) for stages, c in zip(visits, self.calibrations[key])]
            for key, visits in self.visits.items()
        ]
        out = {stage: [statistics.median(v[i] for v in visits) for visits in adjusted]
               for i, stage in enumerate(STAGES)}
        out["op"] = [statistics.median(map(sum, visits)) for visits in adjusted]
        return out


def _untraced(_name: str):
    return contextlib.nullcontext()


class Runner:
    """Runs operations; writes each generated agent to a file for its CLI stage."""

    def __init__(self, wl, workdir: Path):
        self.wl = wl
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._files: dict[str, str] = {}
        self.speed = Speed()

    def argv(self, item) -> list[str]:
        path = self._files.get(item.key)
        if path is None:
            if item.fixture is not None:
                path = str(item.fixture)
            else:
                target = self.workdir / f"{item.key}.json"
                target.write_text(self.wl.dump_agent(item.agent), encoding="utf-8")
                path = str(target)
            self._files[item.key] = path
        return [path if a == self.wl.FILE else a for a in item.argv]

    def op(self, item, run: Pass, check: bool, expected: str | None = None, tracer=None) -> None:
        """One decide -> explain -> CLI operation; failures are recorded, not raised."""
        wl = self.wl
        argv = self.argv(item)
        run.ops += 1
        span = tracer.span if tracer is not None else _untraced
        calibration = self.speed.sample()
        # Start every op from an empty young heap, so the collections that
        # fall inside it are its own and not those of whichever input ran
        # before it.
        gc.collect()
        try:
            t0 = perf_counter()
            with span("bench.decide"):
                result = wl.decide(item)
            t1 = perf_counter()
            with span("bench.explain"):
                explanations = wl.explain_result(item, result)
            t2 = perf_counter()
            with span("bench.cli"):
                code, stdout = wl.run_cli(argv)
            t3 = perf_counter()
            problems = wl.check(item, result, explanations, code, stdout) if check else []
            digest = wl.output_digest(item, result, explanations, code, stdout)
        except Exception:  # the loop must go on; the op counts as failed
            problems = [f"raised:\n{traceback.format_exc()}"]
            digest = None
        else:
            run.visits.setdefault(item.key, []).append((t1 - t0, t2 - t1, t3 - t2))
            run.calibrations.setdefault(item.key, []).append(calibration)
            known = run.digests.setdefault(item.key, digest) if expected is None else expected
            if digest != known:
                problems.append("outputs differ from the first run of the same input")
        if problems:
            run.failed += 1
            run.problems.extend(f"{item.key}: {p}" for p in problems)


def run_rounds(runner: Runner, rounds, seconds: float) -> Pass:
    """Whole rounds, cycled, until the timed stages add up to ``seconds``."""
    run = Pass()
    index = 0
    while True:
        r = index % len(rounds)
        for item in rounds[r]:
            runner.op(item, run, check=item.key not in run.digests)
        run.rounds.append(r)
        index += 1
        if run.op_seconds >= seconds:
            runner.speed.sample(force=True)
            return run


def replay(runner: Runner, rounds, reference: Pass, tracer=None, once: bool = False) -> Pass:
    """The rounds ``reference`` ran, again (each of them once if ``once``);
    outputs must match its digests."""
    run = Pass()
    for r in sorted(set(reference.rounds)) if once else reference.rounds:
        for item in rounds[r]:
            if tracer is not None:
                tracer.op += 1
            runner.op(item, run, check=False, expected=reference.digests.get(item.key), tracer=tracer)
    runner.speed.sample(force=True)
    return run


def combined_digest(digests: list[str | None]) -> str:
    return hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()


def load_recorded() -> dict:
    path = BENCH / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def reference_digest(wl, workload, workdir: Path) -> tuple[str, list[str]]:
    """Run and check the tiny default-seed inputs; digest of their outputs."""
    rounds = workload.build(wl.DEFAULT_SEED, True)
    runner = Runner(wl, workdir)
    run = Pass()
    for items in rounds:
        for item in items:
            runner.op(item, run, check=True)
    keys = [item.key for items in rounds for item in items]
    return combined_digest([run.digests.get(k) for k in keys]), run.problems


def setup(wl, workload, seed: int, workdir: Path):
    """Generate the inputs and warm up on the reference inputs, several times.

    Returns the inputs, the median set-up time at the reference speed and
    any problems found.
    """
    recorded = load_recorded().get(workload.name, {})
    times, fingerprints, problems = [], set(), []
    for rep in range(SETUP_REPEATS):
        before = calibration_loop()
        start = perf_counter()
        rounds = workload.build(seed, False)
        digest, ref_problems = reference_digest(wl, workload, workdir / f"ref{rep}")
        times.append((perf_counter() - start) * speed_factor(before, calibration_loop()))
        fingerprints.add(wl.inputs_digest(rounds))
        problems += ref_problems
        if digest != recorded.get("reference"):
            problems.append(f"reference outputs digest {digest} differs from the recorded one")
    if len(fingerprints) != 1:
        problems.append("the same seed generated different inputs")
    return rounds, statistics.median(times), sorted(set(problems))


def round_digest(rounds, run: Pass, r: int) -> str:
    return combined_digest([run.digests.get(item.key) for item in rounds[r]])


def tail_level(inputs: int) -> float:
    """The highest percentile with at least ten inputs beyond it, kept within p90..p99."""
    return max(0.9, min(0.99, 1 - 10 / inputs))


def end_to_end(workload, run: Pass, speed: Speed, setup_s: float) -> dict:
    """Each input counts once, with the median of its visits, so inputs that
    a run happened to visit once more do not weigh more."""
    ms = {stage: [s * 1e3 for s in values] for stage, values in run.per_input(speed).items()}
    inputs = len(ms["op"])
    level = tail_level(inputs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "decide_p50_ms": (statistics.median(ms["decide"]), "ms"),
        "decide_p99_ms": (percentile(ms["decide"], level), "ms"),
        "decisions_per_s": (inputs * 1e3 / sum(ms["op"]), "1/s"),
        "explain_p50_ms": (statistics.median(ms["explain"]), "ms"),
        "explain_p99_ms": (percentile(ms["explain"], level), "ms"),
        "cli_p50_ms": (statistics.median(ms["cli"]), "ms"),
        "cli_p99_ms": (percentile(ms["cli"], level), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    visits = min(len(v) for v in run.visits.values())
    print(
        f"{workload.name}: {len(run.rounds)} rounds, {run.ops} ops over n={inputs} inputs "
        f"(each visited at least {visits} times), "
        f"*_p99_ms is the nearest-rank p{level * 100:.4g}; calibration loop median "
        f"{statistics.median(speed.samples) * 1e3:.3f} ms, {REFERENCE_CAL_S * 1e3:.3f} ms at the reference speed",
        file=sys.stderr,
    )
    return metrics


def traced(runner: Runner, rounds, seconds: float, workload, seed: int):
    """Untraced pass, traced replay, then one pass over the inputs that
    measures derive memory."""
    import spans

    base = run_rounds(runner, rounds, seconds / 3)
    tracer = spans.Tracer()
    with tracer.installed():
        traced_run = replay(runner, rounds, base, tracer)
    peak = spans.DerivePeak()
    with peak.installed():
        memory_run = replay(runner, rounds, base, once=True)
    tracer.write(BENCH / "out" / f"spans-{workload.name}-{seed}.jsonl.gz")

    layer = tracer.layer_metrics(traced_run.ops)
    metrics = {
        name: (value, "ms" if name.endswith("_ms") else "count") for name, value in layer.items()
    }
    metrics["aba.derive_peak_mib"] = (peak.peak_mib, "MiB")
    op_s = [sum(p.per_input(runner.speed)["op"]) for p in (base, traced_run)]
    overhead = (op_s[1] / op_s[0] - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"{workload.name}: traced {traced_run.ops} ops, tracing overhead {overhead:.1f}%", file=sys.stderr)
    return base, [base, traced_run, memory_run], metrics


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    before = calibration_loop()
    start = perf_counter()
    wl = _import_program()
    if wl is None:
        print(f"error: {ROOT} is not a vdarg checkout (src/vdarg and scenarios/ are needed)", file=sys.stderr)
        return 2
    import_s = (perf_counter() - start) * speed_factor(before, calibration_loop())
    workload = wl.workloads(ROOT)[args.workload]
    workdir = BENCH / ".work" / str(os.getpid())
    try:
        rounds, setup_s, problems = setup(wl, workload, args.seed, workdir)
        # The inputs live for the whole run; keep the collector from scanning
        # them again and again inside the timed stages.
        gc.collect()
        gc.freeze()
        runner = Runner(wl, workdir / "run")
        if args.trace:
            first, passes, metrics = traced(runner, rounds, args.seconds, workload, args.seed)
        else:
            first = run_rounds(runner, rounds, args.seconds)
            passes = [first]
            metrics = end_to_end(workload, first, runner.speed, import_s + setup_s)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    recorded = load_recorded().get(workload.name, {})
    if args.seed == wl.DEFAULT_SEED and round_digest(rounds, first, 0) != recorded.get("round0"):
        problems.append("outputs of the first round differ from the digest recorded for the default seed")
    for run in passes:
        problems += run.problems
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(run.ops for run in passes)
    failed = sum(run.failed for run in passes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
