"""Span tracing from outside the program, for the traced benchmark run.

The tracer replaces public functions at the names their callers look up
(``vdarg.frameworks.derive_arguments``, ``vdarg.cli.load_agent``...) with
wrappers that record a span (name, start, end, parent, op id) and counts
taken from the return value.  Nothing under ``src/`` changes.  A name the
program no longer has is skipped, and its metrics then read zero.
"""

from __future__ import annotations

import gzip
import json
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import vdarg.cli
import vdarg.core
import vdarg.explain
import vdarg.frameworks
import vdarg.semantics
from vdarg.errors import ResourceCapError


def _count_rules(build):
    return {"frameworks.rules": len(build.framework.rules)}


def _count_arguments(arguments):
    return {"aba.arguments": len(arguments)}


def _count_attacks(attacks):
    return {"aba.attacks": len(attacks)}


def _count_extensions(extensions):
    return {"semantics.extensions": len(extensions)}


def _one(key):
    return lambda _result: {key: 1}


# (module, attribute, span name, counts from the return value).  Each
# function is wrapped at every module that imports it by name.
WRAPPED = (
    (vdarg.frameworks, "analyze_practical", "frameworks.pipeline", None),
    (vdarg.frameworks, "analyze_epistemic", "frameworks.pipeline", None),
    (vdarg.cli, "analyze_practical", "frameworks.pipeline", None),
    (vdarg.cli, "analyze_epistemic", "frameworks.pipeline", None),
    (vdarg.frameworks, "practical_framework", "frameworks.compile", _count_rules),
    (vdarg.frameworks, "epistemic_framework", "frameworks.compile", _count_rules),
    (vdarg.cli, "epistemic_framework", "frameworks.compile", _count_rules),
    (vdarg.frameworks, "derive_arguments", "aba.derive", _count_arguments),
    (vdarg.cli, "derive_arguments", "aba.derive", _count_arguments),
    (vdarg.frameworks, "compute_attacks", "aba.attacks", _count_attacks),
    (vdarg.cli, "compute_attacks", "aba.attacks", _count_attacks),
    (vdarg.frameworks, "acceptance_status", "semantics.status", None),
    (vdarg.cli, "acceptance_status", "semantics.status", None),
    (vdarg.semantics, "extensions_for", "semantics.extensions", _count_extensions),
    (vdarg.cli, "extensions_for", "semantics.extensions", _count_extensions),
    (vdarg.core, "prefers", "core.prefers", _one("core.prefers_calls")),
    (vdarg.core, "solution_report", "core.solution_report", None),
    (vdarg.explain, "explain_all_actions", "explain.explain", None),
    (vdarg.explain, "explain_action", "explain.explain", _one("explain.calls")),
    (vdarg.explain, "explain_situation", "explain.explain", _one("explain.calls")),
    (vdarg.cli, "explain_action", "explain.explain", _one("explain.calls")),
    (vdarg.cli, "explain_situation", "explain.explain", _one("explain.calls")),
    (vdarg.explain, "render_text", "explain.render", None),
    (vdarg.cli, "load_agent", "agentfile.parse", _one("agentfile.calls")),
    (vdarg.cli, "main", "cli.main", None),
)

# Per-layer time metric -> the spans whose self time it sums.
TIME_METRICS = {
    "semantics.extensions_ms": ("semantics.extensions",),
    "core.preference_ms": ("core.prefers", "core.solution_report"),
    "frameworks.compile_ms": ("frameworks.compile",),
    "aba.derive_ms": ("aba.derive",),
    "aba.attacks_ms": ("aba.attacks",),
    "semantics.status_ms": ("semantics.status",),
    "frameworks.pipeline_ms": ("frameworks.pipeline",),
    "explain.explain_ms": ("explain.explain",),
    "explain.render_ms": ("explain.render",),
    "agentfile.parse_ms": ("agentfile.parse",),
    "cli.render_ms": ("cli.main",),
}

COUNT_METRICS = (
    "semantics.extensions",
    "semantics.cap_hits",
    "core.prefers_calls",
    "frameworks.rules",
    "aba.arguments",
    "aba.attacks",
    "explain.calls",
    "agentfile.calls",
)


class _Patches:
    """Installs wrappers on enter and restores the originals on exit."""

    def __init__(self, make_wrapper, table):
        self._make = make_wrapper
        self._table = table
        self._saved = []

    def __enter__(self):
        for module, attr, name, counter in self._table:
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._make(original, name, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


class Tracer:
    """Span recorder; spans stay in memory until ``write``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one stage of an op."""
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.op)

    def _wrapper(self, original, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except ResourceCapError:
                if name == "semantics.extensions":
                    tracer.counts["semantics.cap_hits"] += 1
                raise
            finally:
                tracer._close(index, name, start)
            if counter is not None:
                tracer.counts.update(counter(result))
            return result

        traced.__wrapped__ = original
        return traced

    def installed(self):
        return _Patches(self._wrapper, WRAPPED)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[index]
        return out

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op means: milliseconds of self time per layer, and counts."""
        self_time = self.self_times()
        metrics = {
            metric: sum(self_time.get(n, 0.0) for n in names) * 1e3 / ops
            for metric, names in TIME_METRICS.items()
        }
        metrics.update({key: self.counts.get(key, 0) / ops for key in COUNT_METRICS})
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


class DerivePeak:
    """Peak traced memory of each ``derive_arguments`` call, in MiB.

    tracemalloc runs only inside the wrapped calls, so the other layers keep
    their speed and allocations made before the call are not counted.
    """

    TABLE = tuple(row for row in WRAPPED if row[2] == "aba.derive")

    def __init__(self):
        self.peak_mib = 0.0

    def _wrapper(self, original, name, counter):
        probe = self

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                probe.peak_mib = max(probe.peak_mib, peak / 2**20)

        measured.__wrapped__ = original
        return measured

    def installed(self):
        return _Patches(self._wrapper, self.TABLE)
