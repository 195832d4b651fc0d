"""In-memory spans around the library's layer boundaries, recorded from outside.

The tracer replaces a boundary name in the module where its caller looks it
up (``vortexcorr.correlation.integrand_values`` is the name
``correlation_A_eps`` calls), so no library file changes.  The benchmark's
own calls into the public API are recorded with :meth:`Tracer.span`.

Spans are kept in flat arrays (name, parent, start, end) and written out
once, at the end of the run.  A layer's self time is the duration of its
spans minus the part covered by their direct child spans.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

_NULL = nullcontext()


def _count_quadrature(counts: Counter, args: tuple, result) -> None:
    # integrate_excised_disk returns (value, error, cells_used, converged)
    counts["quadrature.cells"] += int(result[2])
    counts["quadrature.converged"] += bool(result[3])


def _count_points(counts: Counter, args: tuple, result) -> None:
    # integrand_values(config, zs)
    counts["rational.integrand_points"] += int(np.size(args[1]))


# (module, name looked up by the caller, span name, count hook)
BOUNDARIES = (
    ("vortexcorr.correlation", "correlation_A_eps", "correlation.correlation_A_eps", None),
    ("vortexcorr.correlation", "integrate_excised_disk", "quadrature.integrate_excised_disk", _count_quadrature),
    ("vortexcorr.correlation", "integrand_values", "rational.integrand_values", _count_points),
    ("vortexcorr.equilibria", "roots", "equilibria.roots", None),
    ("vortexcorr.equilibria", "forces", "core.forces", None),
    ("vortexcorr.equilibria", "residual", "core.residual", None),
    ("vortexcorr.cli", "correlation_limit", "correlation.correlation_limit", None),
)

# Per-layer metrics that a wrapped boundary feeds; when the boundary name is
# gone from the library, these are reported as absent rather than wrong.
DEPENDS_ON = {
    "correlation.correlation_A_eps": (
        "correlation.A_eps_calls", "correlation.A_eps_s", "correlation.self_s",
    ),
    "quadrature.integrate_excised_disk": (
        "quadrature.cells", "quadrature.self_s", "quadrature.us_per_cell",
        "quadrature.converged_ratio", "correlation.self_s",
    ),
    "rational.integrand_values": (
        "rational.integrand_calls", "rational.integrand_points", "rational.integrand_s",
        "rational.ns_per_point", "quadrature.self_s",
    ),
    "equilibria.roots": ("equilibria.roots_calls", "equilibria.roots_s"),
    "core.forces": ("core.forces_calls", "core.forces_s", "equilibria.refine_self_s"),
    "core.residual": ("core.residual_calls", "core.residual_s", "equilibria.refine_self_s"),
    "correlation.correlation_limit": ("cli.self_s",),
}


class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: "Tracer", name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self) -> "_Span":
        self.index = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._close(self.index)
        return False


class Tracer:
    """Records spans and boundary counts while it is installed and active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.absent: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self.passes: list[tuple[int, int, Counter]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(float("nan"))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span; a no-op while inactive."""
        if not self.active:
            return _NULL
        return _Span(self, self._id(name))

    def count(self, key: str, n: int = 1) -> None:
        if self.active:
            self.counts[key] += n

    def _wrapper(self, fn, name: str, hook):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Swap every boundary name for its traced wrapper."""
        for module_name, attr, name, hook in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, hook))
        self.active = True

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self.active = False

    def traced_pass(self, run_pass) -> None:
        """Run one pass with the boundaries wrapped."""
        self.install()
        first = len(self.start)
        self.counts = Counter()
        try:
            with self.span("bench.pass"):
                run_pass()
        finally:
            self.uninstall()
        self.passes.append((first, len(self.start), self.counts))

    def _totals(self, first: int, last: int) -> tuple[dict, dict, Counter]:
        """Per span name: summed duration, summed self time, and call count."""
        child = defaultdict(float)
        for i in range(first, last):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        dur: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        for i in range(first, last):
            name = self.names[self.name_id[i]]
            d = self.end[i] - self.start[i]
            dur[name] += d
            self_time[name] += d - child[i]
            calls[name] += 1
        return dur, self_time, calls

    def pass_metrics(self, index: int) -> dict:
        """Per-layer metrics of one traced pass."""
        first, last, counts = self.passes[index]
        dur, self_time, calls = self._totals(first, last)

        def layer_self(prefix: str) -> float:
            return sum((v for k, v in self_time.items() if k.startswith(prefix)), 0.0)

        quad = "quadrature.integrate_excised_disk"
        kern = "rational.integrand_values"
        refine = "equilibria.refine_equilibrium"
        cells = counts["quadrature.cells"]
        points = counts["rational.integrand_points"]
        iterations = counts["equilibria.newton_iterations"]
        m = {
            "quadrature.cells": cells,
            "quadrature.self_s": self_time[quad],
            "quadrature.us_per_cell": 1e6 * dur[quad] / cells if cells else 0.0,
            "quadrature.converged_ratio": (
                counts["quadrature.converged"] / calls[quad] if calls[quad] else 0.0
            ),
            "rational.integrand_calls": calls[kern],
            "rational.integrand_points": points,
            "rational.integrand_s": dur[kern],
            "rational.ns_per_point": 1e9 * dur[kern] / points if points else 0.0,
            "correlation.A_eps_calls": calls["correlation.correlation_A_eps"],
            "correlation.A_eps_s": dur["correlation.correlation_A_eps"],
            "correlation.self_s": layer_self("correlation."),
            "equilibria.chain_s": dur["equilibria.adler_moser_chain"],
            "equilibria.roots_calls": calls["equilibria.roots"],
            "equilibria.roots_s": dur["equilibria.roots"],
            "equilibria.refine_s": dur[refine],
            "equilibria.newton_iterations": iterations,
            "equilibria.refine_self_s": self_time[refine],
            "equilibria.us_per_newton_iter": (
                1e6 * dur[refine] / iterations if iterations else 0.0
            ),
            "core.forces_calls": calls["core.forces"],
            "core.forces_s": dur["core.forces"],
            "core.residual_calls": calls["core.residual"],
            "core.residual_s": dur["core.residual"],
            "cli.correlation_s": dur["cli.main.correlation"],
            "cli.replay_s": dur["cli.main.replay"],
            "cli.self_s": layer_self("cli."),
            "trace.traced_pass_s": dur["bench.pass"],
        }
        for name in self.absent:
            for metric in DEPENDS_ON.get(name, ()):
                m.pop(metric, None)
        return m

    def write(self, path: Path) -> None:
        """Write every recorded span as columns of one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "name": list(self.name_id),
            "parent": list(self.parent),
            "start_s": list(self.start),
            "end_s": list(self.end),
            "passes": [[first, last] for first, last, _ in self.passes],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc), encoding="utf-8")
        tmp.replace(path)


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes (counts are identical across passes)."""
    keys = set(per_pass[0]).intersection(*per_pass[1:])
    return {k: statistics.median(m[k] for m in per_pass) for k in sorted(keys)}
