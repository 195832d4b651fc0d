"""The benchmark's three workloads: inputs from a seed, one pass, output checks.

Each workload has a ``setup(lib, seed, workdir)`` that builds its inputs
and a ``run_pass(lib, inputs, ctx)`` that performs one pass of operations
through ``ctx.op``.  The seed picks a rigid rotation of every input
configuration; the library receives only the generated inputs.  Why each
workload exists is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

MODULES = ("core", "rational", "equilibria", "quadrature", "correlation", "cli")

# refine_equilibrium target on the equilibria workload
REFINE_TOL = 1e-12
EQUILIBRIA_N = (2, 3, 4, 5, 6)
# chain indices that fail today (ROADMAP item 4); kept so the failure shows
PROBE_N = (7, 8)


def import_library() -> SimpleNamespace:
    """Import ``vortexcorr`` afresh and return its layer modules."""
    for name in [m for m in sys.modules if m == "vortexcorr" or m.startswith("vortexcorr.")]:
        del sys.modules[name]
    importlib.import_module("vortexcorr")
    return SimpleNamespace(
        **{m: importlib.import_module(f"vortexcorr.{m}") for m in MODULES}
    )


@dataclass
class Op:
    """Outcome of one operation: failed checks, exception class, fingerprint."""

    label: str
    probe: bool = False
    failures: list[str] = field(default_factory=list)
    error_class: str | None = None
    error: str | None = None
    fingerprint: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.failures) or self.error_class is not None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def record(self, **values) -> None:
        self.fingerprint.update(values)


class PassContext:
    """Collects one pass's operations, stage times and error bars."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list[Op] = []
        self.stages: dict[str, float] = {}
        self.error_bar: float | None = None

    def span(self, name: str):
        return self.tracer.span(name)

    def count(self, key: str, n: int) -> None:
        self.tracer.count(key, n)

    def note_error_bar(self, value: float) -> None:
        self.error_bar = value if self.error_bar is None else max(self.error_bar, value)

    @contextlib.contextmanager
    def op(self, label: str, stage: str | None = None, probe: bool = False):
        """Run one operation; an exception marks it failed and is recorded."""
        rec = Op(label, probe)
        t0 = time.perf_counter()
        try:
            yield rec
        except Exception as exc:  # the benchmark keeps running and reports it
            rec.error_class = type(exc).__name__
            rec.error = traceback.format_exc(limit=-3)
            rec.record(error_class=rec.error_class)
        finally:
            if stage is not None:
                self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - t0
            self.ops.append(rec)


def _rotated(lib, config, rng: random.Random):
    angle = 2.0 * math.pi * rng.random()
    return lib.core.transform(config, lib.core.Similarity(rotation=angle))


def _check_limit(op: Op, ctx: PassContext, report) -> None:
    limit = report.extrapolated_limit
    err = report.extrapolation_error
    ctx.note_error_bar(err)
    op.check(abs(limit) <= err, f"|limit| {abs(limit):.3e} exceeds its error {err:.3e}")
    op.check(
        all(e.converged for e in report.estimates), "an A_eps estimate did not converge"
    )
    op.record(
        limit=limit,
        error=err,
        values=[e.value for e in report.estimates],
        cells=[e.cells_used for e in report.estimates],
        fit_degenerate=report.fit_degenerate,
    )


def _limit_op(lib, ctx: PassContext, label: str, config) -> None:
    corr = lib.correlation
    with ctx.op(label, stage="limit") as op:
        eps = corr.default_epsilon_list(config)
        spec = corr.default_quadrature_spec(config)
        with ctx.span("correlation.correlation_limit"):
            report = corr.correlation_limit(config, eps, spec)
        _check_limit(op, ctx, report)


def _config_file(config, label: str) -> str:
    return json.dumps(
        {
            "vortices": [
                {"x": v.position.real, "y": v.position.imag, "d": v.circulation}
                for v in config.vortices
            ],
            "label": label,
        }
    )


def _cli(lib, ctx: PassContext, command: str, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with ctx.span(f"cli.main.{command}"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main([command, *argv])
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- corr-small


def setup_corr_small(lib, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    core, eq = lib.core, lib.equilibria
    collinear = _rotated(lib, eq.collinear_triple(), rng)
    cube = _rotated(lib, eq.config_from_adler_moser(eq.adler_moser_chain(2, [-1.0])), rng)
    moved = core.VortexConfiguration.from_pairs(
        [(-1.0, 1.0), (0.05j, -0.5), (1.0, 1.0)]
    )
    nonequilibrium = _rotated(lib, moved, rng)
    pair_q = cmath.exp(2j * math.pi * rng.random())
    config_path = workdir / "collinear.json"
    config_path.write_text(_config_file(collinear, "collinear"), encoding="utf-8")
    return {
        "collinear": collinear,
        "cube_roots": cube,
        "nonequilibrium": nonequilibrium,
        "pair": (0j, pair_q),
        "pair_spec": lib.quadrature.QuadratureSpec(
            epsilon=0.1, cutoff_radius=100.0, target_abs_error=1e-6
        ),
        "config_path": str(config_path),
        "manifest_path": str(workdir / "collinear-manifest.json"),
    }


def pass_corr_small(lib, inputs: dict, ctx: PassContext) -> None:
    corr = lib.correlation
    _limit_op(lib, ctx, "limit.collinear", inputs["collinear"])
    _limit_op(lib, ctx, "limit.cube_roots", inputs["cube_roots"])

    with ctx.op("pair_integral") as op:
        p, q = inputs["pair"]
        with ctx.span("correlation.pair_integral"):
            res = corr.pair_integral(p, q, 0.1, inputs["pair_spec"])
        op.check(
            res.value <= res.abs_error_estimate,
            f"pair value {res.value:.3e} exceeds its error {res.abs_error_estimate:.3e}",
        )
        op.check(res.converged, "pair integral did not converge")
        op.record(value=res.value, error=res.abs_error_estimate, cells=res.cells_used)

    with ctx.op("A_eps.nonequilibrium") as op:
        config = inputs["nonequilibrium"]
        spec = corr.default_quadrature_spec(config)
        res = corr.correlation_A_eps(config, spec)
        op.check(res.converged, "non-equilibrium A_eps did not converge")
        op.check(math.isfinite(res.value), "non-equilibrium A_eps is not finite")
        op.record(value=res.value, error=res.abs_error_estimate, cells=res.cells_used)

    with ctx.op("cli.correlation+replay") as op:
        manifest = inputs["manifest_path"]
        code, out, _ = _cli(
            lib, ctx, "correlation", [inputs["config_path"], "--manifest", manifest]
        )
        op.check(code == 0, f"correlation exited {code}")
        payload = json.loads(out)
        limit, err = payload["extrapolated_limit"], payload["extrapolation_error"]
        ctx.note_error_bar(err)
        op.check(abs(limit) <= err, f"CLI |limit| {abs(limit):.3e} exceeds its error {err:.3e}")
        op.check(not payload["budget_exhausted"], "CLI reports an exhausted budget")
        op.record(limit=limit, error=err, cells=[e["cells_used"] for e in payload["estimates"]])

        code, _, err_text = _cli(lib, ctx, "replay", [manifest])
        op.check(code == 0, f"replay exited {code}")
        op.check("reproduce bit-exactly" in err_text, "replay did not report a bit-exact match")


# ------------------------------------------------------------------- corr-am


def setup_corr_am(lib, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    eq = lib.equilibria
    chain = eq.adler_moser_chain(3, [1.0, 1.0])
    return {"adler_moser_3": _rotated(lib, eq.config_from_adler_moser(chain), rng)}


def pass_corr_am(lib, inputs: dict, ctx: PassContext) -> None:
    _limit_op(lib, ctx, "limit.adler_moser_3", inputs["adler_moser_3"])


# ---------------------------------------------------------------- equilibria


def setup_equilibria(lib, seed: int, workdir: Path) -> dict:
    # The perturbation pattern is fixed and the seed only rotates it with
    # the configuration.  Seeded directions made n=6 take either 5 or 35
    # Newton iterations, so the work itself changed from seed to seed.
    pattern = random.Random(0)
    turn = cmath.exp(2j * math.pi * random.Random(seed).random())
    # one unit direction per vortex; Adler-Moser index n has n^2 vortices
    return {
        "turn": turn,
        "directions": {
            n: [cmath.exp(2j * math.pi * pattern.random()) for _ in range(n * n)]
            for n in EQUILIBRIA_N
        },
    }


def pass_equilibria(lib, inputs: dict, ctx: PassContext) -> None:
    eq, core = lib.equilibria, lib.core
    for n in EQUILIBRIA_N:
        with ctx.op(f"equilibrium.n{n}", stage="equilibrium") as op:
            with ctx.span("equilibria.adler_moser_chain"):
                chain = eq.adler_moser_chain(n, [1.0] * (n - 1))
            with ctx.span("equilibria.config_from_adler_moser"):
                config = eq.config_from_adler_moser(chain)
            step = 1e-3 * config.min_separation
            turn = inputs["turn"]
            perturbed = core.VortexConfiguration.from_pairs(
                (turn * (v.position + step * u), v.circulation)
                for v, u in zip(config.vortices, inputs["directions"][n])
            )
            settings = eq.NewtonSettings(tolerance=REFINE_TOL)
            with ctx.span("equilibria.refine_equilibrium"):
                result = eq.refine_equilibrium(perturbed, range(len(perturbed)), settings)
            ctx.count("equilibria.newton_iterations", result.iterations)
            op.check(result.converged, f"refinement did not converge: {result.message}")
            op.check(
                result.residual <= REFINE_TOL,
                f"residual {result.residual:.3e} above {REFINE_TOL:.0e}",
            )
            op.record(
                vortices=len(config), iterations=result.iterations, residual=result.residual
            )
    for n in PROBE_N:
        with ctx.op(f"probe.n{n}", probe=True) as op:
            with ctx.span("equilibria.adler_moser_chain"):
                chain = eq.adler_moser_chain(n, [1.0] * (n - 1))
            with ctx.span("equilibria.config_from_adler_moser"):
                config = eq.config_from_adler_moser(chain)
            op.record(vortices=len(config), residual=core.residual(config))


WORKLOADS = {
    "corr-small": (setup_corr_small, pass_corr_small),
    "corr-am": (setup_corr_am, pass_corr_am),
    "equilibria": (setup_equilibria, pass_equilibria),
}
