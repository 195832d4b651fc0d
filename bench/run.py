"""vortexcorr benchmark runner.

    python3 bench/run.py --workload corr-am --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/``; there
is nothing to build.  One process, one thread: the BLAS/OpenMP pools are
pinned to a single thread before numpy is imported.

With ``--trace 0`` the run times whole passes of the workload and reports
the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` it
alternates untraced passes with passes whose layer boundaries are wrapped
(see ``spans.py``) and reports the per-layer metrics, including the
tracing overhead.  Every pass checks its outputs; a failed check counts as
a failed operation.  A human-readable report (environment, every metric
named in ``README.md``, failures) is printed before the last line, which
is the JSON result.  Run records, spans and the per-seed reference
fingerprints go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
BULK_POINTS = 65_536
BULK_REPEATS = 9

# every end-to-end metric named in README.md, with its unit, for the report
E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_cpu_s": "s",
    "limit_s": "s",
    "equilibrium_s": "s",
    "error_bar": "1",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# counts that must repeat exactly for a fixed seed, pass to pass and run to run
COUNT_METRICS = (
    "quadrature.cells",
    "rational.integrand_calls",
    "rational.integrand_points",
    "correlation.A_eps_calls",
    "equilibria.roots_calls",
    "equilibria.newton_iterations",
    "core.forces_calls",
    "core.residual_calls",
)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _source_digest(*dirs: Path) -> str:
    """SHA-256 over the Python sources of the given directories."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            h.update(f"{d.name}/{path.name}".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _environment(args: argparse.Namespace, digest: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "source_sha256": digest,
        "machine": platform.machine(),
    }


def _normalised(value):
    return json.loads(json.dumps(value, sort_keys=True))


def _bulk_ns_per_point(lib, config) -> float:
    """Median ns/point of one integrand_values call on 65,536 points clear of the poles."""
    rho = 1.0 + max(abs(a) for a in config.positions)
    side = int(round(BULK_POINTS**0.5))
    radii = np.linspace(1.5 * rho, 6.0 * rho, side)
    angles = np.linspace(0.0, 2.0 * np.pi, side, endpoint=False)
    zs = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    kernel = lib.rational.integrand_values
    kernel(config, zs)
    times = []
    for _ in range(BULK_REPEATS):
        t0 = time.perf_counter()
        kernel(config, zs)
        times.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(times) / zs.size


def _bulk_metrics(lib) -> dict:
    if not callable(getattr(lib.rational, "integrand_values", None)):
        return {}
    eq = lib.equilibria
    nine = eq.config_from_adler_moser(eq.adler_moser_chain(3, [1.0, 1.0]))
    return {
        "rational.ns_per_point_bulk": _bulk_ns_per_point(lib, nine),
        "rational.ns_per_point_bulk_n3": _bulk_ns_per_point(lib, eq.collinear_triple()),
    }


def _percentiles(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "mean": statistics.fmean(values),
           "median": statistics.median(values), "min": min(values), "max": max(values)}
    if len(values) >= 20:
        q = int(100 * (1 - 10 / len(values)))
        out[f"p{q}"] = float(np.percentile(values, q))
    return out


def _load_reference(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _save_reference(path: Path, ref: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ref, sort_keys=True), encoding="utf-8")
    tmp.replace(path)


def run(args: argparse.Namespace, spec: dict) -> tuple[dict, dict]:
    setup, run_pass = workloads.WORKLOADS[args.workload]
    # the reference fingerprints hold for one library and one benchmark source
    digest = _source_digest(ROOT / "src" / "vortexcorr", Path(__file__).resolve().parent)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        lib = workloads.import_library()
        inputs = setup(lib, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        return lib, inputs

    try:
        for _ in range(SETUP_REPEATS):
            lib, inputs = set_up()
        tracer = spans.Tracer()
        bulk = _bulk_metrics(lib) if args.trace else {}

        passes = []  # (traced, wall_s, cpu_s, PassContext)
        start = time.perf_counter()
        while True:
            # a set-up before every pass spreads its samples over the whole
            # run, so the machine's drifting speed affects it as it does pass_s
            lib, inputs = set_up()
            traced = bool(args.trace) and len(passes) % 2 == 1
            ctx = workloads.PassContext(tracer)
            t0, c0 = time.perf_counter(), time.process_time()
            if traced:
                tracer.traced_pass(lambda: run_pass(lib, inputs, ctx))
            else:
                run_pass(lib, inputs, ctx)
            passes.append((traced, time.perf_counter() - t0, time.process_time() - c0, ctx))
            if time.perf_counter() - start >= args.seconds and (
                not args.trace or len(passes) >= 2
            ):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # --- output checks: every operation, every pass, against one reference
    ref_path = OUT / "reference" / f"{args.workload}-seed{args.seed}-{digest[:16]}.json"
    reference = _load_reference(ref_path)
    expected = reference.get("outputs") or {
        op.label: _normalised(op.fingerprint) for op in passes[0][3].ops
    }
    attempted = failed = 0
    problems: list[str] = []
    probes: dict[str, str | None] = {}
    nondeterministic = False
    for index, (_, _, _, ctx) in enumerate(passes):
        for op in ctx.ops:
            attempted += 1
            if _normalised(op.fingerprint) != expected.get(op.label):
                op.failures.append("output differs from the same seed's reference")
                nondeterministic = True
            if op.probe:
                probes[op.label] = op.error_class
            if op.failed:
                failed += 1
                if not op.probe and len(problems) < 20:
                    detail = op.error or "; ".join(op.failures)
                    problems.append(f"pass {index} {op.label}: {op.error_class or ''} {detail}")
    correct = not problems and not nondeterministic
    reference["outputs"] = expected

    untraced = [p for p in passes if not p[0]]
    walls = [p[1] for p in untraced]
    cpus = [p[2] for p in untraced]

    def stage(name: str) -> float | None:
        vals = [p[3].stages[name] for p in untraced if name in p[3].stages]
        return statistics.fmean(vals) if vals else None

    error_bars = [p[3].error_bar for p in untraced if p[3].error_bar is not None]
    e2e = {
        "setup_s": statistics.median(setup_times),
        # means, not medians: the shared host's speed drifts within a run,
        # and the mean integrates the drift where a median jumps between
        # its fast and slow phases (see README.md, "Run-to-run spread")
        "pass_s": statistics.fmean(walls),
        "pass_cpu_s": statistics.fmean(cpus),
        "limit_s": stage("limit"),
        "equilibrium_s": stage("equilibrium"),
        "error_bar": max(error_bars) if error_bars else None,
        "failed_ratio": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    layer: dict = {}
    if args.trace:
        per_pass = [tracer.pass_metrics(i) for i in range(len(tracer.passes))]
        counts = [{k: m[k] for k in COUNT_METRICS if k in m} for m in per_pass]
        stored = reference.get("counts")
        if any(c != counts[0] for c in counts) or (stored is not None and stored != counts[0]):
            correct = False
            problems.append(f"deterministic counts differ: {counts[0]} vs {stored or counts}")
        reference["counts"] = stored or counts[0]
        layer = spans.median_metrics(per_pass)
        layer.update(counts[0])
        layer.update(bulk)
        # medians on both sides, as the traced pass times are
        layer["trace.untraced_pass_s"] = statistics.median(walls)
        layer["trace.overhead_ratio"] = (
            layer["trace.traced_pass_s"] / layer["trace.untraced_pass_s"]
        )
        for name in ("limit_s", "equilibrium_s", "error_bar", "failed_ratio"):
            # 0 where the workload has no such stage
            layer[name] = e2e[name] if e2e[name] is not None else 0.0
        tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.json")
    _save_reference(ref_path, reference)

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else e2e
    metrics = {
        m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
        for m in chosen
        if source.get(m["name"]) is not None
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "environment": _environment(args, digest),
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced)},
        "pass_s": _percentiles(walls),
        "pass_cpu_s": _percentiles(cpus),
        "pass_s_samples": walls,
        "pass_cpu_s_samples": cpus,
        "setup_s_samples": setup_times,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "probes": probes,
        "problems": problems,
        "absent_boundaries": sorted(tracer.absent),
        "missing_metrics": [m["name"] for m in chosen if m["name"] not in metrics],
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "vortexcorr" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'vortexcorr'}", file=sys.stderr)
        return 3
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(ROOT / "src"))

    report, result = run(args, spec)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"report": report, "result": result}, indent=1), encoding="utf-8")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
