"""Command-line interface: JSON vortex files in, JSON/CSV reports out.

A configuration file is a flat JSON document::

    {"vortices": [{"x": -1.0, "y": 0.0, "d": 1.0}, ...], "label": "optional"}

Reports go to standard output as a single JSON document (CSV on request
for the correlation command); diagnostics go to standard error.  Exit
codes are stable: 0 success, 2 usage or parse error, 3 invariant
violation, 4 numeric non-convergence or exhausted budget, 5 degenerate
construction.  ``--manifest PATH`` records the command, its parameters,
and the results; the ``replay`` command re-runs a manifest and verifies
the results reproduce bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .core import (
    ConfigurationError,
    VortexConfiguration,
    energy,
    forces,
    residual,
)
from .correlation import (
    correlation_A_eps,
    correlation_limit,
    default_epsilon_list,
    moebius_params,
    pair_integral,
)
from .equilibria import (
    DegenerateParametersError,
    NewtonSettings,
    adler_moser_chain,
    config_from_adler_moser,
    refine_equilibrium,
)
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_NONCONVERGENCE = 4
EXIT_DEGENERATE = 5

_TOOL_VERSION = f"vortexcorr {__version__}"
_CONVENTION_NOTE = (
    "ordered-pair convention: the energy sums over ordered pairs j != k, "
    "counting each unordered pair twice"
)


class CliFailure(Exception):
    """Command failure with a dedicated exit code and a stderr message."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive number (got {text!r})")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer (got {text!r})")
    return value


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _load_json(path: str) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliFailure(EXIT_USAGE, f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliFailure(EXIT_USAGE, f"{path} is not valid JSON: {exc}") from exc


def _config_from_payload(data: object, origin: str) -> tuple[VortexConfiguration, str | None]:
    if not isinstance(data, dict) or "vortices" not in data:
        raise CliFailure(EXIT_USAGE, f"{origin}: expected an object with a 'vortices' list")
    rows = data["vortices"]
    if not isinstance(rows, list):
        raise CliFailure(EXIT_USAGE, f"{origin}: 'vortices' must be a list")
    triples = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not {"x", "y", "d"} <= set(row):
            raise CliFailure(
                EXIT_USAGE, f"{origin}: vortex {i} must be an object with keys x, y, d"
            )
        try:
            triples.append((float(row["x"]), float(row["y"]), float(row["d"])))
        except (TypeError, ValueError) as exc:
            raise CliFailure(
                EXIT_USAGE, f"{origin}: vortex {i} has a non-numeric field ({exc})"
            ) from exc
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise CliFailure(EXIT_USAGE, f"{origin}: 'label' must be a string")
    try:
        config = VortexConfiguration.from_coordinates(triples)
    except ConfigurationError as exc:
        raise CliFailure(EXIT_INVARIANT, f"{origin}: {exc}") from exc
    return config, label


def _load_config(path: str) -> tuple[VortexConfiguration, str | None]:
    return _config_from_payload(_load_json(path), path)


def _config_payload(config: VortexConfiguration, label: str | None = None) -> dict:
    payload: dict = {
        "vortices": [
            {"x": v.position.real, "y": v.position.imag, "d": v.circulation}
            for v in config.vortices
        ]
    }
    if label is not None:
        payload["label"] = label
    return payload


def _write_config(path: str, config: VortexConfiguration, label: str | None) -> None:
    try:
        Path(path).write_text(
            json.dumps(_config_payload(config, label), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        raise CliFailure(EXIT_USAGE, f"cannot write {path}: {exc}") from exc


def _parse_plane_point(text: str, flag: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise CliFailure(EXIT_USAGE, f"{flag} expects 'x' or 'x,y' (got {text!r})")


def _parse_eps_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliFailure(EXIT_USAGE, f"--eps-list expects comma-separated numbers: {exc}")
    if len(values) < 2:
        raise CliFailure(EXIT_USAGE, "--eps-list needs at least two values")
    for a, b in zip(values, values[1:]):
        if not b < a:
            raise CliFailure(EXIT_USAGE, "--eps-list must be strictly decreasing")
    if values[-1] <= 0.0:
        raise CliFailure(EXIT_USAGE, "--eps-list values must be positive")
    return values


def _estimate_payload(epsilon: float, est) -> dict:
    return {
        "epsilon": epsilon,
        "value": est.value,
        "abs_error_estimate": est.abs_error_estimate,
        "tail_correction": est.tail_correction,
        "cells_used": est.cells_used,
        "converged": est.converged,
    }


def cmd_energy(params: dict) -> tuple[dict, int]:
    config, label = _load_config(params["config_path"])
    payload = {"W": energy(config), "convention": _CONVENTION_NOTE}
    if label is not None:
        payload["label"] = label
    return payload, EXIT_OK


def cmd_check(params: dict) -> tuple[dict, int]:
    config, label = _load_config(params["config_path"])
    tol = params["tol"]
    if not tol > 0.0:
        raise CliFailure(EXIT_USAGE, "--tol must be > 0")
    f = forces(config)
    res = max(abs(x) for x in f)
    payload = {
        "residual": res,
        "is_equilibrium": res <= tol,
        "tol": tol,
        "forces": [_complex_dict(x) for x in f],
    }
    if label is not None:
        payload["label"] = label
    return payload, EXIT_OK


def cmd_correlation(params: dict) -> tuple[dict, int]:
    config, label = _load_config(params["config_path"])
    eps_values = (
        _parse_eps_list(params["eps_list"])
        if params.get("eps_list")
        else default_epsilon_list(config)
    )
    radius = params.get("radius") or 50.0 * (1.0 + config.diameter)
    spec = QuadratureSpec(
        epsilon=eps_values[0],
        cutoff_radius=radius,
        target_abs_error=params["target_error"],
        max_cells=params["max_cells"],
    )
    res = residual(config)
    allow = bool(params.get("allow_nonequilibrium"))
    payload: dict = {
        "residual": res,
        "epsilons": list(eps_values),
        "cutoff_radius": radius,
        "target_abs_error": spec.target_abs_error,
    }
    if label is not None:
        payload["label"] = label

    try:
        if res > 1e-6:
            if not allow:
                raise CliFailure(
                    EXIT_INVARIANT,
                    f"configuration is not an equilibrium (residual {res:.6e} > 1e-06); "
                    "pass --allow-nonequilibrium for truncated estimates only",
                )
            estimates = [
                correlation_A_eps(config, replace(spec, epsilon=e)) for e in eps_values
            ]
            payload["estimates"] = [
                _estimate_payload(e, est) for e, est in zip(eps_values, estimates)
            ]
            payload["extrapolated_limit"] = None
            payload["extrapolation_error"] = None
            payload["fit_degenerate"] = None
            payload["note"] = (
                "extrapolation suppressed: the input is not an equilibrium, so "
                "only truncated finite-(eps, R) values are reported"
            )
            converged_all = all(est.converged for est in estimates)
        else:
            report = correlation_limit(config, eps_values, spec)
            payload["estimates"] = [
                _estimate_payload(e, est)
                for e, est in zip(report.epsilons, report.estimates)
            ]
            payload["extrapolated_limit"] = report.extrapolated_limit
            payload["extrapolation_error"] = report.extrapolation_error
            payload["fit_degenerate"] = report.fit_degenerate
            converged_all = all(est.converged for est in report.estimates)
    except ValueError as exc:
        raise CliFailure(EXIT_USAGE, str(exc)) from exc

    payload["budget_exhausted"] = not converged_all
    return payload, (EXIT_OK if converged_all else EXIT_NONCONVERGENCE)


def cmd_pair_integral(params: dict) -> tuple[dict, int]:
    p = _parse_plane_point(params["p"], "--p")
    q = _parse_plane_point(params["q"], "--q")
    eps = params["eps"]
    sep = abs(p - q)
    if not eps < 0.5 * sep:
        raise CliFailure(
            EXIT_USAGE,
            f"--eps must be below half the separation |p-q|/2 = {0.5 * sep} (got {eps})",
        )
    radius = params.get("radius") or 50.0 * (1.0 + sep)
    spec = QuadratureSpec(
        epsilon=eps,
        cutoff_radius=radius,
        target_abs_error=params["target_error"],
        max_cells=params["max_cells"],
    )
    try:
        result = pair_integral(p, q, eps, spec)
        mp = moebius_params(eps / sep)
    except ValueError as exc:
        raise CliFailure(EXIT_USAGE, str(exc)) from exc
    payload = {
        "p": _complex_dict(p),
        "q": _complex_dict(q),
        "epsilon": eps,
        "value": result.value,
        "abs_error_estimate": result.abs_error_estimate,
        "tail_correction": result.tail_correction,
        "cells_used": result.cells_used,
        "converged": result.converged,
        "moebius": {
            "epsilon": mp.epsilon,
            "a": mp.a,
            "b": mp.b,
            "R1": mp.r1,
            "R2": mp.r2,
        },
    }
    return payload, (EXIT_OK if result.converged else EXIT_NONCONVERGENCE)


def cmd_adler_moser(params: dict) -> tuple[dict, int]:
    n = params["n"]
    taus: list[complex] = []
    if params.get("tau_list"):
        for tok in str(params["tau_list"]).split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                taus.append(complex(tok))
            except ValueError as exc:
                raise CliFailure(
                    EXIT_USAGE, f"--tau-list entry {tok!r} is not a complex number"
                ) from exc
    try:
        chain = adler_moser_chain(n, taus)
    except ValueError as exc:
        raise CliFailure(EXIT_USAGE, str(exc)) from exc
    try:
        config = config_from_adler_moser(chain)
    except DegenerateParametersError as exc:
        raise CliFailure(
            EXIT_DEGENERATE, f"{exc}; try perturbing the tau parameters"
        ) from exc

    residual_before = residual(config)
    payload: dict = {
        "n": n,
        "taus": [_complex_dict(t) for t in taus],
        "degrees": [p.degree for p in chain.polynomials],
        "residual_before_refinement": residual_before,
        "refined": bool(params.get("refine")),
    }
    exit_code = EXIT_OK
    if params.get("refine"):
        settings = NewtonSettings(tolerance=params["tol"], max_iterations=params["max_iter"])
        outcome = refine_equilibrium(config, range(len(config)), settings)
        config = outcome.configuration
        payload["residual"] = outcome.residual
        payload["iterations"] = outcome.iterations
        payload["converged"] = outcome.converged
        if not outcome.converged:
            exit_code = EXIT_NONCONVERGENCE
    else:
        payload["residual"] = residual_before
    payload["configuration"] = _config_payload(config)
    if params.get("out"):
        _write_config(params["out"], config, f"adler-moser n={n}")
    return payload, exit_code


def cmd_refine(params: dict) -> tuple[dict, int]:
    config, label = _load_config(params["config_path"])
    free_text = str(params["free"]).strip().lower()
    if free_text == "all":
        free = list(range(len(config)))
    else:
        try:
            free = [int(tok) for tok in free_text.split(",") if tok.strip()]
        except ValueError as exc:
            raise CliFailure(
                EXIT_USAGE, f"--free expects 'all' or comma-separated indices: {exc}"
            ) from exc
    settings = NewtonSettings(tolerance=params["tol"], max_iterations=params["max_iter"])
    try:
        outcome = refine_equilibrium(config, free, settings)
    except (ValueError, IndexError) as exc:
        raise CliFailure(EXIT_USAGE, str(exc)) from exc
    payload = {
        "residual_before": residual(config),
        "residual": outcome.residual,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "message": outcome.message,
        "configuration": _config_payload(outcome.configuration, label),
    }
    if label is not None:
        payload["label"] = label
    if params.get("out"):
        _write_config(params["out"], outcome.configuration, label)
    return payload, (EXIT_OK if outcome.converged else EXIT_NONCONVERGENCE)


HANDLERS = {
    "energy": cmd_energy,
    "check": cmd_check,
    "correlation": cmd_correlation,
    "pair-integral": cmd_pair_integral,
    "adler-moser": cmd_adler_moser,
    "refine": cmd_refine,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexcorr",
        description="Point-vortex equilibria and their correlation coefficient.",
    )
    parser.add_argument("--version", action="version", version=_TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_manifest(p: argparse.ArgumentParser) -> None:
        p.add_argument("--manifest", help="write a reproducible run manifest to this path")

    p = sub.add_parser("energy", help="logarithmic pair energy of a configuration")
    p.add_argument("config_path")
    with_manifest(p)

    p = sub.add_parser("check", help="forces, residual, and equilibrium test")
    p.add_argument("config_path")
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    with_manifest(p)

    p = sub.add_parser("correlation", help="A_eps estimates and the extrapolated limit")
    p.add_argument("config_path")
    p.add_argument("--eps-list", help="comma-separated, strictly decreasing excision radii")
    p.add_argument("--radius", type=_positive_float, help="truncation radius R")
    p.add_argument("--target-error", type=_positive_float, default=1e-5)
    p.add_argument("--max-cells", type=_positive_int, default=2_000_000)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--allow-nonequilibrium",
        action="store_true",
        help="report truncated values for a non-equilibrium input (no extrapolation)",
    )
    with_manifest(p)

    p = sub.add_parser("pair-integral", help="two-disk pair integral and its annulus map")
    p.add_argument("--p", required=True, help="first point as 'x,y'")
    p.add_argument("--q", required=True, help="second point as 'x,y'")
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--target-error", type=_positive_float, default=1e-6)
    p.add_argument("--radius", type=_positive_float)
    p.add_argument("--max-cells", type=_positive_int, default=2_000_000)
    with_manifest(p)

    p = sub.add_parser("adler-moser", help="equilibrium from a polynomial chain")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--tau-list", help="comma-separated complex parameters tau_2..tau_n")
    p.add_argument("--refine", action="store_true", help="Newton-refine the construction")
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p.add_argument("--max-iter", type=_positive_int, default=50)
    p.add_argument("--out", help="write the configuration file here")
    with_manifest(p)

    p = sub.add_parser("refine", help="Newton-refine a configuration towards equilibrium")
    p.add_argument("config_path")
    p.add_argument("--free", default="all", help="'all' or comma-separated vortex indices")
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p.add_argument("--max-iter", type=_positive_int, default=50)
    p.add_argument("--out", help="write the refined configuration file here")
    with_manifest(p)

    p = sub.add_parser("replay", help="re-run a manifest and verify bit-exact results")
    p.add_argument("manifest_path")

    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    skip = {"command", "manifest", "format"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_csv(payload: dict) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["epsilon", "value", "abs_error_estimate", "tail_correction", "cells_used", "converged"]
    )
    for row in payload.get("estimates", []):
        writer.writerow(
            [
                repr(row["epsilon"]),
                repr(row["value"]),
                repr(row["abs_error_estimate"]),
                repr(row["tail_correction"]),
                row["cells_used"],
                row["converged"],
            ]
        )
    sys.stdout.write(buffer.getvalue())


def _write_manifest(path: str, command: str, params: dict, payload: dict) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "tool_version": _TOOL_VERSION,
        "results": payload,
    }
    try:
        Path(path).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise CliFailure(EXIT_USAGE, f"cannot write manifest {path}: {exc}") from exc


def _run_replay(manifest_path: str) -> int:
    data = _load_json(manifest_path)
    if not isinstance(data, dict) or "command" not in data or "parameters" not in data:
        raise CliFailure(EXIT_USAGE, f"{manifest_path} is not a run manifest")
    command = data["command"]
    if command not in HANDLERS:
        raise CliFailure(EXIT_USAGE, f"manifest names unknown command {command!r}")
    payload, code = HANDLERS[command](dict(data["parameters"]))
    _emit_json(payload)
    recorded = json.dumps(data.get("results"), sort_keys=True)
    fresh = json.dumps(payload, sort_keys=True)
    if recorded == fresh:
        print("replay: results reproduce bit-exactly", file=sys.stderr)
        return code
    print("replay: results DIFFER from the manifest", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        if args.command == "replay":
            return _run_replay(args.manifest_path)
        params = _params_from_args(args)
        payload, code = HANDLERS[args.command](params)
        if args.command == "correlation" and args.format == "csv":
            _emit_csv(payload)
        else:
            _emit_json(payload)
        if getattr(args, "manifest", None):
            _write_manifest(args.manifest, args.command, params, payload)
        return code
    except CliFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.exit_code


def run() -> None:
    raise SystemExit(main())
