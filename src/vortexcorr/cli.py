"""Command-line interface: JSON vortex files in, JSON/CSV reports out.

A configuration file is a flat JSON document::

    {"vortices": [{"x": -1.0, "y": 0.0, "d": 1.0}, ...], "label": "optional"}

Reports go to standard output as a single JSON document (CSV on request
for the correlation command); diagnostics go to standard error.  Exit
codes are stable: 0 success, 1 a replay whose results differ from its
manifest, 2 usage or parse error, 3 invariant violation, 4 numeric
non-convergence or exhausted budget, 5 degenerate construction.  One
table, ``_EXIT_CODES``, maps the library's exceptions to their codes for
every command.  ``--manifest PATH`` records the command, its parameters,
and the results; the ``replay`` command re-runs a manifest the way the
command line runs it and verifies the results reproduce bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace
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
    correlation_limit,
    default_epsilon_list,
    default_quadrature_spec,
    moebius_params,
    pair_integral,
)
from .equilibria import (
    DegenerateParametersError,
    NewtonSettings,
    RootConvergenceError,
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


# library failure -> exit code and a hint; the first match wins, since
# degenerate parameters and broken invariants are ValueErrors too.  A chain
# missing its accuracy gate raises ArithmeticError: numeric, not degenerate.
_EXIT_CODES = (
    (DegenerateParametersError, EXIT_DEGENERATE, "; try perturbing the tau parameters"),
    ((RootConvergenceError, ArithmeticError), EXIT_NONCONVERGENCE, ""),
    (ConfigurationError, EXIT_INVARIANT, ""),
    ((ValueError, IndexError), EXIT_USAGE, ""),
)


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


def _load_config(path: str) -> tuple[VortexConfiguration, str | None]:
    data = _load_json(path)
    if not isinstance(data, dict) or "vortices" not in data:
        raise CliFailure(EXIT_USAGE, f"{path}: expected an object with a 'vortices' list")
    rows = data["vortices"]
    if not isinstance(rows, list):
        raise CliFailure(EXIT_USAGE, f"{path}: 'vortices' must be a list")
    triples = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not {"x", "y", "d"} <= set(row):
            raise CliFailure(
                EXIT_USAGE, f"{path}: vortex {i} must be an object with keys x, y, d"
            )
        # JSON numbers only: float() would also take true and "0"
        values = [row[key] for key in "xyd"]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            message = f"vortex {i} has a non-numeric field {json.dumps(values)}"
            raise CliFailure(EXIT_USAGE, f"{path}: {message}")
        triples.append(tuple(float(v) for v in values))
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise CliFailure(EXIT_USAGE, f"{path}: 'label' must be a string")
    try:
        config = VortexConfiguration.from_coordinates(triples)
    except ConfigurationError as exc:
        raise CliFailure(EXIT_INVARIANT, f"{path}: {exc}") from exc
    return config, label


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


def _write_json(path: str, value: dict) -> None:
    try:
        Path(path).write_text(_dumps(value, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise CliFailure(EXIT_USAGE, f"cannot write {path}: {exc}") from exc


def _parse_list(text: str, flag: str, kind: type = float) -> list:
    """The comma-separated values of ``kind`` in ``text``; empty entries are skipped."""
    tokens = [tok.strip() for tok in str(text).split(",") if tok.strip()]
    try:
        return [kind(tok) for tok in tokens]
    except ValueError:
        message = f"{flag} expects comma-separated {kind.__name__} values (got {text!r})"
        raise ValueError(message) from None


def _plane_point(text: str, flag: str) -> complex:
    xy = _parse_list(text, flag)
    if len(xy) not in (1, 2) or not all(math.isfinite(c) for c in xy):
        raise ValueError(f"{flag} expects finite 'x' or 'x,y' (got {text!r})")
    return complex(*xy)


def cmd_energy(params: dict, config: VortexConfiguration, label: str | None) -> tuple[dict, int]:
    return {"W": energy(config), "convention": _CONVENTION_NOTE}, EXIT_OK


def cmd_check(params: dict, config: VortexConfiguration, label: str | None) -> tuple[dict, int]:
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
    return payload, EXIT_OK


def cmd_correlation(
    params: dict, config: VortexConfiguration, label: str | None
) -> tuple[dict, int]:
    eps_values = (
        _parse_list(params["eps_list"], "--eps-list")
        if params.get("eps_list")
        else default_epsilon_list(config)
    )
    report = correlation_limit(config, eps_values)
    converged_all = all(est.converged for est in report.estimates)
    payload = {
        "residual": residual(config),
        "epsilons": list(eps_values),
        "estimates": [
            {"epsilon": e, **asdict(est)} for e, est in zip(report.epsilons, report.estimates)
        ],
        "extrapolated_limit": report.extrapolated_limit,
        "extrapolation_error": report.extrapolation_error,
        "fit_degenerate": report.fit_degenerate,
        "budget_exhausted": not converged_all,
    }
    return payload, (EXIT_OK if converged_all else EXIT_NONCONVERGENCE)


def cmd_pair_integral(params: dict) -> tuple[dict, int]:
    p = _plane_point(params["p"], "--p")
    q = _plane_point(params["q"], "--q")
    eps = params["eps"]
    pair = VortexConfiguration.from_pairs([(p, 1.0), (q, 1.0)])
    spec = replace(
        default_quadrature_spec(pair),
        epsilon=eps,
        target_abs_error=params["target_error"],
        max_cells=params["max_cells"],
    )
    result = pair_integral(p, q, eps, spec)
    mp = moebius_params(eps / abs(p - q))
    payload = {
        "p": _complex_dict(p),
        "q": _complex_dict(q),
        "epsilon": eps,
        **asdict(result),
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
    taus = _parse_list(params.get("tau_list") or "", "--tau-list", complex)
    chain = adler_moser_chain(n, taus)
    config = config_from_adler_moser(chain)
    payload = {
        "n": n,
        "taus": [_complex_dict(t) for t in taus],
        "degrees": [len(p) - 1 for p in chain.polynomials],
        "residual": residual(config),
        "configuration": _config_payload(config),
    }
    if params.get("out"):
        _write_json(params["out"], _config_payload(config, f"adler-moser n={n}"))
    return payload, EXIT_OK


def cmd_refine(params: dict, config: VortexConfiguration, label: str | None) -> tuple[dict, int]:
    free_text = str(params["free"]).strip().lower()
    free = (
        list(range(len(config)))
        if free_text == "all"
        else _parse_list(free_text, "--free", int)
    )
    settings = NewtonSettings(tolerance=params["tol"], max_iterations=params["max_iter"])
    outcome = refine_equilibrium(config, free, settings)
    payload = {
        "residual_before": residual(config),
        "residual": outcome.residual,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "message": outcome.message,
        "configuration": _config_payload(outcome.configuration, label),
    }
    if params.get("out"):
        _write_json(params["out"], payload["configuration"])
    return payload, (EXIT_OK if outcome.converged else EXIT_NONCONVERGENCE)


HANDLERS = {
    "energy": cmd_energy,
    "check": cmd_check,
    "correlation": cmd_correlation,
    "pair-integral": cmd_pair_integral,
    "adler-moser": cmd_adler_moser,
    "refine": cmd_refine,
}
# the handlers that also take a configuration file and its label
_FILE_COMMANDS = frozenset({"energy", "check", "correlation", "refine"})


def _run(command: str, params: dict) -> tuple[dict, int]:
    """Run ``command`` as both the command line and ``replay`` run it.

    Loads the configuration file of the commands that take one, maps a
    library failure to its exit code through ``_EXIT_CODES``, adds the
    file's label to the report and makes the report strict JSON.
    """
    label = None
    try:
        if command in _FILE_COMMANDS:
            config, label = _load_config(params["config_path"])
            payload, code = HANDLERS[command](params, config, label)
        else:
            payload, code = HANDLERS[command](params)
    except Exception as exc:
        for kind, exit_code, hint in _EXIT_CODES:
            if isinstance(exc, kind):
                raise CliFailure(exit_code, f"{exc}{hint}") from exc
        raise
    if label is not None:
        payload["label"] = label
    return _strict_json(payload), code


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
    p.add_argument("--format", choices=("json", "csv"), default="json")
    with_manifest(p)

    p = sub.add_parser("pair-integral", help="two-disk pair integral and its annulus map")
    p.add_argument("--p", required=True, help="first point as 'x,y'")
    p.add_argument("--q", required=True, help="second point as 'x,y'")
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--target-error", type=_positive_float, default=1e-6)
    p.add_argument("--max-cells", type=_positive_int, default=QuadratureSpec.max_cells)
    with_manifest(p)

    p = sub.add_parser("adler-moser", help="equilibrium from a polynomial chain")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--tau-list", help="comma-separated complex parameters tau_2..tau_n")
    p.add_argument("--out", help="write the configuration file here")
    with_manifest(p)

    p = sub.add_parser("refine", help="Newton-refine a configuration towards equilibrium")
    p.add_argument("config_path")
    p.add_argument("--free", default="all", help="'all' or comma-separated vortex indices")
    p.add_argument("--tol", type=_positive_float, default=NewtonSettings.tolerance)
    p.add_argument("--max-iter", type=_positive_int, default=NewtonSettings.max_iterations)
    p.add_argument("--out", help="write the refined configuration file here")
    with_manifest(p)

    p = sub.add_parser("replay", help="re-run a manifest and verify bit-exact results")
    p.add_argument("manifest_path")

    return parser


def _strict_json(value):
    """``value`` with every non-finite float replaced by None.

    JSON has no infinity or NaN; an error bar the run cannot claim is null.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    return value


def _dumps(value, **kwargs) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=False, **kwargs)


def _write_stdout(text: str) -> None:
    """Write a report; a reader that closes the pipe early truncates it."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the unwritten rest would raise again when the interpreter flushes
        # stdout at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(payload: dict) -> None:
    _write_stdout(_dumps(payload, indent=2) + "\n")


def _emit_csv(payload: dict) -> None:
    # the csv module writes floats with repr and None as an empty field
    columns = [
        "epsilon", "value", "abs_error_estimate", "tail_correction", "cells_used", "converged"
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for row in payload.get("estimates", []):
        writer.writerow([row[c] for c in columns])
    _write_stdout(buffer.getvalue())


def _replay(manifest_path: str) -> int:
    data = _load_json(manifest_path)
    if not (
        isinstance(data, dict) and "command" in data and isinstance(data.get("parameters"), dict)
    ):
        raise CliFailure(EXIT_USAGE, f"{manifest_path} is not a run manifest")
    command = data["command"]
    if not (isinstance(command, str) and command in HANDLERS):
        raise CliFailure(EXIT_USAGE, f"manifest names unknown command {command!r}")
    try:
        payload, code = _run(command, data["parameters"])
    except (KeyError, TypeError) as exc:  # argparse never saw them
        message = f"{manifest_path}: malformed {command} parameters ({exc!r})"
        raise CliFailure(EXIT_USAGE, message) from exc
    _emit_json(payload)
    recorded = _dumps(_strict_json(data.get("results")))
    fresh = _dumps(payload)
    if recorded == fresh:
        print("replay: results reproduce bit-exactly", file=sys.stderr)
        return code
    print("replay: results DIFFER from the manifest", file=sys.stderr)
    recorded_version = data.get("tool_version", "an unknown version")
    if recorded_version != _TOOL_VERSION:
        print(
            f"replay: the manifest was written by {recorded_version}, this is "
            f"{_TOOL_VERSION}; results are bit-exact only within a version",
            file=sys.stderr,
        )
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        if args.command == "replay":
            return _replay(args.manifest_path)
        skip = {"command", "manifest", "format"}
        params = {k: v for k, v in vars(args).items() if k not in skip}
        payload, code = _run(args.command, params)
        if args.command == "correlation" and args.format == "csv":
            _emit_csv(payload)
        else:
            _emit_json(payload)
        if args.manifest:
            manifest = {
                "command": args.command,
                "parameters": params,
                "tool_version": _TOOL_VERSION,
                "results": payload,
            }
            _write_json(args.manifest, manifest)
        return code
    except CliFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.exit_code


def run() -> None:
    raise SystemExit(main())
