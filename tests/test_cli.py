import cmath
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import vortexcorr
import vortexcorr.equilibria as equilibria
from vortexcorr import (
    RootConvergenceError,
    VortexConfiguration,
    __version__,
    energy,
    residual,
)
from vortexcorr.cli import main


def write_config(path, rows, label=None):
    payload = {"vortices": [{"x": x, "y": y, "d": d} for x, y, d in rows]}
    if label is not None:
        payload["label"] = label
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def collinear_file(tmp_path):
    return write_config(
        tmp_path / "collinear.json",
        [(-1.0, 0.0, 1.0), (0.0, 0.0, -0.5), (1.0, 0.0, 1.0)],
        label="collinear",
    )


@pytest.fixture
def two_positive_file(tmp_path):
    return write_config(tmp_path / "two.json", [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def strict_loads(text):
    """``json.loads`` that rejects the non-JSON tokens Infinity, -Infinity and NaN."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


# ------------------------------------------------------------------- energy


def test_energy_two_unit_vortices(capsys, two_positive_file):
    code, payload, _ = run_json(capsys, "energy", two_positive_file)
    assert code == 0
    assert payload["W"] == 0.0
    assert "ordered" in payload["convention"]


def test_energy_coincident_vortices_exit_3(capsys, tmp_path):
    path = write_config(tmp_path / "bad.json", [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)])
    code, out, err = run_cli(capsys, "energy", path)
    assert code == 3
    assert "0 and 1" in err


def test_energy_collinear_matches_library(capsys, collinear_file):
    code, payload, _ = run_json(capsys, "energy", collinear_file)
    assert code == 0
    config = VortexConfiguration.from_coordinates(
        [(-1.0, 0.0, 1.0), (0.0, 0.0, -0.5), (1.0, 0.0, 1.0)]
    )
    assert payload["W"] == energy(config)
    assert payload["label"] == "collinear"


def test_energy_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, "energy", str(path))
    assert code == 2
    assert "JSON" in err


def test_energy_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "energy", str(tmp_path / "nope.json"))
    assert code == 2


# -------------------------------------------------------------------- check


def test_check_collinear(capsys, collinear_file):
    code, payload, _ = run_json(capsys, "check", collinear_file, "--tol", "1e-10")
    assert code == 0
    assert payload["is_equilibrium"] is True
    assert payload["residual"] < 1e-14
    assert len(payload["forces"]) == 3


def test_check_two_positive(capsys, two_positive_file):
    code, payload, _ = run_json(capsys, "check", two_positive_file)
    assert code == 0
    assert payload["is_equilibrium"] is False
    assert payload["residual"] == pytest.approx(1.0)


def test_check_rejects_zero_tol(capsys, collinear_file):
    code, out, err = run_cli(capsys, "check", collinear_file, "--tol", "0")
    assert code == 2


# -------------------------------------------------------------- correlation


def test_correlation_gate_exit_3(capsys, two_positive_file):
    code, out, err = run_cli(capsys, "correlation", two_positive_file)
    assert code == 3
    assert "residual" in err


def test_correlation_allow_nonequilibrium(capsys, two_positive_file):
    code, payload, _ = run_json(
        capsys,
        "correlation",
        two_positive_file,
        "--allow-nonequilibrium",
        "--eps-list",
        "0.2,0.1",
        "--radius",
        "20",
        "--target-error",
        "1e-3",
    )
    assert code == 0
    assert payload["extrapolated_limit"] is None
    assert "note" in payload
    assert len(payload["estimates"]) == 2


def test_correlation_single_vortex(capsys, tmp_path):
    path = write_config(tmp_path / "one.json", [(0.0, 0.0, 2.0)])
    code, payload, _ = run_json(capsys, "correlation", path)
    assert code == 0
    assert payload["extrapolated_limit"] == 0.0
    assert payload["extrapolation_error"] == 0.0
    assert payload["fit_degenerate"] is False


def test_correlation_collinear(capsys, collinear_file):
    code, payload, _ = run_json(
        capsys,
        "correlation",
        collinear_file,
        "--eps-list",
        "0.2,0.1,0.05",
        "--radius",
        "25",
        "--target-error",
        "1e-4",
    )
    assert code == 0
    assert abs(payload["extrapolated_limit"]) < 1e-3
    assert payload["budget_exhausted"] is False
    values = [abs(e["value"]) for e in payload["estimates"]]
    assert values[0] > values[1] > values[2]


def test_correlation_csv_format(capsys, collinear_file):
    code, out, err = run_cli(
        capsys,
        "correlation",
        collinear_file,
        "--format",
        "csv",
        "--eps-list",
        "0.2,0.1",
        "--radius",
        "20",
        "--target-error",
        "1e-3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("epsilon,value,abs_error_estimate")
    assert len(lines) == 3


def test_correlation_budget_exhaustion_exit_4(capsys, collinear_file):
    code, payload, _ = run_json(
        capsys,
        "correlation",
        collinear_file,
        "--eps-list",
        "0.2,0.1",
        "--radius",
        "20",
        "--target-error",
        "1e-9",
        "--max-cells",
        "400",
    )
    assert code == 4
    assert payload["budget_exhausted"] is True


def test_correlation_budget_below_starting_mesh_exit_4(capsys, collinear_file, tmp_path):
    manifest = tmp_path / "run.json"
    code, out, err = run_cli(
        capsys, "correlation", collinear_file, "--max-cells", "10", "--manifest", str(manifest)
    )
    assert code == 4
    assert "Traceback" not in err
    payload = strict_loads(out)
    assert strict_loads(manifest.read_text())["results"] == payload
    assert payload["budget_exhausted"] is True
    assert all(est["cells_used"] <= 10 for est in payload["estimates"])
    assert payload["extrapolation_error"] is None


def test_correlation_bad_eps_list(capsys, collinear_file):
    code, out, err = run_cli(capsys, "correlation", collinear_file, "--eps-list", "0.1,0.2")
    assert code == 2


def test_correlation_infinite_eps_exit_2(capsys, collinear_file):
    code, out, err = run_cli(capsys, "correlation", collinear_file, "--eps-list", "inf,0.1")
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


# -------------------------------------------------------------- pair-integral


def test_pair_integral_basic(capsys):
    code, payload, _ = run_json(
        capsys,
        "pair-integral",
        "--p", "0,0",
        "--q", "1,0",
        "--eps", "0.1",
        "--target-error", "1e-4",
    )
    assert code == 0
    assert payload["value"] <= payload["abs_error_estimate"]
    assert payload["moebius"]["R1"] < 1.0 < payload["moebius"]["R2"]


def test_pair_integral_moebius_block_closed_form(capsys):
    code, payload, _ = run_json(
        capsys,
        "pair-integral",
        "--p", "0,0",
        "--q", "1,0",
        "--eps", "0.4",
        "--target-error", "1e-3",
    )
    assert code == 0
    assert payload["moebius"]["a"] == pytest.approx(0.2, abs=1e-15)
    assert payload["moebius"]["b"] == pytest.approx(0.8, abs=1e-15)


def test_pair_integral_eps_too_large_exit_2(capsys):
    code, out, err = run_cli(capsys, "pair-integral", "--p", "0,0", "--q", "1,0", "--eps", "0.6")
    assert code == 2
    assert "half the pair separation" in err


def test_pair_integral_infinite_point_exit_2(capsys):
    code, out, err = run_cli(capsys, "pair-integral", "--p", "inf,0", "--q", "1,0", "--eps", "0.1")
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


# --------------------------------------------------------------- adler-moser


def test_adler_moser_n2(capsys, tmp_path):
    out_path = tmp_path / "am2.json"
    code, payload, _ = run_json(
        capsys, "adler-moser", "--n", "2", "--tau-list=-1", "--out", str(out_path)
    )
    assert code == 0
    assert payload["degrees"] == [0, 1, 3]
    assert payload["residual"] < 1e-10
    written = json.loads(out_path.read_text())
    assert len(written["vortices"]) == 4


def test_adler_moser_degenerate_exit_5(capsys):
    code, out, err = run_cli(capsys, "adler-moser", "--n", "2", "--tau-list", "0")
    assert code == 5
    assert "perturbing the tau parameters" in err


def test_adler_moser_root_nonconvergence_exit_4(capsys, monkeypatch):
    def fail(p):
        raise RootConvergenceError("roots (0,) miss the backward-error bound", (0,))

    monkeypatch.setattr(equilibria, "roots", fail)
    code, out, err = run_cli(capsys, "adler-moser", "--n", "3", "--tau-list", "1,1")
    assert code == 4
    assert err.startswith("error: roots (0,) miss the backward-error bound")
    assert "perturbing" not in err
    assert "Traceback" not in err


def test_adler_moser_n7_builds(capsys, tmp_path):
    out_path = tmp_path / "am7.json"
    code, payload, _ = run_json(
        capsys, "adler-moser", "--n", "7", "--tau-list", "1,1,1,1,1,1", "--out", str(out_path)
    )
    assert code == 0
    assert payload["residual"] <= 1e-10
    assert len(json.loads(out_path.read_text())["vortices"]) == 49


def test_adler_moser_chain_defect_exit_4(capsys):
    code, out, err = run_cli(capsys, "adler-moser", "--n", "8", "--tau-list", "1,1,1,1,1,1,1")
    assert code == 4
    assert err.startswith("error: chain recurrence defect")
    assert "Traceback" not in err


def test_adler_moser_n3_refined(capsys, tmp_path):
    path = str(tmp_path / "am3.json")
    code, _, _ = run_cli(capsys, "adler-moser", "--n", "3", "--tau-list", "1,1", "--out", path)
    assert code == 0
    code, payload, _ = run_json(capsys, "refine", path)
    assert code == 0
    assert payload["residual"] < 1e-12
    assert payload["converged"] is True


def test_adler_moser_wrong_parameter_count(capsys):
    code, out, err = run_cli(capsys, "adler-moser", "--n", "3", "--tau-list", "1")
    assert code == 2


def test_adler_moser_infinite_tau_exit_2(capsys):
    # rejected before the chain is built, so no overflow warning either
    code, out, err = run_cli(capsys, "adler-moser", "--n", "2", "--tau-list", "inf")
    assert code == 2
    assert err.startswith("error: chain parameters must be finite")
    assert "Traceback" not in err


# ------------------------------------------------------------------- refine


def test_refine_perturbed_collinear(capsys, tmp_path):
    path = write_config(
        tmp_path / "pert.json",
        [(-1.0, 0.0, 1.0), (0.0008, -0.0003, -0.5), (1.0, 0.0, 1.0)],
    )
    out_path = tmp_path / "refined.json"
    code, payload, _ = run_json(
        capsys, "refine", path, "--free", "1", "--out", str(out_path)
    )
    assert code == 0
    assert payload["converged"] is True
    assert payload["residual"] < 1e-12
    refined = json.loads(out_path.read_text())
    config = VortexConfiguration.from_coordinates(
        [(v["x"], v["y"], v["d"]) for v in refined["vortices"]]
    )
    assert residual(config) < 1e-12


def test_refine_all_free_keeps_scale(capsys, tmp_path):
    base = equilibria.config_from_adler_moser(equilibria.adler_moser_chain(3, [1.0, 1.0]))
    step = 1e-3 * base.min_separation
    pattern = random.Random(0)
    rows = []
    for v in base.vortices:
        z = v.position + step * cmath.exp(2j * math.pi * pattern.random())
        rows.append((z.real, z.imag, v.circulation))
    path = write_config(tmp_path / "am3.json", rows)
    code, payload, _ = run_json(capsys, "refine", path, "--free", "all")
    assert code == 0
    assert payload["iterations"] <= 5
    before = VortexConfiguration.from_coordinates(rows)
    after = VortexConfiguration.from_coordinates(
        [(v["x"], v["y"], v["d"]) for v in payload["configuration"]["vortices"]]
    )
    assert after.diameter == pytest.approx(before.diameter, rel=0.01)


def test_refine_already_converged_zero_iterations(capsys, collinear_file):
    code, payload, _ = run_json(capsys, "refine", collinear_file)
    assert code == 0
    assert payload["iterations"] == 0


def test_refine_nonconvergence_exit_4(capsys, tmp_path):
    path = write_config(
        tmp_path / "far.json",
        [(-1.0, 0.0, 1.0), (0.4, 0.3, -0.5), (1.0, 0.0, 1.0)],
    )
    out_path = tmp_path / "best.json"
    code, payload, _ = run_json(
        capsys, "refine", path, "--free", "1", "--max-iter", "1", "--out", str(out_path)
    )
    assert code == 4
    assert payload["converged"] is False
    assert out_path.exists()  # best iterate still written
    assert payload["residual"] < payload["residual_before"]


def test_refine_bad_free_exit_2(capsys, collinear_file):
    code, out, err = run_cli(capsys, "refine", collinear_file, "--free", "1,junk")
    assert code == 2


# --------------------------------------------------- round trips & manifests


def test_config_round_trip_is_bit_exact(capsys, tmp_path):
    rows = [
        (-1.0 / 3.0, math.sqrt(2.0), 1.0),
        (0.1 + 1e-16, -0.7, -0.5),
        (math.pi, math.e, 2.0 / 3.0),
    ]
    path = write_config(tmp_path / "cfg.json", rows)
    out_path = tmp_path / "echo.json"
    code, payload, _ = run_json(capsys, "refine", path, "--max-iter", "1", "--out", str(out_path))
    written = json.loads(out_path.read_text())
    # serialization must round-trip the stored doubles exactly
    stored = VortexConfiguration.from_coordinates(
        [(v["x"], v["y"], v["d"]) for v in written["vortices"]]
    )
    echoed = VortexConfiguration.from_coordinates(
        [
            (v["x"], v["y"], v["d"])
            for v in json.loads(json.dumps(written))["vortices"]
        ]
    )
    assert stored == echoed


def test_manifest_replay_bit_exact(capsys, collinear_file, tmp_path):
    manifest = tmp_path / "run.json"
    code, first, _ = run_json(
        capsys,
        "correlation",
        collinear_file,
        "--eps-list",
        "0.2,0.1",
        "--radius",
        "20",
        "--target-error",
        "1e-3",
        "--manifest",
        str(manifest),
    )
    assert code == 0
    assert manifest.exists()
    stored = json.loads(manifest.read_text())
    assert stored["command"] == "correlation"
    assert stored["tool_version"].startswith("vortexcorr")

    code, replayed, err = run_json(capsys, "replay", str(manifest))
    assert code == 0
    assert "bit-exactly" in err
    assert json.dumps(replayed, sort_keys=True) == json.dumps(
        stored["results"], sort_keys=True
    )


def test_manifest_replay_detects_mismatch(capsys, collinear_file, tmp_path):
    manifest = tmp_path / "run.json"
    run_cli(capsys, "energy", collinear_file, "--manifest", str(manifest))
    stored = json.loads(manifest.read_text())
    stored["results"]["W"] = 123.0
    manifest.write_text(json.dumps(stored))
    code, out, err = run_cli(capsys, "replay", str(manifest))
    assert code == 1
    assert "DIFFER" in err


def test_replay_across_versions_says_so(capsys, collinear_file, tmp_path):
    manifest = tmp_path / "run.json"
    run_cli(
        capsys,
        "correlation",
        collinear_file,
        "--eps-list",
        "0.2,0.1",
        "--radius",
        "20",
        "--target-error",
        "1e-3",
        "--manifest",
        str(manifest),
    )
    stored = json.loads(manifest.read_text())
    stored["results"]["estimates"][1]["value"] += 1e-9
    manifest.write_text(json.dumps(stored))
    code, _, err = run_cli(capsys, "replay", str(manifest))
    assert code == 1
    assert "DIFFER" in err
    assert "within a version" not in err

    stored["tool_version"] = "vortexcorr 0.1.0"
    manifest.write_text(json.dumps(stored))
    code, _, err = run_cli(capsys, "replay", str(manifest))
    assert code == 1
    assert "DIFFER" in err
    assert "vortexcorr 0.1.0" in err
    assert f"vortexcorr {__version__}" in err
    assert "bit-exact only within a version" in err


def test_repeated_cli_runs_are_bit_identical(capsys, collinear_file):
    args = (
        "correlation",
        collinear_file,
        "--eps-list",
        "0.2,0.1",
        "--radius",
        "20",
        "--target-error",
        "1e-3",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def run_into_closed_pipe(*argv):
    """Run the CLI in a new interpreter whose stdout reader has already gone."""
    package_root = str(Path(vortexcorr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vortexcorr", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def test_closed_stdout_keeps_the_exit_code(collinear_file, tmp_path):
    # a reader that stops early (`| head -1`) only truncates the report: the
    # exit code is the command's own and a requested manifest is written
    manifest = tmp_path / "run.json"
    far = write_config(
        tmp_path / "far.json", [(-1.0, 0.0, 1.0), (0.4, 0.3, -0.5), (1.0, 0.0, 1.0)]
    )
    runs = [
        (["check", collinear_file], 0),
        (["correlation", collinear_file, "--format", "csv", "--manifest", str(manifest)], 0),
        (["replay", str(manifest)], 0),
        (["refine", far, "--free", "1", "--max-iter", "1"], 4),
    ]
    errs = {}
    for argv, expected in runs:
        code, errs[argv[0]] = run_into_closed_pipe(*argv)
        assert code == expected, errs[argv[0]]
        assert "Traceback" not in errs[argv[0]]
        assert "Broken pipe" not in errs[argv[0]]
    assert json.loads(manifest.read_text())["command"] == "correlation"
    assert "reproduce bit-exactly" in errs["replay"]


def test_usage_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "no-such-command")
    assert code == 2


# --------------------------------------------------- exit-code contract sweep

COLLINEAR_ROWS = [(-1.0, 0.0, 1.0), (0.0, 0.0, -0.5), (1.0, 0.0, 1.0)]


def _moved(scale, shift=0.0):
    return [(scale * x + shift, y, d) for x, y, d in COLLINEAR_ROWS]


# two vortices whose difference 2e308 overflows
OVERFLOWING_ROWS = [(-1e308, 0.0, 1.0), (1e308, 0.0, 1.0)]

# (command, configuration rows or manifest parameters, expected exit code,
# further arguments)
CONTRACT_CASES = {
    "correlation-translated": ("correlation", _moved(1.0, 1000.0), 0),
    "correlation-scale-1e100": ("correlation", _moved(1e100), 0),
    "correlation-scale-1e104": ("correlation", _moved(1e104), 0),
    "correlation-scale-1e160": ("correlation", _moved(1e160), 2),
    "correlation-radius-1e100": ("correlation", COLLINEAR_ROWS, 0, ["--radius", "1e100"]),
    "correlation-radius-1e110": ("correlation", COLLINEAR_ROWS, 2, ["--radius", "1e110"]),
    "correlation-radius-1e200": ("correlation", COLLINEAR_ROWS, 2, ["--radius", "1e200"]),
    # vortices at -1 and 1 lie outside B_R
    "correlation-radius-0.5": ("correlation", COLLINEAR_ROWS, 2, ["--radius", "0.5"]),
    "pair-integral-scale-1e120": (
        "pair-integral",
        None,
        0,
        ["--p", "0,0", "--q", "1e120,0", "--eps", "1e119"],
    ),
    "pair-integral-radius-1e110": (
        "pair-integral",
        None,
        2,
        ["--p", "0,0", "--q", "1,0", "--eps", "0.1", "--radius", "1e110"],
    ),
    # coincident vortices are an invariant violation, not a usage error
    "pair-integral-coincident": (
        "pair-integral",
        None,
        3,
        ["--p", "0,0", "--q", "0,0", "--eps", "0.1"],
    ),
    "correlation-distance-overflows": ("correlation", OVERFLOWING_ROWS, 3),
    "energy-distance-overflows": ("energy", OVERFLOWING_ROWS, 3),
    "energy-far-apart": ("energy", [(-1e160, 0.0, 1.0), (1e160, 0.0, 1.0)], 0),
    "replay-refine-zero-tol": ("refine", {"free": "all", "tol": 0, "max_iter": 50}, 2),
    "replay-refine-no-free": ("refine", {"tol": 1e-12, "max_iter": 50}, 2),
    "replay-check-text-tol": ("check", {"tol": "x"}, 2),
    "replay-correlation-text-max-cells": (
        "correlation",
        {"target_error": 1e-5, "max_cells": "5"},
        2,
    ),
    "replay-correlation-null-target": (
        "correlation",
        {"target_error": None, "max_cells": 2_000_000},
        2,
    ),
    "replay-energy-no-parameters": ("energy", None, 2),
    # a radius of 0 is a radius, not a request for the default
    "replay-correlation-zero-radius": (
        "correlation",
        {"radius": 0, "target_error": 1e-5, "max_cells": 2_000_000},
        2,
    ),
    "replay-command-is-a-list": (["energy"], {}, 2),
    "replay-command-is-an-object": ({"name": "energy"}, {}, 2),
    # the exit-code table on the replay path
    "replay-adler-moser-zero-tau": ("adler-moser", {"n": 2, "tau_list": "0"}, 5),
    "replay-adler-moser-chain-defect": (
        "adler-moser",
        {"n": 8, "tau_list": "1,1,1,1,1,1,1"},
        4,
    ),
    "replay-refine-free-out-of-range": (
        "refine",
        {"free": "9", "tol": 1e-12, "max_iter": 50},
        2,
    ),
    "replay-pair-integral-infinite-point": (
        "pair-integral",
        {"p": "inf,0", "q": "1,0", "eps": 0.1, "target_error": 1e-6, "max_cells": 2_000_000},
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_exit_code_contract(capsys, tmp_path, case):
    command, data, expected, *rest = CONTRACT_CASES[case]
    args = rest[0] if rest else []
    if case.startswith("replay-"):
        parameters = {}
        if data is not None:
            config = write_config(tmp_path / "collinear.json", COLLINEAR_ROWS)
            parameters = {"config_path": config, **data}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"command": command, "parameters": parameters, "results": {}})
        )
        argv = ["replay", str(manifest)]
    elif data is None:
        argv = [command, *args]
    else:
        argv = [command, write_config(tmp_path / "config.json", data), *args]
    code, out, err = run_cli(capsys, *argv)
    assert code == expected, err
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in out + err
    if command == "correlation" and code == 0:
        payload = strict_loads(out)
        assert abs(payload["extrapolated_limit"]) <= payload["extrapolation_error"]
    if command == "pair-integral" and code == 0:
        payload = strict_loads(out)
        assert payload["value"] <= payload["abs_error_estimate"]
    if expected == 2:
        assert err.startswith("error: ")
    if expected == 5:
        assert err.endswith("; try perturbing the tau parameters\n")
    if case == "pair-integral-coincident":
        assert "vortices 0 and 1 coincide" in err


@pytest.mark.parametrize("radius", ["0.5", "1.02"])
def test_radius_errors_name_the_callers_lengths(capsys, tmp_path, radius):
    # the quadrature checks the holes in the integration frame, a quarter of
    # the collinear triple's units; its message restates the user's lengths
    config = write_config(tmp_path / "collinear.json", COLLINEAR_ROWS)
    code, _, err = run_cli(capsys, "correlation", config, "--radius", radius)
    assert code == 2
    assert f"cutoff radius {radius}" in err
    assert "radius 0.2" in err
    assert "integration frame" not in err


def test_correlation_translated_reproduces_centred_payload(capsys, tmp_path):
    centred = write_config(tmp_path / "centred.json", COLLINEAR_ROWS)
    moved = write_config(tmp_path / "moved.json", _moved(1.0, 1000.0))
    _, expected, _ = run_cli(capsys, "correlation", centred)
    code, out, _ = run_cli(capsys, "correlation", moved)
    assert code == 0
    assert out == expected
