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

from conftest import GENERIC_N5
from oracles import finite_part


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


# off equilibrium the limit is the finite part F of A_eps = alpha log eps + F
# + O(eps^2); two unit vortices a distance 1 apart have forces -+1 and F = 8 pi
NONEQUILIBRIUM_ROWS = {
    "like_signed_pair": [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)],
    "moved_triple": [(-1.0, 0.0, 1.0), (0.0, 0.05, -0.5), (1.0, 0.0, 1.0)],
}


@pytest.mark.parametrize("name", sorted(NONEQUILIBRIUM_ROWS))
def test_correlation_reports_the_finite_part_off_equilibrium(capsys, tmp_path, name):
    rows = NONEQUILIBRIUM_ROWS[name]
    path = write_config(tmp_path / "config.json", rows)
    expected = finite_part(VortexConfiguration.from_coordinates(rows))
    if name == "like_signed_pair":
        assert math.isclose(expected, 8.0 * math.pi, rel_tol=1e-15)
    code, payload, err = run_json(capsys, "correlation", path)
    assert code == 0, err
    assert payload["residual"] > 0.01
    assert abs(payload["extrapolated_limit"] - expected) <= payload["extrapolation_error"]
    assert payload["fit_degenerate"] is False
    assert "note" not in payload


def test_correlation_generic_equilibrium_within_its_bar(capsys, tmp_path):
    # an equilibrium with generic real circulations: its limit F = 0 lies
    # within the bar of the 2D main run and the contour rings
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(GENERIC_N5))
    code, payload, err = run_json(capsys, "correlation", str(path))
    assert code == 0, err
    assert abs(payload["extrapolated_limit"]) <= payload["extrapolation_error"]


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
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("epsilon,value,abs_error_estimate")
    assert len(lines) == 3


def test_correlation_has_no_quadrature_knobs(capsys, collinear_file):
    # the limit comes from the contour form, which no error target or cell
    # budget steers; pair-integral keeps both
    for option in ("--target-error", "--max-cells"):
        code, out, err = run_cli(capsys, "correlation", collinear_file, option, "10")
        assert code == 2
        assert f"unrecognized arguments: {option} 10" in err
        assert out == ""


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
    assert "leaves no room for the cutoff" in err


def test_pair_integral_budget_exhaustion_exit_4(capsys, tmp_path):
    manifest = tmp_path / "run.json"
    code, out, _ = run_cli(
        capsys,
        "pair-integral",
        "--p", "0,0",
        "--q", "1,0",
        "--eps", "0.1",
        "--target-error", "1e-9",
        "--max-cells", "400",
        "--manifest", str(manifest),
    )
    assert code == 4
    payload = strict_loads(out)
    assert strict_loads(manifest.read_text())["results"] == payload
    assert payload["converged"] is False
    assert payload["cells_used"] <= 400


def test_pair_integral_budget_below_starting_mesh_exit_4(capsys, tmp_path):
    manifest = tmp_path / "run.json"
    code, out, err = run_cli(
        capsys,
        "pair-integral",
        "--p", "0,0",
        "--q", "1,0",
        "--eps", "0.1",
        "--max-cells", "10",
        "--manifest", str(manifest),
    )
    assert code == 4
    assert "Traceback" not in err
    payload = strict_loads(out)
    assert strict_loads(manifest.read_text())["results"] == payload
    assert payload["converged"] is False
    assert payload["cells_used"] <= 10
    assert payload["abs_error_estimate"] is None


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


def test_adler_moser_below_unit_scale_exit_0(capsys):
    # the cube roots at scale 1e-3: a similarity of the tau = 1 equilibrium
    code, payload, _ = run_json(capsys, "adler-moser", "--n", "2", "--tau-list", "1e-9")
    assert code == 0
    assert payload["degrees"] == [0, 1, 3]


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


def _am3_rows(scale=1.0):
    base = equilibria.config_from_adler_moser(equilibria.adler_moser_chain(3, [1.0, 1.0]))
    return [(scale * z.real, scale * z.imag, d) for z, d in zip(base.positions, base.circulations)]


def test_refine_below_rounding_stalls_exit_4(capsys, tmp_path):
    # no step lowers the residual of AM n=3 below its rounding floor, far
    # above 1e-20: the line search stalls and the best iterate is reported
    path = write_config(tmp_path / "am3.json", _am3_rows())
    code, payload, err = run_json(capsys, "refine", path, "--tol", "1e-20")
    assert code == 4
    assert payload["converged"] is False
    assert payload["message"].startswith("line search stalled at residual")
    assert payload["residual"] <= payload["residual_before"]
    assert "Traceback" not in err


@pytest.mark.xfail(
    strict=True,
    reason="the check and Newton tolerances are absolute: AM n=3 scaled by 1e-6 "
    "has a construction residual of 3.9e-10, so `check --tol 1e-10` calls it no "
    "equilibrium and `refine` stalls at about 2.1e-10 and exits 4 (ROADMAP item 9)",
)
def test_an_equilibrium_scaled_by_1e_minus_6_is_one(capsys, tmp_path):
    path = write_config(tmp_path / "am3-small.json", _am3_rows(1e-6))
    code, payload, _ = run_json(capsys, "check", path, "--tol", "1e-10")
    assert code == 0
    assert payload["is_equilibrium"] is True
    code, payload, _ = run_json(capsys, "refine", path)
    assert code == 0, payload["message"]


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


def test_replay_of_a_suppressed_limit_differs(capsys, two_positive_file, tmp_path):
    # version 0.14.0 ran a non-equilibrium only with --allow-nonequilibrium
    # and nulled its limit; this version reports the limit, so the manifest
    # no longer reproduces, and replay says which versions differ
    manifest = tmp_path / "run.json"
    code, payload, _ = run_json(capsys, "correlation", two_positive_file)
    assert code == 0
    payload.update(
        extrapolated_limit=None,
        extrapolation_error=None,
        fit_degenerate=None,
        note="extrapolation suppressed: the input is not an equilibrium, so "
        "only truncated finite-(eps, R) values are reported",
    )
    parameters = {
        "allow_nonequilibrium": True,
        "config_path": two_positive_file,
        "eps_list": None,
        "max_cells": 2_000_000,
        "radius": None,
        "target_error": 1e-05,
    }
    manifest.write_text(
        json.dumps(
            {
                "command": "correlation",
                "parameters": parameters,
                "results": payload,
                "tool_version": "vortexcorr 0.14.0",
            }
        )
    )
    code, out, err = run_cli(capsys, "replay", str(manifest))
    assert code == 1
    assert "DIFFER" in err
    assert "vortexcorr 0.14.0" in err
    assert "bit-exact only within a version" in err
    assert "Traceback" not in out + err
    assert strict_loads(out)["extrapolated_limit"] is not None


# a manifest exactly as vortexcorr 0.19.0 wrote it for the collinear triple,
# bar the configuration path: a 2D main run at eps_1 set every estimate's
# error and cells, and the payload named the error target
MANIFEST_0_19_0 = {
    "command": "correlation",
    "parameters": {"eps_list": None, "max_cells": 2_000_000, "target_error": 1e-05},
    "results": {
        "budget_exhausted": False,
        "cutoff_radius": 16.0,
        "epsilons": [0.2, 0.1, 0.05],
        "estimates": [
            {
                "abs_error_estimate": err,
                "cells_used": 216,
                "converged": True,
                "epsilon": eps,
                "tail_correction": 0.03662490900862154,
                "value": value,
            }
            for eps, value, err in (
                (0.2, -0.26507760487152365, 6.4127022984348024e-06),
                (0.1, -0.06952692236439417, 6.412702459556924e-06),
                (0.05, -0.017598120934072897, 6.4127024414385914e-06),
            )
        ],
        "extrapolated_limit": -1.819771920678892e-05,
        "extrapolation_error": 0.0002767354406951242,
        "fit_degenerate": False,
        "label": "collinear",
        "residual": 0.0,
        "target_abs_error": 1e-05,
    },
    "tool_version": "vortexcorr 0.19.0",
}


def test_replay_of_a_0_19_0_correlation_manifest(capsys, collinear_file, tmp_path):
    # its extra parameters are ignored; the results differ, and replay names
    # both versions
    manifest = tmp_path / "run.json"
    stored = json.loads(json.dumps(MANIFEST_0_19_0))
    stored["parameters"]["config_path"] = collinear_file
    manifest.write_text(json.dumps(stored))
    code, out, err = run_cli(capsys, "replay", str(manifest))
    assert code == 1
    assert "DIFFER" in err
    assert "the manifest was written by vortexcorr 0.19.0" in err
    assert "bit-exact only within a version" in err
    payload = strict_loads(out)
    assert "target_abs_error" not in payload
    assert abs(payload["extrapolated_limit"]) <= payload["extrapolation_error"]


def test_repeated_cli_runs_are_bit_identical(capsys, collinear_file):
    args = (
        "correlation",
        collinear_file,
        "--eps-list",
        "0.2,0.1",
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

# (command, configuration rows or manifest parameters or a file's whole text,
# expected exit code, further arguments with {tmp} for the test's directory)
CONTRACT_CASES = {
    "correlation-translated": ("correlation", _moved(1.0, 1000.0), 0),
    "correlation-scale-1e100": ("correlation", _moved(1e100), 0),
    "correlation-scale-1e104": ("correlation", _moved(1e104), 0),
    "correlation-scale-1e150": ("correlation", _moved(1e150), 0),
    "correlation-scale-1e-150": ("correlation", _moved(1e-150), 0),
    # the frame takes a diameter's binade 2^k only for |k| <= 500
    "correlation-scale-1e155": ("correlation", _moved(1e155), 2),
    "correlation-scale-1e160": ("correlation", _moved(1e160), 2),
    "correlation-scale-1e-160": ("correlation", _moved(1e-160), 2),
    # circulations of 60 at scale 1e-151 carry A_eps past the float range
    "correlation-values-overflow": (
        "correlation",
        [(1e-151 * x, y, 60.0 * d) for x, y, d in COLLINEAR_ROWS],
        2,
    ),
    # the contour form's trapezoid bound must be finite
    "correlation-eps-1e-90": ("correlation", COLLINEAR_ROWS, 0, ["--eps-list", "1e-90,1e-91"]),
    "correlation-eps-1e-110": ("correlation", COLLINEAR_ROWS, 2, ["--eps-list", "1e-100,1e-110"]),
    "correlation-eps-1e-160": ("correlation", COLLINEAR_ROWS, 2, ["--eps-list", "1e-160,1e-170"]),
    # the contour form takes any eps below half the separation
    "correlation-eps-below-half-separation": (
        "correlation",
        COLLINEAR_ROWS,
        0,
        ["--eps-list", "0.49,0.1"],
    ),
    # the 2D value is not finite at a tiny eps: a usage error, not a budget
    "pair-integral-eps-1e-200": (
        "pair-integral",
        None,
        2,
        ["--p", "0,0", "--q", "1,0", "--eps", "1e-200"],
    ),
    "pair-integral-scale-1e120": (
        "pair-integral",
        None,
        0,
        ["--p", "0,0", "--q", "1e120,0", "--eps", "1e119"],
    ),
    "pair-integral-scale-1e152": (
        "pair-integral",
        None,
        2,
        ["--p", "0,0", "--q", "1e152,0", "--eps", "1e151"],
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
    "replay-correlation-text-eps-list": ("correlation", {"eps_list": "0.2,x"}, 2),
    "replay-correlation-eps-list-is-a-list": ("correlation", {"eps_list": [0.2, 0.1]}, 2),
    "replay-energy-no-parameters": ("energy", None, 2),
    "replay-command-is-a-list": (["energy"], {}, 2),
    "replay-command-is-an-object": ({"name": "energy"}, {}, 2),
    # the exit-code table on the replay path
    "replay-adler-moser-zero-tau": ("adler-moser", {"n": 2, "tau_list": "0"}, 5),
    "replay-adler-moser-chain-defect": (
        "adler-moser",
        {"n": 8, "tau_list": "1,1,1,1,1,1,1"},
        4,
    ),
    # the chain fails at its first failing step, before later steps overflow
    "adler-moser-n20-chain-defect": (
        "adler-moser",
        None,
        4,
        ["--n", "20", "--tau-list", ",".join(["1"] * 19)],
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
    # a file's text as it stands: malformed configurations and manifests
    "config-not-an-object": ("energy", "[1, 2]", 2),
    "config-vortices-not-a-list": ("energy", '{"vortices": {"x": 0}}', 2),
    "config-vortex-not-an-object": ("energy", '{"vortices": [[0, 0, 1]]}', 2),
    "config-non-numeric-field": ("check", '{"vortices": [{"x": "east", "y": 0, "d": 1}]}', 2),
    # JSON numbers only: float() would take true as 1.0 and "0" as 0.0
    "config-boolean-field": ("check", '{"vortices": [{"x": 0, "y": 0, "d": true}]}', 2),
    "config-numeric-string-field": ("check", '{"vortices": [{"x": "0", "y": 0, "d": 1}]}', 2),
    "config-label-not-a-string": (
        "correlation",
        '{"vortices": [{"x": 0, "y": 0, "d": 1}], "label": 7}',
        2,
    ),
    "replay-not-a-manifest": (None, '{"command": "energy"}', 2),
    "adler-moser-out-unwritable": (
        "adler-moser",
        None,
        2,
        ["--n", "2", "--tau-list", "-1", "--out", "{tmp}/missing/am2.json"],
    ),
}

# what stderr must name, by case
CONTRACT_MESSAGES = {
    "pair-integral-coincident": "vortices 0 and 1 coincide",
    "correlation-scale-1e155": "error: the coordinate scale 2**516 is out of floating-point range",
    "correlation-scale-1e160": "error: the coordinate scale 2**533 is out of floating-point range",
    "correlation-scale-1e-160": "error: the coordinate scale 2**-530 is out of floating-point",
    "correlation-values-overflow": "error: A_eps at the excision radii [2e-152, 1e-152, 5e-153]",
    "pair-integral-scale-1e152": "error: the coordinate scale 2**505 is out of floating-point",
    "correlation-eps-1e-110": "bound at excision radius 1e-110 is not finite",
    "correlation-eps-1e-160": "bound at excision radius 1e-160 is not finite",
    "config-not-an-object": "expected an object with a 'vortices' list",
    "config-vortices-not-a-list": "'vortices' must be a list",
    "config-vortex-not-an-object": "vortex 0 must be an object with keys x, y, d",
    "config-non-numeric-field": "vortex 0 has a non-numeric field",
    "config-boolean-field": "vortex 0 has a non-numeric field",
    "config-numeric-string-field": "vortex 0 has a non-numeric field",
    "pair-integral-eps-1e-200": "the 2D integral at excision radius 1e-200 is not finite",
    "adler-moser-n20-chain-defect": "at step 7 exceeds 1e-10",
    "config-label-not-a-string": "'label' must be a string",
    "replay-not-a-manifest": "is not a run manifest",
    "adler-moser-out-unwritable": "error: cannot write",
}
assert set(CONTRACT_MESSAGES) <= set(CONTRACT_CASES)


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_exit_code_contract(capsys, tmp_path, case):
    command, data, expected, *rest = CONTRACT_CASES[case]
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in (rest[0] if rest else [])]
    if isinstance(data, str):
        path = tmp_path / "input.json"
        path.write_text(data)
        argv = ["replay", str(path)] if case.startswith("replay-") else [command, str(path)]
    elif case.startswith("replay-"):
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
    # no numpy warning reaches stderr, and correlation has no error target
    assert "Warning" not in err
    if command == "correlation":
        assert "target" not in err
    assert CONTRACT_MESSAGES.get(case, "") in err


def test_radius_is_not_an_option(capsys, collinear_file):
    # R is derived from the diameter; the exact tail makes any R give the
    # same limit, so the command line offers none
    for argv in (
        ["correlation", collinear_file, "--radius", "50"],
        ["pair-integral", "--p", "0,0", "--q", "1,0", "--eps", "0.1", "--radius", "50"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments: --radius 50" in err
        assert out == ""


@pytest.mark.parametrize("radius", ["0.5", "1.02"])
def test_radius_errors_name_the_callers_lengths(capsys, tmp_path, radius):
    # the contour form takes eps below half the separation, checked in the
    # caller's units before the frame (a quarter of them) is taken; the 2D
    # engine's room and cutoff radius play no part
    config = write_config(tmp_path / "collinear.json", COLLINEAR_ROWS)
    code, _, err = run_cli(capsys, "correlation", config, "--eps-list", f"{radius},0.4")
    assert code == 2
    assert f"excision radius {radius} is not below half the separation, 0.5" in err
    assert "cutoff radius" not in err
    assert "integration frame" not in err


def test_correlation_translated_reproduces_centred_payload(capsys, tmp_path):
    centred = write_config(tmp_path / "centred.json", COLLINEAR_ROWS)
    moved = write_config(tmp_path / "moved.json", _moved(1.0, 1000.0))
    _, expected, _ = run_cli(capsys, "correlation", centred)
    code, out, _ = run_cli(capsys, "correlation", moved)
    assert code == 0
    assert out == expected
