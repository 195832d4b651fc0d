import argparse
import cmath
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import vortexcorr
import vortexcorr.cli as cli
import vortexcorr.equilibria as equilibria
from vortexcorr import (
    RootConvergenceError,
    VortexConfiguration,
    __version__,
    energy,
    residual,
)
from vortexcorr.cli import build_parser, main

from conftest import GENERIC_N5, polygon_plus_centre
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
    # the limit comes from the contour form and the pair integral from its
    # annulus rule, which no error target or cell budget steers
    pair = ["pair-integral", "--p", "0,0", "--q", "1,0", "--eps", "0.1"]
    for argv in (["correlation", collinear_file], pair):
        for option in ("--target-error", "--max-cells"):
            code, out, err = run_cli(capsys, *argv, option, "10")
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
    )
    assert code == 0
    assert payload["value"] <= payload["abs_error_estimate"] <= 1e-11
    assert (payload["cells_used"], payload["tail_correction"], payload["converged"]) == (0, 0, True)
    assert payload["moebius"]["R1"] < 1.0 < payload["moebius"]["R2"]


def test_pair_integral_moebius_block_closed_form(capsys):
    code, payload, _ = run_json(
        capsys,
        "pair-integral",
        "--p", "0,0",
        "--q", "1,0",
        "--eps", "0.4",
    )
    assert code == 0
    assert payload["moebius"]["a"] == pytest.approx(0.2, abs=1e-15)
    assert payload["moebius"]["b"] == pytest.approx(0.8, abs=1e-15)


def test_pair_integral_eps_too_large_exit_2(capsys):
    code, out, err = run_cli(capsys, "pair-integral", "--p", "0,0", "--q", "1,0", "--eps", "0.6")
    assert code == 2
    assert "excision radius 0.6 at separation 1.0 is out of the annulus rule's range" in err


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


def test_refine_solver_failure_exit_4(capsys, monkeypatch, tmp_path):
    # a LinAlgError is a ValueError, but a failed solve is a non-convergence
    def fail(*args, **kwargs):
        raise equilibria.np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(equilibria.np.linalg, "svd", fail)
    moved = write_config(
        tmp_path / "moved.json", [(-1.0, 0.0, 1.0), (0.01, 0.0, -0.5), (1.0, 0.0, 1.0)]
    )
    code, out, err = run_cli(capsys, "refine", moved, "--free", "1")
    assert code == 4
    assert err == "error: SVD did not converge\n"
    assert out == ""


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


def test_an_unnamed_exception_is_a_bug_with_its_traceback(monkeypatch, collinear_file):
    # the exit table names the library's own failures only: a stray float
    # error is not a non-convergence, and propagates
    def stray(config):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "forces", stray)
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        main(["check", collinear_file])


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


def test_main_builds_the_parser_once(capsys, collinear_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    assert run_cli(capsys, "check", collinear_file)[0] == 0
    first = len(built)
    assert first > 0
    for argv in (["energy", collinear_file], ["no-such-command"], ["--version"]):
        run_cli(capsys, *argv)
    assert len(built) == first


def test_interleaved_commands_match_their_solo_runs(capsys, collinear_file, tmp_path):
    # the parser built by one call serves the next as a fresh one would
    manifest = str(tmp_path / "run.json")
    runs = [
        ["no-such-command"],
        ["correlation", collinear_file, "--manifest", manifest],
        ["replay", manifest],
        ["--version"],
        ["correlation", "--help"],
    ]
    solo = []
    for argv in runs:
        build_parser.cache_clear()
        solo.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in solo] == [2, 0, 0, 0, 0]
    build_parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in runs] == solo


def _parser_state(parser):
    """Copies of the defaults and of every action's fields, subparsers' too."""
    state = [dict(parser._defaults)]
    for action in parser._actions:
        state.append(
            {
                key: dict(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v
                for key, v in vars(action).items()
            }
        )
        if isinstance(action, argparse._SubParsersAction):
            state.extend(_parser_state(p) for p in action.choices.values())
    return state


def test_a_parse_leaves_the_parser_unchanged(capsys, collinear_file, tmp_path):
    # one parser serves every call, so no parse may change it
    parser = build_parser()
    before = _parser_state(parser)
    manifest = str(tmp_path / "run.json")
    for argv in (
        ["correlation", collinear_file, "--eps-list", "0.2,0.1", "--manifest", manifest],
        ["replay", manifest],
        ["check", collinear_file, "--tol", "1e-3"],
        ["refine", collinear_file, "--free", "1", "--max-iter", "2"],
        ["pair-integral", "--p", "0,0", "--q", "1,0", "--eps", "0.1"],
        ["check", collinear_file, "--tol", "-1"],
        ["correlation", "--help"],
    ):
        run_cli(capsys, *argv)
    assert build_parser() is parser
    assert _parser_state(parser) == before


# --------------------------------------------------- exit-code contract sweep

COLLINEAR_ROWS = [(-1.0, 0.0, 1.0), (0.0, 0.0, -0.5), (1.0, 0.0, 1.0)]


def _moved(scale, shift=0.0):
    return [(scale * x + shift, y, d) for x, y, d in COLLINEAR_ROWS]


def _huge_pair(d):
    return [(0.0, 0.0, d), (1.0, 0.0, d)]


# two vortices whose difference 2e308 overflows
OVERFLOWING_ROWS = [(-1e308, 0.0, 1.0), (1e308, 0.0, 1.0)]

# circulations 1e125 at 1e-62: the force term 1e312 overflows
FORCE_OVERFLOW_ROWS = [(0.0, 0.0, 1e125), (1e-62, 0.0, 1e125)]

# circulations +-1e60 spaced 1e-100: forces 1e220, Jacobian entries 1e320
JACOBIAN_OVERFLOW_ROWS = [(-1e-100, 0.0, 1e60), (0.0, 0.0, -1e60), (1e-100, 0.0, 1e60)]

# each force term near 1e308, their sum on vortex 0 beyond the float range
FORCE_SUM_OVERFLOW_ROWS = [(0.0, 0.0, 1e200), (-0.9, 0.3, 1e108), (-0.9, -0.3, 1e108)]

# finite forces whose modulus overflows: vortex 0's is 2.1e308
FORCE_MODULUS_OVERFLOW_ROWS = [
    (0.0, 0.0, 1.26e154),
    (-math.sqrt(0.5), -math.sqrt(0.5), 1.26e154),
    (-3.0 * math.sqrt(0.5), -3.0 * math.sqrt(0.5), 1.26e154),
]

# d_j d_k = -1e320 at distance 1, where the logarithm is 0
ENERGY_TERM_OVERFLOW_ROWS = [(0.0, 0.0, 1e160), (1.0, 0.0, -1e160), (3.0, 0.0, 1e160)]

# a triangle of side 0.5: three finite terms of 6.8e307 sum beyond the float range
ENERGY_SUM_OVERFLOW_ROWS = [
    (0.0, 0.0, 7e153),
    (0.5, 0.0, 7e153),
    (0.25, 0.25 * math.sqrt(3.0), 7e153),
]


def _adler_moser_rows(n, moved=0.0):
    """Adler-Moser ``n`` (every tau 1), each vortex moved by ``moved`` of the
    minimum separation in a seeded direction."""
    base = equilibria.config_from_adler_moser(equilibria.adler_moser_chain(n, [1.0] * (n - 1)))
    rng = random.Random(1)
    step = moved * base.min_separation
    shifted = [v.position + step * cmath.exp(2j * math.pi * rng.random()) for v in base.vortices]
    return [(z.real, z.imag, v.circulation) for z, v in zip(shifted, base.vortices)]


POLYGON_CENTRE_100 = polygon_plus_centre(99).vortices

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
    # the bound rejects huge circulations before alpha squares their forces
    "correlation-circulation-1e77": ("correlation", _huge_pair(1e77), 2),
    "correlation-circulation-1e80": ("correlation", _huge_pair(1e80), 2),
    # ... also where the bound on the wider annulus rho^(7/8) sums past the float range
    "correlation-circulation-1e76-eps-0.45": (
        "correlation",
        [(0.0, 0.0, 1e76), (1e-20, 0.0, 1e76)],
        2,
        ["--eps-list", "4.5e-21,1e-21"],
    ),
    # ... and at 1e160 the forces overflow, named without numpy warnings
    "correlation-circulation-1e160": ("correlation", _huge_pair(1e160), 2),
    # a force term beyond the float range names its pair, before fsum sees it
    "check-force-overflows": ("check", FORCE_OVERFLOW_ROWS, 2),
    # the contour form takes the forces in the caller's units, as check does:
    # at scale 2^-400 a force term of circulations 1e100 overflows there
    "correlation-force-term-overflows": (
        "correlation",
        [(2.0**-400 * x, y, 1e100 * d) for x, y, d in COLLINEAR_ROWS],
        2,
    ),
    "refine-force-overflows": ("refine", FORCE_OVERFLOW_ROWS, 2, ["--free", "all"]),
    # finite forces, a Jacobian beyond the float range
    "refine-jacobian-overflows": (
        "refine",
        JACOBIAN_OVERFLOW_ROWS,
        2,
        ["--free", "all", "--max-iter", "5"],
    ),
    # a force sum or a force's modulus beyond the float range names its vortex
    "check-force-sum-overflows": ("check", FORCE_SUM_OVERFLOW_ROWS, 2),
    "refine-force-sum-overflows": ("refine", FORCE_SUM_OVERFLOW_ROWS, 2, ["--free", "all"]),
    "correlation-force-sum-overflows": ("correlation", FORCE_SUM_OVERFLOW_ROWS, 2),
    "check-force-modulus-overflows": ("check", FORCE_MODULUS_OVERFLOW_ROWS, 2),
    "refine-force-modulus-overflows": (
        "refine",
        FORCE_MODULUS_OVERFLOW_ROWS,
        2,
        ["--free", "all"],
    ),
    # an energy term or the energy beyond the float range, named without warnings
    "energy-term-overflows": ("energy", ENERGY_TERM_OVERFLOW_ROWS, 2),
    "energy-term-of-huge-circulations-overflows": ("energy", FORCE_SUM_OVERFLOW_ROWS, 2),
    "energy-sum-overflows": ("energy", ENERGY_SUM_OVERFLOW_ROWS, 2),
    # framed forces of 1.28e308, whose double overflows: the bound is not finite, unwarned
    "correlation-circulation-8e153": ("correlation", _huge_pair(8e153), 2),
    # a squared separation that underflows to zero divides the Jacobian by zero
    "refine-jacobian-divides-by-zero": (
        "refine",
        [(0.0, 0.0, 1.0), (1e-200, 0.0, 1.0)],
        2,
        ["--free", "all"],
    ),
    # a far start on the Adler-Moser continuum, which the damped step refines
    "refine-adler-moser-6-far-start": ("refine", _adler_moser_rows(6, 0.3), 0, ["--free", "all"]),
    # the limit lies within its bar at Adler-Moser equilibria, N = 9 and 36
    "correlation-adler-moser-3": ("correlation", _adler_moser_rows(3), 0),
    "correlation-adler-moser-6": ("correlation", _adler_moser_rows(6), 0),
    # ... and at a 99-gon with its centre, the contour form at N = 100
    "correlation-polygon-centre-100": (
        "correlation",
        [(v.position.real, v.position.imag, v.circulation) for v in POLYGON_CENTRE_100],
        0,
    ),
    # the contour form's trapezoid bound must be finite
    "correlation-eps-1e-90": ("correlation", COLLINEAR_ROWS, 0, ["--eps-list", "1e-90,1e-91"]),
    "correlation-eps-1e-110": ("correlation", COLLINEAR_ROWS, 2, ["--eps-list", "1e-100,1e-110"]),
    "correlation-eps-1e-160": ("correlation", COLLINEAR_ROWS, 2, ["--eps-list", "1e-160,1e-170"]),
    # an eps that is not finite is named, before the order is checked
    "correlation-eps-nan": ("correlation", COLLINEAR_ROWS, 2, ["--eps-list", "0.1,nan"]),
    # an eps whose framed square underflows, at unit scale and in a wide frame
    "correlation-eps-1e-300": ("correlation", COLLINEAR_ROWS, 2, ["--eps-list", "0.1,1e-300"]),
    "correlation-eps-underflows-in-the-frame": (
        "correlation",
        _moved(1e88),
        2,
        ["--eps-list", "9.7e-243,4.0e-307"],
    ),
    # the contour form takes any eps below half the separation, and no other
    "correlation-eps-at-half-separation": (
        "correlation",
        COLLINEAR_ROWS,
        2,
        ["--eps-list", "0.5,0.1"],
    ),
    "correlation-eps-below-half-separation": (
        "correlation",
        COLLINEAR_ROWS,
        0,
        ["--eps-list", "0.49,0.1"],
    ),
    # one vortex takes any positive eps, even one whose square overflows
    "correlation-single-vortex-eps-1e300": (
        "correlation",
        [(0.0, 0.0, 1.0)],
        0,
        ["--eps-list", "1e300,1"],
    ),
    # ... and eps whose fitted squares underflow: no fit, exact zeros
    "correlation-single-vortex-eps-1e-180": (
        "correlation",
        [(0.3, 0.0, 2.0)],
        0,
        ["--eps-list", "1,1e-170,1e-180"],
    ),
    # the annulus rule takes eps from 2^-1022 to 0.4999 of the separation
    "pair-integral-eps-1e-200": (
        "pair-integral",
        None,
        0,
        ["--p", "0,0", "--q", "1,0", "--eps", "1e-200"],
    ),
    "pair-integral-eps-near-half": (
        "pair-integral",
        None,
        2,
        ["--p", "0,0", "--q", "2,0", "--eps", "0.99999"],
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
    # the default spec's radius takes the one scale rule: no overflow at 2^1022
    "pair-integral-coordinates-3e307": (
        "pair-integral",
        None,
        2,
        ["--p", "0,0", "--q", "3e307,0", "--eps", "0.1"],
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
    "replay-check-zero-tol": ("check", {"tol": 0}, 2),
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
    # the construction's backstops: roots that nearly coincide, and roots far
    # from equilibrium that pass the derivative test
    "adler-moser-roots-too-close": (
        "adler-moser",
        None,
        5,
        ["--n", "3", "--tau-list", "8.62036e-175,-0.597019"],
    ),
    "adler-moser-far-from-equilibrium": (
        "adler-moser",
        None,
        5,
        ["--n", "6", "--tau-list", "1.62289,5e-324,-1.50097e-104,-0,-0"],
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
        {"p": "inf,0", "q": "1,0", "eps": 0.1},
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
    # a JSON integer beyond the float range: a usage error, not a numeric one
    "config-integer-out-of-range": (
        "check",
        '{"vortices": [{"x": 1' + "0" * 400 + ', "y": 0, "d": 1}]}',
        2,
    ),
    "config-label-not-a-string": (
        "correlation",
        '{"vortices": [{"x": 0, "y": 0, "d": 1}], "label": 7}',
        2,
    ),
    "replay-not-a-manifest": (None, '{"command": "energy"}', 2),
    # argparse rejects it: its usage, then the command's name and the error
    "adler-moser-n-0": ("adler-moser", None, 2, ["--n", "0"]),
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
    "pair-integral-coordinates-3e307": "error: the coordinate scale 2**1022 is out of "
    "floating-point range",
    "correlation-force-term-overflows": "error: the force term of vortices 0 and 1 overflows "
    "the floating-point range (circulations 1.000e+100 and -5.000e+99)",
    # three roots within 1e-58 of each other, whose last bits depend on the
    # LAPACK build: the distances are not pinned
    "adler-moser-roots-too-close": "error: vortices 0 and 1 are separated by ",
    "adler-moser-far-from-equilibrium": "error: the constructed configuration is far from "
    "equilibrium; the chain parameters look degenerate",
    "correlation-eps-nan": "error: excision radius nan is not finite",
    "correlation-eps-1e-110": "bound at excision radius 1e-110 is not finite",
    "correlation-eps-1e-160": "bound at excision radius 1e-160 is not finite",
    "correlation-eps-1e-300": "error: the contour form's bound at excision radius 1e-300 is not",
    "correlation-eps-underflows-in-the-frame": "bound at excision radius 9.7e-243 is not finite",
    "correlation-circulation-1e77": "error: the contour form's bound at excision radius 0.2 is not",
    "correlation-circulation-1e80": "error: the contour form's bound at excision radius 0.2 is not",
    "correlation-circulation-1e76-eps-0.45": "error: the contour form's bound at excision radius "
    "4.5e-21 is not finite",
    "correlation-circulation-1e160": "error: the force term of vortices 0 and 1 overflows the",
    "check-force-overflows": "error: the force term of vortices 0 and 1 overflows the "
    "floating-point range (circulations 1.000e+125 and 1.000e+125)",
    "refine-force-overflows": "error: the force term of vortices 0 and 1 overflows the",
    "refine-jacobian-overflows": "error: the Newton Jacobian overflows the floating-point "
    "range: circulations up to 1.000e+60 at separations down to 1.000e-100",
    "check-force-sum-overflows": "error: the force on vortex 0 overflows the floating-point "
    "range (circulation 1.000e+200)",
    "refine-force-sum-overflows": "error: the force on vortex 0 overflows the floating-point",
    "correlation-force-sum-overflows": "error: the force on vortex 0 overflows the",
    "check-force-modulus-overflows": "error: the force on vortex 0 overflows the "
    "floating-point range (circulation 1.260e+154)",
    "refine-force-modulus-overflows": "error: the force on vortex 0 overflows the",
    "energy-term-overflows": "error: the energy term of vortices 0 and 1 overflows the "
    "floating-point range (circulations 1.000e+160 and -1.000e+160)",
    "energy-term-of-huge-circulations-overflows": "error: the energy term of vortices 0 and 1 "
    "overflows the floating-point range (circulations 1.000e+200 and 1.000e+108)",
    "energy-sum-overflows": "error: the energy overflows the floating-point range",
    "correlation-circulation-8e153": "error: the contour form's bound at excision radius 0.2",
    "refine-jacobian-divides-by-zero": "error: the Newton Jacobian overflows the floating-point "
    "range: circulations up to 1.000e+00 at separations down to 1.000e-200",
    "correlation-eps-at-half-separation": "error: excision radius 0.5 is not below half the "
    "separation, 0.5",
    "replay-check-zero-tol": "error: --tol must be > 0",
    "adler-moser-n-0": "vortexcorr adler-moser: error: argument --n: must be a positive "
    "integer (got '0')",
    "config-not-an-object": "expected an object with a 'vortices' list",
    "config-vortices-not-a-list": "'vortices' must be a list",
    "config-vortex-not-an-object": "vortex 0 must be an object with keys x, y, d",
    "config-non-numeric-field": "vortex 0 has a non-numeric field",
    "config-boolean-field": "vortex 0 has a non-numeric field",
    "config-numeric-string-field": "vortex 0 has a non-numeric field",
    "config-integer-out-of-range": "vortex 0 has a field out of floating-point range",
    "pair-integral-eps-near-half": "error: excision radius 0.99999 at separation 2.0 is out of "
    "the annulus rule's range: their ratio must lie in [2**-1022, 0.4999]",
    "adler-moser-n20-chain-defect": "at step 7 exceeds 1e-10",
    "config-label-not-a-string": "'label' must be a string",
    "replay-not-a-manifest": "is not a run manifest",
    "adler-moser-out-unwritable": "error: cannot write",
}
assert set(CONTRACT_MESSAGES) <= set(CONTRACT_CASES)

# cases that argparse rejects: its usage first, then "vortexcorr ...: error: ..."
CONTRACT_ARGPARSE_CASES = {"adler-moser-n-0"}
assert CONTRACT_ARGPARSE_CASES <= set(CONTRACT_MESSAGES)

# cases that still break the contract, by case
CONTRACT_XFAILS = {}
assert set(CONTRACT_XFAILS) <= set(CONTRACT_CASES)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, marks=pytest.mark.xfail(strict=True, reason=CONTRACT_XFAILS[case]))
        if case in CONTRACT_XFAILS
        else case
        for case in sorted(CONTRACT_CASES)
    ],
)
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
        assert err.startswith("usage: " if case in CONTRACT_ARGPARSE_CASES else "error: ")
    if expected == 5:
        assert err.endswith("; try perturbing the tau parameters\n")
    # no numpy warning reaches stderr, and correlation has no error target
    assert "Warning" not in err
    if command == "correlation":
        assert "target" not in err
    assert CONTRACT_MESSAGES.get(case, "") in err


def _fuzz_tau(rng):
    """An Adler-Moser parameter near 10^+-300, subnormal, a signed zero or of unit size."""
    sign = rng.choice((-1.0, 1.0))
    return rng.choice(
        (
            sign * 10.0 ** rng.uniform(-300.0, 300.0),
            sign * 5e-324 * rng.randint(1, 2**52),
            sign * 0.0,
            rng.uniform(-2.0, 2.0),
        )
    )


def _fuzz_runs(rng, directory):
    """A configuration near the float range's edges and its four commands, a
    pair integral at the same scales and an Adler-Moser construction."""
    n = rng.randint(1, 5)
    scale = 10.0 ** rng.uniform(-300.0, 300.0)
    strength = rng.uniform(-150.0, 150.0)
    rows = [
        (
            scale * rng.uniform(-1.0, 1.0),
            scale * rng.uniform(-1.0, 1.0),
            rng.choice((-1.0, 1.0)) * 10.0 ** min(strength + rng.uniform(0.0, 50.0), 200.0),
        )
        for _ in range(n)
    ]
    path = write_config(directory / "fuzz.json", rows)

    def eps_exponent(reach):
        # relative to the scale or anywhere in the float range
        if rng.random() < 0.5:
            return math.log10(reach) + rng.uniform(-10.0, 0.0)
        return rng.uniform(-320.0, 308.0)

    correlation = ["correlation", path]
    if rng.random() < 0.5:
        # not always decreasing
        exponents = [eps_exponent(scale) for _ in range(rng.randint(1, 4))]
        eps_list = ",".join(repr(10.0**x) for x in sorted(exponents, reverse=True))
        correlation += ["--eps-list", eps_list]
    # the pair at the configuration's scale or near the top of the float range,
    # where the frame's scale 2^k passes 2^1021
    reach = 10.0 ** rng.uniform(305.0, 308.25) if rng.random() < 0.25 else scale
    p, q = (
        f"{reach * rng.uniform(-1.0, 1.0)!r},{reach * rng.uniform(-1.0, 1.0)!r}" for _ in range(2)
    )
    pair = [
        "pair-integral",
        f"--p={p}",
        f"--q={q}",
        f"--eps={10.0 ** eps_exponent(reach)!r}",
    ]
    rng.randint(1, 1000)  # the retired --max-cells, drawn to keep the seeded runs
    n = rng.randint(2, 7)
    taus = ",".join(repr(_fuzz_tau(rng)) for _ in range(n - 1))
    return rows, [
        ["energy", path],
        ["check", path],
        correlation,
        ["refine", path, "--free", "all", "--max-iter", "5"],
        pair,
        ["adler-moser", f"--n={n}", f"--tau-list={taus}"],
    ]


# what a chain that misses its gates or roots that miss their bound print
ADLER_MOSER_NONCONVERGENCE = (
    "error: chain polynomial ",
    "error: chain recurrence defect ",
    "error: companion eigenvalues failed",
    "error: roots ",
)


def test_seeded_extreme_inputs_keep_the_exit_code_contract(capsys, tmp_path):
    # positions near 10^+-300 and circulations near 10^+-150, up to 1e200,
    # pairs up to the float range's top and Adler-Moser parameters near
    # 10^+-300, subnormal or zero: every run exits with a documented code,
    # raises nothing and warns nothing, names its failure, exits 4 only from
    # an iteration limit that refine's report shows, a failed
    # linear-algebra solve or a chain or root that misses its gate, and 5
    # only from a degenerate Adler-Moser construction
    rng = random.Random(7)
    failures = []
    runs = 0
    while runs < 1000:
        rows, commands = _fuzz_runs(rng, tmp_path)
        for argv in commands:
            runs += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except Exception as exc:  # a bug: no exception may escape main
                    code = f"raised {exc!r}"
            out, err = capsys.readouterr()
            outcome = (argv[0], argv[1:], rows, code, err[:120])
            if caught:
                failures.append((*outcome, [str(w.message) for w in caught]))
            elif code not in (0, 2, 3, 4, 5):
                failures.append(outcome)
            elif code == 5:
                if not (argv[0] == "adler-moser" and err.endswith("the tau parameters\n")):
                    failures.append(outcome)
            elif code == 4:
                stopped = argv[0] == "refine" and json.loads(out)["converged"] is False
                unbuilt = argv[0] == "adler-moser" and err.startswith(ADLER_MOSER_NONCONVERGENCE)
                if not (stopped or unbuilt or err.startswith("error: SVD did not converge")):
                    failures.append(outcome)
            elif code != 0 and not err.startswith("error: "):
                failures.append(outcome)
    assert failures == []


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
