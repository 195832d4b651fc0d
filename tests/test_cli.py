import json
import math

import pytest

from vortexcorr import VortexConfiguration, __version__, energy, residual
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
    assert payload["fit_degenerate"] is True


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
    assert "half the separation" in err


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


def test_adler_moser_root_nonconvergence_exit_4(capsys):
    code, out, err = run_cli(capsys, "adler-moser", "--n", "7", "--tau-list", "1,1,1,1,1,1")
    assert code == 4
    assert err.startswith("error: root iteration did not converge")
    assert "perturbing" not in err


def test_adler_moser_chain_defect_exit_4(capsys):
    code, out, err = run_cli(capsys, "adler-moser", "--n", "8", "--tau-list", "1,1,1,1,1,1,1")
    assert code == 4
    assert err.startswith("error: chain recurrence defect")
    assert "Traceback" not in err


def test_adler_moser_n3_refined(capsys):
    code, payload, _ = run_json(
        capsys, "adler-moser", "--n", "3", "--tau-list", "1,1", "--refine"
    )
    assert code == 0
    assert payload["residual"] < 1e-12
    assert payload["converged"] is True


def test_adler_moser_wrong_parameter_count(capsys):
    code, out, err = run_cli(capsys, "adler-moser", "--n", "3", "--tau-list", "1")
    assert code == 2


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


def test_usage_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "no-such-command")
    assert code == 2
