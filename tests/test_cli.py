import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrolab
from entrolab.cli import main


def run_cli(tmp_path, task, config, *extra):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([task, "--config", str(cfg), "--out", str(out), *extra])
    report = None
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
    return code, out, report


def test_spectral_entropy_task(tmp_path):
    code, _, report = run_cli(
        tmp_path,
        "spectral-entropy",
        {"operator": {"kind": "diagonal", "eigenvalues": {"rule": "geometric", "first": 1.5, "ratio": 0.5}}},
    )
    assert code == 0
    assert report["h_top"] == math.log(1.5)
    assert report["schema_version"] == 1
    assert len(report["config_hash"]) == 64


def test_estimate_entropy_task_outputs(tmp_path):
    config = {
        "operator": {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2]}},
        "space": {"kind": "lp", "p": 2},
        "sample": {"kind": "grid", "shape": [256]},
        "n_range": {"lo": 1, "hi": 7},
        "eps_list": [0.0625, 0.03125],
    }
    code, out, report = run_cli(tmp_path, "estimate-entropy", config)
    assert code == 0
    h = report["estimate"]["h_estimate"]
    assert abs(h - math.log(2)) <= 0.1 * math.log(2)
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "n,epsilon,s,method,saturated"
    assert (out / "plot.csv").exists()
    assert (out / "chart_eps0.svg").read_text().startswith("<svg")
    assert (out / "chart_eps1.svg").exists()


def test_reports_byte_identical(tmp_path):
    config = {
        "operator": {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2]}},
        "sample": {"kind": "grid", "shape": [128]},
        "n_range": {"lo": 1, "hi": 5},
        "eps_list": [0.125],
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        assert main(["estimate-entropy", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1] == outs[2]


def test_shadow_task_certified(tmp_path):
    config = {
        "weights": {"rule": "const", "value": 2},
        "epsilon": 0.1,
        "random_schedules": {"count": 10, "max_segments": 3},
    }
    code, _, report = run_cli(tmp_path, "shadow", config, "--seed", "7", "--require-certified")
    assert code == 0
    assert report["all_certified"] is True
    assert report["count"] == 10


def test_shadow_task_requires_seed(tmp_path):
    config = {
        "weights": {"rule": "const", "value": 2},
        "epsilon": 0.1,
        "random_schedules": {"count": 2},
    }
    code, _, _ = run_cli(tmp_path, "shadow", config)
    assert code == 2


def test_shadow_uncertified_exit_code(tmp_path):
    # gap 2 gives 2^-2 = 0.25 tail coverage, far above eps = 0.1: the wide
    # target cannot be shadowed that tightly, so the report is uncertified
    config = {
        "weights": {"rule": "const", "value": 2},
        "epsilon": 0.1,
        "schedule": {
            "gap": 2,
            "segments": [{"a": 0, "b": 0, "y": [[1, 0], [1, 0], [1, 0], [1, 0], [1, 0]]}],
        },
    }
    code, _, report = run_cli(tmp_path, "shadow", config, "--require-certified")
    assert code == 4
    assert report["all_certified"] is False
    code2, _, _ = run_cli(tmp_path, "shadow", config)
    assert code2 == 0  # without the flag the uncertified report is still written


def test_embed_shift_task(tmp_path):
    config = {
        "alphabet": 2,
        "depth": 6,
        "weights": {"rule": "const", "value": 2},
        "space": {"kind": "lp", "p": "inf"},
        "eps_list": [0.4, 0.2, 0.1],
    }
    code, _, report = run_cli(tmp_path, "embed-shift", config)
    assert code == 0
    assert report["conjugacy_max_deviation"] == 0.0
    assert abs(report["estimate"]["h_estimate"] - math.log(2)) <= 0.1 * math.log(2)


def test_sp_lower_bound_task(tmp_path):
    config = {"m": 2, "epsilon": 0.1, "k": 1}
    code, _, report = run_cli(tmp_path, "sp-lower-bound", config)
    assert code == 0
    assert report["N"] == 4
    assert report["lower_bound"] == math.log(2) / 5


def test_sp_lower_bound_builds_family(tmp_path):
    config = {"m": 3, "epsilon": 0.1, "build_family": {"n": 2}}
    code, out, report = run_cli(tmp_path, "sp-lower-bound", config)
    assert code == 0
    family = report["family"]
    assert (family["size"], family["verification"], report["certified"]) == (9, "direct", True)
    assert family["min_pairwise"] > 0.1
    first = (out / "report.json").read_bytes()
    assert run_cli(tmp_path, "sp-lower-bound", config)[0] == 0
    assert (out / "report.json").read_bytes() == first
    assert run_cli(tmp_path, "sp-lower-bound", config, "--require-certified")[0] == 0


def test_splitting_task(tmp_path):
    config = {"operator": {"kind": "dense", "entries": [[2, 0, 0], [0, 1, 0], [0, 0, 0.5]]}}
    code, _, report = run_cli(tmp_path, "splitting", config)
    assert code == 0
    assert [report[k]["dim"] for k in ("unstable", "center", "stable")] == [1, 1, 1]
    assert report["residual"] < 1e-9


def test_variational_gap_task(tmp_path):
    config = {"operator": {"kind": "dense", "entries": [[2, 0], [0, 0.5]]}}
    code, _, report = run_cli(tmp_path, "variational-gap", config)
    assert code == 0
    assert report["h_top"] == math.log(2)
    assert report["best_h_mu"] == 0.0
    assert report["gap"] == math.log(2)
    assert "periodic-orbit" in report["scope_note"]


def test_shadow_complex_weights(tmp_path):
    # weight 2i maps real coordinates to imaginary ones: the real part of an
    # image is exactly zero while its modulus stays normal
    config = {
        "weights": {"rule": "const", "value": [0, 2]},
        "epsilon": 0.1,
        "random_schedules": {"count": 6, "max_segments": 3},
    }
    code, _, report = run_cli(tmp_path, "shadow", config, "--seed", "5")
    assert code == 0
    assert report["count"] == 6


@pytest.mark.parametrize("weight, gap", [(10, 160), (2, 520)])
def test_shadow_long_period(tmp_path, weight, gap):
    # the periodised images shrink by weight^period per period, past the
    # normal range: their tails round toward zero and the shadow is built
    config = {
        "weights": {"rule": "const", "value": weight},
        "epsilon": 0.1,
        "schedule": {"gap": gap, "segments": [{"a": 0, "b": 0, "y": [[0.5, 0]] * 3}]},
    }
    code, _, report = run_cli(tmp_path, "shadow", config)
    assert code == 0
    assert report["reports"][0]["period"] == gap


def test_validation_exit_codes(tmp_path):
    code, _, _ = run_cli(tmp_path, "spectral-entropy", {"operator": {"kind": "mystery"}})
    assert code == 2
    assert main(["spectral-entropy", "--out", str(tmp_path / "x")]) == 2
    assert main(["spectral-entropy", "--config", str(tmp_path / "missing.json")]) == 2
    # malformed fields are refused where they are read, not by a traceback
    diag2 = {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2]}}
    estimate = {"operator": diag2, "sample": {"kind": "grid", "shape": [9]},
                "n_range": {"lo": 1, "hi": 4}, "eps_list": [0.1]}
    schedule = {"gap": 8, "segments": [{"a": 0, "b": 0, "y": [[0.5, 0]]}]}
    malformed = [
        ("embed-shift", {"N": 0, "depth": 2}),
        ("embed-shift", {"depth": 2}),
        ("estimate-entropy", {**estimate, "n_range": {"lo": 1}}),
        ("estimate-entropy", {**estimate, "n_window": [1]}),
        ("estimate-entropy", {**estimate, "eps_list": ["x"]}),
        ("spectral-entropy", {"operator": {"kind": "backward_shift"}}),
        ("spectral-entropy", {"operator": {"kind": "diagonal", "eigenvalues": {"rule": "geometric"}}}),
        ("spectral-entropy", {"operator": {"kind": "power", "base": diag2, "m": "x"}}),
        ("estimate-entropy", {**estimate, "n_range": 5}),
        ("estimate-entropy", {**estimate, "n_window": ["a", 3]}),
        ("estimate-entropy", {**estimate, "sample": {"kind": "grid", "shape": ["x"]}}),
        ("embed-shift", {"N": 2, "depth": "x"}),
        ("shadow", {"epsilon": "x", "schedule": schedule}),
        ("sp-lower-bound", {"epsilon": "x", "m": 2}),
        ("sp-lower-bound", {"N": "x", "m": 2}),
        ("sp-lower-bound", {"N": 4, "m": "x"}),
        ("sp-lower-bound", {"N": 4, "m": 2, "k": "x"}),
        ("sp-lower-bound", {"N": 4, "m": 2, "build_family": {"n": "x"}}),
        ("sp-lower-bound", {"N": 4, "m": 2, "build_family": {"n": 2, "dim": "x"}}),
        ("estimate-entropy", {**estimate, "eps_list": 0.1}),
        ("estimate-entropy", {**estimate, "sample": {"kind": "grid", "shape": 9}}),
        ("estimate-entropy", {**estimate, "sample": {"kind": "explicit", "points": 5}}),
        ("embed-shift", {"N": 2, "depth": 2, "eps_list": 0.1}),
        ("shadow", {"random_schedules": 3}, "--seed", "1"),
        # zero schedules made a vacuous certificate ("all_certified": true, exit
        # 0), and no segments a numpy ValueError
        ("shadow", {"random_schedules": {"count": 0}}, "--seed", "1", "--require-certified"),
        ("shadow", {"random_schedules": {"count": -2}}, "--seed", "1"),
        ("shadow", {"random_schedules": {"max_segments": 0}}, "--seed", "1"),
        ("estimate-entropy", {**estimate, "sample": {"kind": "grid", "shape": [-3]}}),
        ("estimate-entropy", {**estimate, "sample": {"kind": "grid", "shape": []}}),
        ("sp-lower-bound", {"N": 4, "m": 2, "build_family": 3}),
    ]
    for task, config, *extra in malformed:
        code, _, report = run_cli(tmp_path, task, config, *extra)
        assert (task, config, code, report) == (task, config, 2, None)


@pytest.mark.parametrize("operator", [
    {"kind": "backward_shift", "weights": {"rule": "const", "value": 2}},
    {"kind": "scaled", "alpha": 2, "inner": {"kind": "backward_shift", "weights": {"rule": "const", "value": 1}}},
])
def test_spectral_entropy_refuses_disc_spectrum(tmp_path, operator):
    # a constant-weight shift (weights 2, and the Rolewicz operator 2B) has the
    # closed disc as spectrum and no eigenvalue list to sum over
    run_cli(tmp_path, "spectral-entropy", {"operator": operator})
    env = dict(os.environ, PYTHONPATH=str(Path(entrolab.__file__).parents[1]))
    argv = ["spectral-entropy", "--config", str(tmp_path / "exp.json"), "--out", str(tmp_path / "o")]
    run = subprocess.run([sys.executable, "-m", "entrolab.cli", *argv], capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert "disc" in run.stderr and "Traceback" not in run.stderr
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("operator", [
    # Infinity was reported as h_top = inf with tail_certified true, NaN as
    # h_top = log 2 with a NaN spectral radius, both with exit 0
    {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [math.inf, 2]}},
    {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [math.nan, 2]}},
    {"kind": "scaled", "alpha": math.nan,
     "inner": {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2]}}},
])
def test_non_finite_operator_parameter_exit_code(tmp_path, operator):
    assert run_cli(tmp_path, "spectral-entropy", {"operator": operator})[::2] == (2, None)


@pytest.mark.parametrize("resolution", [math.inf, 0.0])
def test_sample_resolution_exit_code(tmp_path, resolution):
    # an infinite resolution would be written as the non-JSON token Infinity
    config = {"operator": {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2]}},
              "n_range": {"lo": 1, "hi": 4}, "eps_list": [0.1],
              "sample": {"kind": "explicit", "points": [[0.0], [0.5]], "resolution": resolution}}
    assert run_cli(tmp_path, "estimate-entropy", config)[::2] == (2, None)


def test_sample_with_points_equal_by_value_exit_code(tmp_path):
    base = {"operator": {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2, 2]}},
            "n_range": {"lo": 1, "hi": 4}, "eps_list": [0.1]}
    # -0.0 == 0.0, and coordinates beyond a vector's dim are exactly zero
    for points in ([[-0.0], [0.0]], [[1.0], [1.0, 0.0]]):
        config = {**base, "sample": {"kind": "explicit", "points": points}}
        code, _, report = run_cli(tmp_path, "estimate-entropy", config)
        assert (points, code, report) == (points, 2, None)


DOUBLING_GRID = {
    "operator": {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2]}},
    "sample": {"kind": "grid", "shape": [256]},
    "n_range": {"lo": 1, "hi": 7},
    "eps_list": [0.0625, 0.03125],
}


def test_boolean_integer_exit_code(tmp_path):
    # JSON true is not read as 1
    config = {**DOUBLING_GRID, "n_range": {"lo": True, "hi": 7}}
    assert run_cli(tmp_path, "estimate-entropy", config)[::2] == (2, None)


def test_non_integral_integer_exit_code(tmp_path):
    # 2.9 is not read as 2
    config = {**DOUBLING_GRID, "sample": {"kind": "grid", "shape": [2.9]}}
    assert run_cli(tmp_path, "estimate-entropy", config)[::2] == (2, None)


def test_infinite_integer_exit_code(tmp_path):
    # refused where it is read, not by an OverflowError traceback
    config = {**DOUBLING_GRID, "n_range": {"lo": 1, "hi": math.inf}}
    assert run_cli(tmp_path, "estimate-entropy", config)[::2] == (2, None)


def test_nan_float_exit_code(tmp_path):
    # a NaN eps is refused (exit 2), not counted as saturating every column
    config = {**DOUBLING_GRID, "eps_list": [math.nan]}
    assert run_cli(tmp_path, "estimate-entropy", config)[::2] == (2, None)


@pytest.mark.parametrize("gap, bound", [
    (True, 2),  # JSON true is not read as gap 1
    (8, 2.9),  # 2.9 is not read as b = 2
    (math.inf, 2),  # refused, not an OverflowError traceback
    (8, math.nan),  # refused, not a ValueError traceback
])
def test_schedule_number_exit_code(tmp_path, gap, bound):
    schedule = {"gap": gap, "segments": [{"a": 0, "b": bound, "y": [[0.5, 0]]}]}
    config = {"epsilon": 0.1, "schedule": schedule}
    assert run_cli(tmp_path, "shadow", config)[::2] == (2, None)
    schedule["segments"][0]["b"] = 2
    assert run_cli(tmp_path, "shadow", {**config, "schedule": {**schedule, "gap": 8}})[0] == 0


def test_integral_floats_and_infinite_p_are_read(tmp_path):
    # 1.0 and 256.0 read as ints and "p": "inf" as l^inf: the same table
    tables = []
    for name, lo, shape in (("ints", 1, 256), ("floats", 1.0, 256.0)):
        config = {**DOUBLING_GRID, "n_range": {"lo": lo, "hi": 7}, "sample": {"kind": "grid", "shape": [shape]},
                  "space": {"kind": "lp", "p": "inf"}}
        (tmp_path / name).mkdir()
        code, out, _ = run_cli(tmp_path / name, "estimate-entropy", config)
        assert code == 0
        tables.append((out / "table.csv").read_bytes())
    assert tables[0] == tables[1]


def test_saturation_exit_code(tmp_path):
    config = {
        "operator": {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [2]}},
        "sample": {"kind": "grid", "shape": [9]},
        "n_range": {"lo": 1, "hi": 4},
        "eps_list": [1e-6],
    }
    code, _, _ = run_cli(tmp_path, "estimate-entropy", config)
    assert code == 3


def test_verify_task(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) >= 10


# the orbit overflows on purpose and ends in NonFiniteOrbitError
def test_overflowed_orbit_exit_code(tmp_path):
    config = {
        "operator": {"kind": "diagonal", "eigenvalues": {"rule": "explicit", "values": [1e300]}},
        "sample": {"kind": "grid", "shape": [3], "low": 1e10, "high": 3e10},
        "n_range": {"lo": 1, "hi": 3},
        "eps_list": [0.1],
    }
    code, _, report = run_cli(tmp_path, "estimate-entropy", config)
    assert code == 3
    assert report is None
    assert_refused_without_warning(tmp_path, "estimate-entropy")


def assert_refused_without_warning(tmp_path, task):
    """Run the config `run_cli` wrote in a fresh interpreter, which shows
    what a user sees: the exit-3 refusal and no numpy warning."""
    env = dict(os.environ, PYTHONPATH=str(Path(entrolab.__file__).parents[1]))
    argv = [task, "--config", str(tmp_path / "exp.json"), "--out", str(tmp_path / "o")]
    run = subprocess.run([sys.executable, "-m", "entrolab.cli", *argv], capture_output=True, text=True, env=env)
    assert run.returncode == 3
    assert "numerical failure" in run.stderr
    assert "RuntimeWarning" not in run.stderr


def test_overflowed_conjugacy_exit_code(tmp_path):
    # weights 10^n overflow within the 400 conjugacy coordinates
    config = {
        "N": 2,
        "depth": 3,
        "weights": {"rule": "geometric", "first": 10, "ratio": 10},
        "conjugacy_samples": 8,
        "conjugacy_dim": 400,
    }
    code, _, report = run_cli(tmp_path, "embed-shift", config)
    assert code == 3
    assert report is None
    assert_refused_without_warning(tmp_path, "embed-shift")


def test_bad_eigenpair_exit_code(tmp_path, monkeypatch):
    wrong = (np.array([2.0, 5.0], dtype=complex), np.eye(2, dtype=complex))
    monkeypatch.setattr(np.linalg, "eig", lambda a: wrong)
    config = {"operator": {"kind": "dense", "entries": [[2, 0], [0, 3]]}}
    code, _, report = run_cli(tmp_path, "spectral-entropy", config)
    assert code == 3
    assert report is None
