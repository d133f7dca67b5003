"""CLI contract tests: exit codes, manifests, determinism, file contents."""

import argparse
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

import rangepolymer
from rangepolymer import cli, joint_law_exact, ldp_rate_discrete_info, rate_I
from rangepolymer.cli import main

from oracles import rate_reference, speed_reference


def _read(path):
    return path.read_text(encoding="utf-8")


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _assert_published(out, code):
    """A failed run (exit 2 or 3) leaves --out empty; a run that exits 0
    publishes artifacts that hold no nan or inf."""
    found = sorted(out.iterdir())
    if code != 0:
        assert found == []
        return
    assert found
    for path in found:
        assert not _NON_FINITE.search(_read(path)), path.name


def test_constants_row(tmp_path):
    out = tmp_path / "run"
    assert main(["constants", "--beta", "1", "--out", str(out)]) == 0
    header, row = _read(out / "constants.csv").strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["g_dstar"]) == pytest.approx(-1.5)
    assert float(cols["sigma_dstar"]) == pytest.approx(0.57735, abs=1e-5)
    assert float(cols["c_star"]) == pytest.approx(0.868, abs=1e-3)
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["command"] == "constants"
    assert manifest["parameters"]["beta"] == 1.0
    assert "artifact_version" in manifest


def test_constants_beta_eight(tmp_path):
    out = tmp_path / "run"
    assert main(["constants", "--beta", "8", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(_read(out / "constants.json"))
    assert payload["c_dstar"] == pytest.approx(2.0)


def test_rate_curve_zero_at_speed(tmp_path):
    out = tmp_path / "run"
    c_star = 0.86833203774014073374
    assert main(["rate-curves", "--beta", "1", "--model", "discrete",
                 "--grid", f"{c_star},0.3", "--out", str(out)]) == 0
    lines = _read(out / "rate_curve_discrete.csv").strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert abs(float(rows[0][1])) <= 1e-10
    assert rows[1][2] == "interior"


def test_rate_curve_continuous_branch_boundary(tmp_path):
    out = tmp_path / "run"
    thr = (1.0 / 2.0) ** (1.0 / 3.0)
    assert main(["rate-curves", "--beta", "1", "--model", "continuous",
                 "--grid", f"{thr * (1 - 1e-12)},{thr}", "--out", str(out)]) == 0
    lines = _read(out / "rate_curve_continuous.csv").strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][2] == "interior" and rows[1][2] == "boundary"
    assert float(rows[0][1]) == pytest.approx(float(rows[1][1]), abs=1e-10)


def test_exact_partition_n3(tmp_path):
    out = tmp_path / "run"
    assert main(["exact", "--beta", "1", "--n", "3", "--outputs", "Z",
                 "--out", str(out)]) == 0
    payload = json.loads(_read(out / "partition.json"))
    closed = 0.5 * math.exp(-3.0) + 0.5 * math.exp(-4.5)
    assert payload["partition_value"] == pytest.approx(closed, rel=1e-14)


def test_exact_zero_beta_law_is_plain_walk(tmp_path):
    out = tmp_path / "run"
    assert main(["exact", "--beta", "0", "--n", "6", "--outputs", "law",
                 "--out", str(out)]) == 0
    lines = _read(out / "law.csv").strip().splitlines()
    parsed = {}
    for line in lines[1:]:
        x, r, p = line.split(",")
        parsed[(int(x), int(r))] = float(p)
    base = {(x, r): p for x, r, p in joint_law_exact(6).entries()}
    assert parsed == base


def test_exact_zero_beta_ldp_reads_the_walk_rate(tmp_path):
    # the plain walk's rate I(theta), the beta -> 0+ limit of I^beta
    out = tmp_path / "run"
    assert main(["exact", "--beta", "0", "--n", "50", "--outputs", "ldp",
                 "--out", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in _read(out / "ldp.csv").strip().splitlines()[1:]]
    thetas = [row[0] for row in rows]
    assert [row[2] for row in rows] == [rate_I(theta) for theta in thetas]
    assert [row[2] for row in rows] == pytest.approx(
        [row[0] for row in ldp_rate_discrete_info(1e-12, thetas)], abs=1e-7)
    assert [row[3] for row in rows] == [row[1] - row[2] for row in rows]


def test_exact_clt_and_ldp_outputs(tmp_path):
    out = tmp_path / "run"
    assert main(["exact", "--beta", "1", "--n", "100",
                 "--outputs", "clt,ldp,free-energy", "--grid", "0.5,0.95",
                 "--n-grid", "50,100", "--out", str(out)]) == 0
    clt = json.loads(_read(out / "clt.json"))
    assert 0.0 < clt["ks_distance"] < 1.0
    ldp_lines = _read(out / "ldp.csv").strip().splitlines()
    assert len(ldp_lines) == 3
    fe_lines = _read(out / "free_energy.csv").strip().splitlines()
    assert fe_lines[0] == "n,free_energy,g_star,error"


def test_continuous_outputs(tmp_path):
    out = tmp_path / "run"
    assert main(["continuous", "--beta", "1", "--t", "40",
                 "--outputs", "Z,range-clt", "--grid=-8,0",
                 "--out", str(out)]) == 0
    z = json.loads(_read(out / "partition_continuous.json"))
    assert 0.9 <= z["ratio_to_asymptote"] <= 1.1
    lines = _read(out / "range_clt.csv").strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-3)
    assert float(rows[1][1]) == pytest.approx(0.5, abs=0.03)


def test_continuous_density_curve(tmp_path):
    out = tmp_path / "run"
    assert main(["continuous", "--beta", "1", "--t", "1",
                 "--outputs", "density", "--r-grid", "1.0,1.5,2.0",
                 "--out", str(out)]) == 0
    lines = _read(out / "range_density.csv").strip().splitlines()
    assert lines[0] == "argument,value,error_bound"
    arg, value, bound = (float(v) for v in lines[1].split(","))
    assert arg == 1.0 and value > 0.0 and bound >= 0.0
    from rangepolymer import range_density

    assert value == range_density(1.0, 1.0).value


def test_mc_tilted_determinism_byte_identical(tmp_path):
    args = ["mc", "tilted", "--beta", "1", "--n", "200", "--seed", "7",
            "--samples", "5000"]
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert main(args + ["--out", str(out3), "--threads", "3"]) == 0
    # identical config -> every byte identical, manifest included
    assert _read(out1 / "estimate.json") == _read(out2 / "estimate.json")
    assert _read(out1 / "manifest.json") == _read(out2 / "manifest.json")
    # different worker count -> identical estimates, manifest echoes threads
    assert _read(out1 / "estimate.json") == _read(out3 / "estimate.json")


def test_mc_corollary_reports_bound(tmp_path):
    out = tmp_path / "run"
    assert main(["mc", "corollary", "--beta", "2", "--d", "2", "--n", "60",
                 "--seed", "3", "--samples", "4000", "--out", str(out)]) == 0
    payload = json.loads(_read(out / "corollary.json"))
    assert payload["bound"] == pytest.approx(0.5906, abs=5e-4)


def test_mc_brownian_outputs(tmp_path):
    out = tmp_path / "run"
    assert main(["mc", "brownian", "--t", "1", "--dt", "1e-4", "--seed", "2",
                 "--samples", "1500", "--out", str(out)]) == 0
    payload = json.loads(_read(out / "brownian.json"))
    assert 0.4 <= payload["positive_fraction"] <= 0.6
    lines = _read(out / "histograms.csv").strip().splitlines()
    assert lines[0] == "kind,lo,hi,density,std_error"


def test_threads_default_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("RANGE_POLYMER_THREADS", "3")
    out = tmp_path / "run"
    assert main(["mc", "tilted", "--beta", "1", "--n", "50", "--seed", "1",
                 "--samples", "2000", "--out", str(out)]) == 0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["parameters"]["threads"] == 3


def test_exit_codes(tmp_path):
    out = str(tmp_path / "x")
    assert main(["constants", "--beta", "-1", "--out", out]) == 2
    assert main(["exact", "--beta", "1", "--n", "1000", "--outputs", "Z",
                 "--out", out]) == 3
    assert main(["bogus"]) == 1
    assert main(["constants"]) == 1  # missing --beta
    # a removed subcommand is a usage error that writes nothing
    gone = tmp_path / "gone"
    assert main(["mc", "flory", "--beta", "1", "--seed", "1", "--samples", "10",
                 "--out", str(gone)]) == 1
    assert not gone.exists()


# Keyed by their place in the list before the speed was solved in logit c,
# when every one of them exited 2.
@pytest.mark.parametrize("argv", [
    pytest.param(["exact", "--beta", "800", "--n", "10", "--outputs", "Z,clt"], id="argv6"),
    pytest.param(["rate-curves", "--model", "continuous", "--beta", "5e-324",
                  "--grid", "0:1:3"], id="argv7"),
    pytest.param(["rate-curves", "--model", "discrete", "--beta", "5e-324",
                  "--grid", "0:1:3"], id="argv8"),
])
def test_extreme_beta_exits_2_without_artifacts(tmp_path, capsys, argv):
    """Betas past what the solvers can resolve stop with one error line: at
    beta = 800 sigma* underflows to 0, and at 5e-324 beta/2 does."""
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if "5e-324" in argv:  # beta/2 underflows: the error names the beta passed
        assert "beta=5e-324" in err
    _assert_published(out, 2)


def _csv_rows(path):
    lines = _read(path).strip().splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


# The betas that exited 2 while the speed was solved in 1 - c with a clamp
# at log(1 - c) = -700, keyed by their place in that list.
@pytest.mark.parametrize("argv", [
    pytest.param(["constants", "--beta", "500"], id="argv0"),
    pytest.param(["constants", "--beta", "800"], id="argv1"),
    pytest.param(["constants", "--beta", "1e16"], id="argv2"),
    pytest.param(["constants", "--beta", "1e300"], id="argv3"),
    pytest.param(["rate-curves", "--model", "discrete", "--beta", "1e300"], id="argv4"),
    pytest.param(["rate-curves", "--model", "discrete", "--beta", "1e-300",
                  "--grid", "0:1:5"], id="argv5"),
])
def test_extreme_beta_exits_0_with_reference_values(tmp_path, argv):
    """Each artifact holds finite values equal to the 80-digit reference."""
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    _assert_published(out, 0)
    beta = float(argv[argv.index("--beta") + 1])
    if argv[0] == "constants":
        row, = _csv_rows(out / "constants.csv")
        c, _, g, sigma = (float(v) for v in speed_reference(beta))
        assert float(row["c_star"]) == pytest.approx(c, rel=1e-13)
        assert float(row["g_star"]) == pytest.approx(g, rel=1e-13)
        # sigma* ~ 2 e^(-beta) underflows to 0 from beta ~ 745
        assert float(row["sigma_star"]) == pytest.approx(sigma, rel=1e-13 * beta)
        return
    rows = _csv_rows(out / "rate_curve_discrete.csv")
    assert len(rows) == (5 if beta < 1.0 else 21)
    for row in rows:
        theta, rate = float(row["theta"]), float(row["rate"])
        assert rate >= 0.0
        assert rate == pytest.approx(float(rate_reference(beta, theta)[1]), rel=1e-12)
        if beta > 1.0 and theta < 1.0:
            # x rounds to 1: r = (1 + theta)/2, I(x) = log 2, g* = -beta - log 2
            assert rate == pytest.approx(beta * (1 - theta) / (1 + theta), rel=1e-12)
            assert float(row["aux_root"]) == (1.0 + theta) / 2


@pytest.mark.parametrize("beta, t", [("1.25e11", "4e-4"), ("1e15", "1e-6")])
def test_exact_radius_at_small_t_writes_no_nan(tmp_path, capsys, beta, t):
    """The exact-radius tilt peaks far below b^(1/3) here: the CLTs are
    finite, and Z's ratio to the surrogate asymptote overflows, so a run
    asking for Z exits 2 with one error line."""
    argv = ["continuous", "--beta", beta, "--t", t, "--exact-radius"]
    out = tmp_path / "clt"
    assert main([*argv, "--outputs", "range-clt,endpoint-clt", "--out", str(out)]) == 0
    _assert_published(out, 0)
    out = tmp_path / "z"
    assert main([*argv, "--outputs", "Z,range-clt,endpoint-clt", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ratio_to_asymptote") and err.count("\n") == 1
    _assert_published(out, 2)


@pytest.mark.parametrize("beta", ["20", "1e4"])
def test_mc_tilted_where_the_speed_rounds_to_one_exits_2(tmp_path, capsys, beta):
    out = tmp_path / "run"
    assert main(["mc", "tilted", "--beta", beta, "--n", "50", "--seed", "1",
                 "--samples", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: beta={float(beta)!r}") and "Traceback" not in err
    _assert_published(out, 2)


def test_mc_tilted_without_a_positive_endpoint_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["mc", "tilted", "--beta", "0", "--n", "1", "--seed", "5",
                 "--samples", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: conditioning event has zero sampled mass\n"
    _assert_published(out, 2)


def test_exact_ldp_rates_stay_finite_where_the_tilt_underflows(tmp_path):
    out = tmp_path / "run"
    assert main(["exact", "--beta", "500", "--n", "50", "--outputs", "Z,free-energy,clt,ldp",
                 "--out", str(out)]) == 0
    _assert_published(out, 0)
    rows = _csv_rows(out / "ldp.csv")
    assert all(float(row["empirical_rate"]) > 0.0 for row in rows)


@pytest.mark.parametrize("grid", ["nan", "0,inf", "-inf:0:3", "1e308:-1e308:3"])
def test_non_finite_clt_grid_exits_2_without_artifacts(tmp_path, capsys, grid):
    out = tmp_path / "run"
    assert main(["continuous", "--beta", "1", "--t", "40",
                 "--outputs", "Z,range-clt,endpoint-clt", f"--grid={grid}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    _assert_published(out, 2)


def test_exact_law_files_byte_identical(tmp_path):
    args = ["exact", "--beta", "1", "--n", "40", "--outputs", "law,Z"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("law.csv", "partition.json", "manifest.json"):
        assert _read(out1 / name) == _read(out2 / name)


def test_cap_override_allows_larger_n(tmp_path):
    out = tmp_path / "run"
    assert main(["exact", "--beta", "1", "--n", "610", "--outputs", "Z",
                 "--cap-override", "650", "--out", str(out)]) == 0
    payload = json.loads(_read(out / "partition.json"))
    assert math.isfinite(payload["log_partition"])


@pytest.mark.parametrize("extra, code", [
    (["--outputs", "law,free-energy", "--n-grid", "inf"], 2),
    (["--outputs", "law,bogus"], 2),
    (["--outputs", "law,ldp", "--grid", "0.5,1.5"], 2),
    (["--outputs", "law,free-energy", "--n-grid", "700"], 3),
    # a cap below 1 is a usage error, not an unset cap or a resource cap
    (["--outputs", "law,Z", "--cap-override=0"], 2),
    (["--n", "610", "--outputs", "law,Z", "--cap-override=-1"], 2),
    # a non-integral size used to be truncated: 10.5 ran as n = 10
    (["--outputs", "law,free-energy", "--n-grid", "10.5,20.9"], 2),
    # each size meets the cap just before its law is built, after the beta check
    (["--beta", "nan", "--n", "700"], 2),
    (["--n", "601"], 3),
    (["--outputs", "free-energy", "--n-grid", "10,700"], 3),
])
def test_exact_failure_writes_no_artifact(tmp_path, capsys, extra, code):
    out = tmp_path / "run"
    assert main(["exact", "--beta", "1", "--n", "10", *extra,
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    _assert_published(out, code)


def test_exact_past_double_range_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["exact", "--beta", "1", "--n", "1034", "--outputs", "law,Z",
                 "--cap-override", "2000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "double range" in err and "Traceback" not in err
    _assert_published(out, 3)


@pytest.mark.parametrize("n", ["20000", str(10**9)])
def test_exact_certain_overflow_exits_3_at_once(tmp_path, capsys, n):
    out = tmp_path / "run"
    start = time.perf_counter()
    code = main(["exact", "--beta", "1", "--n", n, "--outputs", "law,Z",
                 "--cap-override", n, "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    err = capsys.readouterr().err
    assert "double range" in err and "Traceback" not in err
    _assert_published(out, code)


def test_bad_threads_variable_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RANGE_POLYMER_THREADS", "abc")
    argv = ["mc", "tilted", "--beta", "1", "--n", "20", "--seed", "1", "--samples", "100"]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == \
        ["error: argument --threads: invalid int value: 'abc'"]
    assert not out.exists()
    # an explicit --threads overrides the variable
    assert main([*argv, "--threads", "2", "--out", str(out)]) == 0
    assert json.loads(_read(out / "manifest.json"))["parameters"]["threads"] == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, threads):
    argv = ["mc", "tilted", "--beta", "1", "--n", "20", "--seed", "1", "--samples", "100"]
    out = tmp_path / "run"
    assert main([*argv, f"--threads={threads}", "--out", str(out)]) == 1
    monkeypatch.setenv("RANGE_POLYMER_THREADS", threads)
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == \
        [f"error: argument --threads: need at least 1, got {int(threads)}"] * 2
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["tilted", "--beta", "1", "--n", "50", "--samples", "1000"],
    ["corollary", "--beta", "1", "--d", "2", "--n", "20", "--samples", "100"],
    ["brownian", "--t", "1", "--dt", "1e-4", "--samples", "10"],
])
@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
def test_seed_outside_64_bits_exits_2_without_artifacts(tmp_path, capsys, command, seed):
    # reduced mod 2^64, 2^64 wrote seed 0's estimate and -1 that of 2^64 - 1
    out = tmp_path / "run"
    assert main(["mc", *command, f"--seed={seed}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: seed must be an integer in [0, 2^64), got {seed}\n"
    _assert_published(out, 2)


def test_largest_seed_runs(tmp_path):
    out = tmp_path / "run"
    assert main(["mc", "tilted", "--beta", "1", "--n", "50", "--samples", "1000",
                 f"--seed={2**64 - 1}", "--out", str(out)]) == 0
    assert json.loads(_read(out / "manifest.json"))["parameters"]["seed"] == 2**64 - 1


@pytest.mark.parametrize("module", ["rangepolymer", "rangepolymer.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    src = str(Path(rangepolymer.__file__).resolve().parent.parent)
    out = tmp_path / "run"
    done = subprocess.run([sys.executable, "-m", module, "constants", "--beta", "1",
                           "--out", str(out)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stderr == ""
    # the same bytes as a run through main()
    ref = tmp_path / "ref"
    assert main(["constants", "--beta", "1", "--out", str(ref)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["constants.csv", "manifest.json"]
    for name in ("constants.csv", "manifest.json"):
        assert _read(out / name) == _read(ref / name)
    assert json.loads(_read(out / "manifest.json"))["outputs"] == ["constants.csv"]


def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "file"
    path.write_text("keep\n")
    assert main(["constants", "--beta", "1", "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert _read(path) == "keep\n"


@pytest.mark.parametrize("args", [
    ["brownian", "--t", "1", "--dt", "nan", "--samples", "10"],
    ["brownian", "--t", "1", "--dt", "0", "--samples", "10"],
    ["brownian", "--t", "1", "--dt=-1e-4", "--samples", "10"],
    ["brownian", "--t", "inf", "--dt", "1e-4", "--samples", "10"],
    ["brownian", "--t", "1", "--dt", "1e-4", "--samples", "0"],
    ["tilted", "--beta", "1", "--n", "20", "--observable", "endpoint_cdf",
     "--c-point", "nan", "--samples", "100"],
    ["corollary", "--beta", "nan", "--d", "2", "--n", "20", "--samples", "10"],
    ["corollary", "--beta", "1", "--d", "2", "--n", "20", "--samples", "0"],
    ["tilted", "--beta", "1", "--n", "0", "--samples", "100"],
    ["corollary", "--beta", "1", "--d", "2", "--n", "0", "--samples", "10"],
    ["tilted", "--beta", "1", "--n", "20", "--samples", "1"],
    ["tilted", "--beta", "-1", "--n", "20", "--samples", "100"],
    ["corollary", "--beta", "1", "--d", "1", "--n", "20", "--samples", "10"],
])
def test_mc_bad_input_exits_2_without_artifacts(tmp_path, capsys, args):
    out = tmp_path / "run"
    assert main(["mc", *args, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    _assert_published(out, 2)


@pytest.mark.parametrize("extra", [
    ["--outputs", "Z,bogus"],
    ["--outputs", "Z,density", "--r-grid", "1,nan"],
    ["--outputs", "Z,density", "--t", "-4"],
    ["--outputs", "density,Z", "--beta", "-1"],
])
def test_continuous_failure_writes_no_artifact(tmp_path, capsys, extra):
    out = tmp_path / "run"
    assert main(["continuous", "--beta", "1", "--t", "4", *extra,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    _assert_published(out, 2)


@pytest.mark.parametrize("args", [
    ["constants", "--beta", "inf"],
    ["constants", "--beta", "nan"],
    ["rate-curves", "--beta", "inf", "--model", "discrete"],
    ["rate-curves", "--beta", "inf", "--model", "continuous"],
    ["exact", "--beta", "nan", "--n", "10", "--outputs", "Z"],
    ["exact", "--beta", "inf", "--n", "10", "--outputs", "Z"],
    ["continuous", "--beta", "inf", "--t", "4", "--outputs", "Z"],
    ["continuous", "--beta", "1", "--t", "inf", "--outputs", "Z"],
    ["continuous", "--beta", "1", "--t", "inf", "--outputs", "density"],
    ["mc", "tilted", "--beta", "inf", "--n", "20", "--seed", "1", "--samples", "100"],
    ["mc", "tilted", "--beta", "1", "--n", "20", "--observable", "endpoint_cdf",
     "--c-point", "inf", "--seed", "1", "--samples", "100"],
    ["mc", "corollary", "--beta", "inf", "--d", "2", "--n", "10", "--seed", "1",
     "--samples", "10"],
    ["mc", "brownian", "--t", "1e300", "--dt", "1e-10", "--seed", "1", "--samples", "10"],
    # an empty grid evaluates no theta, and the density output reads no beta
    ["rate-curves", "--beta", "nan", "--model", "discrete", "--grid", ","],
    ["rate-curves", "--beta", "nan", "--model", "continuous", "--grid", ","],
    ["continuous", "--beta", "nan", "--t", "4", "--outputs", "density"],
    # beta n^2 past the double range made every log-weight -inf: NaN
    # artifacts from exact, a traceback from mc corollary
    ["exact", "--beta", "2e304", "--n", "400", "--outputs", "Z"],
    ["exact", "--beta", "1e307", "--n", "10", "--outputs", "free-energy"],
    ["mc", "corollary", "--beta", "1e307", "--d", "2", "--n", "10", "--seed", "1",
     "--samples", "10"],
])
def test_non_finite_parameter_exits_2_without_artifacts(tmp_path, capsys, args):
    out = tmp_path / "run"
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "finite" in err or "overflows" in err
    _assert_published(out, 2)


@pytest.mark.parametrize("grid", ["0:1:x", "0:1", "0:1:2:3", "a:1:3", "0,x", "0:1:1.5"])
def test_malformed_grid_exits_2_without_artifacts(tmp_path, capsys, grid):
    out = tmp_path / "run"
    assert main(["rate-curves", "--beta", "1", "--model", "discrete",
                 f"--grid={grid}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed grid") and "Traceback" not in err
    _assert_published(out, 2)


def test_brownian_step_cap_exits_3_at_once(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["mc", "brownian", "--t", "1e12", "--dt", "1e-4", "--seed", "1",
                 "--samples", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "exceeds the cap" in err and "Traceback" not in err
    _assert_published(out, 3)


@pytest.mark.parametrize("args", [["--beta", "1e300", "--t", "4"],
                                  ["--beta", "1", "--t", "1e300"]])
def test_quadrature_past_the_node_cap_exits_3(tmp_path, capsys, args):
    out = tmp_path / "run"
    assert main(["continuous", *args, "--outputs", "Z", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "exceed the cap" in err and "Traceback" not in err
    _assert_published(out, 3)


def test_quadratures_at_small_b_write_finite_rows(tmp_path, capsys):
    """b = beta t^(3/2) = 8e-4: the window used to start at the cutoff
    c** t/2, below the series floor, and the run exited 2."""
    out = tmp_path / "run"
    assert main(["continuous", "--beta", "1e-4", "--t", "4",
                 "--outputs", "Z,range-clt,endpoint-clt", "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    _assert_published(out, 0)
    z = json.loads(_read(out / "partition_continuous.json"))
    assert 0.999 < z["value"] < 1.0
    for name in ("range_clt.csv", "endpoint_clt.csv"):
        rows = _read(out / name).strip().splitlines()[1:]
        assert len(rows) == 5
        assert all(0.0 <= float(row.split(",")[1]) <= 1.0 for row in rows)


def test_density_far_past_its_mass_is_zero(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["continuous", "--beta", "1", "--t", "4", "--outputs", "density",
                 "--r-grid", "1e300", "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    _assert_published(out, 0)
    lines = _read(out / "range_density.csv").strip().splitlines()
    assert [float(v) for v in lines[1].split(",")] == [1e300, 0.0, 0.0]


_HUGE_D = str(10**400)


@pytest.mark.parametrize("args, code", [
    # the unit-ball volume w_(d-1) underflows to 0.0: ZeroDivisionError at
    # d = 1500, RecursionError from d = 1999 on
    (["constants", "--beta", "1", "--d", "1500"], 2),
    (["constants", "--beta", "1", "--d", "1999"], 2),
    (["constants", "--beta", "1", "--d", _HUGE_D], 2),
    (["constants", "--beta", "1", "--d", "300"], 0),
    # the packing bound formed (2n + 1)^d and hung
    (["mc", "corollary", "--beta", "1", "--d", _HUGE_D, "--n", "10", "--seed", "1",
      "--samples", "10"], 2),
    # r^2 underflowed in the range kernel: 14 NaN rows and two RuntimeWarnings
    (["continuous", "--beta", "1", "--t", "5e-324", "--outputs", "density"], 0),
    # the 'a:b:k' list was built first: MemoryError, or the OOM killer
    (["rate-curves", "--beta", "1", "--model", "continuous",
      "--grid", "0:1:1000000000000"], 3),
    # the first draw asked for 14.6 TiB and 14.9 GiB: _ArrayMemoryError
    (["mc", "tilted", "--beta", "1", "--n", "1000000000000", "--seed", "1",
      "--samples", "2"], 3),
    (["mc", "corollary", "--beta", "1", "--d", "2", "--n", "1000000000", "--seed", "1",
      "--samples", "2"], 3),
    # the cap's message formed samples * t/dt as a float: OverflowError
    (["mc", "brownian", "--t", "1", "--dt", "1e-4", "--seed", "1", "--samples", _HUGE_D], 3),
    # the exact-radius peak solve squared k = 2/(beta^(1/3) t), 2e160 and 2e200
    # here: OverflowError
    (["continuous", "--beta", "1", "--t", "1e-160", "--exact-radius"], 0),
    (["continuous", "--beta", "1e300", "--t", "1e-300", "--exact-radius"], 0),
])
def test_extreme_input_exits_cleanly_and_at_once(tmp_path, capsys, args, code):
    out = tmp_path / "run"
    start = time.perf_counter()
    assert main([*args, "--out", str(out)]) == code
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") if code else err == ""
    _assert_published(out, code)


@pytest.mark.parametrize("args", [
    ["rate-curves", "--beta", "1", "--model", "discrete"],
    ["continuous", "--beta", "1", "--t", "4"],
    ["mc", "brownian", "--t", "1", "--dt", "1e-4", "--seed", "1", "--samples", "10"],
])
def test_format_only_where_honoured(tmp_path, args):
    out = tmp_path / "run"
    assert main([*args, "--format", "json", "--out", str(out)]) == 1
    assert not out.exists()


def test_exact_format_selects_the_law_table_only(tmp_path):
    out = tmp_path / "run"
    assert main(["exact", "--beta", "1", "--n", "10", "--outputs", "law,ldp",
                 "--format", "json", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["law.json", "ldp.csv",
                                                    "manifest.json"]


def test_failure_mid_command_leaves_out_as_it_was(tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    (out / "sentinel.txt").write_bytes(b"kept\n")

    def fail(path, payload):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_json", fail)
    with pytest.raises(OSError, match="disk full"):
        main(["mc", "brownian", "--t", "1", "--dt", "1e-4", "--seed", "1",
              "--samples", "10", "--out", str(out)])
    assert [p.name for p in out.iterdir()] == ["sentinel.txt"]
    assert (out / "sentinel.txt").read_bytes() == b"kept\n"


def test_manifest_lists_each_output_once(tmp_path):
    out = tmp_path / "run"
    assert main(["exact", "--beta", "1", "--n", "10", "--outputs", "Z,Z",
                 "--out", str(out)]) == 0
    manifest = json.loads(_read(out / "manifest.json"))
    assert manifest["outputs"] == ["partition.json"]
    assert manifest["parameters"]["outputs"] == "Z,Z"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "partition.json"]


def _subparser_dests(command):
    """The option ``dest``s of the subparser that ``command`` names."""
    parser = cli._build_parser()
    for name in command.split():
        [action] = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
        parser = action.choices[name]
    return {a.dest for a in parser._actions} - {"help", "out"}


def _argv_from_manifest(manifest):
    """The command line a manifest records: ``--opt=value`` so that negative
    numbers parse, a true flag bare, a false flag and a None value left out."""
    argv = manifest["command"].split()
    for key, value in manifest["parameters"].items():
        option = "--" + key.replace("_", "-")
        if value is True:
            argv.append(option)
        elif value is not None and value is not False:
            argv.append(f"{option}={value}")
    return argv


@pytest.mark.parametrize("argv", [
    ["constants", "--beta", "1", "--format", "json"],
    ["rate-curves", "--beta", "1", "--model", "discrete", "--grid", "0:1:5"],
    ["exact", "--beta", "1", "--n", "30", "--outputs", "Z,free-energy",
     "--n-grid", "10,20,30"],
    ["continuous", "--beta", "1", "--t", "4", "--exact-radius"],
    ["mc", "tilted", "--beta", "1", "--n", "50", "--observable", "endpoint_cdf",
     "--c-point=-0.3", "--seed", "1", "--samples", "2000"],
    ["mc", "corollary", "--beta", "1", "--d", "2", "--n", "10", "--seed", "1",
     "--samples", "500"],
    ["mc", "brownian", "--t", "1", "--dt", "1e-4", "--seed", "1", "--samples", "50"],
], ids=["constants", "rate-curves", "exact", "continuous", "mc-tilted", "mc-corollary",
        "mc-brownian"])
def test_a_manifest_reproduces_its_run(tmp_path, argv):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--out", str(out1)]) == 0
    manifest = json.loads(_read(out1 / "manifest.json"))
    assert set(manifest["parameters"]) == _subparser_dests(manifest["command"])
    assert main([*_argv_from_manifest(manifest), "--out", str(out2)]) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert sorted(p.name for p in out2.iterdir()) == files
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# Ordinary values half the time; otherwise NaN, infinities, signs, zero and
# magnitudes far past what any solver can handle.
_REALS = st.sampled_from(["0.5", "1", "2"]) | st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "1e-300", "800", "1e300", "1e307"])
_GRIDS = st.one_of(
    st.sampled_from(["0:1:5", "0:1:x", "0:1", "0:1:0", "nan", "0,inf", ",", "x"]),
    st.lists(st.floats(-1e300, 1e300) | _REALS.map(float), max_size=3)
    .map(lambda vs: ",".join(map(repr, vs))),
)
_SMALL_NS = st.sampled_from(["-2", "0", "1", "2", "5", "30"])
_SAMPLES = st.sampled_from(["0", "1", "2", "50"])
_THREADS = st.sampled_from(["1", "2"])


def _opt(flag, values):
    """``[flag=value]`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def _flag(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


def _names(choices):
    return st.lists(st.sampled_from([*choices, "bogus"]), min_size=1, max_size=4) \
        .map(",".join)


# Philox keys hold 64 bits; seeds past either end must exit 2, not alias
_SEED = _flag("--seed", (st.integers(0, 2**64 - 1)
                         | st.integers(-2**70, -1) | st.integers(2**64, 2**70)).map(str))
_COMMANDS = st.one_of(
    _argv(st.just(["constants"]), _flag("--beta", _REALS),
          _opt("--d", st.sampled_from(["-1", "0", "1", "2", "3"])),
          _opt("--format", st.sampled_from(["csv", "json"]))),
    _argv(st.just(["rate-curves"]), _flag("--beta", _REALS),
          _flag("--model", st.sampled_from(["discrete", "continuous"])),
          _opt("--grid", _GRIDS)),
    _argv(st.just(["exact"]), _flag("--beta", _REALS),
          _flag("--n", st.sampled_from(["-1", "0", "1", "3", "12", "30", "700", "1034",
                                         "20000"])),
          _flag("--outputs", _names(cli._EXACT_OUTPUTS)),
          _opt("--grid", _GRIDS), _opt("--n-grid", _GRIDS),
          _opt("--cap-override", st.sampled_from(["-1", "0", "5", "1100", "20000"])),
          _opt("--format", st.sampled_from(["csv", "json"]))),
    _argv(st.just(["continuous"]), _flag("--beta", _REALS),
          _flag("--t", st.sampled_from(["nan", "inf", "-1", "0", "1e-300", "1", "4",
                                        "1e300"])),
          _flag("--outputs", _names(cli._CONTINUOUS_OUTPUTS)),
          _opt("--grid", _GRIDS), _opt("--r-grid", _GRIDS),
          st.sampled_from([[], ["--exact-radius"]])),
    _argv(st.just(["mc", "tilted"]), _flag("--beta", _REALS), _flag("--n", _SMALL_NS),
          _opt("--observable", st.sampled_from(["endpoint_mean", "endpoint_mean_positive",
                                                "range_mean", "endpoint_cdf"])),
          _opt("--c-point", _REALS), _SEED, _flag("--samples", _SAMPLES),
          _flag("--threads", _THREADS)),
    _argv(st.just(["mc", "corollary"]), _flag("--beta", _REALS),
          _flag("--d", st.sampled_from(["1", "2", "3"])), _flag("--n", _SMALL_NS),
          _SEED, _flag("--samples", _SAMPLES), _flag("--threads", _THREADS)),
    _argv(st.just(["mc", "brownian"]),
          _flag("--t", st.sampled_from(["nan", "inf", "-1", "0", "1", "2", "1e12"])),
          _flag("--dt", st.sampled_from(["nan", "0", "-1e-4", "1e-4", "1e-3", "1e-300"])),
          _SEED, _flag("--samples", _SAMPLES), _flag("--threads", _THREADS)),
)


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_COMMANDS)
# the beta = 0 analytic rate, and a continuous rate past theta ~ 1.9e154
@example(argv=["exact", "--beta=0", "--n=50", "--outputs=ldp"])
@example(argv=["rate-curves", "--beta=1", "--model=continuous", "--grid=1e300"])
def test_any_invocation_publishes_all_or_nothing(argv):
    """main returns a documented exit code, and --out holds the whole run or
    nothing; a whole run holds no nan or inf and echoes a seed in [0, 2^64)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        code = main([*argv, "--out", str(out)])
        event(f"{argv[0]}: exit {code}")
        found = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if code == 0:
            manifest = json.loads(_read(out / "manifest.json"))
            assert found == sorted([*manifest["outputs"], "manifest.json"])
            assert manifest["outputs"]
            assert 0 <= manifest["parameters"].get("seed", 0) < 2**64
            _assert_published(out, code)
        else:
            assert code in (1, 2, 3)
            assert found == []


def test_benchmark_selftest_passes():
    """The benchmark tracer wraps library functions by name; its self-test
    fails if a rename breaks ``--trace 1``."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "clibench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def test_every_exported_name_resolves():
    """The benchmark tracer reads each layer's ``__all__`` and skips a name
    that does not resolve, so a stale entry would go unnoticed there."""
    layers = ("cli", "exact", "density", "mc", "discrete", "continuous", "roots")
    for mod in [rangepolymer, *(importlib.import_module(f"rangepolymer.{layer}")
                                for layer in layers)]:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], mod.__name__


def test_traced_spans_name_wrapped_functions():
    """The tracer wraps the functions named in each layer's ``__all__``; a
    span or hook naming any other function would leave its metric at 0."""
    path = Path(__file__).resolve().parent.parent / "clibench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span in [*(span for span, _ in tracing.SPAN_TIMES.values()), *tracing.HOOKS]:
        layer, name = span.split(".", 1)
        mod = importlib.import_module(f"rangepolymer.{layer}")
        assert name in dict(tracing._public_functions(mod)), span


_TRACED_SESSION = """\
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer("session")
tracing.install(tracer)
from rangepolymer import cli, density
codes = [cli.main([*argv, "--out", f"{sys.argv[2]}/{i}"])
         for i, argv in enumerate(json.loads(sys.argv[3]))]
print(json.dumps({"codes": codes, "spans": sorted({span[0] for span in tracer.spans}),
                  "writers": list(tracing.WRITERS),
                  "kernel_counted": hasattr(density._joint_series_scaled, "__wrapped__")}))
"""


def test_traced_cli_session_reaches_every_writer(tmp_path):
    """A short CLI session under ``clibench/tracing.install``: every command
    exits 0, every writer span of ``WRITERS`` is recorded, and the joint
    kernel the tracer counts is still there.  A renamed writer or kernel
    would leave the benchmark's traced metrics at 0 without an error."""
    sessions = [
        ["exact", "--beta", "1", "--n", "30", "--outputs", "law,Z,free-energy,clt,ldp"],
        ["exact", "--beta", "1", "--n", "20", "--format", "json"],
        ["continuous", "--beta", "1", "--t", "4",
         "--outputs", "density,Z,range-clt,endpoint-clt"],
        ["mc", "brownian", "--t", "1", "--dt", "1e-4", "--seed", "0", "--samples", "16"],
    ]
    tracing_py = Path(__file__).resolve().parent.parent / "clibench" / "tracing.py"
    src = str(Path(rangepolymer.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", _TRACED_SESSION, str(tracing_py),
                           str(tmp_path), json.dumps(sessions)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0, 0, 0]
    assert set(report["writers"]) <= set(report["spans"])
    assert report["kernel_counted"]


@pytest.mark.parametrize("command, size", [("exact", "--n"), ("continuous", "--t")])
def test_unknown_output_is_named(tmp_path, capsys, command, size):
    out = tmp_path / "run"
    assert main([command, "--beta", "1", size, "4", "--outputs", "Z, x ,Z",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown {command} output 'x'\n"
    _assert_published(out, 2)


def test_continuous_run_imports_neither_fractions_nor_the_gauss_solver(tmp_path):
    """The README continuous run reads its Gauss nodes from a table and forms
    the window's exact peak in ints: importing ``numpy.polynomial`` and
    ``fractions``/``decimal`` took about 4 ms of every such run."""
    code = ("import sys\n"
            "from rangepolymer.cli import main\n"
            "code = main(['continuous', '--beta', '1', '--t', '40', '--outputs',\n"
            "             'density,Z,range-clt,endpoint-clt', '--out', sys.argv[1]])\n"
            "print(code, [m for m in ('fractions', 'decimal', 'numpy.polynomial')\n"
            "             if m in sys.modules])\n")
    src = str(Path(rangepolymer.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["0", "[]"]


def test_one_thread_runs_import_neither_dataclasses_nor_the_thread_pool(tmp_path):
    """The records are NamedTuples and ``mc`` imports its thread pool only
    when it starts one: frozen dataclasses and ``concurrent.futures`` took
    about 15 ms of every start-up (BENCH_startup-imports.json)."""
    code = ("import sys\n"
            "import rangepolymer.cli\n"
            "runs = [['constants', '--beta', '1'],\n"
            "        ['exact', '--beta', '1', '--n', '30'],\n"
            "        ['continuous', '--beta', '1', '--t', '4'],\n"
            "        ['mc', 'tilted', '--beta', '1', '--n', '20', '--seed', '1',\n"
            "         '--samples', '100']]\n"
            "codes = [rangepolymer.cli.main([*argv, '--threads', '1', '--out',\n"
            "                                sys.argv[1] + f'/{i}'])\n"
            "         for i, argv in enumerate(runs)]\n"
            "print(*codes, [m for m in ('dataclasses', 'concurrent.futures')\n"
            "               if m in sys.modules])\n")
    src = str(Path(rangepolymer.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["0", "0", "0", "0", "[]"]


def test_every_record_is_immutable():
    """Assigning to any field of any public record type raises AttributeError."""
    law = rangepolymer.polymer_law(1.0, 6)
    report = rangepolymer.corollary_bound_check(1.0, 2, 10, seed=1, samples=100)
    records = [
        rangepolymer.speed_c_star(1.0),
        rangepolymer.free_energy_g_star(1.0),
        rangepolymer.continuous_constants(1.0),
        rangepolymer.range_density(1.0, 1.0),
        rangepolymer.partition_function_continuous(1.0, 4.0),
        law, law.tilted, report, report.estimate,
        rangepolymer.brownian_range_mc(1.0, 1e-4, seed=1, samples=10),
    ]
    public = {obj for obj in (getattr(rangepolymer, name) for name in rangepolymer.__all__)
              if isinstance(obj, type) and not issubclass(obj, Exception)}
    assert {type(record) for record in records} == public
    for record in records:
        for field in type(record).__annotations__:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


def test_walk_tables_are_built_only_by_a_walk_run(tmp_path):
    """The tilted walk's 16-step tables are built on first use: importing the
    package and a ``constants`` run leave them unbuilt, an ``mc tilted`` run
    builds them."""
    code = ("import sys\n"
            "from rangepolymer import mc\n"
            "from rangepolymer.cli import main\n"
            "built = [mc._walk_tables.cache_info().currsize]\n"
            "main(['constants', '--beta', '1', '--out', sys.argv[1] + '/c'])\n"
            "built.append(mc._walk_tables.cache_info().currsize)\n"
            "main(['mc', 'tilted', '--beta', '1', '--n', '20', '--seed', '1',\n"
            "      '--samples', '100', '--out', sys.argv[1] + '/t'])\n"
            "built.append(mc._walk_tables.cache_info().currsize)\n"
            "print(*built)\n")
    src = str(Path(rangepolymer.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["0", "0", "1"]
