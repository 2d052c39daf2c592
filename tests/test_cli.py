import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from sdflow.cli import main
from sdflow.curveflow import ClosedCurve, resample_uniform


def run(args):
    return main([str(a) for a in args])


def test_shoot_linear_is_trivial_exit_zero(tmp_path):
    code = run(["shoot", "steady", "--init", "0,1,0,0", "--budget", "50", "--out", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["outcome"] == "trivial"
    assert report["version"]
    assert report["config"]["budget"] == 50.0


def test_shoot_travelling_zero_direction_usage_error(tmp_path):
    code = run(["shoot", "travelling", "--a", "0", "--b", "0", "--init", "0,1,0,0", "--out", tmp_path])
    assert code == 64


def test_shoot_bad_flags_usage_error(tmp_path):
    assert run(["shoot", "steady", "--bogus"]) == 64
    assert run(["shoot", "steady", "--init", "1,2", "--out", tmp_path]) == 64
    assert run(["shoot", "nonsense"]) == 64


def test_shoot_random_sweep_all_breakdown(tmp_path):
    code = run(["shoot", "selfsimilar", "--random", "--seed", 42, "--count", 5, "--out", tmp_path])
    assert code == 0
    outcomes = set()
    for i in range(5):
        payload = json.loads((tmp_path / f"report_{i:03d}.json").read_text())
        outcomes.add(payload["outcome"])
        assert payload["config"]["seed"] == 42
    assert outcomes == {"breakdown"}


def test_shoot_inconclusive_exit_two(tmp_path):
    code = run(["shoot", "selfsimilar", "--init", "0.3,0.2,0.5,0.1",
                "--budget", "0.5", "--out", tmp_path])
    assert code == 2


def _names(path):
    return sorted(p.name for p in path.iterdir())


def test_report_writer_file_names(tmp_path):
    # shoot and sweep write their reports through one writer; only shoot
    # stores trajectories, and shoot tags its names only for several reports
    single = ["report.json", "trajectory_bwd.csv", "trajectory_fwd.csv"]
    base = ["shoot", "selfsimilar", "--budget", 5]
    assert run(base + ["--init", "0.3,0.2,0.4,0.1", "--out", tmp_path / "init"]) == 0
    assert _names(tmp_path / "init") == single
    assert run(base + ["--random", "--seed", 4, "--count", 1, "--out", tmp_path / "one"]) == 0
    assert _names(tmp_path / "one") == single
    assert run(base + ["--random", "--seed", 4, "--count", 2, "--out", tmp_path / "two"]) == 0
    assert _names(tmp_path / "two") == [
        "report_000.json", "report_001.json",
        "trajectory_000_bwd.csv", "trajectory_000_fwd.csv",
        "trajectory_001_bwd.csv", "trajectory_001_fwd.csv",
    ]
    assert run(["sweep", "steady", "--count", 2, "--seed", 4, "--out", tmp_path / "sweep"]) == 0
    assert _names(tmp_path / "sweep") == ["run_000.json", "run_001.json", "summary.json"]


def test_signed_zero_direction_writes_the_same_bytes(tmp_path):
    # -0 and 0 are one travelling direction: "# a=" lines and JSON alike write 0.0
    for a in ("-0", "0"):
        assert run(["shoot", "travelling", "--a", a, "--b", 1, "--init", "0,1,0,0",
                    "--budget", 5, "--out", tmp_path / a]) == 0
    names = _names(tmp_path / "0")
    assert _names(tmp_path / "-0") == names
    for name in names:
        assert (tmp_path / "-0" / name).read_bytes() == (tmp_path / "0" / name).read_bytes()
    assert "# a=0.0\n" in (tmp_path / "0" / "trajectory_fwd.csv").read_text()


@pytest.mark.parametrize("args", [
    ["shoot", "steady", "--init", "0,1,0,0", "--abs-tol", "nan"],
    ["shoot", "steady", "--init", "0,1,0,0", "--budget", "nan"],
    ["shoot", "steady", "--init", "0,1,0,0", "--budget", "inf"],
    ["shoot", "steady", "--init", "0,1,0,0", "--sample-h", "nan"],
    ["flow-graph", "--t-end", "inf"],
    ["shoot", "steady", "--init", "nan,1,0,0"],
    ["shoot", "steady", "--init", "0,1,0,0", "--budget", "0"],
    ["shoot", "steady", "--init", "0,1,0,0", "--rel-tol", "-1e-10"],
    ["sweep", "steady", "--abs-tol", "0"],
    ["shoot", "steady", "--init", "0,1,0,0", "--sample-h", "-0.01"],
    ["flow-graph", "--dt", "0"],
    ["flow-curve", "--seed", "circle", "--dt=-1e-3"],
    ["flow-graph", "--L=-1"],
    ["flow-graph", "--n", 7],
    ["flow-graph", "--t-end=-1"],
    ["flow-curve", "--seed", "circle", "--kappa=-1"],
    ["flow-curve", "--seed", "circle", "--n", 8],
    ["flow-curve", "--seed", "circle", "--t-end", 0],
])
def test_non_finite_or_non_positive_flags_usage_error(tmp_path, args):
    # each of these once certified a line as breakdown, never returned,
    # wrote Infinity into JSON, or exited 1 with the library's ValueError
    assert run(args + ["--out", tmp_path / "out"]) == 64
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["budget=nan", "abs_tol=inf", "sample_h=0", "a=nan"])
def test_non_finite_or_non_positive_config_usage_error(tmp_path, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    args = ["shoot", "travelling", "--b", "1", "--init", "0,1,0,0", "--config", cfg]
    assert run(args + ["--out", tmp_path / "out"]) == 64
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["flow-graph", "--n", 64, "--frames", 0],
    ["flow-graph", "--n", 64, "--frames", -1],
    ["flow-graph", "--n", 64, "--frames", 2.5],
    ["flow-curve", "--seed", "circle", "--n", 64, "--frames", 0],
    ["flow-curve", "--seed", "circle", "--n", 64, "--frames=-1"],
    ["sweep", "steady", "--count", 2, "--workers", 0],
    ["sweep", "steady", "--count", 2, "--workers", -1],
    ["sweep", "steady", "--random", "--count=-3"],
    ["shoot", "steady", "--random", "--count", 0],
    ["shoot", "steady", "--random", "--seed=-1"],
    ["sweep", "steady", "--count", 2, "--seed=-1"],
])
def test_frames_and_workers_must_be_positive(tmp_path, args):
    # --frames 0 once exited 0 with outcome "reached" and no step taken,
    # --workers 0 silently ran one worker, --count 0 or -3 classified
    # nothing and exited 0, and --seed -1 exited 1 from numpy
    assert run(args + ["--out", tmp_path / "out"]) == 64
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, line", [
    (["flow-graph", "--n", 64], "frames=0"),
    (["flow-curve", "--seed", "circle", "--n", 64], "frames=-1"),
    (["sweep", "steady", "--count", 2], "workers=0"),
    (["sweep", "steady"], "count=-3"),
    (["shoot", "steady", "--random"], "count=0"),
    (["shoot", "steady", "--random"], "seed=-1"),
])
def test_frames_and_workers_must_be_positive_in_config(tmp_path, args, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    assert run(args + ["--config", cfg, "--out", tmp_path / "out"]) == 64
    assert not (tmp_path / "out").exists()


def test_verify_selfsimilar_and_steady(tmp_path):
    assert run(["shoot", "selfsimilar", "--init", "0.3,0.2,0.4,0.1", "--budget", "0.6",
                "--sample-h", "0.001", "--out", tmp_path / "ss"]) == 2
    code = run(["verify", tmp_path / "ss" / "trajectory_fwd.csv",
                tmp_path / "ss" / "trajectory_bwd.csv", "--out", tmp_path / "v"])
    assert code == 0
    bundle = json.loads((tmp_path / "v" / "verify.json").read_text())
    names = {chk["identity"] for entry in bundle["reports"] for chk in entry["checks"]}
    assert names == {"q_convexity", "q_bound", "reduction"}

    assert run(["shoot", "steady", "--init", "0,0.4,0,0.0001", "--budget", "30",
                "--sample-h", "0.01", "--out", tmp_path / "sd"]) == 2
    assert run(["verify", tmp_path / "sd" / "trajectory_fwd.csv", "--out", tmp_path / "v2"]) == 0


def test_verify_records_pass_by_their_own_threshold(tmp_path):
    assert run(["shoot", "steady", "--init", "0,0.4,0,0.0001", "--budget", "30",
                "--sample-h", "0.01", "--out", tmp_path / "sd"]) == 2
    # w off its first integral by 5e-8: above the w threshold, below the k one
    lines = (tmp_path / "sd" / "trajectory_fwd.csv").read_text().splitlines()
    first = lines.index("y,phi,psi,k,w,S") + 2
    for i in range(first, len(lines)):
        cols = lines[i].split(",")
        cols[4] = repr(float(cols[4]) + 5e-8)
        lines[i] = ",".join(cols)
    bad = tmp_path / "perturbed.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["verify", bad, "--out", tmp_path / "v"]) == 1
    entry = json.loads((tmp_path / "v" / "verify.json").read_text())["reports"][0]
    assert entry["samples"] == len(lines) - first + 1
    checks = entry["checks"]
    for c in checks:
        assert "samples" not in c
        assert c["pass"] == (c["max_residual"] <= c["threshold"]), c
    verdicts = [(c["identity"], c["pass"]) for c in checks]
    assert verdicts == [("steady_w", False), ("steady_k", True), ("reduction", True)]


@pytest.mark.parametrize("kind", [["selfsimilar"], ["travelling", "--a", "1", "--b", "0.5"]])
def test_verify_passes_a_breakdown_profile(tmp_path, kind):
    # every record is differenced in arc length, so it follows the profile into
    # the vertical tangent where it ends; differenced in y, both files failed
    shoot = ["shoot", *kind, "--init", "0.3,0.2,0.4,0.1", "--budget", "5"]
    assert run([*shoot, "--sample-h", "0.001", "--out", tmp_path / "s"]) == 0
    assert json.loads((tmp_path / "s" / "report.json").read_text())["outcome"] == "breakdown"
    files = [tmp_path / "s" / f"trajectory_{d}.csv" for d in ("fwd", "bwd")]
    assert run(["verify", *files, "--out", tmp_path / "v"]) == 0
    reports = json.loads((tmp_path / "v" / "verify.json").read_text())["reports"]
    checks = [c for entry in reports for c in entry["checks"]]
    assert len(checks) == 6 and all(c["pass"] is True for c in checks), checks
    # the theta-resolved default grid is not uniform in S: a parse error
    assert run([*shoot, "--out", tmp_path / "d"]) == 0
    assert run(["verify", tmp_path / "d" / "trajectory_fwd.csv", "--out", tmp_path / "v2"]) == 65


def with_column(src, dst, col, fn):
    """Copy the trajectory file ``src`` to ``dst`` with ``fn`` applied to
    column ``col`` of every row."""
    lines = src.read_text().splitlines()
    first = lines.index("y,phi,psi,k,w,S") + 1
    for i in range(first, len(lines)):
        cols = lines[i].split(",")
        cols[col] = repr(fn(float(cols[col])))
        lines[i] = ",".join(cols)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def test_verify_fails_a_trajectory_with_doubled_slopes(tmp_path):
    # the first integrals hold whatever psi is, so this once passed; only the
    # reduction psi_y = k v^3 ties psi to the other columns
    assert run(["shoot", "steady", "--init", "0,0.4,0,0.0001", "--budget", "30",
                "--sample-h", "0.01", "--out", tmp_path / "sd"]) == 2
    bad = with_column(tmp_path / "sd" / "trajectory_fwd.csv", tmp_path / "doubled.csv", 2,
                      lambda psi: 2.0 * psi)
    assert run(["verify", bad, "--out", tmp_path / "v"]) == 1
    checks = json.loads((tmp_path / "v" / "verify.json").read_text())["reports"][0]["checks"]
    verdicts = [(c["identity"], c["pass"]) for c in checks]
    assert verdicts == [("steady_w", True), ("steady_k", True), ("reduction", False)]


# one shoot of each kind that verify checks on its uniform grid (exit 2: inconclusive)
UNIFORM_SHOOTS = pytest.mark.parametrize("kind, init, budget, sample_h", [
    ("steady", "0,0.4,0,0.0001", "30", "0.01"),
    ("selfsimilar", "0.3,0.2,0.4,0.1", "0.6", "0.001"),
])


@UNIFORM_SHOOTS
def test_verify_fails_a_trajectory_whose_speed_overflows(tmp_path, kind, init, budget, sample_h):
    # psi = 1e200 is finite, but v = sqrt(1 + psi^2) is not; a steady file like
    # this once passed.  The reduction check takes theta = atan(psi), which stays
    # finite, and fails the file with a finite residual.
    assert run(["shoot", kind, "--init", init, "--budget", budget, "--sample-h", sample_h,
                "--out", tmp_path / "s"]) == 2
    bad = with_column(tmp_path / "s" / "trajectory_fwd.csv", tmp_path / "huge.csv", 2,
                      lambda psi: 1e200)
    assert run(["verify", bad, "--out", tmp_path / "v"]) == 1
    checks = json.loads((tmp_path / "v" / "verify.json").read_text())["reports"][0]["checks"]
    assert checks[-1]["identity"] == "reduction" and not checks[-1]["pass"]
    assert all(math.isfinite(c["max_residual"]) for c in checks)


@UNIFORM_SHOOTS
def test_verify_rejects_a_residual_that_overflows(tmp_path, capsys, kind, init, budget, sample_h):
    # arc lengths of 1e300 are finite, but their squares in the difference
    # stencils (and in Q) are not: the residual is NaN, and json.dumps would
    # write it into verify.json
    assert run(["shoot", kind, "--init", init, "--budget", budget, "--sample-h", sample_h,
                "--out", tmp_path / "s"]) == 2
    capsys.readouterr()
    bad = with_column(tmp_path / "s" / "trajectory_fwd.csv", tmp_path / "huge.csv", 5,
                      lambda s: 1e300 * s)
    assert run(["verify", bad, "--out", tmp_path / "v"]) == 65
    assert not (tmp_path / "v").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "not finite" in err[0], err


def test_verify_truncated_file_parse_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("this is not a trajectory\n")
    assert run(["verify", bad, "--out", tmp_path]) == 65
    missing = tmp_path / "missing.csv"
    assert run(["verify", missing, "--out", tmp_path]) == 65


def test_verify_non_finite_field_parse_error(tmp_path):
    # a nan once passed the reader: verify wrote "max_residual": NaN and exited 1
    assert run(["shoot", "steady", "--init", "0,0.4,0,0.0001", "--budget", "30",
                "--sample-h", "0.01", "--out", tmp_path / "sd"]) == 2
    lines = (tmp_path / "sd" / "trajectory_fwd.csv").read_text().splitlines()
    row = lines.index("y,phi,psi,k,w,S") + 5
    cols = lines[row].split(",")
    cols[4] = "nan"
    lines[row] = ",".join(cols)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["verify", bad, "--out", tmp_path / "v"]) == 65
    assert not (tmp_path / "v" / "verify.json").exists()


def test_verify_rejects_the_theta_column(tmp_path):
    # trajectories once repeated theta = atan(psi) as a fourth column
    assert run(["shoot", "steady", "--init", "0,0.4,0,0.0001", "--budget", "30",
                "--sample-h", "0.01", "--out", tmp_path / "sd"]) == 2
    lines = (tmp_path / "sd" / "trajectory_fwd.csv").read_text().splitlines()
    header = lines.index("y,phi,psi,k,w,S")
    lines[header] = "y,phi,psi,theta,k,w,S"
    for i in range(header + 1, len(lines)):
        cols = lines[i].split(",")
        cols.insert(3, repr(math.atan(float(cols[2]))))
        lines[i] = ",".join(cols)
    old = tmp_path / "seven_columns.csv"
    old.write_text("\n".join(lines) + "\n")
    assert run(["verify", old, "--out", tmp_path / "v"]) == 65
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("old, new", [
    ("# direction=1\n", "# direction=7\n"),
    ("# direction=1\n", ""),
    ("# outcome=completed\n", "# outcome=banana\n"),
    ("# outcome=completed\n", ""),
], ids=["direction-7", "no-direction", "outcome-banana", "no-outcome"])
def test_verify_rejects_metadata_the_writer_never_writes(tmp_path, capsys, old, new):
    # the reader once took any direction and outcome, and defaulted missing ones
    assert run(["shoot", "steady", "--init", "0,0.4,0,0.0001", "--budget", "30",
                "--sample-h", "0.01", "--out", tmp_path / "sd"]) == 2
    good = tmp_path / "sd" / "trajectory_fwd.csv"
    assert run(["verify", good, "--out", tmp_path / "ok"]) == 0
    text = good.read_text()
    assert old in text
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace(old, new))
    capsys.readouterr()
    assert run(["verify", bad, "--out", tmp_path / "v"]) == 65
    assert capsys.readouterr().err.startswith(f"verify: {bad}: ")
    assert not (tmp_path / "v").exists()


def test_verify_parse_error_makes_no_output_directory(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n")  # no header line
    assert run(["verify", bad, "--out", tmp_path / "v"]) == 65
    assert not (tmp_path / "v").exists()


def test_sweep_summary_and_reproducibility(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["sweep", "steady", "--count", 4, "--seed", 3, "--out", a]) == 0
    assert run(["sweep", "steady", "--count", 4, "--seed", 3, "--out", b]) == 0
    for name in ["summary.json"] + [f"run_{i:03d}.json" for i in range(4)]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    summary = json.loads((a / "summary.json").read_text())
    assert summary["counts"]["breakdown"] == 4


def test_sweep_workers_match_serial(tmp_path):
    # --workers is accepted and has no effect
    a, b = tmp_path / "serial", tmp_path / "par"
    assert run(["sweep", "selfsimilar", "--count", 4, "--seed", 5, "--out", a]) == 0
    assert run(["sweep", "selfsimilar", "--count", 4, "--seed", 5, "--workers", 2, "--out", b]) == 0
    for i in range(4):
        assert (a / f"run_{i:03d}.json").read_bytes() == (b / f"run_{i:03d}.json").read_bytes()


@pytest.mark.parametrize("count", [1, 7, 34])
def test_sweep_chunked_pool_matches_serial(tmp_path, count):
    # a sweep is one batch in one process whatever --workers reads
    a = tmp_path / "serial"
    args = ["sweep", "steady", "--count", count, "--seed", 9]
    assert run(args + ["--workers", 1, "--out", a]) == 0
    for workers in (2, 3):
        b = tmp_path / f"par{workers}"
        assert run(args + ["--workers", workers, "--out", b]) == 0
        for name in ["summary.json"] + [f"run_{i:03d}.json" for i in range(count)]:
            assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("route", ["flag", "config"])
def test_shoot_random_takes_no_init(tmp_path, capsys, route):
    # --init with --random was once ignored, and every report echoed it
    # as config next to a different init
    args = ["shoot", "steady", "--random", "--count", 2, "--seed", 4, "--out", tmp_path / "out"]
    if route == "flag":
        args += ["--init", "0,0,1,0"]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("init=0,0,1,0\n")
        args += ["--config", cfg]
    assert run(args) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: sdflow shoot ")
    assert "shoot: error: --random draws its initial states; not with --init" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("route", ["flag", "config"])
def test_shoot_init_takes_no_seed_or_count(tmp_path, capsys, route):
    # --init once ignored --seed and --count, and every report echoed them
    args = ["shoot", "steady", "--init", "0,0.5,0.3,0"]
    assert run(args + ["--out", tmp_path / "plain"]) == 0
    config = json.loads((tmp_path / "plain" / "report.json").read_text())["config"]
    assert (config["seed"], config["count"]) == (None, None)
    capsys.readouterr()
    args += ["--out", tmp_path / "out"]
    if route == "flag":
        args += ["--seed", 7, "--count", 5]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed=7\ncount=5\n")
        args += ["--config", cfg]
    assert run(args) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: sdflow shoot ")
    assert "shoot: error: --init shoots the one state it gives; not with --seed, --count" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, line", [
    (["--init", "0,1,0,0"], "init=0,1,0,0"),
    (["--sample-h", "0.5"], "sample_h=0.5"),
])
def test_sweep_takes_no_init_or_sample_h(tmp_path, flag, line):
    # sweep once ignored --init, and echoed --sample-h in no summary
    args = ["sweep", "steady", "--random", "--count", 2, "--out", tmp_path / "out"]
    assert run(args + flag) == 64
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    assert run(args + ["--config", cfg]) == 64
    assert not (tmp_path / "out").exists()


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("count=3\nseed=9\n")
    out = tmp_path / "r"
    assert run(["sweep", "steady", "--config", cfg, "--seed", 11, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["count"] == 3  # from config file
    assert summary["config"]["seed"] == 11  # flag wins


@pytest.mark.parametrize("seed_flag", [["--seed=11"], ["--se", "11"]])
def test_config_loses_to_flag_spellings(tmp_path, seed_flag):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("count=2\nseed=9\n")
    out = tmp_path / "r"
    assert run(["sweep", "steady", "--config", cfg, *seed_flag, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 11


def test_config_loses_to_positional_kind(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("count=2\nkind=selfsimilar\n")
    out = tmp_path / "r"
    assert run(["sweep", "steady", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["kind"] == "steady"


def test_config_value_outside_choices_usage_error(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed_shape=bogus\n")
    assert run(["flow-curve", "--n", 64, "--t-end", 0.01, "--config", cfg, "--out", tmp_path]) == 64


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("not_a_key=1\n")
    assert run(["sweep", "steady", "--config", cfg, "--out", tmp_path]) == 64


def test_flow_graph_zero_perturbation_frames_identical(tmp_path):
    code = run(["flow-graph", "--n", 64, "--A", 1.0, "--eps", 0, "--t-end", 0.1,
                "--frames", 4, "--out", tmp_path])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    frames = manifest["frames"]
    assert len(frames) == 5
    first = (tmp_path / frames[0]["frame_file"]).read_text()
    assert all((tmp_path / fr["frame_file"]).read_text() == first for fr in frames)
    # a frame's time is its entry's t, not repeated in its monitors
    assert all(set(fr["monitors"]) == {"max_slope", "turning_variation", "max_w", "l2_w"}
               for fr in frames)


def test_flow_graph_emit_plot_data(tmp_path):
    code = run(["flow-graph", "--n", 64, "--t-end", 0.1, "--frames", 2,
                "--emit-plot-data", "--out", tmp_path])
    assert code == 0
    lines = (tmp_path / "plot_data.csv").read_text().splitlines()
    assert lines[0] == "t,series,value"
    assert len(lines) > 6


def test_flow_graph_runtime_failure_exit_one(tmp_path, capsys):
    # the input's slope is near 1e7 at t = 0, above the 1e6 ceiling
    code = run(["flow-graph", "--n", 64, "--eps", "1e7", "--dt", 0.01, "--t-end", 0.1,
                "--frames", 2, "--out", tmp_path / "out"])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    assert "exceeds the ceiling" in err and "t=0.0" in err
    assert not (tmp_path / "out").exists()


def test_flow_curve_circle_monitors_flat(tmp_path):
    code = run(["flow-curve", "--seed", "circle", "--kappa", 2, "--n", 64,
                "--dt", "1e-3", "--t-end", 0.05, "--frames", 4, "--out", tmp_path])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outcome"]["kind"] == "reached"
    lengths = [fr["length"] for fr in manifest["frames"]]
    assert max(lengths) - min(lengths) <= 1e-6 * lengths[0]


def test_flow_curve_has_no_resample_option(tmp_path):
    # the curve flow keeps its own vertices well spaced: no periodic resample
    assert run(["flow-curve", "--seed", "circle", "--resample-every", "5",
                "--out", tmp_path / "out"]) == 64
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("resample_every=5\n")
    assert run(["flow-curve", "--seed", "circle", "--config", cfg, "--out", tmp_path / "out"]) == 64
    assert not (tmp_path / "out").exists()


def test_flow_graph_has_no_scheme_option(tmp_path):
    # the graph flow has one scheme, the semi-implicit one
    assert run(["flow-graph", "--n", 64, "--scheme", "semi_implicit", "--out", tmp_path / "out"]) == 64
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scheme=semi_implicit\n")
    assert run(["flow-graph", "--n", 64, "--config", cfg, "--out", tmp_path / "out"]) == 64
    assert not (tmp_path / "out").exists()
    assert run(["flow-graph", "--n", 64, "--t-end", 0.01, "--frames", 1, "--out", tmp_path / "g"]) == 0
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert "scheme" not in manifest["config"]


def test_command_usage_error_prints_command_usage(tmp_path, capsys):
    # GraphField rejects --L 0: once after numpy warned of 0 / 0 in x / L,
    # and with the usage line of sdflow rather than of flow-graph
    assert run(["flow-graph", "--L", 0, "--out", tmp_path / "out"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: sdflow flow-graph ")
    assert "flow-graph: error: domain_length must be positive" in err
    assert not (tmp_path / "out").exists()


def test_flow_curve_input_is_resampled_to_equal_arcs(tmp_path):
    # an ellipse sampled evenly in its parameter: chords from 0.1 to 0.3
    t = [2.0 * math.pi * i / 64 for i in range(64)]
    uneven = np.array([[3.0 * math.cos(a), math.sin(a)] for a in t])
    src = tmp_path / "uneven.csv"
    src.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in uneven.tolist()))
    assert run(["flow-curve", "--input", src, "--dt", "1e-3", "--t-end", 0.01, "--frames", 1,
                "--out", tmp_path / "e"]) == 0
    rows = (tmp_path / "e" / "curve_000.csv").read_text().splitlines()[1:]
    frame0 = np.array([[float(v) for v in row.split(",")] for row in rows])
    # equal arc length along the file's polygon (see test_resample_uniform_is_equal_arcs_on_the_polygon)
    assert frame0.tobytes() == resample_uniform(ClosedCurve(uneven)).points.tobytes()


def test_flow_curve_roundtrip_via_input_file(tmp_path):
    assert run(["flow-curve", "--seed", "ellipse", "--n", 64, "--dt", "1e-3",
                "--t-end", 0.01, "--frames", 1, "--out", tmp_path / "e"]) == 0
    curve_file = tmp_path / "e" / "curve_000.csv"
    assert run(["flow-curve", "--input", curve_file, "--dt", "1e-3",
                "--t-end", 0.01, "--frames", 1, "--out", tmp_path / "e2"]) == 0
    assert run(["flow-curve", "--input", tmp_path / "e" / "manifest.json",
                "--dt", "1e-3", "--t-end", 0.01]) == 65
    # ClosedCurve needs 16 vertices: a readable file of 15 rows is still unusable
    short = tmp_path / "short.csv"
    short.write_text("x,y\n" + "".join(f"{math.cos(0.4 * i)!r},{math.sin(0.4 * i)!r}\n"
                                       for i in range(15)))
    assert run(["flow-curve", "--input", short, "--out", tmp_path / "s"]) == 65


def test_flow_curve_edge_collapse_writes_its_frames(tmp_path, capsys):
    # the first step of an out-and-back needle lands an edge at length 0: once
    # an exit 1 with no output, now a failed outcome with frame 0 written
    x = np.concatenate([np.linspace(0.0, 1.0, 17), np.linspace(1.0, 0.0, 17)[1:-1]])
    needle = tmp_path / "needle.csv"
    needle.write_text("x,y\n" + "".join(f"{float(v)!r},0.0\n" for v in x))
    code = run(["flow-curve", "--input", needle, "--t-end", 0.01, "--out", tmp_path / "o"])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["outcome"] == {"kind": "failed", "reason": "edge collapse", "t_ext": None}
    assert [fr["file"] for fr in manifest["frames"]] == ["curve_000.csv"]
    assert (tmp_path / "o" / "curve_000.csv").exists()


def test_flow_curve_input_takes_the_files_vertex_count(tmp_path, capsys):
    # --n with --input was once ignored, and the manifest still echoed it
    assert run(["flow-curve", "--seed", "circle", "--n", 64, "--dt", "1e-3",
                "--t-end", 0.01, "--frames", 1, "--out", tmp_path / "c"]) == 0
    curve_file = tmp_path / "c" / "curve_001.csv"
    capsys.readouterr()
    assert run(["flow-curve", "--input", curve_file, "--n", 128, "--out", tmp_path / "n"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: sdflow flow-curve ")
    assert "flow-curve: error: --input keeps the file's vertex count" in err
    assert not (tmp_path / "n").exists()
    assert run(["flow-curve", "--input", curve_file, "--dt", "1e-3", "--t-end", 0.01,
                "--frames", 1, "--out", tmp_path / "i"]) == 0
    manifest = json.loads((tmp_path / "i" / "manifest.json").read_text())
    assert manifest["config"]["n"] == 64
    assert [manifest["config"][key] for key in ("seed_shape", "kappa", "major", "minor")] == [
        None, None, None, None]
    rows = (tmp_path / "i" / "curve_001.csv").read_text().splitlines()[1:]
    assert len(rows) == 64
    # a seed without --n has its default 512 vertices, echoed as such
    assert run(["flow-curve", "--seed", "circle", "--dt", "1e-3", "--t-end", 0.01,
                "--frames", 1, "--out", tmp_path / "d"]) == 0
    assert json.loads((tmp_path / "d" / "manifest.json").read_text())["config"]["n"] == 512


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("shape", [
    ("seed_shape", "--seed", "ellipse"), ("kappa", "--kappa", "5"),
    ("major", "--major", "2"), ("minor", "--minor", "0.25")],
    ids=["seed", "kappa", "major", "minor"])
def test_flow_curve_input_rejects_seed_shape_flags(tmp_path, capsys, shape, source):
    # the file's curve was once run while the manifest echoed the seed's shape
    assert run(["flow-curve", "--seed", "circle", "--n", 64, "--dt", "1e-3",
                "--t-end", 0.01, "--frames", 1, "--out", tmp_path / "c"]) == 0
    seed_manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert {key: seed_manifest["config"][key] for key in ("kappa", "major", "minor")} == {
        "kappa": 2.0, "major": 1.0, "minor": 0.5}
    curve_file = tmp_path / "c" / "curve_001.csv"
    key, flag, value = shape
    if source == "flag":
        extra = [flag, value]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}={value}\n")
        extra = ["--config", cfg]
    capsys.readouterr()
    assert run(["flow-curve", "--input", curve_file, *extra, "--dt", "1e-3", "--t-end", 0.01,
                "--frames", 1, "--out", tmp_path / "i"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: sdflow flow-curve ")
    assert err.endswith(
        f"flow-curve: error: --input keeps the file's vertex count and shape; not with {flag}\n")
    assert not (tmp_path / "i").exists()


def readme_commands():
    """(argv, exit code) of each command in the README's "Command line" block.

    A command's exit code is the first "exit N" in the comment lines above it.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    commands, comment, in_comment = [], "", False
    for line in block.splitlines():
        if line.startswith("#"):
            comment = (comment if in_comment else "") + line
            in_comment = True
            continue
        in_comment = False
        if line.startswith("sdflow "):
            stated = re.search(r"\bexit (\d+)", comment)
            assert stated, f"README states no exit code for: {line}"
            commands.append((shlex.split(line)[1:], int(stated.group(1))))
    return commands


def test_readme_command_line_examples(tmp_path, monkeypatch):
    # the README's runs/... paths, written and read, are relative: run them in tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SDFLOW_OUT", raising=False)
    commands = readme_commands()
    assert [argv[0] for argv, _ in commands] == [
        "shoot", "sweep", "shoot", "verify", "flow-graph", "flow-curve", "flow-curve"]
    for argv, code in commands:
        assert main(argv) == code, argv
    assert (tmp_path / "runs" / "v" / "verify.json").is_file()
