import json

import numpy as np
import pytest

from sdflow.cli import main


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
        assert payload["seed"] == 42
    assert outcomes == {"breakdown"}


def test_shoot_inconclusive_exit_two(tmp_path):
    code = run(["shoot", "selfsimilar", "--init", "0.3,0.2,0.5,0.1",
                "--budget", "0.5", "--out", tmp_path])
    assert code == 2


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
])
def test_non_finite_or_non_positive_flags_usage_error(tmp_path, args):
    # each of these once certified a line as breakdown, never returned, or
    # wrote Infinity into JSON
    assert run(args + ["--out", tmp_path / "out"]) == 64
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["budget=nan", "abs_tol=inf", "sample_h=0", "a=nan"])
def test_non_finite_or_non_positive_config_usage_error(tmp_path, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    args = ["shoot", "travelling", "--b", "1", "--init", "0,1,0,0", "--config", cfg]
    assert run(args + ["--out", tmp_path / "out"]) == 64
    assert not (tmp_path / "out").exists()


def test_verify_selfsimilar_and_steady(tmp_path):
    assert run(["shoot", "selfsimilar", "--init", "0.3,0.2,0.4,0.1", "--budget", "0.6",
                "--sample-h", "0.001", "--out", tmp_path / "ss"]) == 2
    code = run(["verify", tmp_path / "ss" / "trajectory_fwd.csv",
                tmp_path / "ss" / "trajectory_bwd.csv", "--out", tmp_path / "v"])
    assert code == 0
    bundle = json.loads((tmp_path / "v" / "verify.json").read_text())
    names = {chk["identity"] for entry in bundle["reports"] for chk in entry["checks"]}
    assert names == {"q_convexity", "q_bound"}

    assert run(["shoot", "steady", "--init", "0,0.4,0,0.0001", "--budget", "30",
                "--sample-h", "0.01", "--out", tmp_path / "sd"]) == 2
    assert run(["verify", tmp_path / "sd" / "trajectory_fwd.csv", "--out", tmp_path / "v2"]) == 0


def test_verify_records_pass_by_their_own_threshold(tmp_path):
    assert run(["shoot", "steady", "--init", "0,0.4,0,0.0001", "--budget", "30",
                "--sample-h", "0.01", "--out", tmp_path / "sd"]) == 2
    # w off its first integral by 5e-8: above the w threshold, below the k one
    lines = (tmp_path / "sd" / "trajectory_fwd.csv").read_text().splitlines()
    first = lines.index("y,phi,psi,theta,k,w,S") + 2
    for i in range(first, len(lines)):
        cols = lines[i].split(",")
        cols[5] = repr(float(cols[5]) + 5e-8)
        lines[i] = ",".join(cols)
    bad = tmp_path / "perturbed.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["verify", bad, "--out", tmp_path / "v"]) == 1
    checks = json.loads((tmp_path / "v" / "verify.json").read_text())["reports"][0]["checks"]
    for c in checks:
        assert c["pass"] == (c["max_residual"] <= c["threshold"]), c
    verdicts = [(c["identity"], c["pass"]) for c in checks]
    assert verdicts == [("steady_w", False), ("steady_k", True)]


def test_verify_truncated_file_parse_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("this is not a trajectory\n")
    assert run(["verify", bad, "--out", tmp_path]) == 65
    missing = tmp_path / "missing.csv"
    assert run(["verify", missing, "--out", tmp_path]) == 65


def test_sweep_summary_and_reproducibility(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["sweep", "steady", "--count", 4, "--seed", 3, "--out", a]) == 0
    assert run(["sweep", "steady", "--count", 4, "--seed", 3, "--out", b]) == 0
    for name in ["summary.json"] + [f"run_{i:03d}.json" for i in range(4)]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    summary = json.loads((a / "summary.json").read_text())
    assert summary["counts"]["breakdown"] == 4


def test_sweep_workers_match_serial(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "par"
    assert run(["sweep", "selfsimilar", "--count", 4, "--seed", 5, "--out", a]) == 0
    assert run(["sweep", "selfsimilar", "--count", 4, "--seed", 5, "--workers", 2, "--out", b]) == 0
    for i in range(4):
        assert (a / f"run_{i:03d}.json").read_bytes() == (b / f"run_{i:03d}.json").read_bytes()


@pytest.mark.parametrize("count", [1, 7, 34])
def test_sweep_chunked_pool_matches_serial(tmp_path, count):
    # each worker shoots one contiguous block of states as one batch: 34
    # states on 3 workers make blocks of 11, 11 and 12, and 1 state is one
    # block however many workers are asked for
    a = tmp_path / "serial"
    args = ["sweep", "steady", "--count", count, "--seed", 9]
    assert run(args + ["--workers", 1, "--out", a]) == 0
    for workers in (2, 3):
        b = tmp_path / f"par{workers}"
        assert run(args + ["--workers", workers, "--out", b]) == 0
        for name in ["summary.json"] + [f"run_{i:03d}.json" for i in range(count)]:
            assert (a / name).read_bytes() == (b / name).read_bytes()


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
    cfg.write_text("scheme=bogus\n")
    assert run(["flow-graph", "--n", 64, "--t-end", 0.01, "--config", cfg, "--out", tmp_path]) == 64


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


def test_flow_graph_emit_plot_data(tmp_path):
    code = run(["flow-graph", "--n", 64, "--t-end", 0.1, "--frames", 2,
                "--emit-plot-data", "--out", tmp_path])
    assert code == 0
    lines = (tmp_path / "plot_data.csv").read_text().splitlines()
    assert lines[0] == "t,series,value"
    assert len(lines) > 6


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


def test_flow_curve_roundtrip_via_input_file(tmp_path):
    assert run(["flow-curve", "--seed", "ellipse", "--n", 64, "--dt", "1e-3",
                "--t-end", 0.01, "--frames", 1, "--out", tmp_path / "e"]) == 0
    curve_file = tmp_path / "e" / "curve_000.csv"
    assert run(["flow-curve", "--input", curve_file, "--dt", "1e-3",
                "--t-end", 0.01, "--frames", 1, "--out", tmp_path / "e2"]) == 0
    assert run(["flow-curve", "--input", tmp_path / "e" / "manifest.json",
                "--dt", "1e-3", "--t-end", 0.01]) == 65
