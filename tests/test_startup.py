"""Which modules a fresh interpreter loads for each kind of sdflow run.

Shooting, sweeps, verification and the graph flow need only numpy;
scipy is imported where the curve flow first solves.  No command starts
a process or loads multiprocessing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdflow
from sdflow.cli import main

SRC = str(Path(sdflow.__file__).resolve().parents[1])


def modules_after(code):
    """Run ``code`` in a fresh interpreter; return the modules it loaded."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_modules_after(code):
    return [m for m in modules_after(code) if m == "scipy" or m.startswith("scipy.")]


def main_call(args):
    return f"import sdflow.cli\nassert sdflow.cli.main({[str(a) for a in args]!r}) == 0"


@pytest.mark.parametrize("code", ["import sdflow", "import sdflow.cli"])
def test_import_loads_no_scipy(code):
    assert scipy_modules_after(code) == []


def test_numpy_only_commands_load_no_scipy(tmp_path):
    shoot = ["shoot", "steady", "--init", "0,0.4,0,0.1", "--budget", 5, "--out", tmp_path / "s"]
    assert main([str(a) for a in shoot]) == 0
    commands = [
        shoot,
        ["sweep", "selfsimilar", "--count", 4, "--workers", 2, "--out", tmp_path / "w"],
        ["verify", tmp_path / "s" / "trajectory_fwd.csv", "--out", tmp_path / "v"],
        ["flow-graph", "--n", 64, "--t-end", 0.01, "--frames", 2, "--out", tmp_path / "g"],
    ]
    for args in commands:
        assert scipy_modules_after(main_call(args)) == [], args[0]


def test_only_sweeps_load_the_process_pool(tmp_path):
    # no command loads the executor or multiprocessing: a sweep runs in the
    # calling process whatever --workers reads
    pool, fork = "concurrent.futures.process", "multiprocessing"
    shoot = ["shoot", "steady", "--init", "0,0.4,0,0.1", "--budget", 5, "--out", tmp_path / "s"]
    assert main([str(a) for a in shoot]) == 0
    verify = ["verify", tmp_path / "s" / "trajectory_fwd.csv", "--out", tmp_path / "v"]
    graph = ["flow-graph", "--n", 64, "--t-end", 0.01, "--frames", 2, "--out", tmp_path / "g"]
    sweep = ["sweep", "selfsimilar", "--count", 4, "--out", tmp_path / "w"]
    sweep2 = sweep[:-2] + ["--workers", 2, "--out", tmp_path / "w2"]
    for code in ["import sdflow.cli", main_call(shoot), main_call(verify), main_call(graph),
                 main_call(sweep), main_call(sweep2)]:
        loaded = modules_after(code)
        assert pool not in loaded and fork not in loaded, code


def test_curve_flow_loads_scipy(tmp_path):
    loaded = scipy_modules_after(main_call(
        ["flow-curve", "--seed", "circle", "--kappa", 2, "--n", 64, "--dt", "1e-3",
         "--t-end", "2e-3", "--frames", 1, "--out", tmp_path]
    ))
    assert "scipy.linalg" in loaded
    assert "scipy.interpolate" not in loaded
