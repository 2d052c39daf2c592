"""Which modules a fresh interpreter loads for each kind of sdflow run.

Shooting, sweeps, verification and the graph flow need only numpy.  The
curve flow's first solve loads scipy's LAPACK wrapper by itself, not the
scipy.linalg package.  No command starts a process or loads
multiprocessing, and each loads inside ``main`` only modules from a short
list (``ALLOWED_IN_MAIN``).
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


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that can import sdflow; it must
    exit 0.  Return its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(code):
    """Run ``code`` in a fresh interpreter; return the modules it loaded."""
    out = run_fresh(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    return json.loads(out.strip().splitlines()[-1])


def scipy_modules_after(code):
    return [m for m in modules_after(code) if m == "scipy" or m.startswith("scipy.")]


CURVE = ["flow-curve", "--seed", "circle", "--kappa", 2, "--n", 64, "--dt", "1e-3",
         "--t-end", "2e-3", "--frames", 1]


def main_call(args):
    return f"import sdflow.cli\nassert sdflow.cli.main({[str(a) for a in args]!r}) == 0"


@pytest.mark.parametrize("code", ["import sdflow", "import sdflow.cli"])
def test_import_loads_no_scipy(code):
    assert scipy_modules_after(code) == []


def test_numpy_only_commands_load_no_scipy(tmp_path):
    shoot = ["shoot", "steady", "--init", "0,0.4,0,0.1", "--budget", 5, "--sample-h", 0.01,
             "--out", tmp_path / "s"]
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
    shoot = ["shoot", "steady", "--init", "0,0.4,0,0.1", "--budget", 5, "--sample-h", 0.01,
             "--out", tmp_path / "s"]
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
    loaded = scipy_modules_after(main_call(CURVE + ["--out", tmp_path]))
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.linalg" not in loaded
    assert "scipy.interpolate" not in loaded


# What a command may load after ``import sdflow.cli``: the locale for text
# files, numpy's FFT for the graph flow, and for the curve flow scipy's own
# light init (with the stdlib modules it pulls in) and its LAPACK wrapper.
ALLOWED_IN_MAIN = {
    "locale", "_locale",
    "numpy.fft", "numpy.fft._helper", "numpy.fft._pocketfft", "numpy.fft._pocketfft_umath",
    "scipy", "scipy.__config__", "scipy.version", "scipy._distributor_init",
    "scipy._cyutility", "_cyutility", "scipy._lib", "scipy._lib._ccallback",
    "scipy._lib._ccallback_c", "scipy._lib._pep440", "scipy._lib._testutils",
    "sysconfig", "subprocess", "_posixsubprocess", "select", "selectors", "signal", "fcntl",
    "scipy.linalg._flapack",
}


def test_commands_import_no_package_inside_main(tmp_path):
    shoot = ["shoot", "steady", "--init", "0,0.4,0,0.1", "--budget", 5, "--sample-h", 0.01,
             "--out", tmp_path / "s"]
    assert main([str(a) for a in shoot]) == 0
    commands = [
        shoot,
        ["sweep", "selfsimilar", "--count", 4, "--workers", 2, "--out", tmp_path / "w"],
        ["verify", tmp_path / "s" / "trajectory_fwd.csv", "--out", tmp_path / "v"],
        ["flow-graph", "--n", 64, "--t-end", 0.01, "--frames", 2, "--out", tmp_path / "g"],
        CURVE + ["--out", tmp_path / "c"],
    ]
    cli = set(modules_after("import sdflow.cli"))
    for args in commands:
        added = set(modules_after(main_call(args))) - cli
        extra = {m for m in added if not m.startswith("_sysconfigdata_")} - ALLOWED_IN_MAIN
        assert not extra, (args[0], sorted(extra))


STEP = "from sdflow.curveflow import _bgn_layout, _bgn_step, seed_circle\n" \
       "_bgn_step(seed_circle(2.0, 64).points, 1e-3)\n"
GBSV = "import numpy as np\nfrom scipy.linalg import get_lapack_funcs\n" \
       "gbsv = get_lapack_funcs('gbsv', dtype=np.float64)\n"


@pytest.mark.parametrize("first, then", [(STEP, GBSV), (GBSV, STEP)],
                         ids=["step-first", "scipy-first"])
def test_step_uses_scipys_own_gbsv_in_either_import_order(first, then):
    run_fresh(first + then + "assert _bgn_layout(64)[-1] is gbsv\n")
