"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_gives_same_arguments(workload):
    make = run.WORKLOADS[workload]
    assert [c.argv for c in make(7)] == [c.argv for c in make(7)]


def test_seeds_give_different_arguments():
    make = run.WORKLOADS["shooting"]
    assert [c.argv for c in make(7)] != [c.argv for c in make(8)]


def test_wrong_expectation_counts_as_failure(tmp_path):
    # a straight line is trivial and exits 0; both expectations below are wrong
    argv = ["shoot", "steady", "--init=0,1,0,0", "--budget", "1", "--out", "line"]
    cmds = [run.Command(argv, 2, run.check_uniform_shoot),
            run.Command(argv, 0, run.check_uniform_shoot)]
    result = run.run_pass(cmds, tmp_path / "pass", False, time.monotonic() + 120)
    assert [ok for _, ok in result.ops] == [False, False, True, False]
    assert run.check_sweep(tmp_path / "pass" / "line", 1).checks[0][1] is False


def test_certificate_contract():
    cert = {"type": "angle_excess", "y_event": 0.8, "direction": 1, "detail": {"value": 3.2}}
    assert run.valid_breakdown({"outcome": "breakdown", "certificate": cert})
    assert not run.valid_breakdown({"outcome": "trivial", "certificate": cert})
    low = dict(cert, detail={"value": 3.0})
    assert not run.valid_breakdown({"outcome": "breakdown", "certificate": low})


def _result(name):
    return json.dumps({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {name: {"value": 1.5, "unit": "s"}}})


@pytest.mark.parametrize("name", ["wall_s", "soliton.cert.angle_excess", "a-b_c.9"])
def test_metric_names_accepted(name):
    assert name in run.parse_result(_result(name))["metrics"]


@pytest.mark.parametrize("name", ["", "wall s", "x/y", "p50%", "café", "a" * 65])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        run.parse_result(_result(name))


def test_self_time_excludes_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0], ["b", 0, 5.0, 6.0]]
    other = [["a", -1, 0.0, 2.0], ["c", 0, 0.5, 1.0]]  # parents index their own process
    total, self_time = layers.durations([spans, other])
    assert total["b"] == [3.0, 1.0]
    assert self_time["a"] == [6.0, 1.5] and self_time["b"] == [2.0, 1.0]


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    assert run.tail(values) == 89
    assert run.tail(list(range(21))) == 10
    assert run.tail([1.0, 2.0, 3.0]) == 2.0
