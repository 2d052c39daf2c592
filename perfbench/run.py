"""sdflow benchmark: the README's CLI commands, one fresh interpreter each.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs as ``sdflow ARGS`` would, in its own ``python3``
process (through ``launch.py``), so interpreter start-up and imports are
counted.  The workload's commands run one after another, each waiting
for the previous one: a closed loop with one client.  A *pass* is one
run of all of a workload's commands on the inputs generated from
``--seed``; the program sees only those CLI arguments.

Workloads: ``shooting`` (the theorem sweeps on a two-worker pool, then
shoots that write dense trajectories, uniform-grid shoots and
``verify``) and ``flows`` (graph flow and curve flow runs).  Between
them every sdflow module is exercised, and each leaves the other's
layers idle.

``--trace 0`` repeats passes for about ``--seconds`` seconds (at least
two).  It reports the median set-up time over all processes, and the
wall time and throughput of each command's fastest run.  ``--trace 1``
runs one untraced pass and one traced pass, in which ``layers.py`` times
every call into a layer, and reports the per-layer metrics; it also
replays the sweeps with ``--workers 1`` and requires byte-identical
reports.

Every output is checked.  An operation is one CLI command (its exit
code must be the expected one) or one output check; the last line of
standard output is the JSON result with ``attempted`` and ``failed``
operations.  Outputs are hashed per pass; passes of one seed must agree,
and so must runs of one source tree, whose digests are kept in
``.bench_build/perfbench/digests.json``.

Outputs and records go to ``.bench_build/perfbench/`` in the checkout.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
LAUNCH = HERE / "launch.py"
MODULES = ("cli", "soliton", "identities", "graphpde", "geometry", "curveflow")
CERT_TYPES = ("angle_excess", "graphicality_loss", "step_underflow", "non_finite")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
DEADLINE_S = 170.0  # a run must end within 180 s
SWEEP_WORKERS = 2

# the five criterion-1 soliton kinds: (tag, CLI kind arguments)
KINDS = [
    ("steady", ["steady"]),
    ("selfsimilar", ["selfsimilar"]),
    ("travelling_1_0", ["travelling", "--a", "1", "--b", "0"]),
    ("travelling_1_1", ["travelling", "--a", "1", "--b", "1"]),
    ("travelling_0_1", ["travelling", "--a", "0", "--b", "1"]),
]


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one command's outputs showed."""

    checks: list = field(default_factory=list)  # (label, passed)
    work: float = 0.0  # states classified, or simulated flow time
    reports: list = field(default_factory=list)  # reports of random states
    residuals: list = field(default_factory=list)  # identity max residuals
    t_ext: float | None = None


def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def valid_breakdown(report) -> bool:
    """Outcome breakdown with a certificate that meets its own contract."""
    if not isinstance(report, dict) or report.get("outcome") != "breakdown":
        return False
    cert = report.get("certificate") or {}
    y_event, detail = cert.get("y_event"), cert.get("detail") or {}
    if cert.get("type") not in CERT_TYPES or cert.get("direction") not in (1, -1):
        return False
    if not isinstance(y_event, (int, float)) or not math.isfinite(y_event):
        return False
    if cert["type"] == "angle_excess":
        return detail.get("value", 0.0) > math.pi
    if cert["type"] == "graphicality_loss":
        return abs(detail.get("slope", 0.0)) >= detail.get("ceiling", math.inf)
    return True


def check_sweep(out: Path, count: int) -> Outcome:
    res = Outcome(work=count)
    for i in range(count):
        rep = _load(out / f"run_{i:03d}.json")
        res.checks.append((f"{out.name}/run_{i:03d} breakdown", valid_breakdown(rep)))
        res.reports.append(rep)
    summary = _load(out / "summary.json") or {}
    res.checks.append(
        (f"{out.name}/summary all breakdown", summary.get("counts", {}).get("breakdown") == count)
    )
    return res


def check_random_shoot(out: Path, count: int) -> Outcome:
    res = Outcome(work=count)
    for i in range(count):
        rep = _load(out / f"report_{i:03d}.json")
        files = all((out / f"trajectory_{i:03d}_{d}.csv").is_file() for d in ("fwd", "bwd"))
        res.checks.append((f"{out.name}/report_{i:03d} breakdown", valid_breakdown(rep) and files))
        res.reports.append(rep)
    return res


def check_uniform_shoot(out: Path) -> Outcome:
    rep = _load(out / "report.json") or {}
    files = all((out / f"trajectory_{d}.csv").is_file() for d in ("fwd", "bwd"))
    return Outcome(
        checks=[(f"{out.name}/report inconclusive", rep.get("outcome") == "inconclusive" and files)],
        work=1,
    )


def check_verify(out: Path, files: int) -> Outcome:
    bundle = _load(out / "verify.json") or {}
    entries = bundle.get("reports", [])
    res = Outcome(checks=[(f"{out.name} covers every file", len(entries) == files)])
    for entry in entries:
        for chk in entry.get("checks", []):
            res.checks.append((f"{entry.get('file')} {chk.get('identity')}", chk.get("pass") is True))
            res.residuals.append(chk.get("max_residual", math.inf))
    return res


def check_graph(out: Path) -> Outcome:
    manifest = _load(out / "manifest.json") or {}
    frames = manifest.get("frames", [])
    res = Outcome(work=manifest.get("config", {}).get("t_end", 0.0))
    res.checks.append((f"{out.name} 65 frames", len(frames) == 65
                       and all((out / f["frame_file"]).is_file() for f in frames)))
    decayed = bool(frames) and frames[-1]["monitors"]["max_w"] < frames[0]["monitors"]["max_w"]
    res.checks.append((f"{out.name} max|w| decays", decayed))
    return res


def check_curve(out: Path, expect: str) -> Outcome:
    manifest = _load(out / "manifest.json") or {}
    outcome, frames = manifest.get("outcome", {}), manifest.get("frames", [])
    res = Outcome(work=manifest.get("config", {}).get("t_end", 0.0))
    ok = outcome.get("kind") == expect and bool(frames)
    if expect == "extinct" and ok:
        res.t_ext = res.work = outcome["t_ext"]
    elif out.name == "circle" and ok:  # criterion 9: enclosed area conserved
        a0 = frames[0]["signed_area"]
        ok = max(abs(f["signed_area"] - a0) / abs(a0) for f in frames) <= 1e-3
    elif out.name == "ellipse" and ok:  # criterion 9: length does not increase
        lengths = [f["length"] for f in frames]
        ok = all(b < a + 1e-10 for a, b in zip(lengths, lengths[1:]))
    res.checks.append((f"{out.name} {expect}", ok))
    return res


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass
class Command:
    argv: list  # arguments after `sdflow`; the last two are `--out DIR`
    expect_code: int
    check: Callable  # (output directory) -> Outcome

    @property
    def out(self) -> str:
        return self.argv[-1]


def sweeps(seed: int) -> list:
    """Seeded 100-state sweeps of the five kinds on a two-worker pool."""
    rng = random.Random(f"sweep:{seed}")
    return [
        Command(["sweep", *kind, "--random", "--count", "100", "--seed", str(rng.randrange(2**31)),
                 "--workers", str(SWEEP_WORKERS), "--budget", "200", "--out", f"sweep_{tag}"],
                0, lambda out: check_sweep(out, 100))
        for tag, kind in KINDS
    ]


def mild_state(rng: random.Random) -> str:
    """phi,psi,k,w small enough that a 0.5 budget ends before any breakdown."""
    phi, psi = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    k = rng.choice((-1, 1)) * rng.uniform(0.1, 0.6)
    w = rng.uniform(-0.3, 0.3)
    return ",".join(f"{x:.3f}" for x in (phi, psi, k, w))


def trajectory_shoots(seed: int) -> list:
    """Random shoots that store trajectories, uniform-grid shoots, and verify."""
    rng = random.Random(f"trajectories:{seed}")
    cmds = [
        Command(["shoot", *kind, "--random", "--count", "15", "--seed", str(rng.randrange(2**31)),
                 "--out", f"random_{tag}"], 0, lambda out: check_random_shoot(out, 15))
        for tag, kind in KINDS
    ]
    # a uniform grid that completes its budget is inconclusive by design: exit 2
    cmds += [
        Command(["shoot", *kind, f"--init={mild_state(rng)}", "--budget", "0.5",
                 "--sample-h", "0.001", "--out", f"uniform_{tag}"], 2, check_uniform_shoot)
        for tag, kind in KINDS
    ]
    files = [f"uniform_{tag}/trajectory_{d}.csv" for tag, _ in KINDS for d in ("fwd", "bwd")]
    cmds.append(Command(["verify", *files, "--out", "verify"], 0,
                        lambda out: check_verify(out, len(files))))
    return cmds


def flows_workload(seed: int) -> list:
    """The graph flow, step-bound (nonlinear, n=1024) and frame-writing-bound
    (near-linear, n=4096), and the curve flow of a collapsing figure eight,
    a stationary circle and a relaxing ellipse."""
    return [
        Command(["flow-graph", "--n", "1024", "--A", "1", "--eps", "0.3", "--dt", "1e-3",
                 "--t-end", "10", "--out", "graph_nonlinear"], 0, check_graph),
        Command(["flow-graph", "--n", "4096", "--A", "1", "--eps", "1e-3", "--dt", "0.01",
                 "--t-end", "10", "--emit-plot-data", "--out", "graph_linear"], 0, check_graph),
        Command(["flow-curve", "--seed", "lemniscate", "--n", "512", "--t-end", "8",
                 "--out", "lemniscate"], 0, lambda out: check_curve(out, "extinct")),
        Command(["flow-curve", "--seed", "circle", "--kappa", "2", "--n", "512", "--t-end", "1",
                 "--out", "circle"], 0, lambda out: check_curve(out, "reached")),
        Command(["flow-curve", "--seed", "ellipse", "--major", "1", "--minor", "0.5", "--n", "256",
                 "--dt", "5e-4", "--t-end", "1", "--out", "ellipse"], 0,
                lambda out: check_curve(out, "reached")),
    ]


WORKLOADS = {
    "shooting": lambda seed: sweeps(seed) + trajectory_shoots(seed),
    "flows": flows_workload,
}


# --------------------------------------------------------------------------
# running commands and passes
# --------------------------------------------------------------------------

class Deadline(Exception):
    pass


@dataclass
class Proc:
    wall_s: float  # spawn to exit
    setup_s: float  # spawn to the return of `import sdflow.cli`
    main_s: float
    peak_rss_kb: int
    spans: list


@dataclass
class Pass:
    wall_s: float = 0.0
    procs: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    ops: list = field(default_factory=list)  # (label, passed)
    digest: str = ""
    bytes_written: int = 0
    files_written: int = 0

    @property
    def work(self) -> float:
        return sum(o.work for o in self.outcomes)

    @property
    def main_s(self) -> float:
        return sum(p.main_s for p in self.procs)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SDFLOW_OUT", None)
    return env


def spawn(argv: list, cwd: Path, deadline: float) -> tuple:
    """Run argv in its own process group; kill the group if it outlives the deadline."""
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Deadline(" ".join(argv[2:6]))
    finally:
        try:  # nothing the command started may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


def run_pass(cmds: list, pass_dir: Path, traced: bool, deadline: float) -> Pass:
    """Run the commands back to back, then check their outputs."""
    records = pass_dir.with_name(pass_dir.name + ".records")
    for path in (pass_dir, records):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    result, runs = Pass(), []
    for i, cmd in enumerate(cmds):
        spawned = time.monotonic()
        code, _, err = spawn([sys.executable, str(LAUNCH), str(records / f"{i}.json"),
                              "1" if traced else "0", *cmd.argv], pass_dir, deadline)
        runs.append((spawned, time.monotonic(), code, err))
    result.wall_s = runs[-1][1] - runs[0][0]
    for i, (cmd, (spawned, exited, code, err)) in enumerate(zip(cmds, runs)):
        rec = _load(records / f"{i}.json")
        ran = (rec is not None and code == cmd.expect_code == rec["code"]
               and Path(rec["sdflow_file"]).resolve().is_relative_to(SRC.resolve()))
        result.ops.append((f"{' '.join(cmd.argv[:2])} -> {cmd.out} exit {code}", ran))
        if not ran:
            print(f"command failed: sdflow {' '.join(cmd.argv)}: exit {code}\n{err[-2000:]}",
                  file=sys.stderr)
        if rec is not None:
            result.procs.append(Proc(exited - spawned, rec["imported"] - spawned, rec["main_s"],
                                     rec["peak_rss_kb"], rec["spans"]))
            for point in rec["missing_wrap_points"]:
                print(f"trace: no {point} to wrap", file=sys.stderr)
        outcome = cmd.check(pass_dir / cmd.out)
        result.outcomes.append(outcome)
        result.ops.extend(outcome.checks)
    result.digest, result.bytes_written, result.files_written = digest_tree(pass_dir)
    return result


def digest_tree(root: Path) -> tuple:
    """sha256 over (relative path, content hash) of every file, and the totals."""
    h, total, count = hashlib.sha256(), 0, 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{hashlib.sha256(data).hexdigest()}\n"
                 .encode())
        total += len(data)
        count += 1
    return h.hexdigest(), total, count


# --------------------------------------------------------------------------
# statistics and records
# --------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> float:
    """Highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would lie under the median, so the
    median stands in for it.
    """
    if len(values) < 21:
        return median(values)
    return float(sorted(values)[len(values) - 11])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sdflow").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def lines_of_code() -> dict:
    return {m: len((SRC / "sdflow" / f"{m}.py").read_text().splitlines()) for m in MODULES}


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": commit,
        "source_sha256": source_digest(),
        "loc": lines_of_code(),
    }


def record_digest(key: str, digest: str) -> bool:
    """Store the digest of (source tree, workload, seed, inputs); False if it changed."""
    store = WORK / "digests.json"
    known = _load(store) or {}
    if known.setdefault(key, digest) != digest:
        return False
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    tmp.replace(store)
    return True


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def parse_result(line: str) -> dict:
    """Validate one result line; metric names may use only [A-Za-z0-9_.-]."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        raise ValueError("attempted and failed must be counts")
    for name, metric in result["metrics"].items():
        if not METRIC_NAME.fullmatch(name) or len(name) > 64:
            raise ValueError(f"bad metric name {name!r}")
        value = metric["value"]
        if set(metric) != {"value", "unit"} or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"bad metric {name}: {metric!r}")
    return result


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def end_to_end(passes: list) -> dict:
    # Other tenants slow a shared machine by 10-25% for seconds to minutes at a
    # time and never speed it up, so each command's fastest run in this run's
    # passes is the steadiest measure of its cost.  With one pass these are
    # the pass's own wall time and time inside main.
    runs = list(zip(*[ps.procs for ps in passes]))  # one tuple per command
    return {
        "setup_s": median([p.setup_s for ps in passes for p in ps.procs]),
        "wall_s": sum(min(p.wall_s for p in run) for run in runs),
        "work_per_s": passes[0].work / sum(min(p.main_s for p in run) for run in runs),
        "output_mb": median([ps.bytes_written / 1e6 for ps in passes]),
        "peak_rss_mb": median([max(p.peak_rss_kb for p in ps.procs) * 1024 / 1e6
                               for ps in passes]),
    }


# timed span -> (metric base, name of its sample count or None for "<base>.n")
TIMINGS = {
    "cli.main": ("cli.self_s", None),  # self time: parsing and writing
    "soliton.shoot": ("soliton.shoot_s", "soliton.shoots"),
    "soliton.integrate": ("soliton.integrate_s", None),
    "soliton.to_csv": ("soliton.to_csv_s", None),
    "soliton.from_csv": ("soliton.from_csv_s", None),
    "identities.check": ("identities.check_s", "identities.checks"),
    "graphpde.step": ("graphpde.step_s", "graphpde.steps"),
    "geometry.operator": ("geometry.operator_s", None),
    "geometry.field_to_csv": ("geometry.field_to_csv_s", None),
    "curveflow.flow": ("curveflow.flow_s", None),
    "curveflow.resample": ("curveflow.resample_s", "curveflow.resamples"),
    "curveflow.diameter": ("curveflow.diameter_s", "curveflow.diameter_calls"),
    "curveflow.curvature": ("curveflow.curvature_s", None),
}


def per_layer(plain: Pass, traced: Pass, replay: Pass | None, traced_dir: Path) -> dict:
    procs = traced.procs + (replay.procs if replay else [])
    total, self_time = layers.durations(p.spans for p in procs)
    out = {}
    for span, (base, count) in TIMINGS.items():
        samples = (self_time if span == "cli.main" else total).get(span, [])
        out[f"{base}.p50"] = median(samples)
        out[f"{base}.tail"] = tail(samples)
        out[count or f"{base}.n"] = len(samples)
    imports = [p.setup_s for p in procs]
    out.update({"cli.import_s.p50": median(imports), "cli.import_s.tail": tail(imports),
                "cli.import_s.n": len(imports)})
    out["cli.bytes_written"] = traced.bytes_written
    out["cli.files_written"] = traced.files_written
    out["graphpde.evolve_self_s"] = sum(self_time.get("graphpde.evolve", []))
    out["curveflow.flow_self_s"] = sum(self_time.get("curveflow.flow", []))

    # the pool's busy time is that of the same shoots replayed in one process
    pool_wall = sum(layers.durations(p.spans for p in traced.procs)[0]
                    .get("soliton.run_sweep", []))
    busy = sum(layers.durations(p.spans for p in replay.procs)[0]
               .get("soliton.shoot", [])) if replay else 0.0
    out["soliton.pool_efficiency"] = busy / (SWEEP_WORKERS * pool_wall) if pool_wall else 0.0

    reports = [r for o in traced.outcomes for r in o.reports]
    certs = [r["certificate"] for r in reports if isinstance(r, dict) and r.get("certificate")]
    for kind in CERT_TYPES:
        out[f"soliton.cert.{kind}"] = sum(c["type"] == kind for c in certs)
    out["soliton.y_event.p50"] = median([abs(c["y_event"]) for c in certs])
    out["soliton.certified_frac"] = len(certs) / len(reports) if reports else 0.0
    out["soliton.samples_per_traj"] = median(trajectory_samples(traced_dir))

    residuals = [r for o in traced.outcomes for r in o.residuals]
    out["identities.max_residual"] = max(residuals, default=0.0)
    out["curveflow.t_ext"] = next((o.t_ext for o in traced.outcomes if o.t_ext), 0.0)
    out.update({f"loc.{m}": n for m, n in lines_of_code().items()})
    out["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    return out


def trajectory_samples(root: Path) -> list:
    counts = []
    for path in root.rglob("trajectory*.csv"):
        with path.open() as fh:
            counts.append(sum(1 for ln in fh if not ln.startswith("#")) - 1)
    return counts


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def with_workers(cmd: Command, workers: int) -> Command:
    argv = list(cmd.argv)
    argv[argv.index("--workers") + 1] = str(workers)
    return Command(argv, cmd.expect_code, cmd.check)


def same_outputs(a: Path, b: Path) -> bool:
    return digest_tree(a)[0] == digest_tree(b)[0]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    run_dir = WORK / f"{workload}-{seed}-{trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return measure(workload, seed, seconds, trace, run_dir, start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: int, run_dir: Path,
            start: float) -> dict:
    deadline = start + DEADLINE_S
    units = metric_units()[trace]
    cmds = WORKLOADS[workload](seed)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    # warm the page cache and write sdflow's bytecode before anything is timed
    spawn([sys.executable, "-c", "import sdflow.cli"], ROOT, deadline)

    replay = None
    if trace:
        passes = [run_pass(cmds, run_dir / "plain", False, deadline)]
        traced = run_pass(cmds, run_dir / "traced", True, deadline)
        ops = passes[0].ops + traced.ops
        pooled = [c for c in cmds if "--workers" in c.argv]
        if pooled:
            replay = run_pass([with_workers(c, 1) for c in pooled], run_dir / "replay", True,
                              deadline)
            ops += replay.ops
            ops += [(f"{c.out} identical with --workers 1",
                     same_outputs(run_dir / "traced" / c.out, run_dir / "replay" / c.out))
                    for c in pooled]
        passes.append(traced)
        metrics = per_layer(passes[0], traced, replay, run_dir / "traced")
    else:
        # at least two passes, so that each command has a second chance to run
        # while the machine is quiet; more while another one fits in --seconds
        passes, ops = [], []
        while len(passes) < 2 or time.monotonic() - start + passes[-1].wall_s <= seconds:
            passes.append(run_pass(cmds, run_dir / "plain", False, deadline))
            ops += passes[-1].ops
        metrics = end_to_end(passes)

    inputs = hashlib.sha256(json.dumps([c.argv for c in cmds]).encode()).hexdigest()
    key = f"{env['source_sha256']}:{workload}:{seed}:{inputs}"
    for i, ps in enumerate(passes):
        ops.append((f"pass {i} digest {ps.digest[:16]}", record_digest(key, ps.digest)))
        print(f"pass {i}: wall {ps.wall_s:.3f} s, inside main {ps.main_s:.3f} s, "
              f"work {ps.work:g}, {ps.files_written} files, {ps.bytes_written} bytes, "
              f"digest {ps.digest}")
    for label, ok in ops:
        if not ok:
            print(f"FAILED: {label}", file=sys.stderr)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    failed = sum(not ok for _, ok in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    (WORK / f"result-{workload}-{seed}-{trace}.json").write_text(
        json.dumps({"env": env, "digest": passes[0].digest, **result}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sdflow" / "cli.py").is_file():
        print(f"perfbench: no sdflow sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except Deadline as exc:
        print(f"perfbench: command did not finish in time: {exc}", file=sys.stderr)
        return 1
    line = json.dumps(result)
    parse_result(line)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
