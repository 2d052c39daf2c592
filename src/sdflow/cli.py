"""Command-line driver for reproducible experiments.

Commands: shoot, sweep, verify, flow-graph, flow-curve.  Configuration
comes from plain key=value files (--config) with command-line flags
taking precedence; every JSON file embeds the effective configuration
and the package version, carries no timestamps, and serializes floats
at shortest round-trip precision with signed zeros as 0.0, so identical
runs produce identical bytes.

Exit codes: 0 certified or passed, 2 inconclusive, 1 runtime error,
64 usage error, 65 parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import GraphField, _unsigned_zeros
from .graphpde import FlowConfig, FlowDivergedError, GraphicalityLostError, evolve
from .identities import (
    IdentityReport,
    _check_uniform,
    convexity_residual_m,
    convexity_residual_q,
    q_upper_bound_residual,
    reduction_residual,
    steady_first_integral_residuals,
    tangential_identity_residual,
)
from .soliton import (
    IntegratorOptions,
    ProfileState,
    SolitonKind,
    Trajectory,
    run_sweep,
    seeded_initial_states,
    shoot_batch,
    shoot_bidirectional,
)
from . import curveflow

USAGE_ERROR = 64
PARSE_ERROR = 65

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _finite(text: str) -> float:
    """argparse type of the float flags: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive(text: str) -> float:
    """argparse type of step sizes, tolerances and budgets: finite and > 0."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type of PRNG seeds: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _positive_int(text: str) -> int:
    """argparse type of counts that must be at least 1: frames, workers and states."""
    value = _nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _load_config(path: str, allowed: set) -> dict:
    """key=value file; unknown keys are rejected."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in allowed:
            raise ValueError(f"unknown config key: {key}")
        out[key] = val
    return out


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("SDFLOW_OUT", "runs")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


# The flags each command echoes as "config" in its JSON files.  sweep leaves
# out --workers, which is accepted and has no effect: a sweep is one batch in
# one process, so its reports are the same bytes whatever the flag reads.
_CONFIG_KEYS = {
    "shoot": ("kind", "a", "b", "init", "random", "seed", "count",
              "budget", "abs_tol", "rel_tol", "sample_h"),
    "sweep": ("kind", "a", "b", "seed", "count", "budget", "abs_tol", "rel_tol"),
    "verify": ("trajectories",),
    "flow-graph": ("n", "L", "A", "eps", "dt", "t_end", "frames"),
    "flow-curve": ("seed_shape", "input", "n", "kappa", "major", "minor", "dt", "t_end", "frames"),
}


def _write_json(path: Path, args, payload: dict) -> None:
    """``payload`` with the package version and the command's config echo,
    keys sorted and signed zeros written 0.0."""
    config = {key: getattr(args, key) for key in _CONFIG_KEYS[args.command]}
    payload = _unsigned_zeros({**payload, "config": config, "version": __version__})
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_reports(out: Path, args, reports, trajectories: bool) -> dict:
    """Each report's JSON and, if ``trajectories``, its stored pair; returns
    the outcome counts.

    With trajectories (shoot) the names are report.json, trajectory_fwd.csv
    and trajectory_bwd.csv, tagged _000, _001, ... when there are several
    reports; without (sweep) they are run_000.json, run_001.json, ...
    """
    counts = {"trivial": 0, "breakdown": 0, "inconclusive": 0}
    for i, report in enumerate(reports):
        counts[report.outcome] += 1
        if not trajectories:
            _write_json(out / f"run_{i:03d}.json", args, report.to_dict())
            continue
        tag = f"_{i:03d}" if len(reports) > 1 else ""
        _write_json(out / f"report{tag}.json", args, report.to_dict())
        (out / f"trajectory{tag}_fwd.csv").write_text(report.forward.to_csv())
        (out / f"trajectory{tag}_bwd.csv").write_text(report.backward.to_csv())
    return counts


def _kind_from_args(parser, args) -> SolitonKind:
    if args.kind == "travelling":
        try:
            return SolitonKind.travelling(args.a, args.b)
        except ValueError as exc:
            parser.error(str(exc))
    return SolitonKind(args.kind)


def _parse_init(parser, text: str) -> ProfileState:
    parts = text.split(",")
    if len(parts) != 4:
        parser.error("--init expects four values: phi,psi,k,w")
    try:
        phi, psi, k, w = (_finite(p) for p in parts)
    except argparse.ArgumentTypeError:
        parser.error("--init values must be finite numbers")
    return ProfileState.initial(phi, psi, k, w)


def _cmd_shoot(parser, args) -> int:
    kind = _kind_from_args(parser, args)
    opts = IntegratorOptions(abs_tol=args.abs_tol, rel_tol=args.rel_tol, sample_h=args.sample_h)
    if args.random:
        if args.init is not None:
            parser.error("--random draws its initial states; not with --init")
        args.seed, args.count = args.seed or 0, args.count or 1
        inits = seeded_initial_states(args.seed, 0, args.count)
        reports = shoot_batch(kind, inits, args.budget, opts)
    else:
        if args.init is None:
            parser.error("either --init or --random is required")
        given = [f"--{dest}" for dest in ("seed", "count") if getattr(args, dest) is not None]
        if given:
            parser.error(f"--init shoots the one state it gives; not with {', '.join(given)}")
        reports = [shoot_bidirectional(kind, _parse_init(parser, args.init), args.budget, opts)]

    counts = _write_reports(_out_dir(args), args, reports, trajectories=True)
    print(
        f"shoot {kind.name}: {counts['trivial']} trivial, "
        f"{counts['breakdown']} breakdown, {counts['inconclusive']} inconclusive"
    )
    return 2 if counts["inconclusive"] else 0


def _cmd_sweep(parser, args) -> int:
    kind = _kind_from_args(parser, args)
    opts = IntegratorOptions(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
    reports = run_sweep(kind, args.count, args.seed, args.budget, opts)
    out = _out_dir(args)
    counts = _write_reports(out, args, reports, trajectories=False)
    _write_json(out / "summary.json", args, {"counts": counts})
    print(f"sweep {kind.name}: {counts}")
    return 2 if counts["inconclusive"] else 0


def _q_checks(traj: Trajectory) -> list:
    convexity = convexity_residual_q(traj)
    bound = q_upper_bound_residual(traj)
    return [convexity, IdentityReport("q_bound", max(bound, 0.0), None)]


def _m_checks(traj: Trajectory) -> list:
    return [convexity_residual_m(traj),
            tangential_identity_residual(traj, traj.kind.a, traj.kind.b)]


def _steady_checks(traj: Trajectory) -> list:
    res_w, res_k = steady_first_integral_residuals(traj)
    return [IdentityReport("steady_w", res_w, None), IdentityReport("steady_k", res_k, None)]


# Per trajectory kind: the checks `verify` runs, and the threshold of each
# report they return, matching the test suite.  The check functions look the
# identities up at call time, so tracing wrappers see every call to them.
# Every kind also gets the reduction check, with threshold 1e-4; it is not
# among the benchmark tracer's wrap points, so its time is not traced.
_VERIFY_CHECKS = {
    "selfsimilar": (_q_checks, (1e-4, 1e-9)),
    "travelling": (_m_checks, (1e-4, 1e-4)),
    "steady": (_steady_checks, (1e-8, 1e-7)),
}


def _verify_one(path: Path) -> dict:
    """The sample count and the records of one trajectory file, which must
    be on the uniform grid in S of ``shoot --sample-h``.  A value
    that overflows makes a residual non-finite, which IdentityReport
    rejects (ValueError), so no warning is raised and no NaN or inf is
    written."""
    traj = Trajectory.from_csv(path.read_text())
    _check_uniform(traj.S)
    checks, thresholds = _VERIFY_CHECKS[traj.kind.name]
    with np.errstate(all="ignore"):
        reports = checks(traj) + [reduction_residual(traj)]
    for rep, threshold in zip(reports, thresholds + (1e-4,), strict=True):
        rep.threshold = threshold
    return {"samples": traj.n, "checks": [rep.to_dict() for rep in reports]}


def _cmd_verify(parser, args) -> int:
    bundle = []
    for name in args.trajectories:
        path = Path(name)
        try:
            entry = _verify_one(path)
        except (OSError, ValueError) as exc:
            print(f"verify: {name}: {exc}", file=sys.stderr)
            return PARSE_ERROR
        bundle.append({"file": name, **entry})
    _write_json(_out_dir(args) / "verify.json", args, {"reports": bundle})
    ok = all(chk["pass"] for entry in bundle for chk in entry["checks"])
    for entry in bundle:
        for chk in entry["checks"]:
            status = "pass" if chk["pass"] else "FAIL"
            print(f"{entry['file']}: {chk['identity']}: {chk['max_residual']:.3e} [{status}]")
    return 0 if ok else 1


def _write_frames(out: Path, args, prefix: str, frames, entry, payload: dict) -> None:
    """The frame CSVs <prefix>_000.csv, ..., manifest.json and, with
    --emit-plot-data, plot_data.csv.

    ``frames`` holds (t, shape, monitors); ``entry(t, file, monitors)`` is a
    frame's manifest entry, and ``payload`` the rest of the manifest.
    """
    manifest, plot_rows = [], []
    for i, (t, shape, mon) in enumerate(frames):
        name = f"{prefix}_{i:03d}.csv"
        (out / name).write_text(shape.to_csv())
        monitors = mon.to_dict()
        manifest.append(entry(t, name, monitors))
        plot_rows += [(t, key, val) for key, val in monitors.items()]
    _write_json(out / "manifest.json", args, {**payload, "frames": manifest})
    if args.emit_plot_data:
        rows = (f"{float(t)!r},{series},{float(val)!r}\n" for t, series, val in plot_rows)
        (out / "plot_data.csv").write_text("t,series,value\n" + "".join(rows))


def _graph_inputs(parser, args):
    """The sine-perturbed field and its FlowConfig; values they reject are usage errors."""
    n, L = args.n, args.L
    try:
        flat = GraphField(L, args.A, np.zeros(n))
        cfg = FlowConfig(dt=args.dt, t_end=args.t_end)
    except ValueError as exc:
        parser.error(str(exc))
    x = np.arange(n) * L / n
    return flat.with_values(args.eps * np.sin(2.0 * math.pi * x / L)), cfg


def _cmd_flow_graph(parser, args) -> int:
    f, cfg = _graph_inputs(parser, args)
    final, series = evolve(f, cfg, frames=args.frames)
    _write_frames(_out_dir(args), args, "graph", series,
                  lambda t, name, mon: {"t": t, "frame_file": name, "monitors": mon}, {})
    print(f"flow-graph: {len(series)} frames, final max|w| = {np.max(np.abs(final.values)):.3e}")
    return 0


# (flag, dest, default) of each flow-curve flag that only a seed shape reads.
# Their parser defaults are None, so a value given by a flag or a config key
# is seen; a seed run then fills in these defaults, which its config echoes.
_SEED_FLAGS = (("--seed", "seed_shape", None), ("--n", "n", 512), ("--kappa", "kappa", 2.0),
               ("--major", "major", 1.0), ("--minor", "minor", 0.5))


def _seed_curve(parser, args) -> curveflow.ClosedCurve:
    """The seed shape of --n vertices (bad values are usage errors), or the
    --input curve at equal arc length on its polygon, with as many vertices
    as the file (an unusable file is a parse error).  A seed's flags with
    --input are a usage error."""
    if args.input:
        given = [flag for flag, dest, _ in _SEED_FLAGS if getattr(args, dest) is not None]
        if given:
            parser.error(f"--input keeps the file's vertex count and shape; "
                         f"not with {', '.join(given)}")
        try:
            curve = curveflow.ClosedCurve.from_csv(Path(args.input).read_text())
            return curveflow.resample_uniform(curve)
        except (OSError, ValueError) as exc:
            print(f"flow-curve: {exc}", file=sys.stderr)
            raise SystemExit(PARSE_ERROR)
    for _, dest, default in _SEED_FLAGS:
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    try:
        if args.seed_shape == "lemniscate":
            return curveflow.seed_lemniscate(args.n)
        if args.seed_shape == "circle":
            return curveflow.seed_circle(args.kappa, args.n)
        if args.seed_shape == "ellipse":
            return curveflow.seed_ellipse(args.major, args.minor, args.n)
    except ValueError as exc:
        parser.error(str(exc))
    parser.error("choose --seed lemniscate|circle|ellipse or --input FILE")


def _cmd_flow_curve(parser, args) -> int:
    curve = _seed_curve(parser, args)
    args.n = curve.n  # the config echoes the vertex count the run used
    result = curveflow.flow(curve, dt=args.dt, t_end=args.t_end, frames=args.frames)
    _write_frames(_out_dir(args), args, "curve", result.frames,
                  lambda t, name, mon: {"t": t, "file": name, **mon},
                  {"outcome": asdict(result.outcome)})
    print(f"flow-curve: outcome {result.outcome.kind}, t_ext {result.outcome.t_ext}")
    return 0 if result.outcome.kind != "failed" else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output directory (default $SDFLOW_OUT or ./runs)")
    p.add_argument("--config", default=None, help="key=value config file")


def _add_shoot_args(p: argparse.ArgumentParser) -> None:
    """The arguments of shoot and sweep; shoot adds --init and --sample-h."""
    p.add_argument("kind", choices=["steady", "selfsimilar", "travelling"])
    p.add_argument("--a", type=_finite, default=0.0, help="travelling wave speed a")
    p.add_argument("--b", type=_finite, default=0.0, help="travelling wave speed b")
    p.add_argument("--random", action="store_true", help="sample seeded random initial states")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--budget", type=_positive, default=200.0)
    p.add_argument("--abs-tol", type=_positive, default=1e-10)
    p.add_argument("--rel-tol", type=_positive, default=1e-10)


def build_parser():
    parser = _Parser(prog="sdflow", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["shoot"] = sub.add_parser("shoot", help="classify one or more initial states")
    _add_shoot_args(p)
    # None, so that a --seed or --count given with --init is seen; a
    # --random run fills in 0 and 1, which its config echoes
    p.set_defaults(seed=None, count=None)
    p.add_argument("--init", default=None, help="phi,psi,k,w at y=0")
    p.add_argument("--sample-h", type=_positive, default=None)
    _add_common(p)

    p = commands["sweep"] = sub.add_parser("sweep", help="seeded random classification sweep")
    _add_shoot_args(p)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="accepted and has no effect: a sweep runs in one process")
    _add_common(p)

    p = commands["verify"] = sub.add_parser("verify", help="identity checks on trajectory files")
    p.add_argument("trajectories", nargs="+")
    _add_common(p)

    p = commands["flow-graph"] = sub.add_parser("flow-graph", help="evolve a periodic graph perturbation")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--L", type=_finite, default=2.0 * math.pi)
    p.add_argument("--A", type=_finite, default=0.0)
    p.add_argument("--eps", type=_finite, default=1e-3)
    p.add_argument("--dt", type=_positive, default=1e-2)
    p.add_argument("--t-end", type=_finite, default=1.0)
    p.add_argument("--frames", type=_positive_int, default=64)
    p.add_argument("--emit-plot-data", action="store_true")
    _add_common(p)

    p = commands["flow-curve"] = sub.add_parser("flow-curve", help="evolve a closed curve")
    p.add_argument("--seed", dest="seed_shape", choices=["lemniscate", "circle", "ellipse"],
                   default=None)
    p.add_argument("--input", default=None,
                   help="curve frame CSV (header x,y, closed implied), resampled to equal arcs")
    # the seed shape's flags default to None: see _SEED_FLAGS
    p.add_argument("--n", type=int, default=None,
                   help="vertices of the seed shape (default 512); not with --input")
    p.add_argument("--kappa", type=_finite, default=None, help="circle curvature (default 2)")
    p.add_argument("--major", type=_finite, default=None, help="ellipse x semi-axis (default 1)")
    p.add_argument("--minor", type=_finite, default=None, help="ellipse y semi-axis (default 0.5)")
    p.add_argument("--dt", type=_positive, default=2e-3)
    p.add_argument("--t-end", type=_positive, default=8.0)
    p.add_argument("--frames", type=_positive_int, default=64)
    p.add_argument("--emit-plot-data", action="store_true")
    _add_common(p)
    return parser, commands


_COMMANDS = {
    "shoot": _cmd_shoot,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "flow-graph": _cmd_flow_graph,
    "flow-curve": _cmd_flow_curve,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # file values become defaults, so any flag or positional given wins
            subparser = commands[args.command]
            actions = {a.dest: a for a in subparser._actions}
            overrides = _load_config(args.config, set(actions))
            subparser.set_defaults(**{k: _coerce(actions[k], v) for k, v in overrides.items()})
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except ValueError as exc:
        print(f"sdflow: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command](commands[args.command], args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, OSError, FlowDivergedError, GraphicalityLostError) as exc:
        print(f"sdflow: error: {exc}", file=sys.stderr)
        return 1


def _coerce(action, val: str):
    if isinstance(action.const, bool):
        return val.lower() in ("1", "true", "yes")
    if action.type is not None:
        try:
            val = action.type(val)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"config {action.dest}: {exc}") from None
    if action.choices is not None and val not in action.choices:
        raise ValueError(f"config {action.dest}={val!r} is not one of {list(action.choices)}")
    return val


if __name__ == "__main__":
    sys.exit(main())
