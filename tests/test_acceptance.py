"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest

from sdflow.curveflow import (
    ClosedCurve,
    flow,
    hausdorff_distance,
    normal_velocity,
    open_normal_velocity,
    resample_uniform,
    seed_circle,
    seed_clothoid,
    seed_ellipse,
    seed_lemniscate,
)
from sdflow.geometry import GraphField
from sdflow.graphpde import FlowConfig, RescaleParams, evolve, rescale, step
from sdflow.identities import (
    convexity_residual_m,
    convexity_residual_q,
    q_upper_bound_residual,
)
from sdflow.soliton import (
    IntegratorOptions,
    ProfileState,
    SolitonKind,
    integrate,
    run_sweep,
    shoot_bidirectional,
)

SWEEP_SEED = 20260811


def _verdict(num, desc, ok, detail):
    line = f"ACCEPTANCE {num:02d} {desc}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_theorem_sweep():
    # every non-trivial profile must certify breakdown within |y| <= 200
    kinds = [
        SolitonKind.steady(),
        SolitonKind.self_similar(),
        SolitonKind.travelling(1.0, 0.0),
        SolitonKind.travelling(1.0, 1.0),
        SolitonKind.travelling(0.0, 1.0),
    ]
    t0 = time.perf_counter()
    breakdown = trivial = inconclusive = 0
    for kind in kinds:
        for report in run_sweep(kind, 100, seed=SWEEP_SEED, y_budget=200.0):
            breakdown += report.outcome == "breakdown"
            trivial += report.outcome == "trivial"
            inconclusive += report.outcome == "inconclusive"
    elapsed = time.perf_counter() - t0
    ok = breakdown == 500 and trivial == 0 and inconclusive == 0 and elapsed <= 120.0
    line = _verdict(1, "theorem sweep 5x100", ok,
                    f"{breakdown}/500 breakdown, {inconclusive} inconclusive, {elapsed:.1f}s")
    assert ok, line


def test_criterion_02_linear_equilibria():
    worst_k = 0.0
    all_trivial = True
    for A in (-2.0, 0.0, 1.0):
        for kind in (SolitonKind.steady(), SolitonKind.self_similar(),
                     SolitonKind.travelling(1.0, A)):
            report = shoot_bidirectional(kind, ProfileState.initial(psi=A), 100.0)
            all_trivial &= report.outcome == "trivial"
            worst_k = max(worst_k, report.max_abs_k)
    ok = all_trivial and worst_k <= 1e-9
    line = _verdict(2, "linear equilibria", ok, f"max|k| = {worst_k:.2e}")
    assert ok, line


def test_criterion_03_case1_oracle():
    b = 0.5
    traj = integrate(SolitonKind.steady(), ProfileState.initial(k=b), 1, 200.0)
    cert = traj.certificate
    ok = (
        traj.outcome == "breakdown"
        and cert.kind == "angle_excess"
        and cert.detail["value"] > math.pi
    )
    length = cert.detail["interval"][1] - cert.detail["interval"][0] if ok else math.inf
    ok = ok and length <= 1.1 * (2.0 * math.pi / b)
    line = _verdict(3, "constant-curvature turning witness", ok,
                    f"interval length {length:.2f} <= {1.1 * 2 * math.pi / b:.2f}")
    assert ok, line


def _mild_state(rng):
    # gentle amplitudes: the pinned h = 1e-3 stencil then resolves the
    # fourth-order derivative scale with a comfortable calibration margin
    while True:
        phi, psi = rng.uniform(-0.5, 0.5, size=2)
        k, w = rng.uniform(-0.25, 0.25, size=2)
        if abs(k) + abs(w) >= 1e-3:
            return ProfileState(0.0, float(phi), float(psi), float(k), float(w), 0.0)


def _dense_trajectories(kind, seed_base, direction=1):
    opts = IntegratorOptions(sample_h=1e-3)
    out = []
    for i in range(10):
        rng = np.random.default_rng([seed_base, i])
        traj = integrate(kind, _mild_state(rng), direction, 0.5, opts)
        assert traj.outcome == "completed"
        out.append(traj)
    return out


def test_criterion_04_identity_residuals():
    worst = 0.0
    min_lhs = math.inf
    for traj in _dense_trajectories(SolitonKind.self_similar(), 2026):
        rep = convexity_residual_q(traj)
        worst = max(worst, rep.max_residual)
        min_lhs = min(min_lhs, rep.extra["min_weighted_second"])
    for traj in _dense_trajectories(SolitonKind.travelling(1.0, 1.0), 2027):
        rep = convexity_residual_m(traj)
        worst = max(worst, rep.max_residual)
        min_lhs = min(min_lhs, rep.extra["min_weighted_second"])
    ok = worst <= 1e-4 and min_lhs >= -1e-6
    line = _verdict(4, "convexity identity residuals", ok,
                    f"max residual {worst:.2e}, min weighted 2nd {min_lhs:.2e}")
    assert ok, line


def test_criterion_05_q_bound():
    worst = -math.inf
    for direction in (1, -1):
        for traj in _dense_trajectories(SolitonKind.self_similar(), 2026, direction):
            worst = max(worst, q_upper_bound_residual(traj))
    ok = worst <= 1e-9
    line = _verdict(5, "Q dominated by curvature squared", ok, f"max(Q - k^2) = {worst:.2e}")
    assert ok, line


def test_criterion_06_pde_stationarity_and_decay():
    t0 = time.perf_counter()
    n, L = 256, 2.0 * math.pi
    cfg = FlowConfig(dt=0.01, t_end=1.0)
    drift = 0.0
    for A in (0.0, 1.0, -2.5):
        f = GraphField(L, A, np.zeros(n))
        for _ in range(10):
            f = step(f, cfg)
            drift = max(drift, float(np.max(np.abs(f.values))))
    x = np.arange(n) * L / n
    eps = 1e-3
    f = GraphField(L, 0.0, eps * np.sin(2.0 * math.pi * x / L))
    final, _ = evolve(f, cfg)
    rate = -math.log(float(np.max(np.abs(final.values))) / eps)
    elapsed = time.perf_counter() - t0
    ok = drift <= 1e-12 and abs(rate - 1.0) <= 0.05 and elapsed <= 30.0
    line = _verdict(6, "graph flow stationarity and decay", ok,
                    f"drift {drift:.1e}, rate {rate:.4f} vs 1, {elapsed:.1f}s")
    assert ok, line


def test_criterion_07_scaling_invariance():
    # calibration run (recorded): the centered-difference scheme is exactly
    # equivariant under the lambda = 2 rescaling on the fixed grid, so the
    # measured gap is zero; C = 1e-6 freezes that with a wide margin while
    # staying far below the generic splitting scale
    n, L, dt, T = 256, 2.0 * math.pi, 0.005, 0.5
    x = np.arange(n) * L / n
    f = GraphField(L, 0.7, 0.3 * np.sin(2 * math.pi * x / L) + 0.1 * np.cos(4 * math.pi * x / L))
    lam = RescaleParams(2.0)
    fin1, _ = evolve(f, FlowConfig(dt=dt, t_end=T), frames=1)
    r1, _ = rescale(fin1, T, lam)
    r0, _ = rescale(f, 0.0, lam)
    fin2, _ = evolve(r0, FlowConfig(dt=dt / 16.0, t_end=T / 16.0), frames=1)
    gap = float(np.max(np.abs(r1.values - fin2.values)))
    bound = 1e-6 * (dt + (L / n) ** 2)
    ok = gap <= bound
    line = _verdict(7, "parabolic rescaling commutes with the flow", ok,
                    f"gap {gap:.2e} <= {bound:.2e}")
    assert ok, line


def test_criterion_08_figure_eight_extinction():
    t0 = time.perf_counter()
    lem = seed_lemniscate(512)
    d0 = lem.diameter()
    res = flow(lem, dt=2e-3, t_end=8.0, frames=64)
    elapsed = time.perf_counter() - t0
    extinct = res.outcome.kind == "extinct"
    t_ext = res.outcome.t_ext if extinct else math.inf
    p0 = lem.points - lem.points.mean(axis=0)
    p0 = p0 / d0
    worst_hd = 0.0
    for _, c, mon in res.frames:
        if mon.diameter >= 0.1 * d0:
            p = c.points - c.points.mean(axis=0)
            worst_hd = max(worst_hd, hausdorff_distance(p / mon.diameter, p0))
    # The seed (amplitude a = sqrt(6)) is a homothetic shrinker, k_ss = (6/a^4) <x, N>,
    # so x(t) = (1 - t/T)^(1/4) x0 and the diameter reaches 5% at T (1 - 0.05^4), T = a^4/24.
    a = math.sqrt(6.0)
    t_exact = a**4 / 24
    err = abs(t_ext - t_exact)
    ok = extinct and err <= 0.05 and worst_hd <= 0.02 and elapsed <= 300.0
    line = _verdict(
        8, "figure-eight collapse", ok,
        f"extinct={extinct} t_ext={t_ext:.3f} t_exact={t_exact:.3f} err {err:.3f} <= 0.05, "
        f"hausdorff {worst_hd:.4f} <= 0.02, {elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_09_conservation_monitors():
    res = flow(seed_circle(2.0, 512), dt=1e-3, t_end=1.0, frames=8)
    m0 = res.frames[0][2]
    radius_drift = max(
        abs(m.diameter - m0.diameter) / m0.diameter for _, _, m in res.frames
    )
    area_drift = max(
        abs(m.signed_area - m0.signed_area) / abs(m0.signed_area) for _, _, m in res.frames
    )
    res_e = flow(seed_ellipse(1.0, 0.5, 256), dt=5e-4, t_end=1.0, frames=8)
    lengths = [m.length for _, _, m in res_e.frames]
    mono = all(b < a + 1e-10 for a, b in zip(lengths, lengths[1:]))
    a0 = res_e.frames[0][2].signed_area
    area_drift_e = max(abs(m.signed_area - a0) / abs(a0) for _, _, m in res_e.frames)
    ok = (
        res.outcome.kind == "reached"
        and radius_drift <= 1e-3
        and area_drift <= 1e-3
        and res_e.outcome.kind == "reached"
        and mono
        and area_drift_e <= 5e-3
    )
    line = _verdict(9, "conservation monitors", ok,
                    f"circle drift r {radius_drift:.1e} A {area_drift:.1e}; "
                    f"ellipse monotone={mono} A {area_drift_e:.1e}")
    assert ok, line


def test_criterion_10_figure_one_equilibria():
    kappa = 2.0
    speed = float(np.max(np.abs(normal_velocity(seed_circle(kappa, 512)))))
    points, _ = seed_clothoid(3.0, 512)
    v = open_normal_velocity(points)
    clothoid_speed = float(np.max(np.abs(v[5:-5])))  # interior window
    ok = speed <= 1e-6 * kappa**3 and clothoid_speed <= 1e-4
    line = _verdict(10, "stationary circle and clothoid", ok,
                    f"circle {speed:.2e} <= {1e-6 * kappa**3:.1e}, "
                    f"clothoid {clothoid_speed:.2e} <= 1e-4")
    assert ok, line
