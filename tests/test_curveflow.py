import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sdflow.curveflow import (
    ClosedCurve,
    curvature_profile,
    flow,
    hausdorff_distance,
    normal_velocity,
    open_curvature_profile,
    open_normal_velocity,
    resample_uniform,
    seed_circle,
    seed_clothoid,
    seed_ellipse,
    seed_lemniscate,
)


# ------------------------------------------------------------------- curvature

def test_circle_curvature_second_order():
    errs = {}
    for n in (16, 64, 512):
        kappa, normals = curvature_profile(seed_circle(2.0, n))
        errs[n] = np.max(np.abs(kappa - 2.0))
        # normals point at the center
        pts = seed_circle(2.0, n).points
        assert np.max(np.abs(pts + 0.5 * normals)) <= 1e-2
    assert errs[16] <= 1e-3
    assert errs[16] / errs[64] >= 16.0 * 0.8
    assert errs[512] <= 1e-8


def test_straight_segment_zero_curvature():
    s = np.linspace(0.0, 1.0, 64)
    pts = np.stack([s, 0.3 * s], axis=1)
    kappa, _ = open_curvature_profile(pts)
    assert np.nanmax(np.abs(kappa)) <= 1e-12


def test_clothoid_curvature_matches_arc_length():
    arc = seed_clothoid(3.0, 512)
    kappa, _ = open_curvature_profile(arc.points)
    inner = slice(2, -2)
    assert np.max(np.abs(kappa[inner] - arc.s[inner])) <= 1e-6


def test_degenerate_edge_rejected():
    pts = seed_circle(1.0, 32).points.copy()
    pts[5] = pts[6]
    with pytest.raises(ValueError):
        ClosedCurve(pts)


# -------------------------------------------------------------- normal velocity

def test_circle_is_equilibrium():
    c = seed_circle(2.0, 512)
    v = normal_velocity(c)
    assert np.max(np.abs(v)) <= 1e-6 * 2.0**3


def test_clothoid_is_equilibrium():
    # interior window: the first two computed values lean on the
    # one-sided arc correction at the boundary and are excluded
    arc = seed_clothoid(3.0, 512)
    v = open_normal_velocity(arc.points)
    assert np.max(np.abs(v[5:-5])) <= 1e-4


def test_cosine_curvature_velocity_oracle():
    # open arc with kappa(s) = cos(2 pi s / L): tangent angle is the
    # exact integral, positions by quadrature; velocity = -kappa''
    Lc = 4.0
    q = 2.0 * math.pi / Lc
    theta = lambda s: math.sin(q * s) / q
    n = 512
    s = np.linspace(-1.5, 1.5, n)
    xs = [quad(lambda u: math.cos(theta(u)), 0, si, epsabs=1e-13)[0] for si in s]
    ys = [quad(lambda u: math.sin(theta(u)), 0, si, epsabs=1e-13)[0] for si in s]
    pts = np.stack([xs, ys], axis=1)
    v = open_normal_velocity(pts)
    expected = q * q * np.cos(q * s)
    inner = slice(5, -5)
    assert np.max(np.abs(v[inner] - expected[inner])) <= 5e-3 * q * q


# ----------------------------------------------------------------------- seeds

def test_seed_circle_points_on_circle():
    c = seed_circle(2.0, 64)
    centered = c.points - c.points.mean(axis=0)
    r = np.hypot(centered[:, 0], centered[:, 1])
    assert np.max(np.abs(r - 0.5)) <= 1e-12


def test_seed_circle_validation():
    with pytest.raises(ValueError):
        seed_circle(0.0, 64)
    with pytest.raises(ValueError):
        seed_circle(1.0, 8)


def test_seed_lemniscate_caption_points():
    # raw parametrization hits (sqrt(6), 0) at t = 0 and the crossing at
    # t = pi/2; resampling keeps the t = 0 point as the first vertex
    root6 = math.sqrt(6.0)
    t = math.pi / 2.0
    crossing = (root6 / (1 + math.sin(t) ** 2)) * np.array([math.cos(t), 0.5 * math.sin(2 * t)])
    assert np.allclose(crossing, [0.0, 0.0], atol=1e-15)
    lem = seed_lemniscate(512)
    assert np.allclose(lem.points[0], [root6, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        seed_lemniscate(32)


def test_seed_lemniscate_symmetries():
    lem = seed_lemniscate(256)
    p = lem.points
    assert hausdorff_distance(p, -p) <= 1e-3
    assert hausdorff_distance(p, p * np.array([1.0, -1.0])) <= 1e-3


def test_seed_clothoid_quadrature_oracle():
    arc = seed_clothoid(2.0, 65)
    for i in (0, 16, 32, 48, 64):
        si = arc.s[i]
        x_ref = quad(lambda u: math.cos(0.5 * u * u), 0.0, si, epsabs=1e-13)[0]
        y_ref = quad(lambda u: math.sin(0.5 * u * u), 0.0, si, epsabs=1e-13)[0]
        assert arc.points[i, 0] == pytest.approx(x_ref, abs=1e-10)
        assert arc.points[i, 1] == pytest.approx(y_ref, abs=1e-10)


def test_resample_uniform_spread():
    lem = seed_lemniscate(256)
    edges = np.roll(lem.points, -1, axis=0) - lem.points
    chords = np.hypot(edges[:, 0], edges[:, 1])
    assert (chords.max() - chords.min()) / chords.mean() <= 0.01


# ------------------------------------------------------------------------ flow

def test_circle_flow_conserves_radius_and_area():
    res = flow(seed_circle(2.0, 256), dt=1e-3, t_end=0.5, frames=8)
    assert res.outcome.kind == "reached"
    m0 = res.frames[0][2]
    for _, _, m in res.frames:
        assert abs(m.diameter - m0.diameter) / m0.diameter <= 1e-3
        assert abs(m.signed_area - m0.signed_area) / abs(m0.signed_area) <= 1e-3


def test_ellipse_flow_monotone_length_conserved_area():
    res = flow(seed_ellipse(1.0, 0.5, 256), dt=5e-4, t_end=0.5, frames=8)
    assert res.outcome.kind == "reached"
    lengths = [m.length for _, _, m in res.frames]
    assert all(b < a + 1e-10 for a, b in zip(lengths, lengths[1:]))
    a0 = res.frames[0][2].signed_area
    assert all(abs(m.signed_area - a0) / abs(a0) <= 5e-3 for _, _, m in res.frames)


def test_lemniscate_extinction_at_caption_scale():
    # the caption amplitude a = sqrt(6) vanishes at T = a^4/24 = 3/2 (the seed
    # is a homothetic shrinker, see test_lemniscate_homothetic_shrinker_oracle);
    # regression window
    lem = seed_lemniscate(256)
    res = flow(lem, dt=2e-3, t_end=8.0, frames=32, curvature_dt_cap=0.5)
    assert res.outcome.kind == "extinct"
    assert 1.40 <= res.outcome.t_ext <= 1.65
    d0 = res.frames[0][2].diameter
    assert res.frames[-1][2].diameter < 0.05 * d0


def test_lemniscate_extinction_at_figure_scale():
    # amplitude a = sqrt(12) (focal parameter sqrt(6)) vanishes at
    # T = a^4/24 = 6, the figure's extinction time
    t = 2.0 * math.pi * np.arange(256) / 256
    scale = math.sqrt(12.0) / (1.0 + np.sin(t) ** 2)
    pts = np.stack([scale * np.cos(t), scale * 0.5 * np.sin(2.0 * t)], axis=1)
    lem = resample_uniform(ClosedCurve(pts))
    res = flow(lem, dt=4e-3, t_end=8.0, frames=32, curvature_dt_cap=0.5)
    assert res.outcome.kind == "extinct"
    assert 5.0 <= res.outcome.t_ext <= 7.0


def test_lemniscate_homothetic_shrinker_oracle():
    # x(t) = (1 - t/T)^(1/4) x0 moves with normal speed -k_ss exactly when
    # k_ss = <x0, N> / (4T); for the seed this holds with T = a^4/24 = 3/2
    t_ext = 1.5
    lem = seed_lemniscate(512)
    _, normals = curvature_profile(lem)
    t = sp.symbols("t", real=True)
    a = sp.sqrt(6)
    assert a**4 / 24 == sp.Rational(3, 2)
    den = 1 + sp.sin(t) ** 2
    x = a * sp.cos(t) / den
    y = a * sp.sin(t) * sp.cos(t) / den
    xp, yp = sp.diff(x, t), sp.diff(y, t)
    speed = sp.sqrt(xp**2 + yp**2)
    nx, ny = -yp / speed, xp / speed  # leftward normal, as in curvature_profile
    assert [float(nx.subs(t, 0)), float(ny.subs(t, 0))] == pytest.approx(
        normals[0].tolist(), abs=1e-9
    )
    kappa = (xp * sp.diff(yp, t) - yp * sp.diff(xp, t)) / speed**3
    k_ss = sp.diff(sp.diff(kappa, t) / speed, t) / speed
    ratio = sp.lambdify(t, k_ss / (x * nx + y * ny), "math")
    # parameter values away from the crossings at t = pi/2, 3pi/2
    for tv in (0.0, 0.4, 0.9, 1.2, 2.0, 2.7, 3.5, 4.2, 5.5):
        assert ratio(tv) == pytest.approx(1.0 / (4.0 * t_ext), abs=1e-12)


def test_lemniscate_area_stays_near_zero():
    lem = seed_lemniscate(256)
    res = flow(lem, dt=2e-3, t_end=8.0, frames=16, curvature_dt_cap=0.5)
    bound = 1e-3 * lem.length() ** 2
    assert all(abs(m.signed_area) <= bound for _, _, m in res.frames)


def test_flow_argument_validation():
    c = seed_circle(1.0, 32)
    with pytest.raises(ValueError):
        flow(c, dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        flow(c, dt=1e-3, t_end=1.0, resample_every=0)


# ------------------------------------------------------------------- distances

def test_hausdorff_distance_known_sets():
    p = np.array([[0.0, 0.0], [1.0, 0.0]])
    q = np.array([[0.0, 0.5], [1.0, 0.0]])
    assert hausdorff_distance(p, q) == pytest.approx(0.5)
    assert hausdorff_distance(p, p) == 0.0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(16, 700), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
@example(n=16, seed=0, scale=1.0)
@example(n=64, seed=1, scale=1.0)
@example(n=65, seed=2, scale=1.0)
@example(n=700, seed=3, scale=1.0)
def test_diameter_matches_full_distance_matrix(n, seed, scale):
    p = np.random.default_rng(seed).normal(size=(n, 2)) * scale
    full = math.sqrt(np.max(np.sum((p[:, None] - p[None]) ** 2, axis=2)))
    assert ClosedCurve(p).diameter() == full
