import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sdflow.curveflow import (
    ClosedCurve,
    _bgn_step,
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


def reference_open_curvature(pts):
    """open_curvature_profile as first written, with its own arctan2 turning."""
    edges = pts[1:] - pts[:-1]
    chord = np.hypot(edges[:, 0], edges[:, 1])
    cross = edges[:-1, 0] * edges[1:, 1] - edges[:-1, 1] * edges[1:, 0]
    dot = np.sum(edges[:-1] * edges[1:], axis=1)
    dth = np.arctan2(cross, dot)
    w = np.empty_like(chord)
    w[1:-1] = 0.5 * (dth[:-1] + dth[1:])
    w[0] = dth[0]
    w[-1] = dth[-1]
    arcs = chord * (1.0 + w * w / 24.0)
    kappa = np.full(pts.shape[0], np.nan)
    kappa[1:-1] = dth / (0.5 * (arcs[:-1] + arcs[1:]))
    return kappa, arcs


def reference_open_velocity(pts):
    kappa, arcs = reference_open_curvature(pts)
    out = np.full(pts.shape[0], np.nan)
    hm, hp = arcs[1:-2], arcs[2:-1]
    f, fm, fp = kappa[2:-2], kappa[1:-3], kappa[3:-1]
    out[2:-2] = -2.0 * (fm * hp - f * (hm + hp) + fp * hm) / (hm * hp * (hm + hp))
    return out


@settings(max_examples=100, deadline=None)
@given(n=st.integers(5, 300), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
       bend=st.floats(0.0, 3.0))
def test_open_stencils_match_reference_bit_for_bit(n, seed, scale, bend):
    # a random walk whose heading turns by up to `bend` per step
    rng = np.random.default_rng(seed)
    heading = np.cumsum(rng.uniform(-bend, bend, n - 1))
    steps = rng.uniform(0.1, 1.0, n - 1)[:, None] * np.stack([np.cos(heading), np.sin(heading)], 1)
    pts = scale * np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    kappa, arcs = open_curvature_profile(pts)
    ref_kappa, ref_arcs = reference_open_curvature(pts)
    assert kappa.tobytes() == ref_kappa.tobytes()
    assert arcs.tobytes() == ref_arcs.tobytes()
    assert open_normal_velocity(pts).tobytes() == reference_open_velocity(pts).tobytes()


def random_star(n, seed, wobble, scale=1.0):
    """A star-shaped loop with random radii and unequal angular steps."""
    rng = np.random.default_rng(seed)
    ang = np.cumsum(rng.uniform(0.2, 1.0, n))
    ang *= 2.0 * math.pi / (ang[-1] + rng.uniform(0.2, 1.0))
    r = scale * (1.0 + wobble * rng.uniform(-1.0, 1.0, n))
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def reference_closed_curvature(pts):
    """Closed-polyline curvature and arcs as first written, with np.roll."""
    edges = np.roll(pts, -1, axis=0) - pts
    chord = np.hypot(edges[:, 0], edges[:, 1])
    prev = np.roll(edges, 1, axis=0)
    cross = prev[:, 0] * edges[:, 1] - prev[:, 1] * edges[:, 0]
    dth = np.arctan2(cross, prev[:, 0] * edges[:, 0] + prev[:, 1] * edges[:, 1])
    w = 0.5 * (dth + np.roll(dth, -1))
    arcs = chord * (1.0 + w * w / 24.0)
    return dth / (0.5 * (np.roll(arcs, 1) + arcs)), arcs


def reference_closed_velocity(pts):
    kappa, arcs = reference_closed_curvature(pts)
    hm, hp = np.roll(arcs, 1), arcs
    fm, fp = np.roll(kappa, 1), np.roll(kappa, -1)
    return -(2.0 * (fm * hp - kappa * (hm + hp) + fp * hm) / (hm * hp * (hm + hp)))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(16, 300), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
       wobble=st.floats(0.0, 0.9))
def test_closed_stencils_match_reference_bit_for_bit(n, seed, scale, wobble):
    c = ClosedCurve(random_star(n, seed, wobble, scale))
    kappa, _ = curvature_profile(c)
    ref_kappa, ref_arcs = reference_closed_curvature(c.points)
    assert kappa.tobytes() == ref_kappa.tobytes()
    assert c.length() == float(np.sum(ref_arcs))
    assert normal_velocity(c).tobytes() == reference_closed_velocity(c.points).tobytes()


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


def reference_resample(c, n):
    """resample_uniform as first written: every pass measures its chords afresh."""
    from scipy.interpolate import CubicSpline

    cc = c
    for _ in range(3):
        pts = cc.points
        closed = np.vstack([pts, pts[:1]])
        seg = np.hypot(*np.diff(closed, axis=0).T)
        u = np.concatenate([[0.0], np.cumsum(seg)])
        out = CubicSpline(u, closed, bc_type="periodic")(np.arange(n) * u[-1] / n)
        cc = ClosedCurve(out, c.t)
        edges = np.roll(out, -1, axis=0) - out
        chords = np.hypot(edges[:, 0], edges[:, 1])
        if (np.max(chords) - np.min(chords)) / np.mean(chords) <= 0.01:
            break
    return cc


@pytest.mark.parametrize("n", [None, 96, 700])
def test_resample_uniform_matches_reference_bit_for_bit(n):
    ang = 2.0 * math.pi * np.arange(200) / 200
    raw = [
        # the thin ellipse takes two or three passes, the other shapes one
        np.stack([3.0 * np.cos(ang), 0.2 * np.sin(ang)], axis=1),
        np.stack([np.cos(ang) / (1 + np.sin(ang) ** 2), np.sin(2 * ang) / 2], axis=1),
        seed_circle(1.0, 200).points * (1.0 + 0.1 * np.cos(5 * ang))[:, None],
        seed_circle(1.0, 200).points,  # uniform already, yet resampled once
    ]
    for pts in raw:
        c = ClosedCurve(pts, 0.25)
        got = resample_uniform(c, n)
        want = reference_resample(c, n or c.n)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.t == 0.25


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
    res = flow(lem, dt=2e-3, t_end=8.0, frames=32)
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
    res = flow(lem, dt=4e-3, t_end=8.0, frames=32)
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
    res = flow(lem, dt=2e-3, t_end=8.0, frames=16)
    bound = 1e-3 * lem.length() ** 2
    assert all(abs(m.signed_area) <= bound for _, _, m in res.frames)


def polygon_length(pts):
    edges = np.roll(pts, -1, axis=0) - pts
    return float(np.sum(np.hypot(edges[:, 0], edges[:, 1])))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(16, 300), seed=st.integers(0, 2**32 - 1), wobble=st.floats(0.0, 0.9),
       log_dt=st.floats(-6.0, -1.0))
def test_step_never_increases_polygon_length(n, seed, wobble, log_dt):
    pts = random_star(n, seed, wobble)
    _, new = _bgn_step(pts, 10.0**log_dt)
    assert polygon_length(new) <= polygon_length(pts) * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [16, 64, 300])
@pytest.mark.parametrize("dt", [1e-6, 1e-2])
def test_regular_polygon_is_a_fixed_point(n, dt):
    r, centre = 0.5, np.array([3.0, -2.0])
    pts = seed_circle(1.0 / r, n).points + centre
    for sign in (1, -1):  # counterclockwise, then clockwise
        poly = pts[::sign]
        kappa, new = _bgn_step(poly, dt)
        assert np.max(np.abs(new - poly)) <= 1e-13 * r
        # the polygon's curvature, 1/r to second order in the vertex angle
        assert kappa == pytest.approx(sign / (r * math.cos(math.pi / n)), rel=1e-12)
        assert kappa == pytest.approx(sign / r, rel=(math.pi / n) ** 2)


def test_flow_argument_validation():
    c = seed_circle(1.0, 32)
    with pytest.raises(ValueError):
        flow(c, dt=0.0, t_end=1.0)


@pytest.mark.parametrize("dt, t_end", [(math.nan, 1.0), (math.inf, 1.0), (1e-3, math.inf),
                                        (1e-3, math.nan)])
def test_flow_times_must_be_finite(dt, t_end):
    with pytest.raises(ValueError):
        flow(seed_circle(1.0, 32), dt=dt, t_end=t_end)


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


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 700), m=st.integers(1, 700), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
@example(n=16, m=700, seed=0, scale=1.0)
@example(n=64, m=65, seed=1, scale=1.0)
@example(n=65, m=16, seed=2, scale=1.0)
@example(n=700, m=64, seed=3, scale=1.0)
def test_hausdorff_matches_full_distance_matrix(n, m, seed, scale):
    assume(n != m)
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n, 2)) * scale
    q = (rng.normal(size=(m, 2)) + 0.5) * scale
    d2 = np.sum((p[:, None, :] - q[None, :, :]) ** 2, axis=2)
    full = math.sqrt(max(np.max(np.min(d2, axis=1)), np.max(np.min(d2, axis=0))))
    assert hausdorff_distance(p, q) == full
