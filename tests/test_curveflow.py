import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_banded

from sdflow.curveflow import (
    ClosedCurve,
    _bgn_layout,
    _bgn_step,
    _chords,
    _wrapped,
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
    points, s = seed_clothoid(3.0, 512)
    kappa, _ = open_curvature_profile(points)
    inner = slice(2, -2)
    assert np.max(np.abs(kappa[inner] - s[inner])) <= 1e-6


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
    points, _ = seed_clothoid(3.0, 512)
    v = open_normal_velocity(points)
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


def noisy_100_gon():
    ang = 2.0 * math.pi * np.arange(100) / 100
    noise = 1e-3 * np.random.default_rng(5).standard_normal((100, 2))
    return np.stack([np.cos(ang), np.sin(ang)], axis=1) + noise


@settings(max_examples=100, deadline=None)
@given(points=st.builds(random_star, n=st.integers(16, 300), seed=st.integers(0, 2**32 - 1),
                        wobble=st.floats(0.0, 0.9), scale=st.floats(1e-3, 1e3)))
@example(points=seed_lemniscate(512).points)
@example(points=seed_lemniscate(64).points)
@example(points=seed_circle(2.0, 512).points)
@example(points=seed_ellipse(1.0, 0.5, 256).points)
@example(points=noisy_100_gon())
def test_closed_stencils_match_reference_bit_for_bit(points):
    # the closed curve takes the open stencils on the wrapped polygon
    c = ClosedCurve(points)
    kappa, _ = curvature_profile(c)
    ref_kappa, ref_arcs = reference_closed_curvature(points)
    assert kappa.tobytes() == ref_kappa.tobytes()
    assert open_curvature_profile(_wrapped(points, 2))[1][2:-1].tobytes() == ref_arcs.tobytes()
    assert c.length() == float(np.sum(ref_arcs))
    assert normal_velocity(c).tobytes() == reference_closed_velocity(points).tobytes()


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
    points, s = seed_clothoid(2.0, 65)
    for i in (0, 16, 32, 48, 64):
        si = s[i]
        x_ref = quad(lambda u: math.cos(0.5 * u * u), 0.0, si, epsabs=1e-13)[0]
        y_ref = quad(lambda u: math.sin(0.5 * u * u), 0.0, si, epsabs=1e-13)[0]
        assert points[i, 0] == pytest.approx(x_ref, abs=1e-10)
        assert points[i, 1] == pytest.approx(y_ref, abs=1e-10)


def test_resample_uniform_spread():
    lem = seed_lemniscate(256)
    edges = np.roll(lem.points, -1, axis=0) - lem.points
    chords = np.hypot(edges[:, 0], edges[:, 1])
    assert (chords.max() - chords.min()) / chords.mean() <= 0.01


def arc_positions(poly, pts):
    """Arc position along the closed polygon ``poly`` of the nearest point
    to each of ``pts``, and the distance to it."""
    edges = np.roll(poly, -1, axis=0) - poly
    seg = np.hypot(edges[:, 0], edges[:, 1])
    start = np.concatenate([[0.0], np.cumsum(seg)[:-1]])
    d = pts[:, None, :] - poly[None]
    lam = np.clip(np.sum(d * edges[None], axis=2) / seg**2, 0.0, 1.0)
    gap = np.hypot(*np.moveaxis(d - lam[..., None] * edges[None], 2, 0))
    j, rows = np.argmin(gap, axis=1), np.arange(pts.shape[0])
    return start[j] + lam[rows, j] * seg[j], gap[rows, j]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(16, 300), n_out=st.integers(16, 700), seed=st.integers(0, 2**32 - 1),
       wobble=st.floats(0.0, 0.9), scale=st.floats(1e-3, 1e3))
def test_resample_uniform_is_equal_arcs_on_the_polygon(n, n_out, seed, wobble, scale):
    assume(n_out != n)
    c = ClosedCurve(random_star(n, seed, wobble, scale), 0.25)
    out = resample_uniform(c, n_out)
    assert out.n == n_out and out.t == 0.25
    assert out.points[0].tobytes() == c.points[0].tobytes()
    length = polygon_length(c.points)
    pos, gap = arc_positions(c.points, out.points[1:])
    assert np.max(gap) <= 1e-12 * scale
    assert np.max(np.abs(pos - length * np.arange(1, n_out) / n_out)) <= 1e-12 * length
    assert polygon_length(out.points) <= length * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [16, 64, 300, 512])
def test_resample_uniform_keeps_a_regular_polygon(n):
    c = seed_circle(2.0, n)
    assert np.max(np.abs(resample_uniform(c).points - c.points)) <= 1e-13 * 0.5


@pytest.mark.parametrize("n", [64, 256, 512, 1000])
def test_seed_vertices_lie_on_the_exact_curves(n):
    x, y = seed_lemniscate(n).points.T
    assert np.max(np.abs((x * x + y * y) ** 2 - 6.0 * (x * x - y * y))) <= 1e-12
    for a, b in [(1.0, 0.5), (3.0, 0.2), (0.5, 2.0)]:
        x, y = seed_ellipse(a, b, n).points.T
        assert np.max(np.abs((x / a) ** 2 + (y / b) ** 2 - 1.0)) <= 1e-12


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


def reference_bgn_step(pts, dt):
    """The BGN step assembled as a (13, 3n) band for solve_banded: the
    reference for the step's cached layout and direct gbsv call."""
    n = pts.shape[0]
    edges = np.roll(pts, -1, axis=0) - pts
    inv = 1.0 / np.hypot(edges[:, 0], edges[:, 1])  # 1/l_j, edge j joins vertex j and j+1
    span = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    nx, ny = -0.5 * span[:, 1], 0.5 * span[:, 0]

    v = np.arange(n)
    idx = 3 * np.minimum(2 * v, 2 * (n - v) - 1)[:, None] + np.arange(3)  # (kappa_v, x_v, y_v)
    nxt = np.roll(idx, -1, axis=0)  # the unknowns of vertex v + 1
    sign = np.array([-1.0, 1.0, 1.0])  # kappa rows carry -A, position rows +A
    ab = np.zeros((13, 3 * n))  # ab[6 + i - j, j] holds entry (i, j)
    ab[6, idx] = sign * (inv + np.roll(inv, 1))[:, None]
    ab[6 + idx - nxt, nxt] = -sign * inv[:, None]
    ab[6 + nxt - idx, idx] = -sign * inv[:, None]
    ab[5, idx[:, 1]], ab[4, idx[:, 2]] = nx / dt, ny / dt
    ab[7, idx[:, 0]], ab[8, idx[:, 0]] = nx, ny

    tangent = edges * inv[:, None]
    rhs = np.zeros(3 * n)
    rhs[idx[:, 1:]] = tangent - np.roll(tangent, 1, axis=0)
    x = solve_banded((6, 6), ab, rhs)
    return x[idx[:, 0]], pts + x[idx[:, 1:]]


def assert_same_step(pts, dt, chords=None):
    kappa, new = _bgn_step(pts, dt, chords)
    ref_kappa, ref_new = reference_bgn_step(pts, dt)
    assert np.array_equal(kappa, ref_kappa)
    assert np.array_equal(new, ref_new)
    return new


@settings(max_examples=200, deadline=None)
@given(n=st.integers(16, 300), seed=st.integers(0, 2**32 - 1), wobble=st.floats(0.0, 0.9),
       log_dt=st.floats(-6.0, -1.0))
@example(n=17, seed=0, wobble=0.5, log_dt=-3.0)
def test_step_matches_reference_bit_for_bit(n, seed, wobble, log_dt):
    pts = random_star(n, seed, wobble)
    assert_same_step(pts, 10.0**log_dt)
    assert_same_step(pts, 10.0**log_dt, _chords(pts))


def test_step_reuses_the_layout_across_sizes():
    # two sizes stepped in turn, so each step after the first finds its layout cached
    polys = {n: random_star(n, seed=n, wobble=0.3) for n in (57, 96)}
    for _ in range(4):
        for n, pts in polys.items():
            polys[n] = assert_same_step(pts, 1e-3, _chords(pts))
    for layout in (_bgn_layout(57), _bgn_layout(96)):
        assert not any(a.flags.writeable for a in layout[:-1])


def test_step_rejects_a_non_finite_vertex():
    pts = random_star(64, seed=1, wobble=0.3)
    pts[5] = np.nan
    with pytest.raises(ValueError):
        _bgn_step(pts, 1e-3)


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


def test_flow_starts_from_the_given_vertices():
    # the seed lies on the exact lemniscate; resampling would move it onto its own chords
    lem = seed_lemniscate(256)
    res = flow(lem, dt=2e-3, t_end=0.01, frames=1)
    assert res.frames[0][1].points.tobytes() == lem.points.tobytes()
    assert res.frames[0][2].diameter == lem.diameter()


@pytest.mark.parametrize("frames", [0, -1])
def test_flow_needs_a_frame(frames):
    with pytest.raises(ValueError):
        flow(seed_circle(1.0, 32), dt=1e-3, t_end=1.0, frames=frames)


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
