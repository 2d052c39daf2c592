"""Curve diffusion flow for immersed closed polylines.

Vertices move with normal speed equal to minus the second arc-length
derivative of the discrete curvature.  Discrete curvature is the
turning angle between consecutive chords divided by the arc-corrected
vertex spacing; the chord-to-arc correction (1 + turning^2/24) removes
the leading curvature-cubed sampling bias, so straight lines, circles
and clothoids are discrete equilibria to high order.

Time stepping applies the raw normal velocity through the resolvent of
the linearized operator,

    X+ = X + dt (I + dt (D4 + diag(kappa^2) D2))^{-1} (V N),

which is first order in time, unconditionally stable for dt below
4/kappa_max^4 (enforced via an adaptive cap), and leaves any curve with
constant discrete curvature exactly stationary.  Tangential motion is
never added; uniform arc-length resampling every few steps keeps the
vertex distribution healthy.  Self-intersections are permitted and
never repaired, so immersed curves such as the figure eight evolve
unhindered.

scipy is imported inside the functions that call it, so that importing
sdflow for shooting or the graph flow does not load it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "ClosedCurve",
    "OpenArc",
    "CurveMonitors",
    "FlowOutcome",
    "FlowResult",
    "curvature_profile",
    "open_curvature_profile",
    "normal_velocity",
    "open_normal_velocity",
    "resample_uniform",
    "seed_circle",
    "seed_ellipse",
    "seed_lemniscate",
    "seed_clothoid",
    "flow",
    "hausdorff_distance",
]


@dataclass(frozen=True)
class ClosedCurve:
    """Closed planar polyline (point 0 follows point n-1) at time t."""

    points: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 16:
            raise ValueError("need an (n, 2) array with n >= 16")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        edges = np.roll(pts, -1, axis=0) - pts
        chord = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(chord == 0.0):
            raise ValueError("consecutive points must be distinct")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def length(self) -> float:
        return float(np.sum(_edge_arcs(self.points)[0]))

    def signed_area(self) -> float:
        x, y = self.points[:, 0], self.points[:, 1]
        return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def diameter(self) -> float:
        # Upper triangle only, 64 rows at a time: fl(a - b) = -fl(b - a),
        # so this is bit-identical to the max over the full distance matrix.
        p = self.points
        best = 0.0
        for i in range(0, p.shape[0], 64):
            best = max(best, float(np.max(_squared_distances(p[i : i + 64], p[i:]))))
        return math.sqrt(best)


@dataclass(frozen=True)
class OpenArc:
    """Open sampled arc with its arc-length positions."""

    points: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class CurveMonitors:
    length: float
    signed_area: float
    max_curvature: float
    diameter: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FlowOutcome:
    kind: str  # 'reached' | 'extinct' | 'failed'
    t_ext: Optional[float] = None
    reason: Optional[str] = None


@dataclass
class FlowResult:
    frames: List[Tuple[float, ClosedCurve, CurveMonitors]]
    outcome: FlowOutcome


# --------------------------------------------------------------------------
# discrete differential geometry
# --------------------------------------------------------------------------

def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances from each point of ``a`` (rows) to each of ``b``.

    Rounded exactly as sum((a[:, None] - b[None]) ** 2, axis=2), without
    its (len(a), len(b), 2) temporary.
    """
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _turning(e_prev: np.ndarray, e_next: np.ndarray) -> np.ndarray:
    """Signed angle from each previous edge to the next one."""
    cross = e_prev[:, 0] * e_next[:, 1] - e_prev[:, 1] * e_next[:, 0]
    dot = e_prev[:, 0] * e_next[:, 0] + e_prev[:, 1] * e_next[:, 1]
    return np.arctan2(cross, dot)


def _arcs_and_curvature(chord: np.ndarray, turning: np.ndarray):
    """Arc-corrected edge lengths, and the curvature where two edges meet.

    turning[i], turning[i+1] are the turnings at the ends of edge i; the
    chord gets the circular-arc correction (1 + w^2/24) with w their mean,
    and each inner turning is divided by the mean arc of its two edges.
    """
    w = 0.5 * (turning[:-1] + turning[1:])
    arcs = chord * (1.0 + w * w / 24.0)
    return arcs, turning[1:-1] / (0.5 * (arcs[:-1] + arcs[1:]))


def _edge_arcs(points: np.ndarray):
    """(arcs, chords, curvature) of a closed polyline; arcs[i] joins vertex i and i+1."""
    edges = np.roll(points, -1, axis=0) - points
    chord = np.hypot(edges[:, 0], edges[:, 1])
    dth = _turning(np.roll(edges, 1, axis=0), edges)  # turning at vertex i
    # read as an open polyline that starts with edge n-1, so vertex 0 has two edges
    arcs, kappa = _arcs_and_curvature(np.append(chord[-1], chord),
                                      np.concatenate([dth[-1:], dth, dth[:1]]))
    return arcs[1:], chord, kappa


def _normals(points: np.ndarray) -> np.ndarray:
    """Unit leftward normals of the centred chords."""
    tang = np.roll(points, -1, axis=0) - np.roll(points, 1, axis=0)
    tang /= np.hypot(tang[:, 0], tang[:, 1])[:, None]
    return np.stack([-tang[:, 1], tang[:, 0]], axis=1)


def curvature_profile(c: ClosedCurve):
    """Signed per-vertex curvature and unit leftward normals.

    Curvature is turning angle over arc-corrected spacing; the sign
    convention follows the leftward normal of the traversal direction
    (counterclockwise circles have positive curvature).
    """
    arcs, chord, kappa = _edge_arcs(c.points)
    if np.any(chord == 0.0):
        raise ValueError("degenerate edge")
    return kappa, _normals(c.points)


def _second_difference(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Three-point second derivative at f[1:-1]; h[i] spaces f[i] and f[i+1]."""
    hm, hp = h[:-1], h[1:]
    return 2.0 * (f[:-2] * hp - f[1:-1] * (hm + hp) + f[2:] * hm) / (hm * hp * (hm + hp))


def _second_arc_derivative(f: np.ndarray, arcs: np.ndarray) -> np.ndarray:
    """Cyclic second derivative; arcs[i] is the arc between vertex i and i+1."""
    f = np.concatenate([f[-1:], f, f[:1]])
    return _second_difference(f, np.concatenate([arcs[-1:], arcs]))


def normal_velocity(c: ClosedCurve) -> np.ndarray:
    """Normal speed -d^2 kappa / ds^2 at every vertex."""
    arcs, chord, kappa = _edge_arcs(c.points)
    if np.any(chord == 0.0):
        raise ValueError("degenerate edge")
    return -_second_arc_derivative(kappa, arcs)


def open_curvature_profile(points: np.ndarray):
    """Curvature of an open polyline; endpoints are NaN.

    Same turning-angle construction as the closed case, restricted to
    vertices with two neighbours.
    """
    pts = np.asarray(points, dtype=float)
    edges = pts[1:] - pts[:-1]
    chord = np.hypot(edges[:, 0], edges[:, 1])
    if np.any(chord == 0.0):
        raise ValueError("degenerate edge")
    dth = _turning(edges[:-1], edges[1:])  # turning at interior vertex i+1
    # an end edge takes the turning at its one interior vertex at both ends
    arcs, inner = _arcs_and_curvature(chord, np.concatenate([dth[:1], dth, dth[-1:]]))
    kappa = np.full(pts.shape[0], np.nan)
    kappa[1:-1] = inner
    return kappa, arcs


def open_normal_velocity(points: np.ndarray) -> np.ndarray:
    """-d^2 kappa/ds^2 on an open polyline; NaN within two of each end."""
    kappa, arcs = open_curvature_profile(points)
    out = np.full(points.shape[0], np.nan)
    out[2:-2] = -_second_difference(kappa[1:-1], arcs[1:-1])
    return out


def resample_uniform(c: ClosedCurve, n: Optional[int] = None) -> ClosedCurve:
    """Redistribute vertices to uniform arc length (periodic spline).

    Chord-parameter resampling is corrected by up to two further passes;
    residual spread is curvature-induced and shrinks with the grid.
    """
    from scipy.interpolate import CubicSpline

    if n is None:
        n = c.n
    cc = c
    for i in range(3):
        closed = np.vstack([cc.points, cc.points[:1]])
        seg = np.hypot(*np.diff(closed, axis=0).T)
        if i and (np.max(seg) - np.min(seg)) / np.mean(seg) <= 0.01:
            break
        u = np.concatenate([[0.0], np.cumsum(seg)])
        spline = CubicSpline(u, closed, bc_type="periodic")
        cc = ClosedCurve(spline(np.arange(n) * u[-1] / n), c.t)
    return cc


# --------------------------------------------------------------------------
# seed shapes
# --------------------------------------------------------------------------

def seed_circle(kappa: float, n: int) -> ClosedCurve:
    """Regular n-gon inscribed in the circle of curvature kappa."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if n < 16:
        raise ValueError("n must be at least 16")
    ang = 2.0 * math.pi * np.arange(n) / n
    r = 1.0 / kappa
    return ClosedCurve(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))


def seed_ellipse(a: float, b: float, n: int) -> ClosedCurve:
    """Ellipse with semi-axes a, b, resampled to uniform arc length."""
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    if n < 16:
        raise ValueError("n must be at least 16")
    ang = 2.0 * math.pi * np.arange(n) / n
    raw = ClosedCurve(np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1))
    return resample_uniform(raw)


def seed_lemniscate(n: int) -> ClosedCurve:
    """Figure eight sqrt(6)/(1+sin^2 t) (cos t, sin(2t)/2), uniform arc.

    The lemniscate of amplitude a is an exact homothetic shrinker of curve
    diffusion, k_ss = (6/a^4) <x, N>: it contracts as (1 - t/T)^(1/4) x0
    and vanishes at T = a^4/24, which is 1.5 for this seed.
    """
    if n < 64:
        raise ValueError("n must be at least 64")
    t = 2.0 * math.pi * np.arange(n) / n
    scale = math.sqrt(6.0) / (1.0 + np.sin(t) ** 2)
    pts = np.stack([scale * np.cos(t), scale * 0.5 * np.sin(2.0 * t)], axis=1)
    return resample_uniform(ClosedCurve(pts))


def seed_clothoid(s_max: float, n: int) -> OpenArc:
    """Euler spiral with curvature equal to arc length on [-s_max, s_max].

    Positions come from the Fresnel integrals (tangent angle s^2/2), so
    the parameter is exact arc length.
    """
    if s_max <= 0:
        raise ValueError("s_max must be positive")
    if n < 16:
        raise ValueError("n must be at least 16")
    from scipy.special import fresnel

    s = np.linspace(-s_max, s_max, n)
    arg = s / math.sqrt(math.pi)
    S, C = fresnel(arg)
    root = math.sqrt(math.pi)
    return OpenArc(np.stack([root * C, root * S], axis=1), s)


# --------------------------------------------------------------------------
# time stepping
# --------------------------------------------------------------------------

def _solve_stabilized(kappa: np.ndarray, h: float, dt: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + dt (D4 + diag(kappa^2) D2)) z = rhs on the cyclic grid.

    Pentadiagonal plus periodic corners; the corners are folded in with
    a rank-4 Woodbury correction around a banded solve.
    """
    from scipy.linalg import solve_banded

    n = kappa.size
    c4 = dt / h**4
    c2 = dt * kappa * kappa / (h * h)
    lo2 = np.full(n, c4)
    lo1 = -4.0 * c4 + c2
    di = 1.0 + 6.0 * c4 - 2.0 * c2
    up1 = lo1
    up2 = lo2
    ab = np.zeros((5, n))
    ab[0, 2:] = up2[:-2]
    ab[1, 1:] = up1[:-1]
    ab[2, :] = di
    ab[3, :-1] = lo1[1:]
    ab[4, :-2] = lo2[2:]

    # periodic corner entries, grouped by column: (row, col, value)
    cols = [n - 2, n - 1, 0, 1]
    U = np.zeros((n, 4))
    U[0, 0] = c4  # (0, n-2)
    U[0, 1] = lo1[0]  # (0, n-1)
    U[1, 1] = c4  # (1, n-1)
    U[n - 2, 2] = c4  # (n-2, 0)
    U[n - 1, 2] = up1[n - 1]  # (n-1, 0)
    U[n - 1, 3] = c4  # (n-1, 1)

    stacked = np.column_stack([rhs, U])
    sol = solve_banded((2, 2), ab, stacked)
    xb = sol[:, : rhs.shape[1]]
    zb = sol[:, rhs.shape[1]:]
    cap = np.eye(4) + zb[cols, :]
    corr = np.linalg.solve(cap, xb[cols, :])
    return xb - zb @ corr


def flow(
    c: ClosedCurve,
    dt: float,
    t_end: float,
    resample_every: int = 5,
    extinction_frac: float = 0.05,
    frames: int = 64,
    curvature_dt_cap: float = 1.0,
) -> FlowResult:
    """Evolve a closed curve by curve diffusion until t_end or extinction.

    dt is the step-size ceiling; the effective step also honours the
    adaptive curvature cap ``curvature_dt_cap / max(kappa)^4`` that keeps
    the stabilized solve well conditioned through the final shrinking
    phase.  The curve is declared extinct when its diameter falls below
    ``extinction_frac`` of the initial diameter.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if resample_every < 1:
        raise ValueError("resample_every must be at least 1")

    cur = resample_uniform(c)
    d0 = cur.diameter()
    threshold = extinction_frac * d0
    min_edge = 1e-12 * d0

    def monitors(curve: ClosedCurve) -> CurveMonitors:
        kappa, _ = curvature_profile(curve)
        return CurveMonitors(
            length=curve.length(),
            signed_area=curve.signed_area(),
            max_curvature=float(np.max(np.abs(kappa))),
            diameter=curve.diameter(),
        )

    t = 0.0
    frames_out: List[Tuple[float, ClosedCurve, CurveMonitors]] = [(0.0, cur, monitors(cur))]
    frame_times = [t_end * (j + 1) / frames for j in range(frames)]
    pts = cur.points.copy()
    edge_arcs = _edge_arcs(pts)  # of the current pts, carried over between steps
    steps = 0
    for tf in frame_times:
        while t < tf - 1e-15 * t_end:
            arcs, chord, kappa = edge_arcs
            if np.min(chord) < min_edge:
                return FlowResult(frames_out, FlowOutcome("failed", reason="edge collapse"))
            vel = -_second_arc_derivative(kappa, arcs)
            normals = _normals(pts)

            kmax = float(np.max(np.abs(kappa)))
            dt_n = min(dt, tf - t, curvature_dt_cap / max(kmax, 1e-9) ** 4)
            h = float(np.mean(arcs))
            z = _solve_stabilized(kappa, h, dt_n, vel[:, None] * normals)
            pts = pts + dt_n * z
            t += dt_n
            steps += 1
            if not np.all(np.isfinite(pts)):
                return FlowResult(frames_out, FlowOutcome("failed", reason="non-finite"))

            edge_arcs = _edge_arcs(pts)
            chords = edge_arcs[1]
            spread = (np.max(chords) - np.min(chords)) / np.mean(chords)
            if steps % resample_every == 0 or spread > 0.02:
                cc = resample_uniform(ClosedCurve(pts, t))
                pts = cc.points.copy()
                edge_arcs = _edge_arcs(pts)

            span = np.max(pts, axis=0) - np.min(pts, axis=0)
            if math.hypot(span[0], span[1]) < 1.5 * threshold:
                cc = ClosedCurve(pts, t)
                if cc.diameter() < threshold:
                    frames_out.append((t, cc, monitors(cc)))
                    return FlowResult(frames_out, FlowOutcome("extinct", t_ext=t))
        t = tf
        cc = ClosedCurve(pts, t)
        frames_out.append((t, cc, monitors(cc)))
    return FlowResult(frames_out, FlowOutcome("reached"))


def hausdorff_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two planar point sets.

    Rows of p are scanned 64 at a time; each column of q keeps its running
    minimum, so no (len(p), len(q)) array is built.
    """
    row_best = 0.0
    col_min = np.full(q.shape[0], np.inf)
    for i in range(0, p.shape[0], 64):
        d2 = _squared_distances(p[i : i + 64], q)
        row_best = max(row_best, float(np.max(np.min(d2, axis=1))))
        np.minimum(col_min, np.min(d2, axis=0), out=col_min)
    return math.sqrt(max(row_best, float(np.max(col_min))))
