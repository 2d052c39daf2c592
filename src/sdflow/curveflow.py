"""Curve diffusion flow for immersed closed polylines.

Curve diffusion moves a curve with normal speed -kappa_ss.  On an open
polyline, ``open_curvature_profile`` and ``open_normal_velocity``
evaluate it with the turning angle between consecutive chords divided
by the arc-corrected vertex spacing; the chord-to-arc correction
(1 + turning^2/24) removes the leading curvature-cubed sampling bias, so
straight lines, circles and clothoids are equilibria of these stencils
to high order.  A closed polyline is evaluated by the same stencils on
the polygon wrapped by a few vertices at each end (``curvature_profile``,
``normal_velocity``, ``ClosedCurve.length``).  The monitors use them too.

``flow`` steps by the parametric scheme of Barrett, Garcke & Nuernberg
(J. Comput. Phys. 222 (2007)): each step is one banded solve, with no
periodic corners, for the new vertices and their curvature, with the
normal taken from the old polygon.  It is unconditionally stable, never
increases polygon length, leaves a regular polygon exactly stationary,
and keeps vertices well spaced, so ``flow`` starts from the vertices it
is given.  ``resample_uniform``, which ``flow-curve --input`` applies,
puts the same number of vertices at equal arc length on the given
polygon, so it never lengthens it either.  Self-intersections are never repaired, so
immersed curves such as the figure eight evolve unhindered.

scipy is loaded inside the functions that call it, so that importing
sdflow for shooting or the graph flow does not load it.  The step loads
only scipy's compiled LAPACK wrapper, not the scipy.linalg package.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .geometry import _read_csv, _steps_to, _write_csv

__all__ = [
    "ClosedCurve",
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
        if np.any(np.all(pts == np.roll(pts, -1, axis=0), axis=1)):
            raise ValueError("consecutive points must be distinct")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_csv(self) -> str:
        """The vertices as CSV ``x,y``; the closing edge is implied."""
        return _write_csv("x,y", self.points.T)

    @staticmethod
    def from_csv(text: str) -> "ClosedCurve":
        return ClosedCurve(_read_csv(text, "x,y")[1])

    def length(self) -> float:
        return float(np.sum(open_curvature_profile(_wrapped(self.points, 2))[1][2:-1]))

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


def _chords(points: np.ndarray):
    """Edges and lengths of a closed polyline, row j + 1 from vertex j to j+1, row 0 as row n."""
    edges = np.diff(np.concatenate([points[-1:], points, points[:1]]), axis=0)
    return edges, np.hypot(edges[:, 0], edges[:, 1])


def _wrapped(points: np.ndarray, pad: int) -> np.ndarray:
    """A closed polyline as an open one, with ``pad`` vertices repeated at each end."""
    return np.concatenate([points[-pad:], points, points[:pad]])


def curvature_profile(c: ClosedCurve) -> np.ndarray:
    """Signed per-vertex curvature: turning angle over arc-corrected
    spacing, positive where the curve turns left (counterclockwise circles
    have positive curvature)."""
    return open_curvature_profile(_wrapped(c.points, 2))[0][2:-2]


def _second_difference(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Three-point second derivative at f[1:-1]; h[i] spaces f[i] and f[i+1]."""
    hm, hp = h[:-1], h[1:]
    return 2.0 * (f[:-2] * hp - f[1:-1] * (hm + hp) + f[2:] * hm) / (hm * hp * (hm + hp))


def normal_velocity(c: ClosedCurve) -> np.ndarray:
    """Normal speed -d^2 kappa / ds^2 at every vertex."""
    return open_normal_velocity(_wrapped(c.points, 3))[3:-3]


def open_curvature_profile(points: np.ndarray):
    """Curvature of an open polyline (endpoints NaN), and its arc-corrected
    edge lengths; arcs[i] joins vertex i and i+1.

    Each edge's chord gets the circular-arc correction (1 + w^2/24), with
    w the mean turning at its ends (an end edge takes the turning at its
    one interior vertex), and each interior turning is divided by the
    mean arc of its two edges.
    """
    pts = np.asarray(points, dtype=float)
    edges = pts[1:] - pts[:-1]
    chord = np.hypot(edges[:, 0], edges[:, 1])
    if np.any(chord == 0.0):
        raise ValueError("degenerate edge")
    dth = _turning(edges[:-1], edges[1:])  # turning at interior vertex i+1
    turning = np.concatenate([dth[:1], dth, dth[-1:]])
    w = 0.5 * (turning[:-1] + turning[1:])
    arcs = chord * (1.0 + w * w / 24.0)
    kappa = np.full(pts.shape[0], np.nan)
    kappa[1:-1] = dth / (0.5 * (arcs[:-1] + arcs[1:]))
    return kappa, arcs


def open_normal_velocity(points: np.ndarray) -> np.ndarray:
    """-d^2 kappa/ds^2 on an open polyline; NaN within two of each end."""
    kappa, arcs = open_curvature_profile(points)
    out = np.full(points.shape[0], np.nan)
    out[2:-2] = -_second_difference(kappa[1:-1], arcs[1:-1])
    return out


def _equal_arc_index(closed: np.ndarray, n: int) -> np.ndarray:
    """Fractional row indices of n equal-arc points on ``closed`` (last row = first)."""
    s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(closed, axis=0).T))])
    return np.interp(np.arange(n) * (s[-1] / n), s, np.arange(len(s)))


def resample_uniform(c: ClosedCurve) -> ClosedCurve:
    """As many vertices as ``c``, at equal arc length along its polygon,
    from vertex 0.

    Each new vertex lies on the polygon, so the result is never longer.
    """
    closed = np.vstack([c.points, c.points[:1]])
    u = _equal_arc_index(closed, c.n)
    idx = np.arange(c.n + 1)
    return ClosedCurve(np.stack([np.interp(u, idx, col) for col in closed.T], axis=1), c.t)


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


def _on_equal_arcs(curve, n: int) -> ClosedCurve:
    """n points of the closed curve(t), t in [0, 2 pi), at equal arc length
    along its inscribed 64n-gon; each is curve(t), so it lies on the curve."""
    m = 64 * n
    u = _equal_arc_index(curve(2.0 * math.pi * np.arange(m + 1) / m), n)
    return ClosedCurve(curve(2.0 * math.pi * u / m))


def seed_ellipse(a: float, b: float, n: int) -> ClosedCurve:
    """Ellipse with semi-axes a, b, at uniform arc length."""
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    if n < 16:
        raise ValueError("n must be at least 16")
    return _on_equal_arcs(lambda t: np.stack([a * np.cos(t), b * np.sin(t)], axis=1), n)


def seed_lemniscate(n: int) -> ClosedCurve:
    """Figure eight sqrt(6)/(1+sin^2 t) (cos t, sin(2t)/2), uniform arc.

    The lemniscate of amplitude a is an exact homothetic shrinker of curve
    diffusion, k_ss = (6/a^4) <x, N>: it contracts as (1 - t/T)^(1/4) x0
    and vanishes at T = a^4/24, which is 1.5 for this seed.
    """
    if n < 64:
        raise ValueError("n must be at least 64")

    def figure_eight(t):
        scale = math.sqrt(6.0) / (1.0 + np.sin(t) ** 2)
        return np.stack([scale * np.cos(t), scale * 0.5 * np.sin(2.0 * t)], axis=1)

    return _on_equal_arcs(figure_eight, n)


def seed_clothoid(s_max: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Euler spiral with curvature equal to arc length on [-s_max, s_max]:
    its (n, 2) points and their arc-length positions s.

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
    return np.stack([root * C, root * S], axis=1), s


# --------------------------------------------------------------------------
# time stepping
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _bgn_layout(n: int):
    """Read-only index arrays of a BGN step on n vertices, and LAPACK's dgbsv.  The
    band is gbsv storage, (19, 3n) in Fortran order: entry (i, j) at flat 18 j + i + 12.

    dgbsv comes from scipy's compiled wrapper ``scipy.linalg._flapack``, loaded
    by itself: finding the spec of ``scipy.linalg`` runs scipy's own light init
    but not the one of ``scipy.linalg``, which takes some 0.3 s and 300 modules.
    It is the very object ``get_lapack_funcs("gbsv", dtype=np.float64)`` gives.
    """
    zigzag = np.minimum(np.arange(0, 2 * n, 2), np.arange(2 * n - 1, 0, -2))  # place of v
    i = 3 * zigzag + np.arange(3)[:, None]  # the unknowns kappa_v, x_v, y_v, by component
    j, (k, x, y) = np.roll(i, -1, axis=1), i  # those of v + 1, and each row of i
    entries = [(i, i), (i, j), (j, i), (k, x), (k, y), (x, k), (y, k)]  # (row, col) of vals
    pos = np.concatenate([(18 * col + row + 12).ravel() for row, col in entries])
    xy = i[1:].T.ravel()  # the position unknowns, (x_v, y_v) vertex by vertex
    pos.flags.writeable = k.flags.writeable = xy.flags.writeable = False
    linalg = importlib.util.find_spec("scipy.linalg")
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", linalg.submodule_search_locations
    )
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return pos, k, xy, flapack.dgbsv


def _bgn_step(pts: np.ndarray, dt: float, chords=None):
    """One BGN step of a closed polygon: (vertex curvature, new vertices).

    With mass lumping, the weighted vertex normal N_j = rot(q_{j+1} - q_{j-1}) / 2
    (rot turns a quarter left) and the cyclic P1 stiffness matrix A of
    the edge lengths l_j (entries 1/l_j), it solves

        -A kappa + N . (X+ - X) / dt = 0,     kappa N + A X+ = 0

    for kappa and the displacement X+ - X; solving for the displacement
    keeps the result independent of where the polygon lies.  The
    unknowns are interleaved per vertex as (kappa_j, x_j, y_j), with the
    vertices in zig-zag order 0, n-1, 1, n-2, ...: each cycle neighbour
    is at most two places away, so the system is (6, 6)-banded with no
    periodic corners.  ``chords`` is ``_chords(pts)``, if the caller has it.
    """
    n = pts.shape[0]
    pos, kappa_pos, xy_pos, gbsv = _bgn_layout(n)
    edges, chord = _chords(pts) if chords is None else chords
    inv = 1.0 / chord  # 1/l_j is inv[j + 1]
    ext = np.concatenate([pts[-1:], pts, pts[:1]])
    span = ext[2:] - ext[:-2]
    nx, ny, d, off = -0.5 * span[:, 1], 0.5 * span[:, 0], inv[1:] + inv[:-1], inv[1:]
    # the band values, in the order of pos: kappa rows carry -A, position rows +A
    vals = np.concatenate([-d, d, d, off, -off, -off, off, -off, -off, nx / dt, ny / dt, nx, ny])
    # -A X, the jumps of the unit tangent, is the right-hand side of the position rows
    jump = np.diff(edges * inv[:, None], axis=0)
    if not (np.isfinite(vals).all() and np.isfinite(jump).all()):
        raise ValueError("array must not contain infs or NaNs")
    ab, rhs = np.zeros((3 * n, 19)), np.zeros(3 * n)  # ab.T is the gbsv storage
    ab.reshape(-1)[pos], rhs[xy_pos] = vals, jump.ravel()  # ab through its flat view
    _, _, x, info = gbsv(6, 6, ab.T, rhs, overwrite_ab=True, overwrite_b=True)
    if info:
        raise np.linalg.LinAlgError("singular matrix") if info > 0 else ValueError("bad gbsv call")
    return x[kappa_pos], pts + x[xy_pos].reshape(n, 2)


# a curve is extinct once its diameter falls below this fraction of its first
_EXTINCTION_FRAC = 0.05


def flow(c: ClosedCurve, dt: float, t_end: float, frames: int = 64) -> FlowResult:
    """Evolve a closed curve by curve diffusion until t_end or extinction.

    The curve's own vertices are advanced by the parametric scheme of
    Barrett, Garcke & Nuernberg (J. Comput. Phys. 222 (2007)) in steps of
    dt, shortened only to land on the frame times.  The scheme never
    increases polygon length and keeps the vertices well spaced by itself,
    so ``c`` is not resampled: frame 0 is ``c``.  The curve is declared
    extinct when its diameter falls below ``_EXTINCTION_FRAC`` of the
    initial diameter.
    """
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ValueError("dt and t_end must be positive and finite")
    if frames < 1:
        raise ValueError("frames must be at least 1")

    d0 = c.diameter()
    threshold = _EXTINCTION_FRAC * d0
    min_edge = 1e-12 * d0

    def monitors(curve: ClosedCurve, diameter: float) -> CurveMonitors:
        return CurveMonitors(
            length=curve.length(),
            signed_area=curve.signed_area(),
            max_curvature=float(np.max(np.abs(curvature_profile(curve)))),
            diameter=diameter,
        )

    t = 0.0
    frames_out: List[Tuple[float, ClosedCurve, CurveMonitors]] = [(0.0, c, monitors(c, d0))]
    frame_times = [t_end * (j + 1) / frames for j in range(frames)]
    pts = c.points
    chords = _chords(pts)  # shared by the collapse test and the next step
    if np.min(chords[1]) < min_edge:
        return FlowResult(frames_out, FlowOutcome("failed", reason="edge collapse"))
    for tf in frame_times:
        for h, t in _steps_to(t, tf, dt, t_end):
            _, pts = _bgn_step(pts, h, chords)
            if not np.all(np.isfinite(pts)):
                return FlowResult(frames_out, FlowOutcome("failed", reason="non-finite"))
            # before any ClosedCurve of pts, which refuses a zero-length edge
            chords = _chords(pts)
            if np.min(chords[1]) < min_edge:
                return FlowResult(frames_out, FlowOutcome("failed", reason="edge collapse"))

            xs, ys = pts[:, 0], pts[:, 1]  # per column: faster than axis-0 reductions
            if math.hypot(xs.max() - xs.min(), ys.max() - ys.min()) < 1.5 * threshold:
                cc = ClosedCurve(pts, t)
                d = cc.diameter()
                if d < threshold:
                    frames_out.append((t, cc, monitors(cc, d)))
                    return FlowResult(frames_out, FlowOutcome("extinct", t_ext=t))
        t = tf
        cc = ClosedCurve(pts, t)
        frames_out.append((t, cc, monitors(cc, cc.diameter())))
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
