"""Profile ODEs for graphical solitons of the surface diffusion flow.

Each profile phi(y) of the three kinds (equilibrium, self-similar,
travelling wave) is shot as a plane curve (y(s), phi(s)) in its signed
arc length s from the initial point, with the state

    (y, phi, c, s, theta, k, w, chi),   tan theta = psi = dphi/dy,

where theta is the tangent angle, (c, s) = (cos theta, sin theta), k =
dtheta/ds the curvature and w = dk/ds = (1/v) dk/dy, v = sqrt(1 + psi^2).
The system

    dy/ds = c,   dphi/ds = s,   dc/ds = -k s,   ds/ds = k c,
    dtheta/ds = k,   dk/ds = w,
    dw/ds = 0,      dchi/ds = 0                   (steady)
    dw/ds = -chi/4, dchi/ds = -k (y c + phi s),
                    chi = (phi - y psi)/v         (self-similar)
    dw/ds = chi,    dchi/ds = k (a c + b s),
                    chi = (a psi - b)/v           (travelling wave, direction (a, b))

is smooth through a vertical tangent and polynomial, and chi makes every
line of the kind an exact fixed point in floating point.

Integration is by Taylor series of fixed order, whose coefficients follow
from Cauchy-product recurrences, over a batch of lanes (one initial state
and direction each) run as numpy arrays; each lane picks its own step from
its last coefficients and keeps its own events, so its result does not
depend on the batch.  Each step's own polynomial locates every event (the
y budget, and the loss of graphicality, where |psi| reaches the slope
ceiling) and gives every stored row, evaluated over the whole batch at
once: up to the event, at sub-steps resolving the tangent angle, or with
``sample_h`` at uniform points in arc length (the tolerances and
``sample_h`` are all a caller sets; every other setting is a constant).
The curve is then followed past the vertical, unrecorded, until the
curvature changes sign or the turning on the current arc of constant
curvature sign is observed above pi.  A run thus ends with the budget
exhausted or with a breakdown certificate: an excess-turning witness
(the observed turning and its arc), graphicality loss (the slope at the
event), or a numerical failure (non-finite coefficients or state, step
underflow).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import numpy.random  # numpy loads it lazily; sweeps and shoots all draw from it

from .geometry import _read_csv, _write_csv

__all__ = [
    "SolitonKind",
    "ProfileState",
    "IntegratorOptions",
    "IntegratorStats",
    "BreakdownCertificate",
    "Trajectory",
    "ClassificationReport",
    "vector_field",
    "integrate",
    "shoot_bidirectional",
    "shoot_batch",
    "sample_initial_state",
    "seeded_initial_states",
    "run_sweep",
]


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

_KIND_NAMES = ("steady", "selfsimilar", "travelling")


@dataclass(frozen=True)
class SolitonKind:
    """Which profile equation drives the state.

    ``travelling`` carries the direction (a, b) of u(x,t) = phi(x-at)+bt;
    a zero direction vector is rejected.
    """

    name: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.name not in _KIND_NAMES:
            raise ValueError(f"unknown soliton kind {self.name!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("direction (a, b) must be finite")
        if self.name == "travelling" and self.a * self.a + self.b * self.b == 0.0:
            raise ValueError("travelling wave needs a nonzero direction (a, b)")

    @staticmethod
    def steady() -> "SolitonKind":
        return SolitonKind("steady")

    @staticmethod
    def self_similar() -> "SolitonKind":
        return SolitonKind("selfsimilar")

    @staticmethod
    def travelling(a: float, b: float) -> "SolitonKind":
        return SolitonKind("travelling", a, b)


@dataclass(frozen=True)
class ProfileState:
    """State of the first-order profile system at one location y."""

    y: float
    phi: float
    psi: float
    k: float
    w: float
    S: float

    @property
    def v(self) -> float:
        return math.sqrt(1.0 + self.psi * self.psi)

    @property
    def theta(self) -> float:
        return math.atan(self.psi)

    def is_finite(self) -> bool:
        return all(
            math.isfinite(x) for x in (self.y, self.phi, self.psi, self.k, self.w, self.S)
        )

    @staticmethod
    def initial(phi: float = 0.0, psi: float = 0.0, k: float = 0.0, w: float = 0.0) -> "ProfileState":
        return ProfileState(0.0, phi, psi, k, w, 0.0)


@dataclass(frozen=True)
class IntegratorOptions:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    # Uniform output spacing in arc length; overrides theta-resolved
    # sampling so that finite-difference identity checks see a uniform grid.
    sample_h: Optional[float] = None

    def validate(self) -> None:
        names = ["abs_tol", "rel_tol"]
        if self.sample_h is not None:
            names.append("sample_h")
        for name in names:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"option {name} must be positive and finite")


@dataclass(frozen=True)
class BreakdownCertificate:
    """Machine-checkable witness that a profile is not an entire graph.

    kind is one of 'angle_excess', 'graphicality_loss', 'non_finite',
    'step_underflow'; y_event is where graphicality was lost (or where
    the numerical failure happened).  For an angle-excess witness, detail
    carries the arc-length interval [S_a, S_b] of constant curvature sign
    and the turning observed on it (strictly above pi); for graphicality
    loss it carries the slope at the event and the ceiling it reached.
    """

    kind: str
    y_event: float
    direction: int
    detail: dict

    def __post_init__(self):
        if self.kind == "angle_excess" and not self.detail.get("value", 0.0) > math.pi:
            raise ValueError("angle-excess witness must exceed pi")
        if self.kind == "graphicality_loss":
            slope = self.detail.get("slope", 0.0)
            ceiling = self.detail.get("ceiling", 0.0)
            if not abs(slope) >= ceiling:
                raise ValueError("graphicality-loss slope below the configured ceiling")

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "y_event": self.y_event,
            "direction": self.direction,
            "detail": self.detail,
        }


class IntegratorStats(NamedTuple):
    """What one directional integration did: the steps it took, the
    smallest and largest |h| (None without a step) and why it ended:
    'budget' or its certificate's type.  (A named tuple: a dataclass would
    add about 2 ms to every command's import.)"""

    steps: int
    min_h: Optional[float]
    max_h: Optional[float]
    termination: str


_TRAJECTORY_HEADER = "y,phi,psi,k,w,S"


@dataclass
class Trajectory:
    """Dense output of one directional integration; its CSV stores y, phi,
    psi, k, w and S, and the tangent angle theta is arctan(psi)."""

    kind: SolitonKind
    direction: int
    y: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    k: np.ndarray
    w: np.ndarray
    S: np.ndarray
    outcome: str  # 'completed' | 'breakdown'
    certificate: Optional[BreakdownCertificate]
    max_abs_k: float
    max_turning: float
    stats: Optional[IntegratorStats] = None  # None when read from a file

    @property
    def theta(self) -> np.ndarray:
        return np.arctan(self.psi)

    @property
    def n(self) -> int:
        return self.y.size

    def to_csv(self) -> str:
        meta = {"kind": self.kind.name, "a": self.kind.a, "b": self.kind.b,
                "direction": self.direction, "outcome": self.outcome}
        columns = (self.y, self.phi, self.psi, self.k, self.w, self.S)
        return _write_csv(_TRAJECTORY_HEADER, columns, meta)

    @staticmethod
    def from_csv(text: str) -> "Trajectory":
        meta, rows = _read_csv(text, _TRAJECTORY_HEADER)
        try:
            kind = SolitonKind(meta["kind"], float(meta.get("a", 0.0)), float(meta.get("b", 0.0)))
            direction, outcome = int(meta["direction"]), meta["outcome"]
        except KeyError as exc:
            raise ValueError(f"missing trajectory metadata {exc}") from exc
        if direction not in (1, -1):
            raise ValueError("trajectory direction must be 1 or -1")
        if outcome not in ("completed", "breakdown"):
            raise ValueError(f"unknown trajectory outcome {outcome!r}")
        y, phi, psi, k, w, S = rows.T
        theta = np.arctan(psi)
        return Trajectory(
            kind, direction, y, phi, psi, k, w, S,
            outcome=outcome,
            certificate=None,
            max_abs_k=float(np.max(np.abs(k))),
            max_turning=float(np.max(np.abs(theta - theta[0]))),
        )


# --------------------------------------------------------------------------
# vector field
# --------------------------------------------------------------------------

# components of the arc-length state, and those a stored row keeps after S
_Y, _PHI, _C, _S, _THETA, _K, _W, _CHI = range(8)
_ROW = (_Y, _PHI, _THETA, _K, _W)


def vector_field(kind: SolitonKind) -> Callable:
    """Arc-length right-hand side of the profile system of ``kind``.

    Returns f(u) -> du/ds for the state u = (y, phi, c, s, theta, k, w, chi),
    (c, s) = (cos theta, sin theta); every component is a polynomial in u.
    The components are floats, or numpy arrays with one entry per lane.
    """
    name, a, b = kind.name, kind.a, kind.b

    def f(u):
        y, phi, c, s, theta, k, w, chi = u
        kc, ks = k * c, k * s
        if name == "steady":
            dw, dchi = 0.0, 0.0
        elif name == "selfsimilar":
            dw, dchi = -0.25 * chi, -(k * (y * c + phi * s))
        else:
            dw, dchi = chi, a * kc + b * ks
        return c, s, -ks, kc, k, w, dw, dchi

    return f


def _initial_state(kind: SolitonKind, init: ProfileState) -> tuple:
    """Arc-length state at ``init``; chi is 0 exactly on every line of the kind."""
    v = init.v
    if kind.name == "selfsimilar":
        chi = (init.phi - init.y * init.psi) / v
    elif kind.name == "travelling":
        chi = (kind.a * init.psi - kind.b) / v
    else:
        chi = 0.0
    return (init.y, init.phi, 1.0 / v, init.psi / v, init.theta, init.k, init.w, chi)


# --------------------------------------------------------------------------
# Taylor series over lanes
# --------------------------------------------------------------------------

# Degree of every step's Taylor polynomial: orders 16 to 20 shoot equally fast
# within 5 % on 100- and 1,000-lane batches, 12 and 14 up to 25 % slower
# (BENCH_21.json).
_ORDER = 18
# a step makes the last two coefficients' terms about 0.9^_ORDER of the tolerance
_ROOTS = (1.0 / (_ORDER - 1), 1.0 / _ORDER)
_DIVISORS = np.arange(1.0, _ORDER + 1.0)
# c_n = (k s)_j / -n and s_n = (k c)_j / n, n = j + 1: the divisors of (k s, k c)_j
_TURN = np.array([[-1.0], [1.0]]) * _DIVISORS[:, None, None]


def _fold(terms):
    """sum(terms) for every lane, in index order: accumulate adds the terms
    along axis 0 one by one, whatever the array's shape."""
    return np.add.accumulate(terms, axis=0)[-1]


def _series(kind: SolitonKind, u):
    """Taylor coefficients (_ORDER + 1, 8, L) in arc length of the solutions
    through the states u (8, L), one lane each.

    Coefficient n is coefficient n - 1 of the right-hand side over n.  The
    right-hand side is polynomial, so its coefficients are Cauchy products
    of those already known: (a b)_j = a_0 b_j + a_1 b_{j-1} + ... + a_j b_0,
    a left fold taken elementwise over the lanes.
    """
    x = np.empty((_ORDER + 1, 8, u.shape[1]))
    x[0] = u
    name, a, b = kind.name, kind.a, kind.b
    k, cs, yphi = x[:, _K:_K + 1], x[:, _C:_S + 1], x[:, _Y:_PHI + 1]
    if name == "steady":
        x[1:, _K:] = 0.0  # w and chi are constant, so k is linear: k_1 = w_0 / 1
        x[1, _K] = x[0, _W]
    elif name == "selfsimilar":
        p = np.empty((_ORDER, u.shape[1]))  # y c + phi s
    for j in range(_ORDER):
        n = j + 1
        kcs = _fold(k[:n] * cs[j::-1])  # (k c)_j, (k s)_j
        np.divide(kcs[::-1], _TURN[j], out=cs[n])
        if name == "selfsimilar":
            np.divide(cs[j], n, out=yphi[n])
            ycs = _fold(yphi[:n] * cs[j::-1])
            np.add(ycs[0], ycs[1], out=p[j])
            np.divide(x[j, _W], n, out=x[n, _K])
            np.divide(np.multiply(x[j, _CHI], -0.25, out=x[n, _W]), n, out=x[n, _W])
            np.divide(_fold(k[:n, 0] * p[j::-1]), -n, out=x[n, _CHI])
        elif name == "travelling":
            np.divide(x[j, _W:], n, out=x[n, _K:_W + 1])  # k' = w, w' = chi
            x[n, _CHI] = (a * kcs[0] + b * kcs[1]) / n
    # no other product reads y, phi or theta
    if name != "selfsimilar":
        np.divide(cs[:-1], _DIVISORS[:, None, None], out=yphi[1:])
    np.divide(x[:-1, _K], _DIVISORS[:, None], out=x[1:, _THETA])
    return x


def _horner(coefs, dt):
    """The polynomial at dt by Horner's rule, its coefficients ``coefs``
    given from the highest down: floats, or arrays whose last axis dt
    broadcasts over."""
    coefs = iter(coefs)
    value = next(coefs)
    for coef in coefs:
        value = value * dt + coef
    return value


def _sample_rows(x, h, requests, sample_h):
    """Stored rows (S, y, phi, theta, k, w) of every requesting lane's step,
    from one evaluation of the steps' polynomials over the batch.

    x (_ORDER + 1, 8, L) holds the steps' Taylor coefficients and h (L,)
    their sizes.  Lane l requests count rows of its step from S = s, which
    are rows[ends[l] - count:ends[l]]:
    - theta-resolved, (s, count, t_end, end_row): at S = s + (t_end tau) h
      for fractions f = j / count, 0 < j <= count, the last row replaced by
      end_row, the row where the graphical part of the step ends.  Where
      the curvature has one sign at both ends, k0 and k1, tau is where a
      curvature linear in S has turned by the fraction f of its turning,
      tau = f (k0 + k1) / (k0 + sign(k0) sqrt((1 - f) k0^2 + f k1^2));
      elsewhere tau = f;
    - with ``sample_h``, (s, count, first_j): at S = (direction j) sample_h
      for first_j <= j < first_j + count, where the direction is the sign
      of h.
    Every number takes the float operations of a scalar evaluation in their
    order, elementwise over the rows.
    """
    columns = tuple(zip(*requests))
    s, counts = np.array(columns[0]), np.array(columns[1])
    ends = np.cumsum(counts)
    lane = np.repeat(np.arange(counts.size), counts)
    j = np.arange(ends[-1]) - (ends - counts)[lane]
    rows = np.empty((j.size, 1 + len(_ROW)))
    if sample_h is None:
        f = (j + 1) / counts[lane]
        k0, k1 = x[0, _K, lane], np.array(columns[3])[lane, 4]
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where k0 = k1 = 0
            tau = np.where(k0 * k1 > 0.0, f * (k0 + k1) / (
                k0 + np.copysign(np.sqrt((1.0 - f) * k0 * k0 + f * k1 * k1), k0)), f)
        dt = (np.array(columns[2])[lane] * tau) * h[lane]
        rows[:, 0] = s[lane] + dt
    else:
        rows[:, 0] = (np.sign(h)[lane] * (j + np.array(columns[2])[lane])) * sample_h
        dt = rows[:, 0] - s[lane]
    # each coefficient gathered per row only as Horner's rule reaches it
    rows[:, 1:] = _horner((coef[:, lane] for coef in x[::-1, _ROW]), dt).T
    if sample_h is None:
        rows[ends - 1] = columns[3]
    return rows, ends


def _root(g, t1: float, g1: float) -> float:
    """Event location on (0, t1] for g(0) < 0 <= g(t1) = g1 (Illinois method).

    Returns the bracket end on the g >= 0 side, so the event has happened
    at the returned point; the bracket is shrunk to 1e-14 of the step.
    """
    t0, g0 = 0.0, g(0.0)
    side = 0
    for _ in range(100):
        if t1 - t0 <= 1e-14:
            break
        t = (t0 * g1 - t1 * g0) / (g1 - g0)
        gt = g(t)
        if gt == 0.0:
            return t
        if gt > 0.0:
            t1, g1 = t, gt
            if side == 1:
                g0 *= 0.5
            side = 1
        else:
            t0, g0 = t, gt
            if side == -1:
                g1 *= 0.5
            side = -1
    return t1


def _critical_angle(ceiling: float) -> float:
    """Smallest angle whose tangent reaches ``ceiling`` in floating point."""
    theta = math.atan(ceiling)
    while math.tan(theta) < ceiling:
        theta = math.nextafter(theta, math.pi)
    return theta


# Fixed settings: the step bounds in arc length (a shorter step is a step
# underflow), the slope |psi| where graphicality is lost (|theta| = _THETA_C),
# the most turning between theta-resolved rows, and the largest |k| and
# turning of a trivial profile.
_MIN_STEP, _MAX_STEP = 1e-14, 1.0
_SLOPE_CEILING = 1e6
_THETA_C = _critical_angle(_SLOPE_CEILING)
_THETA_SAMPLE = 0.01
_TRIVIALITY_TOL = 1e-9


class _Lane:
    """Scalar control of one directional integration in a batch.

    Holds the lane's step size, stored rows, monitors, events and step
    counts, and applies each step with Python floats, so a lane's result
    does not depend on the batch it runs in.
    """

    __slots__ = ("direction", "y_budget", "sample_h", "store", "y_final",
                 "s", "u", "h", "rows", "pending", "grid_j", "theta0",
                 "max_abs_k", "max_turning", "steps", "min_h", "max_h",
                 "run_sign", "run_s", "run_theta", "event", "event_s", "certificate")

    def __init__(self, u, direction, y_budget, sample_h, store):
        self.direction, self.y_budget = direction, y_budget
        self.sample_h, self.store = sample_h, store
        self.y_final = u[_Y] + direction * y_budget
        self.s, self.u, self.h = 0.0, u, 0.0
        # stored rows (S, y, phi, theta, k, w): the initial state, then one
        # array per step that stores any
        self.rows = [np.array([(0.0, *(u[i] for i in _ROW))])]
        # the request of a step whose rows the batch evaluates (_sample_rows),
        # or None
        self.pending = None
        self.grid_j = 1  # index of the next uniform sample
        self.theta0 = u[_THETA]
        self.max_abs_k, self.max_turning = abs(u[_K]), 0.0
        self.steps, self.min_h, self.max_h = 0, None, None
        # the current run of constant curvature sign starts at (run_s, run_theta)
        k = u[_K]
        self.run_sign = 1 if k > 0.0 else -1 if k < 0.0 else 0
        self.run_s, self.run_theta = 0.0, u[_THETA]
        # where graphicality was lost
        self.event = u if abs(u[_THETA]) >= _THETA_C else None
        self.event_s = 0.0
        self.certificate = None

    def _breakdown(self, name, detail):
        y = self.u[_Y] if self.event is None else self.event[_Y]
        return BreakdownCertificate(name, y, self.direction, detail)

    def _graphicality_loss(self):
        return self._breakdown("graphicality_loss",
                               {"slope": math.tan(self.event[_THETA]),
                                "ceiling": _SLOPE_CEILING})

    def step_size(self, ratio_prev: float, ratio_last: float) -> float:
        """The next step, from the largest of the last two coefficients over
        their tolerance: 0.9 times the radius at which their terms reach it,
        at most ``_MAX_STEP``.  Python's float power: np.power differs from
        it in the last bit on about 5 % of inputs."""
        g = max(ratio_prev ** _ROOTS[0], ratio_last ** _ROOTS[1])
        h = 0.9 / g if g > 0.0 else math.inf
        self.h = self.direction * min(h, _MAX_STEP)
        return self.h

    def advance(self, u1, finite, x, m) -> bool:
        """Take the step of size ``h`` to u1 on the Taylor polynomial
        x[:, :, m]; False once the lane has ended.

        A step with rows to store leaves their request in ``pending`` (see
        ``_sample_rows``).
        """
        u, h, direction = self.u, self.h, self.direction
        if not finite or abs(h) < _MIN_STEP:
            if self.event is not None:
                self.certificate = self._graphicality_loss()
            else:
                failure = "step_underflow" if finite else "non_finite"
                self.certificate = self._breakdown(failure, {"slope": math.tan(u[_THETA])})
            return False
        self.steps += 1
        size = abs(h)
        if self.min_h is None or size < self.min_h:
            self.min_h = size
        if self.max_h is None or size > self.max_h:
            self.max_h = size

        s = self.s
        if self.event is None:
            # the graphical part ends at the first of graphicality loss and budget
            t_end, stop = 1.0, None
            y_final = self.y_final
            gap = direction * (u1[_Y] - y_final)
            if abs(u1[_THETA]) >= _THETA_C or gap >= 0.0:
                coefs = x[::-1, :, m].T.tolist()  # per component, highest first
                if abs(u1[_THETA]) >= _THETA_C:
                    t_end = _root(lambda t: abs(_horner(coefs[_THETA], t * h)) - _THETA_C,
                                  1.0, abs(u1[_THETA]) - _THETA_C)
                    stop = "graphicality"
                if gap >= 0.0:
                    t = _root(lambda t: direction * (_horner(coefs[_Y], t * h) - y_final),
                              1.0, gap)
                    if t <= t_end:
                        t_end, stop = t, "budget"
            u_end = u1 if t_end == 1.0 else [_horner(c, t_end * h) for c in coefs]
            s_end = s + t_end * h
            if stop == "budget":
                u_end = (y_final, *u_end[1:])

            sample_h = self.sample_h
            if self.store and sample_h is None:
                # sub-steps turning by at most _THETA_SAMPLE: of equal turning
                # where k keeps its sign (see _sample_rows), else of equal S
                k0, k1 = u[_K], u_end[_K]
                if k0 * k1 > 0.0:
                    turning = abs(u_end[_THETA] - u[_THETA])
                else:
                    turning = max(abs(k0), abs(k1)) * abs(s_end - s)
                n = math.ceil(turning / _THETA_SAMPLE)
                self.pending = (s, max(n, 1), t_end, (s_end, *(u_end[i] for i in _ROW)))
            elif self.store:
                # uniform grid in arc length, the variable the steps advance:
                # sample j lies at S = direction j sample_h
                first = j = self.grid_j
                while direction * s_end >= j * sample_h:
                    j += 1
                if j > first:
                    self.pending = (s, j - first, first)
                self.grid_j = j

            k = abs(u_end[_K])
            if k > self.max_abs_k:
                self.max_abs_k = k
            turning = abs(u_end[_THETA] - self.theta0)
            if turning > self.max_turning:
                self.max_turning = turning
            if stop == "budget":
                return False
            if stop == "graphicality":
                self.event, self.event_s = u_end, s_end

        # take the whole step; past the vertical the curve is followed
        # until the turning on a run of constant curvature sign passes pi
        s = self.s = s + h
        self.u = u1
        k = u1[_K]
        sign = 1 if k > 0.0 else -1 if k < 0.0 else 0
        if sign and sign != self.run_sign:
            if self.run_sign and self.event is not None:
                self.certificate = self._graphicality_loss()
                return False
            if self.run_sign:
                self.run_s, self.run_theta = s, u1[_THETA]
            self.run_sign = sign
        if self.event is not None:
            turning = abs(u1[_THETA] - self.run_theta)
            if turning > math.pi:
                self.certificate = self._breakdown(
                    "angle_excess",
                    {"interval": [min(self.run_s, s), max(self.run_s, s)], "value": turning},
                )
                return False
            if abs(s - self.event_s) > self.y_budget:
                self.certificate = self._graphicality_loss()
                return False
        return True

    def trajectory(self, kind: SolitonKind) -> Trajectory:
        rows = np.concatenate(self.rows)
        cert = self.certificate
        return Trajectory(
            kind=kind,
            direction=self.direction,
            y=rows[:, 1],
            phi=rows[:, 2],
            psi=np.tan(rows[:, 3]),
            k=rows[:, 4],
            w=rows[:, 5],
            S=rows[:, 0],
            outcome="completed" if cert is None else "breakdown",
            certificate=cert,
            max_abs_k=self.max_abs_k,
            max_turning=self.max_turning,
            stats=IntegratorStats(self.steps, self.min_h, self.max_h,
                                  "budget" if cert is None else cert.kind),
        )


def _integrate_lanes(kind, lanes, y_budget, opts, store) -> list:
    """Advance every (init, direction) lane as one batch; one Trajectory per lane.

    Each step expands every active lane's Taylor series over numpy arrays
    of their states; each lane's control is scalar.  Lanes that end leave
    the batch.
    """
    opts.validate()
    if not (math.isfinite(y_budget) and y_budget > 0):
        raise ValueError("y_budget must be positive and finite")
    for init, direction in lanes:
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        if not init.is_finite():
            raise ValueError("initial state must be finite")
    if not lanes:
        return []
    atol, rtol = opts.abs_tol, opts.rel_tol
    runs = [_Lane(_initial_state(kind, init), direction, y_budget, opts.sample_h, store)
            for init, direction in lanes]
    active = runs
    u = np.array([r.u for r in runs]).T.copy()
    # a non-finite coefficient only ends its lane, silently
    with np.errstate(all="ignore"):
        while active:
            x = _series(kind, u)
            ratios = (np.abs(x[-2:]) / (atol + rtol * np.abs(u))).max(axis=1).T.tolist()
            h = np.array([run.step_size(*r) for run, r in zip(active, ratios)])
            u1 = _horner(x[::-1], h)
            finite = (np.isfinite(x).all(axis=(0, 1)) & np.isfinite(u1).all(axis=0)).tolist()
            keep, sampled = [], []
            for m, (run, lane_u1) in enumerate(zip(active, u1.T.tolist())):
                if run.advance(lane_u1, finite[m], x, m):
                    keep.append(m)
                if run.pending is not None:
                    sampled.append(m)
            if sampled:
                runs_s = [active[m] for m in sampled]
                rows, ends = _sample_rows(x[:, :, sampled], h[sampled],
                                          [r.pending for r in runs_s], opts.sample_h)
                start = 0
                for run, end in zip(runs_s, ends.tolist()):
                    run.rows.append(rows[start:end])
                    run.pending = None
                    start = end
            if len(keep) < len(active):
                active = [active[m] for m in keep]
                u1 = u1[:, keep]
            u = u1
    return [r.trajectory(kind) for r in runs]


def integrate(
    kind: SolitonKind,
    init: ProfileState,
    direction: int = 1,
    y_budget: float = 200.0,
    opts: IntegratorOptions = IntegratorOptions(),
    store: bool = True,
) -> Trajectory:
    """Advance one profile from ``init`` until breakdown or budget.

    direction is +1 or -1; y_budget is the maximum |y - y0| travelled,
    and also the most arc length followed past the loss of graphicality.
    With ``store=False`` only monitors and the outcome are kept, which
    is what classification sweeps need.  This is a batch of one lane.
    """
    return _integrate_lanes(kind, [(init, direction)], y_budget, opts, store)[0]


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    """Outcome of bidirectional shooting from one initial state."""

    kind: SolitonKind
    init: ProfileState
    outcome: str  # 'trivial' | 'breakdown' | 'inconclusive'
    certificate: Optional[BreakdownCertificate]
    max_abs_k: float
    total_turning: float
    forward: Optional[Trajectory] = None
    backward: Optional[Trajectory] = None
    stats: tuple = ()  # IntegratorStats of the forward and backward runs

    def to_dict(self) -> dict:
        return {
            "init": asdict(self.init),
            "outcome": self.outcome,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "max_abs_k": self.max_abs_k,
            "total_turning": self.total_turning,
            "integrator": dict(zip(("forward", "backward"), (s._asdict() for s in self.stats))),
        }


def _classify(kind, init, fwd, bwd, store) -> ClassificationReport:
    """Trivial requires both directions to complete the budget with
    negligible curvature and turning; a certificate from either
    direction yields Breakdown; anything else is Inconclusive.
    """
    max_abs_k = max(fwd.max_abs_k, bwd.max_abs_k)
    total_turning = max(fwd.max_turning, bwd.max_turning)
    fc, bc = fwd.certificate, bwd.certificate
    if fc is not None and bc is not None:
        # report the certificate closer to the initial point
        certificate = fc if abs(fc.y_event - init.y) <= abs(bc.y_event - init.y) else bc
    else:
        certificate = fc if fc is not None else bc

    if certificate is not None:
        outcome = "breakdown"
    elif (
        fwd.outcome == "completed"
        and bwd.outcome == "completed"
        and max_abs_k <= _TRIVIALITY_TOL
        and total_turning <= _TRIVIALITY_TOL
    ):
        outcome = "trivial"
    else:
        outcome = "inconclusive"
    return ClassificationReport(
        kind=kind,
        init=init,
        outcome=outcome,
        certificate=certificate,
        max_abs_k=max_abs_k,
        total_turning=total_turning,
        forward=fwd if store else None,
        backward=bwd if store else None,
        stats=(fwd.stats, bwd.stats),
    )


def shoot_batch(
    kind: SolitonKind,
    inits: list,
    y_budget: float = 200.0,
    opts: IntegratorOptions = IntegratorOptions(),
    store: bool = True,
) -> list:
    """Classify every initial state in ``inits`` by shooting both ways.

    Both directions of every state run as lanes of one batch; the reports
    are those of one ``shoot_bidirectional`` call per state.
    """
    lanes = [(init, direction) for init in inits for direction in (1, -1)]
    trajs = _integrate_lanes(kind, lanes, y_budget, opts, store)
    return [_classify(kind, init, fwd, bwd, store)
            for init, fwd, bwd in zip(inits, trajs[::2], trajs[1::2])]


def shoot_bidirectional(
    kind: SolitonKind,
    init: ProfileState,
    y_budget: float = 200.0,
    opts: IntegratorOptions = IntegratorOptions(),
    store: bool = True,
) -> ClassificationReport:
    """Integrate in both directions and classify the initial state: a
    batch of one state (see ``_classify``)."""
    return shoot_batch(kind, [init], y_budget, opts, store)[0]


# --------------------------------------------------------------------------
# seeded sweeps
# --------------------------------------------------------------------------

def sample_initial_state(rng: np.random.Generator) -> ProfileState:
    """Draw a non-trivial initial state.

    phi, psi uniform in [-2, 2]; k, w uniform in [-1, 1]; resampled until
    |k| + |w| >= 1e-3 so the measure-zero trivial set is excluded.
    """
    while True:
        phi, psi = rng.uniform(-2.0, 2.0, size=2)
        k, w = rng.uniform(-1.0, 1.0, size=2)
        if abs(k) + abs(w) >= 1e-3:
            return ProfileState(0.0, float(phi), float(psi), float(k), float(w), 0.0)


def seeded_initial_states(seed: int, start: int, stop: int) -> list:
    """Initial states start..stop-1 of the seeded stream: state i draws from (seed, i)."""
    return [sample_initial_state(np.random.default_rng([seed, i])) for i in range(start, stop)]


def run_sweep(
    kind: SolitonKind,
    count: int,
    seed: int,
    y_budget: float = 200.0,
    opts: IntegratorOptions = IntegratorOptions(),
) -> list:
    """Classify ``count`` seeded random initial states as one batch.

    Run i uses the PRNG stream (seed, i), and a lane's result does not
    depend on its batch, so each report is that of its state shot alone.
    """
    return shoot_batch(kind, seeded_initial_states(seed, 0, count), y_budget, opts, store=False)
