"""Profile ODEs for graphical solitons of the surface diffusion flow.

Each profile phi(y) of the three kinds (equilibrium, self-similar,
travelling wave) is shot as a plane curve (y(s), phi(s)) in its signed
arc length s from the initial point, with the state

    (y, phi, theta, k, w, chi),   tan theta = psi = dphi/dy,

where theta is the tangent angle, k = dtheta/ds the curvature and
w = dk/ds = (1/v) dk/dy, v = sqrt(1 + psi^2).  The system

    dy/ds = cos theta,   dphi/ds = sin theta,   dtheta/ds = k,   dk/ds = w,
    dw/ds = 0,      dchi/ds = 0                              (steady)
    dw/ds = -chi/4, dchi/ds = -k (y cos theta + phi sin theta),
                    chi = (phi - y psi)/v                    (self-similar)
    dw/ds = chi,    dchi/ds = k (a cos theta + b sin theta),
                    chi = (a psi - b)/v                      (travelling wave,
                                                              direction (a, b))

is smooth through a vertical tangent, and chi makes every line of the
kind an exact fixed point in floating point.

Integration is by an adaptive Dormand-Prince 5(4) pair, advanced over a
batch of lanes (one initial state and direction each) whose stages run
as numpy arrays; each lane keeps its own step size and events, so its
result does not depend on the batch.  The pair's native dense output
and one root-finder locate every event: the y budget and the loss of
graphicality, where |psi| reaches the slope ceiling.  Trajectories are
reported up to that point, at equal sub-steps resolving the tangent
angle, or with ``sample_h`` at uniform points in arc length; every
stored row is the dense output of its step, evaluated over the whole
batch at once.  The curve is then followed past the vertical,
unrecorded, until the curvature changes sign or the turning on the
current arc of constant curvature sign is observed above pi.  A run thus
ends with the budget exhausted or with a breakdown certificate: an
excess-turning witness (the observed turning and its arc), graphicality
loss (the slope at the event), or a numerical failure (non-finite state,
step underflow).

A seeded sweep shoots one contiguous block of states per worker, at most
one per CPU: the first in the calling process, each other in a child
forked for it, which sends its reports back through a pipe.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np
import numpy.random  # numpy loads it lazily; sweeps and shoots all draw from it

from .geometry import _read_csv, _write_csv

__all__ = [
    "SolitonKind",
    "ProfileState",
    "IntegratorOptions",
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
    min_step: float = 1e-14
    max_step: float = 1.0
    initial_step: float = 1e-3
    slope_ceiling: float = 1e6
    theta_sample: float = 0.01
    triviality_tol: float = 1e-9
    # Uniform output spacing in arc length; overrides theta-resolved
    # sampling so that finite-difference identity checks see a uniform grid.
    sample_h: Optional[float] = None

    def validate(self) -> None:
        names = ["abs_tol", "rel_tol", "min_step", "max_step", "initial_step",
                 "slope_ceiling", "theta_sample", "triviality_tol"]
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


_TRAJECTORY_HEADER = "y,phi,psi,theta,k,w,S"


@dataclass
class Trajectory:
    """Dense output of one directional integration."""

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
    options: IntegratorOptions
    max_abs_k: float
    max_turning: float

    @property
    def theta(self) -> np.ndarray:
        return np.arctan(self.psi)

    @property
    def n(self) -> int:
        return self.y.size

    def to_csv(self) -> str:
        meta = {"kind": self.kind.name, "a": self.kind.a, "b": self.kind.b,
                "direction": self.direction, "outcome": self.outcome}
        columns = (self.y, self.phi, self.psi, self.theta, self.k, self.w, self.S)
        return _write_csv(_TRAJECTORY_HEADER, columns, meta)

    @staticmethod
    def from_csv(text: str) -> "Trajectory":
        meta, rows = _read_csv(text, _TRAJECTORY_HEADER)
        try:
            kind = SolitonKind(meta["kind"], float(meta.get("a", 0.0)), float(meta.get("b", 0.0)))
            direction = int(meta.get("direction", 1))
        except KeyError as exc:
            raise ValueError(f"missing trajectory metadata {exc}") from exc
        y, phi, psi, theta, k, w, S = rows.T
        return Trajectory(
            kind, direction, y, phi, psi, k, w, S,
            outcome=meta.get("outcome", "completed"),
            certificate=None,
            options=IntegratorOptions(),
            max_abs_k=float(np.max(np.abs(k))),
            max_turning=float(np.max(np.abs(theta - theta[0]))),
        )


# --------------------------------------------------------------------------
# vector field
# --------------------------------------------------------------------------

def vector_field(kind: SolitonKind) -> Callable:
    """Arc-length right-hand side of the profile system of ``kind``.

    Returns f(u) -> du/ds for the state u = (y, phi, theta, k, w, chi).
    The components are floats, or numpy arrays with one entry per lane;
    where numpy's cos and sin return math's bits (README, "Numerical
    notes"), both give the same slopes.
    """
    if kind.name == "steady":

        def f(u):
            theta = u[2]
            return np.cos(theta), np.sin(theta), u[3], u[4], 0.0, 0.0

    elif kind.name == "selfsimilar":

        def f(u):
            y, phi, theta, k, w, chi = u
            c, s = np.cos(theta), np.sin(theta)
            return c, s, k, w, -0.25 * chi, -k * (y * c + phi * s)

    else:
        a, b = kind.a, kind.b

        def f(u):
            _, _, theta, k, w, chi = u
            c, s = np.cos(theta), np.sin(theta)
            return c, s, k, w, chi, k * (a * c + b * s)

    return f


def _initial_state(kind: SolitonKind, init: ProfileState) -> tuple:
    """Arc-length state at ``init``; chi is 0 exactly on every line of the kind."""
    if kind.name == "selfsimilar":
        chi = (init.phi - init.y * init.psi) / init.v
    elif kind.name == "travelling":
        chi = (kind.a * init.psi - kind.b) / init.v
    else:
        chi = 0.0
    return (init.y, init.phi, init.theta, init.k, init.w, chi)


# --------------------------------------------------------------------------
# Dormand-Prince 5(4) with its continuous extension, over lanes
# --------------------------------------------------------------------------

# Stage rows of the tableau.  The system is autonomous, so the nodes are not
# needed; the last row holds the 5th-order weights (first same as last).
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_A_COLUMN = np.array([a for row in _A for a in row])[:, None, None]
# 5th-order minus embedded 4th-order weights over the seven stages
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_E_COLUMN = np.array(_E)[:, None, None]
# 4th-order continuous extension (Hairer, Norsett & Wanner, DOPRI5's CONTD5)
_D = (
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
)
_D_COLUMN = np.array(_D)[:, None, None]


def _slope(f, u, out) -> None:
    for i, v in enumerate(f(u)):
        out[i] = v


def _fold(coefs, ks):
    """sum(c * k for c, k in zip(coefs, ks)) for every lane, in that order.

    accumulate adds the terms one by one.  Python's sum starts from 0
    rather than from the first term, which differs only in turning a -0.0
    result into +0.0, as adding 0.0 does.
    """
    return np.add.accumulate(coefs * ks, axis=0)[-1] + 0.0


def _step(f, u, ks, h, atol, rtol):
    """One step of every lane: states u (6, M), step sizes h (M,).

    ks (7, 6, M) holds the slope at u in ks[0]; the step fills ks[1:] with
    the stage slopes.  Returns the new states and, per component and lane,
    the error over its tolerance.  Every lane sees the float operations of
    a scalar step in the same order.  (np.maximum keeps a NaN that Python's
    max would skip, but only where the new state is not finite, and such a
    step is rejected whatever its error.)
    """
    ha = _A_COLUMN * h
    first = 0
    for j in range(1, 7):
        u1 = u + _fold(ha[first:first + j], ks[:j])
        first += j
        _slope(f, u1, ks[j])
    scale = atol + rtol * np.maximum(np.abs(u), np.abs(u1))
    return u1, np.abs(h * _fold(_E_COLUMN, ks)) / scale


def _errors(ratio) -> list:
    """Per lane, the largest error ratio over the components as Python's
    max finds it, which skips a NaN that is not the first component."""
    errs = ratio.max(axis=0).tolist()
    for m, err in enumerate(errs):
        if err != err:
            errs[m] = max(ratio[:, m].tolist())
    return errs


def _extension(u, u1, ks, h):
    """Coefficients (5, 6, L) of the continuous extension of each lane's step.

    u, u1 (6, L) are the states at the step's ends, ks (7, 6, L) its stage
    slopes and h (L,) its size; ``_poly`` evaluates them.
    """
    diff = u1 - u
    bspl = h * ks[0] - diff
    return np.stack((u, diff, bspl, diff - h * ks[6] - bspl, h * _fold(_D_COLUMN, ks)))


def _poly(c, t):
    """The continuous extension at t in [0, 1] of the step, from its
    coefficients c: one component's floats, or arrays that t broadcasts over."""
    x, diff, bspl, c3, c4 = c
    t1 = 1.0 - t
    return x + t * (diff + t1 * (bspl + t * (c3 + t1 * c4)))


def _at(coefs, t: float) -> tuple:
    return tuple(_poly(c, t) for c in coefs)


def _sample_rows(u, u1, ks, h, requests, sample_h):
    """Stored rows (S, *state) of every requesting lane's accepted step, from
    one evaluation of the continuous extension over the batch.

    u, u1 (6, L) are the states at the steps' ends, ks (7, 6, L) their stage
    slopes and h (L,) their sizes.  Lane l requests count rows of its step
    from S = s, which are rows[ends[l] - count:ends[l]]:
    - theta-resolved, (s, count, t_end, end_row): at t = (t_end j) / count
      for 0 < j <= count and S = s + t h, the last replaced by end_row, the
      state where the graphical part of the step ends;
    - with ``sample_h``, (s, count, first_j): at S = (direction j) sample_h
      for first_j <= j < first_j + count and t = (S - s) / h, where the
      direction is the sign of h.
    Every number takes the float operations of a scalar evaluation in their
    order, elementwise over the rows.
    """
    columns = tuple(zip(*requests))
    s, counts = np.array(columns[0]), np.array(columns[1])
    ends = np.cumsum(counts)
    lane = np.repeat(np.arange(counts.size), counts)
    j = np.arange(ends[-1]) - (ends - counts)[lane]
    rows = np.empty((j.size, 7))
    if sample_h is None:
        t = (np.array(columns[2])[lane] * (j + 1)) / counts[lane]
        rows[:, 0] = s[lane] + t * h[lane]
    else:
        rows[:, 0] = (np.sign(h)[lane] * (j + np.array(columns[2])[lane])) * sample_h
        t = (rows[:, 0] - s[lane]) / h[lane]
    rows[:, 1:] = _poly(_extension(u, u1, ks, h)[:, :, lane], t).T
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


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


class _Lane:
    """Scalar control of one directional integration in a batch.

    Holds the lane's step size, stored rows, monitors and events, and applies
    each attempted step with Python floats, so a lane's result does not
    depend on the batch it runs in.
    """

    __slots__ = ("direction", "y_budget", "opts", "store", "theta_c", "y_final",
                 "s", "u", "h", "rows", "pending", "grid_j", "theta0",
                 "max_abs_k", "max_turning",
                 "run_sign", "run_s", "run_theta", "event", "event_s", "certificate")

    def __init__(self, u, direction, y_budget, opts, store, theta_c):
        self.direction, self.y_budget = direction, y_budget
        self.opts, self.store, self.theta_c = opts, store, theta_c
        self.y_final = u[0] + direction * y_budget
        self.s, self.u = 0.0, u
        self.h = direction * min(opts.initial_step, opts.max_step)
        # stored rows (S, *state): the initial state, then one array per
        # accepted step that stores any
        self.rows = [np.array([(0.0, *u)])]
        # the request of an accepted step whose rows the batch evaluates
        # (_sample_rows), or None
        self.pending = None
        self.grid_j = 1  # index of the next uniform sample
        self.theta0 = u[2]
        self.max_abs_k, self.max_turning = abs(u[3]), 0.0
        # the current run of constant curvature sign starts at (run_s, run_theta)
        self.run_sign, self.run_s, self.run_theta = _sign(u[3]), 0.0, u[2]
        # where graphicality was lost
        self.event = u if abs(u[2]) >= theta_c else None
        self.event_s = 0.0
        self.certificate = None

    def _breakdown(self, name, detail):
        y = self.u[0] if self.event is None else self.event[0]
        return BreakdownCertificate(name, y, self.direction, detail)

    def _graphicality_loss(self):
        return self._breakdown("graphicality_loss",
                               {"slope": math.tan(self.event[2]),
                                "ceiling": self.opts.slope_ceiling})

    def advance(self, u1, err, finite, ks, m) -> Optional[bool]:
        """Take or reject the step to u1 with stage slopes ks[:, :, m].

        Returns True if the step was accepted, False if it was rejected,
        and None once the lane has ended.  An accepted step with rows to
        store leaves their request in ``pending`` (see ``_sample_rows``).
        """
        u, h, direction, opts = self.u, self.h, self.direction, self.opts
        # the step factors take Python's float power: np.power differs from
        # it in the last bit on about 5 % of inputs
        if not finite or err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2) if finite else 0.5
            self.h = h
            if abs(h) < opts.min_step:
                if self.event is not None:
                    self.certificate = self._graphicality_loss()
                else:
                    failure = "step_underflow" if finite else "non_finite"
                    self.certificate = self._breakdown(failure, {"slope": math.tan(u[2])})
                return None
            return False

        s = self.s
        if self.event is None:
            # the graphical part ends at the first of graphicality loss and budget
            t_end, stop = 1.0, None
            theta_c, y_final = self.theta_c, self.y_final
            gap = direction * (u1[0] - y_final)
            if abs(u1[2]) >= theta_c or gap >= 0.0:
                # the step's continuous extension on this lane, per component
                coefs = _extension(np.array([u]).T, np.array([u1]).T, ks[:, :, m:m + 1],
                                   h)[:, :, 0].T.tolist()
                if abs(u1[2]) >= theta_c:
                    t_end = _root(lambda t: abs(_poly(coefs[2], t)) - theta_c, 1.0,
                                  abs(u1[2]) - theta_c)
                    stop = "graphicality"
                if gap >= 0.0:
                    t = _root(lambda t: direction * (_poly(coefs[0], t) - y_final), 1.0, gap)
                    if t <= t_end:
                        t_end, stop = t, "budget"
            u_end = u1 if t_end == 1.0 else _at(coefs, t_end)
            s_end = s + t_end * h
            if stop == "budget":
                u_end = (y_final, *u_end[1:])

            sample_h = opts.sample_h
            if self.store and sample_h is None:
                # equal sub-steps resolving the tangent angle to theta_sample
                n = math.ceil(abs(u_end[2] - u[2]) / opts.theta_sample)
                self.pending = (s, max(n, 1), t_end, (s_end, *u_end))
            elif self.store:
                # uniform grid in arc length, the variable the steps advance:
                # sample j lies at S = direction j sample_h
                first = j = self.grid_j
                while direction * s_end >= j * sample_h:
                    j += 1
                if j > first:
                    self.pending = (s, j - first, first)
                self.grid_j = j

            k = abs(u_end[3])
            if k > self.max_abs_k:
                self.max_abs_k = k
            turning = abs(u_end[2] - self.theta0)
            if turning > self.max_turning:
                self.max_turning = turning
            if stop == "budget":
                return None
            if stop == "graphicality":
                self.event, self.event_s = u_end, s_end

        # accept the whole step; past the vertical the curve is followed
        # until the turning on a run of constant curvature sign passes pi
        s = self.s = s + h
        self.u = u1
        k = u1[3]
        sign = 1 if k > 0.0 else -1 if k < 0.0 else 0
        if sign and sign != self.run_sign:
            if self.run_sign and self.event is not None:
                self.certificate = self._graphicality_loss()
                return None
            if self.run_sign:
                self.run_s, self.run_theta = s, u1[2]
            self.run_sign = sign
        if self.event is not None:
            turning = abs(u1[2] - self.run_theta)
            if turning > math.pi:
                self.certificate = self._breakdown(
                    "angle_excess",
                    {"interval": [min(self.run_s, s), max(self.run_s, s)], "value": turning},
                )
                return None
            if abs(s - self.event_s) > self.y_budget:
                self.certificate = self._graphicality_loss()
                return None
        grow = 0.9 * err**-0.2 if err > 0 else 5.0
        h *= grow if grow < 5.0 else 5.0
        if abs(h) > opts.max_step:
            h = direction * opts.max_step
        self.h = h
        return True

    def trajectory(self, kind: SolitonKind) -> Trajectory:
        rows = np.concatenate(self.rows)
        return Trajectory(
            kind=kind,
            direction=self.direction,
            y=rows[:, 1],
            phi=rows[:, 2],
            psi=np.tan(rows[:, 3]),
            k=rows[:, 4],
            w=rows[:, 5],
            S=rows[:, 0],
            outcome="completed" if self.certificate is None else "breakdown",
            certificate=self.certificate,
            options=self.opts,
            max_abs_k=self.max_abs_k,
            max_turning=self.max_turning,
        )


def _integrate_lanes(kind, lanes, y_budget, opts, store) -> list:
    """Advance every (init, direction) lane as one batch; one Trajectory per lane.

    The tableau runs over numpy arrays of the active lanes' states, which
    stay in place across steps; each lane's control is scalar.  Lanes that
    end leave the batch.
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
    f = vector_field(kind)
    atol, rtol = opts.abs_tol, opts.rel_tol
    theta_c = _critical_angle(opts.slope_ceiling)
    runs = [_Lane(_initial_state(kind, init), direction, y_budget, opts, store, theta_c)
            for init, direction in lanes]
    active = runs
    u = np.array([r.u for r in runs]).T.copy()
    ks = np.empty((7, 6, len(runs)))
    # a non-finite stage only rejects its lane's step, silently
    with np.errstate(all="ignore"):
        _slope(f, u, ks[0])
        while active:
            h = np.array([r.h for r in active])
            u1, ratio = _step(f, u, ks, h, atol, rtol)
            errs = _errors(ratio)
            finite = np.isfinite(u1).all(axis=0).tolist()
            keep, accepted, sampled = [], [], []
            for m, (run, lane_u1, err) in enumerate(zip(active, u1.T.tolist(), errs)):
                status = run.advance(lane_u1, err, finite[m] and math.isfinite(err), ks, m)
                if run.pending is not None:
                    sampled.append(m)
                if status is not None:
                    keep.append(m)
                    accepted.append(status)
            if sampled:
                runs_s = [active[m] for m in sampled]
                rows, ends = _sample_rows(u[:, sampled], u1[:, sampled], ks[:, :, sampled],
                                          h[sampled], [r.pending for r in runs_s], opts.sample_h)
                start = 0
                for run, end in zip(runs_s, ends.tolist()):
                    run.rows.append(rows[start:end])
                    run.pending = None
                    start = end
            if len(keep) < len(active):
                active = [active[m] for m in keep]
                u, u1, ks = u[:, keep], u1[:, keep], ks[:, :, keep]
            if all(accepted):
                u = u1
                ks[0] = ks[6]
            elif any(accepted):
                u[:, accepted] = u1[:, accepted]
                ks[0][:, accepted] = ks[6][:, accepted]
    return [r.trajectory(kind) for r in runs]


def integrate(
    kind: SolitonKind,
    init: ProfileState,
    direction: int = 1,
    y_budget: float = 200.0,
    opts: Optional[IntegratorOptions] = None,
    store: bool = True,
) -> Trajectory:
    """Advance one profile from ``init`` until breakdown or budget.

    direction is +1 or -1; y_budget is the maximum |y - y0| travelled,
    and also the most arc length followed past the loss of graphicality.
    With ``store=False`` only monitors and the outcome are kept, which
    is what classification sweeps need.  This is a batch of one lane.
    """
    if opts is None:
        opts = IntegratorOptions()
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
    direction: int
    max_abs_k: float
    total_turning: float
    options: IntegratorOptions
    seed: Optional[int] = None
    forward: Optional[Trajectory] = None
    backward: Optional[Trajectory] = None

    def to_dict(self) -> dict:
        return {
            "kind": {"name": self.kind.name, "a": self.kind.a, "b": self.kind.b},
            "init": asdict(self.init),
            "seed": self.seed,
            "outcome": self.outcome,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "direction": self.direction,
            "max_abs_k": self.max_abs_k,
            "total_turning": self.total_turning,
            "options": asdict(self.options),
        }


def _classify(kind, init, fwd, bwd, opts, store, seed) -> ClassificationReport:
    """Trivial requires both directions to complete the budget with
    negligible curvature and turning; a certificate from either
    direction yields Breakdown; anything else is Inconclusive.
    """
    max_abs_k = max(fwd.max_abs_k, bwd.max_abs_k)
    total_turning = max(fwd.max_turning, bwd.max_turning)
    certificate = None
    direction = 0
    if fwd.certificate is not None and bwd.certificate is not None:
        # report the certificate closer to the initial point
        if abs(fwd.certificate.y_event - init.y) <= abs(bwd.certificate.y_event - init.y):
            certificate, direction = fwd.certificate, 1
        else:
            certificate, direction = bwd.certificate, -1
    elif fwd.certificate is not None:
        certificate, direction = fwd.certificate, 1
    elif bwd.certificate is not None:
        certificate, direction = bwd.certificate, -1

    if certificate is not None:
        outcome = "breakdown"
    elif (
        fwd.outcome == "completed"
        and bwd.outcome == "completed"
        and max_abs_k <= opts.triviality_tol
        and total_turning <= opts.triviality_tol
    ):
        outcome = "trivial"
    else:
        outcome = "inconclusive"
    return ClassificationReport(
        kind=kind,
        init=init,
        outcome=outcome,
        certificate=certificate,
        direction=direction,
        max_abs_k=max_abs_k,
        total_turning=total_turning,
        options=opts,
        seed=seed,
        forward=fwd if store else None,
        backward=bwd if store else None,
    )


def shoot_batch(
    kind: SolitonKind,
    inits: list,
    y_budget: float = 200.0,
    opts: Optional[IntegratorOptions] = None,
    store: bool = True,
    seed: Optional[int] = None,
) -> list:
    """Classify every initial state in ``inits`` by shooting both ways.

    Both directions of every state run as lanes of one batch; the reports
    are those of one ``shoot_bidirectional`` call per state.
    """
    if opts is None:
        opts = IntegratorOptions()
    lanes = [(init, direction) for init in inits for direction in (1, -1)]
    trajs = _integrate_lanes(kind, lanes, y_budget, opts, store)
    return [_classify(kind, init, fwd, bwd, opts, store, seed)
            for init, fwd, bwd in zip(inits, trajs[::2], trajs[1::2])]


def shoot_bidirectional(
    kind: SolitonKind,
    init: ProfileState,
    y_budget: float = 200.0,
    opts: Optional[IntegratorOptions] = None,
    store: bool = True,
    seed: Optional[int] = None,
) -> ClassificationReport:
    """Integrate in both directions and classify the initial state: a
    batch of one state (see ``_classify``)."""
    return shoot_batch(kind, [init], y_budget, opts, store, seed)[0]


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


def _sweep_block(kind, seed, start, stop, y_budget, opts) -> list:
    inits = seeded_initial_states(seed, start, stop)
    return shoot_batch(kind, inits, y_budget, opts, store=False, seed=seed)


def _sweep_child(job, fd) -> None:
    """Shoot one block in a forked child; write its pickled reports, or its
    exception, to the pipe ``fd``, which closes when the child exits."""
    import pickle

    try:
        result = (True, _sweep_block(*job))
    except Exception as exc:
        result = (False, exc)
    data = pickle.dumps(result)
    with open(fd, "wb", closefd=False) as pipe:
        pipe.write(data)


def run_sweep(
    kind: SolitonKind,
    count: int,
    seed: int,
    y_budget: float = 200.0,
    opts: Optional[IntegratorOptions] = None,
    workers: int = 1,
) -> list:
    """Classify ``count`` seeded random initial states.

    Run i uses the PRNG stream (seed, i), and a lane's result does not
    depend on its batch, so results do not depend on worker count or
    scheduling.  The states are split into one contiguous block per
    worker, at most one per CPU, each shot as one batch: the caller shoots
    the first while one forked child per other block shoots its own.
    """
    if opts is None:
        opts = IntegratorOptions()
    blocks = max(1, min(workers, count, os.cpu_count() or 1))
    bounds = [count * i // blocks for i in range(blocks + 1)]
    jobs = [(kind, seed, lo, hi, y_budget, opts) for lo, hi in zip(bounds, bounds[1:])]
    if len(jobs) == 1:
        return _sweep_block(*jobs[0])
    # imported here, so that commands with one block never load multiprocessing;
    # fork, explicitly, shares the loaded modules with the children
    import multiprocessing
    import pickle

    fork = multiprocessing.get_context("fork")
    children = []
    try:
        for job in jobs[1:]:
            read, write = os.pipe()
            pipe = open(read, "rb")
            child = fork.Process(target=_sweep_child, args=(job, write))
            try:
                child.start()
            finally:
                os.close(write)
            children.append((child, pipe))
        reports = _sweep_block(*jobs[0])
        for i, (child, pipe) in enumerate(children, 1):
            data = pipe.read()
            child.join()
            if not data:
                lo, hi = bounds[i], bounds[i + 1]
                raise RuntimeError(f"sweep block {i} (states {lo} to {hi - 1}) exited with "
                                   f"code {child.exitcode} without sending its reports")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            reports += result
        return reports
    finally:
        for child, pipe in children:
            pipe.close()
            if child.is_alive():
                child.terminate()
            child.join()
