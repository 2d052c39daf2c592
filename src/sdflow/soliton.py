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

Integration is by an adaptive Dormand-Prince 5(4) pair.  Its native
dense output and one root-finder locate every event: the y budget,
uniform output points in y, and the loss of graphicality, where |psi|
reaches the slope ceiling.  Trajectories are reported in y up to that
point.  The curve is then followed past the vertical, unrecorded, until
the curvature changes sign or the turning on the current arc of constant
curvature sign is observed above pi.  A run thus ends with the budget
exhausted or with a breakdown certificate: an excess-turning witness
(the observed turning and its arc), graphicality loss (the slope at the
event), or a numerical failure (non-finite state, step underflow).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np
import numpy.random  # numpy loads it lazily; sweeps and shoots all draw from it

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
    "redundant_derivative_check",
    "sample_initial_state",
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
    # Uniform output spacing; overrides theta-resolved sampling so that
    # finite-difference identity checks see an exactly uniform grid.
    sample_h: Optional[float] = None

    def validate(self) -> None:
        for name in ("abs_tol", "rel_tol", "min_step", "max_step", "initial_step",
                     "slope_ceiling", "theta_sample", "triviality_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"option {name} must be positive")
        if self.sample_h is not None and self.sample_h <= 0:
            raise ValueError("option sample_h must be positive")


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
        buf = io.StringIO()
        buf.write(f"# kind={self.kind.name}\n")
        buf.write(f"# a={self.kind.a!r}\n")
        buf.write(f"# b={self.kind.b!r}\n")
        buf.write(f"# direction={self.direction}\n")
        buf.write(f"# outcome={self.outcome}\n")
        buf.write("y,phi,psi,theta,k,w,S\n")
        theta = self.theta
        for i in range(self.n):
            row = (self.y[i], self.phi[i], self.psi[i], theta[i], self.k[i], self.w[i], self.S[i])
            buf.write(",".join(repr(float(x)) for x in row) + "\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "Trajectory":
        meta = {}
        rows = []
        header_seen = False
        for ln in text.strip().splitlines():
            if not ln:
                continue
            if ln.startswith("#"):
                key, _, val = ln[1:].strip().partition("=")
                meta[key.strip()] = val.strip()
                continue
            if not header_seen:
                if ln.strip() != "y,phi,psi,theta,k,w,S":
                    raise ValueError("bad trajectory header")
                header_seen = True
                continue
            parts = ln.split(",")
            if len(parts) != 7:
                raise ValueError("truncated trajectory row")
            rows.append([float(p) for p in parts])
        if not header_seen or not rows:
            raise ValueError("empty trajectory file")
        try:
            kind = SolitonKind(meta["kind"], float(meta.get("a", 0.0)), float(meta.get("b", 0.0)))
            direction = int(meta.get("direction", 1))
            outcome = meta.get("outcome", "completed")
        except KeyError as exc:
            raise ValueError(f"missing trajectory metadata {exc}") from exc
        arr = np.asarray(rows)
        return Trajectory(
            kind=kind,
            direction=direction,
            y=arr[:, 0],
            phi=arr[:, 1],
            psi=arr[:, 2],
            k=arr[:, 4],
            w=arr[:, 5],
            S=arr[:, 6],
            outcome=outcome,
            certificate=None,
            options=IntegratorOptions(),
            max_abs_k=float(np.max(np.abs(arr[:, 4]))),
            max_turning=float(np.max(np.abs(arr[:, 3] - arr[0, 3]))),
        )


# --------------------------------------------------------------------------
# vector field
# --------------------------------------------------------------------------

def vector_field(kind: SolitonKind) -> Callable:
    """Arc-length right-hand side of the profile system of ``kind``.

    Returns f(u) -> du/ds for the state u = (y, phi, theta, k, w, chi).
    """
    if kind.name == "steady":

        def f(u):
            theta = u[2]
            return math.cos(theta), math.sin(theta), u[3], u[4], 0.0, 0.0

    elif kind.name == "selfsimilar":

        def f(u):
            y, phi, theta, k, w, chi = u
            c, s = math.cos(theta), math.sin(theta)
            return c, s, k, w, -0.25 * chi, -k * (y * c + phi * s)

    else:
        a, b = kind.a, kind.b

        def f(u):
            _, _, theta, k, w, chi = u
            c, s = math.cos(theta), math.sin(theta)
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
# Dormand-Prince 5(4) with its continuous extension
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
# 5th-order minus embedded 4th-order weights over the seven stages
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# 4th-order continuous extension (Hairer, Norsett & Wanner, DOPRI5's CONTD5)
_D = (
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
)


def _step(f, u, f0, h, atol, rtol):
    """One step of size h from u with slope f0: (u1, the 7 stage slopes, error norm)."""
    ks = [f0]
    for row in _A:
        hrow = [h * a for a in row]
        u1 = tuple(x + sum(c * k[i] for c, k in zip(hrow, ks)) for i, x in enumerate(u))
        ks.append(f(u1))
    err = max(
        abs(h * sum(e * k[i] for e, k in zip(_E, ks))) / (atol + rtol * max(abs(x), abs(x1)))
        for i, (x, x1) in enumerate(zip(u, u1))
    )
    return u1, ks, err


def _dense(u, u1, ks, h) -> list:
    """Per-component coefficients of the continuous extension over one step."""
    coefs = []
    for i, (x, x1) in enumerate(zip(u, u1)):
        diff = x1 - x
        bspl = h * ks[0][i] - diff
        coefs.append((x, diff, bspl, diff - h * ks[6][i] - bspl,
                      h * sum(d * k[i] for d, k in zip(_D, ks))))
    return coefs


def _poly(c, t: float) -> float:
    """One component of the continuous extension at t in [0, 1] of the step."""
    x, diff, bspl, c3, c4 = c
    t1 = 1.0 - t
    return x + t * (diff + t1 * (bspl + t * (c3 + t1 * c4)))


def _at(coefs, t: float) -> tuple:
    return tuple(_poly(c, t) for c in coefs)


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
    is what classification sweeps need.
    """
    if opts is None:
        opts = IntegratorOptions()
    opts.validate()
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if y_budget <= 0:
        raise ValueError("y_budget must be positive")
    if not init.is_finite():
        raise ValueError("initial state must be finite")

    f = vector_field(kind)
    atol, rtol, sample_h = opts.abs_tol, opts.rel_tol, opts.sample_h
    theta_c = _critical_angle(opts.slope_ceiling)
    y_final = init.y + direction * y_budget
    u = _initial_state(kind, init)
    du = f(u)
    s = 0.0
    samples = [(s, *u)]
    grid_i = 0  # index of the last uniform sample
    theta0 = u[2]
    max_abs_k, max_turning = abs(u[3]), 0.0
    # the current run of constant curvature sign starts at (run_s, run_theta)
    run_sign, run_s, run_theta = _sign(u[3]), s, theta0
    event = u if abs(theta0) >= theta_c else None  # where graphicality was lost
    event_s = s
    certificate = None
    h = direction * min(opts.initial_step, opts.max_step)

    def breakdown(name, detail):
        y = u[0] if event is None else event[0]
        return BreakdownCertificate(name, y, direction, detail)

    def graphicality_loss():
        return breakdown("graphicality_loss",
                         {"slope": math.tan(event[2]), "ceiling": opts.slope_ceiling})

    while True:
        try:
            u1, ks, err = _step(f, u, du, h, atol, rtol)
            finite = math.isfinite(err) and all(map(math.isfinite, u1))
        except ValueError:  # cos or sin of an infinite stage angle
            finite = False
        if not finite or err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2) if finite else 0.5
            if abs(h) < opts.min_step:
                if event is not None:
                    certificate = graphicality_loss()
                else:
                    failure = "step_underflow" if finite else "non_finite"
                    certificate = breakdown(failure, {"slope": math.tan(u[2])})
                break
            continue

        if event is None:
            # the graphical part ends at the first of graphicality loss and budget
            coefs = None
            t_end, stop = 1.0, None
            if abs(u1[2]) >= theta_c:
                coefs = _dense(u, u1, ks, h)
                t_end = _root(lambda t: abs(_poly(coefs[2], t)) - theta_c, 1.0,
                              abs(u1[2]) - theta_c)
                stop = "graphicality"
            gap = direction * (u1[0] - y_final)
            if gap >= 0.0:
                coefs = coefs or _dense(u, u1, ks, h)
                t = _root(lambda t: direction * (_poly(coefs[0], t) - y_final), 1.0, gap)
                if t <= t_end:
                    t_end, stop = t, "budget"
            u_end = u1 if t_end == 1.0 else _at(coefs, t_end)
            s_end = s + t_end * h
            if stop == "budget":
                u_end = (y_final, *u_end[1:])

            if store and sample_h is None:
                # equal sub-steps resolving the tangent angle to theta_sample
                n = math.ceil(abs(u_end[2] - u[2]) / opts.theta_sample)
                for j in range(1, n):
                    coefs = coefs or _dense(u, u1, ks, h)
                    t = t_end * j / n
                    samples.append((s + t * h, *_at(coefs, t)))
                samples.append((s_end, *u_end))
            elif store:
                # uniform grid in y, which is monotone on the graphical part
                while True:
                    target = init.y + direction * (grid_i + 1) * sample_h
                    gap = direction * (u_end[0] - target)
                    if gap < 0.0:
                        break
                    coefs = coefs or _dense(u, u1, ks, h)
                    t = _root(lambda t: direction * (_poly(coefs[0], t) - target), t_end, gap)
                    x = u_end if t == t_end else _at(coefs, t)
                    samples.append((s + t * h, target, *x[1:]))
                    grid_i += 1

            max_abs_k = max(max_abs_k, abs(u_end[3]))
            max_turning = max(max_turning, abs(u_end[2] - theta0))
            if stop == "budget":
                break
            if stop == "graphicality":
                event, event_s = u_end, s_end

        # accept the whole step; past the vertical the curve is followed
        # until the turning on a run of constant curvature sign passes pi
        s, u, du = s + h, u1, ks[6]
        sign = _sign(u[3])
        if sign and sign != run_sign:
            if run_sign and event is not None:
                certificate = graphicality_loss()
                break
            if run_sign:
                run_s, run_theta = s, u[2]
            run_sign = sign
        if event is not None:
            turning = abs(u[2] - run_theta)
            if turning > math.pi:
                certificate = breakdown(
                    "angle_excess",
                    {"interval": [min(run_s, s), max(run_s, s)], "value": turning},
                )
                break
            if abs(s - event_s) > y_budget:
                certificate = graphicality_loss()
                break
        h *= min(5.0, 0.9 * err**-0.2) if err > 0 else 5.0
        if abs(h) > opts.max_step:
            h = direction * opts.max_step

    rows = np.asarray(samples)
    return Trajectory(
        kind=kind,
        direction=direction,
        y=rows[:, 1],
        phi=rows[:, 2],
        psi=np.tan(rows[:, 3]),
        k=rows[:, 4],
        w=rows[:, 5],
        S=rows[:, 0],
        outcome="completed" if certificate is None else "breakdown",
        certificate=certificate,
        options=opts,
        max_abs_k=max_abs_k,
        max_turning=max_turning,
    )


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def shoot_bidirectional(
    kind: SolitonKind,
    init: ProfileState,
    y_budget: float = 200.0,
    opts: Optional[IntegratorOptions] = None,
    store: bool = True,
    seed: Optional[int] = None,
) -> ClassificationReport:
    """Integrate in both directions and classify the initial state.

    Trivial requires both directions to complete the budget with
    negligible curvature and turning; a certificate from either
    direction yields Breakdown; anything else is Inconclusive.
    """
    if opts is None:
        opts = IntegratorOptions()
    fwd = integrate(kind, init, 1, y_budget, opts, store=store)
    bwd = integrate(kind, init, -1, y_budget, opts, store=store)
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


def redundant_derivative_check(traj: Trajectory) -> float:
    """Cross-check the reduction: FD(psi) vs k v^3 and FD(k) vs w v.

    Centered three-point differences on the (possibly nonuniform) sample
    grid; returns the larger of the two maximal residuals.  Both are
    O(h^2) in the local sample spacing for a consistent trajectory.
    """
    if traj.n < 5:
        raise ValueError("need at least 5 samples")
    y, psi, k, w = traj.y, traj.psi, traj.k, traj.w
    hm = y[1:-1] - y[:-2]
    hp = y[2:] - y[1:-1]
    denom = hm * hp * (hm + hp)
    if np.any(denom == 0.0):
        raise ValueError("degenerate sample spacing")

    def d(fv):
        return (
            -(hp**2) * fv[:-2] + (hp**2 - hm**2) * fv[1:-1] + hm**2 * fv[2:]
        ) / denom

    v = np.sqrt(1.0 + psi[1:-1] ** 2)
    res_psi = np.max(np.abs(d(psi) - k[1:-1] * v**3))
    res_k = np.max(np.abs(d(k) - w[1:-1] * v))
    return float(max(res_psi, res_k))


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


def _sweep_one(args) -> ClassificationReport:
    kind_name, a, b, seed, index, y_budget, opts_dict = args
    kind = SolitonKind(kind_name, a, b)
    opts = IntegratorOptions(**opts_dict)
    rng = np.random.default_rng([seed, index])
    init = sample_initial_state(rng)
    return shoot_bidirectional(kind, init, y_budget, opts, store=False, seed=seed)


def run_sweep(
    kind: SolitonKind,
    count: int,
    seed: int,
    y_budget: float = 200.0,
    opts: Optional[IntegratorOptions] = None,
    workers: int = 1,
) -> list:
    """Classify ``count`` seeded random initial states.

    Run i uses the PRNG stream (seed, i), so results do not depend on
    worker count or scheduling.
    """
    if opts is None:
        opts = IntegratorOptions()
    jobs = [
        (kind.name, kind.a, kind.b, seed, i, y_budget, asdict(opts))
        for i in range(count)
    ]
    if workers <= 1:
        return [_sweep_one(j) for j in jobs]
    # about eight chunks per worker: fewer round trips than one state per
    # task, and finer than one block per worker, whose cost per state varies
    # enough to leave one worker idle while the other finishes its block
    chunk = max(1, count // (8 * workers))
    # imported here, so that commands without a pool never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_one, jobs, chunksize=chunk))
