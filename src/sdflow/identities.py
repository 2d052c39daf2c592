"""Auxiliary convexity functionals along profile trajectories.

Along a self-similar profile the functional

    Q(y) = k^2 + c1 + c2 S + (y^2 + phi^2)/4 - S^2/4

and along a travelling-wave profile the functional

    M(y) = k^2 + 2 (a y + b phi)

both satisfy the same weighted convexity identity

    (1/v) d/dy ( (1/v) dQ/dy ) = 2 w^2 >= 0,     w = (1/v) dk/dy,

for any choice of the constants.  The checks here evaluate the left
side by nested centered differences over a trajectory's dense samples
and report the worst deviation from 2 w^2, independently of the
integration route that produced the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geometry import speed
from .soliton import ProfileState, Trajectory

__all__ = [
    "QParams",
    "IdentityReport",
    "q_value",
    "q_paper_constants",
    "m_value",
    "convexity_residual_q",
    "convexity_residual_m",
    "tangential_identity_residual",
    "cauchy_schwarz_check",
    "cauchy_schwarz_holds",
    "q_upper_bound_residual",
    "steady_first_integral_residuals",
]


@dataclass(frozen=True)
class QParams:
    c1: float
    c2: float

    def __post_init__(self):
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError("Q parameters must be finite")


@dataclass
class IdentityReport:
    identity: str
    max_residual: float
    y_at_max: Optional[float]
    samples_used: int
    threshold: Optional[float] = None
    extra: Optional[dict] = None

    def __post_init__(self):
        if self.max_residual < 0:
            raise ValueError("residual must be nonnegative")

    @property
    def passed(self) -> Optional[bool]:
        if self.threshold is None:
            return None
        return self.max_residual <= self.threshold

    def to_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "max_residual": self.max_residual,
            "y_at_max": self.y_at_max,
            "samples": self.samples_used,
            "threshold": self.threshold,
            "pass": self.passed,
        }
        if self.extra:
            out.update(self.extra)
        return out


def q_value(s, p: QParams):
    """Q functional at one ``ProfileState``, or along a ``Trajectory``.

    Anything with ``y, phi, k, S`` will do; arrays give Q at every sample.
    """
    return (
        s.k * s.k
        + p.c1
        + p.c2 * s.S
        + 0.25 * (s.y * s.y + s.phi * s.phi)
        - 0.25 * s.S * s.S
    )


def q_paper_constants(phi0: float) -> QParams:
    """Constants tied to the initial height: (-phi0^2/4, -|phi0|/2).

    With these, Q is dominated by k^2 in the integration direction of
    increasing arc length (see ``q_upper_bound_residual``).
    """
    return QParams(-0.25 * phi0 * phi0, -0.5 * abs(phi0))


def m_value(s, a: float, b: float):
    """M functional for wave direction (a, b), at one state or along a trajectory."""
    return s.k * s.k + 2.0 * (a * s.y + b * s.phi)


def _uniform_h(y: np.ndarray) -> float:
    """Signed uniform sample spacing; negative for backward trajectories."""
    d = np.diff(y)
    h = d[0]
    if h == 0 or not np.allclose(d, h, rtol=1e-6, atol=0.0):
        raise ValueError("identity checks need uniform dense sampling (sample_h)")
    return float(h)


def _centered(F: np.ndarray, h: float) -> np.ndarray:
    """Centered first difference at the interior samples."""
    return (F[2:] - F[:-2]) / (2.0 * h)


def _convexity_report(identity: str, traj: Trajectory, F: np.ndarray) -> IdentityReport:
    """Worst |(1/v)((1/v)F')' - 2 w^2| by nested centered differences.

    The doubly-interior stencil reaches samples 2 .. n-3.
    """
    h = _uniform_h(traj.y)
    v = speed(traj.psi)
    lhs = _centered(_centered(F, h) / v[1:-1], h) / v[2:-2]
    res = np.abs(lhs - 2.0 * traj.w[2:-2] ** 2)
    i = int(np.argmax(res))
    return IdentityReport(
        identity=identity,
        max_residual=float(res[i]),
        y_at_max=float(traj.y[2:-2][i]),
        samples_used=traj.n,
        extra={"min_weighted_second": float(np.min(lhs))},
    )


def convexity_residual_q(traj: Trajectory, params: Optional[QParams] = None) -> IdentityReport:
    """Worst-case |(1/v)((1/v)Q')' - 2 w^2| over a self-similar trajectory.

    The identity holds for any constants, so with ``params=None`` the
    check runs at (0, 0) and at the initial-height constants and takes
    the worse of the two; their near-equality doubles as a regression
    check on the arc-length integration.
    """
    if traj.kind.name != "selfsimilar":
        raise ValueError("Q convexity applies to self-similar trajectories")
    if traj.n < 7:
        raise ValueError("need at least 7 samples")
    param_sets = (
        [params]
        if params is not None
        else [QParams(0.0, 0.0), q_paper_constants(float(traj.phi[np.argmin(np.abs(traj.y))]))]
    )
    reports = (_convexity_report("q_convexity", traj, q_value(traj, p)) for p in param_sets)
    return max(reports, key=lambda rep: rep.max_residual)


def convexity_residual_m(
    traj: Trajectory, a: Optional[float] = None, b: Optional[float] = None
) -> IdentityReport:
    """Worst-case |(1/v)((1/v)M')' - 2 w^2| over a travelling-wave trajectory."""
    if traj.kind.name != "travelling":
        raise ValueError("M convexity applies to travelling-wave trajectories")
    if traj.n < 7:
        raise ValueError("need at least 7 samples")
    if a is None:
        a = traj.kind.a
    if b is None:
        b = traj.kind.b
    return _convexity_report("m_convexity", traj, m_value(traj, a, b))


def tangential_identity_residual(traj: Trajectory, a: float, b: float) -> IdentityReport:
    """Check d/dy((a + b psi)/v) = k (b - a psi) along any trajectory."""
    if traj.n < 3:
        raise ValueError("need at least 3 samples")
    psi = traj.psi
    lhs = _centered((a + b * psi) / speed(psi), _uniform_h(traj.y))
    rhs = traj.k[1:-1] * (b - a * psi[1:-1])
    res = np.abs(lhs - rhs)
    i = int(np.argmax(res))
    return IdentityReport(
        identity="tangential",
        max_residual=float(res[i]),
        y_at_max=float(traj.y[1:-1][i]),
        samples_used=traj.n,
    )


def cauchy_schwarz_holds(phi, psi, y):
    """|phi psi + y| <= v sqrt(phi^2 + y^2), with a 1e-12 slack; elementwise."""
    return np.abs(phi * psi + y) <= speed(psi) * np.sqrt(phi * phi + y * y) + 1e-12


def cauchy_schwarz_check(s: ProfileState) -> bool:
    """``cauchy_schwarz_holds`` at one state; undefined at phi = y = 0."""
    if s.phi * s.phi + s.y * s.y <= 0.0:
        raise ValueError("undefined at phi = y = 0")
    return bool(cauchy_schwarz_holds(s.phi, s.psi, s.y))


def q_upper_bound_residual(traj: Trajectory) -> float:
    """Largest value of Q - k^2 with the initial-height constants.

    The bound Q <= k^2 is proved for increasing arc length from y = 0;
    a backward trajectory maps onto a forward one of the reflected
    profile (also self-similar) with S replaced by |S|, so the check
    evaluates Q at k = 0 and |S|.  Nonpositive output certifies the bound.
    """
    if traj.kind.name != "selfsimilar":
        raise ValueError("the Q bound applies to self-similar trajectories")
    phi0 = float(traj.phi[np.argmin(np.abs(traj.y))])
    reflected = replace(traj, k=np.zeros_like(traj.k), S=np.abs(traj.S))
    return float(np.max(q_value(reflected, q_paper_constants(phi0))))


def steady_first_integral_residuals(traj: Trajectory):
    """Deviation from the two first integrals of the equilibrium ODE.

    Returns (max |w - w0|, max |k - w0 S - k0|).
    """
    if traj.kind.name != "steady":
        raise ValueError("first integrals apply to steady trajectories")
    w0, k0 = traj.w[0], traj.k[0]
    res_w = float(np.max(np.abs(traj.w - w0)))
    res_k = float(np.max(np.abs(traj.k - w0 * traj.S - k0)))
    return res_w, res_k
