"""Auxiliary convexity functionals along profile trajectories.

Along a self-similar profile the functional

    Q = k^2 + c1 + c2 S + (y^2 + phi^2)/4 - S^2/4

and along a travelling-wave profile the functional

    M = k^2 + 2 (a y + b phi)

both satisfy the same convexity identity in arc length S,

    d^2 Q / dS^2 = 2 w^2 >= 0,     w = dk/dS,

for any choice of c1 and c2, which drop out, and for M with the wave's
own direction (a, b) (in y it reads (1/v) d/dy((1/v) dQ/dy),
v = sqrt(1 + psi^2)).  Every derivative here is one three-point
difference in S (``_d_ds``), which follows a profile up to a vertical
tangent.  The checks evaluate the left side over a trajectory's dense
samples and report the worst deviation from the right, independently of
the integration route that produced the samples.  ``reduction_residual``
checks the reduction of the profile equation itself, psi_y = k v^3 and
k_y = w v, as theta_s = k and k_s = w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .soliton import Trajectory

__all__ = [
    "QParams",
    "IdentityReport",
    "q_value",
    "q_paper_constants",
    "m_value",
    "convexity_residual_q",
    "convexity_residual_m",
    "tangential_identity_residual",
    "reduction_residual",
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
    """One check's worst residual, where it occurred and its verdict; the
    caller names the trajectory (``verify``: file and sample count)."""

    identity: str
    max_residual: float
    y_at_max: Optional[float]
    threshold: Optional[float] = None
    extra: Optional[dict] = None

    def __post_init__(self):
        if not (math.isfinite(self.max_residual) and self.max_residual >= 0):
            raise ValueError(f"{self.identity} residual {self.max_residual} is not finite and nonnegative")

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


def _d_ds(f: np.ndarray, S: np.ndarray) -> np.ndarray:
    """First derivative in arc length at the interior samples, by the
    three-point difference on the samples of S, even or not."""
    h = np.diff(S)
    hm, hp = h[:-1], h[1:]
    denom = hm * hp * (hm + hp)
    if np.any(denom == 0.0):
        raise ValueError("degenerate sample spacing")
    return (-(hp**2) * f[:-2] + (hp**2 - hm**2) * f[1:-1] + hm**2 * f[2:]) / denom


def _check_uniform(S: np.ndarray) -> None:
    """Reject a grid that is not uniform in S, such as theta-resolved output."""
    d = np.diff(S)
    if d[0] == 0 or not np.allclose(d, d[0], rtol=1e-6, atol=0.0):
        raise ValueError("identity checks need uniform dense sampling (sample_h)")


def _convexity_report(identity: str, traj: Trajectory, terms) -> IdentityReport:
    """Worst |F_SS - 2 w^2| for F the sum of ``terms``, each differenced on
    its own, which rounds less than differencing their sum.

    The doubly-interior stencil reaches samples 2 .. n-3.
    """
    S = traj.S
    _check_uniform(S)
    lhs = sum(_d_ds(_d_ds(f, S), S[1:-1]) for f in terms)
    res = np.abs(lhs - 2.0 * traj.w[2:-2] ** 2)
    i = int(np.argmax(res))
    return IdentityReport(
        identity=identity,
        max_residual=float(res[i]),
        y_at_max=float(traj.y[2:-2][i]),
        extra={"min_weighted_second": float(np.min(lhs))},
    )


def convexity_residual_q(traj: Trajectory) -> IdentityReport:
    """Worst-case |Q_SS - 2 w^2| over a self-similar trajectory.

    The identity holds for any constants: c1 and c2 S, linear in the grid
    variable, drop out of Q_SS, so Q is differenced without them.
    """
    if traj.kind.name != "selfsimilar":
        raise ValueError("Q convexity applies to self-similar trajectories")
    if traj.n < 7:
        raise ValueError("need at least 7 samples")
    y, phi, k, S = traj.y, traj.phi, traj.k, traj.S
    terms = (k * k, 0.25 * (y * y), 0.25 * (phi * phi), -0.25 * (S * S))
    return _convexity_report("q_convexity", traj, terms)


def convexity_residual_m(traj: Trajectory) -> IdentityReport:
    """Worst-case |M_SS - 2 w^2| over a travelling-wave trajectory, for
    the direction (a, b) of its kind."""
    if traj.kind.name != "travelling":
        raise ValueError("M convexity applies to travelling-wave trajectories")
    if traj.n < 7:
        raise ValueError("need at least 7 samples")
    a, b = traj.kind.a, traj.kind.b
    terms = (traj.k * traj.k, 2.0 * a * traj.y, 2.0 * b * traj.phi)
    return _convexity_report("m_convexity", traj, terms)


def tangential_identity_residual(traj: Trajectory, a: float, b: float) -> IdentityReport:
    """Check d/dS(a cos theta + b sin theta) = k (b cos theta - a sin theta)
    along any trajectory."""
    if traj.n < 3:
        raise ValueError("need at least 3 samples")
    _check_uniform(traj.S)
    c, s = np.cos(traj.theta), np.sin(traj.theta)
    lhs = _d_ds(a * c + b * s, traj.S)
    rhs = traj.k[1:-1] * (b * c[1:-1] - a * s[1:-1])
    res = np.abs(lhs - rhs)
    i = int(np.argmax(res))
    return IdentityReport(
        identity="tangential",
        max_residual=float(res[i]),
        y_at_max=float(traj.y[1:-1][i]),
    )


def reduction_residual(traj: Trajectory) -> IdentityReport:
    """Check the reduction in arc length, theta_s = k and k_s = w (psi_y =
    k v^3 and k_y = w v divided by v^3 and v), on the samples of S, even
    or not; the residual is the larger of the two."""
    if traj.n < 5:
        raise ValueError("need at least 5 samples")
    theta_s, k_s = _d_ds(traj.theta, traj.S), _d_ds(traj.k, traj.S)
    res = np.maximum(np.abs(theta_s - traj.k[1:-1]), np.abs(k_s - traj.w[1:-1]))
    i = int(np.argmax(res))
    return IdentityReport(
        identity="reduction",
        max_residual=float(res[i]),
        y_at_max=float(traj.y[1:-1][i]),
    )


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
