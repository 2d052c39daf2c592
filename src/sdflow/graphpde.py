"""Time stepping for the graphical surface diffusion equation.

The flow of u(x,t) = A x + w(x,t) is advanced on the periodic cell in
the perturbation w by one semi-implicit scheme.  It splits off the
dominant linear part: the fourth derivative (its centered-difference
symbol m, applied in Fourier space) is treated implicitly and the full
nonlinear right-hand side minus that part explicitly.  The two parts
combine into one Fourier update of w by the operator output F(w),

    w_new = w + irfft(dt rfft(F(w)) / (1 + dt m)),

which is first order in time.  Where F(w) is exactly zero, as on every
linear graph, w is left exactly unchanged.  A frame whose slope reaches
``_SLOPE_CEILING`` (1e6) ends the run with ``GraphicalityLostError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from typing import List, Tuple

import numpy as np

# graphpde.surface_diffusion_operator is a wrap point of perfbench/layers.py;
# step itself calls the array form, _surface_diffusion
from .geometry import (  # noqa: F401
    GraphField, _d1, _steps_to, _surface_diffusion, surface_diffusion_operator,
)

__all__ = [
    "FlowConfig",
    "RescaleParams",
    "FrameMonitors",
    "FlowDivergedError",
    "GraphicalityLostError",
    "step",
    "evolve",
    "rescale",
]


class FlowDivergedError(RuntimeError):
    """Non-finite values appeared during time stepping."""


class GraphicalityLostError(RuntimeError):
    """The slope monitor hit the ceiling; the graph is breaking down."""

    def __init__(self, t: float, max_slope: float):
        super().__init__(f"slope {max_slope:.3e} at t={t!r} exceeds the ceiling")
        self.t = t
        self.max_slope = max_slope


_SLOPE_CEILING = 1e6  # a frame whose slope reaches it has lost graphicality


@dataclass(frozen=True)
class FlowConfig:
    dt: float
    t_end: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError("t_end must be nonnegative and finite")


@dataclass(frozen=True)
class RescaleParams:
    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("scale factor must be positive and finite")


@dataclass(frozen=True)
class FrameMonitors:
    t: float
    max_slope: float
    turning_variation: float
    max_w: float
    l2_w: float

    def to_dict(self) -> dict:
        return asdict(self)


@functools.lru_cache(maxsize=16)
def _fourth_symbol(n: int, dx: float) -> np.ndarray:
    """Symbol of the linearized operator under centered differences.

    The factored operator linearized about w = 0 is -D1(D1(D2 w)); its
    rfft symbol is -(sin(xi)/dx)^2 (2 - 2 cos(xi))/dx^2, returned here
    with the sign flipped (nonnegative).  Every step of a run shares one
    cached, read-only array per grid.
    """
    xi = 2.0 * math.pi * np.arange(n // 2 + 1) / n
    s1 = np.sin(xi) / dx
    s2 = (2.0 - 2.0 * np.cos(xi)) / (dx * dx)
    m = s1 * s1 * s2
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=16)
def _step_multiplier(n: int, dx: float, dt: float) -> np.ndarray:
    """dt / (1 + dt m) on the rfft modes: the Fourier multiplier of a step
    of dt.  A run's full steps share one cached, read-only array per grid."""
    mult = dt / (1.0 + dt * _fourth_symbol(n, dx))
    mult.flags.writeable = False
    return mult


def step(f: GraphField, cfg: FlowConfig) -> GraphField:
    """Advance the field by one time step of cfg.dt."""
    n, dx = f.n, f.dx
    update = np.fft.rfft(_surface_diffusion(f.values, dx, f.slope_offset))
    update *= _step_multiplier(n, dx, cfg.dt)
    out = f.values + np.fft.irfft(update, n)
    try:
        # the new field's own check is the step's one finiteness check
        return f.with_values(out)
    except ValueError as exc:
        raise FlowDivergedError("non-finite field after step") from exc


def _monitors(f: GraphField, t: float) -> FrameMonitors:
    ux = f.slope_offset + _d1(f.values, f.dx)
    theta = np.arctan(ux)
    tv = float(np.sum(np.abs(np.diff(np.append(theta, theta[0])))))
    return FrameMonitors(
        t=t,
        max_slope=float(np.max(np.abs(ux))),
        turning_variation=tv,
        max_w=float(np.max(np.abs(f.values))),
        l2_w=float(np.sqrt(np.sum(f.values**2) * f.dx)),
    )


def evolve(
    f: GraphField, cfg: FlowConfig, frames: int = 64
) -> Tuple[GraphField, List[Tuple[float, GraphField, FrameMonitors]]]:
    """Run the flow to cfg.t_end, reporting monitors on a frame grid.

    Frames are at j * t_end / frames, from j = 0; the stepper lands on
    each frame time exactly (the last step into a frame is shortened).
    Returns the final field and the list of (t, field, monitors) frames.
    Raises GraphicalityLostError at the first frame, t = 0 included,
    whose slope reaches ``_SLOPE_CEILING``.
    """
    if frames < 1:
        raise ValueError("frames must be at least 1")
    frame_times = [cfg.t_end * j / frames for j in range(frames + 1)] if cfg.t_end else [0.0]
    series = []
    t = 0.0
    cur = f
    for tf in frame_times:
        for dt, t in _steps_to(t, tf, cfg.dt, cfg.t_end):
            cur = step(cur, cfg if dt == cfg.dt else replace(cfg, dt=dt))
        t = tf
        mon = _monitors(cur, t)
        if mon.max_slope >= _SLOPE_CEILING:
            raise GraphicalityLostError(t, mon.max_slope)
        series.append((t, cur, mon))
    return cur, series


def rescale(f: GraphField, t: float, p: RescaleParams) -> Tuple[GraphField, float]:
    """Parabolic rescaling of a snapshot: amplitude and cell by 1/lam.

    The rescaled graph is lam^{-1} u(lam x) on the cell L/lam at time
    t/lam^4; the background slope is invariant.  Sampling the new cell
    uniformly with the same point count lands exactly on the original
    grid, so no interpolation error enters.
    """
    lam = p.lam
    return (
        GraphField(f.domain_length / lam, f.slope_offset, f.values / lam),
        t / lam**4,
    )
