"""Metric factor and grid geometry of entire graphs.

A graph u(x) = A*x + w(x), with w periodic on a cell of length L, is the
only desk-scale representation of an unbounded linear-growth graph.  All
finite differences are centered and second order on the periodic grid;
the background A*x enters only through its (periodic) derivatives.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphField",
    "speed",
    "surface_diffusion_operator",
]


def speed(psi):
    """Metric factor sqrt(1 + psi^2) of a graph with slope psi.

    Accepts scalars or arrays; always >= 1.
    """
    if isinstance(psi, np.ndarray):
        return np.sqrt(1.0 + psi.astype(float) ** 2)
    return math.sqrt(1.0 + psi * psi)


@dataclass(frozen=True)
class GraphField:
    """Uniformly sampled periodic perturbation of a linear graph.

    The represented graph is u(x) = slope_offset*x + w(x) with w periodic
    of period domain_length and ``values[i] = w(i * domain_length / n)``.
    """

    domain_length: float
    slope_offset: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.domain_length <= 0:
            raise ValueError("domain_length must be positive")
        if vals.ndim != 1 or vals.size < 8 or vals.size % 2 != 0:
            raise ValueError("values must be a 1-d array, n >= 8 and even")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if not math.isfinite(self.slope_offset):
            raise ValueError("slope_offset must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def dx(self) -> float:
        return self.domain_length / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def with_values(self, values: np.ndarray) -> "GraphField":
        return GraphField(self.domain_length, self.slope_offset, values)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,w\n")
        for xi, wi in zip(self.x, self.values):
            # + 0.0 normalizes signed zeros so equal fields serialize equally
            buf.write(f"{float(xi) + 0.0!r},{float(wi) + 0.0!r}\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str, slope_offset: float = 0.0) -> "GraphField":
        lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
        if not lines or lines[0].strip() != "x,w":
            raise ValueError("expected CSV header 'x,w'")
        xs, ws = [], []
        for ln in lines[1:]:
            sx, sw = ln.split(",")
            xs.append(float(sx))
            ws.append(float(sw))
        xs = np.asarray(xs)
        ws = np.asarray(ws)
        if xs.size < 2 or xs[0] != 0.0 or np.any(np.diff(xs) <= 0):
            raise ValueError("x column must ascend from 0")
        # x spacing implies the cell length: x ends one step short of L
        dx = xs[1] - xs[0]
        return GraphField(dx * xs.size, slope_offset, ws)


# The periodic stencils are written into one output through slices, with
# the wrap-around ends done separately; each entry is rounded exactly as
# in the np.roll forms (a[i+1] - a[i-1]) / (2 dx) and
# (a[i+1] - 2 a[i] + a[i-1]) / dx^2, without their four temporaries.

def _d1(arr: np.ndarray, dx: float) -> np.ndarray:
    """Centered first derivative on the periodic grid."""
    out = np.empty_like(arr)
    np.subtract(arr[2:], arr[:-2], out=out[1:-1])
    out[0] = arr[1] - arr[-1]
    out[-1] = arr[0] - arr[-2]
    out /= 2.0 * dx
    return out


def _d2(arr: np.ndarray, dx: float) -> np.ndarray:
    """Centered second derivative on the periodic grid."""
    out = np.multiply(arr, -2.0)
    out[1:-1] += arr[2:]
    out[0] += arr[1]
    out[-1] += arr[0]
    out[1:-1] += arr[:-2]
    out[0] += arr[-1]
    out[-1] += arr[-2]
    out /= dx * dx
    return out


def surface_diffusion_operator(f: GraphField) -> GraphField:
    """Fourth-order driving term -d/dx((1/v) d/dx k) of the graph flow.

    Computed in the factored form: slope and curvature of u = A*x + w
    first, then the weighted flux (1/v) dk/dx, then the outer divergence.
    Each pass is a centered second-order difference, so every factor can
    be tested on its own.
    """
    if f.n < 8:
        raise ValueError("grid too coarse: n >= 8 required")
    dx = f.dx
    w = f.values
    ux = f.slope_offset + _d1(w, dx)
    v = np.sqrt(1.0 + ux * ux)
    k = _d2(w, dx) / v**3
    flux = _d1(k, dx) / v
    return GraphField(f.domain_length, 0.0, -_d1(flux, dx))
