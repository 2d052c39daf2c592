"""Grid geometry of entire graphs, and the package's CSV codec.

A graph u(x) = A*x + w(x), with w periodic on a cell of length L, is the
only desk-scale representation of an unbounded linear-growth graph.  All
finite differences are centered and second order on the periodic grid;
the background A*x enters only through its (periodic) derivatives.

``_write_csv`` and ``_read_csv`` are the one CSV codec of the package:
graph frames, trajectories and curve frames are each a header and float
columns written and read through them.  ``_unsigned_zeros`` writes
signed zeros as 0.0, for the codec and the command line's JSON files.
``_steps_to`` is the frame clock of the graph flow and the curve flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphField",
    "surface_diffusion_operator",
]


def _unsigned_zeros(value):
    """``value`` with each float in it, in nested dicts and lists too, plus 0.0:
    -0.0 becomes 0.0 and every other float is unchanged."""
    if isinstance(value, float):
        return value + 0.0
    if isinstance(value, dict):
        return {key: _unsigned_zeros(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_unsigned_zeros(item) for item in value]
    return value


def _write_csv(header: str, columns, meta=None) -> str:
    """CSV text of equal-length float ``columns`` under ``header``.

    Optional ``# key=value`` lines of ``meta`` come first.  Each value is
    written at shortest round-trip precision, with signed zeros as 0.0,
    in the metadata and the rows alike, so equal data serialize to equal
    bytes.
    """
    lines = [f"# {key}={value}" for key, value in _unsigned_zeros(meta or {}).items()]
    values = np.column_stack(columns) + 0.0  # + 0.0 turns -0.0 into 0.0
    # one %-format over every row: %r is repr, and faster than a join per row
    row = ",".join(["%r"] * values.shape[1])
    lines += [header, "\n".join([row] * values.shape[0]) % tuple(values.ravel().tolist())]
    return "\n".join(lines) + "\n"


def _read_csv(text: str, header: str):
    """The metadata dict and the float rows (a 2-d array) of ``_write_csv`` text.

    Raises ValueError unless the leading ``#`` lines are followed by
    exactly ``header``, then by at least one row, each of the header's
    column count and of finite numbers only.
    """
    lines = iter(text.splitlines())
    meta = {}
    line = next(lines, "")
    while line.startswith("#"):
        key, _, value = line[1:].partition("=")
        meta[key.strip()] = value.strip()
        line = next(lines, "")
    if line != header:
        raise ValueError(f"expected CSV header {header!r}")
    rows = [ln.split(",") for ln in lines]
    if not rows:
        raise ValueError("no CSV rows below the header")
    width = header.count(",") + 1
    if any(len(row) != width for row in rows):
        raise ValueError(f"every CSV row must have {width} values")
    values = np.array([[float(v) for v in row] for row in rows])
    if not np.all(np.isfinite(values)):
        raise ValueError("CSV values must be finite")
    return meta, values


def _steps_to(t: float, tf: float, dt: float, t_end: float):
    """Yield (h, time after the step) for steps of h = dt from t that land on
    the frame time tf; the last is shortened to tf - t.  The clock stops
    within 1e-15 t_end of tf, so round-off never makes a sliver step."""
    while t < tf - 1e-15 * t_end:
        h = min(dt, tf - t)
        t += h
        yield h, t


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
        return _write_csv("x,w", (self.x, self.values))

    @staticmethod
    def from_csv(text: str, slope_offset: float = 0.0) -> "GraphField":
        _, rows = _read_csv(text, "x,w")
        xs = rows[:, 0]
        if xs.size < 2 or xs[0] != 0.0 or np.any(np.diff(xs) <= 0):
            raise ValueError("x column must ascend from 0")
        # x spacing implies the cell length: x ends one step short of L
        return GraphField((xs[1] - xs[0]) * xs.size, slope_offset, rows[:, 1])


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


def _surface_diffusion(w: np.ndarray, dx: float, slope_offset: float) -> np.ndarray:
    """The values of ``surface_diffusion_operator`` for u = slope_offset*x + w."""
    ux = slope_offset + _d1(w, dx)
    v = np.sqrt(1.0 + ux * ux)
    k = _d2(w, dx) / v**3
    flux = _d1(k, dx) / v
    return -_d1(flux, dx)


def surface_diffusion_operator(f: GraphField) -> GraphField:
    """Fourth-order driving term -d/dx((1/v) d/dx k) of the graph flow.

    Computed in the factored form: slope and curvature of u = A*x + w
    first, then the weighted flux (1/v) dk/dx, then the outer divergence.
    Each pass is a centered second-order difference, so every factor can
    be tested on its own.
    """
    if f.n < 8:
        raise ValueError("grid too coarse: n >= 8 required")
    return GraphField(f.domain_length, 0.0, _surface_diffusion(f.values, f.dx, f.slope_offset))
