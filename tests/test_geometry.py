import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sdflow.geometry import GraphField, surface_diffusion_operator
from sdflow.geometry import _d1, _d2


def symbolic_operator(A, eps, L, harmonics=((1.0, 1.0),)):
    """Independent oracle: the full nonlinear operator via symbolic calculus.

    u(x) = A x + eps * sum(c * sin(2 pi m x / L)); returns a callable for
    -d/dx((1/v) d/dx(u''/v^3)).
    """
    x = sp.Symbol("x")
    u = A * x
    for m, c in harmonics:
        u += eps * c * sp.sin(2 * sp.pi * m * x / L)
    v = sp.sqrt(1 + sp.diff(u, x) ** 2)
    k = sp.diff(u, x, 2) / v**3
    expr = -sp.diff(sp.diff(k, x) / v, x)
    return sp.lambdify(x, expr, "numpy")


def _field(n, L, A, w):
    return GraphField(L, A, w)


def test_operator_zero_on_linear_graphs():
    n, L = 64, 2.0 * math.pi
    for A in (0.0, 1.0, -3.5):
        out = surface_diffusion_operator(_field(n, L, A, np.zeros(n)))
        assert np.max(np.abs(out.values)) == 0.0
    # constant perturbation is still a line
    out = surface_diffusion_operator(_field(n, L, 2.0, np.full(n, 0.7)))
    assert np.max(np.abs(out.values)) <= 1e-10


def test_operator_linearization_small_amplitude():
    # to O(eps^2) the operator is -w_xxxx = -eps q^4 sin(qx); grid error
    # O(dx^2).  Sign cross-checked against the symbolic oracle: the
    # q-mode must decay under u_t = L[u].
    n, L, eps = 512, 2.0 * math.pi, 1e-6
    x = np.arange(n) * L / n
    q = 2.0 * math.pi / L
    w = eps * np.sin(q * x)
    out = surface_diffusion_operator(_field(n, L, 0.0, w)).values
    expected = -eps * q**4 * np.sin(q * x)
    assert np.max(np.abs(out - expected)) <= 3e-4 * eps
    oracle = symbolic_operator(0.0, eps, L)(x)
    assert np.max(np.abs(out - oracle)) <= 1e-4 * eps


def test_operator_matches_symbolic_oracle():
    n, L, A, eps = 256, 2.0 * math.pi, 0.4, 0.3
    x = np.arange(n) * L / n
    w = eps * np.sin(2.0 * math.pi * x / L)
    out = surface_diffusion_operator(_field(n, L, A, w)).values
    exact = symbolic_operator(A, eps, L)(x)
    dx = L / n
    assert np.max(np.abs(out - exact)) <= 5.0 * dx**2


def test_operator_depends_on_background_slope():
    # same perturbation, different reference line: different result
    n, L, eps = 256, 2.0 * math.pi, 0.1
    x = np.arange(n) * L / n
    w = eps * np.sin(2.0 * math.pi * x / L)
    out0 = surface_diffusion_operator(_field(n, L, 0.0, w)).values
    out1 = surface_diffusion_operator(_field(n, L, 1.0, w)).values
    gap = np.max(np.abs(out0 - out1))
    assert gap > 0.1 * np.max(np.abs(out0))
    # and each agrees with its own symbolic oracle
    oracle1 = symbolic_operator(1.0, eps, L)(x)
    assert np.max(np.abs(out1 - oracle1)) <= 5.0 * (L / n) ** 2


def test_operator_second_order_convergence():
    L, A, eps = 2.0 * math.pi, 0.3, 0.5
    harmonics = ((1.0, 1.0), (2.0, 0.3))
    errs = []
    for n in (64, 128, 256):
        x = np.arange(n) * L / n
        w = eps * (np.sin(2 * math.pi * x / L) + 0.3 * np.sin(4 * math.pi * x / L))
        out = surface_diffusion_operator(_field(n, L, A, w)).values
        exact = symbolic_operator(A, eps, L, harmonics)(x)
        errs.append(np.max(np.abs(out - exact)))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_operator_rejects_coarse_grid():
    with pytest.raises(ValueError):
        GraphField(1.0, 0.0, np.zeros(6))


def test_field_validation():
    with pytest.raises(ValueError):
        GraphField(0.0, 0.0, np.zeros(16))
    with pytest.raises(ValueError):
        GraphField(1.0, 0.0, np.zeros(15))  # odd
    with pytest.raises(ValueError):
        GraphField(1.0, 0.0, np.r_[np.zeros(15), np.nan])


def test_field_csv_roundtrip():
    n, L = 16, 3.0
    rng = np.random.default_rng(3)
    f = GraphField(L, 0.25, rng.normal(size=n))
    g = GraphField.from_csv(f.to_csv(), slope_offset=0.25)
    assert g.domain_length == pytest.approx(L, rel=1e-15)
    assert np.array_equal(f.values, g.values)
    with pytest.raises(ValueError):
        GraphField.from_csv("a,b\n1,2\n")


@st.composite
def periodic_samples(draw):
    """An even number (8 to 128) of values of either sign, |value| in [1e-8, 1e8]."""
    n = 2 * draw(st.integers(4, 64))
    value = st.builds(
        lambda m, sign: sign * m, st.floats(1e-8, 1e8), st.sampled_from([-1.0, 1.0])
    )
    return np.array(draw(st.lists(value, min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(arr=periodic_samples(), dx=st.floats(1e-4, 1e4))
def test_stencils_match_roll_formulas_bit_for_bit(arr, dx):
    d1 = (np.roll(arr, -1) - np.roll(arr, 1)) / (2.0 * dx)
    d2 = (np.roll(arr, -1) - 2.0 * arr + np.roll(arr, 1)) / (dx * dx)
    assert _d1(arr, dx).tobytes() == d1.tobytes()
    assert _d2(arr, dx).tobytes() == d2.tobytes()


def test_both_flows_keep_one_frame_clock(monkeypatch):
    # dt does not divide the frame spacing 0.1 / 7, so the last step into each
    # frame is shortened; both flows must take the same steps and land exactly
    from sdflow import curveflow, graphpde

    dt, t_end, frames = 0.003, 0.1, 7
    steps = {"graph": [], "curve": []}

    def graph_step(f, cfg, step=graphpde.step):
        steps["graph"].append(cfg.dt)
        return step(f, cfg)

    def bgn_step(pts, h, chords=None, step=curveflow._bgn_step):
        steps["curve"].append(h)
        return step(pts, h, chords)

    monkeypatch.setattr(graphpde, "step", graph_step)
    monkeypatch.setattr(curveflow, "_bgn_step", bgn_step)
    x = np.arange(32) * (2.0 * math.pi / 32)
    field = GraphField(2.0 * math.pi, 0.0, 1e-3 * np.sin(x))
    _, series = graphpde.evolve(field, graphpde.FlowConfig(dt=dt, t_end=t_end), frames=frames)
    result = curveflow.flow(curveflow.seed_circle(1.0, 32), dt=dt, t_end=t_end, frames=frames)

    expected = [t_end * j / frames for j in range(frames + 1)]
    assert [t for t, _, _ in series] == expected
    assert [t for t, _, _ in result.frames] == expected
    # 5 steps per frame, the fifth shortened to land on the frame
    assert steps["graph"] == steps["curve"]
    assert len(steps["graph"]) == 5 * frames
    assert [h == dt for h in steps["graph"]] == [True, True, True, True, False] * frames
