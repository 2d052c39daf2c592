import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdflow.geometry import GraphField, surface_diffusion_operator
from sdflow.graphpde import (
    FlowConfig,
    FlowDivergedError,
    GraphicalityLostError,
    RescaleParams,
    evolve,
    rescale,
    step,
)
from sdflow.graphpde import _fourth_symbol, _step_multiplier

L = 2.0 * math.pi


def rk4_step(f, dt):
    """Explicit RK4 step of the graph flow: the reference for the semi-implicit step."""
    assert dt <= f.dx**4 / 8.0, "explicit step above the fourth-order stability bound"

    def rhs(wv):
        return surface_diffusion_operator(f.with_values(wv)).values

    w = f.values
    k1 = rhs(w)
    k2 = rhs(w + 0.5 * dt * k1)
    k3 = rhs(w + 0.5 * dt * k2)
    k4 = rhs(w + dt * k3)
    return f.with_values(w + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def test_step_with_overflowing_operator_raises_flow_diverged():
    # the operator output of these values overflows to non-finite numbers
    w = np.zeros(16)
    w[3:6] = [1.7e308, -1.7e308, 1.7e308]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FlowDivergedError):
        step(GraphField(L, 0.0, w), FlowConfig(dt=1e-3, t_end=1.0))


def sine_field(n=256, eps=1e-3, A=0.0, mode=1):
    x = np.arange(n) * L / n
    return GraphField(L, A, eps * np.sin(mode * 2.0 * math.pi * x / L))


def test_linear_graphs_are_fixed_points():
    cfg = FlowConfig(dt=0.01, t_end=1.0)
    for A in (0.0, 1.0, -2.5):
        f = GraphField(L, A, np.zeros(128))
        for _ in range(5):
            f = step(f, cfg)
        assert np.max(np.abs(f.values)) <= 1e-12


def test_single_mode_decay_factor():
    # one step multiplies the q-mode by about exp(-q^4 dt); oracle is an
    # explicit RK run at dt/100 (n = 64 keeps the explicit bound workable)
    n, eps, dt = 64, 1e-6, 1e-5
    f = sine_field(n, eps)
    out = step(f, FlowConfig(dt=dt, t_end=1.0)).values
    factor = np.max(np.abs(out)) / eps
    assert factor == pytest.approx(math.exp(-dt), rel=1e-4)
    g = f
    for _ in range(100):
        g = rk4_step(g, dt / 100.0)
    assert np.max(np.abs(out - g.values)) <= 1e-3 * eps


def test_step_first_order_consistency():
    # one step vs two half-steps differ at O(dt^2); small amplitude keeps
    # higher harmonics out of the gap
    f = sine_field(128, eps=1e-4)

    def gap(dt):
        one = step(f, FlowConfig(dt=dt, t_end=1.0)).values
        half = step(step(f, FlowConfig(dt=dt / 2, t_end=1.0)), FlowConfig(dt=dt / 2, t_end=1.0)).values
        return np.max(np.abs(one - half))

    g1, g2 = gap(0.02), gap(0.01)
    assert 3.5 <= g1 / g2 <= 4.5


def test_evolve_decay_rate_within_5_percent():
    f = sine_field(256, eps=1e-3)
    final, series = evolve(f, FlowConfig(dt=0.01, t_end=1.0))
    amp = np.max(np.abs(final.values))
    assert amp <= 1.05 * 1e-3 * math.exp(-1.0)
    assert amp >= 0.95 * 1e-3 * math.exp(-1.0)
    # monitored norms decay throughout
    l2 = [m.l2_w for _, _, m in series]
    assert all(b < a for a, b in zip(l2, l2[1:]))


def test_evolve_zero_perturbation_monitors_flat():
    f = GraphField(L, 1.0, np.zeros(64))
    final, series = evolve(f, FlowConfig(dt=0.05, t_end=0.5), frames=8)
    assert np.array_equal(final.values, f.values)
    for _, field, mon in series:
        assert mon.max_w == 0.0
        assert mon.turning_variation == 0.0
        assert mon.max_slope == 1.0


def test_evolve_first_order_in_dt():
    f = sine_field(128, eps=0.2)
    outs = {}
    for dt in (0.02, 0.01, 0.005):
        outs[dt], _ = evolve(f, FlowConfig(dt=dt, t_end=0.5), frames=1)
    d1 = np.max(np.abs(outs[0.02].values - outs[0.01].values))
    d2 = np.max(np.abs(outs[0.01].values - outs[0.005].values))
    assert d1 / d2 == pytest.approx(2.0, rel=0.2)


def test_rescale_identity_and_direct_substitution():
    f = sine_field(256, eps=1e-3)
    g, tg = rescale(f, 0.5, RescaleParams(1.0))
    assert np.array_equal(g.values, f.values)
    assert tg == 0.5
    # lambda = 2: w'(x') = w(2 x')/2 on the halved cell; same grid points
    g, tg = rescale(f, 0.8, RescaleParams(2.0))
    assert g.domain_length == pytest.approx(L / 2)
    assert tg == pytest.approx(0.8 / 16.0)
    xprime = np.arange(g.n) * g.domain_length / g.n
    direct = 1e-3 * np.sin(2.0 * math.pi * (2.0 * xprime) / L) / 2.0
    assert np.max(np.abs(g.values - direct)) <= 1e-15
    with pytest.raises(ValueError):
        RescaleParams(0.0)


def test_rescale_commutes_with_evolve():
    # centered differences inherit the parabolic rescaling exactly on the
    # fixed grid when lambda is a power of two, so the two orders agree
    # far below the generic O(dt + dx^2) splitting bound
    n, dt, T = 256, 0.005, 0.5
    x = np.arange(n) * L / n
    f = GraphField(L, 0.7, 0.3 * np.sin(2 * math.pi * x / L) + 0.1 * np.cos(4 * math.pi * x / L))
    lam = RescaleParams(2.0)
    fin1, _ = evolve(f, FlowConfig(dt=dt, t_end=T), frames=1)
    r1, _ = rescale(fin1, T, lam)
    r0, _ = rescale(f, 0.0, lam)
    fin2, _ = evolve(r0, FlowConfig(dt=dt / 16.0, t_end=T / 16.0), frames=1)
    bound = 1e-6 * (dt + (L / n) ** 2)  # calibrated: measured gap is zero
    assert np.max(np.abs(r1.values - fin2.values)) <= bound


def test_graphicality_abort():
    # slopes up to 2e6, above the ceiling of 1e6
    x = np.arange(64) * L / 64
    f = GraphField(L, 0.0, 2e6 * np.sin(2 * math.pi * x / L))
    cfg = FlowConfig(dt=0.01, t_end=0.1)
    with pytest.raises(GraphicalityLostError) as info:
        evolve(f, cfg, frames=4)
    assert info.value.max_slope >= 1e6


@pytest.mark.parametrize("t_end", [0.0, 0.1])
def test_graphicality_abort_at_t_zero(t_end):
    # input already above the ceiling fails at frame 0, before any step
    cfg = FlowConfig(dt=0.01, t_end=t_end)
    with pytest.raises(GraphicalityLostError) as info:
        evolve(sine_field(64, eps=2e6), cfg, frames=4)
    assert info.value.t == 0.0


def test_step_leaves_zero_operator_fields_exactly():
    # a constant shift of a line and a checkerboard have operator output
    # exactly 0, so the Fourier update leaves them bit for bit unchanged
    cfg = FlowConfig(dt=0.01, t_end=1.0)
    checker = 1e-3 * (-1.0) ** np.arange(64)
    for A, w in ((1.0, np.full(64, 0.7)), (0.0, checker), (1.0, checker)):
        f = GraphField(L, A, w)
        assert np.array_equal(step(f, cfg).values, w)


@pytest.mark.parametrize("frames", [0, -1])
def test_evolve_needs_a_frame(frames):
    with pytest.raises(ValueError):
        evolve(sine_field(64), FlowConfig(dt=0.01, t_end=0.1), frames=frames)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        FlowConfig(dt=0.1, t_end=-1.0)


@pytest.mark.parametrize("dt, t_end", [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.inf),
                                        (0.1, math.nan)])
def test_flow_config_must_be_finite(dt, t_end):
    with pytest.raises(ValueError):
        FlowConfig(dt=dt, t_end=t_end)


@settings(max_examples=50, deadline=None)
@given(half=st.integers(4, 2048), length=st.floats(0.1, 100.0))
def test_fourth_symbol_cache_read_only_and_fresh(half, length):
    n = 2 * half
    dx = length / n
    m = _fourth_symbol(n, dx)
    assert m.flags.writeable is False
    with pytest.raises(ValueError):
        m[0] = 1.0
    assert _fourth_symbol(n, dx) is m
    xi = 2.0 * math.pi * np.arange(n // 2 + 1) / n
    s1 = np.sin(xi) / dx
    fresh = s1 * s1 * ((2.0 - 2.0 * np.cos(xi)) / (dx * dx))
    assert m.tobytes() == fresh.tobytes()


@settings(max_examples=50, deadline=None)
@given(half=st.integers(4, 2048), length=st.floats(0.1, 100.0), dt=st.floats(1e-9, 1.0))
def test_step_multiplier_cache_read_only_and_fresh(half, length, dt):
    n = 2 * half
    dx = length / n
    mult = _step_multiplier(n, dx, dt)
    assert mult.flags.writeable is False
    with pytest.raises(ValueError):
        mult[0] = 1.0
    assert _step_multiplier(n, dx, dt) is mult
    assert mult.tobytes() == (dt / (1.0 + dt * _fourth_symbol(n, dx))).tobytes()


@pytest.mark.parametrize("dt", [1e-3, 3.7e-4])  # a full step, and one shortened to a frame
def test_step_matches_the_uncached_formula_bit_for_bit(dt):
    f = sine_field(n=1024, eps=0.3, A=1.0)
    update = np.fft.rfft(surface_diffusion_operator(f).values)
    update *= dt / (1.0 + dt * _fourth_symbol(f.n, f.dx))
    expected = f.values + np.fft.irfft(update, f.n)
    out = step(f, FlowConfig(dt=dt, t_end=1.0))
    assert out.values.tobytes() == expected.tobytes()
    assert (out.domain_length, out.slope_offset) == (f.domain_length, f.slope_offset)
