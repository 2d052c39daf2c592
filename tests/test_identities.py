import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdflow.identities import (
    IdentityReport,
    QParams,
    convexity_residual_m,
    convexity_residual_q,
    m_value,
    q_paper_constants,
    q_upper_bound_residual,
    q_value,
    steady_first_integral_residuals,
    tangential_identity_residual,
)
from sdflow.soliton import IntegratorOptions, ProfileState, SolitonKind, Trajectory, integrate

SELFSIM = SolitonKind.self_similar()
DENSE = IntegratorOptions(sample_h=1e-3)


def dense_traj(kind, init, y_max=0.5, direction=1):
    traj = integrate(kind, init, direction, y_max, DENSE)
    assert traj.outcome == "completed"
    return traj


@pytest.fixture(scope="module")
def ss_traj():
    return dense_traj(SELFSIM, ProfileState.initial(phi=0.5, psi=0.3, k=0.4, w=0.2), y_max=0.8)


@pytest.fixture(scope="module")
def tw_traj():
    kind = SolitonKind.travelling(1.0, 1.0)
    return dense_traj(kind, ProfileState.initial(phi=0.2, psi=-0.4, k=0.3, w=-0.1), y_max=0.8)


# ------------------------------------------------------------------ Q, M values

def test_q_value_examples():
    assert q_value(ProfileState(0, 0, 0, 1, 0, 0), QParams(0, 0)) == 1.0
    assert q_value(ProfileState(2, 0, 0, 0, 0, 2), QParams(0, 0)) == 0.0
    s = ProfileState(1, 1, 0, 1, 0, math.sqrt(2))
    assert q_value(s, QParams(1, 1)) == pytest.approx(2 + math.sqrt(2), abs=1e-15)


def test_q_paper_constants():
    assert q_paper_constants(0.0) == QParams(0.0, 0.0)
    assert q_paper_constants(2.0) == QParams(-1.0, -1.0)
    assert q_paper_constants(-2.0) == QParams(-1.0, -1.0)


def test_m_value_examples():
    assert m_value(ProfileState(0, 0, 0, 1, 0, 0), 3.0, -2.0) == 1.0
    assert m_value(ProfileState(1, 1, 0, 0, 0, 0), 1.0, 2.0) == 6.0
    # line state phi = b y / a at y = -1 with a = b = 1
    assert m_value(ProfileState(-1, -1, 1, 0, 0, 0), 1.0, 1.0) == -4.0


def test_qparams_must_be_finite():
    with pytest.raises(ValueError):
        QParams(math.nan, 0.0)


# ------------------------------------------------------------------ convexity Q

def test_q_convexity_zero_on_lines():
    traj = dense_traj(SELFSIM, ProfileState.initial(psi=1.0), y_max=0.2)
    rep = convexity_residual_q(traj)
    assert rep.max_residual <= 1e-10


def test_q_convexity_on_integrated_trajectory(ss_traj):
    rep = convexity_residual_q(ss_traj)
    assert rep.max_residual <= 1e-4
    assert rep.extra["min_weighted_second"] >= -1e-6


def test_q_convexity_rejects_wrong_kind(tw_traj):
    with pytest.raises(ValueError):
        convexity_residual_q(tw_traj)


def test_q_convexity_needs_uniform_sampling():
    # theta-resolved rows of two steps, whose sub-steps differ in arc length
    # (the rows of one step alone are equally spaced)
    traj = integrate(SELFSIM, ProfileState.initial(k=0.3), 1, 1.0)
    assert traj.stats.steps == 2
    with pytest.raises(ValueError):
        convexity_residual_q(traj)


# ------------------------------------------------------------------ convexity M

def test_m_convexity_zero_on_lines():
    kind = SolitonKind.travelling(2.0, 1.0)
    traj = dense_traj(kind, ProfileState.initial(psi=0.5), y_max=0.2)
    rep = convexity_residual_m(traj)
    assert rep.max_residual <= 1e-10


def test_m_convexity_on_integrated_trajectory(tw_traj):
    rep = convexity_residual_m(tw_traj)
    assert rep.max_residual <= 1e-4
    assert rep.extra["min_weighted_second"] >= -1e-6


def test_m_convexity_mismatched_direction_fails(tw_traj):
    wrong = dataclasses.replace(tw_traj, kind=SolitonKind.travelling(2.0, -1.0))
    rep = convexity_residual_m(wrong)
    assert rep.max_residual > 1e-2


def test_m_convexity_rejects_wrong_kind(ss_traj):
    with pytest.raises(ValueError):
        convexity_residual_m(ss_traj)


# ------------------------------------------------------------------- tangential

def test_tangential_zero_for_constant_slope():
    traj = dense_traj(SolitonKind.steady(), ProfileState.initial(psi=0.7), y_max=0.3)
    rep = tangential_identity_residual(traj, 1.3, -0.4)
    assert rep.max_residual <= 1e-12


def test_tangential_on_integrated_trajectory(tw_traj):
    rep = tangential_identity_residual(tw_traj, 1.0, 1.0)
    assert rep.max_residual <= 1e-4


def test_tangential_zero_direction(tw_traj):
    rep = tangential_identity_residual(tw_traj, 0.0, 0.0)
    assert rep.max_residual == 0.0


# --------------------------------------------------------------------- Q bound

def test_q_bound_both_directions(ss_traj):
    assert q_upper_bound_residual(ss_traj) <= 1e-9
    back = dense_traj(SELFSIM, ProfileState.initial(phi=0.5, psi=0.3, k=0.4, w=0.2),
                      y_max=0.8, direction=-1)
    assert q_upper_bound_residual(back) <= 1e-9


def test_q_bound_wrong_kind(tw_traj):
    with pytest.raises(ValueError):
        q_upper_bound_residual(tw_traj)


# -------------------------------------------------------------- first integrals

def test_steady_first_integrals():
    traj = integrate(SolitonKind.steady(), ProfileState.initial(k=0.1, w=1e-4), 1, 50.0)
    res_w, res_k = steady_first_integral_residuals(traj)
    assert res_w <= 1e-8
    assert res_k <= 1e-7


def test_first_integrals_wrong_kind(ss_traj):
    with pytest.raises(ValueError):
        steady_first_integral_residuals(ss_traj)


# --------------------------------------------------------------------- reports

def test_identity_report_serialization(ss_traj):
    rep = convexity_residual_q(ss_traj)
    rep.threshold = 1e-4
    payload = rep.to_dict()
    assert payload["pass"] is True
    assert payload["identity"] == "q_convexity"
    assert set(payload) >= {"identity", "max_residual", "y_at_max", "threshold", "pass"}
    with pytest.raises(ValueError):
        IdentityReport("x", -1.0, 0.0)


@pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf, -0.5])
def test_identity_report_rejects_a_residual_that_is_not_finite_and_nonnegative(residual):
    # json.dumps would write NaN or Infinity into verify.json
    with pytest.raises(ValueError, match="not finite"):
        IdentityReport("x", residual, 0.0)


# ---------------------------------------------- reference formulas, bit for bit

def reference_d_ds(f, S):
    hm, hp = np.diff(S)[:-1], np.diff(S)[1:]
    return (-(hp**2) * f[:-2] + (hp**2 - hm**2) * f[1:-1] + hm**2 * f[2:]) / (hm * hp * (hm + hp))


def reference_convexity(traj, terms):
    """(max residual, y at max, min lhs), the lhs summing each term's nested
    first differences in S."""
    S = traj.S
    lhs = 0
    for F in terms:
        lhs = lhs + reference_d_ds(reference_d_ds(F, S), S[1:-1])
    res = np.abs(lhs - 2.0 * traj.w[2:-2] ** 2)
    i = int(np.argmax(res))
    return float(res[i]), float(traj.y[2:-2][i]), float(np.min(lhs))


def reference_q(traj):
    """Q written out term by term; c1 and c2 S drop out."""
    y, phi, k, S = traj.y, traj.phi, traj.k, traj.S
    return reference_convexity(traj, (k * k, 0.25 * (y * y), 0.25 * (phi * phi),
                                      -0.25 * (S * S)))


def reference_m(traj):
    a, b = traj.kind.a, traj.kind.b
    return reference_convexity(traj, (traj.k * traj.k, 2.0 * a * traj.y, 2.0 * b * traj.phi))


def reference_tangential(traj, a, b):
    theta = np.arctan(traj.psi)
    c, s = np.cos(theta), np.sin(theta)
    lhs = reference_d_ds(a * c + b * s, traj.S)
    res = np.abs(lhs - traj.k[1:-1] * (b * c[1:-1] - a * s[1:-1]))
    i = int(np.argmax(res))
    return float(res[i]), float(traj.y[1:-1][i])


def reference_q_bound(traj):
    y, phi, S = traj.y, traj.phi, traj.S
    phi0 = float(phi[np.argmin(np.abs(y))])
    qmk = (-0.25 * phi0 * phi0 - 0.5 * abs(phi0) * np.abs(S)
           + 0.25 * (y * y + phi * phi) - 0.25 * S * S)
    return float(np.max(qmk))


def noisy_trajectory(kind, n, seed, direction, h):
    """Uniform S grid, as ``sample_h`` writes it, with random columns; the
    identities need not hold."""
    rng = np.random.default_rng(seed)
    phi, psi, k, w = rng.normal(size=(4, n)) * rng.uniform(0.1, 10.0, size=(4, 1))
    y = rng.uniform(-1, 1) + np.cumsum(np.abs(rng.normal(size=n))) * direction * h
    return Trajectory(kind=kind, direction=direction, y=y, phi=phi, psi=psi, k=k, w=w,
                      S=direction * h * np.arange(n), outcome="completed", certificate=None,
                      max_abs_k=0.0, max_turning=0.0)


trajectory_args = dict(
    n=st.integers(7, 200),
    seed=st.integers(0, 2**32 - 1),
    direction=st.sampled_from([1, -1]),
    h=st.floats(1e-4, 1e-1),
)


@settings(max_examples=100, deadline=None)
@given(**trajectory_args)
def test_q_checks_match_reference_bit_for_bit(n, seed, direction, h):
    traj = noisy_trajectory(SELFSIM, n, seed, direction, h)
    rep = convexity_residual_q(traj)
    assert (rep.max_residual, rep.y_at_max, rep.extra["min_weighted_second"]) == reference_q(traj)
    assert q_upper_bound_residual(traj) == reference_q_bound(traj)


@settings(max_examples=100, deadline=None)
@given(**trajectory_args, a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_m_and_tangential_match_reference_bit_for_bit(n, seed, direction, h, a, b):
    assume(a * a + b * b > 0.0)  # a direction SolitonKind accepts
    traj = noisy_trajectory(SolitonKind.travelling(a, b), n, seed, direction, h)
    rep = convexity_residual_m(traj)
    got = (rep.max_residual, rep.y_at_max, rep.extra["min_weighted_second"])
    assert got == reference_m(traj)
    rep = tangential_identity_residual(traj, a, b)
    assert (rep.max_residual, rep.y_at_max) == reference_tangential(traj, a, b)
