import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdflow.identities import reduction_residual
from sdflow.soliton import (
    BreakdownCertificate,
    IntegratorOptions,
    ProfileState,
    SolitonKind,
    Trajectory,
    _ORDER,
    _horner,
    _initial_state,
    _sample_rows,
    _series,
    integrate,
    run_sweep,
    sample_initial_state,
    shoot_batch,
    shoot_bidirectional,
    vector_field,
)


def report_json(report):
    """A report as the command line writes it: its dict, keys sorted, indent 1."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=1)


STEADY = SolitonKind.steady()
SELFSIM = SolitonKind.self_similar()
# the five kinds of the theorem sweep (acceptance criterion 1)
CRITERION_KINDS = [STEADY, SELFSIM, SolitonKind.travelling(1.0, 0.0),
                   SolitonKind.travelling(1.0, 1.0), SolitonKind.travelling(0.0, 1.0)]


# ---------------------------------------------------------------- vector field

def _line_state(kind, y, psi):
    """The arc-length state (y, phi, c, s, theta, k, w, chi) of a line of slope
    psi through (y, psi y)."""
    return _initial_state(kind, ProfileState(y, psi * y, psi, 0.0, 0.0, 0.0))


def test_vector_field_steady_line_is_equilibrium():
    u = _line_state(STEADY, 0.0, 0.8)
    v = math.sqrt(1.0 + 0.8 * 0.8)
    assert u[2:5] == (1.0 / v, 0.8 / v, math.atan(0.8))
    assert vector_field(STEADY)(u) == (1.0 / v, 0.8 / v, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_vector_field_selfsimilar_cancellation():
    # on the line phi = y/2 through the origin chi = (phi - y psi)/v vanishes,
    # so w and chi stay exactly constant
    u = _line_state(SELFSIM, 2.0, 0.5)
    assert u[7] == 0.0
    assert vector_field(SELFSIM)(u)[2:] == (0.0,) * 6


def test_vector_field_selfsimilar_direct():
    # y = 1, phi = 2, horizontal tangent, k = 1: chi = phi - y psi = 2
    u = (1.0, 2.0, 1.0, 0.0, 0.0, 1.0, 0.0, 2.0)
    assert vector_field(SELFSIM)(u) == (1.0, 0.0, 0.0, 1.0, 1.0, 0.0, -0.5, -1.0)


def test_vector_field_travelling_line():
    # chi = (a psi - b)/v is 0 on the line of slope b/a, so dw/ds = chi is
    # exactly 0 even at slope 1, where sin(atan 1) - cos(atan 1) is not
    for a, b in ((1.0, 2.0), (1.0, 1.0)):
        kind = SolitonKind.travelling(a, b)
        assert vector_field(kind)(_line_state(kind, 0.0, b / a))[2:] == (0.0,) * 6


def test_travelling_direction_must_be_nonzero():
    with pytest.raises(ValueError):
        SolitonKind.travelling(0.0, 0.0)


# ----------------------------------------------------------------- integration

def test_steady_line_completes_exactly():
    traj = integrate(STEADY, ProfileState.initial(psi=1.0), 1, 100.0)
    assert traj.outcome == "completed"
    assert np.max(np.abs(traj.phi - traj.y)) <= 1e-12
    assert traj.max_abs_k == 0.0


def test_case1_angle_excess_certificate():
    # constant curvature b: the turning bound is violated within 2 pi / b
    b = 0.5
    traj = integrate(STEADY, ProfileState.initial(k=b), 1, 200.0)
    assert traj.outcome == "breakdown"
    cert = traj.certificate
    assert cert.kind == "angle_excess"
    lo, hi = cert.detail["interval"]
    assert cert.detail["value"] > math.pi
    assert hi - lo <= 1.1 * (2.0 * math.pi / b)
    # the turning is observed on the arc [S_a, S_b] of curvature b
    assert cert.detail["value"] == pytest.approx(b * (hi - lo), rel=1e-8)
    # slope blows up where sin(theta) = b y, i.e. y = 1/b
    assert cert.y_event == pytest.approx(1.0 / b, rel=1e-3)


def test_case2_breakdown_with_first_integral_oracle():
    # w = a > 0: closed form k = a S + b along the trajectory
    traj = integrate(STEADY, ProfileState.initial(k=0.0, w=0.3), 1, 200.0)
    assert traj.outcome == "breakdown"
    assert traj.certificate.kind in ("angle_excess", "graphicality_loss")
    res = np.max(np.abs(traj.k - 0.3 * traj.S))
    assert res <= 1e-7
    cert = traj.certificate
    if cert.kind == "angle_excess":
        # theta = 0.3 S^2 / 2, so the turning observed on [S_a, S_b] is closed form
        lo, hi = cert.detail["interval"]
        assert cert.detail["value"] == pytest.approx(0.3 * (hi**2 - lo**2) / 2.0, rel=1e-8)


def _seeded(i):
    return sample_initial_state(np.random.default_rng([2024, i]))


# y_event of seeded states (rng [2024, i]), as frozen by the integrator in y
_Y_EVENT_TABLE = [
    ("selfsimilar-k1-fwd", SELFSIM, ProfileState.initial(k=1.0), 1, 0.9953835784),
    ("selfsimilar-k1-bwd", SELFSIM, ProfileState.initial(k=1.0), -1, -0.9953835784),
    ("steady-0", STEADY, _seeded(0), 1, 2.5045492633),
    ("steady-1", STEADY, _seeded(1), -1, -0.1652549275),
    ("steady-2", STEADY, _seeded(2), 1, 1.1973057020),
    ("steady-3", STEADY, _seeded(3), -1, -1.4522201134),
    ("selfsimilar-0", SELFSIM, _seeded(0), 1, 2.7808583850),
    ("selfsimilar-1", SELFSIM, _seeded(1), -1, -0.1643486037),
    ("selfsimilar-2", SELFSIM, _seeded(2), 1, 1.2097097671),
    ("selfsimilar-3", SELFSIM, _seeded(3), -1, -1.2723919267),
    ("travelling_1_0-0", SolitonKind.travelling(1.0, 0.0), _seeded(0), 1, 0.8886852320),
    ("travelling_1_0-1", SolitonKind.travelling(1.0, 0.0), _seeded(1), -1, -0.1705133412),
    ("travelling_1_0-2", SolitonKind.travelling(1.0, 0.0), _seeded(2), 1, 1.1872424433),
    ("travelling_1_0-3", SolitonKind.travelling(1.0, 0.0), _seeded(3), -1, -5.2687969836),
    ("travelling_1_1-0", SolitonKind.travelling(1.0, 1.0), _seeded(0), 1, 0.6594157783),
    ("travelling_1_1-1", SolitonKind.travelling(1.0, 1.0), _seeded(1), -1, -0.1734982190),
    ("travelling_1_1-2", SolitonKind.travelling(1.0, 1.0), _seeded(2), 1, 1.0384087202),
    ("travelling_1_1-3", SolitonKind.travelling(1.0, 1.0), _seeded(3), -1, -1.4216174170),
    ("travelling_0_1-0", SolitonKind.travelling(0.0, 1.0), _seeded(0), 1, 1.2087723085),
    ("travelling_0_1-1", SolitonKind.travelling(0.0, 1.0), _seeded(1), -1, -0.1675913526),
    ("travelling_0_1-2", SolitonKind.travelling(0.0, 1.0), _seeded(2), 1, 1.0393891209),
    ("travelling_0_1-3", SolitonKind.travelling(0.0, 1.0), _seeded(3), -1, -1.0643502372),
]


@pytest.mark.parametrize(
    "kind, init, direction, y_event",
    [row[1:] for row in _Y_EVENT_TABLE],
    ids=[row[0] for row in _Y_EVENT_TABLE],
)
def test_selfsimilar_unit_curvature_regression(kind, init, direction, y_event):
    # no entire nonlinear profile exists, so a certificate must appear;
    # the event location is a frozen regression value
    traj = integrate(kind, init, direction, 200.0)
    assert traj.outcome == "breakdown"
    assert traj.certificate.y_event == pytest.approx(y_event, abs=1e-6)


def test_trajectory_theta_resolution():
    traj = integrate(SELFSIM, ProfileState.initial(k=1.0), 1, 200.0)
    dtheta = np.abs(np.diff(np.arctan(traj.psi)))
    assert np.max(dtheta) <= 0.0101


def test_integrate_argument_validation():
    init = ProfileState.initial(k=1.0)
    with pytest.raises(ValueError):
        integrate(STEADY, init, 0, 10.0)
    with pytest.raises(ValueError):
        integrate(STEADY, init, 1, -1.0)
    with pytest.raises(ValueError):
        integrate(STEADY, init, 1, 10.0, IntegratorOptions(abs_tol=-1.0))
    with pytest.raises(ValueError):
        integrate(STEADY, ProfileState(0, math.nan, 0, 0, 0, 0), 1, 10.0)


@pytest.mark.parametrize("field, value", [
    ("abs_tol", math.nan), ("rel_tol", math.inf), ("sample_h", math.nan),
    ("sample_h", math.inf), ("sample_h", 0.0),
])
def test_options_must_be_positive_and_finite(field, value):
    init = ProfileState.initial(k=1.0)
    with pytest.raises(ValueError):
        integrate(STEADY, init, 1, 10.0, IntegratorOptions(**{field: value}))


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0])
def test_budget_must_be_positive_and_finite(budget):
    with pytest.raises(ValueError):
        integrate(STEADY, ProfileState.initial(psi=1.0), 1, budget)
    with pytest.raises(ValueError):
        shoot_batch(STEADY, [ProfileState.initial(psi=1.0)], budget)


def test_integration_is_deterministic():
    init = ProfileState.initial(phi=0.3, psi=-0.4, k=0.6, w=0.1)
    a = integrate(SELFSIM, init, 1, 200.0)
    b = integrate(SELFSIM, init, 1, 200.0)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.S, b.S)


def test_arc_length_monotone():
    traj = integrate(SELFSIM, ProfileState.initial(k=0.5, w=0.2), 1, 200.0)
    dS = np.diff(traj.S)
    dy = np.diff(traj.y)
    assert np.all(dS >= dy - 1e-12)  # dS/dy = v >= 1
    assert np.all(dS > 0)


def test_theta_stays_graphical():
    traj = integrate(SELFSIM, ProfileState.initial(k=1.0), 1, 200.0)
    theta = np.arctan(traj.psi)
    assert np.max(np.abs(theta)) < math.pi / 2
    assert np.max(theta) - np.min(theta) < math.pi


# -------------------------------------------------------------- classification

def test_shoot_linear_is_trivial():
    report = shoot_bidirectional(STEADY, ProfileState.initial(psi=1.0), 100.0)
    assert report.outcome == "trivial"
    assert report.max_abs_k <= 1e-9
    assert report.total_turning <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    A=st.floats(-5.0, 5.0),
    a=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
)
def test_lines_are_exact_fixed_points(A, a):
    # lines of every kind: through the origin for the self-similar kind,
    # direction (a, a A) for the travelling kind
    for kind in (STEADY, SELFSIM, SolitonKind.travelling(a, a * A)):
        report = shoot_bidirectional(kind, ProfileState.initial(psi=A), 10.0, store=False)
        assert report.outcome == "trivial", (kind, A)
        assert report.max_abs_k == 0.0
        assert report.total_turning == 0.0


def test_linear_equilibria_all_kinds():
    for A in (-2.0, 0.0, 1.0):
        kinds = [STEADY, SELFSIM, SolitonKind.travelling(1.0, A)]
        for kind in kinds:
            report = shoot_bidirectional(kind, ProfileState.initial(psi=A), 100.0)
            assert report.outcome == "trivial", (kind, A)
            err_f = np.max(np.abs(report.forward.phi - A * report.forward.y))
            err_b = np.max(np.abs(report.backward.phi - A * report.backward.y))
            assert max(err_f, err_b) <= 1e-8


def test_shoot_travelling_vertical_breaks_down():
    kind = SolitonKind.travelling(0.0, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        init = sample_initial_state(rng)
        report = shoot_bidirectional(kind, init, 200.0, store=False)
        assert report.outcome == "breakdown"


def test_steady_first_integrals_long_range():
    # small a keeps the profile alive past |y| = 50
    opts = IntegratorOptions()
    for direction in (1, -1):
        traj = integrate(STEADY, ProfileState.initial(w=1e-4), direction, 50.0, opts)
        assert traj.outcome == "completed"
        assert np.max(np.abs(traj.w - 1e-4)) <= 1e-8
        assert np.max(np.abs(traj.k - 1e-4 * traj.S)) <= 1e-7


def test_sweep_deterministic_and_all_breakdown():
    a = run_sweep(SELFSIM, 8, seed=11)
    b = run_sweep(SELFSIM, 8, seed=11)
    for ra, rb in zip(a, b):
        assert ra.outcome == rb.outcome == "breakdown"
        assert ra.certificate.y_event == rb.certificate.y_event
        assert ra.init == rb.init


def test_sample_initial_state_respects_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = sample_initial_state(rng)
        assert -2 <= s.phi <= 2 and -2 <= s.psi <= 2
        assert -1 <= s.k <= 1 and -1 <= s.w <= 1
        assert abs(s.k) + abs(s.w) >= 1e-3


# ------------------------------------------------------- reduction consistency

def test_uniform_grid_lies_on_the_circle():
    # constant curvature b from a horizontal tangent at the origin traces the
    # circle of radius 1/b about (0, 1/b), with S the angle swept over b; the
    # grid points are the dense output at S = j h, up to the vertical at S = pi
    b = 0.5
    traj = integrate(STEADY, ProfileState.initial(k=b), 1, 200.0, IntegratorOptions(sample_h=1e-2))
    assert traj.outcome == "breakdown"
    assert traj.n == 315
    assert np.allclose(np.diff(traj.S), 1e-2, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(np.hypot(traj.y, traj.phi - 1.0 / b) - 1.0 / b)) <= 1e-8
    assert np.max(np.abs(np.arctan2(traj.y, 1.0 / b - traj.phi) / b - traj.S)) <= 1e-8


def test_redundant_derivative_exact_line():
    traj = integrate(STEADY, ProfileState.initial(psi=0.5), 1, 10.0)
    assert reduction_residual(traj).max_residual <= 1e-12


def test_redundant_derivative_integrated():
    opts = IntegratorOptions(sample_h=1e-3)
    traj = integrate(SELFSIM, ProfileState.initial(phi=0.5, psi=0.3, k=0.4, w=0.2), 1, 0.8, opts)
    assert traj.n > 100
    assert reduction_residual(traj).max_residual <= 1e-4


def test_redundant_derivative_detects_corruption():
    opts = IntegratorOptions(sample_h=1e-3)
    traj = integrate(SELFSIM, ProfileState.initial(k=0.3), 1, 0.5, opts)
    clean = reduction_residual(traj).max_residual
    traj.psi[traj.n // 2] += 1e-3
    assert reduction_residual(traj).max_residual > max(10.0 * clean, 1e-4)


def test_redundant_derivative_needs_samples():
    traj = integrate(STEADY, ProfileState.initial(psi=0.5), 1, 10.0)
    short = Trajectory(
        kind=traj.kind, direction=traj.direction, y=traj.y[:3], phi=traj.phi[:3],
        psi=traj.psi[:3], k=traj.k[:3], w=traj.w[:3], S=traj.S[:3], outcome="completed",
        certificate=None, max_abs_k=0.0, max_turning=0.0,
    )
    with pytest.raises(ValueError):
        reduction_residual(short)


# ------------------------------------------------------------------- artifacts

def test_trajectory_csv_roundtrip():
    opts = IntegratorOptions(sample_h=1e-2)
    traj = integrate(SolitonKind.travelling(1.0, 0.5), ProfileState.initial(k=0.2), 1, 0.3, opts)
    back = Trajectory.from_csv(traj.to_csv())
    assert back.kind == traj.kind
    assert back.direction == traj.direction
    assert back.outcome == traj.outcome
    assert np.array_equal(back.y, traj.y)
    assert np.array_equal(back.k, traj.k)


def test_trajectory_csv_rejects_garbage():
    with pytest.raises(ValueError):
        Trajectory.from_csv("not,a,trajectory\n1,2,3\n")
    good = integrate(STEADY, ProfileState.initial(psi=1.0), 1, 1.0).to_csv()
    truncated = "\n".join(good.splitlines()[:-1]) + "\n1.0,2.0\n"
    with pytest.raises(ValueError):
        Trajectory.from_csv(truncated)


def test_report_json_contents():
    report = shoot_bidirectional(STEADY, ProfileState.initial(k=0.5), 50.0, seed=3)
    payload = json.loads(report_json(report))
    assert payload["outcome"] == "breakdown"
    assert payload["certificate"]["type"] == "angle_excess"
    assert payload["certificate"]["detail"]["value"] > math.pi
    assert payload["kind"]["name"] == "steady"
    assert payload["seed"] == 3
    assert payload["options"] == {"abs_tol": 1e-10, "rel_tol": 1e-10, "sample_h": None}


def test_certificate_invariants_enforced():
    with pytest.raises(ValueError):
        BreakdownCertificate("angle_excess", 0.0, 1, {"value": 3.0})
    with pytest.raises(ValueError):
        BreakdownCertificate("graphicality_loss", 0.0, 1, {"slope": 10.0, "ceiling": 1e6})


# ------------------------------------------------------------------ lane batches

def _cauchy(a, b, j):
    """(a b)_j = a_0 b_j + a_1 b_{j-1} + ... + a_j b_0, added left to right."""
    total = a[0] * b[j]
    for i in range(1, j + 1):
        total += a[i] * b[j - i]
    return total


def _scalar_series(kind, u):
    """The Taylor coefficients of one lane, per component, by the recurrences
    written out with Python floats: the reference for the batch's series."""
    y, phi, c, s, theta, k, w, chi = ([x] for x in u)
    p = []  # y c + phi s
    for j in range(_ORDER):
        n = j + 1
        kc, ks = _cauchy(k, c, j), _cauchy(k, s, j)
        if kind.name == "steady":
            dw, dchi = 0.0, 0.0
        elif kind.name == "selfsimilar":
            p.append(_cauchy(y, c, j) + _cauchy(phi, s, j))
            dw, dchi = -0.25 * chi[j], -_cauchy(k, p, j)
        else:
            dw, dchi = chi[j], kind.a * kc + kind.b * ks
        for series, slope in ((y, c[j]), (phi, s[j]), (c, -ks), (s, kc), (theta, k[j]),
                              (k, w[j]), (w, dw), (chi, dchi)):
            series.append(slope / n)
    return [y, phi, c, s, theta, k, w, chi]


def _scalar_at(coefs, dt):
    """One component's polynomial at dt by Horner's rule, with Python floats."""
    value = coefs[-1]
    for coef in reversed(coefs[:-1]):
        value = value * dt + coef
    return value


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


_component = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-50.0, 50.0)
_kinds = st.sampled_from([STEADY, SELFSIM, SolitonKind.travelling(1.0, -0.5)])
_lane_state = st.tuples(*[_component] * 8)
_step_size = (st.sampled_from([1.0, -1.0, 1e-3]) | st.floats(-1.0, 1.0)).filter(bool)


@settings(max_examples=200, deadline=None)
@given(kind=_kinds, lanes=st.lists(st.tuples(_lane_state, _step_size), min_size=1, max_size=7))
# theta and its slope k both -0.0
@example(kind=STEADY, lanes=[((0.0, 0.0, 1.0, 0.0, -0.0, -0.0, -0.0, 0.0), 1.0)])
def test_batched_step_matches_scalar_step_bit_for_bit(kind, lanes):
    # every coefficient and the step's end state, at any batch size
    u = np.array([state for state, _ in lanes]).T.copy()
    h = np.array([h for _, h in lanes])
    x = _series(kind, u)
    assert x.shape == (_ORDER + 1, 8, len(lanes))
    u1 = _horner(x[::-1], h)
    for m, (state, hm) in enumerate(lanes):
        ref = _scalar_series(kind, state)
        assert _bits(x[:, :, m].T) == _bits(ref)
        # the first coefficient is the right-hand side itself
        assert _bits(x[1, :, m]) == _bits(vector_field(kind)(state))
        assert _bits(u1[:, m]) == _bits([_scalar_at(coefs, hm) for coefs in ref])


_ROW_COMPONENTS = (0, 1, 4, 5, 6)  # y, phi, theta, k, w


def _batch_rows(kind, lanes, requests, sample_h):
    """Rows of every lane's request, split per lane, checking the end indices."""
    u = np.array([state for state, _ in lanes]).T.copy()
    h = np.array([h for _, h in lanes])
    rows, ends = _sample_rows(_series(kind, u), h, requests, sample_h)
    assert ends.tolist() == np.cumsum([r[1] for r in requests]).tolist()
    return np.split(rows, ends[:-1])


def _scalar_row(ref, S, dt):
    return (S, *(_scalar_at(ref[i], dt) for i in _ROW_COMPONENTS))


_count = st.sampled_from([1, 2, 3]) | st.integers(1, 2000)


@settings(max_examples=200, deadline=None)
@given(_kinds, st.lists(st.tuples(_lane_state, _step_size, _component, _count,
                                  st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
                                  st.tuples(*[_component] * 6)),
                        min_size=1, max_size=5))
# a row at -0.0 offset and an end row of signed zeros
@example(STEADY, [((0.0, -0.0, 1.0, -0.0, -0.0, 0.0, -0.0, 0.0), 1.0, -0.0, 1, 1.0,
                   (1.0,) + (-0.0,) * 5)])
def test_batch_substeps_match_dense_output_bit_for_bit(kind, lanes):
    # rows at S = s + (t_end tau) h for fractions f = j / count of the turning
    # of a curvature linear from k0 to k1 (of S where they differ in sign),
    # the last replaced by the end row, on whole steps (t_end = 1) and on event
    # steps alike
    requests = [(s, count, t_end, end_row) for _, _, s, count, t_end, end_row in lanes]
    for (state, h, s, count, t_end, end_row), rows in zip(
            lanes, _batch_rows(kind, [lane[:2] for lane in lanes], requests, None), strict=True):
        ref = _scalar_series(kind, state)
        k0, k1 = state[5], end_row[4]
        expected = []
        for j in range(1, count):
            f = j / count
            tau = f
            if k0 * k1 > 0.0:
                tau = f * (k0 + k1) / (k0 + math.copysign(math.sqrt((1.0 - f) * k0 * k0
                                                                   + f * k1 * k1), k0))
            dt = t_end * tau * h
            expected.append(_scalar_row(ref, s + dt, dt))
        expected.append(end_row)
        assert _bits(rows) == _bits(expected)


@settings(max_examples=200, deadline=None)
@given(_kinds, st.lists(st.tuples(_lane_state, _step_size, _component, _count,
                                  st.integers(1, 10**6)),
                        min_size=1, max_size=5),
       st.sampled_from([0.01, 0.001]) | st.floats(1e-4, 1.0))
def test_uniform_grid_rows_match_scalar_dense_output_bit_for_bit(kind, lanes, sample_h):
    # row j of a lane with direction d lies at S = (d j) sample_h, read off
    # the step's polynomial at S - s, with no end row
    requests = [(s, count, first) for _, _, s, count, first in lanes]
    for (state, h, s, count, first), rows in zip(
            lanes, _batch_rows(kind, [lane[:2] for lane in lanes], requests, sample_h),
            strict=True):
        ref = _scalar_series(kind, state)
        direction = 1 if h > 0 else -1
        expected = []
        for j in range(first, first + count):
            target = direction * j * sample_h
            expected.append(_scalar_row(ref, target, target - s))
        assert _bits(rows) == _bits(expected)


def _assert_same_report(a, b):
    assert report_json(a) == report_json(b)
    for ta, tb in ((a.forward, b.forward), (a.backward, b.backward)):
        assert (ta is None) == (tb is None)
        if ta is not None:
            for name in ("y", "phi", "psi", "k", "w", "S"):
                assert _bits(getattr(ta, name)) == _bits(getattr(tb, name)), name
            assert (ta.outcome, ta.max_abs_k, ta.max_turning) == (tb.outcome, tb.max_abs_k, tb.max_turning)


# one self-similar lane per control path, for a 0.5 budget, steps of at
# most 1 and at least 1e-14: (initial state, certificate or outcome)
_EDGE_LANES = [
    (dict(psi=0.5), "trivial"),  # a line
    (dict(psi=0.3, k=1e-6), "inconclusive"),  # the budget ends inside the first step
    (dict(psi=2e6), "graphicality_loss"),  # starts above the slope ceiling
    (dict(k=20.0), "angle_excess"),
    (dict(phi=1.51, psi=0.73, k=1.9, w=2.5), "graphicality_loss"),
    (dict(k=1e8), "angle_excess"),  # a circle of radius 1e-8, in two steps of 1.7e-8
    (dict(k=1e15), "step_underflow"),  # its first step is below 1e-14
    (dict(phi=1e308, k=1e308), "non_finite"),
]


@pytest.mark.parametrize("store, sample_h", [(True, None), (True, 0.01), (False, None)])
def test_edge_lanes_match_their_batch_of_one(store, sample_h):
    opts = IntegratorOptions(sample_h=sample_h)
    inits = [ProfileState.initial(**state) for state, _ in _EDGE_LANES]
    batch = shoot_batch(SELFSIM, inits, 0.5, opts, store=store)
    for (state, expected), init, report in zip(_EDGE_LANES, inits, batch, strict=True):
        assert (report.certificate.kind if report.certificate else report.outcome) == expected
        _assert_same_report(report, shoot_bidirectional(SELFSIM, init, 0.5, opts, store=store))
    if store and sample_h is None:
        # one accepted step, then the budget: the initial sample and the end
        assert batch[1].forward.n == batch[1].backward.n == 2
        assert 0.5 < batch[1].forward.S[-1] < 1.0


_state = st.tuples(*[st.sampled_from([0.0, -0.0, 1e-7, -3.0]) | st.floats(-2.0, 2.0)] * 4)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from([STEADY, SELFSIM, SolitonKind.travelling(-0.7, 2.5)]),
    states=st.lists(_state, min_size=2, max_size=5),
    budget=st.sampled_from([0.05, 0.5, 3.0]),
    opts=st.builds(IntegratorOptions, sample_h=st.sampled_from([None, 0.01])),
    store=st.booleans(),
)
def test_random_batches_match_batches_of_one(kind, states, budget, opts, store):
    # lanes of one batch end, reject and sample at different steps
    inits = [ProfileState.initial(*state) for state in states]
    for init, report in zip(inits, shoot_batch(kind, inits, budget, opts, store), strict=True):
        _assert_same_report(report, shoot_bidirectional(kind, init, budget, opts, store))


@pytest.mark.parametrize("kind", CRITERION_KINDS, ids=lambda k: f"{k.name}_{k.a:g}_{k.b:g}")
def test_reports_invariant_to_batch_size_and_workers(kind):
    from sdflow import seeded_initial_states, shoot_batch as exported

    inits = [sample_initial_state(np.random.default_rng([2027, i])) for i in range(100)]
    assert exported is shoot_batch
    assert seeded_initial_states(2027, 0, 100) == inits
    expected = [report_json(shoot_bidirectional(kind, init, 200.0, store=False, seed=2027))
                for init in inits]
    sevens = [report for i in range(0, 100, 7)
              for report in shoot_batch(kind, inits[i:i + 7], 200.0, store=False, seed=2027)]
    assert [report_json(r) for r in sevens] == expected
    assert [report_json(r) for r in shoot_batch(kind, inits, 200.0, store=False, seed=2027)] == expected
    assert [report_json(r) for r in run_sweep(kind, 100, 2027)] == expected


@pytest.mark.parametrize("sample_h", [None, 0.01])
def test_stored_batch_trajectories_match_batch_of_one(sample_h):
    opts = IntegratorOptions(sample_h=sample_h)
    for kind in CRITERION_KINDS:
        inits = [sample_initial_state(np.random.default_rng([2028, i])) for i in range(7)]
        for init, report in zip(inits, shoot_batch(kind, inits, 200.0, opts), strict=True):
            _assert_same_report(report, shoot_bidirectional(kind, init, 200.0, opts))
            one = integrate(kind, init, -1, 200.0, opts)
            for name in ("y", "phi", "psi", "k", "w", "S"):
                assert _bits(getattr(one, name)) == _bits(getattr(report.backward, name))
