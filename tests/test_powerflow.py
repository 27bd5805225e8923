"""Power flow: injection evaluation, quadratic-form identities, Newton."""

import math

import numpy as np
import pytest

from hostcap.netmodel import BusKind, build_ybus
from hostcap.powerflow import (
    BusSetpoint,
    PowerFlowError,
    VoltageState,
    base_setpoints,
    evaluate_injections,
    solve_newton,
)

from conftest import load_fixture
from reference import polar_form_total, quadratic_form_total, v_im, v_re

RNG = np.random.default_rng(20240817)


def injections_by_hand(net, state):
    """Independent term-by-term evaluation of the polar injection sums."""
    n = net.n
    ybus = build_ybus(net)
    g, b = ybus.real, ybus.imag
    vm, va = state.magnitudes, state.angles
    p = np.zeros(n)
    q = np.zeros(n)
    for i in range(n):
        for k in range(n):
            t = va[i] - va[k]
            p[i] += vm[i] * vm[k] * (g[i, k] * math.cos(t) + b[i, k] * math.sin(t))
            q[i] += vm[i] * vm[k] * (g[i, k] * math.sin(t) - b[i, k] * math.cos(t))
    return p, q


def random_state(net, lo=0.9, hi=1.1, max_angle=0.2):
    vm = RNG.uniform(lo, hi, net.n)
    va = RNG.uniform(-max_angle, max_angle, net.n)
    va[net.slack_index] = 0.0
    return VoltageState(magnitudes=vm, angles=va)


# --- evaluate_injections -----------------------------------------------------


def test_three_bus_marked_point(net3):
    state = VoltageState(magnitudes=np.array([1.0, 1.05, 0.95]), angles=np.zeros(3))
    inj = evaluate_injections(net3, state)
    np.testing.assert_allclose(inj.p, [-0.05, 0.1575, -0.095], atol=1e-12)
    np.testing.assert_allclose(inj.q, 0.0, atol=1e-12)


def test_flat_start_is_zero(net8):
    state = VoltageState(magnitudes=np.ones(8), angles=np.zeros(8))
    inj = evaluate_injections(net8, state)
    np.testing.assert_allclose(inj.p, 0.0, atol=1e-12)
    np.testing.assert_allclose(inj.q, 0.0, atol=1e-12)


def test_matches_term_by_term_oracle(net8):
    for _ in range(5):
        state = random_state(net8)
        inj = evaluate_injections(net8, state)
        p, q = injections_by_hand(net8, state)
        np.testing.assert_allclose(inj.p, p, atol=1e-10)
        np.testing.assert_allclose(inj.q, q, atol=1e-10)


def test_dimension_mismatch_rejected(net3):
    state = VoltageState(magnitudes=np.ones(4), angles=np.zeros(4))
    with pytest.raises(ValueError, match="buses"):
        evaluate_injections(net3, state)


# --- quadratic-form identities ----------------------------------------------


@pytest.mark.parametrize("name", ["3bus.case", "3bus_complex.case", "8bus.case", "123bus.case"])
def test_total_active_power_identities(name):
    net = load_fixture(name)
    for _ in range(3):
        state = random_state(net)
        total = float(evaluate_injections(net, state).p.sum())
        assert quadratic_form_total(net, state) == pytest.approx(total, abs=1e-10)
        assert polar_form_total(net, state) == pytest.approx(total, abs=1e-10)


def test_rect_and_polar_views_agree(net8):
    state = random_state(net8)
    v = state.phasors
    np.testing.assert_allclose(v.real, v_re(state), atol=1e-12)
    np.testing.assert_allclose(v.imag, v_im(state), atol=1e-12)


# --- Newton solve -------------------------------------------------------------


def _zero_spec(net):
    return tuple(
        BusSetpoint(kind=BusKind.SLACK, vm=1.0)
        if b.kind is BusKind.SLACK
        else BusSetpoint(kind=BusKind.LOAD, p=0.0, q=0.0)
        for b in net.buses
    )


def test_zero_injection_flat_fixed_point(net8):
    state = solve_newton(net8, _zero_spec(net8))
    np.testing.assert_allclose(state.magnitudes, 1.0, atol=1e-12)
    np.testing.assert_allclose(state.angles, 0.0, atol=1e-12)


def test_pv_spec_reproduces_marked_point(net3):
    spec = (
        BusSetpoint(kind=BusKind.SLACK, vm=1.0),
        BusSetpoint(kind=BusKind.GEN, p=0.1575, vm=1.05),
        BusSetpoint(kind=BusKind.GEN, p=-0.095, vm=0.95),
    )
    state = solve_newton(net3, spec, tol=1e-10)
    inj = evaluate_injections(net3, state)
    assert abs(inj.p[1] - 0.1575) < 1e-8
    assert abs(inj.p[2] + 0.095) < 1e-8
    np.testing.assert_allclose(state.angles, 0.0, atol=1e-9)


def test_solved_state_reproduces_setpoints(net8):
    spec = list(base_setpoints(net8))
    spec[3] = BusSetpoint(kind=BusKind.LOAD, p=0.1, q=-0.02)
    state = solve_newton(net8, tuple(spec), tol=1e-9)
    inj = evaluate_injections(net8, state)
    assert abs(inj.p[3] - 0.1) < 1e-9
    assert abs(inj.q[3] + 0.02) < 1e-9


def test_nonconvergence_reports_mismatch(net3):
    # drawing 100 p.u. through a 1 p.u. resistance has no solution
    spec = (
        BusSetpoint(kind=BusKind.SLACK, vm=1.0),
        BusSetpoint(kind=BusKind.LOAD, p=-100.0, q=0.0),
        BusSetpoint(kind=BusKind.LOAD, p=0.0, q=0.0),
    )
    with pytest.raises(PowerFlowError) as err:
        solve_newton(net3, spec, max_iter=10)
    assert err.value.mismatch is None or err.value.mismatch > 0
