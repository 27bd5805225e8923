"""Power flow: injection evaluation, quadratic-form identities, Newton."""

import math

import numpy as np
import pytest

from hostcap.netmodel import build_ybus
from hostcap.powerflow import (
    PowerFlowError,
    VoltageState,
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


def _flat(net):
    return VoltageState(magnitudes=np.ones(net.n), angles=np.zeros(net.n))


def test_zero_injection_flat_fixed_point(net8):
    state = solve_newton(net8, _flat(net8), np.zeros(8), np.zeros(8), pq=net8.free)
    np.testing.assert_allclose(state.magnitudes, 1.0, atol=1e-12)
    np.testing.assert_allclose(state.angles, 0.0, atol=1e-12)


def test_pq_schedule_reproduces_marked_point(net3):
    p = np.array([0.0, 0.1575, -0.095])
    state = solve_newton(net3, _flat(net3), p, np.zeros(3), pq=[1, 2], tol=1e-10)
    inj = evaluate_injections(net3, state)
    assert abs(inj.p[1] - 0.1575) < 1e-8
    assert abs(inj.p[2] + 0.095) < 1e-8
    np.testing.assert_allclose(state.angles, 0.0, atol=1e-9)
    np.testing.assert_allclose(state.magnitudes, [1.0, 1.05, 0.95], atol=1e-9)


def test_solved_state_reproduces_setpoints(net8):
    p = np.array([-b.load_p for b in net8.buses])
    q = np.array([-b.load_q for b in net8.buses])
    p[3], q[3] = 0.1, -0.02
    state = solve_newton(net8, _flat(net8), p, q, pq=net8.free, tol=1e-9)
    inj = evaluate_injections(net8, state)
    assert abs(inj.p[3] - 0.1) < 1e-9
    assert abs(inj.q[3] + 0.02) < 1e-9


def test_nonconvergence_reports_mismatch(net3):
    # drawing 100 p.u. through a 1 p.u. resistance has no solution
    p = np.array([0.0, -100.0, 0.0])
    with pytest.raises(PowerFlowError) as err:
        solve_newton(net3, _flat(net3), p, np.zeros(3), pq=[1, 2], max_iter=10)
    assert err.value.mismatch is None or err.value.mismatch > 0


@pytest.mark.parametrize("short", ["p", "q", "x0"])
def test_schedule_and_start_need_one_entry_per_bus(net3, short):
    args = {"x0": _flat(net3), "p": np.zeros(3), "q": np.zeros(3)}
    args[short] = _flat(load_fixture("4bus.case")) if short == "x0" else np.zeros(2)
    with pytest.raises(ValueError, match="one entry per bus"):
        solve_newton(net3, pq=[1, 2], **args)


def test_buses_outside_pq_hold_their_start_phasor(net8):
    start = random_state(net8)
    p = np.array([-b.load_p for b in net8.buses])
    state = solve_newton(net8, start, p, np.zeros(8), pq=[2, 5], tol=1e-10)
    held = [0, 1, 3, 4, 6, 7]
    assert state.magnitudes[held].tobytes() == start.magnitudes[held].tobytes()
    assert state.angles[held].tobytes() == start.angles[held].tobytes()
    inj = evaluate_injections(net8, state)
    np.testing.assert_allclose(inj.p[[2, 5]], p[[2, 5]], atol=1e-10)
