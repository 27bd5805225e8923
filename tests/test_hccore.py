"""Constructive solver stages: patterns, critical angle, thermal, pf."""

import dataclasses
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hostcap.hccore import (
    AdjustmentError,
    ConstraintSet,
    InfeasibleError,
    _power_factor,
    adjust_power_factor,
    adjust_thermal,
    critical_angle,
    finalize_solution,
    pf_q_bounds,
    solve_hc,
    solve_hc_stages,
    solve_voltage_only,
    solve_with_angle,
    verify,
)
from hostcap.netmodel import Branch, Bus, BusKind, Network, build_ybus, parse_case
from hostcap.powerflow import InjectionProfile, VoltageState

from conftest import FIXTURE_DIR, load_fixture

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

RNG = np.random.default_rng(911)


def with_lambda(net, lam):
    buses = tuple(dataclasses.replace(b, lam=float(l)) for b, l in zip(net.buses, lam))
    return dataclasses.replace(net, buses=buses)


def without_limits(net):
    return dataclasses.replace(
        net, branches=tuple(dataclasses.replace(b, thermal_limit=None) for b in net.branches)
    )


def with_limit(net, branch_index, cap):
    branches = list(net.branches)
    branches[branch_index] = dataclasses.replace(branches[branch_index], thermal_limit=cap)
    return dataclasses.replace(net, branches=tuple(branches))


# --- weighted objective -------------------------------------------------------


def hc_at(net, state):
    """The objective sum_i lambda_i * P_i at ``state``, as ``finalize_solution`` totals it."""
    return finalize_solution(net, ConstraintSet(), state, stage="test").hc_total


def test_weighted_hc_three_bus_solution(net3):
    state = VoltageState(magnitudes=np.array([1.0, 1.05, 0.95]), angles=np.zeros(3))
    assert hc_at(net3, state) == pytest.approx(0.1575 - 0.095, abs=1e-12)


def test_weighted_hc_zero_weights(net3):
    state = VoltageState(magnitudes=np.array([1.0, 1.05, 0.95]), angles=np.zeros(3))
    assert hc_at(with_lambda(net3, [0, 0, 0]), state) == 0.0


def test_weighted_hc_indicator_subset(net8):
    sol = solve_voltage_only(net8, ConstraintSet())
    lam = [0.0] * 8
    for i in (2, 5, 7):
        lam[i] = 1.0
    subset = with_lambda(net8, lam)
    expected = float(sol.injections.p[[2, 5, 7]].sum())
    assert hc_at(subset, sol.state) == pytest.approx(expected, abs=1e-12)


def test_objective_scale_equivariance(net8):
    c = ConstraintSet()
    base = solve_hc(net8, c)
    scaled = solve_hc(with_lambda(net8, [3.0 * b.lam for b in net8.buses]), c)
    assert scaled.hc_total == pytest.approx(3.0 * base.hc_total, rel=1e-12)
    np.testing.assert_array_equal(scaled.state.magnitudes, base.state.magnitudes)
    np.testing.assert_array_equal(scaled.state.angles, base.state.angles)


# --- critical angle -----------------------------------------------------------


def test_critical_angle_reference_value():
    assert critical_angle(1.05, 0.95) == pytest.approx(0.3098, abs=5e-4)
    assert critical_angle(1.05, 0.95) == pytest.approx(math.acos(2.0 / 2.1), abs=1e-15)


def test_critical_angle_degenerate_box():
    assert critical_angle(1.0, 1.0) == 0.0


def test_critical_angle_wide_box():
    assert critical_angle(1.10, 0.90) == pytest.approx(math.acos(2.0 / 2.2), abs=1e-15)
    assert critical_angle(1.10, 0.90) == pytest.approx(0.4297, abs=1e-4)


# --- stage 1: magnitude box only ----------------------------------------------


def test_voltage_only_three_bus(net3):
    sol = solve_voltage_only(net3, ConstraintSet())
    np.testing.assert_allclose(sol.state.magnitudes, [1.0, 1.05, 0.95], atol=1e-15)
    np.testing.assert_allclose(sol.state.angles, 0.0, atol=1e-15)
    assert sol.hc_total == pytest.approx(0.0625, abs=1e-12)
    assert sol.stage == "voltage_pattern"
    assert 1 in sol.binding["v_max"] and 2 in sol.binding["v_min"]


def test_voltage_only_degenerate_box(net3):
    sol = solve_voltage_only(net3, ConstraintSet(v_min=1.0, v_max=1.0))
    np.testing.assert_allclose(sol.state.magnitudes, 1.0, atol=1e-15)
    assert sol.hc_total == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "name", ["3bus.case", "4bus.case", "4bus_star.case", "5bus.case"]
)
def test_voltage_only_dominates_random_sampling(name):
    # uniform weights over *all* buses make the objective the branch
    # quadratic form, which the alternating pattern maximizes termwise
    net = with_lambda(load_fixture(name), [1.0] * load_fixture(name).n)
    c = ConstraintSet()
    best = solve_voltage_only(net, c).hc_total
    mags = RNG.uniform(c.v_min, c.v_max, size=(10_000, net.n))
    mags[:, net.slack_index] = net.slack_vm
    # real voltages, zero angles: P_i = V_i * sum_k G_ik V_k
    p = mags * (mags @ build_ybus(net).real.T)
    samples = p @ net.lam
    assert np.all(samples <= best + 1e-12)
    assert np.any(samples < best - 1e-6)


# --- stage 2: angle bound -----------------------------------------------------


def test_angle_above_critical_all_high(net3):
    sol = solve_with_angle(net3, ConstraintSet(theta_max=0.5))
    np.testing.assert_allclose(sol.state.magnitudes[1:], 1.05, atol=1e-15)
    assert sol.state.magnitudes[0] == net3.slack_vm
    for br in net3.branches:
        dth = abs(sol.state.angles[br.from_bus] - sol.state.angles[br.to_bus])
        assert dth == pytest.approx(0.5, abs=1e-15)
    assert sol.stage == "angle_pattern"


def test_angle_below_critical_high_low(net3):
    sol = solve_with_angle(net3, ConstraintSet(theta_max=0.1))
    np.testing.assert_allclose(sol.state.magnitudes, [1.0, 1.05, 0.95], atol=1e-15)
    for br in net3.branches:
        dth = abs(sol.state.angles[br.from_bus] - sol.state.angles[br.to_bus])
        assert dth == pytest.approx(0.1, abs=1e-15)


def test_angle_zero_reduces_to_voltage_only(net8):
    c = ConstraintSet(theta_max=0.0)
    a = solve_with_angle(net8, c)
    b = solve_voltage_only(net8, c)
    np.testing.assert_array_equal(a.state.magnitudes, b.state.magnitudes)
    np.testing.assert_array_equal(a.state.angles, b.state.angles)
    assert a.hc_total == b.hc_total
    assert a.stage == b.stage
    assert a.binding == b.binding


def test_pattern_switch_at_critical_angle(net3):
    crit = critical_angle(1.05, 0.95)
    for eps, expect_high in [(1e-3, True), (-1e-3, False)]:
        theta = crit + eps
        # closed-form branch terms of the two candidate patterns
        term_hh = 1.05**2 + 1.05**2 - 2 * 1.05 * 1.05 * math.cos(theta)
        term_hl = 1.05**2 + 0.95**2 - 2 * 1.05 * 0.95 * math.cos(theta)
        assert (term_hh > term_hl) == expect_high
        sol = solve_with_angle(net3, ConstraintSet(theta_max=theta))
        v2 = sol.state.magnitudes[2]
        assert (v2 == 1.05) == expect_high


def test_angle_capped_at_pi(net3):
    sol = solve_with_angle(net3, ConstraintSet(theta_max=10.0))
    for br in net3.branches:
        dth = abs(sol.state.angles[br.from_bus] - sol.state.angles[br.to_bus])
        assert dth == pytest.approx(math.pi, abs=1e-15)


# --- thermal correction -------------------------------------------------------


def three_bus_limited(net3, cap):
    return with_limit(net3, 1, cap)


def test_thermal_slack_limit_keeps_solution(net3):
    net = three_bus_limited(net3, 0.15)
    c = ConstraintSet()
    sol = solve_voltage_only(net, c)
    out = adjust_thermal(net, c, sol)
    assert out is sol


def test_thermal_clamp_three_bus(net3):
    net = three_bus_limited(net3, 0.08)
    c = ConstraintSet()
    sol = solve_voltage_only(net, c)
    out = adjust_thermal(net, c, sol)
    assert out.stage == "thermal_adjusted"
    np.testing.assert_allclose(out.state.magnitudes, [1.0, 1.05, 0.97], atol=1e-12)
    g = -build_ybus(net).real[1, 2]
    term_before = g * (1.05 - 0.95) ** 2
    term_after = g * (1.05 - 0.97) ** 2
    assert term_before == pytest.approx(0.01, abs=1e-12)
    assert term_after == pytest.approx(0.0064, abs=1e-12)
    assert out.hc_total < sol.hc_total


def test_thermal_zero_limit_equalizes_endpoints(net3):
    net = three_bus_limited(net3, 0.0)
    c = ConstraintSet()
    sol = solve_voltage_only(net, c)
    out = adjust_thermal(net, c, sol)
    assert out.state.magnitudes[1] == pytest.approx(out.state.magnitudes[2], abs=1e-12)
    v = out.state.phasors
    assert abs(net.branches[1].series_admittance * (v[1] - v[2])) < 1e-12
    assert out.hc_total < sol.hc_total


@pytest.mark.parametrize("cap, held", [(0.03, 1.0), (0.005, 1.02), (0.007, 0.98), (0.008, 1.01)])
def test_thermal_tie_at_a_leaf_takes_the_lower_root(net3, cap, held):
    # both roots held -+ cap give the leaf branch the same term and the objective the same value
    net = three_bus_limited(net3, cap)
    c = ConstraintSet()
    state = VoltageState(magnitudes=np.array([1.0, held, 0.95]), angles=np.zeros(3))
    out = adjust_thermal(net, c, finalize_solution(net, c, state, stage="voltage_pattern"))
    np.testing.assert_allclose(out.state.magnitudes, [1.0, held, held - cap], atol=1e-12)


def test_thermal_infeasible_limit_reports_branch():
    net = load_fixture("3bus_complex.case")
    net = with_limit(net, 1, 1e-6)
    c = ConstraintSet(theta_max=0.1)
    sol = solve_with_angle(net, c)
    with pytest.raises(InfeasibleError, match="1-2"):
        adjust_thermal(net, c, sol)


def test_thermal_feasibility_and_cap_attained(net8):
    c = ConstraintSet()
    sol = solve_hc(net8, c)
    assert verify(net8, c, sol.state.phasors).ok("thermal")
    # clamped branches sit exactly on their maximum-power curve
    v = sol.state.phasors
    for br in net8.branches:
        if br.thermal_limit is None:
            continue
        cur = abs(br.series_admittance * (v[br.from_bus] - v[br.to_bus]))
        if cur > br.thermal_limit * (1 - 1e-6):
            y2 = abs(br.series_admittance) ** 2
            g = br.series_admittance.real
            cap_power = g * br.thermal_limit**2 / y2
            i, k = br.from_bus, br.to_bus
            a, b = sol.state.magnitudes[i], sol.state.magnitudes[k]
            dth = sol.state.angles[i] - sol.state.angles[k]
            term = g * (a * a + b * b - 2 * a * b * math.cos(dth))
            assert term == pytest.approx(cap_power, abs=1e-8)


def test_thermal_never_increases_hc(net8):
    c = ConstraintSet()
    sol = solve_with_angle(net8, c)
    out = adjust_thermal(net8, c, sol)
    assert out.hc_total <= sol.hc_total + 1e-12


# --- power-factor correction ---------------------------------------------------


def test_pf_q_bounds_reference():
    lo, hi = pf_q_bounds(1.0, 0.95)
    assert hi == pytest.approx(math.sqrt(1 - 0.95**2) / 0.95, abs=1e-15)
    assert hi == pytest.approx(0.3287, abs=1e-4)
    assert lo == -hi


def test_pf_q_bounds_unity_and_zero():
    assert pf_q_bounds(1.0, 1.0) == (0.0, 0.0)
    assert pf_q_bounds(0.0, 0.95) == (0.0, 0.0)


def test_pf_satisfied_returns_same_object(net3):
    c = ConstraintSet(eta=0.5)
    sol = solve_voltage_only(net3, c)
    assert adjust_power_factor(net3, c, sol) is sol


def test_pf_clamp_on_reactive_heavy_fixture():
    net = load_fixture("8bus_pf.case")
    c = ConstraintSet(eta=0.95)
    pattern = solve_voltage_only(net, c)
    pf0 = _power_factor(pattern.injections.s)
    assert pf0[4] < 0.90 + 0.01  # natural pf near 0.90 on the heavy segment
    sol = adjust_power_factor(net, c, pattern)
    pf1 = _power_factor(sol.injections.s)
    gens = [b.id for b in net.buses if b.kind is BusKind.GEN]
    assert min(pf1[gens]) >= 0.95 - 1e-6
    # clamped buses sit on the reactive band edge
    kappa = math.sqrt(1 - 0.95**2) / 0.95
    for i in (4, 5):
        assert abs(sol.injections.q[i]) == pytest.approx(
            kappa * abs(sol.injections.p[i]), abs=1e-6
        )
    assert sol.stage == "pf_adjusted"
    assert np.all(sol.state.magnitudes[1:] <= c.v_max + 1e-9)
    assert np.all(sol.state.magnitudes[1:] >= c.v_min - 1e-9)


def test_pf_tightening_never_increases_hc():
    net = load_fixture("8bus_pf.case")
    previous = math.inf
    for eta in (0.88, 0.90, 0.93, 0.95, 0.98):
        sol = solve_hc(net, ConstraintSet(eta=eta))
        assert sol.hc_total <= previous + 1e-9
        previous = sol.hc_total


@pytest.mark.parametrize(
    "source, theta, eta",
    [("8bus_pf.case", 0.0, 0.95), ((20, 2), 0.0, 0.8), ((20, 4), 0.05, 0.95), ((60, 4), 0.004, 0.8)],
    ids=["8bus_pf", "feeder20-2", "feeder20-4", "feeder60-4"],
)
def test_pf_stage_holds_every_unconverted_bus_bit_for_bit(monkeypatch, source, theta, eta):
    import hostcap.hccore

    net = load_fixture(source) if isinstance(source, str) else parse_case(
        make_feeder(*source, thermal=True, loads=True).text
    )
    c = ConstraintSet(theta_max=theta, eta=eta)
    before = adjust_thermal(net, c, solve_with_angle(net, c))
    solved, newton = set(), hostcap.hccore.solve_newton

    def recording(network, x0, p, q, pq, **kwargs):
        solved.update(pq)
        return newton(network, x0, p, q, pq, **kwargs)

    monkeypatch.setattr(hostcap.hccore, "solve_newton", recording)
    after = adjust_power_factor(net, c, before)
    assert after.stage == "pf_adjusted" and solved <= set(net.gens.tolist())
    held = [b for b in range(net.n) if b not in solved]
    assert held
    assert after.state.magnitudes[held].tobytes() == before.state.magnitudes[held].tobytes()
    assert after.state.angles[held].tobytes() == before.state.angles[held].tobytes()


@pytest.mark.parametrize(
    "seed, theta, eta, message",
    [
        (3, 0.0, 0.9, r"no convergence in 100 iterations \(final mismatch"),
        (2, 0.004, 0.95, "voltage magnitude collapsed below zero$"),
    ],
)
def test_pf_resolve_failure_is_an_adjustment_error(seed, theta, eta, message):
    net = parse_case(make_feeder(20, seed, thermal=True, loads=True).text)
    with pytest.raises(AdjustmentError, match=f"^power-factor re-solve failed: {message}"):
        solve_hc_stages(net, ConstraintSet(theta_max=theta, eta=eta))


# --- full pipeline --------------------------------------------------------------


def test_solve_hc_three_bus(net3):
    sol = solve_hc(net3, ConstraintSet())
    assert sol.hc_total == pytest.approx(0.0625, abs=1e-12)
    np.testing.assert_allclose(sol.state.magnitudes, [1.0, 1.05, 0.95], atol=1e-15)


def test_solve_hc_null_objective(net8):
    net = with_lambda(net8, [0.0] * 8)
    for c in (ConstraintSet(), ConstraintSet(theta_max=0.01), ConstraintSet(v_max=1.01)):
        assert solve_hc(net, c).hc_total == 0.0


def test_solve_hc_joint_feasibility(net8):
    c = ConstraintSet(theta_max=0.008, eta=0.90)
    sol = solve_hc(net8, c)
    assert verify(net8, c, sol.state.phasors).ok("thermal")
    gens = [b.id for b in net8.buses if b.kind is BusKind.GEN]
    assert min(_power_factor(sol.injections.s)[gens]) >= 0.90 - 1e-6


def test_conductance_sign_guard(net3):
    bad_branch = Branch(0, 1, 0.5, 0.0)
    object.__setattr__(bad_branch, "r", -0.5)
    net = Network(
        buses=(Bus(0, BusKind.SLACK, lam=0.0), Bus(1, BusKind.GEN)),
        branches=(bad_branch,),
    )
    with pytest.raises(ValueError, match="conductance"):
        solve_voltage_only(net, ConstraintSet())


def test_monotone_under_single_constraint_tightening(net8):
    # spot checks; the full 4^4 sweep runs in the acceptance suite
    base = solve_hc(net8, ConstraintSet()).hc_total
    assert solve_hc(net8, ConstraintSet(v_max=1.02)).hc_total <= base + 1e-12
    wide = solve_hc(net8, ConstraintSet(theta_max=0.008)).hc_total
    assert solve_hc(net8, ConstraintSet(theta_max=0.004)).hc_total <= wide + 1e-12


def test_hc_total_is_weighted_injection_sum(net8):
    for sol in solve_hc_stages(net8, ConstraintSet(theta_max=0.004, eta=0.80)):
        assert sol.hc_total == pytest.approx(float(net8.lam @ sol.injections.p), abs=1e-10)


def test_power_factor_floor_counts_round_off_as_unity():
    # |S| at or below 1e-9 is no injection; just above it the ratio counts
    inj = InjectionProfile(p=np.array([4e-12, 0.0, 0.0]), q=np.array([-3e-12, 1e-9, 2e-9]))
    np.testing.assert_array_equal(_power_factor(inj.s), [1.0, 1.0, 0.0])


def test_solve_without_eta_never_builds_the_dense_ybus():
    for path in sorted(FIXTURE_DIR.glob("*.case")):
        net = parse_case(path.read_text())
        solve_hc(net, ConstraintSet(theta_max=0.004))
        assert not hasattr(net, "ybus"), path.name


def test_thermal_solve_at_4000_buses_stays_linear_in_memory():
    net = parse_case(make_feeder(4000, 7, thermal=True, loads=False).text)
    tracemalloc.start()
    try:
        sol = solve_hc(net, ConstraintSet(theta_max=0.004))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.stage == "thermal_adjusted"
    assert not hasattr(net, "ybus")
    assert peak < 16e6  # the dense 4000-bus Ybus alone would take 256 MB
