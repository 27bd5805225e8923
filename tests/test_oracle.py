"""Grid-search oracle, resolution bound, surface data, screening baseline."""

import numpy as np
import pytest

from hostcap.hccore import ConstraintSet, solve_hc
from hostcap.netmodel import parse_case
from hostcap.oracle import (
    GridCapError,
    GridSpec,
    grid_error_bound,
    grid_search_hc,
    incremental_screening,
    pv_curve_surface,
)
from hostcap.powerflow import VoltageState, solve_newton

from conftest import load_fixture


def test_three_bus_oracle_finds_marked_corner(net3):
    c = ConstraintSet()
    g = GridSpec(magnitude_steps=101)
    sol = grid_search_hc(net3, c, g)
    np.testing.assert_allclose(sol.state.magnitudes, [1.0, 1.05, 0.95], atol=1e-12)
    eps = grid_error_bound(net3, c, g)
    assert abs(sol.hc_total - 0.0625) <= eps
    assert sol.stage == "grid_oracle"


def test_degenerate_box_single_point(net3):
    sol = grid_search_hc(net3, ConstraintSet(v_min=1.0, v_max=1.0), GridSpec())
    np.testing.assert_allclose(sol.state.magnitudes, 1.0, atol=1e-15)
    assert sol.hc_total == pytest.approx(0.0, abs=1e-12)


def test_four_bus_with_angles_matches_solver(net4):
    c = ConstraintSet(theta_max=0.1)
    g = GridSpec(magnitude_steps=21, angle_steps=5)
    oracle = grid_search_hc(net4, c, g)
    solver = solve_hc(net4, c)
    eps = grid_error_bound(net4, c, g)
    assert abs(oracle.hc_total - solver.hc_total) <= eps
    # two-sided: a feasible grid point can never beat the claimed optimum
    assert oracle.hc_total <= solver.hc_total + 1e-9


def test_grid_cap_rejected(net123, monkeypatch):
    monkeypatch.setattr("hostcap.oracle.MAX_ENTRIES", 10**6)
    with pytest.raises(GridCapError):
        grid_search_hc(net123, ConstraintSet(), GridSpec(magnitude_steps=101))


@pytest.mark.parametrize(
    "eta, steps, message",
    [
        (None, 101, r"max-sum tables hold 1\.234e\+06 entries"),  # 101 + 121 * 101^2 table entries
        (0.9, 15, r"max-sum tables hold 1\.420e\+06 entries"),  # a generator with k children: G_p * 15^(k + 1)
    ],
    ids=["max-sum", "pf-floor"],
)
def test_grid_cap_names_the_count_it_caps(net123, eta, steps, message, monkeypatch):
    monkeypatch.setattr("hostcap.oracle.MAX_ENTRIES", 10**6)
    with pytest.raises(GridCapError, match=rf"^{message}, cap is 1\.000e\+06$"):
        grid_search_hc(net123, ConstraintSet(eta=eta), GridSpec(magnitude_steps=steps))


@pytest.mark.parametrize("steps", [2.5, float("nan"), 3.0, "3"])
@pytest.mark.parametrize("axis", ["magnitude_steps", "angle_steps"])
def test_grid_steps_must_be_integers(axis, steps):
    with pytest.raises(ValueError, match="^grid steps must be integers$"):
        GridSpec(**{axis: steps})


@pytest.mark.parametrize("axis", ["magnitude_steps", "angle_steps"])
def test_grid_steps_must_be_at_least_two(axis):
    with pytest.raises(ValueError, match="^grid steps must be at least 2$"):
        GridSpec(**{axis: np.int64(1)})


def test_numpy_integer_steps_search_the_same_grid(net4):
    c = ConstraintSet(theta_max=0.1)
    got = grid_search_hc(net4, c, GridSpec(np.int64(21), np.int64(5)))
    ref = grid_search_hc(net4, c, GridSpec(21, 5))
    assert got.hc_total == ref.hc_total
    assert got.state.magnitudes.tobytes() == ref.state.magnitudes.tobytes()
    assert got.state.angles.tobytes() == ref.state.angles.tobytes()


def test_oracle_respects_thermal_filter():
    net = load_fixture("4bus_thermal.case")
    c = ConstraintSet()
    sol = grid_search_hc(net, c, GridSpec(magnitude_steps=101))
    br = net.branches[1]
    cur = abs(br.series_admittance) * abs(
        sol.state.magnitudes[1] - sol.state.magnitudes[2]
    )
    assert cur <= br.thermal_limit * (1 + 1e-9)


# --- surface -------------------------------------------------------------------


def test_surface_maximizer_row(net3):
    res = pv_curve_surface(net3, ConstraintSet(), GridSpec(magnitude_steps=41))
    v1, v2, sum_p = res.rows[res.max_index]
    assert v1 == pytest.approx(1.05, abs=1e-12)
    assert v2 == pytest.approx(0.95, abs=1e-12)
    assert sum_p == pytest.approx(0.0625, abs=1e-12)


def test_surface_monotone_in_v1(net3):
    res = pv_curve_surface(net3, ConstraintSet(), GridSpec(magnitude_steps=21))
    rows = res.rows
    for v2 in np.unique(rows[:, 1]):
        sel = rows[rows[:, 1] == v2]
        order = np.argsort(sel[:, 0])
        assert np.all(np.diff(sel[order, 2]) >= -1e-12)


def test_surface_flat_point_is_zero(net3):
    res = pv_curve_surface(net3, ConstraintSet(), GridSpec(magnitude_steps=21))
    rows = res.rows
    mask = (np.abs(rows[:, 0] - 1.0) < 1e-12) & (np.abs(rows[:, 1] - 1.0) < 1e-12)
    assert mask.sum() == 1
    assert rows[mask][0, 2] == pytest.approx(0.0, abs=1e-12)


def test_surface_needs_two_free_buses(net4):
    with pytest.raises(ValueError, match="two free buses"):
        pv_curve_surface(net4, ConstraintSet(), GridSpec())


# --- incremental screening -------------------------------------------------------


def test_screening_violated_base_case_is_zero():
    text = """
    BASE 1 1
    BUS 0 slack 0 0 0
    BUS 1 gen 0 0 1
    BUS 2 gen 0.03 0 1
    BRANCH 0 1 1 0
    BRANCH 1 2 1 0
    """
    net = parse_case(text)
    rows = incremental_screening(net, ConstraintSet(), step=1e-3, candidates=[1])
    assert rows[0].hc == 0.0
    assert rows[0].status == "v_min"


def test_screening_zero_injection_bus_is_not_a_pf_violation():
    # bus 4 carries no load: its base-case |S| is round-off, which counts as unity pf
    net = load_fixture("8bus_pf.case")
    c = ConstraintSet(theta_max=0.01, eta=0.9)
    (row,) = incremental_screening(net, c, step=0.01, candidates=[4])
    assert row.status != "pf"
    assert row.steps > 0 and row.hc > 0


def test_screening_single_bus_below_joint_optimum(net3):
    c = ConstraintSet()
    rows = incremental_screening(net3, c, step=1e-3, candidates=[1, 2])
    joint = solve_hc(net3, c).hc_total
    for row in rows:
        assert row.hc <= joint
        assert row.status == "v_max"


def test_screening_step_refinement_consistent(net3):
    c = ConstraintSet()
    coarse = incremental_screening(net3, c, step=1e-2, candidates=[1])[0].hc
    fine = incremental_screening(net3, c, step=1e-3, candidates=[1])[0].hc
    assert abs(coarse - fine) <= 1e-2 + 1e-9


def test_screening_rejects_bad_step(net3):
    with pytest.raises(ValueError):
        incremental_screening(net3, ConstraintSet(), step=0.0)


def test_screening_stops_at_the_step_cap(net3, monkeypatch):
    import hostcap.oracle

    monkeypatch.setattr(hostcap.oracle, "MAX_STEPS", 3)
    (row,) = incremental_screening(net3, ConstraintSet(), step=1e-300, candidates=[1])
    assert (row.status, row.steps) == ("cap", 3)


def test_screening_reports_a_diverged_ramp(net123, monkeypatch):
    import hostcap.oracle

    monkeypatch.setattr(hostcap.oracle, "MAX_STEPS", 3)
    c = ConstraintSet(v_min=0.1, v_max=10, theta_max=3)
    (row,) = incremental_screening(net123, c, step=5.0, candidates=[57])
    assert (row.status, row.hc, row.steps) == ("diverged", 0.0, 0)


@pytest.mark.parametrize("bus, step", [(3, 1e-20), (0, 0.01)], ids=["below-load-spacing", "slack"])
def test_screening_refuses_a_ramp_that_cannot_move(net8, monkeypatch, bus, step):
    import hostcap.oracle

    monkeypatch.setattr(hostcap.oracle, "MAX_STEPS", 3)  # so the unrefused ramp ends
    c = ConstraintSet(theta_max=0.05, eta=0.9)
    with pytest.raises(ValueError, match=rf"cannot move the injection of buses \[{bus}\]$"):
        incremental_screening(net8, c, step=step, candidates=[bus])


# one generator behind one branch: its voltage, the branch angle and the branch current all
# grow with the ramp, so each limit can be set between two steps of the ramp
RAMP_CASE = """
BASE 1 1
BUS 0 slack 0 0 0
BUS 1 gen 0 0 1
BRANCH 0 1 0.05 0.05{limit}
"""
RAMP_STEP, BREAK_AT = 0.05, 4


def ramp_values():
    """|V1|, the branch angle and the branch current at each step of bus 1's ramp, stepped as screening steps it."""
    net = parse_case(RAMP_CASE.format(limit=""))
    p, q0 = np.zeros(net.n), np.zeros(net.n)
    state = VoltageState(magnitudes=np.ones(net.n), angles=np.zeros(net.n))
    out = []
    for k in range(BREAK_AT + 1):
        p[1] = k * RAMP_STEP
        state = solve_newton(net, state, p, q0, pq=net.free)
        v = state.phasors
        out.append((abs(v[1]), abs(np.angle(v[0] * np.conj(v[1]))), abs(net.branch_y[0] * (v[0] - v[1]))))
    return np.array(out)


def between_the_last_two_steps(values):
    assert (np.diff(values) > 0).all()  # so no earlier step breaks the limit
    return float((values[BREAK_AT - 1] + values[BREAK_AT]) / 2)


def test_screening_names_theta_before_thermal_on_one_branch():
    # theta and the thermal limit of branch 0 both break at the same step; kinds ordered by name would give thermal
    _, theta, current = ramp_values().T
    net = parse_case(RAMP_CASE.format(limit=f" {between_the_last_two_steps(current)!r}"))
    c = ConstraintSet(v_min=0.5, v_max=1.5, theta_max=between_the_last_two_steps(theta))
    (row,) = incremental_screening(net, c, step=RAMP_STEP, candidates=[1])
    assert (row.status, row.steps) == ("theta", BREAK_AT - 1)


def test_screening_names_a_bus_before_a_branch_at_one_step():
    # bus 1 breaks v_max and branch 0 breaks theta at the same step; kinds ordered by name would give theta
    vm, theta, _ = ramp_values().T
    net = parse_case(RAMP_CASE.format(limit=""))
    c = ConstraintSet(v_min=0.5, v_max=between_the_last_two_steps(vm), theta_max=between_the_last_two_steps(theta))
    (row,) = incremental_screening(net, c, step=RAMP_STEP, candidates=[1])
    assert (row.status, row.steps) == ("v_max", BREAK_AT - 1)


def test_screening_lower_bounds_eight_bus(net8):
    c = ConstraintSet(theta_max=0.05)
    joint = solve_hc(net8, c).hc_total
    rows = incremental_screening(net8, c, step=0.05)
    assert rows  # every generator bus gets a row
    for row in rows:
        assert row.hc <= joint + 1e-9


def test_agreement_on_random_small_trees():
    from hostcap.netmodel import Branch, Bus, BusKind, Network
    from hostcap.oracle import grid_error_bound

    rng = np.random.default_rng(2718)
    for _ in range(6):
        n = int(rng.integers(3, 5))
        buses = [Bus(0, BusKind.SLACK, lam=0.0)]
        branches = []
        for i in range(1, n):
            parent = int(rng.integers(0, i))
            r = round(float(rng.uniform(0.02, 0.08)), 6)
            branches.append(Branch(parent, i, r, round(r * 0.2, 6)))
            buses.append(Bus(i, BusKind.GEN, lam=1.0))
        net = Network(buses=tuple(buses), branches=tuple(branches))
        c = ConstraintSet(theta_max=float(rng.choice([0.0, 0.05])))
        g = GridSpec(magnitude_steps=21, angle_steps=5)
        solver = solve_hc(net, c)
        oracle = grid_search_hc(net, c, g)
        eps = grid_error_bound(net, c, g)
        assert abs(solver.hc_total - oracle.hc_total) <= eps
        assert oracle.hc_total <= solver.hc_total + 1e-9
