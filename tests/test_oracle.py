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


def test_grid_cap_rejected(net123):
    with pytest.raises(GridCapError):
        grid_search_hc(net123, ConstraintSet(), GridSpec(magnitude_steps=11, cap=10**6))


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
