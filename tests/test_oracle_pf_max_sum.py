"""The grid oracle's max-sum path under a pf floor.

A generator's pf floor is a factor over its closed neighbourhood: its
parent's magnitude, its own state and each child's.  ``grid_search_hc``
removes it by max-sum over each generator's joint table, so no grid point
is enumerated.  ``reference.grid_search_enumerated``, which scores every
point, is its reference on small grids; on the paper's feeders, where
enumeration cannot run, the pattern solver and the verifier are.
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hostcap import oracle
from hostcap.hccore import ConstraintSet, InfeasibleError, _pf_margin, solve_hc_stages, verify
from hostcap.netmodel import parse_case
from hostcap.oracle import GridCapError, GridSpec, grid_search_hc

from conftest import load_fixture
from reference import grid_search_enumerated
from test_oracle_tables import hand_made

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

THETAS = (0.0, 0.004, 0.1)
ETAS = (0.95, 0.9, 0.8)
SMALL = GridSpec(7, 3)
FIXTURES = ("3bus.case", "3bus_complex.case", "4bus.case", "4bus_star.case", "4bus_thermal.case", "5bus.case")
# make_feeder(4, seed) for each of the six 4-bus trees, named by parents of buses 1..3
SHAPES = {
    "star_0_0_0": 4,
    "tail_0_0_1": 15,
    "tail_0_0_2": 8,
    "spur_0_1_0": 6,
    "hub_0_1_1": 1,
    "chain_0_1_2": 9,
}


def feeder(n, seed):
    return parse_case(make_feeder(n, seed, thermal=True, loads=True).text)


def assert_matches_enumeration(net, c, g):
    try:
        want = grid_search_enumerated(net, c, g)
    except InfeasibleError:
        with pytest.raises(InfeasibleError, match="^no feasible grid point under the given constraints$"):
            grid_search_hc(net, c, g)
        return
    got = grid_search_hc(net, c, g)
    # the two sum the objective in different orders, so of points that tie up to
    # rounding each may keep another; the pf verdicts themselves are bitwise equal
    assert abs(got.hc_total - want.hc_total) <= 1e-12
    assert verify(net, c, got.state.phasors).ok("thermal", "pf")


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize(
    "source",
    [(name,) for name in FIXTURES] + [("hand_made",)]
    + [(n, seed) for n in (4, 5, 6) for seed in range(1, 11)],
    ids=lambda s: "_".join(map(str, s)),
)
def test_pf_max_sum_matches_enumeration(source, theta, eta):
    if source == ("hand_made",):  # a load bus and a lambda-0 generator
        net, g = hand_made(), SMALL
    elif len(source) == 1:
        net, g = load_fixture(source[0]), SMALL
    else:
        net, g = feeder(*source), SMALL if source[0] < 6 else GridSpec(5, 3)
    assert_matches_enumeration(net, ConstraintSet(theta_max=theta, eta=eta), g)


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("shape", SHAPES)
def test_every_four_bus_shape_matches_enumeration(shape, theta, eta):
    net = feeder(4, SHAPES[shape])
    assert net.parents.tolist()[1:] == [int(p) for p in shape.split("_")[1:]]
    assert_matches_enumeration(net, ConstraintSet(theta_max=theta, eta=eta), GridSpec(5, 5))


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("n", (8, 16))
def test_pf_floor_never_raises_the_grid_hc(n, seed):
    net, g = feeder(n, seed), GridSpec(3, 3)
    free = grid_search_hc(net, ConstraintSet(theta_max=0.004), g)
    for eta in (0.95, 0.9):
        c = ConstraintSet(theta_max=0.004, eta=eta)
        try:
            sol = grid_search_hc(net, c, g)
        except InfeasibleError:
            continue
        assert sol.hc_total <= free.hc_total + 1e-12 * abs(free.hc_total)
        assert verify(net, c, sol.state.phasors).ok("thermal", "pf")


def test_pf_max_sum_memory_is_bounded():
    # the oracle_cert pf op on the hub: bus 1's joint table holds all 1.16e6 grid points
    net = feeder(4, SHAPES["hub_0_1_1"])
    tracemalloc.start()
    try:
        grid_search_hc(net, ConstraintSet(theta_max=0.004, eta=0.9), GridSpec(21, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_a_wide_generator_is_capped_past_the_float_range():
    # one generator with 110 children: 1111^111 entries at the default grid, beyond any float
    buses = ["BUS 0 slack 0 0 0"] + [f"BUS {i} gen 0 0 1" for i in range(1, 112)]
    branches = ["BRANCH 0 1 0.05 0.01"] + [f"BRANCH 1 {i} 0.05 0.01" for i in range(2, 112)]
    net = parse_case("\n".join(["BASE 1 1", *buses, *branches]))
    with pytest.raises(GridCapError, match=r"^max-sum tables hold over 1e308 entries, cap is 1\.000e\+08$"):
        grid_search_hc(net, ConstraintSet(theta_max=0.1, eta=0.9), GridSpec())


@pytest.mark.parametrize("eta", (0.95, 0.9))
@pytest.mark.parametrize("name", ("8bus.case", "8bus_pf.case"))
def test_eight_bus_feeders_under_a_pf_floor(name, eta):
    # 21^7 x 5^7 = 1.407e14 grid points, far past what enumeration could score
    net, c = load_fixture(name), ConstraintSet(theta_max=0.004, eta=eta)
    sol = grid_search_hc(net, c, GridSpec(21, 5))
    assert verify(net, c, sol.state.phasors).ok()


@pytest.mark.parametrize("eta", (0.95, 0.9))
def test_123bus_under_a_pf_floor_meets_the_pattern(eta):
    # the pattern's magnitudes and deltas are grid points of GridSpec(5, 3)
    net, c = load_fixture("123bus.case"), ConstraintSet(theta_max=0.004, eta=eta)
    pattern = solve_hc_stages(net, c)[0]
    assert pattern.stage.endswith("_pattern")
    sol = grid_search_hc(net, c, GridSpec(5, 3))
    assert abs(sol.hc_total - pattern.hc_total) <= 1e-12 * abs(pattern.hc_total)
    assert verify(net, c, sol.state.phasors).ok()


def hub_injection_terms(net, c, g, sol):
    """Bus 1's injection terms at the grid point ``sol``, in branch order, as ``oracle._max_sum`` forms them.

    Each comes from ``oracle._branch_terms`` over whole axes, in the branch's parent frame: the
    child-end term of branch 0-1, then the parent-end term of each branch from bus 1 to a child.
    """
    mag_axis, ang_axis = oracle._axes(c, g)
    rot, conj_diag = np.exp(1j * ang_axis), np.conj(oracle._ybus_diagonal(net))
    mags, angles = sol.state.magnitudes, sol.state.angles
    terms = []
    for bi, child in enumerate(net.branch_child.tolist()):
        p = int(net.parents[child])
        if 1 not in (p, child):
            continue
        vp = np.full((1, 1, 1), net.slack_vm) if p == net.slack_index else mag_axis[:, None, None]
        _, s_p, s_c = oracle._branch_terms(net, bi, p, child, vp, mag_axis[None, :, None], rot[None, None, :], conj_diag)
        cell = (
            0 if p == net.slack_index else int(np.argmin(abs(mag_axis - mags[p]))),
            int(np.argmin(abs(mag_axis - mags[child]))),
            int(np.argmin(abs(ang_axis - (angles[child] - angles[p])))),
        )
        terms.append((s_c if child == 1 else s_p)[cell])
    return terms


def assert_same_point(a, b):
    assert a.hc_total.hex() == b.hc_total.hex()
    assert a.state.magnitudes.tobytes() == b.state.magnitudes.tobytes()
    assert a.state.angles.tobytes() == b.state.angles.tobytes()


@pytest.mark.parametrize("seed, theta, grid", [(1, 0.004, (7, 3)), (3, 0.1, (9, 5)), (10, 0.004, (9, 5))])
def test_a_generators_pf_terms_sum_in_branch_order(seed, theta, grid):
    # At the eta .9 grid optimum of a hub, bus 1's three injection terms summed in reverse give a pf a
    # few ulps lower than in branch order.  Raised to the largest eta at which the branch-order sum
    # passes, the floor rejects the reverse sum while the optimum stays feasible, and so optimal: a DP
    # that summed out of branch order would leave the enumeration's point
    net, g, c = feeder(4, seed), GridSpec(*grid), ConstraintSet(theta_max=theta, eta=0.9)
    assert net.parents.tolist() == [-1, 0, 1, 1]
    opt = grid_search_hc(net, c, g)
    first, mid, last = hub_injection_terms(net, c, g, opt)
    pf, tol = _pf_margin(np.array([first + mid + last, last + mid + first]), 0.0)  # the margin over 0 is the pf
    assert pf[1] < pf[0]
    eta = float(pf[0] + tol)
    while pf[0] - eta < -tol:
        eta = float(np.nextafter(eta, 0.0))
    while pf[0] - np.nextafter(eta, 1.0) >= -tol:
        eta = float(np.nextafter(eta, 1.0))
    assert pf[1] - eta < -tol
    c = ConstraintSet(theta_max=theta, eta=eta)
    want = grid_search_enumerated(net, c, g)
    assert_same_point(want, opt)
    assert_same_point(grid_search_hc(net, c, g), want)
