"""The grid oracle's tree-array paths against dense and quadratic-time references.

``dense_reference`` is the evaluation the oracle used to run: every grid
point's phasors (angles summed over the ancestor matrix), S = V conj(Ybus V),
the verifier's thermal and pf masks, then the maximum.  The tests pin
``grid_search_hc`` to it on small grids, ``grid_error_bound`` to its
subtree-by-subtree loop and ``pv_curve_surface`` to its dense evaluation.
"""

import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hostcap import oracle
from hostcap.hccore import ConstraintSet, InfeasibleError, verify
from hostcap.netmodel import Network, build_ybus, parse_case
from hostcap.oracle import GridSpec, grid_error_bound, grid_search_hc, pv_curve_surface

from conftest import FIXTURE_DIR, load_fixture
from reference import dense_surface, grid_error_bound_loop, tree_layout

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

SMALL_FIXTURES = ("3bus.case", "3bus_complex.case", "4bus.case", "4bus_star.case", "4bus_thermal.case")
THETAS = (0.0, 0.004, 0.1)
ETAS = (None, 0.9)
GRID = GridSpec(magnitude_steps=7, angle_steps=3)

# slack at bus 2, shunts at buses 0 and 1, a lambda-0 generator (bus 1), a
# branch written child-first (3 -> 1) and a thermal limit
HAND_MADE = """
BASE 1.0 12.47
BUS 0 gen 0.01 0.003 1
BUS 1 gen 0 0 0
BUS 2 slack 0 0 0.5
BUS 3 load 0.02 0.005 0.5
BRANCH 2 1 0.03 0.02
BRANCH 1 0 0.02 0.015 1.5
BRANCH 3 1 0.04 0.01
SHUNT 1 0.2 -0.4
SHUNT 0 0.05 0.1
"""


def hand_made() -> Network:
    return replace(parse_case(HAND_MADE), slack_vm=1.02)


def dense_reference(net, c, g):
    """Objective of every grid point in C order, -inf where the verifier rejects it."""
    free, _, anc = tree_layout(net)
    mag_axis, ang_axis = oracle._axes(c, g)
    nf = len(free)
    use_angles = len(ang_axis) > 1
    dims = [len(mag_axis)] * nf + ([len(ang_axis)] * nf if use_angles else [])
    idx = np.indices(dims).reshape(len(dims), -1)
    mags = np.full((idx.shape[1], net.n), net.slack_vm)
    mags[:, free] = mag_axis[idx[:nf]].T
    deltas = ang_axis[idx[nf:]].T if use_angles else np.zeros((idx.shape[1], nf))
    angles = np.zeros_like(mags)
    angles[:, free] = deltas @ anc.T
    v = mags * np.exp(1j * angles)
    s = v * np.conj(v @ build_ybus(net).T)
    obj = s.real @ net.lam
    obj[~verify(net, c, v, s).ok("thermal", "pf")] = -np.inf
    return obj, dims, mag_axis, ang_axis, free


def grid_index(net, sol, dims, mag_axis, ang_axis, free):
    """Flat C-order index of the grid point a solution sits at."""
    m, a = sol.state.magnitudes, sol.state.angles
    pick = [int(np.flatnonzero(mag_axis == m[b])[0]) for b in free]
    if len(dims) > len(free):
        for b in free:
            d = a[b] - a[net.parents[b]]
            j = int(np.argmin(np.abs(ang_axis - d)))
            assert abs(ang_axis[j] - d) < 1e-12
            pick.append(j)
    return int(np.ravel_multi_index(pick, dims))


def assert_matches_reference(net, c, g=GRID):
    obj, dims, mag_axis, ang_axis, free = dense_reference(net, c, g)
    best = obj.max()
    if best == -np.inf:
        with pytest.raises(InfeasibleError, match="no feasible grid point"):
            grid_search_hc(net, c, g)
        return
    sol = grid_search_hc(net, c, g)
    assert abs(sol.hc_total - best) <= 1e-12
    assert best - obj[grid_index(net, sol, dims, mag_axis, ang_axis, free)] <= 1e-12
    assert verify(net, c, sol.state.phasors).ok("thermal", "pf")


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_fixtures_match_the_dense_reference(name, theta, eta):
    assert_matches_reference(load_fixture(name), ConstraintSet(theta_max=theta, eta=eta))


# the 6-bus feeders are deep enough that the order of the angle sums matters
@pytest.mark.parametrize(
    "n, seed, g",
    [(4, seed, GRID) for seed in range(1, 11)] + [(6, seed, GridSpec(3, 3)) for seed in range(1, 6)],
)
def test_generated_feeders_match_the_dense_reference(n, seed, g):
    net = parse_case(make_feeder(n, seed, thermal=True, loads=True).text)
    for theta, eta in ((0.004, None), (0.1, 0.9)):
        assert_matches_reference(net, ConstraintSet(theta_max=theta, eta=eta), g)


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("theta", THETAS)
def test_shunts_zero_weight_and_moved_slack_match_the_dense_reference(theta, eta):
    assert_matches_reference(hand_made(), ConstraintSet(theta_max=theta, eta=eta))


def test_zero_thermal_limit_is_infeasible():
    # six magnitude steps miss the slack's 1.0, so no point carries zero current out of it
    net = load_fixture("4bus.case")
    slack = net.slack_index
    net = replace(net, branches=tuple(replace(br, thermal_limit=0.0) if br.from_bus == slack else br for br in net.branches))
    g = GridSpec(magnitude_steps=6, angle_steps=3)
    c = ConstraintSet(theta_max=0.004)
    assert dense_reference(net, c, g)[0].max() == -np.inf
    with pytest.raises(InfeasibleError, match="^no feasible grid point under the given constraints$"):
        grid_search_hc(net, c, g)


@pytest.mark.parametrize(
    "net, c",
    [
        (load_fixture("4bus.case"), ConstraintSet(theta_max=0.1, eta=0.9)),
        (load_fixture("4bus_thermal.case"), ConstraintSet(theta_max=0.004)),
        (hand_made(), ConstraintSet(theta_max=0.1)),
        # the hub: bus 1's pf couples it to buses 0, 2 and 3, so its one joint table spans the grid
        (parse_case(make_feeder(4, 1, thermal=True, loads=True).text), ConstraintSet(theta_max=0.1, eta=0.9)),
    ],
)
def test_chunking_does_not_move_the_point(monkeypatch, net, c):
    base = grid_search_hc(net, c, GRID)
    runs = []
    for rows in (1, 7):
        monkeypatch.setattr(oracle, "CHUNK_ROWS", rows)
        runs.append(grid_search_hc(net, c, GRID))
    for sol in runs:
        np.testing.assert_array_equal(sol.state.magnitudes, base.state.magnitudes)
        np.testing.assert_array_equal(sol.state.angles, base.state.angles)
        assert sol.hc_total == base.hc_total


def test_grid_search_memory_is_bounded():
    # 101^2 x 11^2 = 1.23e6 points; the dense per-point evaluation peaked at 41.6 MiB
    net = load_fixture("3bus_complex.case")
    c, g = ConstraintSet(theta_max=0.1), GridSpec(101, 11)
    tracemalloc.start()
    try:
        grid_search_hc(net, c, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("theta", THETAS)
def test_points_on_the_thermal_limit_match_the_dense_reference(theta, eta):
    # 0.01 p.u. steps put |a_1 - a_2| = 0.08, the limit, on grid points, up to rounding
    net, c = load_fixture("4bus_thermal.case"), ConstraintSet(theta_max=theta, eta=eta)
    assert_matches_reference(net, c, GridSpec(11, 3))


BOUND_NETWORKS = [path.name for path in sorted(FIXTURE_DIR.glob("*.case"))] + [
    (n, seed) for n in (5, 20, 60) for seed in range(1, 6)
]


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("source", BOUND_NETWORKS, ids=str)
def test_error_bound_matches_the_subtree_loop(source, theta):
    if isinstance(source, str):
        net = load_fixture(source)
    else:
        net = parse_case(make_feeder(*source, thermal=True, loads=True).text)
    c, g = ConstraintSet(theta_max=theta), GridSpec()
    want = grid_error_bound_loop(net, c, g)
    assert abs(grid_error_bound(net, c, g) - want) <= 1e-14 * want


@pytest.mark.parametrize(
    "c", [ConstraintSet(), ConstraintSet(theta_max=0.004), ConstraintSet(eta=0.9)], ids=["plain", "theta", "eta"]
)
@pytest.mark.parametrize("name", ["3bus.case", "3bus_complex.case"])
def test_surface_matches_the_dense_evaluation(name, c):
    net = load_fixture(name)
    got = pv_curve_surface(net, c, GridSpec())
    rows, p_pairs, feasible, max_index = dense_surface(net, c, GridSpec())
    assert got.max_index == max_index
    np.testing.assert_array_equal(got.feasible, feasible)
    np.testing.assert_allclose(got.rows, rows, rtol=0, atol=1e-14)
    np.testing.assert_allclose(got.p_pairs, p_pairs, rtol=0, atol=1e-14)
