"""The grid oracle's max-sum path against enumeration and the pattern theorem.

Without a pf floor ``grid_search_hc`` maximizes the sum of branch tables by
max-sum dynamic programming over the tree.  Enumeration of every grid point
(``reference.grid_search_enumerated``) is its reference on small grids.  On
thermal-free feeders the paper's pattern is a grid point of
``GridSpec(2, 3)`` and is proven optimal, so the DP must meet its HC at any
size.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

from hostcap.hccore import ConstraintSet, InfeasibleError, solve_hc, solve_hc_stages, verify
from hostcap.netmodel import parse_case
from hostcap.oracle import GridSpec, grid_search_hc

from conftest import FIXTURE_DIR, load_fixture
from reference import grid_search_enumerated
from test_oracle_tables import hand_made

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

THETAS = (0.0, 0.004, 0.1)
# enumeration holds at most 7^4 x 3^4 points, 5^5 x 3^5 on the 6-bus feeders, 3^7 x 2^7 on the 8-bus fixtures
SMALL = GridSpec(7, 3)
SOURCES = (
    [(name,) for name in sorted(p.name for p in FIXTURE_DIR.glob("*.case")) if name != "123bus.case"]
    + [("hand_made",)]
    + [(n, seed) for n in (4, 5, 6) for seed in range(1, 11)]
)


def network_and_grid(source):
    if source == ("hand_made",):
        return hand_made(), SMALL
    if len(source) == 1:
        net = load_fixture(source[0])
        return net, SMALL if net.n <= 5 else GridSpec(3, 2)
    n, seed = source
    return parse_case(make_feeder(n, seed, thermal=True, loads=True).text), SMALL if n < 6 else GridSpec(5, 3)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("source", SOURCES, ids=lambda s: "_".join(map(str, s)))
def test_max_sum_matches_enumeration(source, theta):
    net, g = network_and_grid(source)
    c = ConstraintSet(theta_max=theta)
    try:
        want = grid_search_enumerated(net, c, g)
    except InfeasibleError:
        with pytest.raises(InfeasibleError, match="^no feasible grid point under the given constraints$"):
            grid_search_hc(net, c, g)
        return
    got = grid_search_hc(net, c, g)
    # the two sum in different orders, so of points that tie up to rounding (+-delta at a
    # leaf, say) each may keep another; the HC bounds such a swap
    assert abs(got.hc_total - want.hc_total) <= 1e-12
    assert verify(net, c, got.state.phasors).ok("thermal")


def test_max_sum_takes_the_smallest_index_of_a_tie():
    # bus 2 and the slack weigh nothing, so every (magnitude, angle) of bus 2 scores exactly 0
    net = parse_case("""
    BASE 1 1
    BUS 0 slack 0 0 0
    BUS 1 gen 0 0 1
    BUS 2 gen 0 0 0
    BRANCH 0 1 0.05 0.01
    BRANCH 0 2 0.05 0.01
    """)
    c, g = ConstraintSet(theta_max=0.1), GridSpec(7, 3)
    got = grid_search_hc(net, c, g)
    assert (got.state.magnitudes[2], got.state.angles[2]) == (0.95, -0.1)
    want = grid_search_enumerated(net, c, g)
    assert got.state.magnitudes.tolist() == want.state.magnitudes.tolist()
    assert got.state.angles.tolist() == want.state.angles.tolist()


@pytest.mark.parametrize("theta", (0.0, 0.004, 0.05))
@pytest.mark.parametrize("n", (100, 1000))
def test_max_sum_meets_the_pattern_optimum_at_scale(n, theta):
    # magnitudes {v_min, v_max} and deltas {-theta, 0, theta} hold the paper's pattern
    net = parse_case(make_feeder(n, 1, thermal=False, loads=True).text)
    c = ConstraintSet(theta_max=theta)
    pattern = solve_hc_stages(net, c)[0]
    assert pattern.stage.endswith("_pattern")
    got = grid_search_hc(net, c, GridSpec(2, 3))
    assert abs(got.hc_total - pattern.hc_total) <= 1e-12 * abs(pattern.hc_total)
    assert verify(net, c, got.state.phasors).ok()


def test_max_sum_memory_is_bounded():
    # the oracle_cert op on 3bus.case: a 1001^2 branch table, built in blocks of parent magnitudes
    net = load_fixture("3bus.case")
    tracemalloc.start()
    try:
        grid_search_hc(net, ConstraintSet(), GridSpec(1001, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


CHAIN = """
BASE 1 1
BUS 0 slack 0 0 0
BUS 1 gen 0 0 1
BUS 2 gen 0 0 1
BUS 3 gen 0 0 1
BRANCH 0 1 0.05 0.01
BRANCH 1 2 0.05 0.01 0.19
BRANCH 2 3 0.05 0.01
"""


def test_max_sum_finds_a_verified_point_on_the_thermal_chain():
    net, c = parse_case(CHAIN), ConstraintSet(theta_max=0.01)
    sol = grid_search_hc(net, c, GridSpec(101, 11))
    assert sol.hc_total > 1.2465
    assert verify(net, c, sol.state.phasors).ok()


@pytest.mark.xfail(
    strict=True,
    reason="adjust_thermal's held-side scan ends at HC -0.416, below the flat state's 0 "
    "(ROADMAP items 1 and 3)",
)
def test_thermal_stage_is_no_worse_than_the_flat_state():
    # the all-1.0 zero-injection state is feasible with HC 0, and the grid oracle finds 1.2466
    assert solve_hc(parse_case(CHAIN), ConstraintSet(theta_max=0.01)).hc_total >= 0
