"""Partitioned solving: segmentation, boundary pinning, equivalence."""

import dataclasses

import numpy as np
import pytest

from hostcap.hccore import ConstraintSet, solve_hc, solve_hc_stages
from hostcap.netmodel import parse_case
from hostcap.partition import make_partition, solve_distributed_hc

from conftest import load_fixture

CHAIN8 = """
BASE 1 1
BUS 0 slack 0 0 0
BUS 1 gen 0 0 1
BUS 2 gen 0 0 1
BUS 3 gen 0 0 1
BUS 4 gen 0 0 1
BUS 5 gen 0 0 1
BUS 6 gen 0 0 1
BUS 7 gen 0 0 1
BRANCH 0 1 0.05 0.01
BRANCH 1 2 0.05 0.01
BRANCH 2 3 0.05 0.01
BRANCH 3 4 0.05 0.01
BRANCH 4 5 0.05 0.01
BRANCH 5 6 0.05 0.01
BRANCH 6 7 0.05 0.01
"""


def test_chain_cut_at_four():
    net = parse_case(CHAIN8)
    p = make_partition(net, [4])
    assert p.cut_buses == (4,)


def test_123_bus_two_cuts(net123):
    p = make_partition(net123, [73, 16])
    assert p.cut_buses == (16, 73)


def test_empty_cut_list_is_identity(net8):
    p = make_partition(net8, [])
    assert p.cut_buses == ()
    c = ConstraintSet()
    mono = solve_hc(net8, c)
    dist = solve_distributed_hc(solve_hc_stages(net8, c), p)
    assert dist.hc_total == mono.hc_total
    np.testing.assert_array_equal(dist.state.magnitudes, mono.state.magnitudes)
    assert dist.stage == mono.stage


def test_cut_validation(net8):
    with pytest.raises(ValueError, match="slack"):
        make_partition(net8, [0])
    with pytest.raises(ValueError, match="leaf"):
        make_partition(net8, [7])
    with pytest.raises(ValueError, match="unknown"):
        make_partition(net8, [99])
    with pytest.raises(ValueError, match="duplicate"):
        make_partition(net8, [3, 3])


@pytest.mark.parametrize(
    "name,cuts,c",
    [
        ("8bus.case", [4], ConstraintSet()),
        ("8bus.case", [6], ConstraintSet()),  # thermal clamps interior to a segment
        ("8bus.case", [2], ConstraintSet(theta_max=0.008)),
        ("8bus.case", [2, 5], ConstraintSet()),
        ("123bus.case", [16, 73], ConstraintSet()),
        ("123bus.case", [16, 73], ConstraintSet(theta_max=0.01)),
        ("123bus.case", [30], ConstraintSet()),
    ],
)
def test_distributed_matches_monolithic(name, cuts, c):
    net = load_fixture(name)
    mono = solve_hc(net, c)
    dist = solve_distributed_hc(solve_hc_stages(net, c), make_partition(net, cuts))
    assert dist.hc_total == pytest.approx(mono.hc_total, abs=1e-8)
    np.testing.assert_allclose(dist.state.magnitudes, mono.state.magnitudes, atol=1e-8)
    np.testing.assert_allclose(dist.state.angles, mono.state.angles, atol=1e-8)


def test_boundary_values_agree_exactly(net123):
    c = ConstraintSet(theta_max=0.01)
    p = make_partition(net123, [16, 73])
    dist = solve_distributed_hc(solve_hc_stages(net123, c), p)
    mono = solve_hc(net123, c)
    for b in p.cut_buses:
        assert dist.state.magnitudes[b] == mono.state.magnitudes[b]
        assert dist.state.angles[b] == mono.state.angles[b]


def test_fallback_on_cross_boundary_thermal(net8, caplog):
    # a tight limit on a branch whose endpoints are both pinned (cut at both
    # ends) cannot be fixed locally; the solver must fall back and still
    # return the monolithic answer
    branches = list(net8.branches)
    branches[3] = dataclasses.replace(branches[3], thermal_limit=0.4)  # branch 3-4
    net = dataclasses.replace(net8, branches=tuple(branches))
    c = ConstraintSet()
    p = make_partition(net, [3, 4])
    mono = solve_hc(net, c)
    with caplog.at_level("WARNING", logger="hostcap.partition"):
        dist = solve_distributed_hc(solve_hc_stages(net, c), p)
    assert dist.hc_total == pytest.approx(mono.hc_total, abs=1e-12)
    assert any("fell back" in rec.message for rec in caplog.records)


def random_tree(rng, n):
    from hostcap.netmodel import Branch, Bus, BusKind, Network

    buses = [Bus(0, BusKind.SLACK, lam=0.0)]
    branches = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        r = round(float(rng.uniform(0.02, 0.08)), 6)
        branches.append(Branch(parent, i, r, round(r * 0.2, 6)))
        buses.append(Bus(i, BusKind.GEN, lam=1.0))
    return Network(buses=tuple(buses), branches=tuple(branches))


def test_invariance_over_random_trees_and_cuts():
    rng = np.random.default_rng(314159)
    trials = 0
    while trials < 15:
        n = int(rng.integers(8, 24))
        net = random_tree(rng, n)
        deg = np.zeros(n, int)
        for br in net.branches:
            deg[br.from_bus] += 1
            deg[br.to_bus] += 1
        internal = [i for i in range(1, n) if deg[i] >= 2]
        if not internal:
            continue
        ncuts = int(rng.integers(1, min(4, len(internal)) + 1))
        cuts = [int(b) for b in rng.choice(internal, size=ncuts, replace=False)]
        c = ConstraintSet(theta_max=float(rng.choice([0.0, 0.004, 0.01])))
        mono = solve_hc(net, c)
        dist = solve_distributed_hc(solve_hc_stages(net, c), make_partition(net, cuts))
        assert dist.hc_total == pytest.approx(mono.hc_total, abs=1e-8), (n, cuts)
        trials += 1


def test_partition_invariants_over_random_trees_and_cuts():
    rng = np.random.default_rng(161803)
    for _ in range(200):
        n = int(rng.integers(8, 61))
        net = random_tree(rng, n)
        parents = net.parents
        internal = sorted({int(parents[b]) for b in range(1, n)} - {0})
        ncuts = int(rng.integers(0, min(5, len(internal)) + 1))
        cuts = [int(b) for b in rng.choice(internal, size=ncuts, replace=False)]
        p = make_partition(net, cuts)
        assert p.cut_buses == tuple(sorted(cuts))
