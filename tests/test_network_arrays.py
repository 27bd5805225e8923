"""The arrays a network derives once at construction equal what its records give.

``Network`` carries ``branch_child`` (each branch's end farther from the
slack), ``free`` (the non-slack buses) and ``gens`` (the generator buses);
``ThreePhaseNetwork`` carries ``branch_from``, ``branch_to`` and ``loads``.
Each is checked against the records and an independent breadth-first walk,
on every fixture and on seeded random trees whose slack is not always bus 0
and whose branches are written in either direction.
"""

import dataclasses
import random
from collections import deque

import numpy as np
import pytest

from hostcap.netmodel import Branch, Bus, BusKind, Network, parse_case
from hostcap.sequence import PhaseVector, ThreePhaseBranch, ThreePhaseBus, ThreePhaseNetwork, parse_case3

from conftest import FIXTURE_DIR, fixture_text

CASES = sorted(p.name for p in FIXTURE_DIR.glob("*.case"))
CASES3 = sorted(p.name for p in FIXTURE_DIR.glob("*.case3"))
SEEDS = range(12)


def random_tree(seed: int):
    """(slack, kinds, edges) of a random tree; edges run either way, in shuffled order."""
    rng = random.Random(seed)
    n = rng.randrange(2, 40)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    edges = [(k, i) if rng.random() < 0.5 else (i, k) for i, k in edges]
    rng.shuffle(edges)
    slack = 0 if seed % 3 == 0 else rng.randrange(n)
    kinds = [BusKind.SLACK if b == slack else rng.choice([BusKind.GEN, BusKind.LOAD]) for b in range(n)]
    return rng, slack, kinds, edges


def random_network(seed: int) -> Network:
    rng, _, kinds, edges = random_tree(seed)
    buses = tuple(Bus(b, kind, rng.uniform(0, 0.1), rng.uniform(0, 0.05), 1.0) for b, kind in enumerate(kinds))
    branches = tuple(
        Branch(i, k, rng.uniform(0.01, 0.05), rng.uniform(0.01, 0.05), rng.choice([None, 1.0])) for i, k in edges
    )
    return Network(buses, branches)


def random_network3(seed: int) -> ThreePhaseNetwork:
    rng, _, kinds, edges = random_tree(seed)
    buses = tuple(
        ThreePhaseBus(b, kind, PhaseVector(*(complex(rng.uniform(0, 0.1), rng.uniform(0, 0.05)) for _ in "abc")))
        for b, kind in enumerate(kinds)
    )
    branches = tuple(ThreePhaseBranch(i, k, np.eye(3) * complex(0.02, 0.04)) for i, k in edges)
    return ThreePhaseNetwork(buses, branches)


def networks():
    return [parse_case(fixture_text(name)) for name in CASES] + [random_network(seed) for seed in SEEDS]


def networks3():
    return [parse_case3(fixture_text(name)) for name in CASES3] + [random_network3(seed) for seed in SEEDS]


IDS = CASES + [f"random-{seed}" for seed in SEEDS]
IDS3 = CASES3 + [f"random-{seed}" for seed in SEEDS]


def walked_depths(net) -> list[int]:
    """Depth of every bus, by a breadth-first walk from the slack over the records."""
    adj = [[] for _ in net.buses]
    for br in net.branches:
        adj[br.from_bus].append(br.to_bus)
        adj[br.to_bus].append(br.from_bus)
    depth = [-1] * len(net.buses)
    depth[net.slack_index] = 0
    queue = deque([net.slack_index])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def assert_arrays_of_records(net: Network) -> None:
    depth = walked_depths(net)
    child = [br.to_bus if depth[br.to_bus] > depth[br.from_bus] else br.from_bus for br in net.branches]
    assert net.branch_child.tolist() == child
    assert all(net.parents[c] in (br.from_bus, br.to_bus) for c, br in zip(child, net.branches))
    assert net.free.tolist() == [b.id for b in net.buses if b.kind is not BusKind.SLACK]
    assert net.gens.tolist() == [b.id for b in net.buses if b.kind is BusKind.GEN]


def assert_read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        assert not arr.flags.writeable
        if arr.size:
            with pytest.raises(ValueError):
                arr[0] = arr[0]


@pytest.mark.parametrize("net", networks(), ids=IDS)
def test_network_arrays_equal_the_records(net):
    assert_arrays_of_records(net)
    assert_read_only(net.branch_child, net.free, net.gens)


@pytest.mark.parametrize("net3", networks3(), ids=IDS3)
def test_three_phase_arrays_equal_the_records(net3):
    assert net3.branch_from.tolist() == [br.from_bus for br in net3.branches]
    assert net3.branch_to.tolist() == [br.to_bus for br in net3.branches]
    loads = [[b.load.a, b.load.b, b.load.c] for b in net3.buses]
    assert net3.loads.shape == (net3.n, 3)
    assert net3.loads.tolist() == loads
    assert_read_only(net3.branch_from, net3.branch_to, net3.loads)


def test_some_random_trees_move_the_slack_and_write_branches_child_to_parent():
    nets = [random_network(seed) for seed in SEEDS]
    assert any(net.slack_index != 0 for net in nets)
    assert any((net.branch_child == net.branch_from).any() for net in nets)


@pytest.mark.parametrize("seed", SEEDS)
def test_replace_derives_the_arrays_again(seed):
    net = random_network(seed)
    moved = dataclasses.replace(net, slack_vm=1.02)
    for name in ("branch_child", "free", "gens"):
        assert getattr(moved, name) is not getattr(net, name)
        assert np.array_equal(getattr(moved, name), getattr(net, name))
    assert_read_only(moved.branch_child, moved.free, moved.gens)
    # a new slack and new kinds change the derived arrays with them
    target = (net.slack_index + 1) % net.n
    kinds = {net.slack_index: BusKind.GEN, target: BusKind.SLACK}
    buses = tuple(dataclasses.replace(b, kind=kinds.get(b.id, b.kind)) for b in net.buses)
    reslacked = dataclasses.replace(net, buses=buses)
    assert reslacked.slack_index == target
    assert_arrays_of_records(reslacked)

    net3 = random_network3(seed)
    moved3 = dataclasses.replace(net3, slack_vm=1.02)
    for name in ("branch_from", "branch_to", "loads"):
        assert getattr(moved3, name) is not getattr(net3, name)
        assert np.array_equal(getattr(moved3, name), getattr(net3, name))
    assert_read_only(moved3.branch_from, moved3.branch_to, moved3.loads)
