"""The solver runs on the network's branch arrays and stored BFS tree, never the dense Ybus.

Each test keeps the dense (or independently walked) reference it checks against.
"""

import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from hostcap.hccore import AdjustmentError, ConstraintSet, InfeasibleError, solve_hc
from hostcap.netmodel import bfs_tree, build_ybus, parse_case
from hostcap.oracle import GridSpec, grid_error_bound
from hostcap.powerflow import _jacobian, bus_injections

from conftest import FIXTURE_DIR, fixture_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

CASES = sorted(p.name for p in FIXTURE_DIR.glob("*.case"))
SHUNT_CASE = """
BASE 1.0 12.47
BUS 0 slack 0 0 0
BUS 1 gen 0 0 1
BUS 2 gen 0 0 1
BUS 3 load 0.01 0.002 0.5
BRANCH 0 1 0.02 0.01
BRANCH 1 2 0.03 0.02
BRANCH 1 3 0.01 0.01
SHUNT 1 0.5 -0.25
SHUNT 3 0.0 0.1
"""


def networks():
    return [parse_case(fixture_text(name)) for name in CASES] + [parse_case(SHUNT_CASE)]


def dense_polar_jacobian(net, vm, va):
    """Full n x n polar blocks H = dP/dt, N = dP/dV, M = dQ/dt, L = dQ/dV from the dense Ybus."""
    ybus = build_ybus(net)
    g, b = ybus.real, ybus.imag
    dth = va[:, None] - va[None, :]
    vv = vm[:, None] * vm[None, :]
    p_terms = vv * (g * np.cos(dth) + b * np.sin(dth))
    q_terms = vv * (g * np.sin(dth) - b * np.cos(dth))
    p, q = p_terms.sum(axis=1), q_terms.sum(axis=1)
    h = q_terms.copy()
    np.fill_diagonal(h, -q - b.diagonal() * vm**2)
    nm = p_terms / vm[None, :]
    np.fill_diagonal(nm, p / vm + g.diagonal() * vm)
    m = -p_terms.copy()
    np.fill_diagonal(m, p - g.diagonal() * vm**2)
    l = q_terms / vm[None, :]
    np.fill_diagonal(l, q / vm - b.diagonal() * vm)
    return h, nm, m, l


def test_eta_solve_never_builds_the_dense_ybus():
    for name in CASES:
        for eta in (0.95, 0.9):
            net = parse_case(fixture_text(name))
            try:
                solve_hc(net, ConstraintSet(eta=eta))
            except (AdjustmentError, InfeasibleError):
                pass
            assert not hasattr(net, "ybus"), (name, eta)


def test_jacobian_matches_dense_polar_reference():
    rng = np.random.default_rng(7)
    for net in networks():
        vm = rng.uniform(0.9, 1.1, net.n)
        va = rng.uniform(-0.2, 0.2, net.n)
        v = vm * np.exp(1j * va)
        s = bus_injections(net, v)
        h, nm, m, l = dense_polar_jacobian(net, vm, va)
        free = [i for i in range(net.n) if i != net.slack_index]
        # all buses free (PQ); a pf-stage subset (some PQ, the rest fixed); PV and PQ mixed
        for ang_idx, mag_idx in ((free, free), (free[::2], free[::2]), (free, free[1::2])):
            want = np.block(
                [
                    [h[np.ix_(ang_idx, ang_idx)], nm[np.ix_(ang_idx, mag_idx)]],
                    [m[np.ix_(mag_idx, ang_idx)], l[np.ix_(mag_idx, mag_idx)]],
                ]
            )
            got = _jacobian(net, v, s, ang_idx, mag_idx)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def dense_grid_error_bound(net, c, g):
    """The Lipschitz bound of grid_error_bound written over dense |Ybus| rows."""
    parents, _, _ = bfs_tree(net)
    free = [i for i in range(net.n) if i != net.slack_index]
    mag = np.linspace(c.v_min, c.v_max, g.magnitude_steps)
    h_v = mag[1] - mag[0]
    h_t = np.diff(np.linspace(-c.theta_max, c.theta_max, g.angle_steps))[0]
    lam, vm = net.lam, c.v_max
    ybus = build_ybus(net)
    yabs = np.abs(ybus)
    gdiag = np.abs(ybus.real.diagonal())
    off = yabs - np.diag(yabs.diagonal())
    l_theta = np.array([vm**2 * (lam[m] * off[m].sum() + lam @ off[:, m]) for m in range(net.n)])
    total = 0.0
    for j in free:
        total += (lam[j] * vm * (2 * gdiag[j] + off[j].sum()) + vm * lam @ off[:, j]) * h_v / 2
    for b in free:
        below = [u for u in free if b in _root_path(parents, u)]
        total += l_theta[below].sum() * h_t / 2
    return total


def _root_path(parents, u):
    path = []
    while u >= 0:
        path.append(u)
        u = int(parents[u])
    return path


@pytest.mark.parametrize("theta_max", [0.0, 0.004])
def test_grid_error_bound_matches_dense_formula(theta_max):
    g = GridSpec(magnitude_steps=11, angle_steps=5)
    c = ConstraintSet(theta_max=theta_max)
    for net in networks():
        want = dense_grid_error_bound(net, c, g)
        assert abs(grid_error_bound(net, c, g) - want) <= 1e-12 * want


def independent_bfs(net):
    adj = {i: [] for i in range(net.n)}
    for br in net.branches:
        adj[br.from_bus].append(br.to_bus)
        adj[br.to_bus].append(br.from_bus)
    root = net.slack_index
    parents, depths, order = [-1] * net.n, {root: 0}, [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if v not in depths:
                depths[v], parents[v] = depths[u] + 1, u
                order.append(v)
                queue.append(v)
    return parents, [depths[i] for i in range(net.n)], order


def test_bfs_tree_is_the_stored_walk():
    nets = networks() + [parse_case(make_feeder(500, seed, thermal=False, loads=True).text) for seed in (1, 2, 3)]
    for net in nets:
        parents, depths, order = bfs_tree(net)
        want = independent_bfs(net)
        assert (parents.tolist(), depths.tolist(), order) == want
        assert type(order) is list
        assert not parents.flags.writeable and not depths.flags.writeable
        order.reverse()
        assert bfs_tree(net)[2] == want[2]
