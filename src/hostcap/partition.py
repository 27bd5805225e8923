"""Segment a radial feeder at cut buses and solve each piece independently.

A cut bus belongs to two subsystems: the one containing everything on its
slack side and the one rooted at the cut itself (all its subtrees).  Because
the optimal voltage pattern is known in closed form from the global tree
depths, the shared boundary voltages can be fixed up front, so the per-
subsystem solves need no coordination loop: the consistency constraint
between neighbouring segments holds by construction.  Each subsystem then
runs the ordinary pipeline with its boundary buses held immutable; stitched
results are re-verified globally, and any correction that would have to
cross a boundary falls back to the monolithic solve (logged).
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .hccore import (
    AdjustmentError,
    ConstraintSet,
    HCSolution,
    _pattern_state,
    finalize_solution,
    solve_hc,
    solve_hc_stages,
    verify,
)
from .netmodel import Bus, BusKind, Network, bfs_tree
from .powerflow import VoltageState, evaluate_injections

__all__ = [
    "Subsystem",
    "Partition",
    "make_partition",
    "solve_distributed_hc",
    "partition_benchmark",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Subsystem:
    index: int
    root: int                      # global bus id acting as this segment's slack
    buses: tuple[int, ...]         # global ids, ascending
    branch_indices: tuple[int, ...]


@dataclass(frozen=True)
class Partition:
    subsystems: tuple[Subsystem, ...]
    cut_buses: tuple[int, ...]

    @property
    def coupling_buses(self) -> tuple[int, ...]:
        return self.cut_buses

    def local_buses(self, n: int) -> tuple[int, ...]:
        cuts = set(self.cut_buses)
        return tuple(i for i in range(n) if i not in cuts)


def make_partition(network: Network, cut_buses: list[int] | tuple[int, ...]) -> Partition:
    """Split the tree at the given cut buses into len(cuts)+1 subsystems."""
    parents, depths, order = bfs_tree(network)
    cuts = list(dict.fromkeys(cut_buses))
    if len(cuts) != len(cut_buses):
        raise ValueError("duplicate cut buses")
    degree = np.bincount(np.concatenate([network.branch_from, network.branch_to]), minlength=network.n)
    for b in cuts:
        if not 0 <= b < network.n:
            raise ValueError(f"unknown cut bus {b}")
        if b == network.slack_index:
            raise ValueError("cut on slack bus")
        if degree[b] < 2:
            raise ValueError(f"cut bus {b} is a leaf and splits nothing")
    if not cuts:
        return Partition(
            subsystems=(
                Subsystem(
                    index=0,
                    root=network.slack_index,
                    buses=tuple(range(network.n)),
                    branch_indices=tuple(range(len(network.branches))),
                ),
            ),
            cut_buses=(),
        )

    cut_set = set(cuts)
    seg_of_cut = {b: i + 1 for i, b in enumerate(sorted(cut_set, key=order.index))}
    interior_seg = {network.slack_index: 0}
    seg_branches: dict[int, list[int]] = {i: [] for i in range(len(cuts) + 1)}
    branch_by_pair = {}
    for bi, br in enumerate(network.branches):
        branch_by_pair[(br.from_bus, br.to_bus)] = bi
        branch_by_pair[(br.to_bus, br.from_bus)] = bi
    for k in order:
        p = int(parents[k])
        if p < 0:
            continue
        seg = seg_of_cut[p] if p in cut_set else interior_seg[p]
        interior_seg[k] = seg
        seg_branches[seg].append(branch_by_pair[(p, k)])

    subsystems = []
    for seg in range(len(cuts) + 1):
        bis = sorted(seg_branches[seg])
        members = set()
        for bi in bis:
            members.add(network.branches[bi].from_bus)
            members.add(network.branches[bi].to_bus)
        root = network.slack_index if seg == 0 else next(b for b, s in seg_of_cut.items() if s == seg)
        members.add(root)
        subsystems.append(
            Subsystem(index=seg, root=root, buses=tuple(sorted(members)), branch_indices=tuple(bis))
        )
    return Partition(subsystems=tuple(subsystems), cut_buses=tuple(sorted(cut_set)))


def _subnetwork(network: Network, sub: Subsystem) -> tuple[Network, dict[int, int]]:
    local = {g: l for l, g in enumerate(sub.buses)}
    buses = []
    for g in sub.buses:
        b = network.buses[g]
        kind = BusKind.SLACK if g == sub.root else (b.kind if b.kind is not BusKind.SLACK else BusKind.LOAD)
        buses.append(Bus(id=local[g], kind=kind, load_p=b.load_p, load_q=b.load_q, lam=b.lam))
    branches = tuple(
        replace(network.branches[bi], from_bus=local[network.branches[bi].from_bus],
                to_bus=local[network.branches[bi].to_bus])
        for bi in sub.branch_indices
    )
    net = Network(
        buses=tuple(buses),
        branches=branches,
        base_mva=network.base_mva,
        base_kv=network.base_kv,
        slack_vm=network.slack_vm,  # overridden by root_vm in the pattern stage
    )
    return net, local


def solve_distributed_hc(
    network: Network,
    c: ConstraintSet,
    p: Partition,
    workers: int | None = None,
) -> HCSolution:
    """Solve every subsystem concurrently and stitch the results.

    Boundary (cut) voltages are pinned to the global pattern, so neighbouring
    segments agree on them by construction.  Falls back to the monolithic
    solve when a correction would cross a boundary or the stitched state
    fails global re-verification.
    """
    if not p.cut_buses:
        return solve_hc(network, c)
    _, depths, _ = bfs_tree(network)
    pattern = _pattern_state(network, c, depths)
    cut_set = set(p.cut_buses)

    def solve_one(sub: Subsystem):
        net, local = _subnetwork(network, sub)
        sub_depths = np.array([depths[g] for g in sub.buses])
        immutable = frozenset(local[g] for g in sub.buses if g in cut_set and g != sub.root)
        stages = solve_hc_stages(
            net,
            c,
            immutable=immutable,
            depths=sub_depths,
            root_vm=float(pattern.magnitudes[sub.root]),
        )
        return sub, local, stages[-1]

    nworkers = workers or len(p.subsystems)
    try:
        if nworkers > 1:
            with ThreadPoolExecutor(max_workers=nworkers) as pool:
                results = list(pool.map(solve_one, p.subsystems))
        else:
            results = [solve_one(sub) for sub in p.subsystems]
    except AdjustmentError as exc:
        logger.warning("partitioned solve fell back to monolithic: %s", exc)
        return solve_hc(network, c)

    mags = np.full(network.n, np.nan)
    angles = np.full(network.n, np.nan)
    for sub, local, sol in results:
        shift = float(pattern.angles[sub.root])
        for g in sub.buses:
            m = float(sol.state.magnitudes[local[g]])
            a = float(sol.state.angles[local[g]]) + shift
            if not np.isnan(mags[g]) and (mags[g] != m or angles[g] != a):
                logger.warning(
                    "partitioned solve fell back to monolithic: boundary mismatch at bus %d", g
                )
                return solve_hc(network, c)
            mags[g] = m
            angles[g] = a
    state = VoltageState(magnitudes=mags, angles=angles)
    failures = verify(network, c, state.phasors, evaluate_injections(network, state).s).failures()
    # theta is left out, as in the pipeline's joint check: the pf re-solve moves angles
    problem = next((f for f in failures if f[0] != "theta"), None)
    if problem is not None:
        logger.warning("partitioned solve fell back to monolithic: %s limit violated at %d", *problem)
        return solve_hc(network, c)
    return finalize_solution(network, c, state, stage="distributed")


def partition_benchmark(
    network: Network,
    c: ConstraintSet,
    cut_buses: list[int],
    workers: int | None = None,
    repeats: int = 3,
) -> dict:
    """Wall-time comparison of monolithic vs partitioned solve (reported, not asserted)."""
    part = make_partition(network, cut_buses)
    solve_hc(network, c)  # untimed warm-up of both paths, so no repeat pays first-call costs
    solve_distributed_hc(network, c, part, workers=workers)
    t0 = time.perf_counter()
    for _ in range(repeats):
        mono = solve_hc(network, c)
    t1 = time.perf_counter()
    for _ in range(repeats):
        dist = solve_distributed_hc(network, c, part, workers=workers)
    t2 = time.perf_counter()
    return {
        "monolithic_ms": (t1 - t0) / repeats * 1000.0,
        "distributed_ms": (t2 - t1) / repeats * 1000.0,
        "workers": workers or len(part.subsystems),
        "subsystems": len(part.subsystems),
        "hc_monolithic": mono.hc_total,
        "hc_distributed": dist.hc_total,
    }
