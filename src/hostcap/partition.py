"""Segment a radial feeder at cut buses and solve with the cuts held fixed.

A cut bus belongs to two subsystems: the one containing everything on its
slack side and the one rooted at the cut itself (all its subtrees).  Because
the optimal voltage pattern is known in closed form from the tree depths,
every boundary voltage is fixed up front, so the segments need no
coordination loop: neighbouring segments agree on a cut bus by construction.
The solve is therefore one pass of the ordinary pipeline over the whole tree
with the cut buses held at their pattern values; any correction that would
have to move a cut bus falls back to the monolithic solve (logged).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .hccore import AdjustmentError, ConstraintSet, HCSolution, solve_hc, solve_hc_stages
from .hccore import finalize_solution  # noqa: F401  kept as a module attribute: bench/tracer.py shims it here
from .netmodel import Network, bfs_tree
from .powerflow import evaluate_injections  # noqa: F401  likewise

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


def solve_distributed_hc(
    network: Network,
    c: ConstraintSet,
    p: Partition,
    workers: int | None = None,
) -> HCSolution:
    """Solve with every cut bus held at its pattern value; ``workers`` has no effect.

    One pass of the ordinary pipeline over the whole tree, so each cut bus
    is seen with its full injection.  Falls back to the monolithic solve
    (logged) when a correction would have to move a cut bus.
    """
    if not p.cut_buses:
        return solve_hc(network, c)
    try:
        stages = solve_hc_stages(network, c, immutable=frozenset(p.cut_buses))
    except AdjustmentError as exc:
        logger.warning("partitioned solve fell back to monolithic: %s", exc)
        return solve_hc(network, c)
    return replace(stages[-1], stage="distributed")


def partition_benchmark(
    network: Network,
    c: ConstraintSet,
    cut_buses: list[int],
    workers: int | None = None,
    repeats: int = 3,
) -> dict:
    """Wall-time comparison of monolithic vs partitioned solve (reported, not asserted).

    ``workers`` has no effect on either solve; it is reported as given, or
    as the subsystem count when unset.
    """
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
