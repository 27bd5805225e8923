"""Cut a radial feeder at buses and read the solve at them.

A cut bus joins two segments: the one holding everything on its slack side
and the one below it (all its subtrees), so ``k`` cuts make ``k + 1``
segments.  Because the optimal voltage pattern is known in closed form from
the tree depths, every boundary voltage is fixed up front, so the segments
need no coordination loop: neighbouring segments agree on a cut bus by
construction.  The partitioned solve therefore solves nothing: it reads the
caller's one pipeline run at the cut buses.  Where no correction moved a
cut bus from its pattern value the segments were independent; where one
did, the result is the monolithic solve's (logged).  A :class:`Partition`
keeps only its validated cuts.  Of the hccore and powerflow imports, all
but ``HCSolution`` are here only for bench/tracer.py, which shims them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .hccore import HCSolution, finalize_solution, solve_hc, solve_hc_stages  # noqa: F401  all but HCSolution: tracer shim targets
from .netmodel import Network, bfs_tree
from .powerflow import evaluate_injections  # noqa: F401  likewise

__all__ = [
    "Partition",
    "make_partition",
    "solve_distributed_hc",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Partition:
    cut_buses: tuple[int, ...]  # ascending


def make_partition(network: Network, cut_buses: list[int] | tuple[int, ...]) -> Partition:
    """Check the cut buses of a radial network; the partition has len(cuts) + 1 segments.

    The network must be radial (``bfs_tree`` raises otherwise), and each cut
    must be a distinct, known, non-slack bus that is no leaf, so that it
    splits something off.
    """
    bfs_tree(network)
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
    return Partition(tuple(sorted(cuts)))


_CORRECTION = {"thermal_adjusted": "thermal", "pf_adjusted": "power-factor"}


def solve_distributed_hc(stages: list[HCSolution], p: Partition) -> HCSolution:
    """Read the pipeline's stages at the cut buses.

    ``stages`` is what ``solve_hc_stages`` returned for the whole tree, so
    each cut bus is seen with its full injection.  Where no correction moved
    a cut bus (magnitude and angle bit for bit against the pattern stage),
    the last stage is the segments' joint answer and is labelled
    ``distributed``.  Otherwise the partitioned solve falls back to the
    monolithic one (logged) and returns the last stage unchanged, as it
    does with no cuts.
    """
    if not p.cut_buses:
        return stages[-1]
    pattern = stages[0].state
    for sol in stages[1:]:
        moved = [
            b for b in p.cut_buses
            if sol.state.magnitudes[b] != pattern.magnitudes[b] or sol.state.angles[b] != pattern.angles[b]
        ]
        if moved:
            logger.warning(
                "partitioned solve fell back to monolithic: the %s correction moved cut bus %d",
                _CORRECTION[sol.stage],
                moved[0],
            )
            return stages[-1]
    return replace(stages[-1], stage="distributed")
