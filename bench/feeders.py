"""Seeded synthetic radial feeders, written as hostcap case files.

Single-phase recipe.  One ``random.Random(seed)`` stream is drawn in this
order.  First, for every bus i = 1 .. n-1:

* the parent of bus i is uniform in ``[max(0, i-4), i)``;
* ``r ~ U(0.01, 0.06)`` and ``x = r * U(0.2, 1)``;
* with thermal limits on, the branch gets ``C ~ U(0.5, 3)`` with
  probability 0.2.

Then, with loads on, every bus i = 1 .. n-1 gets ``P ~ U(0, 0.02)`` and
``Q = P / 4``.  Bus 0 is the slack with lambda 0; every other bus is
``gen`` with lambda 1.

The three-phase variant uses the same tree and self impedance.  Every line
is transposed: its 3x3 block has the self impedance ``r + jx`` on the
diagonal and one mutual impedance ``(r + jx) * U(0.2, 0.4)`` off it (drawn
after the branch's thermal draw), so the sequence networks decouple
exactly.  Each phase's load is drawn on its own, which makes the loads
unbalanced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Feeder:
    """A generated feeder: its tree, its thermal limits and its case text."""

    parent: tuple[int, ...]           # parent[0] == -1
    limit: tuple[float | None, ...]   # of branch (parent[i], i), at index i-1
    text: str


def make_feeder(n: int, seed: int, *, thermal: bool, loads: bool, three_phase: bool = False) -> Feeder:
    if n < 2:
        raise ValueError("a feeder needs at least two buses")
    rng = random.Random(seed)
    parent = [-1]
    z: list[complex] = []
    zm: list[complex] = []
    limit: list[float | None] = []
    for i in range(1, n):
        parent.append(rng.randrange(max(0, i - 4), i))
        r = rng.uniform(0.01, 0.06)
        x = r * rng.uniform(0.2, 1.0)
        z.append(complex(r, x))
        limit.append(rng.uniform(0.5, 3.0) if thermal and rng.random() < 0.2 else None)
        zm.append(complex(r, x) * rng.uniform(0.2, 0.4) if three_phase else 0j)
    phases = 3 if three_phase else 1
    load = [[0j] * phases]
    for _ in range(1, n):
        row = []
        for _ph in range(phases):
            p = rng.uniform(0.0, 0.02) if loads else 0.0
            row.append(complex(p, p / 4))
        load.append(row)
    if three_phase:
        text = _case3_text(parent, z, zm, limit, load)
    else:
        text = _case_text(parent, z, limit, load)
    return Feeder(tuple(parent), tuple(limit), text)


def _bus_head(i: int) -> tuple[str, float]:
    """Kind and objective weight of bus i: slack 0 with lambda 0, else gen with 1."""
    return ("slack", 0.0) if i == 0 else ("gen", 1.0)


def _case_text(parent, z, limit, load) -> str:
    lines = ["BASE 1.0 1.0"]
    for i, (s,) in enumerate(load):
        kind, lam = _bus_head(i)
        lines.append(f"BUS {i} {kind} {s.real!r} {s.imag!r} {lam!r}")
    for i in range(1, len(parent)):
        zb, c = z[i - 1], limit[i - 1]
        tail = f" {c!r}" if c is not None else ""
        lines.append(f"BRANCH {parent[i]} {i} {zb.real!r} {zb.imag!r}{tail}")
    return "\n".join(lines) + "\n"


def _case3_text(parent, z, zm, limit, load) -> str:
    lines = ["BASE 1.0 1.0"]
    for i, row in enumerate(load):
        kind, lam = _bus_head(i)
        pq = " ".join(f"{s.real!r} {s.imag!r}" for s in row)
        lines.append(f"BUS3 {i} {kind} {pq} {lam!r}")
    for i in range(1, len(parent)):
        zs, m, c = z[i - 1], zm[i - 1], limit[i - 1]
        block = [zs if a == b else m for a in range(3) for b in range(3)]
        vals = " ".join(f"{e.real!r} {e.imag!r}" for e in block)
        tail = f" {c!r}" if c is not None else ""
        lines.append(f"BRANCH3 {parent[i]} {i} {vals}{tail}")
    return "\n".join(lines) + "\n"
