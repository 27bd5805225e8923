"""Radial feeder model: case-file parsing, admittance assembly, BFS tree.

Buses and branches are plain frozen records; the :class:`Network` bundles
them with per-branch arrays and the BFS tree from the slack.  The dense
admittance matrix (:func:`build_ybus`) is not part of it: only tests build it,
as the reference of the branch-wise evaluation.  All quantities are per-unit
on the case file's system base.

Case file format (UTF-8 text, ``#`` starts a comment, blank lines ignored)::

    BASE   <MVA> <kV>
    BUS    <id> <slack|gen|load> <Pload> <Qload> <lambda>
    BRANCH <from> <to> <r> <x> [C]
    SHUNT  <bus> <g> <b>                      # optional, folded into Ybus diagonal
    LIMITS <vmin> <vmax> [theta_max] [eta]    # optional defaults, see cli module

All numbers are decimal; loads and impedances are per-unit on the declared
base.  Bus ids must be contiguous integers starting at 0; by convention the
slack is bus 0, but any single bus may be declared ``slack``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "BusKind",
    "Bus",
    "Branch",
    "Network",
    "CaseFormatError",
    "TopologyError",
    "parse_case",
    "serialize_case",
    "build_ybus",
    "bfs_tree",
]


class CaseFormatError(ValueError):
    """Raised for malformed or inconsistent case-file content."""


class TopologyError(ValueError):
    """Raised when a network's graph violates a topology requirement."""


class BusKind(str, Enum):
    SLACK = "slack"
    GEN = "gen"    # PV-type: candidate DG location
    LOAD = "load"  # PQ-type

    def __str__(self) -> str:  # keep case-file spelling in messages/output
        return self.value


@dataclass(frozen=True)
class Bus:
    """A network node.

    ``lam`` is the non-negative objective weight of the bus (0 excludes the
    bus from the hosting-capacity objective).
    """

    id: int
    kind: BusKind
    load_p: float = 0.0
    load_q: float = 0.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"bus {self.id}: lambda must be non-negative")


@dataclass(frozen=True)
class Branch:
    """A series branch (line segment) with optional thermal current limit."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    thermal_limit: float | None = None

    def __post_init__(self) -> None:
        if self.from_bus == self.to_bus:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: self loop")
        if self.r < 0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: negative resistance")
        if self.r == 0 and self.x == 0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: zero-impedance branch")
        if self.thermal_limit is not None and not self.thermal_limit >= 0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: thermal limit must be >= 0")

    @property
    def series_admittance(self) -> complex:
        return 1.0 / complex(self.r, self.x)


@dataclass(frozen=True, eq=False)
class Network:
    """A frozen bus/branch network over per-branch arrays.

    Construction validates that bus ids are contiguous from 0, that exactly
    one bus is the slack, that branch endpoints exist and that the branch
    graph is connected.  Radiality (exactly n-1 branches) is *not* required
    here; operations that need a tree check it themselves.  Construction
    derives, once, the per-branch arrays (endpoints, series admittance,
    thermal limit), the breadth-first walk from the slack (``parents``,
    ``depths``, ``order``; see :func:`bfs_tree`), the slack index and the
    objective weights ``lam``.  The solver and the grid oracle run on these
    alone.  ``case_limits`` holds the case file's LIMITS record (None
    without one): constraint defaults for the CLI, unused by the solver.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    base_mva: float = 1.0
    base_kv: float = 1.0
    slack_vm: float = 1.0
    shunts: tuple[complex, ...] | None = None
    case_limits: dict[str, float] | None = None
    # per-branch arrays, in branch order; branch_limit is +inf where unlimited
    branch_from: np.ndarray = field(init=False, repr=False)
    branch_to: np.ndarray = field(init=False, repr=False)
    branch_y: np.ndarray = field(init=False, repr=False)
    branch_limit: np.ndarray = field(init=False, repr=False)
    # breadth-first walk from the slack over adjacency(): parent (-1 at the root), depth, visit order
    parents: np.ndarray = field(init=False, repr=False)
    depths: np.ndarray = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)
    slack_index: int = field(init=False)
    lam: np.ndarray = field(init=False, repr=False)  # per-bus objective weight

    def __post_init__(self) -> None:
        n = len(self.buses)
        if n == 0:
            raise ValueError("network has no buses")
        ids = [b.id for b in self.buses]
        if ids != list(range(n)):
            raise ValueError("bus ids must be contiguous integers starting at 0")
        slacks = [b.id for b in self.buses if b.kind is BusKind.SLACK]
        if len(slacks) == 0:
            raise ValueError("missing slack bus")
        if len(slacks) > 1:
            raise ValueError(f"multiple slack buses: {slacks}")
        if self.slack_vm <= 0:
            raise ValueError("slack voltage magnitude must be positive")
        for br in self.branches:
            if not (0 <= br.from_bus < n and 0 <= br.to_bus < n):
                raise ValueError(f"branch {br.from_bus}-{br.to_bus}: unknown bus id")
        if self.shunts is not None and len(self.shunts) != n:
            raise ValueError("shunt vector length must equal bus count")
        adj, root = self.adjacency(), slacks[0]
        parents, depths, order = [-1] * n, [-1] * n, [root]
        depths[root] = 0
        for u in order:  # the list grows while it is walked: a breadth-first queue
            for v, _bi in adj[u]:
                if depths[v] < 0:
                    depths[v] = depths[u] + 1
                    parents[v] = u
                    order.append(v)
        if len(order) != n:
            raise TopologyError("non-connected graph")
        object.__setattr__(self, "slack_index", root)
        limits = [np.inf if br.thermal_limit is None else br.thermal_limit for br in self.branches]
        for name, values, dtype in (
            ("branch_from", [br.from_bus for br in self.branches], int),
            ("branch_to", [br.to_bus for br in self.branches], int),
            ("branch_y", [br.series_admittance for br in self.branches], complex),
            ("branch_limit", limits, float),
            ("parents", parents, int),
            ("depths", depths, int),
            ("order", order, int),
            ("lam", [b.lam for b in self.buses], float),
        ):
            arr = np.array(values, dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.buses)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-bus list of (neighbor id, branch index), sorted by neighbor."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for bi, br in enumerate(self.branches):
            adj[br.from_bus].append((br.to_bus, bi))
            adj[br.to_bus].append((br.from_bus, bi))
        for lst in adj:
            lst.sort()
        return adj

    def is_radial(self) -> bool:
        return len(self.branches) == self.n - 1


def build_ybus(network: Network) -> np.ndarray:
    """Assemble the complex bus admittance matrix from series branches.

    Off-diagonal entries are the negated series admittances; diagonals sum
    the incident series admittances plus any shunt terms.  The result is
    symmetric, and with no shunts every row sums to zero.  The dense
    reference (16 n^2 bytes) that tests pin the branch-wise evaluation to.
    """
    n = len(network.buses)
    y = np.zeros((n, n), dtype=complex)
    i, k, ys = network.branch_from, network.branch_to, network.branch_y
    # np.add.at adds in index order, so every entry sums its branches in branch order
    index = (np.column_stack([i, k, i, k]).ravel(), np.column_stack([k, i, i, k]).ravel())
    np.add.at(y, index, np.column_stack([-ys, -ys, ys, ys]).ravel())
    if network.shunts is not None:
        y[np.diag_indices(n)] += np.asarray(network.shunts, dtype=complex)
    return y


def bfs_tree(network: Network) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Breadth-first tree of a radial network rooted at the slack.

    Returns ``(parents, depths, order)`` where ``parents[slack] == -1`` and
    ``order`` lists bus ids in visit order; ``depths % 2`` is the alternating
    label of the voltage pattern.  The arrays are the network's read-only
    ones, walked once at construction; ``order`` is a fresh list.  Raises
    :class:`TopologyError` for non-radial networks.
    """
    if not network.is_radial():
        raise TopologyError("non-radial network: expected exactly n-1 branches")
    return network.parents, network.depths, network.order.tolist()


# --- case-file I/O ---------------------------------------------------------


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _num(tok: str, lineno: int, what: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise CaseFormatError(f"line {lineno}: {what} is not a number: {tok!r}") from None
    if not math.isfinite(val):
        raise CaseFormatError(f"line {lineno}: {what} must be finite: {tok!r}")
    return val


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CaseFormatError(f"line {lineno}: {what} is not an integer: {tok!r}") from None


def _kind(tok: str, lineno: int) -> BusKind:
    try:
        return BusKind(tok.lower())
    except ValueError:
        raise CaseFormatError(f"line {lineno}: unknown bus kind {tok!r}") from None


def _thermal_limit(tok: str, lineno: int) -> float:
    """A branch record's optional thermal limit C, which must be positive."""
    limit = _num(tok, lineno, "thermal limit")
    if not limit > 0:
        raise CaseFormatError(f"line {lineno}: thermal limit must be positive")
    return limit


def _limits(toks: list[str], lineno: int) -> dict[str, float]:
    if len(toks) not in (3, 4, 5):
        raise CaseFormatError(f"line {lineno}: LIMITS takes <vmin> <vmax> [theta_max] [eta]")
    vals = [_num(tok, lineno, "limit") for tok in toks[1:]]
    return dict(zip(("v_min", "v_max", "theta_max", "eta"), vals))


def _read_records(text: str, handlers: dict) -> tuple[tuple[float, float], dict[str, float] | None]:
    """Read BASE and LIMITS, pass every other record to ``handlers[record](toks, lineno)``.

    Shared by every case format; returns the (MVA, kV) base and the first
    LIMITS record's values (None without one).
    """
    base = limits = None
    for lineno, toks in _tokens(text):
        rec = toks[0].upper()
        if rec == "BASE":
            if len(toks) != 3:
                raise CaseFormatError(f"line {lineno}: BASE takes <MVA> <kV>")
            base = (_num(toks[1], lineno, "base MVA"), _num(toks[2], lineno, "base kV"))
        elif rec == "LIMITS":
            found = _limits(toks, lineno)  # every record is checked; the first one counts
            limits = limits or found
        elif rec in handlers:
            handlers[rec](toks, lineno)
        else:
            raise CaseFormatError(f"line {lineno}: unknown record {toks[0]!r}")
    if base is None:
        raise CaseFormatError("missing BASE header")
    return base, limits


def _bus_tuple(raw: dict) -> tuple:
    """Parsed bus records in id order; ids must run contiguously from 0."""
    if not raw:
        raise CaseFormatError("no BUS records")
    n = len(raw)
    if sorted(raw) != list(range(n)):
        raise CaseFormatError("bus ids must be contiguous integers starting at 0")
    return tuple(raw[i] for i in range(n))


def parse_case(text: str) -> Network:
    """Parse case-file content into a :class:`Network`.

    See the module docstring for the format.  Raises
    :class:`CaseFormatError` for syntax problems and invariant violations
    (duplicate ids, missing/multiple slack), :class:`TopologyError` for a
    disconnected branch graph.
    """
    raw_buses: dict[int, Bus] = {}
    branches: list[Branch] = []
    shunt_records: list[tuple[int, float, float]] = []

    def bus(toks, lineno):
        if len(toks) != 6:
            raise CaseFormatError(f"line {lineno}: BUS takes <id> <kind> <Pload> <Qload> <lambda>")
        bid = _int(toks[1], lineno, "bus id")
        kind = _kind(toks[2], lineno)
        if bid in raw_buses:
            raise CaseFormatError(f"line {lineno}: duplicate bus id {bid}")
        raw_buses[bid] = Bus(
            id=bid,
            kind=kind,
            load_p=_num(toks[3], lineno, "Pload"),
            load_q=_num(toks[4], lineno, "Qload"),
            lam=_num(toks[5], lineno, "lambda"),
        )

    def branch(toks, lineno):
        if len(toks) not in (5, 6):
            raise CaseFormatError(f"line {lineno}: BRANCH takes <from> <to> <r> <x> [C]")
        limit = _thermal_limit(toks[5], lineno) if len(toks) == 6 else None
        branches.append(
            Branch(
                from_bus=_int(toks[1], lineno, "from bus"),
                to_bus=_int(toks[2], lineno, "to bus"),
                r=_num(toks[3], lineno, "r"),
                x=_num(toks[4], lineno, "x"),
                thermal_limit=limit,
            )
        )

    def shunt(toks, lineno):
        if len(toks) != 4:
            raise CaseFormatError(f"line {lineno}: SHUNT takes <bus> <g> <b>")
        bid = _int(toks[1], lineno, "bus id")
        shunt_records.append((bid, _num(toks[2], lineno, "g"), _num(toks[3], lineno, "b")))

    (base_mva, base_kv), limits = _read_records(text, {"BUS": bus, "BRANCH": branch, "SHUNT": shunt})
    buses = _bus_tuple(raw_buses)  # the slack count is checked by Network
    n = len(buses)

    shunts = None
    if shunt_records:
        vec = [0j] * n
        for bid, g, b in shunt_records:
            if not 0 <= bid < n:
                raise CaseFormatError(f"SHUNT references unknown bus {bid}")
            vec[bid] += complex(g, b)
        shunts = tuple(vec)

    try:
        return Network(
            buses=buses,
            branches=tuple(branches),
            base_mva=base_mva,
            base_kv=base_kv,
            shunts=shunts,
            case_limits=limits,
        )
    except TopologyError:
        raise
    except ValueError as exc:
        raise CaseFormatError(str(exc)) from None


def serialize_case(network: Network) -> str:
    """Render a network back to case-file text with full float precision."""
    lines = [f"BASE {network.base_mva!r} {network.base_kv!r}"]
    for b in network.buses:
        lines.append(f"BUS {b.id} {b.kind} {b.load_p!r} {b.load_q!r} {b.lam!r}")
    for br in network.branches:
        tail = f" {br.thermal_limit!r}" if br.thermal_limit is not None else ""
        lines.append(f"BRANCH {br.from_bus} {br.to_bus} {br.r!r} {br.x!r}{tail}")
    if network.shunts is not None:
        for bid, s in enumerate(network.shunts):
            if s != 0:
                lines.append(f"SHUNT {bid} {s.real!r} {s.imag!r}")
    if network.case_limits:
        lines.append("LIMITS " + " ".join(repr(v) for v in network.case_limits.values()))
    return "\n".join(lines) + "\n"
