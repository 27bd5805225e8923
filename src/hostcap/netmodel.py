"""Radial feeder model: case-file parsing, admittance assembly, BFS tree.

Buses and branches are plain frozen records.  The :class:`Network` derives
read-only arrays from them once (branch ends, child ends, admittances and
limits, the BFS tree from the slack, the non-slack and generator buses), and
the solver core reads only those.  Only tests build the dense admittance
matrix (:func:`build_ybus`), as the reference of the branch-wise evaluation.
All quantities are per-unit on the case file's system base.

Case file format (UTF-8 text, ``#`` starts a comment, blank lines ignored)::

    BASE   <MVA> <kV>
    BUS    <id> <slack|gen|load> <Pload> <Qload> <lambda>
    BRANCH <from> <to> <r> <x> [C]
    SHUNT  <bus> <g> <b>                      # optional, folded into Ybus diagonal
    LIMITS <vmin> <vmax> [theta_max] [eta]    # optional defaults, see cli module

All numbers are decimal; loads and impedances are per-unit on the declared
base.  Bus ids must be contiguous integers starting at 0; by convention the
slack is bus 0, but any single bus may be declared ``slack``.

One reader serves this format and the three-phase ``.case3`` format of
:mod:`hostcap.sequence`, which differ only in their BUS/BRANCH records' reals
and in SHUNT, a ``.case``-only record: both share every record check and its
error message, which names the record's line, and both network types share
one check of bus ids, slack and branch ends.
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


def _checked_ends(buses, branches) -> tuple[int, np.ndarray, np.ndarray]:
    """The slack's index and branch ends, once ids run 0..n-1, one bus is the slack and every end exists.

    Shared by :class:`Network` and :class:`hostcap.sequence.ThreePhaseNetwork`.
    """
    n = len(buses)
    if n == 0:
        raise ValueError("network has no buses")
    if [b.id for b in buses] != list(range(n)):
        raise ValueError("bus ids must be contiguous integers starting at 0")
    slack = BusKind.SLACK  # bound once: an Enum member lookup costs more than the test
    slacks = [b.id for b in buses if b.kind is slack]
    if len(slacks) == 0:
        raise ValueError("missing slack bus")
    if len(slacks) > 1:
        raise ValueError(f"multiple slack buses: {slacks}")
    frm = np.array([br.from_bus for br in branches], dtype=int)
    to = np.array([br.to_bus for br in branches], dtype=int)
    bad = np.flatnonzero((np.minimum(frm, to) < 0) | (np.maximum(frm, to) >= n))
    if bad.size:
        raise ValueError(f"branch {frm[bad[0]]}-{to[bad[0]]}: unknown bus id")
    return slacks[0], frm, to


def _set_readonly(obj, **arrays: np.ndarray) -> None:
    """Set each array, made read-only, on the frozen dataclass ``obj``."""
    for name, arr in arrays.items():
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class Network:
    """A frozen bus/branch network over per-branch arrays.

    Construction validates that bus ids are contiguous from 0, that exactly
    one bus is the slack, that branch endpoints exist and that the branch
    graph is connected.  Radiality (exactly n-1 branches) is *not* required
    here; operations that need a tree check it themselves.  Construction
    derives, once, the per-branch arrays (endpoints, child end, series
    admittance, thermal limit), the breadth-first walk from the slack
    (``parents``, ``depths``, ``order``; see :func:`bfs_tree`), the slack
    index, the ``free`` (non-slack) and ``gens`` buses and the weights ``lam``.
    The solver and the grid oracle run on these alone.  ``case_limits`` holds
    the LIMITS record (None without one): CLI defaults, unused by the solver.
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
    branch_child: np.ndarray = field(init=False, repr=False)  # on a tree, the end farther from the slack
    branch_y: np.ndarray = field(init=False, repr=False)
    branch_limit: np.ndarray = field(init=False, repr=False)
    # breadth-first walk from the slack over adjacency(): parent (-1 at the root), depth, visit order
    parents: np.ndarray = field(init=False, repr=False)
    depths: np.ndarray = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)
    slack_index: int = field(init=False)
    free: np.ndarray = field(init=False, repr=False)  # ascending ids of the non-slack buses
    gens: np.ndarray = field(init=False, repr=False)  # ascending ids of the generator buses
    lam: np.ndarray = field(init=False, repr=False)  # per-bus objective weight

    def __post_init__(self) -> None:
        n, (root, frm, to) = len(self.buses), _checked_ends(self.buses, self.branches)
        if self.slack_vm <= 0:
            raise ValueError("slack voltage magnitude must be positive")
        if self.shunts is not None and len(self.shunts) != n:
            raise ValueError("shunt vector length must equal bus count")
        adj = self.adjacency()
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
        parents = np.array(parents, dtype=int)
        gen = BusKind.GEN  # bound once, as in _checked_ends
        _set_readonly(
            self,
            branch_from=frm,
            branch_to=to,
            branch_child=np.where(parents[to] == frm, to, frm),
            branch_y=np.array([br.series_admittance for br in self.branches], dtype=complex),
            branch_limit=np.array(limits, dtype=float),
            parents=parents,
            depths=np.array(depths, dtype=int),
            order=np.array(order, dtype=int),
            free=np.flatnonzero(np.arange(n) != root),
            gens=np.array([b.id for b in self.buses if b.kind is gen], dtype=int),
            lam=np.array([b.lam for b in self.buses], dtype=float),
        )

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
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield lineno, toks


def _num(tok: str, lineno: int, what: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise CaseFormatError(f"line {lineno}: {what} is not a number: {tok!r}") from None
    if not math.isfinite(val):
        raise CaseFormatError(f"line {lineno}: {what} must be finite: {tok!r}")
    return val


def _reals(toks: list[str], lineno: int, labels) -> list[float]:
    """The tokens as finite floats, converted in one pass; ``_num`` names a bad one."""
    try:
        vals = [*map(float, toks)]
    except ValueError:
        vals = [math.nan]  # _num below names the token
    total = sum(vals)
    if total - total == 0:  # an inf or nan anywhere makes the sum non-finite
        return vals
    return [_num(tok, lineno, what) for tok, what in zip(toks, labels)]


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CaseFormatError(f"line {lineno}: {what} is not an integer: {tok!r}") from None


_KINDS = {kind.value: kind for kind in BusKind}


def _read_case(text: str, suffix: str, *, bus_reals, branch_reals, usage, bus, branch, network, extra=None):
    """Read case text of either format into its network.

    A bus record is ``BUS<suffix> <id> <kind> <load reals> <lambda>`` and a
    branch record ``BRANCH<suffix> <from> <to> <impedance reals> [C]``.
    ``bus_reals`` and ``branch_reals`` label each real in error messages,
    ``usage`` is the (bus, branch) records' usage line.  ``bus(id, kind,
    *reals)`` and ``branch(from, to, *reals, C)`` build the records and
    ``network(buses, branches, base_mva, base_kv, limits)`` the network; their
    ValueErrors come back as :class:`CaseFormatError`, a record's naming its
    line (a :class:`TopologyError` passes through).  BASE and the
    first LIMITS record are read for every format; ``extra`` maps further
    records to ``handler(toks, lineno)``.
    """
    bus_rec, branch_rec = "BUS" + suffix, "BRANCH" + suffix
    n_bus, n_branch = 3 + len(bus_reals), 3 + len(branch_reals)
    handlers = extra or {}
    raw_buses: dict = {}
    branches: list = []
    base = limits = None
    for lineno, toks in _tokens(text):
        rec = toks[0].upper()
        try:
            if rec == branch_rec:
                if len(toks) != n_branch and len(toks) != n_branch + 1:
                    raise CaseFormatError(f"line {lineno}: {branch_rec} takes {usage[1]}")
                limit = None
                if len(toks) > n_branch:
                    limit = _num(toks[-1], lineno, "thermal limit")
                    if not limit > 0:
                        raise CaseFormatError(f"line {lineno}: thermal limit must be positive")
                try:
                    ends = int(toks[1]), int(toks[2])
                except ValueError:  # _int names the bad one
                    ends = _int(toks[1], lineno, "from bus"), _int(toks[2], lineno, "to bus")
                branches.append(branch(*ends, *_reals(toks[3:n_branch], lineno, branch_reals), limit))
            elif rec == bus_rec:
                if len(toks) != n_bus:
                    raise CaseFormatError(f"line {lineno}: {bus_rec} takes {usage[0]}")
                bid = _int(toks[1], lineno, "bus id")
                kind = _KINDS.get(toks[2].lower())
                if kind is None:
                    raise CaseFormatError(f"line {lineno}: unknown bus kind {toks[2]!r}")
                if bid in raw_buses:
                    raise CaseFormatError(f"line {lineno}: duplicate bus id {bid}")
                raw_buses[bid] = bus(bid, kind, *_reals(toks[3:], lineno, bus_reals))
            elif rec == "BASE":
                if len(toks) != 3:
                    raise CaseFormatError(f"line {lineno}: BASE takes <MVA> <kV>")
                base = _reals(toks[1:], lineno, ("base MVA", "base kV"))
            elif rec == "LIMITS":
                if len(toks) not in (3, 4, 5):
                    raise CaseFormatError(f"line {lineno}: LIMITS takes <vmin> <vmax> [theta_max] [eta]")
                found = dict(zip(("v_min", "v_max", "theta_max", "eta"), _reals(toks[1:], lineno, ("limit",) * 4)))
                limits = limits or found  # every record is checked; the first one counts
            elif rec in handlers:
                handlers[rec](toks, lineno)
            else:
                raise CaseFormatError(f"line {lineno}: unknown record {toks[0]!r}")
        except CaseFormatError:
            raise
        except ValueError as exc:  # a record's own check (Bus, Branch, ...) names no line
            raise CaseFormatError(f"line {lineno}: {exc}") from None
    if base is None:
        raise CaseFormatError("missing BASE header")
    if not raw_buses:
        raise CaseFormatError("no BUS records")
    n = len(raw_buses)
    if sorted(raw_buses) != list(range(n)):
        raise CaseFormatError("bus ids must be contiguous integers starting at 0")
    try:
        return network(tuple(map(raw_buses.__getitem__, range(n))), tuple(branches), *base, limits)
    except TopologyError:
        raise
    except ValueError as exc:
        raise CaseFormatError(str(exc)) from None


def parse_case(text: str) -> Network:
    """Parse case-file content into a :class:`Network`.

    See the module docstring for the format.  Raises
    :class:`CaseFormatError` for syntax problems and invariant violations
    (duplicate ids, missing/multiple slack), :class:`TopologyError` for a
    disconnected branch graph.
    """
    shunt_records: list[tuple[int, int, float, float]] = []

    def shunt(toks, lineno):
        if len(toks) != 4:
            raise CaseFormatError(f"line {lineno}: SHUNT takes <bus> <g> <b>")
        bid = _int(toks[1], lineno, "bus id")
        shunt_records.append((lineno, bid, *_reals(toks[2:], lineno, ("g", "b"))))

    def network(buses, branches, base_mva, base_kv, limits):
        shunts = None
        if shunt_records:
            vec = [0j] * len(buses)
            for lineno, bid, g, b in shunt_records:
                if not 0 <= bid < len(buses):
                    raise CaseFormatError(f"line {lineno}: SHUNT references unknown bus {bid}")
                vec[bid] += complex(g, b)
            shunts = tuple(vec)
        return Network(buses, branches, base_mva, base_kv, shunts=shunts, case_limits=limits)

    return _read_case(
        text,
        "",
        bus_reals=("Pload", "Qload", "lambda"),
        branch_reals=("r", "x"),
        usage=("<id> <kind> <Pload> <Qload> <lambda>", "<from> <to> <r> <x> [C]"),
        bus=Bus,
        branch=Branch,
        network=network,
        extra={"SHUNT": shunt},
    )


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
