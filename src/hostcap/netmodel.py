"""Radial feeder model: case-file parsing, admittance assembly, BFS tree.

A :class:`Network` is read-only columns (per bus, per branch, the BFS tree
from the slack), and the solver core reads only those.  :func:`parse_case`
fills them straight from the text; the ``buses`` and ``branches`` records
are built from them on first access.  Only tests build the dense admittance
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
slack is bus 0, but any single bus may be declared ``slack``.  The last BASE
and the first LIMITS record count.

One reader serves this format and the three-phase ``.case3`` format of
:mod:`hostcap.sequence`, which differ only in their BUS/BRANCH records' reals
and in SHUNT, a ``.case``-only record.  It checks each column by array
expressions; on a fault the per-record checks raise the first one in line
order, naming its line.  Both network types share one check of slack and ends.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from itertools import chain

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


def _branch_faults(frm, to, r, x, limit) -> np.ndarray:
    """Per branch, whether :class:`Branch`'s own checks refuse it."""
    return (frm == to) | (r < 0) | ((r == 0) & (x == 0)) | ~(limit >= 0)


def _record_columns(buses, branches) -> tuple:
    """The slack ids, generator ids, weights, branch ends and limits (+inf where unlimited) of records."""
    if [b.id for b in buses] != list(range(len(buses))):
        raise ValueError("bus ids must be contiguous integers starting at 0")
    return (
        [b.id for b in buses if b.kind is BusKind.SLACK],
        [b.id for b in buses if b.kind is BusKind.GEN],
        np.array([b.lam for b in buses], dtype=float),
        np.array([br.from_bus for br in branches], dtype=int),
        np.array([br.to_bus for br in branches], dtype=int),
        np.array([np.inf if br.thermal_limit is None else br.thermal_limit for br in branches], dtype=float),
    )


def _kinds(net) -> list[BusKind]:
    """Every bus's kind, from the slack and the generator ids."""
    kinds = [BusKind.LOAD] * net.n
    for g in net.gens.tolist():
        kinds[g] = BusKind.GEN
    kinds[net.slack_index] = BusKind.SLACK
    return kinds


def _set_readonly(obj, **arrays: np.ndarray) -> None:
    """Set each array, made read-only, on the frozen dataclass ``obj``."""
    for name, arr in arrays.items():
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


class _Columns:
    """Base of both network types: ``buses`` and ``branches`` are init fields without a default,
    so on a network made by ``_from_columns`` the first access builds both (``_records``)."""

    @classmethod
    def _from_columns(cls, *columns, **given):
        """The network of ``columns``, as ``_derive`` takes them, and the ``given`` init fields."""
        net = object.__new__(cls)
        net.__dict__.update({f.name: f.default for f in fields(cls) if f.default is not MISSING}, **given)
        net._derive(*columns)
        return net

    def __getattr__(self, name: str):
        if name not in ("buses", "branches"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__["buses"], self.__dict__["branches"] = self._records()
        return self.__dict__[name]

    def _derive(self, slacks, gens, lam, frm, to, limit, loads, z) -> None:
        """Check the slack and the branch ends, then set the columns both network types carry."""
        if lam.size == 0:
            raise ValueError("network has no buses")
        if len(slacks) != 1:
            raise ValueError(f"multiple slack buses: {list(slacks)}" if slacks else "missing slack bus")
        bad = np.flatnonzero((np.minimum(frm, to) < 0) | (np.maximum(frm, to) >= lam.size))
        if bad.size:
            raise ValueError(f"branch {frm[bad[0]]}-{to[bad[0]]}: unknown bus id")
        object.__setattr__(self, "slack_index", slacks[0])
        _set_readonly(self, gens=np.array(gens, dtype=int), lam=lam, loads=loads)
        _set_readonly(self, branch_from=frm, branch_to=to, branch_limit=limit, branch_z=z)

    @property
    def n(self) -> int:
        return self.lam.size


def _bfs(n: int, root: int, frm: np.ndarray, to: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parents (-1 at the root), depths and visit order of the breadth-first walk, neighbours ascending."""
    ends, nbrs = np.concatenate([frm, to]), np.concatenate([to, frm])
    nbr = nbrs[np.lexsort((nbrs, ends))].tolist()  # CSR: bus u's neighbours are nbr[start[u]:start[u + 1]]
    start = [0, *np.cumsum(np.bincount(ends, minlength=n)).tolist()]
    parents, depths, order = [-1] * n, [-1] * n, [root]
    depths[root] = 0
    for u in order:  # the list grows while it is walked: a breadth-first queue
        for v in nbr[start[u] : start[u + 1]]:
            if depths[v] < 0:
                depths[v] = depths[u] + 1
                parents[v] = u
                order.append(v)
    if len(order) != n:
        raise TopologyError("non-connected graph")
    return np.array(parents, dtype=int), np.array(depths, dtype=int), np.array(order, dtype=int)


@dataclass(frozen=True, eq=False)
class Network(_Columns):
    """A frozen bus/branch network: read-only columns first, records on demand.

    Construction validates that bus ids are contiguous from 0, that exactly
    one bus is the slack, that branch endpoints exist and that the branch
    graph is connected.  Radiality (exactly n-1 branches) is *not* required
    here; operations that need a tree check it themselves.  One code path
    derives the columns below, from records or from :func:`parse_case`'s
    columns; the solver and the grid oracle run on them alone.  ``buses``
    and ``branches`` of a parsed network are built on first access.
    ``case_limits`` holds the LIMITS record (None without one): CLI
    defaults, unused by the solver.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    base_mva: float = 1.0
    base_kv: float = 1.0
    slack_vm: float = 1.0
    shunts: tuple[complex, ...] | None = None
    case_limits: dict[str, float] | None = None
    # per-bus columns, in id order
    loads: np.ndarray = field(init=False, repr=False)  # complex power P + jQ drawn
    lam: np.ndarray = field(init=False, repr=False)  # objective weight
    slack_index: int = field(init=False)
    free: np.ndarray = field(init=False, repr=False)  # ascending ids of the non-slack buses
    gens: np.ndarray = field(init=False, repr=False)  # ascending ids of the generator buses
    # per-branch columns, in branch order; branch_limit is +inf where unlimited
    branch_from: np.ndarray = field(init=False, repr=False)
    branch_to: np.ndarray = field(init=False, repr=False)
    branch_child: np.ndarray = field(init=False, repr=False)  # on a tree, the end farther from the slack
    branch_z: np.ndarray = field(init=False, repr=False)  # complex(r, x)
    branch_y: np.ndarray = field(init=False, repr=False)
    branch_limit: np.ndarray = field(init=False, repr=False)
    # breadth-first walk from the slack: parent (-1 at the root), depth, visit order
    parents: np.ndarray = field(init=False, repr=False)
    depths: np.ndarray = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._derive(
            *_record_columns(self.buses, self.branches),
            np.array([complex(b.load_p, b.load_q) for b in self.buses], dtype=complex),
            np.array([complex(br.r, br.x) for br in self.branches], dtype=complex),
        )

    def _derive(self, slacks, gens, lam, frm, to, limit, loads, z) -> None:
        super()._derive(slacks, gens, lam, frm, to, limit, loads, z)
        if self.slack_vm <= 0:
            raise ValueError("slack voltage magnitude must be positive")
        if self.shunts is not None and len(self.shunts) != self.n:
            raise ValueError("shunt vector length must equal bus count")
        parents, depths, order = _bfs(self.n, self.slack_index, frm, to)
        free = np.flatnonzero(np.arange(self.n) != self.slack_index)
        _set_readonly(self, parents=parents, depths=depths, order=order, free=free)
        y = np.array([1.0 / zb for zb in z.tolist()], dtype=complex)  # as Branch.series_admittance, bit for bit
        _set_readonly(self, branch_child=np.where(parents[to] == frm, to, frm), branch_y=y)

    def _records(self) -> tuple[tuple[Bus, ...], tuple[Branch, ...]]:
        s, z = self.loads, self.branch_z
        limits = [None if c == math.inf else c for c in self.branch_limit.tolist()]
        ends = self.branch_from.tolist(), self.branch_to.tolist()
        return (
            tuple(map(Bus, range(self.n), _kinds(self), s.real.tolist(), s.imag.tolist(), self.lam.tolist())),
            tuple(map(Branch, *ends, z.real.tolist(), z.imag.tolist(), limits)),
        )

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-bus list of (neighbor id, branch index), sorted by neighbor."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for bi, (i, k) in enumerate(zip(self.branch_from.tolist(), self.branch_to.tolist())):
            adj[i].append((k, bi))
            adj[k].append((i, bi))
        for lst in adj:
            lst.sort()
        return adj

    def is_radial(self) -> bool:
        return self.branch_from.size == self.n - 1


def build_ybus(network: Network) -> np.ndarray:
    """Assemble the complex bus admittance matrix from series branches.

    Off-diagonal entries are the negated series admittances; diagonals sum
    the incident series admittances plus any shunt terms.  The result is
    symmetric, and with no shunts every row sums to zero.  The dense
    reference (16 n^2 bytes) that tests pin the branch-wise evaluation to.
    """
    n = network.n
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


def _tokens(text: str) -> list[list[str]]:
    """The tokens of every line, comments dropped: item k holds line k + 1 (empty when blank)."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return [raw.split() for raw in lines]


def _num(tok: str, lineno: int, what: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise CaseFormatError(f"line {lineno}: {what} is not a number: {tok!r}") from None
    if not math.isfinite(val):
        raise CaseFormatError(f"line {lineno}: {what} must be finite: {tok!r}")
    return val


def _reals(toks: list[str], lineno: int, labels) -> list[float]:
    return [_num(tok, lineno, what) for tok, what in zip(toks, labels)]


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CaseFormatError(f"line {lineno}: {what} is not an integer: {tok!r}") from None


_KINDS = {kind.value: kind for kind in BusKind}


def _columns(bus_rows, branch_rows, n_bus: int, n_branch: int, branch_faults):
    """The columns of the BUS and BRANCH token rows, or None when a check fails.

    They are the slack ids, the generator ids, the bus reals (one row per
    field, in id order), the branch ends, the branch reals (one row per
    field) and the limits (+inf where unlimited).
    """
    n, m, lens = len(bus_rows), len(branch_rows), [*map(len, branch_rows)]
    if not n or {*map(len, bus_rows)} != {n_bus} or not {*lens} <= {n_branch, n_branch + 1}:
        return None
    _, ids, kinds, *reals = zip(*bus_rows)
    ids, kinds = [*map(int, ids)], [*map(str.lower, kinds)]
    if sorted(ids) != [*range(n)] or not {*kinds} <= _KINDS.keys():  # a duplicate or a gap, or an unknown kind
        return None
    slacks, gens = (sorted(i for i, k in zip(ids, kinds) if k == kind) for kind in ("slack", "gen"))
    bus_vals = np.array([*map(float, chain.from_iterable(reals))]).reshape(n_bus - 3, n)[:, np.argsort(ids)]
    _, frm, to, *reals = [*zip(*branch_rows)][:n_branch] or [()] * n_branch  # zip stops at the shortest row
    try:
        frm, to = np.array([*map(int, frm)], dtype=int), np.array([*map(int, to)], dtype=int)
    except OverflowError:  # an end beyond int64 stays exact, so the network's bus id check names it
        frm, to = np.array([*map(int, frm)], dtype=object), np.array([*map(int, to)], dtype=object)
    branch_vals = np.array([*map(float, chain.from_iterable(reals))]).reshape(n_branch - 3, m)
    limited = [i for i, k in enumerate(lens) if k > n_branch]
    limit = np.full(m, np.inf)
    limit[limited] = [float(branch_rows[i][-1]) for i in limited]
    if (
        np.isfinite(bus_vals).all() and (bus_vals[-1] >= 0).all()  # lambda non-negative
        and np.isfinite(branch_vals).all() and np.isfinite(limit[limited]).all() and (limit > 0).all()
        and not (branch_faults and branch_faults(frm, to, *branch_vals, limit).any())
    ):
        return slacks, gens, bus_vals, frm, to, branch_vals, limit
    return None


def _read_case(text: str, suffix: str, *, bus_reals, branch_reals, usage, bus, branch, network, branch_faults=None,
               extra=None):
    """Read case text of either format into its network, column by column.

    A bus record is ``BUS<suffix> <id> <kind> <load reals> <lambda>`` and a
    branch record ``BRANCH<suffix> <from> <to> <impedance reals> [C]``.
    ``network(*columns, base, limits)`` builds the network from
    :func:`_columns`, ``branch_faults`` flagging the branches the format
    refuses; its ValueErrors come back as :class:`CaseFormatError` (a
    :class:`TopologyError` passes through).  When a column check fails,
    ``scan`` raises the first fault in line order: ``bus_reals`` and
    ``branch_reals`` label each real, ``usage`` is the (bus, branch) usage
    line, and ``bus(id, kind, *reals)`` and ``branch(from, to, *reals, C)``
    run the record checks.  ``extra`` maps further records to
    ``handler(toks, lineno)``.
    """
    bus_rec, branch_rec = "BUS" + suffix, "BRANCH" + suffix
    n_bus, n_branch = 3 + len(bus_reals), 3 + len(branch_reals)
    handlers, ids, head = extra or {}, set(), [None, None]  # head: the last BASE, the first LIMITS

    def scan(rows):
        for lineno, toks in rows:
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
                    ends = _int(toks[1], lineno, "from bus"), _int(toks[2], lineno, "to bus")
                    branch(*ends, *_reals(toks[3:n_branch], lineno, branch_reals), limit)
                elif rec == bus_rec:
                    if len(toks) != n_bus:
                        raise CaseFormatError(f"line {lineno}: {bus_rec} takes {usage[0]}")
                    bid = _int(toks[1], lineno, "bus id")
                    kind = _KINDS.get(toks[2].lower())
                    if kind is None:
                        raise CaseFormatError(f"line {lineno}: unknown bus kind {toks[2]!r}")
                    if bid in ids:
                        raise CaseFormatError(f"line {lineno}: duplicate bus id {bid}")
                    ids.add(bid)
                    bus(bid, kind, *_reals(toks[3:], lineno, bus_reals))
                elif rec == "BASE":
                    if len(toks) != 3:
                        raise CaseFormatError(f"line {lineno}: BASE takes <MVA> <kV>")
                    head[0] = _reals(toks[1:], lineno, ("base MVA", "base kV"))
                elif rec == "LIMITS":
                    if len(toks) not in (3, 4, 5):
                        raise CaseFormatError(f"line {lineno}: LIMITS takes <vmin> <vmax> [theta_max] [eta]")
                    found = _reals(toks[1:], lineno, ("limit",) * 4)  # every record is checked; the first counts
                    head[1] = head[1] or dict(zip(("v_min", "v_max", "theta_max", "eta"), found))
                elif rec in handlers:
                    handlers[rec](toks, lineno)
                else:
                    raise CaseFormatError(f"line {lineno}: unknown record {toks[0]!r}")
            except CaseFormatError:
                raise
            except ValueError as exc:  # a record's own check (Bus, Branch, ...) names no line
                raise CaseFormatError(f"line {lineno}: {exc}") from None

    lines = _tokens(text)
    recs = [toks[0].upper() if toks else "" for toks in lines]
    try:
        scan([(i + 1, lines[i]) for i, rec in enumerate(recs) if rec and rec != bus_rec and rec != branch_rec])
        bus_rows = [toks for toks, rec in zip(lines, recs) if rec == bus_rec]
        branch_rows = [toks for toks, rec in zip(lines, recs) if rec == branch_rec]
        cols = _columns(bus_rows, branch_rows, n_bus, n_branch, branch_faults)
    except ValueError:  # a faulty header record, or a token that int() or float() refuses
        cols = None
    if cols is None or head[0] is None:  # the error path: every record in line order
        scan((i + 1, toks) for i, toks in enumerate(lines) if toks)
        if head[0] is None:
            raise CaseFormatError("missing BASE header")
        raise CaseFormatError("no BUS records" if not ids else "bus ids must be contiguous integers starting at 0")
    try:
        return network(*cols, *head)
    except TopologyError:
        raise
    except ValueError as exc:
        raise CaseFormatError(str(exc)) from None


def _pairs(vals: np.ndarray) -> np.ndarray:
    """Reals ``(2k, m)`` read as k (real, imag) pairs per column: the ``(m, k)`` complex array, bitwise."""
    return np.ascontiguousarray(vals.T).view(complex)


def parse_case(text: str) -> Network:
    """Parse case-file content straight into a :class:`Network`'s columns.

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

    def network(slacks, gens, bus_vals, frm, to, branch_vals, limit, base, limits):
        n, shunts = bus_vals.shape[1], None
        if shunt_records:
            vec = [0j] * n
            for lineno, bid, g, b in shunt_records:
                if not 0 <= bid < n:
                    raise CaseFormatError(f"line {lineno}: SHUNT references unknown bus {bid}")
                vec[bid] += complex(g, b)
            shunts = tuple(vec)
        loads, z = _pairs(bus_vals[:2]).ravel(), _pairs(branch_vals).ravel()
        return Network._from_columns(slacks, gens, bus_vals[2], frm, to, limit, loads, z, base_mva=base[0],
                                     base_kv=base[1], shunts=shunts, case_limits=limits)

    return _read_case(
        text,
        "",
        bus_reals=("Pload", "Qload", "lambda"),
        branch_reals=("r", "x"),
        usage=("<id> <kind> <Pload> <Qload> <lambda>", "<from> <to> <r> <x> [C]"),
        bus=Bus,
        branch=Branch,
        network=network,
        branch_faults=_branch_faults,
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
