"""Multi-phase unbalanced analysis via symmetrical components.

Phase quantities transform through the classic similarity matrix built from
the 120-degree rotation operator (ones in the first row, so apparent power
carries a factor of 3 between frames).  Lines and loads may be unbalanced;
the decoupled sequence model handles them as follows:

* the positive-sequence network is solved with the single-phase
  hosting-capacity pipeline (its equations have the same form),
* load and line unbalance enter the zero/negative-sequence networks as
  current injections; on a radial feeder those networks are tree
  Laplacians, solved exactly and in O(n) by a leaf-to-root current sweep
  and a root-to-leaf voltage sweep over the positive network's BFS tree,
* the three sequence voltages recombine into per-phase voltages, which are
  checked against the magnitude box per phase.

The solver works on the read-only columns of :class:`ThreePhaseNetwork`
(``branch_z`` blocks, ends, limits, ``loads``, ``lam``, slack and ``gens``),
which :func:`parse_case3` fills straight from the text, and hands the
positive-sequence network its columns too: no ``Bus``/``Branch`` record is
built on the way.  The dense 3n x 3n phase matrix (:func:`build_ybus3`), its
sequence transform (:func:`sequence_ybus`) and the dense nodal solve are the
references that tests pin the tree path against.

Cross-sequence coupling (untransposed lines) is tolerated up to the
relative ``COUPLING_LIMIT``; beyond it the decoupled model is refused rather
than trusted.

Extended case records, alongside the BASE and LIMITS records of the
single-phase format (see :mod:`hostcap.netmodel`)::

    BUS3    <id> <kind> <Pa> <Qa> <Pb> <Qb> <Pc> <Qc> <lambda>
    BRANCH3 <from> <to> <18 reals: 3x3 impedance block, row-major,
             each entry r x> [C]

:func:`parse_case3` reads them with the single-phase format's reader, so
both formats share their column checks, record checks and error messages,
and :class:`ThreePhaseNetwork` checks slack and branch ends as
:class:`~hostcap.netmodel.Network` does.  A BRANCH3 block itself is checked
by the solve, not by the parser.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .hccore import ConstraintSet, HCSolution, solve_hc, verify
from .netmodel import Branch, Bus, BusKind, Network
from .netmodel import _branch_faults, _Columns, _kinds, _pairs, _read_case, _record_columns  # shared with Network

__all__ = [
    "ALPHA",
    "TRANSFORM",
    "TRANSFORM_INV",
    "PhaseVector",
    "ThreePhaseBus",
    "ThreePhaseBranch",
    "ThreePhaseNetwork",
    "SequenceSystem",
    "DecouplingError",
    "SequenceSingularError",
    "UnbalancedSolution",
    "to_sequence",
    "from_sequence",
    "parse_case3",
    "build_ybus3",
    "sequence_ybus",
    "solve_unbalanced_hc",
    "detect_scenario",
]

logger = logging.getLogger(__name__)

ALPHA = np.exp(2j * math.pi / 3)  # 1 /_ 120 degrees
TRANSFORM = np.array(
    [
        [1, 1, 1],
        [1, ALPHA**2, ALPHA],
        [1, ALPHA, ALPHA**2],
    ],
    dtype=complex,
)
TRANSFORM_INV = np.array(
    [
        [1, 1, 1],
        [1, ALPHA, ALPHA**2],
        [1, ALPHA**2, ALPHA],
    ],
    dtype=complex,
) / 3.0

VOLTAGE_FLOOR = 1e-6  # p.u.; guards load-current division at dead phases
COUPLING_LIMIT = 0.05  # worst relative cross-sequence coupling the decoupled model accepts


class DecouplingError(RuntimeError):
    """Cross-sequence coupling too strong for the decoupled model."""

    def __init__(self, message: str, coupling: float):
        super().__init__(message)
        self.coupling = coupling


class SequenceSingularError(RuntimeError):
    """A sequence nodal matrix is singular (e.g. no zero-sequence path)."""


@dataclass(frozen=True)
class PhaseVector:
    """One complex quantity per phase; absent phases are stored as zero."""

    a: complex = 0j
    b: complex = 0j
    c: complex = 0j

    @property
    def array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=complex)


def to_sequence(v_abc) -> np.ndarray:
    """Phase frame -> (zero, positive, negative); works on (..., 3) arrays."""
    arr = v_abc.array if isinstance(v_abc, PhaseVector) else np.asarray(v_abc, dtype=complex)
    return arr @ TRANSFORM_INV.T


def from_sequence(v_012) -> np.ndarray:
    """(zero, positive, negative) -> phase frame; exact inverse of to_sequence."""
    arr = v_012.array if isinstance(v_012, PhaseVector) else np.asarray(v_012, dtype=complex)
    return arr @ TRANSFORM.T


@dataclass(frozen=True)
class ThreePhaseBus:
    id: int
    kind: BusKind
    load: PhaseVector = PhaseVector()  # complex power per phase
    lam: float = 1.0

    __post_init__ = Bus.__post_init__  # the same non-negative lambda check


@dataclass(frozen=True, eq=False)
class ThreePhaseBranch:
    from_bus: int
    to_bus: int
    z: np.ndarray  # 3x3 complex series impedance block
    thermal_limit: float | None = None

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=complex)
        if z.shape != (3, 3):
            raise ValueError("branch impedance block must be 3x3")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True, eq=False)
class ThreePhaseNetwork(_Columns):
    """A frozen three-phase network: read-only columns, with its records on demand, as on Network."""

    buses: tuple[ThreePhaseBus, ...]
    branches: tuple[ThreePhaseBranch, ...]
    base_mva: float = 1.0
    base_kv: float = 1.0
    slack_vm: float = 1.0
    case_limits: dict[str, float] | None = None  # the LIMITS record, as on Network
    slack_index: int = field(init=False)
    gens: np.ndarray = field(init=False, repr=False)  # ascending ids of the generator buses
    lam: np.ndarray = field(init=False, repr=False)  # per-bus objective weight
    loads: np.ndarray = field(init=False, repr=False)  # (n, 3) complex power per bus and phase
    branch_from: np.ndarray = field(init=False, repr=False)  # per branch, in branch order
    branch_to: np.ndarray = field(init=False, repr=False)
    branch_limit: np.ndarray = field(init=False, repr=False)  # +inf where unlimited
    branch_z: np.ndarray = field(init=False, repr=False)  # (m, 3, 3) series impedance blocks

    def __post_init__(self) -> None:
        z = np.array([br.z for br in self.branches], dtype=complex).reshape(-1, 3, 3)
        self._derive(*_record_columns(self.buses, self.branches), _phase_loads(self), z)

    def _records(self) -> tuple[tuple[ThreePhaseBus, ...], tuple[ThreePhaseBranch, ...]]:
        loads = [PhaseVector(*s) for s in self.loads.tolist()]
        limits = [None if c == math.inf else c for c in self.branch_limit.tolist()]
        ends = self.branch_from.tolist(), self.branch_to.tolist()
        return (
            tuple(map(ThreePhaseBus, range(self.n), _kinds(self), loads, self.lam.tolist())),
            tuple(map(ThreePhaseBranch, *ends, np.array(self.branch_z), limits)),
        )


@dataclass(frozen=True, eq=False)
class SequenceSystem:
    """Decoupled per-sequence nodal matrices plus the coupling diagnostics."""

    y0: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    coupling: float                      # max relative cross-sequence magnitude
    cross_0_from_1: np.ndarray           # Y^{01} block, drives zero-seq injections
    cross_2_from_1: np.ndarray           # Y^{21} block, drives negative-seq injections


@dataclass(frozen=True, eq=False)
class UnbalancedSolution:
    """Per-phase result of the sequence-decoupled hosting-capacity solve."""

    positive: HCSolution
    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v_abc: np.ndarray            # (n, 3) recombined phase voltages
    hc_per_phase: float
    hc_total: float              # 3x per-phase under the ones-first-row scaling
    method: str
    coupling: float
    phase_bound_violations: tuple[tuple[int, int], ...]  # (bus, phase)


def parse_case3(text: str) -> ThreePhaseNetwork:
    """Parse the extended multi-phase case format (BUS3/BRANCH3 records) straight into the columns."""

    def network(slacks, gens, bus_vals, frm, to, branch_vals, limit, base, limits):
        # (r, x) pairs are complex128's memory layout
        loads, z = _pairs(bus_vals[:6]), _pairs(branch_vals).reshape(-1, 3, 3)
        return ThreePhaseNetwork._from_columns(slacks, gens, bus_vals[6], frm, to, limit, loads, z,
                                               base_mva=base[0], base_kv=base[1], case_limits=limits)

    return _read_case(
        text,
        "3",
        bus_reals=("phase load",) * 6 + ("lambda",),
        branch_reals=("impedance",) * 18,
        usage=("<id> <kind> <Pa Qa Pb Qb Pc Qc> <lambda>", "<from> <to> + 18 impedance reals [C]"),
        bus=lambda bid, kind, *reals: ThreePhaseBus(bid, kind, lam=reals[-1]),
        branch=lambda *reals: None,  # a BRANCH3 block is checked by the solve
        network=network,
    )


def _branch_admittances(net3: ThreePhaseNetwork) -> np.ndarray:
    """Every branch's 3x3 series admittance block from ``net3.branch_z``, stacked as (m, 3, 3).

    A phase is present when its row or column of the impedance block is
    nonzero; absent phases stay zero in the admittance.  Branches sharing a
    present-phase mask (at most seven) are inverted in one batched call,
    which gives each block bitwise what inverting it alone gives.
    """
    z = net3.branch_z
    present = np.any(z != 0, axis=2) | np.any(z != 0, axis=1)  # (m, 3)
    masks = present @ np.array([1, 2, 4])
    y = np.zeros_like(z)
    for mask in range(1, 8):  # not np.unique: its plain form imports numpy.ma (30 ms) on first use
        rows = np.flatnonzero(masks == mask)
        if not rows.size:
            continue
        block = np.ix_(rows, *[np.flatnonzero(present[rows[0]])] * 2)
        try:
            y[block] = np.linalg.inv(z[block])
        except np.linalg.LinAlgError:
            # a batch names no culprit: report the first singular block in branch order
            for i, k, zb, ph in zip(net3.branch_from.tolist(), net3.branch_to.tolist(), z, present):
                try:
                    np.linalg.inv(zb[np.ix_(ph, ph)])
                except np.linalg.LinAlgError:
                    raise ValueError(f"branch {i}-{k}: singular impedance block") from None
            raise
    return y


def _phase_loads(net3: ThreePhaseNetwork) -> np.ndarray:
    """(n, 3) complex power per bus and phase."""
    return np.array([(b.load.a, b.load.b, b.load.c) for b in net3.buses], dtype=complex)


def _coupling_ratio(b012: np.ndarray) -> float:
    """Worst cross-sequence magnitude relative to its block's largest diagonal; 0.0 for no blocks."""
    mags = np.abs(b012)
    diag = mags[:, range(3), range(3)]
    mags[:, range(3), range(3)] = 0.0
    ratio = mags.max(axis=(1, 2)) / np.maximum(diag.max(axis=1), 1e-30)
    return float(ratio.max(initial=0.0))


def _block_coupling(fb: np.ndarray, tb: np.ndarray, ys: np.ndarray, n: int) -> float:
    """``sequence_ybus(build_ybus3(net3)).coupling`` without the n x n block layout.

    Block (i, k) of the dense matrix sums -y over every branch joining i
    and k, and the same values in the same order reach block (k, i); so the
    blocks on and above the diagonal are summed here as build_ybus3 sums
    them (np.add.at in branch order, parallel branches and self loops
    included), into a stack of about n + m blocks.
    """
    rows, cols = np.column_stack([fb, tb, fb, tb]).ravel(), np.column_stack([tb, fb, fb, tb]).ravel()
    keep = rows <= cols
    vals = np.stack([-ys, -ys, ys, ys], axis=1).reshape(-1, 3, 3)[keep]
    keys, slot = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    blocks = np.zeros((keys.size, 3, 3), dtype=complex)
    np.add.at(blocks, slot, vals)
    blocks = blocks[np.any(blocks != 0, axis=(1, 2))]
    return _coupling_ratio(TRANSFORM_INV @ blocks @ TRANSFORM)


def build_ybus3(net3: ThreePhaseNetwork) -> np.ndarray:
    """Assemble the 3n x 3n phase-frame admittance matrix from 3x3 blocks.

    The dense reference of the solver's per-branch blocks (144 n^2 bytes);
    the solver never builds it.
    """
    n, i, k = net3.n, net3.branch_from, net3.branch_to
    yb = _branch_admittances(net3)
    y = np.zeros((n, 3, n, 3), dtype=complex)  # [i, phase_row, k, phase_col]: reshapes to a view
    # np.add.at adds in index order, so every block sums its branches in branch order
    rows, cols = np.column_stack([i, k, i, k]).ravel(), np.column_stack([k, i, i, k]).ravel()
    blocks = np.stack([-yb, -yb, yb, yb], axis=1).reshape(-1, 3, 3)
    np.add.at(y, (rows, slice(None), cols, slice(None)), blocks)
    return y.reshape(3 * n, 3 * n)


def sequence_ybus(y_abc: np.ndarray) -> SequenceSystem:
    """Blockwise similarity transform of a phase-frame admittance matrix.

    Returns the three decoupled sequence matrices, the two cross blocks that
    couple the positive sequence into the zero/negative networks, and the
    worst relative cross-sequence coupling over all nonzero blocks.  The
    dense reference of the solver's per-branch transform.
    """
    if y_abc.shape[0] != y_abc.shape[1] or y_abc.shape[0] % 3 != 0:
        raise ValueError("phase admittance matrix must be square with dimension a multiple of 3")
    n = y_abc.shape[0] // 3
    blocks = y_abc.reshape(n, 3, n, 3)  # [i, phase_row, k, phase_col]
    i, k = np.nonzero(np.any(blocks != 0, axis=(1, 3)))
    b012 = TRANSFORM_INV @ blocks[i, :, k, :] @ TRANSFORM  # one 3x3 product per nonzero block
    seq = np.zeros((3, 3, n, n), dtype=complex)  # [m_row, m_col, i, k]
    seq[:, :, i, k] = np.moveaxis(b012, 0, -1)
    return SequenceSystem(
        y0=seq[0, 0],
        y1=seq[1, 1],
        y2=seq[2, 2],
        coupling=_coupling_ratio(b012),
        cross_0_from_1=seq[0, 1],
        cross_2_from_1=seq[2, 1],
    )


def _positive_network(net3: ThreePhaseNetwork, y1: np.ndarray) -> Network:
    """The single-phase network of branch admittances ``y1`` and the per-phase average loads of ``net3``."""
    frm, to, limit = net3.branch_from, net3.branch_to, net3.branch_limit
    dead = np.flatnonzero(y1 == 0)
    if dead.size:
        raise ValueError(f"branch {frm[dead[0]]}-{to[dead[0]]}: no positive-sequence path")
    z1 = 1.0 / y1
    for i in np.flatnonzero(_branch_faults(frm, to, z1.real, z1.imag, limit))[:1].tolist():
        Branch(int(frm[i]), int(to[i]), float(z1.real[i]), float(z1.imag[i]), float(limit[i]))  # raises its message
    return Network._from_columns(
        [net3.slack_index], net3.gens, net3.lam, frm, to, limit, net3.loads.mean(axis=1), z1,
        base_mva=net3.base_mva, base_kv=net3.base_kv, slack_vm=net3.slack_vm,
    )


def _load_currents(s_ph: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Sequence components (n, 3) of the load currents drawn at the balanced rotation of ``v1``.

    Phase voltages below the 1e-6 p.u. floor are clamped (and logged) to
    keep the division finite.
    """
    loaded = np.any(s_ph != 0, axis=1)
    v_ph = v1[:, None] * TRANSFORM[:, 1]  # balanced rotation of the positive phasor
    low = np.abs(v_ph) < VOLTAGE_FLOOR
    floored = np.flatnonzero(np.any(low & (s_ph != 0), axis=1)).tolist()
    if floored:
        logger.warning("phase voltage floored to %g p.u. at buses %s", VOLTAGE_FLOOR, floored)
    v_safe = np.where(low, VOLTAGE_FLOOR, v_ph)
    i_abc = np.zeros(s_ph.shape, dtype=complex)  # unloaded buses draw exactly 0, not -0j
    i_abc[loaded] = np.conj(s_ph[loaded] / v_safe[loaded])
    return to_sequence(i_abc)


def detect_scenario(net3: ThreePhaseNetwork, coupling: float) -> str:
    """Route a case to its solve method, mirroring how unbalance enters.

    Unbalanced per-phase loads need sequence load currents; asymmetric line
    blocks (``coupling`` above round-off) need the sequence line model;
    otherwise the plain single-phase model applies.
    """
    loads = net3.loads
    spread = float(np.max(np.abs(loads - loads.mean(axis=1, keepdims=True)))) if loads.size else 0.0
    if spread > 1e-9:
        return "sequence load current"
    if coupling > 1e-9:
        return "sequence line model"
    return "HC model"


def _solve_sequence_nodal(
    y_m: np.ndarray, i_m: np.ndarray, slack: int, label: str
) -> np.ndarray:
    """Solve Y^m V^m = I^m with the slack pinned to zero sequence voltage (dense reference)."""
    n = y_m.shape[0]
    free = [i for i in range(n) if i != slack]
    sub = y_m[np.ix_(free, free)]
    v = np.zeros(n, dtype=complex)
    if sub.size:
        # 1-norm condition number from one inverse; an SVD (2-norm) costs several times more
        try:
            kappa = np.linalg.norm(sub, 1) * np.linalg.norm(np.linalg.inv(sub), 1)
        except np.linalg.LinAlgError:
            kappa = math.inf
        if not np.isfinite(kappa) or kappa > 1e12:
            raise SequenceSingularError(
                f"{label}-sequence nodal matrix is singular (no return path)"
            )
        v[free] = np.linalg.solve(sub, i_m[free])
    return v


def _tree_sweep(
    parents: np.ndarray, order: np.ndarray, y_up: np.ndarray, i_m: np.ndarray, label: str
) -> np.ndarray:
    """Solve a radial network's Y^m V^m = I^m with the root (``order[0]``) pinned to zero.

    ``y_up[k]`` is the admittance of the branch from bus k to ``parents[k]``.
    The leaf-to-root sweep gathers each subtree's injected current into the
    branch above it; the root-to-leaf sweep drops that current across the
    branch.  The branch admittances are this elimination's pivots, so the
    network is refused as singular when one is not finite or is at most
    1e-12 of the largest.
    """
    pivots = np.abs(y_up[order[1:]])
    if pivots.size and not (np.all(np.isfinite(pivots)) and pivots.min() > 1e-12 * pivots.max()):
        raise SequenceSingularError(f"{label}-sequence nodal matrix is singular (no return path)")
    walk, up, y = order.tolist(), parents.tolist(), y_up.tolist()
    j = i_m.tolist()
    j[walk[0]] = 0j
    for k in reversed(walk[1:]):
        j[up[k]] += j[k]
    v = [0j] * len(j)
    for k in walk[1:]:
        v[k] = v[up[k]] + j[k] / y[k]
    return np.array(v, dtype=complex)


def solve_unbalanced_hc(net3: ThreePhaseNetwork, c: ConstraintSet) -> UnbalancedSolution:
    """Hosting capacity of a multi-phase feeder via decoupled sequences.

    Refuses the decoupled model when the cross-sequence coupling exceeds
    ``COUPLING_LIMIT``.  Runs the single-phase pipeline on the
    positive-sequence network, solves the zero/negative networks for the
    unbalance by sweeps over its BFS tree, recombines to phase voltages
    with :func:`from_sequence` and checks the magnitude box per phase.
    Works on per-branch 3x3 blocks: time and memory are O(n).
    """
    n, fb, tb = net3.n, net3.branch_from, net3.branch_to
    ys = _branch_admittances(net3)
    coupling = _block_coupling(fb, tb, ys, n)
    if coupling > COUPLING_LIMIT:
        raise DecouplingError(
            f"cross-sequence coupling {coupling:.3f} exceeds threshold "
            f"{COUPLING_LIMIT:.3f}; decoupled model refused",
            coupling=coupling,
        )
    method = detect_scenario(net3, coupling)
    y012 = TRANSFORM_INV @ ys @ TRANSFORM  # [branch, m_row, m_col]: each branch's sequence admittances
    pos_net = _positive_network(net3, y012[:, 1, 1])
    positive = solve_hc(pos_net, c)  # enforces radiality, so pos_net's BFS walk is a spanning tree
    v1 = positive.state.phasors

    # (Y^{m1} V1) per branch: y^{m1}_b (V1_from - V1_to) leaves `from` and enters `to`
    flows = y012[:, (0, 2), 1] * (v1[fb] - v1[tb])[:, None]
    cross = np.zeros((n, 2), dtype=complex)
    np.add.at(cross, fb, flows)
    np.add.at(cross, tb, -flows)
    i_seq = _load_currents(net3.loads, v1)
    y_up = np.zeros(n, dtype=complex)
    sweeps = []
    for col, (m, label) in enumerate(((0, "zero"), (2, "negative"))):
        y_up[pos_net.branch_child] = y012[:, m, m]
        sweeps.append(_tree_sweep(pos_net.parents, pos_net.order, y_up, -i_seq[:, m] - cross[:, col], label))
    v0, v2 = sweeps
    v_abc = from_sequence(np.stack([v0, v1, v2], axis=1))
    # one row of bus phasors per phase; only the box family applies per phase
    per_phase = verify(pos_net, c, v_abc.T)
    outside = (per_phase.violated("v_max") | per_phase.violated("v_min")).T
    return UnbalancedSolution(
        positive=positive,
        v0=v0,
        v1=v1,
        v2=v2,
        v_abc=v_abc,
        hc_per_phase=positive.hc_total,
        hc_total=3.0 * positive.hc_total,
        method=method,
        coupling=coupling,
        phase_bound_violations=tuple((int(b), int(p)) for b, p in np.argwhere(outside)),
    )
