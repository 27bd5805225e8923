"""Multi-phase unbalanced analysis via symmetrical components.

Phase quantities transform through the classic similarity matrix built from
the 120-degree rotation operator (ones in the first row, so apparent power
carries a factor of 3 between frames).  Lines and loads may be unbalanced;
the decoupled sequence model handles them as follows:

* the positive-sequence network is solved with the single-phase
  hosting-capacity pipeline (its equations have the same form),
* load and line unbalance enter the zero/negative-sequence networks as
  current injections, solved linearly via their nodal equations,
* the three sequence voltages recombine into per-phase voltages, which are
  checked against the magnitude box per phase.

Cross-sequence coupling (untransposed lines) is tolerated up to a relative
threshold; beyond it the decoupled model is refused rather than trusted.

Extended case records, alongside the BASE and LIMITS records of the
single-phase format (see :mod:`hostcap.netmodel`)::

    BUS3    <id> <kind> <Pa> <Qa> <Pb> <Qb> <Pc> <Qc> <lambda>
    BRANCH3 <from> <to> <18 reals: 3x3 impedance block, row-major,
             each entry r x> [C]
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hccore import ConstraintSet, HCSolution, solve_hc, verify
from .netmodel import Branch, Bus, BusKind, CaseFormatError, Network
from .netmodel import _bus_tuple, _int, _kind, _num, _read_records  # the shared case tokenizer
from .powerflow import VoltageState

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
    "positive_sequence_network",
    "unbalance_currents",
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

    @cached_property
    def series_admittance(self) -> np.ndarray:
        """3x3 admittance block (read-only, inverted once); absent phases (zero rows) stay zero."""
        z = self.z
        present = [p for p in range(3) if np.any(z[p] != 0) or np.any(z[:, p] != 0)]
        y = np.zeros((3, 3), dtype=complex)
        if present:
            sub = z[np.ix_(present, present)]
            try:
                y_sub = np.linalg.inv(sub)
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"branch {self.from_bus}-{self.to_bus}: singular impedance block"
                ) from None
            y[np.ix_(present, present)] = y_sub
        y.flags.writeable = False
        return y


@dataclass(frozen=True, eq=False)
class ThreePhaseNetwork:
    buses: tuple[ThreePhaseBus, ...]
    branches: tuple[ThreePhaseBranch, ...]
    base_mva: float = 1.0
    base_kv: float = 1.0
    slack_vm: float = 1.0

    def __post_init__(self) -> None:
        ids = [b.id for b in self.buses]
        if ids != list(range(len(self.buses))):
            raise ValueError("bus ids must be contiguous integers starting at 0")
        slacks = [b.id for b in self.buses if b.kind is BusKind.SLACK]
        if len(slacks) != 1:
            raise ValueError("exactly one slack bus required")
        for br in self.branches:
            if not (0 <= br.from_bus < self.n and 0 <= br.to_bus < self.n):
                raise ValueError(f"branch {br.from_bus}-{br.to_bus}: unknown bus id")

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def slack_index(self) -> int:
        return next(b.id for b in self.buses if b.kind is BusKind.SLACK)


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
    """Parse the extended multi-phase case format (BUS3/BRANCH3 records)."""
    buses: dict[int, ThreePhaseBus] = {}
    branches: list[ThreePhaseBranch] = []

    def bus3(toks, lineno):
        if len(toks) != 10:
            raise CaseFormatError(
                f"line {lineno}: BUS3 takes <id> <kind> <Pa Qa Pb Qb Pc Qc> <lambda>"
            )
        bid = _int(toks[1], lineno, "bus id")
        kind = _kind(toks[2], lineno)
        vals = [_num(t, lineno, "phase load") for t in toks[3:9]]
        if bid in buses:
            raise CaseFormatError(f"line {lineno}: duplicate bus id {bid}")
        buses[bid] = ThreePhaseBus(
            id=bid,
            kind=kind,
            load=PhaseVector(
                a=complex(vals[0], vals[1]),
                b=complex(vals[2], vals[3]),
                c=complex(vals[4], vals[5]),
            ),
            lam=_num(toks[9], lineno, "lambda"),
        )

    def branch3(toks, lineno):
        if len(toks) not in (21, 22):
            raise CaseFormatError(
                f"line {lineno}: BRANCH3 takes <from> <to> + 18 impedance reals [C]"
            )
        vals = [_num(t, lineno, "impedance") for t in toks[3:21]]
        z = np.array([complex(vals[2 * j], vals[2 * j + 1]) for j in range(9)]).reshape(3, 3)
        limit = _num(toks[21], lineno, "thermal limit") if len(toks) == 22 else None
        branches.append(
            ThreePhaseBranch(
                from_bus=_int(toks[1], lineno, "from bus"),
                to_bus=_int(toks[2], lineno, "to bus"),
                z=z,
                thermal_limit=limit,
            )
        )

    base_mva, base_kv = _read_records(text, {"BUS3": bus3, "BRANCH3": branch3})
    try:
        return ThreePhaseNetwork(
            buses=_bus_tuple(buses),
            branches=tuple(branches),
            base_mva=base_mva,
            base_kv=base_kv,
        )
    except ValueError as exc:
        raise CaseFormatError(str(exc)) from None


def build_ybus3(net3: ThreePhaseNetwork) -> np.ndarray:
    """Assemble the 3n x 3n phase-frame admittance matrix from 3x3 blocks."""
    n = net3.n
    y = np.zeros((3 * n, 3 * n), dtype=complex)
    for br in net3.branches:
        yb = br.series_admittance
        i, k = br.from_bus, br.to_bus
        si, sk = slice(3 * i, 3 * i + 3), slice(3 * k, 3 * k + 3)
        y[si, sk] -= yb
        y[sk, si] -= yb
        y[si, si] += yb
        y[sk, sk] += yb
    return y


def sequence_ybus(y_abc: np.ndarray) -> SequenceSystem:
    """Blockwise similarity transform of a phase-frame admittance matrix.

    Returns the three decoupled sequence matrices, the two cross blocks that
    couple the positive sequence into the zero/negative networks, and the
    worst relative cross-sequence coupling over all nonzero blocks.
    """
    if y_abc.shape[0] != y_abc.shape[1] or y_abc.shape[0] % 3 != 0:
        raise ValueError("phase admittance matrix must be square with dimension a multiple of 3")
    n = y_abc.shape[0] // 3
    seq = np.zeros((3, 3, n, n), dtype=complex)  # [m_row, m_col, i, k]
    coupling = 0.0
    for i in range(n):
        for k in range(n):
            block = y_abc[3 * i : 3 * i + 3, 3 * k : 3 * k + 3]
            if not np.any(block):
                continue
            b012 = TRANSFORM_INV @ block @ TRANSFORM
            seq[:, :, i, k] = b012
            diag_scale = max(np.max(np.abs(np.diag(b012))), 1e-30)
            off = b012 - np.diag(np.diag(b012))
            coupling = max(coupling, float(np.max(np.abs(off)) / diag_scale))
    return SequenceSystem(
        y0=seq[0, 0],
        y1=seq[1, 1],
        y2=seq[2, 2],
        coupling=coupling,
        cross_0_from_1=seq[0, 1],
        cross_2_from_1=seq[2, 1],
    )


def positive_sequence_network(net3: ThreePhaseNetwork) -> Network:
    """Single-phase equivalent: per-branch positive-sequence impedances.

    Branch positive-sequence admittance is the (1,1) entry of the
    transformed 3x3 block; per-bus load is the per-phase average.
    """
    branches = []
    for br in net3.branches:
        y012 = TRANSFORM_INV @ br.series_admittance @ TRANSFORM
        y1 = y012[1, 1]
        if y1 == 0:
            raise ValueError(f"branch {br.from_bus}-{br.to_bus}: no positive-sequence path")
        z1 = 1.0 / y1
        branches.append(
            Branch(
                from_bus=br.from_bus,
                to_bus=br.to_bus,
                r=float(z1.real),
                x=float(z1.imag),
                thermal_limit=br.thermal_limit,
            )
        )
    buses = []
    for b in net3.buses:
        s_avg = complex(np.mean(b.load.array))
        buses.append(
            Bus(id=b.id, kind=b.kind, load_p=s_avg.real, load_q=s_avg.imag, lam=b.lam)
        )
    return Network(
        buses=tuple(buses),
        branches=tuple(branches),
        base_mva=net3.base_mva,
        base_kv=net3.base_kv,
        slack_vm=net3.slack_vm,
    )


def unbalance_currents(
    net3: ThreePhaseNetwork,
    seq: SequenceSystem,
    state: VoltageState,
) -> tuple[np.ndarray, np.ndarray]:
    """Zero/negative-sequence injection currents expressing the unbalance.

    Per-phase load currents conj(S_ph / V_ph) are evaluated at the balanced
    phase voltages implied by the positive-sequence state, then transformed;
    their zero/negative components, together with the cross-sequence line
    coupling acting on V1, source the two auxiliary nodal problems.  Phase
    voltages below the 1e-6 p.u. floor are clamped (and logged) to keep the
    division finite.
    """
    v1 = state.phasors
    n = net3.n
    i_abc = np.zeros((n, 3), dtype=complex)
    floored = []
    for b in net3.buses:
        s_ph = b.load.array
        if not np.any(s_ph):
            continue
        v_ph = v1[b.id] * TRANSFORM[:, 1]  # balanced rotation of the positive phasor
        mags = np.abs(v_ph)
        if np.any((mags < VOLTAGE_FLOOR) & (s_ph != 0)):
            floored.append(b.id)
        v_safe = np.where(mags < VOLTAGE_FLOOR, VOLTAGE_FLOOR, v_ph)
        i_abc[b.id] = np.conj(s_ph / v_safe)
    if floored:
        logger.warning("phase voltage floored to %g p.u. at buses %s", VOLTAGE_FLOOR, floored)
    i_seq = to_sequence(i_abc)  # (n, 3): load currents drawn per sequence
    i0 = -i_seq[:, 0] - seq.cross_0_from_1 @ v1
    i2 = -i_seq[:, 2] - seq.cross_2_from_1 @ v1
    return i0, i2


def detect_scenario(net3: ThreePhaseNetwork, seq: SequenceSystem) -> str:
    """Route a case to its solve method, mirroring how unbalance enters.

    Unbalanced per-phase loads need sequence load currents; asymmetric line
    blocks need the sequence line model; otherwise the plain single-phase
    model applies.
    """
    loads = np.array([b.load.array for b in net3.buses])
    spread = float(np.max(np.abs(loads - loads.mean(axis=1, keepdims=True)))) if loads.size else 0.0
    if spread > 1e-9:
        return "sequence load current"
    if seq.coupling > 1e-9:
        return "sequence line model"
    return "HC model"


def _solve_sequence_nodal(
    y_m: np.ndarray, i_m: np.ndarray, slack: int, label: str
) -> np.ndarray:
    """Solve Y^m V^m = I^m with the slack pinned to zero sequence voltage."""
    n = y_m.shape[0]
    free = [i for i in range(n) if i != slack]
    sub = y_m[np.ix_(free, free)]
    if sub.size:
        cond = np.linalg.cond(sub)
        if not np.isfinite(cond) or cond > 1e12:
            raise SequenceSingularError(
                f"{label}-sequence nodal matrix is singular (no return path)"
            )
    v = np.zeros(n, dtype=complex)
    if sub.size:
        v[free] = np.linalg.solve(sub, i_m[free])
    return v


def solve_unbalanced_hc(
    net3: ThreePhaseNetwork,
    c: ConstraintSet,
    coupling_threshold: float = 0.05,
) -> UnbalancedSolution:
    """Hosting capacity of a multi-phase feeder via decoupled sequences.

    Runs the single-phase pipeline on the positive-sequence network, solves
    the zero/negative nodal equations for the unbalance, recombines to phase
    voltages and checks the magnitude box per phase.
    """
    y_abc = build_ybus3(net3)
    seq = sequence_ybus(y_abc)
    if seq.coupling > coupling_threshold:
        raise DecouplingError(
            f"cross-sequence coupling {seq.coupling:.3f} exceeds threshold "
            f"{coupling_threshold:.3f}; decoupled model refused",
            coupling=seq.coupling,
        )
    method = detect_scenario(net3, seq)
    pos_net = positive_sequence_network(net3)
    positive = solve_hc(pos_net, c)
    slack = net3.slack_index

    i0, i2 = unbalance_currents(net3, seq, positive.state)
    v0 = _solve_sequence_nodal(seq.y0, i0, slack, "zero")
    v2 = _solve_sequence_nodal(seq.y2, i2, slack, "negative")
    v1 = positive.state.phasors
    v_abc = np.stack([v0, v1, v2], axis=1) @ TRANSFORM.T
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
        coupling=seq.coupling,
        phase_bound_violations=tuple((int(b), int(p)) for b, p in np.argwhere(outside)),
    )
