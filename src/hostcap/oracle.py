"""Brute-force verification tools for the constructive solver.

``grid_search_hc`` enumerates the feasible voltage box on a regular grid
(magnitudes per free bus, angle differences per branch), evaluates the power
flow at every point and returns the constrained maximizer.  Together with
``grid_error_bound`` it certifies global optimality at small scale: the true
optimum can exceed the best grid point by at most a Lipschitz term, so
agreement of the pattern solver with the grid maximizer within that bound
pins the solver to the global optimum.

``incremental_screening`` is the classic per-bus ramp baseline: raise one
bus's injection step by step, re-run power flow, stop at the first limit
violation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hccore import ConstraintSet, HCSolution, InfeasibleError, finalize_solution, verify
from .netmodel import BusKind, Network, bfs_tree
from .powerflow import (
    BusSetpoint,
    PowerFlowError,
    VoltageState,
    _ybus_diagonal,
    base_setpoints,
    evaluate_injections,
    solve_newton,
)

__all__ = [
    "GridSpec",
    "GridCapError",
    "SurfaceResult",
    "ScreeningRow",
    "grid_search_hc",
    "grid_error_bound",
    "pv_curve_surface",
    "incremental_screening",
]

CHUNK_ROWS = 200_000


class GridCapError(RuntimeError):
    """The requested grid is larger than the configured point cap."""


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution: magnitude steps per bus, angle steps per branch."""

    magnitude_steps: int = 101
    angle_steps: int = 11
    cap: int = 10**8

    def __post_init__(self) -> None:
        if self.magnitude_steps < 2 or self.angle_steps < 2:
            raise ValueError("grid steps must be at least 2")
        if self.cap < 1:
            raise ValueError("grid cap must be positive")


@dataclass(frozen=True, eq=False)
class SurfaceResult:
    """Sampled (V1, V2, total P) surface with its constrained maximizer row."""

    rows: np.ndarray      # columns: v1_pu, v2_pu, sum_p_pu
    p_pairs: np.ndarray   # columns: p at the two free buses
    feasible: np.ndarray  # bool per row (thermal/pf filters; box holds by construction)
    max_index: int
    free_buses: tuple[int, int]


@dataclass(frozen=True)
class ScreeningRow:
    bus: int
    hc: float
    steps: int
    status: str  # first violated limit, or "diverged" / "cap"


def _tree_layout(network: Network):
    """Free buses, their parents and the ancestor matrix for angle sums."""
    parents, depths, order = bfs_tree(network)
    slack = network.slack_index
    free = [i for i in range(network.n) if i != slack]
    pos = {b: j for j, b in enumerate(free)}
    anc = np.zeros((len(free), len(free)))
    for j, b in enumerate(free):
        u = b
        while u != slack:
            anc[j, pos[u]] = 1.0
            u = int(parents[u])
    return free, pos, parents, anc


def _axes(network: Network, c: ConstraintSet, g: GridSpec):
    if c.v_min == c.v_max:
        mag_axis = np.array([c.v_min])
    else:
        mag_axis = np.linspace(c.v_min, c.v_max, g.magnitude_steps)
    theta = min(math.pi, c.theta_max)
    if theta == 0.0:
        ang_axis = np.array([0.0])
    else:
        ang_axis = np.linspace(-theta, theta, g.angle_steps)
    return mag_axis, ang_axis


def grid_search_hc(
    network: Network,
    c: ConstraintSet,
    g: GridSpec,
    workers: int = 1,
) -> HCSolution:
    """Exhaustive grid search over the feasible voltage box.

    Magnitudes of every free bus run over the box (corners included);
    branch angle differences run over [-theta_max, theta_max].  The feasible
    maximizer of the weighted objective is returned; ties resolve to the
    lexicographically smallest (magnitudes, angles) vector, which the
    ascending enumeration order provides for free.
    """
    free, pos, parents, anc = _tree_layout(network)
    nf = len(free)
    mag_axis, ang_axis = _axes(network, c, g)
    dims = [len(mag_axis)] * nf + ([len(ang_axis)] * nf if len(ang_axis) > 1 else [])
    use_angles = len(ang_axis) > 1
    total = int(np.prod([float(d) for d in dims]))
    if total > g.cap:
        raise GridCapError(f"grid has {total:.3e} points, cap is {g.cap:.3e}")

    lam = network.lam
    ybus = network.ybus
    slack = network.slack_index

    best_obj = -math.inf
    best_key: tuple | None = None
    best_mags: np.ndarray | None = None
    best_deltas: np.ndarray | None = None

    def eval_chunk(start: int, stop: int):
        idx = np.unravel_index(np.arange(start, stop), dims)
        mags = np.empty((stop - start, network.n))
        mags[:, slack] = network.slack_vm
        for j in range(nf):
            mags[:, free[j]] = mag_axis[idx[j]]
        if use_angles:
            deltas = np.stack([ang_axis[idx[nf + j]] for j in range(nf)], axis=1)
            ang_free = deltas @ anc.T
            angles = np.zeros((stop - start, network.n))
            for j in range(nf):
                angles[:, free[j]] = ang_free[:, j]
            v = np.exp(1j * angles)
            v *= mags  # in place, like s below, so the verifier's arrays reuse freed memory
        else:
            deltas = np.zeros((stop - start, nf))
            v = mags.astype(complex)
        yv = v @ ybus.T  # dense on purpose: the brute-force reference, faster on a few buses
        s = np.multiply(v, np.conjugate(yv, out=yv), out=yv)
        obj = s.real @ lam
        # box and angle bounds hold by construction of the axes
        obj[~verify(network, c, v, s).ok("thermal", "pf")] = -math.inf
        j = int(np.argmax(obj))
        return float(obj[j]), mags[j, free].copy(), deltas[j].copy()

    spans = [(s, min(s + CHUNK_ROWS, total)) for s in range(0, total, CHUNK_ROWS)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda sp: eval_chunk(*sp), spans))
    else:
        results = [eval_chunk(*sp) for sp in spans]
    for obj, mg, dl in results:  # chunk order keeps the tie-break deterministic
        key = (obj, tuple(-x for x in mg), tuple(-x for x in dl))
        if best_key is None or key > best_key:
            best_key = key
            best_obj, best_mags, best_deltas = obj, mg, dl

    if best_obj == -math.inf:
        raise InfeasibleError("no feasible grid point under the given constraints")

    mags = np.full(network.n, network.slack_vm)
    for j in range(nf):
        mags[free[j]] = best_mags[j]
    angles = np.zeros(network.n)
    ang_free = anc @ best_deltas
    for j in range(nf):
        angles[free[j]] = ang_free[j]
    state = VoltageState(magnitudes=mags, angles=angles)
    return finalize_solution(network, c, state, stage="grid_oracle")


def grid_error_bound(network: Network, c: ConstraintSet, g: GridSpec) -> float:
    """Lipschitz resolution bound for :func:`grid_search_hc`.

    The optimum lies within half a grid spacing of some grid point in every
    coordinate, so  |f(opt) - f(best grid point)| <= sum over dims of
    L_dim * h_dim / 2  with per-dimension Lipschitz constants

      magnitude of bus j:
        L_vj = lam_j * Vm * (2|G_jj| + sum_{k!=j} |Y_jk|)
             + sum_{i!=j} lam_i * Vm * |Y_ij|
      angle of bus m (each |dP_i/dt_m| <= Vm^2 |Y_im|):
        L_tm = Vm^2 * (lam_m * sum_{k!=m} |Y_mk| + sum_{i!=m} lam_i |Y_im|)
      branch delta b shifts the angles of the whole subtree below it:
        L_db = sum over subtree buses m of L_tm

    with Vm the box upper bound.  Deliberately conservative.
    """
    free, pos, parents, anc = _tree_layout(network)
    mag_axis, ang_axis = _axes(network, c, g)
    h_v = float(mag_axis[1] - mag_axis[0]) if len(mag_axis) > 1 else 0.0
    h_t = float(ang_axis[1] - ang_axis[0]) if len(ang_axis) > 1 else 0.0
    lam = network.lam
    vm = c.v_max
    # per-bus sums over the branches of a tree, where |Y_jk| = |y| of the one branch j-k:
    # sum_{k!=j} |Y_jk| and sum_{i!=j} lam_i |Y_ij|
    i, k, n = network.branch_from, network.branch_to, network.n
    yabs = np.abs(network.branch_y)
    off = np.bincount(i, yabs, n) + np.bincount(k, yabs, n)
    lam_off = np.bincount(i, lam[k] * yabs, n) + np.bincount(k, lam[i] * yabs, n)
    gdiag = np.abs(_ybus_diagonal(network).real)
    l_theta = vm**2 * (lam * off + lam_off)
    l_v = lam * vm * (2 * gdiag + off) + vm * lam_off
    total = float(l_v[free].sum()) * h_v / 2
    if h_t > 0:
        for j, b in enumerate(free):
            subtree = anc[:, pos[b]] > 0  # buses whose root path uses branch (parent(b), b)
            l_db = float(l_theta[np.array(free)[subtree]].sum())
            total += l_db * h_t / 2
    return total


def pv_curve_surface(network: Network, c: ConstraintSet, g: GridSpec) -> SurfaceResult:
    """Total-power surface over the two free-bus magnitudes (zero angles)."""
    slack = network.slack_index
    free = [i for i in range(network.n) if i != slack]
    if len(free) != 2:
        raise ValueError(f"surface sampling needs exactly two free buses, got {len(free)}")
    mag_axis, _ = _axes(network, c, g)
    v1, v2 = np.meshgrid(mag_axis, mag_axis, indexing="ij")
    v1, v2 = v1.ravel(), v2.ravel()
    v = np.empty((v1.size, network.n), dtype=complex)
    v[:, slack] = network.slack_vm
    v[:, free[0]] = v1
    v[:, free[1]] = v2
    s = v * np.conj(v @ network.ybus.T)
    p = s.real
    sum_p = p[:, free[0]] + p[:, free[1]]
    rows = np.column_stack([v1, v2, sum_p])
    feasible = verify(network, c, v, s).ok("thermal", "pf")
    obj = p @ network.lam
    obj[~feasible] = -math.inf
    return SurfaceResult(
        rows=rows,
        p_pairs=p[:, free],
        feasible=feasible,
        max_index=int(np.argmax(obj)),
        free_buses=(free[0], free[1]),
    )


def incremental_screening(
    network: Network,
    c: ConstraintSet,
    step: float,
    max_steps: int = 100_000,
    candidates: list[int] | None = None,
) -> list[ScreeningRow]:
    """Per-bus hosting capacity by ramping one injection until violation.

    Each candidate bus gets ``step`` p.u. of extra unity-pf injection per
    round on top of its load, the power flow is re-solved, and the ramp
    stops at the first constraint violation (or divergence).  The recorded
    value is the last feasible added generation, zero if the base case
    already violates.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if candidates is None:
        candidates = [b.id for b in network.buses if b.kind is BusKind.GEN]
    base = base_setpoints(network)
    rows: list[ScreeningRow] = []
    for cand in candidates:
        spec = list(base)
        status = "cap"
        k = 0
        last_state = None
        while k <= max_steps:
            spec[cand] = BusSetpoint(
                kind=BusKind.LOAD,
                p=-network.buses[cand].load_p + k * step,
                q=-network.buses[cand].load_q,
            )
            try:
                state = solve_newton(network, tuple(spec), x0=last_state)
            except PowerFlowError:
                status = "diverged"
                break
            inj = evaluate_injections(network, state)
            failures = verify(network, c, state.phasors, inj.s).failures()
            # the ramped PV injects at unity pf; only its own band is checked here
            violated = next((k for k, i in failures if k != "pf" or i == cand), None)
            if violated is not None:
                status = violated
                break
            last_state = state
            k += 1
        rows.append(ScreeningRow(bus=cand, hc=(k - 1) * step if k else 0.0, steps=max(k - 1, 0), status=status))
    return rows
