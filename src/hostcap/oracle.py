"""Brute-force verification tools for the constructive solver.

``grid_search_hc`` enumerates the feasible voltage box on a regular grid
(magnitudes per free bus, angle differences per branch) and returns the
constrained maximizer.  On a tree every injection is the bus's shunt term
plus one term per incident branch, each a function of one branch's
(a_p, a_c, delta_c), so the objective, the thermal mask and the pf mask of
every point are broadcast sums of small per-bus and per-branch tables; no
point's phasors and no dense Ybus are formed.  Together with
``grid_error_bound`` it certifies global optimality at small scale: the true
optimum can exceed the best grid point by at most a Lipschitz term, so
agreement of the pattern solver with the grid maximizer within that bound
pins the solver to the global optimum.

``pv_curve_surface`` samples the two-free-bus surface for the figure data,
one branch-wise injection evaluation (``bus_injections``) per point.

``incremental_screening`` is the classic per-bus ramp baseline: raise one
bus's injection step by step, re-run power flow, stop at the first limit
violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hccore import (
    ConstraintSet,
    HCSolution,
    InfeasibleError,
    _pf_margin,
    _thermal_margin,
    finalize_solution,
    verify,
)
from .netmodel import BusKind, Network, bfs_tree
from .powerflow import (
    BusSetpoint,
    PowerFlowError,
    VoltageState,
    _ybus_diagonal,
    base_setpoints,
    bus_injections,
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
MAX_STEPS = 100_000  # ramp steps per bus in incremental_screening


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


def _axes(c: ConstraintSet, g: GridSpec):
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


def grid_search_hc(network: Network, c: ConstraintSet, g: GridSpec) -> HCSolution:
    """Exhaustive grid search over the feasible voltage box.

    Magnitudes of every free bus run over the box (corners included);
    branch angle differences run over [-theta_max, theta_max].  The feasible
    maximizer of the weighted objective is returned.  Points are enumerated
    in C order over (magnitudes, angles), so of several points with
    bitwise-equal objectives the lexicographically smallest wins.  Points
    that tie only mathematically (for instance +-delta across a branch
    whose ends carry equal weights) are split by rounding.

    No point's phasors are formed: every injection is a per-bus term plus
    per-branch terms, so the objective, the thermal mask and the pf mask
    are broadcast sums of small tables (see :func:`_grid_tables`) over
    chunks of at most ``CHUNK_ROWS`` consecutive points.  The chosen point's
    angles are rebuilt root-outward over the BFS order, each bus adding its
    branch's delta to its parent's angle.
    """
    parents, _, order = bfs_tree(network)
    free = network.free.tolist()
    pos = {b: j for j, b in enumerate(free)}
    nf = len(free)
    mag_axis, ang_axis = _axes(c, g)
    use_angles = len(ang_axis) > 1
    dims = [len(mag_axis)] * nf + ([len(ang_axis)] * nf if use_angles else [])
    total = int(np.prod([float(d) for d in dims]))
    if total > g.cap:
        raise GridCapError(f"grid has {total:.3e} points, cap is {g.cap:.3e}")

    const, obj_tables, pf_tables = _grid_tables(network, c, pos, mag_axis, ang_axis)
    # a chunk is a run of whole blocks over the trailing dims ``dims[k:]``, so
    # every table reaches it as a broadcast over (block, *dims[k:])
    k = len(dims)
    while k > 0 and math.prod(dims[k - 1 :]) <= CHUNK_ROWS:
        k -= 1
    inner, outer = math.prod(dims[k:]), math.prod(dims[:k])
    rows = max(1, CHUNK_ROWS // inner)

    best_obj, best = -math.inf, 0
    for start in range(0, outer, rows):  # chunk order keeps the first of equal maxima
        stop = min(start + rows, outer)
        ix = np.unravel_index(np.arange(start, stop), dims[:k]) if k else ()
        obj = np.full((stop - start, *dims[k:]), const)
        for table in obj_tables:
            obj += _rows(table, ix)
        for terms in pf_tables:
            s = _rows(terms[0], ix)
            for table in terms[1:]:
                s = s + _rows(table, ix)
            m, tol = _pf_margin(s, c.eta)
            np.copyto(obj, -math.inf, where=m < -tol)
        j = int(np.argmax(obj))
        if obj.flat[j] > best_obj:
            best_obj, best = float(obj.flat[j]), start * inner + j

    if best_obj == -math.inf:
        raise InfeasibleError("no feasible grid point under the given constraints")

    idx = np.unravel_index(best, dims)
    mags = np.full(network.n, network.slack_vm)
    mags[free] = mag_axis[list(idx[:nf])]
    deltas = np.zeros(network.n)
    if use_angles:
        deltas[free] = ang_axis[list(idx[nf:])]
    angles = np.zeros(network.n)
    for b in order[1:]:
        angles[b] = angles[parents[b]] + deltas[b]
    state = VoltageState(magnitudes=mags, angles=angles)
    return finalize_solution(network, c, state, stage="grid_oracle")


def _grid_tables(network: Network, c: ConstraintSet, pos: dict, mag_axis, ang_axis):
    """Objective and pf tables of the grid, each broadcast over the grid's dims.

    Dim ``pos[b]`` is the magnitude of free bus b; unless the angle axis is
    the single 0, dim nf + ``pos[b]`` is the angle of branch (parent, b).
    A branch (p, c) is taken in p's angle frame, V_p = a_p and
    V_c = a_c e^{j delta_c}, and carries the injections V_p conj(-y V_c) at
    p and V_c conj(-y V_p) at c; bus j adds a_j^2 conj(Y_jj).  Returns the slack's constant objective
    term, one real table per branch (lam-weighted P of its ends plus its
    child's own term, -inf where the branch's thermal limit is violated)
    and, when ``c.eta`` is set, per generator the complex tables that sum
    to its injection.
    """
    slack, lam, parents, nf = network.slack_index, network.lam, network.parents, len(pos)
    rot = np.exp(1j * ang_axis) if len(ang_axis) > 1 else None  # the only exp: over the angle axis
    ndim = nf if rot is None else 2 * nf

    def along(values, dim):  # ``values`` laid out along grid dim ``dim``
        shape = [1] * ndim
        shape[dim] = -1
        return values.reshape(shape)

    def mag(b):
        return network.slack_vm if b == slack else along(mag_axis, pos[b])

    conj_diag = np.conj(_ybus_diagonal(network))
    const = float(lam[slack] * network.slack_vm**2 * conj_diag[slack].real)
    gens = network.gens.tolist() if c.eta is not None else []
    injections: dict[int, list[np.ndarray]] = {b: [] for b in gens}
    obj_tables = []
    for bi, cb in enumerate(network.branch_child.tolist()):
        p, y = int(parents[cb]), network.branch_y[bi]
        vp = mag(p)
        vc = mag(cb) + 0j if rot is None else mag(cb) * along(rot, nf + pos[cb])
        s_p = vp * np.conj(-y * vc)
        s_c = mag(cb) ** 2 * conj_diag[cb] + vc * np.conj(-y * vp)
        obj = lam[p] * s_p.real + lam[cb] * s_c.real
        cap = network.branch_limit[bi]
        if math.isfinite(cap):
            m, tol = _thermal_margin(cap, abs(y) * np.abs(vp - vc))
            obj = np.where(m < -tol, -math.inf, obj)
        obj_tables.append(obj)
        for b, s in ((p, s_p), (cb, s_c)):
            if b in injections:
                injections[b].append(s)
    return const, obj_tables, list(injections.values())


def _rows(table: np.ndarray, ix: tuple) -> np.ndarray:
    """``table`` at a chunk's indices ``ix`` into the leading dims, shaped (rows or 1, *trailing dims)."""
    k = len(ix)
    if all(d == 1 for d in table.shape[:k]):
        return table.reshape(1, *table.shape[k:])
    return table[tuple(i if d > 1 else 0 for i, d in zip(ix, table.shape))]


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

    with Vm the box upper bound.  Deliberately conservative.  Summed over
    the branches, each bus m lies in the subtree of every branch on its
    path to the slack, so the angle terms total sum_m depth(m) * L_tm.
    """
    _, depths, _ = bfs_tree(network)
    mag_axis, ang_axis = _axes(c, g)
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
    return float(l_v[network.free].sum()) * h_v / 2 + float(l_theta @ depths) * h_t / 2


def pv_curve_surface(network: Network, c: ConstraintSet, g: GridSpec) -> SurfaceResult:
    """Total-power surface over the two free-bus magnitudes (zero angles)."""
    slack, free = network.slack_index, network.free.tolist()
    if len(free) != 2:
        raise ValueError(f"surface sampling needs exactly two free buses, got {len(free)}")
    mag_axis, _ = _axes(c, g)
    v1, v2 = np.meshgrid(mag_axis, mag_axis, indexing="ij")
    v1, v2 = v1.ravel(), v2.ravel()
    v = np.empty((v1.size, network.n), dtype=complex)
    v[:, slack] = network.slack_vm
    v[:, free[0]] = v1
    v[:, free[1]] = v2
    s = bus_injections(network, v)
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
    candidates: list[int] | None = None,
) -> list[ScreeningRow]:
    """Per-bus hosting capacity by ramping one injection until violation.

    Each candidate bus gets ``step`` p.u. of extra unity-pf injection per
    round on top of its load, the power flow is re-solved, and the ramp
    stops at the first constraint violation (or divergence).  The recorded
    value is the last feasible added generation, zero if the base case
    already violates.
    """
    if not 0 < step < math.inf:  # false for NaN too
        raise ValueError("step must be positive and finite")
    if candidates is None:
        candidates = network.gens.tolist()
    base = base_setpoints(network)
    rows: list[ScreeningRow] = []
    for cand in candidates:
        spec = list(base)
        status = "cap"
        k = 0
        last_state = None
        while k <= MAX_STEPS:
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
