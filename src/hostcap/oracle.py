"""Grid oracle and verification tools for the constructive solver.

``grid_search_hc`` returns the exact constrained maximizer over a regular
grid of the feasible voltage box (magnitudes per free bus, angle
differences per branch).  On a tree every injection is the bus's shunt term
plus one term per incident branch, each a function of one branch's
(a_p, a_c, delta_c), so the objective is a constant plus one table per
branch, -inf where the branch's thermal limit fails; no point's phasors and
no dense Ybus are formed.  The thermal and pf masks call the margin helpers
that ``verify`` calls (``_thermal_margin``, ``_pf_margin``), so they cannot
drift from it.  That sum is maximized by max-sum dynamic programming over
the tree, in sum_b G_p G_c A table entries at any feeder size.  A pf floor
only adds, per generator, a mask over its closed neighbourhood (its
parent's magnitude, its own state, its children's states), which max-sum
removes exactly on a tree at a cost exponential in that generator's child
count only; no grid point is enumerated.
``grid_error_bound`` is a Lipschitz term by which the true optimum could
exceed the best grid point, but only if the grid points near the optimum are
feasible, which holds only without thermal and pf limits.  So the
``agreement`` of the pattern solver with the grid maximizer within that bound
(``hostcap oracle``) is no certificate of optimality.

``pv_curve_surface`` samples the two-free-bus surface for the figure data,
one branch-wise injection evaluation (``bus_injections``) per point.

``incremental_screening`` is the classic per-bus ramp baseline: raise one
bus's injection step by step, re-run power flow, stop at the first limit
violation.
"""

from __future__ import annotations

import math
import operator
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
from .netmodel import Network, bfs_tree
from .powerflow import (
    PowerFlowError,
    VoltageState,
    _ybus_diagonal,
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
# Bound on grid_search_hc's work: the entries of its max-sum tables,
# sum_b G_p G A (G A)^k_b with G_p = 1 under the slack, where k_b is bus b's
# child count if b is a generator under a pf floor and 0 otherwise.
MAX_ENTRIES = 10**8


class GridCapError(RuntimeError):
    """The requested grid's max-sum tables exceed ``MAX_ENTRIES``; the message names the count."""


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution: magnitude steps per bus, angle steps per branch, integers of at least 2.

    Any integer type passes (``operator.index``); floats, NaN included, are refused.
    """

    magnitude_steps: int = 101
    angle_steps: int = 11

    def __post_init__(self) -> None:
        try:
            steps = [operator.index(self.magnitude_steps), operator.index(self.angle_steps)]
        except TypeError:
            raise ValueError("grid steps must be integers") from None
        if min(steps) < 2:
            raise ValueError("grid steps must be at least 2")


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
    """Exact maximizer of the weighted objective over the feasible grid.

    Magnitudes of every free bus run over the box (corners included);
    branch angle differences run over [-theta_max, theta_max].  No point's
    phasors are formed: the objective is a constant plus one table per
    branch in (a_p, a_c, delta_c) (see :func:`_branch_terms`), -inf where
    the branch's thermal limit fails, and a pf floor (``c.eta``) is a mask
    over each generator's closed neighbourhood.  Max-sum dynamic
    programming over the tree (:func:`_max_sum`) maximizes that sum
    exactly, with or without a pf floor, and ``MAX_ENTRIES`` bounds its
    table entries.  One tie rule holds with or without one: of the bitwise-equal
    maxima of a bus's joint table, given the states its parent fixed, the
    first in C order over (its magnitude, its angle, then the magnitude and
    angle of each child its pf couples to it) wins.

    The chosen point's angles are rebuilt root-outward over the BFS order,
    each bus adding its branch's delta to its parent's angle.
    """
    parents, _, order = bfs_tree(network)
    mag_axis, ang_axis = _axes(c, g)
    mags, deltas = _max_sum(network, c, parents, order, mag_axis, ang_axis)
    angles = np.zeros(network.n)
    for b in order[1:]:
        angles[b] = angles[parents[b]] + deltas[b]
    state = VoltageState(magnitudes=mags, angles=angles)
    return finalize_solution(network, c, state, stage="grid_oracle")


def _max_sum(network: Network, c: ConstraintSet, parents, order, mag_axis, ang_axis):
    """Leaf-to-root max-sum over the tree, then a root-outward backtrack.

    Bus b's joint table J_b is its branch table T_b(a_p, a_b, delta_b) of
    :func:`_branch_terms` plus its children's messages, and b sends its
    parent p the message m_b(a_p), the max of J_b over the rest.  A pf
    floor adds one factor per generator b, over its closed neighbourhood
    only: b's injection is its parent branch's child-end term plus each
    child branch's parent-end term.  So under one, b's children keep their
    own state and send M_d(a_b, a_d, delta_d); J_b spans (a_p, a_b, delta_b,
    then each child's (a_d, delta_d)), is -inf where b's pf fails, and keeps
    (a_p, a_b, delta_b) in its message when p is a generator too.  Every
    factor then lies in one joint table and the tables still form a tree, so
    the slack's inbox holds the grid optimum less the slack's constant term.
    b's injection terms are summed in branch order, as a sum over all
    branches would add them, so each pf verdict is the same bit for bit.
    Each J_b is built in blocks of at most ``CHUNK_ROWS // 4`` entries, so
    no array grows with the grid beyond the G G A entries of an M_d.
    """
    slack, n, n_mag, n_ang = network.slack_index, network.n, len(mag_axis), len(ang_axis)
    n_x = n_mag * n_ang  # (magnitude, angle) states of a bus, magnitude-major
    coupled = np.zeros(n, dtype=bool)  # generators under a pf floor
    if c.eta is not None:
        coupled[network.gens] = True
    kept: list[list[int]] = [[] for _ in range(n)]  # per coupled generator: its children
    for b in order[1:]:
        if coupled[parents[b]]:
            kept[parents[b]].append(b)
    # J_b's dims: (a_p, a_b, delta_b), then each kept child's flat state
    dims = {b: (1 if parents[b] == slack else n_mag, n_mag, n_ang) + (n_x,) * len(kept[b]) for b in order[1:]}
    work = sum(math.prod(d) for d in dims.values())
    if work > MAX_ENTRIES:
        count = f"{work:.3e}" if work < 1e308 else "over 1e308"  # a float cannot format a larger int
        raise GridCapError(f"max-sum tables hold {count} entries, cap is {MAX_ENTRIES:.3e}")

    branch_of = np.empty(n, dtype=int)
    branch_of[network.branch_child] = np.arange(network.branch_child.size)
    conj_diag = np.conj(_ybus_diagonal(network))
    rot = np.exp(1j * ang_axis) if n_ang > 1 else None
    slack_axis = np.array([network.slack_vm])
    block = max(1, CHUNK_ROWS // 4)
    inbox = np.zeros((n, n_mag))  # per bus and own magnitude index: the messages m_d of its children
    # per bus a generator keeps: M_b and b's parent-end injection term, over (a_p, flat state);
    # per bus: the flat index of J_b's first maximum in each cell of its message
    msg, up, pick = [None] * n, [None] * n, [None] * n
    for b in reversed(order[1:]):
        p, d = int(parents[b]), dims[b]
        vp_axis = slack_axis if p == slack else mag_axis
        r = 3 if coupled[p] else 1  # leading dims of J_b that b's message keeps
        k = r  # dims d[:k] are indexed per block, d[k:] broadcast whole
        while math.prod(d[k:]) > block:
            k += 1
        unit, per_cell, units = math.prod(d[k:]), math.prod(d[r:k]), math.prod(d[:k])
        rows = max(1, block // unit)
        lead = (-1,) + (1,) * (len(d) - k)
        trail = [(1,) * (1 + j) + (-1,) + (1,) * (len(d) - k - 1 - j) for j in range(len(d) - k)]
        top, arg = np.full(math.prod(d[:r]), -math.inf), np.zeros(math.prod(d[:r]), dtype=int)
        if r == 3:
            up[b] = np.empty(top.size, dtype=complex)
        start = 0
        while start < units:  # a block never spans two cells that are split into blocks
            stop = min(start + rows, units if per_cell == 1 else start - start % per_cell + per_cell)
            ix = np.unravel_index(np.arange(start, stop), d[:k])

            def along(values, dim):  # ``values`` of grid dim ``dim``, broadcast over the block
                return values[ix[dim]].reshape(lead) if dim < k else values.reshape(trail[dim - k])

            def pair(table, dim):  # a child's (a_b, state) table, its state at grid dim ``dim``
                if dim < k:
                    return table[ix[1], ix[dim]].reshape(lead)
                shape = [1] * (1 + len(d) - k)
                shape[0 if k > 1 else 1], shape[1 + dim - k] = -1, n_x
                return (table[ix[1]] if k > 1 else table).reshape(shape)

            ab = along(mag_axis, 1)
            t, s_p, s = _branch_terms(network, int(branch_of[b]), p, b, along(vp_axis, 0), ab,
                                      None if rot is None else along(rot, 2), conj_diag)
            t = t + along(inbox[b], 1)
            if r == 3:
                up[b][np.arange(start, stop) // per_cell] = s_p.reshape(-1)
            if coupled[b]:
                terms = [(branch_of[b], s)]
                for i, ch in enumerate(kept[b]):
                    t = t + pair(msg[ch], 3 + i)
                    terms.append((branch_of[ch], pair(up[ch], 3 + i)))
                terms.sort(key=lambda e: e[0])
                s = terms[0][1]
                for _, s_ch in terms[1:]:
                    s = s + s_ch
                m, tol = _pf_margin(s, c.eta)
                np.copyto(t, -math.inf, where=m < -tol)
            t = t.reshape(stop - start, -1)
            j = t.argmax(axis=1)  # the first of bitwise-equal maxima
            v = t[np.arange(j.size), j]
            if per_cell == 1:
                top[start:stop], arg[start:stop] = v, j
            elif v.max() > top[start // per_cell]:  # strictly: an earlier block keeps a tie
                i = int(v.argmax())
                cell = start // per_cell
                top[cell], arg[cell] = v[i], (start % per_cell + i) * unit + j[i]
            start = stop
        pick[b] = arg
        if r == 1:
            inbox[p, : d[0]] += top
        else:
            msg[b], up[b] = top.reshape(n_mag, n_x), up[b].reshape(n_mag, n_x)
    if inbox[slack, 0] == -math.inf:
        raise InfeasibleError("no feasible grid point under the given constraints")

    at = np.zeros(n, dtype=int)  # flat (magnitude, angle) index per bus
    for b in order[1:]:
        p = parents[b]
        a_p = 0 if p == slack else at[p] // n_ang
        rest = int(pick[b][a_p * n_x + at[b] if coupled[p] else a_p])
        for ch in reversed(kept[b]):
            rest, at[ch] = divmod(rest, n_x)
        if not coupled[p]:
            at[b] = rest
    mags, deltas = mag_axis[at // n_ang], ang_axis[at % n_ang]
    mags[slack], deltas[slack] = network.slack_vm, 0.0
    return mags, deltas


def _branch_terms(network: Network, bi: int, p: int, b: int, vp, ab, rot, conj_diag):
    """Objective table of branch ``bi`` from parent ``p`` to child ``b``, and the injections at its ends.

    ``vp`` and ``ab`` are the end magnitudes and ``rot`` is e^{j delta_b} (None for delta 0),
    broadcast against each other.  The branch is taken in p's angle frame,
    V_p = a_p and V_b = a_b e^{j delta_b}, and carries the injections
    s_p = V_p conj(-y V_b) at p and s_b = a_b^2 conj(Y_bb) + V_b conj(-y V_p)
    at b, the child's own term included.  The objective is the
    lam-weighted P of both ends, -inf where ``_thermal_margin`` flags the thermal limit.
    """
    y, lam = network.branch_y[bi], network.lam
    vb = ab + 0j if rot is None else ab * rot
    s_p = vp * np.conj(-y * vb)
    s_b = ab**2 * conj_diag[b] + vb * np.conj(-y * vp)
    obj = lam[p] * s_p.real + lam[b] * s_b.real
    cap = network.branch_limit[bi]
    if math.isfinite(cap):
        m, tol = _thermal_margin(y, cap, vp - vb)
        obj = np.where(m < -tol, -math.inf, obj)
    return obj, s_p, s_b


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

    with Vm the box upper bound.  Deliberately conservative, but it assumes
    the grid point nearest the optimum is feasible, which holds only without
    thermal and pf limits.  Summed over the branches, each bus m lies in the
    subtree of every branch on its path to the slack, so the angle terms
    total sum_m depth(m) * L_tm.
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
    round on top of its load, the power flow is re-solved with every
    non-slack bus at its scheduled (P, Q), and the ramp stops at the first
    constraint violation (or divergence).  The status names the lowest bus
    that breaks ``v_max`` or ``v_min`` (``v_max`` first at one bus), else the
    lowest branch that breaks ``theta`` or ``thermal`` (``theta`` first at one
    branch), else the ramped bus's own ``pf``.  The recorded value is the last
    feasible added generation, zero if the base case already violates.  A
    candidate that is not a bus id, or whose injection one step cannot move
    (the slack, or a step below the float spacing of its load), is refused
    before any ramp.
    """
    if not 0 < step < math.inf:  # false for NaN too
        raise ValueError("step must be positive and finite")
    if candidates is None:
        candidates = network.gens.tolist()
    unknown = [i for i in candidates if i not in range(network.n)]
    if unknown:
        raise ValueError(f"candidates {unknown} are not bus ids 0..{network.n - 1}")
    p0, q0 = -network.loads.real, -network.loads.imag
    stuck = [i for i in candidates if i == network.slack_index or p0[i] + step == p0[i]]
    if stuck:
        raise ValueError(f"a step of {step!r} p.u. cannot move the injection of buses {stuck}")
    vm = np.ones(network.n)
    vm[network.slack_index] = network.slack_vm
    flat = VoltageState(magnitudes=vm, angles=np.zeros(network.n))
    rows: list[ScreeningRow] = []
    for cand in candidates:
        p = p0.copy()
        status = "cap"
        k = 0
        state = flat
        while k <= MAX_STEPS:
            p[cand] = p0[cand] + k * step
            try:
                state = solve_newton(network, state, p, q0, pq=network.free)
            except PowerFlowError:
                status = "diverged"
                break
            inj = evaluate_injections(network, state)
            violated = _first_violation(verify(network, c, state.phasors, inj.s).failures(), cand)
            if violated is not None:
                status = violated
                break
            k += 1
        rows.append(ScreeningRow(bus=cand, hc=(k - 1) * step if k else 0.0, steps=max(k - 1, 0), status=status))
    return rows


def _first_violation(failures: dict[str, list[int]], cand: int) -> str | None:
    """The screening status of a step's failures; the ramped PV injects at unity pf, so only its own pf counts."""
    for kinds in (("v_max", "v_min"), ("theta", "thermal")):
        hit = [kind for kind in kinds if failures[kind]]
        if hit:
            return min(hit, key=lambda kind: failures[kind][0])  # min keeps the first of equal keys
    return "pf" if cand in failures["pf"] else None
