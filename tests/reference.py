"""Dense and quadratic-time references that the library's tree paths are pinned to.

The library solves on branch arrays over the BFS tree in O(n).  The
functions here are the earlier or textbook forms of the same quantities,
kept only so that tests can compare the two:

* ``tree_layout`` and ``grid_error_bound_loop``: the grid oracle's angle
  sums and resolution bound over the dense free-bus ancestor matrix;
* ``grid_search_enumerated``: the grid oracle scoring every grid point;
* ``dense_surface``: the two-free-bus surface from the dense Ybus;
* ``v_re``/``v_im``, ``quadratic_form_total`` and ``polar_form_total``: the
  per-branch quadratic form of the total active injection;
* ``positive_sequence_network``: the dense pipeline's positive-sequence
  network, from each branch's whole transformed 3x3 block;
* ``unbalance_currents``: the zero/negative-sequence sources from the dense
  sequence cross blocks of ``sequence_ybus``;
* ``adjust_thermal``: the thermal stage checking one branch at a time and
  scoring every candidate over the whole feeder.
"""

import math
from collections import Counter

import numpy as np

from hostcap import oracle
from hostcap.hccore import (
    TOL,
    AdjustmentError,
    InfeasibleError,
    _branch_term,
    _curve_candidates,
    _pf_margin,
    finalize_solution,
    verify,
)
from hostcap.netmodel import bfs_tree, build_ybus
from hostcap.powerflow import VoltageState, _ybus_diagonal, bus_injections
from hostcap.sequence import (
    TRANSFORM,
    TRANSFORM_INV,
    _branch_admittances,
    _load_currents,
    _phase_loads,
    _positive_network,
)


def tree_layout(network):
    """Free buses, their grid positions and the ancestor matrix for angle sums."""
    parents, _, _ = bfs_tree(network)
    slack = network.slack_index
    free = [i for i in range(network.n) if i != slack]
    pos = {b: j for j, b in enumerate(free)}
    anc = np.zeros((len(free), len(free)))
    for j, b in enumerate(free):
        u = b
        while u != slack:
            anc[j, pos[u]] = 1.0
            u = int(parents[u])
    return free, pos, anc


def grid_error_bound_loop(network, c, g) -> float:
    """``oracle.grid_error_bound`` with each branch's subtree read off the ancestor matrix."""
    free, pos, anc = tree_layout(network)
    mag_axis, ang_axis = oracle._axes(c, g)
    h_v = float(mag_axis[1] - mag_axis[0]) if len(mag_axis) > 1 else 0.0
    h_t = float(ang_axis[1] - ang_axis[0]) if len(ang_axis) > 1 else 0.0
    lam = network.lam
    vm = c.v_max
    i, k, n = network.branch_from, network.branch_to, network.n
    yabs = np.abs(network.branch_y)
    off = np.bincount(i, yabs, n) + np.bincount(k, yabs, n)
    lam_off = np.bincount(i, lam[k] * yabs, n) + np.bincount(k, lam[i] * yabs, n)
    gdiag = np.abs(_ybus_diagonal(network).real)
    l_theta = vm**2 * (lam * off + lam_off)
    l_v = lam * vm * (2 * gdiag + off) + vm * lam_off
    total = float(l_v[free].sum()) * h_v / 2
    if h_t > 0:
        for b in free:
            subtree = anc[:, pos[b]] > 0  # buses whose root path uses branch (parent(b), b)
            total += float(l_theta[np.array(free)[subtree]].sum()) * h_t / 2
    return total


def grid_search_enumerated(network, c, g):
    """``oracle.grid_search_hc`` by enumerating every grid point instead of max-sum.

    The grid oracle's search before max-sum covered the pf floor: the
    objective, the thermal mask and every generator's pf mask are scored at
    every point, in chunks of at most ``oracle.CHUNK_ROWS`` consecutive
    points, and of bitwise-equal totals the first in C order over
    (magnitudes, angles) wins.  ``oracle.MAX_ENTRIES`` caps the points.
    """
    parents, _, order = bfs_tree(network)
    mag_axis, ang_axis = oracle._axes(c, g)
    mags, deltas = _enumerate(network, c, mag_axis, ang_axis)
    angles = np.zeros(network.n)
    for b in order[1:]:
        angles[b] = angles[parents[b]] + deltas[b]
    return finalize_solution(network, c, VoltageState(magnitudes=mags, angles=angles), stage="grid_oracle")


def _enumerate(network, c, mag_axis, ang_axis):
    """Every grid point, scored in chunks of at most ``oracle.CHUNK_ROWS`` consecutive points.

    The objective, the thermal mask and the pf mask of a chunk are
    broadcast sums of the small tables of :func:`_grid_tables`.
    """
    free = network.free.tolist()
    pos = {b: j for j, b in enumerate(free)}
    nf = len(free)
    use_angles = len(ang_axis) > 1
    dims = [len(mag_axis)] * nf + ([len(ang_axis)] * nf if use_angles else [])
    total = int(np.prod([float(d) for d in dims]))
    if total > oracle.MAX_ENTRIES:
        raise oracle.GridCapError(f"grid has {total:.3e} points, cap is {oracle.MAX_ENTRIES:.3e}")

    const, obj_tables, pf_tables = _grid_tables(network, c, pos, mag_axis, ang_axis)
    # a chunk is a run of whole blocks over the trailing dims ``dims[k:]``, so
    # every table reaches it as a broadcast over (block, *dims[k:])
    k = len(dims)
    while k > 0 and math.prod(dims[k - 1 :]) <= oracle.CHUNK_ROWS:
        k -= 1
    inner, outer = math.prod(dims[k:]), math.prod(dims[:k])
    rows = max(1, oracle.CHUNK_ROWS // inner)

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
    return mags, deltas


def _grid_tables(network, c, pos: dict, mag_axis, ang_axis):
    """Objective and pf tables of the grid, each broadcast over the grid's dims.

    Dim ``pos[b]`` is the magnitude of free bus b; unless the angle axis is
    the single 0, dim nf + ``pos[b]`` is the angle of branch (parent, b).
    Returns the slack's constant objective term, one real table per branch
    (``oracle._branch_terms``) and, when ``c.eta`` is set, per generator the
    complex tables that sum to its injection.
    """
    slack, parents, nf = network.slack_index, network.parents, len(pos)
    rot = np.exp(1j * ang_axis) if len(ang_axis) > 1 else None  # the only exp: over the angle axis
    ndim = nf if rot is None else 2 * nf

    def along(values, dim):  # ``values`` laid out along grid dim ``dim``
        shape = [1] * ndim
        shape[dim] = -1
        return values.reshape(shape)

    def mag(b):
        return network.slack_vm if b == slack else along(mag_axis, pos[b])

    conj_diag = np.conj(_ybus_diagonal(network))
    const = float(network.lam[slack] * network.slack_vm**2 * conj_diag[slack].real)
    gens = network.gens.tolist() if c.eta is not None else []
    injections: dict[int, list[np.ndarray]] = {b: [] for b in gens}
    obj_tables = []
    for bi, cb in enumerate(network.branch_child.tolist()):
        p = int(parents[cb])
        rot_b = None if rot is None else along(rot, nf + pos[cb])
        obj, s_p, s_c = oracle._branch_terms(network, bi, p, cb, mag(p), mag(cb), rot_b, conj_diag)
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


def dense_surface(network, c, g):
    """``oracle.pv_curve_surface``'s rows, feasibility and maximizer from S = V conj(Ybus V)."""
    slack = network.slack_index
    free = [i for i in range(network.n) if i != slack]
    mag_axis, _ = oracle._axes(c, g)
    v1, v2 = np.meshgrid(mag_axis, mag_axis, indexing="ij")
    v1, v2 = v1.ravel(), v2.ravel()
    v = np.empty((v1.size, network.n), dtype=complex)
    v[:, slack] = network.slack_vm
    v[:, free[0]] = v1
    v[:, free[1]] = v2
    s = v * np.conj(v @ build_ybus(network).T)
    p = s.real
    rows = np.column_stack([v1, v2, p[:, free[0]] + p[:, free[1]]])
    feasible = verify(network, c, v, s).ok("thermal", "pf")
    obj = p @ network.lam
    obj[~feasible] = -math.inf
    return rows, p[:, free], feasible, int(np.argmax(obj))


def v_re(state) -> np.ndarray:
    return state.magnitudes * np.cos(state.angles)


def v_im(state) -> np.ndarray:
    return state.magnitudes * np.sin(state.angles)


def quadratic_form_total(network, state) -> float:
    """Total active injection as the rectangular per-branch quadratic form.

    sum over branches of (-G_ik) * [(V_i,re - V_k,re)^2 + (V_i,im - V_k,im)^2];
    equals sum_i P_i on shunt-free networks.
    """
    vre, vim = v_re(state), v_im(state)
    i, k = network.branch_from, network.branch_to
    g = network.branch_y.real  # == -G_ik of the ybus off-diagonal
    return float(g @ ((vre[i] - vre[k]) ** 2 + (vim[i] - vim[k]) ** 2))


def polar_form_total(network, state) -> float:
    """Same total as :func:`quadratic_form_total` in polar coordinates.

    sum over branches of (-G_ik) * [a^2 + b^2 - 2 a b cos(t_i - t_k)].
    """
    m, t = state.magnitudes, state.angles
    i, k = network.branch_from, network.branch_to
    a, b = m[i], m[k]
    return float(network.branch_y.real @ (a * a + b * b - 2 * a * b * np.cos(t[i] - t[k])))


def positive_sequence_network(net3):
    """Single-phase equivalent: per-branch positive-sequence impedances.

    Branch positive-sequence admittance is the (1,1) entry of the
    transformed 3x3 block; per-bus load is the per-phase average.
    """
    y1 = (TRANSFORM_INV @ _branch_admittances(net3) @ TRANSFORM)[:, 1, 1]
    return _positive_network(net3, y1)


def unbalance_currents(net3, seq, state) -> tuple[np.ndarray, np.ndarray]:
    """Zero/negative-sequence injection currents expressing the unbalance.

    Per-phase load currents conj(S_ph / V_ph) are evaluated at the balanced
    phase voltages implied by the positive-sequence state, then transformed;
    their zero/negative components, together with the cross-sequence line
    coupling acting on V1, source the two auxiliary nodal problems.
    """
    v1 = state.phasors
    i_seq = _load_currents(_phase_loads(net3), v1)
    i0 = -i_seq[:, 0] - seq.cross_0_from_1 @ v1
    i2 = -i_seq[:, 2] - seq.cross_2_from_1 @ v1
    return i0, i2


def adjust_thermal(network, c, sol, paths=None):
    """``hccore.adjust_thermal`` as one scalar current check per limited branch and clamp.

    Every candidate is scored, a lone one too, each with a full-feeder
    ``bus_injections``.  When ``paths`` (a ``Counter``) is given,
    each clamp counts under ``"lone"`` (one candidate) or ``"multi"`` (two or
    more, whose number adds to ``"scored"``), plus ``"scan"`` when the held
    side scanned the box.
    """
    limited = [(bi, br) for bi, br in enumerate(network.branches) if br.thermal_limit is not None]
    if not limited:
        return sol
    slack = network.slack_index
    _, depths, _ = bfs_tree(network)
    limited.sort(key=lambda item: (max(depths[item[1].from_bus], depths[item[1].to_bus]), item[0]))
    mags = np.array(sol.state.magnitudes, dtype=float)
    angles = np.array(sol.state.angles, dtype=float)
    lam = network.lam
    paths = Counter() if paths is None else paths

    def score(pair, hold, move, cos_t):
        trial = mags.copy()
        trial[[hold, move]] = pair
        obj = float(lam @ bus_injections(network, trial * np.exp(1j * angles)).real)
        return (round(_branch_term(*pair, cos_t), 12), round(obj, 9), -pair[1])

    def clamp_pairs(hold_vals, cos_t, kappa2):
        return [(a, b) for a in hold_vals for b in _curve_candidates(a, cos_t, kappa2, c)]

    changed_any = False
    max_passes = max(16, 2 * network.n)
    for _pass in range(max_passes + 1):
        dirty = False
        for bi, br in limited:
            i, k = br.from_bus, br.to_bus
            yabs = abs(br.series_admittance)
            cap = br.thermal_limit
            cur = yabs * abs(
                mags[i] * np.exp(1j * angles[i]) - mags[k] * np.exp(1j * angles[k])
            )
            if cur <= cap * (1 + TOL["thermal"]):
                continue
            if _pass == max_passes:
                raise AdjustmentError(
                    f"thermal correction did not settle after {max_passes} passes"
                )
            dirty = True
            changed_any = True
            hold, move = (i, k) if depths[i] < depths[k] else (k, i)
            kappa2 = (cap / yabs) ** 2
            cos_t = math.cos(angles[i] - angles[k])

            options = clamp_pairs([float(mags[hold])], cos_t, kappa2)
            if not options and hold != slack:
                paths["scan"] += 1
                grid = [float(a) for a in np.linspace(c.v_min, c.v_max, 201)]
                options = clamp_pairs(grid, cos_t, kappa2)
            if not options:
                raise InfeasibleError(
                    f"thermal limit {cap} on branch {i}-{k} admits no voltage "
                    "pair inside the magnitude box"
                )
            if len(options) == 1:
                paths["lone"] += 1
            else:
                paths["multi"] += 1
                paths["scored"] += len(options)
            mags[[hold, move]] = max(options, key=lambda pair: score(pair, hold, move, cos_t))
        if not dirty:
            break
    if not changed_any:
        return sol
    state = VoltageState(magnitudes=mags, angles=angles)
    return finalize_solution(network, c, state, stage="thermal_adjusted")
