"""Constructive hosting-capacity solver.

The weighted hosting capacity of a radial feeder,

    HC = sum_i lambda_i * P_i_inj(V),

is maximised constructively rather than by a general NLP solver.  The stages:

1. ``solve_voltage_only`` — with only the magnitude box active, the optimum
   is the alternating pattern: odd-depth buses at v_max, even-depth buses at
   v_min (slack magnitude stays at its own fixed setpoint).
2. ``solve_with_angle`` — with a bound theta_max on branch angle
   differences, every branch difference is set to +-min(pi, theta_max); the
   magnitude pattern switches from high-low to all-high once theta_max
   exceeds the critical angle arccos((v_max + v_min) / (2 v_max)).
3. ``adjust_thermal`` — branches whose current exceeds their limit C get
   their endpoint magnitudes moved onto the curve
   a^2 + b^2 - 2 a b cos(theta) = C^2 / (G^2 + B^2), which caps the branch's
   contribution at its maximum feasible value.
4. ``adjust_power_factor`` — generator buses whose reactive injection
   violates |Q| <= sqrt(1 - eta^2)/eta * |P| are switched to fixed-(P, Q)
   at the bound and the voltages re-solved by a damped Newton iteration.

``solve_hc`` runs the full pipeline and re-verifies thermal and power-factor
feasibility jointly.  Every feasibility verdict, here and in the oracle
and sequence modules, comes from :func:`verify` and its single tolerance
table ``TOL``; the grid oracle's per-branch masks call the same margin
helpers (``_thermal_margin``, ``_pf_margin``) as the verifier does.  The
construction assumes off-diagonal conductances are non-positive (true for
any branch with r >= 0); networks violating that are refused rather than
silently mis-solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .netmodel import BusKind, Network, bfs_tree
from .powerflow import (
    BusSetpoint,
    InjectionProfile,
    PowerFlowError,
    VoltageState,
    bus_injections,
    evaluate_injections,
    solve_newton,
)

__all__ = [
    "ConstraintSet",
    "HCSolution",
    "LIMITS",
    "TOL",
    "Verdict",
    "InfeasibleError",
    "AdjustmentError",
    "weighted_hc",
    "critical_angle",
    "solve_voltage_only",
    "solve_with_angle",
    "adjust_thermal",
    "pf_q_bounds",
    "adjust_power_factor",
    "solve_hc",
    "solve_hc_stages",
    "finalize_solution",
    "power_factors",
    "verify",
]

# The one tolerance table behind every feasibility verdict.
TOL = {
    "box": 1e-9,       # p.u. beyond [v_min, v_max]
    "theta": 1e-9,     # rad beyond theta_max on a branch
    "thermal": 1e-9,   # relative overshoot of |I| over C
    "pf": 1e-6,        # undershoot of |P|/|S| below eta
    "s_floor": 1e-9,   # |S| at or below which a generator counts as unity pf
    "binding": 1e-6,   # margin below which a limit is reported binding
}


class InfeasibleError(RuntimeError):
    """The constraint set cannot be satisfied (reports the offending element)."""


class AdjustmentError(RuntimeError):
    """A correction stage failed to converge."""


@dataclass(frozen=True)
class ConstraintSet:
    """Operating limits: magnitude box, angle-difference bound, pf floor.

    Thermal limits are carried per-branch on the network itself.  ``eta``
    of ``None`` disables the power-factor constraint entirely.
    """

    v_min: float = 0.95
    v_max: float = 1.05
    theta_max: float = 0.0
    eta: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.v_min <= self.v_max < math.inf:  # false for NaN too
            raise ValueError("require 0 < v_min <= v_max, both finite")
        if not 0 <= self.theta_max < math.inf:
            raise ValueError("theta_max must be finite and non-negative")
        if self.eta is not None and not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class HCSolution:
    """A feasible operating point with its weighted hosting capacity."""

    state: VoltageState
    injections: InjectionProfile
    hc_total: float
    binding: tuple[tuple[str, int], ...]
    stage: str


def weighted_hc(network: Network, state: VoltageState) -> float:
    """Objective value sum_i lambda_i * P_i at the given state."""
    inj = evaluate_injections(network, state)
    return float(network.lam @ inj.p)


def critical_angle(v_max: float, v_min: float) -> float:
    """Angle bound at which the optimal magnitude pattern switches.

    arccos((v_max + v_min) / (2 v_max)); zero when the box is degenerate.
    """
    if not 0 < v_min <= v_max:
        raise ValueError("require 0 < v_min <= v_max")
    return math.acos((v_max + v_min) / (2.0 * v_max))


def pf_q_bounds(p: float, eta: float) -> tuple[float, float]:
    """Reactive band (q_min, q_max) allowed by a power-factor floor eta.

    |Q| <= sqrt(1 - eta^2)/eta * |P|  (equivalently |P|/|S| >= eta).
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    half_width = math.sqrt(1.0 - eta * eta) / eta * abs(p)
    return (-half_width, half_width)


def _power_factor(s: np.ndarray) -> np.ndarray:
    mag = np.abs(s)
    pf = np.abs(s.real)
    floored = mag <= TOL["s_floor"]
    pf /= np.maximum(mag, TOL["s_floor"], out=mag)
    pf[floored] = 1.0
    return pf


def _thermal_margin(cap, current: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margin of branch currents ``|I|`` under their limits ``cap``, and its tolerance.

    A branch violates when the margin is below minus the tolerance, which is relative to C.
    """
    return cap - current, TOL["thermal"] * cap


def _pf_margin(s: np.ndarray, eta: float) -> tuple[np.ndarray, float]:
    """Margin of |P|/|S| of injections ``s`` over the floor ``eta``, and its tolerance."""
    pf = _power_factor(s)
    pf -= eta
    return pf, TOL["pf"]


def power_factors(network: Network, inj: InjectionProfile) -> np.ndarray:
    """|P|/|S| per bus; buses with |S| <= TOL["s_floor"] count as unity."""
    return _power_factor(inj.s)


# --- feasibility verifier ------------------------------------------------------

LIMITS = ("v_max", "v_min", "theta", "thermal", "pf")
# report order: per bus v_max then v_min, per branch theta then thermal, then pf per bus
_REPORT_GROUPS = (("v_max", "v_min"), ("theta", "thermal"), ("pf",))


class Verdict:
    """Margins and violations of voltage phasors ``v`` (shape ``(..., n)``) per limit.

    ``v_max``, ``v_min`` (slack exempt) and ``pf`` (generators, when
    ``c.eta`` is set) hold per bus, ``theta`` and ``thermal`` (limited
    branches) per branch.  A margin is the distance to the bound in the
    limit's unit (p.u. voltage, rad, p.u. current, |P|/|S|), negative outside
    it, +inf where the limit does not apply; a violation is a margin below
    minus the limit's ``TOL`` entry.  Limits are evaluated when first read.
    """

    def __init__(self, network: Network, c: ConstraintSet, v: np.ndarray, s: np.ndarray | None):
        self.network, self.c = network, c
        # element-major views, so per-element work and reductions run over whole batches at once
        self.v = np.moveaxis(np.asarray(v, dtype=complex), -1, 0)
        self.s = None if s is None else np.moveaxis(np.asarray(s), -1, 0)
        self._parts: dict[str, tuple] = {}

    def _part(self, limit: str) -> tuple:
        """(elements the limit applies to, margins there, violation tolerance there)."""
        if limit not in self._parts:
            self._parts[limit] = getattr(self, "_" + limit)()  # _v_max, _v_min, _theta, _thermal, _pf
        return self._parts[limit]

    def _full(self, limit: str, values: np.ndarray, fill) -> np.ndarray:
        size = self.network.branch_from.size if limit in ("theta", "thermal") else self.network.n
        out = np.full((size,) + self.v.shape[1:], fill)
        out[self._part(limit)[0]] = values
        return np.moveaxis(out, 0, -1)

    def margin(self, limit: str) -> np.ndarray:
        """Signed margin of every element against ``limit``."""
        return self._full(limit, self._part(limit)[1], np.inf)

    def violated(self, limit: str) -> np.ndarray:
        """True where an element violates ``limit``."""
        _, m, tol = self._part(limit)
        return self._full(limit, m < -tol, False)

    def ok(self, *limits: str) -> np.ndarray:
        """True where no element violates any of ``limits`` (all by default)."""
        bad = np.zeros(self.v.shape[1:], dtype=bool)
        for limit in limits or LIMITS:
            _, m, tol = self._part(limit)
            bad |= (m < -tol).any(axis=0)
        return ~bad

    def failures(self) -> list[tuple[str, int]]:
        """(limit, element) pairs violated at a single state, in report order."""
        return _in_order(self.violated)

    def binding(self) -> tuple[tuple[str, int], ...]:
        """(limit, element) pairs within ``TOL["binding"]`` of their bound, in report order."""
        return tuple(_in_order(lambda k: self.margin(k) < TOL["binding"]))

    def _v_max(self):
        free = self.network.free
        return free, self.c.v_max - np.abs(self.v[free]), TOL["box"]

    def _v_min(self):
        free = self.network.free
        return free, np.abs(self.v[free]) - self.c.v_min, TOL["box"]

    def _theta(self):
        net = self.network
        dth = np.angle(self.v[net.branch_from] * np.conj(self.v[net.branch_to]))
        return np.arange(net.branch_from.size), self.c.theta_max - np.abs(dth), TOL["theta"]

    def _thermal(self):
        net = self.network
        idx = np.flatnonzero(np.isfinite(net.branch_limit))
        per_branch = (-1,) + (1,) * (self.v.ndim - 1)  # broadcast over the batch axes
        y, cap = net.branch_y[idx].reshape(per_branch), net.branch_limit[idx].reshape(per_branch)
        diff = self.v[net.branch_from[idx]] - self.v[net.branch_to[idx]]
        diff *= y
        return (idx, *_thermal_margin(cap, np.abs(diff)))

    def _pf(self):
        if self.c.eta is None:
            return np.array([], dtype=int), np.empty((0,) + self.v.shape[1:]), TOL["pf"]
        gen, s = self.network.gens, self.s
        if s is None:  # element-major, like self.v
            s = np.moveaxis(bus_injections(self.network, np.moveaxis(self.v, 0, -1)), -1, 0)
        return (gen, *_pf_margin(s[gen], self.c.eta))


def _in_order(mask_of) -> list[tuple[str, int]]:
    out = []
    for group in _REPORT_GROUPS:
        hits = np.argwhere(np.stack([mask_of(k) for k in group], axis=-1)).tolist()
        out.extend((group[j], elem) for elem, j in hits)
    return out


def verify(network: Network, c: ConstraintSet, v: np.ndarray, s: np.ndarray | None = None) -> Verdict:
    """Check phasors ``v`` and their injections ``s`` (summed per branch if omitted) against every limit."""
    return Verdict(network, c, v, s)


def _check_conductance_signs(network: Network) -> None:
    # the pattern argument needs -G_ik >= 0 on every branch
    bad = np.flatnonzero(network.branch_y.real < -1e-12)
    if bad.size:
        raise ValueError(
            f"branch {network.branch_from[bad[0]]}-{network.branch_to[bad[0]]} has negative series conductance; "
            "the pattern construction does not apply"
        )


def finalize_solution(network: Network, c: ConstraintSet, state: VoltageState, stage: str) -> HCSolution:
    inj = evaluate_injections(network, state)
    return HCSolution(
        state=state,
        injections=inj,
        hc_total=float(network.lam @ inj.p),
        binding=verify(network, c, state.phasors, inj.s).binding(),
        stage=stage,
    )


def _pattern_stage(network: Network, c: ConstraintSet) -> HCSolution:
    """Optimal magnitude/angle pattern under ``c``.

    Angles alternate 0 / min(pi, theta_max) by depth parity, shifted so the
    root (slack) sits at zero.  Non-root magnitudes alternate v_max (odd
    depth) / v_min (even depth), or sit at v_max everywhere once theta_max
    exceeds the critical angle.
    """
    _check_conductance_signs(network)
    _, depths, _ = bfs_tree(network)
    theta = min(math.pi, c.theta_max)
    all_high = c.theta_max > critical_angle(c.v_max, c.v_min)
    root = network.slack_index
    par = depths % 2
    if all_high:
        mags = np.full(network.n, c.v_max, dtype=float)
    else:
        mags = np.where(par == 1, c.v_max, c.v_min).astype(float)
    mags[root] = network.slack_vm
    angles = theta * par.astype(float)
    angles = angles - angles[root]
    stage = "voltage_pattern" if c.theta_max == 0 else "angle_pattern"
    return finalize_solution(network, c, VoltageState(magnitudes=mags, angles=angles), stage=stage)


def solve_voltage_only(network: Network, c: ConstraintSet) -> HCSolution:
    """Stage-1 pattern: magnitude box only, real voltages (zero angles)."""
    return _pattern_stage(network, replace(c, theta_max=0.0))


def solve_with_angle(network: Network, c: ConstraintSet) -> HCSolution:
    """Stage-2 pattern: every branch angle difference at +-min(pi, theta_max).

    Above the critical angle all buses sit at v_max; below it the high-low
    magnitude pattern of stage 1 remains.  theta_max == 0 reduces exactly to
    :func:`solve_voltage_only`.
    """
    return _pattern_stage(network, c)


# --- thermal correction ------------------------------------------------------


def _curve_candidates(a: float, cos_t: float, kappa2: float, c: ConstraintSet) -> list[float]:
    """Values of b in the box with a^2 + b^2 - 2ab cos_t <= kappa2.

    Returns the exact curve roots that fall inside [v_min, v_max] (branch
    term at its cap), plus any box endpoint strictly inside the feasible
    interval as a fallback when neither root is admissible.
    """
    disc = kappa2 - a * a * (1.0 - cos_t * cos_t)
    cands: list[float] = []
    if disc >= 0:
        root = math.sqrt(disc)
        for b in (a * cos_t - root, a * cos_t + root):
            if c.v_min - 1e-12 <= b <= c.v_max + 1e-12:
                cands.append(min(max(b, c.v_min), c.v_max))
    if not cands:
        for b in (c.v_min, c.v_max):
            if a * a + b * b - 2 * a * b * cos_t <= kappa2 * (1 + 1e-12):
                cands.append(b)
    return cands


def _branch_term(a: float, b: float, cos_t: float) -> float:
    return a * a + b * b - 2 * a * b * cos_t


def adjust_thermal(network: Network, c: ConstraintSet, sol: HCSolution) -> HCSolution:
    """Clamp branches whose current exceeds their thermal limit.

    A violating branch has its endpoint magnitudes moved onto the constant-
    current curve a^2 + b^2 - 2ab cos(theta) = C^2/(G^2 + B^2) (angles keep
    the stage-2 pattern).  Branches are processed root-outward and the
    shallower endpoint is held at its current value while the deeper one is
    solved from the quadratic, so every change propagates strictly away
    from the root and a single sweep settles the tree.  (Holding the v_max
    side instead, regardless of depth, can sacrifice an upstream branch
    term that the depth rule preserves; a leaf clamp in particular should
    always move the leaf.)  Among in-box candidates the largest branch term
    wins, then the largest total objective (to 1e-9), then the smaller moved
    magnitude; a lone candidate is taken without scoring.  When no candidate
    exists for the held value, a scan over the held side (unless it is the
    slack) finds a feasible pair.
    Changes stay local to the branch endpoints; all limited branches are
    re-checked until clean.  Each pass checks every limited branch in one
    array expression, and a branch recomputes its current on its own only
    after a clamp earlier in the pass moved one of its ends, so the points
    are bit for bit those of checking every branch on its own.  A bus the
    clamp does not move keeps its input float bit for bit.
    """
    limited = np.flatnonzero(np.isfinite(network.branch_limit))
    if not limited.size:
        return sol
    slack = network.slack_index
    _, depths, _ = bfs_tree(network)
    frm, to = network.branch_from, network.branch_to
    # root-outward processing: the deeper endpoint is the one that moves
    limited = limited[np.argsort(np.maximum(depths[frm[limited]], depths[to[limited]]), kind="stable")]
    frm, to, y, cap = frm[limited], to[limited], network.branch_y[limited], network.branch_limit[limited]
    yabs = np.hypot(y.real, y.imag)  # rounds as abs() of one complex does; np.abs of an array may not
    over = cap * (1 + TOL["thermal"])
    mags = np.array(sol.state.magnitudes, dtype=float)
    angles = np.array(sol.state.angles, dtype=float)
    phase = np.exp(1j * angles)  # the angles never move in this stage
    lam = network.lam

    def score(pair: tuple[float, float], hold: int, move: int, cos_t: float) -> tuple:
        # rounded, so that the two roots at a leaf, which tie exactly, are not split by round-off
        trial = mags.copy()
        trial[[hold, move]] = pair
        obj = float(lam @ bus_injections(network, trial * phase).real)
        return (round(_branch_term(*pair, cos_t), 12), round(obj, 9), -pair[1])

    def clamp_pairs(hold_vals: list[float], cos_t: float, kappa2: float):
        # (a, b) pairs with the branch term capped at kappa2, a taken from hold_vals
        return [(a, b) for a in hold_vals for b in _curve_candidates(a, cos_t, kappa2, c)]

    max_passes = max(16, 2 * network.n)
    branches = list(zip(frm.tolist(), to.tolist(), yabs.tolist(), cap.tolist(), over.tolist()))
    for _pass in range(max_passes + 1):
        v = mags * phase
        v = v[frm] - v[to]
        flagged = ~(yabs * np.hypot(v.real, v.imag) <= over)
        if not flagged.any():
            break
        if _pass == max_passes:
            raise AdjustmentError(
                f"thermal correction did not settle after {max_passes} passes"
            )
        moved: set[int] = set()  # buses a clamp in this pass has written
        for (i, k, yk, ck, limit), hot in zip(branches, flagged.tolist()):
            if i in moved or k in moved:
                hot = not yk * abs(mags[i] * phase[i] - mags[k] * phase[k]) <= limit
            if not hot:
                continue
            hold, move = (i, k) if depths[i] < depths[k] else (k, i)
            kappa2 = (ck / yk) ** 2
            cos_t = math.cos(angles[i] - angles[k])

            options = clamp_pairs([float(mags[hold])], cos_t, kappa2)
            if not options and hold != slack:
                # last resort: let the held side scan the box too
                grid = [float(a) for a in np.linspace(c.v_min, c.v_max, 201)]
                options = clamp_pairs(grid, cos_t, kappa2)
            if not options:
                raise InfeasibleError(
                    f"thermal limit {ck} on branch {i}-{k} admits no voltage "
                    "pair inside the magnitude box"
                )
            # a lone candidate is taken unscored; max keeps the first of equal keys
            mags[[hold, move]] = options[0] if len(options) == 1 else max(
                options, key=lambda pair: score(pair, hold, move, cos_t)
            )
            moved.update((hold, move))
    if _pass == 0:  # nothing was clamped
        return sol
    state = VoltageState(magnitudes=mags, angles=angles)
    return finalize_solution(network, c, state, stage="thermal_adjusted")


# --- power-factor correction -------------------------------------------------


def adjust_power_factor(network: Network, c: ConstraintSet, sol: HCSolution) -> HCSolution:
    """Clamp generator reactive power to the pf band and re-solve voltages.

    Violating generator buses are converted to fixed-(P, Q) with P at its
    pattern value and Q on the nearest band edge, which puts their power
    factor exactly at eta.  The remaining buses hold their pattern voltages
    while a damped Newton iteration (damping 0.5, step tolerance 1e-9 so
    the residual stays well inside the pf tolerance, at most 100
    iterations) re-solves the converted buses.  Generators pushed into
    violation by the re-solve are converted in later rounds.  The re-solve
    normally moves magnitudes inward; driving one outside the box is
    reported as infeasible.
    """
    if c.eta is None:
        return sol
    gens = network.gens.tolist()

    def violations(inj: InjectionProfile, exclude: dict) -> list[int]:
        return [
            i for i in gens
            if i not in exclude and abs(inj.q[i]) > pf_q_bounds(inj.p[i], c.eta)[1] + 1e-9
        ]

    converted: dict[int, tuple[float, float]] = {}
    state = sol.state
    inj = sol.injections
    # each round converts at least one generator, so the rounds end
    while newly := violations(inj, converted):
        for i in newly:
            p_target = float(inj.p[i])
            q_edge = math.copysign(pf_q_bounds(p_target, c.eta)[1], inj.q[i])
            converted[i] = (p_target, q_edge)
        setpoints = []
        for b in range(network.n):
            if b in converted:
                p_t, q_t = converted[b]
                setpoints.append(BusSetpoint(kind=BusKind.LOAD, p=p_t, q=q_t))
            else:
                setpoints.append(
                    BusSetpoint(
                        kind=BusKind.SLACK,
                        vm=float(state.magnitudes[b]),
                        va=float(state.angles[b]),
                    )
                )
        try:
            # damping 0.5 for robustness; the step tolerance must sit well
            # below the pf acceptance tolerance TOL["pf"], hence 1e-9
            state = solve_newton(
                network,
                setpoints,
                tol=1e-11,
                max_iter=100,
                x0=state,
                damping=0.5,
                step_tol=1e-9,
            )
        except PowerFlowError as exc:
            raise AdjustmentError(f"power-factor re-solve failed: {exc}") from exc
        inj = evaluate_injections(network, state)
    if not converted:
        return sol

    verdict = verify(network, c, state.phasors, inj.s)
    bad = np.flatnonzero(verdict.violated("v_max") | verdict.violated("v_min")).tolist()
    if bad:
        raise InfeasibleError(
            f"power-factor clamping drives buses {bad} outside the magnitude box"
        )
    bad_pf = np.flatnonzero(verdict.violated("pf")).tolist()
    if bad_pf:
        raise AdjustmentError(f"power factor still below eta at buses {bad_pf}")
    return finalize_solution(network, c, state, stage="pf_adjusted")


# --- full pipeline -----------------------------------------------------------


def solve_hc_stages(network: Network, c: ConstraintSet) -> list[HCSolution]:
    """Run the constructive pipeline, returning each produced stage.

    Pattern stage, then thermal and power-factor corrections; the two
    corrections are repeated (bounded) until both limit families hold at
    once, since the power-factor re-solve can disturb a clamped current.
    A correction writes back every bus it leaves alone with its own float
    (Newton updates only the buses it converts), so the partitioned solve
    tells from the stages alone whether a cut bus left its pattern value.
    """
    sol = _pattern_stage(network, c)
    stages = [sol]
    for _ in range(8):
        t = adjust_thermal(network, c, sol)
        if t is not sol:
            stages.append(t)
        p = adjust_power_factor(network, c, t)
        if p is not t:
            stages.append(p)
        sol = p
        # theta is not re-checked: the pf re-solve moves the angles of converted buses
        if verify(network, c, sol.state.phasors, sol.injections.s).ok("thermal", "pf"):
            return stages
    raise AdjustmentError("thermal and power-factor corrections did not jointly settle")


def solve_hc(network: Network, c: ConstraintSet) -> HCSolution:
    """Hosting capacity under the full constraint set: the pipeline's last stage.

    The pattern stages are the paper's proven optimum of the box/angle
    problem.  After a thermal or power-factor correction the point is
    constructive and verified, but not proven optimal.
    """
    return solve_hc_stages(network, c)[-1]
