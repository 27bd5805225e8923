"""AC power flow: injection evaluation and Newton-Raphson solve.

Conventions.  Injections follow the standard polar equations

    P_i = sum_k |V_i||V_k| (G_ik cos(t_i - t_k) + B_ik sin(t_i - t_k))
    Q_i = sum_k |V_i||V_k| (G_ik sin(t_i - t_k) - B_ik cos(t_i - t_k))

Note the reactive equation uses the textbook ``G sin - B cos`` form; some
sources print a ``G cos - B sin`` variant for Q, which is not consistent with
S = V conj(YV) and is not used here.  :func:`bus_injections` sums S branch by
branch, and the Newton Jacobian evaluates its entries at the branches and
the diagonal only, from the same branch arrays; no dense Ybus is read.

:func:`solve_newton` solves for the PQ buses it is handed, each holding a
scheduled (P, Q), and holds every other bus at its start phasor.  Both
callers need no other bus type: the power-factor stage re-solves the
generators it converted while the rest keep their pattern voltages, and the
screening ramp schedules every non-slack bus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import Network

__all__ = [
    "VoltageState",
    "InjectionProfile",
    "PowerFlowError",
    "bus_injections",
    "evaluate_injections",
    "solve_newton",
]


class PowerFlowError(RuntimeError):
    """Newton solve failed (non-convergence or singular Jacobian)."""

    def __init__(self, message: str, mismatch: float | None = None):
        super().__init__(message)
        self.mismatch = mismatch


@dataclass(frozen=True, eq=False)
class VoltageState:
    """Per-bus complex voltage in polar form."""

    magnitudes: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.magnitudes, dtype=float)
        a = np.array(self.angles, dtype=float)
        if m.shape != a.shape or m.ndim != 1:
            raise ValueError("magnitudes and angles must be 1-D arrays of equal length")
        if not np.all(m > 0):
            raise ValueError("voltage magnitudes must be positive")
        m.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "magnitudes", m)
        object.__setattr__(self, "angles", a)

    @property
    def n(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def phasors(self) -> np.ndarray:
        return self.magnitudes * np.exp(1j * self.angles)


@dataclass(frozen=True, eq=False)
class InjectionProfile:
    """Net per-bus active/reactive power injections (generation positive)."""

    p: np.ndarray
    q: np.ndarray

    @property
    def s(self) -> np.ndarray:
        """Complex injections P + jQ."""
        return self.p + 1j * self.q


def bus_injections(network: Network, v: np.ndarray) -> np.ndarray:
    """Injections S = V conj(I) of phasors ``v`` of shape ``(..., n)``.

    The bus currents I = Y V are summed branch by branch, plus the shunts; no Ybus is built.
    """
    v = np.moveaxis(np.asarray(v, dtype=complex), -1, 0)  # bus-major: a branch gathers whole rows
    per_row = (-1,) + (1,) * (v.ndim - 1)  # broadcast over the batch axes
    i, k = network.branch_from, network.branch_to
    flow = v[i] - v[k]  # series currents, leaving bus i and entering bus k
    flow *= network.branch_y.reshape(per_row)
    cur = np.zeros_like(v) if network.shunts is None else v * np.reshape(network.shunts, per_row)
    np.add.at(cur, i, flow)
    np.subtract.at(cur, k, flow)
    return np.moveaxis(v * np.conj(cur), 0, -1)


def evaluate_injections(network: Network, state: VoltageState) -> InjectionProfile:
    """Evaluate net injections implied by a voltage state: S = V conj(Y V)."""
    if state.n != network.n:
        raise ValueError(f"state has {state.n} buses, network has {network.n}")
    s = bus_injections(network, state.phasors)
    return InjectionProfile(p=s.real, q=s.imag)


def _jacobian(network: Network, v: np.ndarray, s: np.ndarray, ang_idx: list[int], mag_idx: list[int]):
    """Reduced power-flow Jacobian at phasors ``v`` with injections ``s``.

    Rows are dP at ``ang_idx`` then dQ at ``mag_idx``; columns are the angles
    at ``ang_idx`` then the magnitudes at ``mag_idx``.  With E = V/|V| and
    I = conj(S/V):

        dS/dtheta = j diag(V) conj(diag(I) - Y diag(V))
        dS/d|V|   = diag(V) conj(Y diag(E)) + diag(conj(I) E)

    Y is nonzero only on its diagonal and at the branches, so only those
    entries are evaluated, from the branch arrays: O(n + branches) work
    plus the dense (u + m)^2 result for u angle and m magnitude unknowns.
    """
    n, i, k, ys = network.n, network.branch_from, network.branch_to, network.branch_y
    e, cur, buses = v / np.abs(v), np.conj(s / v), np.arange(n)
    # off-diagonal entry (r, c) of a branch in both directions: Y_rc = -y
    r, c, yb = np.concatenate([i, k]), np.concatenate([k, i]), np.concatenate([ys, ys])
    y_diag = _ybus_diagonal(network)
    rows, cols = np.concatenate([r, buses]), np.concatenate([c, buses])
    d_ang = np.concatenate([1j * v[r] * np.conj(yb * v[c]), 1j * v * np.conj(cur - y_diag * v)])
    d_mag = np.concatenate([-v[r] * np.conj(yb * e[c]), v * np.conj(y_diag * e) + np.conj(cur) * e])
    u, m = len(ang_idx), len(mag_idx)
    pa, pm = np.full(n, -1), np.full(n, -1)  # Jacobian row/column of each unknown, -1 where fixed
    pa[ang_idx], pm[mag_idx] = np.arange(u), np.arange(u, u + m)
    jr = np.concatenate([pa[rows], pa[rows], pm[rows], pm[rows]])
    jc = np.concatenate([pa[cols], pm[cols], pa[cols], pm[cols]])
    vals = np.concatenate([d_ang.real, d_mag.real, d_ang.imag, d_mag.imag])
    keep = (jr >= 0) & (jc >= 0)
    jac = np.zeros((u + m, u + m))
    np.add.at(jac, (jr[keep], jc[keep]), vals[keep])
    return jac


def _ybus_diagonal(network: Network) -> np.ndarray:
    """Diagonal of the Ybus from the branch arrays: incident series admittances plus shunts."""
    ends, ys = np.concatenate([network.branch_from, network.branch_to]), np.tile(network.branch_y, 2)
    diag = np.bincount(ends, ys.real, network.n) + 1j * np.bincount(ends, ys.imag, network.n)
    return diag if network.shunts is None else diag + np.asarray(network.shunts, dtype=complex)


def solve_newton(
    network: Network,
    x0: VoltageState,
    p: np.ndarray,
    q: np.ndarray,
    pq: list[int] | np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 50,
    damping: float = 1.0,
    step_tol: float = 0.0,
) -> VoltageState:
    """Newton-Raphson power flow for the PQ buses ``pq`` (ascending ids).

    Each bus in ``pq`` holds its scheduled injection ``p[i] + j q[i]``, and
    its angle and magnitude are the unknowns; every other bus holds its
    ``x0`` phasor.  ``p``, ``q`` and ``x0`` have one entry per bus.
    Converges when the active/reactive mismatch infinity-norm drops to
    ``tol``; with ``step_tol`` > 0 the damped iteration also stops once the
    voltage update is smaller than ``step_tol``.
    """
    n = network.n
    if not len(p) == len(q) == x0.n == n:
        raise ValueError(f"p, q and x0 must have one entry per bus ({n})")
    vm = np.array(x0.magnitudes, dtype=float)
    va = np.array(x0.angles, dtype=float)

    mismatch = np.inf
    for it in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        s = bus_injections(network, v)
        rhs = np.concatenate([p[pq] - s.real[pq], q[pq] - s.imag[pq]])
        mismatch = float(np.max(np.abs(rhs))) if rhs.size else 0.0
        if mismatch <= tol:
            return VoltageState(magnitudes=vm, angles=va)
        if it == max_iter:
            break
        try:
            step = np.linalg.solve(_jacobian(network, v, s, pq, pq), rhs)
        except np.linalg.LinAlgError:
            raise PowerFlowError("singular Jacobian", mismatch=mismatch) from None
        step = damping * step
        va[pq] += step[: len(pq)]
        vm[pq] += step[len(pq):]
        if np.any(vm <= 0):
            raise PowerFlowError("voltage magnitude collapsed below zero", mismatch=mismatch)
        if step_tol > 0 and (step.size == 0 or float(np.max(np.abs(step))) < step_tol):
            return VoltageState(magnitudes=vm, angles=va)
    raise PowerFlowError(
        f"no convergence in {max_iter} iterations (final mismatch {mismatch:.3e})",
        mismatch=mismatch,
    )
