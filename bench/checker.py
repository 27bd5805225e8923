"""Independent output checker for the benchmark.

It reads the case files itself and recomputes every quantity it judges
from the reported voltages, branch by branch (S = V conj(Y V) with the
bus currents summed over branch currents).  It imports nothing from
hostcap, so a defect in the library's own feasibility code cannot hide
one in its results.

A checked op ends in one of two ways:

* ``problems`` lists why the op does not count as a verified feasible
  answer: a non-zero exit, a violated limit, a per-phase box violation, a
  certificate disagreement.  Any problem makes the op *failed*.
* ``inconsistent`` lists ways in which a report contradicts itself: an
  ``hc_total`` that is not the objective at the reported point, injections
  that are not those of the reported voltages, a per-phase violation list
  that does not match the reported phase magnitudes.  Any of these makes
  the run's ``correct`` false.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# The checker's own tolerance table.
TOL = {
    "box_atol": 1e-8,         # p.u. beyond [v_min, v_max]
    "slack_atol": 1e-9,       # slack magnitude/angle off its setpoint (1, 0)
    "angle_atol": 1e-9,       # rad beyond theta_max on a branch
    "thermal_rtol": 1e-8,     # |I| / C above 1
    "pf_atol": 1e-6,          # power factor below eta
    "s_floor": 1e-9,          # |S| below which a bus injects nothing
    "hc_rtol": 1e-8,          # reported vs recomputed objective, relative
    "hc_atol": 1e-10,
    "injection_atol": 1e-8,   # reported vs recomputed P and Q, per bus
    "report_band": 1e-6,      # per-phase list vs magnitudes: ignore this close to the edge
    "cert_atol": 1e-12,       # |HC_solver - HC_grid| <= eps + this
}

SLACK_VM = 1.0


@dataclass(frozen=True, eq=False)
class Case:
    n: int
    slack: int
    lam: np.ndarray
    gen: np.ndarray           # bool per bus
    frm: np.ndarray
    to: np.ndarray
    y: np.ndarray             # positive-sequence series admittance per branch
    limit: np.ndarray         # NaN where unlimited


def read_case(text: str) -> Case:
    """Parse BUS/BRANCH or BUS3/BRANCH3 records (other records ignored)."""
    kinds: dict[int, str] = {}
    lam: dict[int, float] = {}
    frm, to, y, limit = [], [], [], []
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        rec = tok[0].upper()
        if rec in ("BUS", "BUS3"):
            kinds[int(tok[1])] = tok[2].lower()
            lam[int(tok[1])] = float(tok[-1])
        elif rec == "BRANCH":
            frm.append(int(tok[1]))
            to.append(int(tok[2]))
            y.append(1.0 / complex(float(tok[3]), float(tok[4])))
            limit.append(float(tok[5]) if len(tok) == 6 else math.nan)
        elif rec == "BRANCH3":
            vals = [float(t) for t in tok[3:21]]
            z = np.array([complex(vals[2 * j], vals[2 * j + 1]) for j in range(9)]).reshape(3, 3)
            # transposed line: positive-sequence impedance is self minus mutual
            frm.append(int(tok[1]))
            to.append(int(tok[2]))
            y.append(1.0 / (z[0, 0] - z[0, 1]))
            limit.append(float(tok[21]) if len(tok) == 22 else math.nan)
    n = len(kinds)
    return Case(
        n=n,
        slack=next(i for i, k in kinds.items() if k == "slack"),
        lam=np.array([lam[i] for i in range(n)]),
        gen=np.array([kinds[i] == "gen" for i in range(n)]),
        frm=np.array(frm, dtype=int),
        to=np.array(to, dtype=int),
        y=np.array(y, dtype=complex),
        limit=np.array(limit, dtype=float),
    )


def injections(case: Case, v: np.ndarray) -> np.ndarray:
    """Complex injection per bus: V_i conj(sum of branch currents leaving i)."""
    i_br = case.y * (v[case.frm] - v[case.to])
    i_bus = np.zeros(case.n, dtype=complex)
    np.add.at(i_bus, case.frm, i_br)
    np.add.at(i_bus, case.to, -i_br)
    return v * np.conj(i_bus)


def check_point(case: Case, c: dict, mags, angles) -> tuple[list[str], np.ndarray]:
    """Limit violations at a voltage point, and its recomputed injections."""
    m = np.asarray(mags, dtype=float)
    a = np.asarray(angles, dtype=float)
    v = m * np.exp(1j * a)
    s = injections(case, v)
    problems = []
    free = np.arange(case.n) != case.slack
    if abs(m[case.slack] - SLACK_VM) > TOL["slack_atol"] or abs(a[case.slack]) > TOL["slack_atol"]:
        problems.append("slack moved off its setpoint")
    if np.any(free & ((m > c["v_max"] + TOL["box_atol"]) | (m < c["v_min"] - TOL["box_atol"]))):
        problems.append("magnitude outside the box")
    dth = np.abs(a[case.frm] - a[case.to])
    if np.any(dth > c["theta_max"] + TOL["angle_atol"]):
        problems.append("branch angle above theta_max")
    limited = ~np.isnan(case.limit)
    cur = np.abs(case.y * (v[case.frm] - v[case.to]))
    if np.any(cur[limited] > case.limit[limited] * (1 + TOL["thermal_rtol"])):
        problems.append("thermal limit exceeded")
    if c.get("eta") is not None:
        mag_s = np.abs(s)
        live = case.gen & (mag_s > TOL["s_floor"])
        pf = np.abs(s.real[live]) / mag_s[live]
        if np.any(pf < c["eta"] - TOL["pf_atol"]):
            problems.append("power factor below eta")
    return problems, s


def _objective_mismatch(case: Case, s: np.ndarray, reported: float) -> bool:
    terms = case.lam * s.real
    return abs(float(terms.sum()) - reported) > TOL["hc_atol"] + TOL["hc_rtol"] * float(np.abs(terms).sum())


def check_cli(case: Case, c: dict, code: int, out: str, three_phase: bool) -> tuple[list[str], list[str], float]:
    """Judge one CLI report; returns (problems, inconsistent, hc_total)."""
    if code != 0:
        return [f"exit {code}"], [], 0.0
    try:
        report = json.loads(out)
        res = report["result"]
    except (ValueError, KeyError):
        return ["unreadable report"], ["exit 0 without a readable report"], 0.0
    problems, s = check_point(case, c, res["magnitudes"], res["angles"])
    inconsistent = []
    hc = float(res["hc_total"])
    if _objective_mismatch(case, s, hc):
        inconsistent.append("hc_total is not the objective at the reported point")
    if (np.max(np.abs(np.asarray(res["p"]) - s.real)) > TOL["injection_atol"]
            or np.max(np.abs(np.asarray(res["q"]) - s.imag)) > TOL["injection_atol"]):
        inconsistent.append("reported P/Q are not the injections of the reported voltages")
    if three_phase:
        unb = report["unbalanced"]
        hc = float(unb["hc_total"])
        if abs(hc - 3.0 * float(res["hc_total"])) > TOL["hc_atol"] + TOL["hc_rtol"] * abs(hc):
            inconsistent.append("three-phase hc_total is not 3x the positive-sequence HC")
        pm = np.asarray(unb["phase_magnitudes"], dtype=float)
        free = (np.arange(case.n) != case.slack)[:, None]
        over = np.maximum(pm - c["v_max"], c["v_min"] - pm)   # > 0 outside the box
        if np.any(free & (over > TOL["box_atol"])):
            problems.append("per-phase magnitude outside the box")
        listed = np.zeros(pm.shape, dtype=bool)
        for bus, ph in unb["phase_bound_violations"]:
            listed[bus, ph] = True
        band = TOL["report_band"]
        if np.any(listed & (over < -band)) or np.any(free & ~listed & (over > band)):
            inconsistent.append("phase_bound_violations disagrees with phase_magnitudes")
    return problems, inconsistent, hc


def check_cert(case: Case, c: dict, mags, angles, hc_solver: float, hc_grid: float,
               eps: float) -> tuple[list[str], list[str], float]:
    """Judge one certificate op: the solver's point and the grid agreement."""
    problems, s = check_point(case, c, mags, angles)
    inconsistent = []
    if _objective_mismatch(case, s, hc_solver):
        inconsistent.append("hc_total is not the objective at the reported point")
    if abs(hc_solver - hc_grid) > eps + TOL["cert_atol"]:
        problems.append("solver and grid disagree beyond the certificate bound")
    return problems, inconsistent, hc_solver
