"""Command-line front end.

Commands: solve | oracle | unbalanced | screen.  A report is one line of JSON
on stdout in report_schema.json's shape (``schema_version`` 3: a ``binding``
lists each limit kind's elements under its name), keys sorted so identical
inputs give identical bytes.  Diagnostics go to stderr.  Exit codes: 0 success,
1 input or usage error, 2 infeasibility.  Only --timings adds the timings,
which vary run to run.  Flags beat a LIMITS line in the case file, which beats
the defaults.  HOSTCAP_LOG=DEBUG (or INFO/WARNING) logs to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import __version__
from .hccore import (
    LIMITS,
    AdjustmentError,
    ConstraintSet,
    HCSolution,
    InfeasibleError,
    solve_hc_stages,
)
from .netmodel import CaseFormatError, TopologyError, parse_case
from .oracle import (
    GridCapError,
    GridSpec,
    grid_error_bound,
    grid_search_hc,
    incremental_screening,
    pv_curve_surface,
)
from .partition import make_partition, solve_distributed_hc
from .powerflow import PowerFlowError
from .sequence import DecouplingError, SequenceSingularError, parse_case3, solve_unbalanced_hc

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2

logger = logging.getLogger(__name__)


def _setup_logging() -> None:
    level = os.environ.get("HOSTCAP_LOG")
    if level:
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level.upper(), logging.WARNING),
            format="%(levelname)s %(name)s: %(message)s",
        )


def _read_case(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise CaseFormatError(f"case file not found: {path}")
    return p.read_text()


def _constraints(args, case_limits: dict[str, float] | None) -> ConstraintSet:
    flags = {"v_min": args.vmin, "v_max": args.vmax, "theta_max": args.theta_max, "eta": args.eta}
    chosen = {**(case_limits or {}), **{name: v for name, v in flags.items() if v is not None}}
    return dataclasses.replace(ConstraintSet(), **chosen)


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _binding_json(binding) -> dict[str, list[int]]:
    out = {kind: [] for kind in LIMITS}  # each kind's elements stay ascending, as ``binding`` lists them
    for kind, el in binding:
        out[kind].append(el)
    return out


def _solution_json(sol: HCSolution, binding: dict | None = None) -> dict:
    return {
        "hc_total": float(sol.hc_total),
        "stage": sol.stage,
        "magnitudes": sol.state.magnitudes.tolist(),
        "angles": sol.state.angles.tolist(),
        "p": sol.injections.p.tolist(),
        "q": sol.injections.q.tolist(),
        "binding": _binding_json(sol.binding) if binding is None else binding,
    }


def _base_report(command: str, path: str, text: str, c: ConstraintSet) -> dict:
    return {
        "schema_version": 3,
        "tool_version": __version__,
        "command": command,
        "input": {"path": path, "digest": _digest(text)},
        "constraints": {
            "v_min": c.v_min,
            "v_max": c.v_max,
            "theta_max": c.theta_max,
            "eta": c.eta,
        },
    }


def _write(out: str, args) -> None:
    if args.output:  # first, so that a path that cannot be written leaves stdout empty
        Path(args.output).write_text(out)
    sys.stdout.write(out)


def _emit(report: dict, args) -> None:
    _write(json.dumps(report, sort_keys=True) + "\n", args)  # no indent: keeps the C encoder


def cmd_solve(args) -> int:
    text = _read_case(args.case)
    net = parse_case(text)
    c = _constraints(args, net.case_limits)
    report = _base_report("solve", args.case, text, c)
    # before the solve, so an invalid cut exits as an input error without solving first
    part = make_partition(net, args.cut) if args.cut else None

    t0 = time.perf_counter()
    stages = solve_hc_stages(net, c)
    mono_ms = (time.perf_counter() - t0) * 1000.0
    report["stages"] = [
        {"stage": s.stage, "hc_total": float(s.hc_total), "binding": _binding_json(s.binding)}
        for s in stages
    ]
    final = stages[-1]
    timings = {"monolithic_ms": mono_ms}

    if part is not None:
        t1 = time.perf_counter()
        dist = solve_distributed_hc(stages, part)
        timings["distributed_ms"] = (time.perf_counter() - t1) * 1000.0
        report["partition"] = {
            "cuts": list(part.cut_buses),
            "subsystems": len(part.subsystems),
            "hc_monolithic": float(final.hc_total),
            "hc_distributed": float(dist.hc_total),
        }
        final = dist
    report["result"] = _solution_json(final, report["stages"][-1]["binding"])  # final.binding is stages[-1]'s
    if args.timings:
        report["timings"] = timings
    _emit(report, args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    text = _read_case(args.case)
    net = parse_case(text)
    c = _constraints(args, net.case_limits)
    g = GridSpec(magnitude_steps=args.grid_steps, angle_steps=args.angle_steps)
    report = _base_report("oracle", args.case, text, c)

    t0 = time.perf_counter()
    surface = pv_curve_surface(net, c, g)  # first: it refuses a case without two free buses
    oracle_sol = grid_search_hc(net, c, g)
    solver_sol = solve_hc_stages(net, c)[-1]
    eps = grid_error_bound(net, c, g)
    report["oracle"] = {
        "hc_oracle": float(oracle_sol.hc_total),
        "hc_solver": float(solver_sol.hc_total),
        "epsilon_grid": float(eps),
        "agreement": bool(abs(oracle_sol.hc_total - solver_sol.hc_total) <= eps),
        "magnitude_steps": g.magnitude_steps,
        "angle_steps": g.angle_steps,
    }
    report["result"] = _solution_json(oracle_sol)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "surface.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["v1_pu", "v2_pu", "sum_p_pu", "is_max"])
        for idx, row in enumerate(surface.rows):
            w.writerow(
                [repr(float(row[0])), repr(float(row[1])), repr(float(row[2])),
                 int(idx == surface.max_index)]
            )
    with open(outdir / "pairs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p1_pu", "p2_pu", "feasible", "is_max"])
        for idx, (p1, p2) in enumerate(surface.p_pairs.tolist()):
            w.writerow([repr(p1), repr(p2), int(bool(surface.feasible[idx])), int(idx == surface.max_index)])
    if args.timings:
        report["timings"] = {"oracle_ms": (time.perf_counter() - t0) * 1000.0}
    _emit(report, args)
    return EXIT_OK


def cmd_unbalanced(args) -> int:
    text = _read_case(args.case)
    net3 = parse_case3(text)
    c = _constraints(args, net3.case_limits)
    report = _base_report("unbalanced", args.case, text, c)
    sol = solve_unbalanced_hc(net3, c)
    report["unbalanced"] = {
        "method": sol.method,
        "coupling": float(sol.coupling),
        "hc_per_phase": float(sol.hc_per_phase),
        "hc_total": float(sol.hc_total),
        "phase_magnitudes": [[float(abs(v)) for v in row] for row in sol.v_abc],
        "phase_bound_violations": [[int(b), int(p)] for b, p in sol.phase_bound_violations],
    }
    report["result"] = _solution_json(sol.positive)
    _emit(report, args)
    return EXIT_OK


def cmd_screen(args) -> int:
    text = _read_case(args.case)
    net = parse_case(text)
    c = _constraints(args, net.case_limits)
    rows = incremental_screening(net, c, step=args.step)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["bus", "hc_pu", "steps", "status"])
        for r in rows:
            w.writerow([r.bus, repr(r.hc), r.steps, r.status])
        _write(buf.getvalue(), args)
        return EXIT_OK
    report = _base_report("screen", args.case, text, c)
    report["screening"] = [
        {"bus": r.bus, "hc": float(r.hc), "steps": r.steps, "status": r.status} for r in rows
    ]
    report["result"] = {"hc_total": float(max((r.hc for r in rows), default=0.0)), "stage": "screening"}
    _emit(report, args)
    return EXIT_OK


def _parse_cuts(value: str) -> list[int]:
    try:
        return [int(tok) for tok in value.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cut list: {value!r}") from None


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other input error; 2 means infeasible."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hostcap",
        description="Hosting-capacity analysis of radial feeders",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("case", help="case file path")
        p.add_argument("--vmin", type=float, default=None, help="lower magnitude bound, p.u.")
        p.add_argument("--vmax", type=float, default=None, help="upper magnitude bound, p.u.")
        p.add_argument("--theta-max", dest="theta_max", type=float, default=None,
                       help="branch angle-difference bound, rad")
        p.add_argument("--eta", type=float, default=None, help="generator power-factor floor")
        p.add_argument("--output", default=None, help="also write stdout to this file")

    p_solve = sub.add_parser("solve", help="constructive hosting-capacity solve")
    common(p_solve)
    p_solve.add_argument("--cut", type=_parse_cuts, default=None,
                         help="comma-separated cut buses for a partitioned solve")
    p_solve.add_argument("--workers", type=int, default=None, help="accepted; has no effect")
    p_solve.add_argument("--timings", action="store_true", help="include wall-time section")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="grid-search verification + figure data")
    common(p_oracle)
    p_oracle.add_argument("--grid-steps", dest="grid_steps", type=int, default=101,
                          help="magnitude steps per free bus")
    p_oracle.add_argument("--angle-steps", dest="angle_steps", type=int, default=11,
                          help="angle steps per branch (used when theta-max > 0)")
    p_oracle.add_argument("--outdir", default=".", help="directory for surface.csv / pairs.csv")
    p_oracle.add_argument("--timings", action="store_true", help="include wall-time section")
    p_oracle.set_defaults(func=cmd_oracle)

    p_unb = sub.add_parser("unbalanced", help="multi-phase solve via sequence components")
    common(p_unb)
    p_unb.set_defaults(func=cmd_unbalanced)

    p_screen = sub.add_parser("screen", help="per-bus incremental screening baseline")
    common(p_screen)
    p_screen.add_argument("--step", type=float, default=1e-3, help="injection increment, p.u.")
    p_screen.add_argument("--format", choices=["json", "csv"], default="json")
    p_screen.set_defaults(func=cmd_screen)

    return parser


_parser = functools.cache(build_parser)  # built once per process: it is read-only after build


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CaseFormatError, TopologyError, GridCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DecouplingError as exc:
        print(f"infeasible: {exc} (coupling={exc.coupling:.4f})", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InfeasibleError, AdjustmentError, PowerFlowError, SequenceSingularError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
