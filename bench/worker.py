"""One workload process: a set-up probe, or the timed measurement.

    python3 bench/worker.py probe MANIFEST
    python3 bench/worker.py measure MANIFEST --seconds S --trace 0|1

``probe`` times ``import hostcap`` plus the first op of the warm-up block,
cold, in this fresh interpreter.  ``measure`` warms up on the warm-up
block, times whole blocks of the manifest, checks every op's output
outside the timed interval, and with ``--trace 1`` repeats the same blocks
with the tracer installed.  Both print one JSON object as their last
stdout line.  hostcap is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import workloads  # noqa: E402  (stdlib only, like this module)

WARMUP_S = 2.0


def _import_hostcap():
    import hostcap
    import hostcap.cli  # noqa: F401  (the modules the ops call into)

    if Path(hostcap.__file__).resolve().parent != ROOT / "src" / "hostcap":
        raise SystemExit(f"hostcap imported from {hostcap.__file__}, not from {ROOT / 'src'}")
    return hostcap


def run_op(hostcap, case: dict):
    """One feeder study.  Returns (exit code, output); raises what hostcap raises."""
    if case["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hostcap.cli.main(case["argv"])
        return code, out.getvalue()
    # module attributes are looked up at call time, so the tracer's shims apply
    net = hostcap.netmodel.parse_case(Path(case["path"]).read_text())
    c = hostcap.hccore.ConstraintSet(**case["constraints"])
    g = hostcap.oracle.GridSpec(**case["grid"])
    # the grid first, so that an op whose solver raises still pays for its certificate
    grid = hostcap.oracle.grid_search_hc(net, c, g)
    eps = hostcap.oracle.grid_error_bound(net, c, g)
    sol = hostcap.hccore.solve_hc(net, c)
    return 0, (sol, grid, eps)


def probe(manifest: dict) -> dict:
    t0 = time.perf_counter()
    hostcap = _import_hostcap()
    run_op(hostcap, manifest["warmup"][0])
    return {"setup_s": time.perf_counter() - t0}


def grid_points(case: dict) -> int:
    if case["kind"] != "oracle":
        return 0
    c, g = case["constraints"], case["grid"]
    mags = 1 if c["v_min"] == c["v_max"] else g["magnitude_steps"]
    angles = 1 if c["theta_max"] == 0 else g["angle_steps"]
    free = case["n"] - 1
    return mags**free * angles**free


class Runner:
    """Times ops one by one and checks each output right after its op."""

    def __init__(self, hostcap, manifest: dict):
        import checker

        self.hostcap = hostcap
        self.checker = checker
        self.blocks = manifest["blocks"]
        self.warmup = manifest["warmup"]
        self.parsed = {case["id"]: checker.read_case(Path(case["path"]).read_text())
                       for block in self.blocks for case in block}

    def timed(self, case: dict):
        t0 = time.perf_counter()
        try:
            code, out = run_op(self.hostcap, case)
        except Exception as exc:  # a crashed op is a failed op; the run goes on
            code, out = None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, code, out

    def verdict(self, case: dict, code, out) -> tuple:
        """(problems, inconsistent, hc_total) of one op's output."""
        parsed, c = self.parsed[case["id"]], case["constraints"]
        if code is None:
            return [f"raised {out.split(':', 1)[0]}"], [], 0.0
        if case["kind"] == "oracle":
            sol, grid, eps = out
            return self.checker.check_cert(parsed, c, sol.state.magnitudes, sol.state.angles,
                                           sol.hc_total, grid.hc_total, eps)
        return self.checker.check_cli(parsed, c, code, out, case["three_phase"])

    def run_blocks(self, count: int, recorder=None) -> list[dict]:
        ops = []
        for b in range(count):
            for case in self.blocks[b % len(self.blocks)]:
                op_id = len(ops)
                if recorder is None:
                    elapsed, code, out = self.timed(case)
                else:
                    with recorder.tracer.op_span(op_id):
                        elapsed, code, out = self.timed(case)
                problems, inconsistent, hc = self.verdict(case, code, out)
                ops.append({
                    "id": op_id,
                    "case": case["id"],
                    "n": case["n"],
                    "cut": case["cut"],
                    "seconds": elapsed,
                    "code": code,
                    "problems": problems,
                    "inconsistent": inconsistent,
                    "hc": hc,
                    "report_bytes": len(out) if isinstance(out, str) and code is not None else 0,
                    "grid_points": grid_points(case),
                })
        return ops

    def warm_up(self) -> None:
        """Cycle through the warm-up block's cases until WARMUP_S has passed."""
        start = time.perf_counter()
        for case in itertools.cycle(self.warmup):
            self.timed(case)
            if time.perf_counter() - start >= WARMUP_S:
                return


def summarize(ops: list[dict], wall_s: float, blocks: int) -> dict:
    lat = sorted(op["seconds"] * 1e3 for op in ops)
    beyond = min(10, len(lat) - 1)
    failed = [op for op in ops if op["problems"]]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "blocks": blocks,
        "wall_s": wall_s,
        "case_p50_ms": statistics.median(lat),
        "case_tail_ms": lat[len(lat) - 1 - beyond],
        "tail_percentile": 100.0 * (len(lat) - beyond) / len(lat),
        "tail_beyond": beyond,
        "buses_per_s": sum(op["n"] for op in ops) / sum(op["seconds"] for op in ops),
        "fail_frac": len(failed) / len(ops),
        "hc_sum_pu": sum(op["hc"] for op in ops if not op["problems"]) / blocks,
        "fail_reasons": dict(sorted(Counter(p for op in failed for p in op["problems"]).items())),
        "inconsistent": dict(sorted(Counter(p for op in ops for p in op["inconsistent"]).items())),
    }


def timed_phase(runner: Runner, blocks: int, recorder=None):
    t0 = time.perf_counter()
    ops = runner.run_blocks(blocks, recorder)
    return ops, summarize(ops, time.perf_counter() - t0, blocks)


def blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """OpenBLAS's own thread count, read through ctypes from the loaded library."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure(manifest: dict, seconds: float, trace: bool) -> dict:
    hostcap = _import_hostcap()
    runner = Runner(hostcap, manifest)
    runner.warm_up()
    phase_s = seconds / 2 if trace else seconds
    blocks = workloads.blocks_for(manifest["workload"], phase_s, len(runner.warmup))
    _, plain = timed_phase(runner, blocks)
    result = {"plain": plain, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        from layers import LayerRecorder

        recorder = LayerRecorder()
        with recorder.tracer.installed():
            traced_ops, traced = timed_phase(runner, blocks, recorder)
        layers = recorder.metrics(traced_ops)
        layers["trace.overhead_ms"] = traced["case_p50_ms"] - plain["case_p50_ms"]
        result["traced"] = traced
        result["layers"] = layers
    result["machine"] = blas_info()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["probe", "measure"])
    ap.add_argument("manifest")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())
    if args.mode == "probe":
        out = probe(manifest)
    else:
        out = measure(manifest, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
