"""hostcap benchmark: seeded feeder studies, timed end to end, checked.

    python3 bench/run.py --workload radial_thermal --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout.  Each workload runs in processes of its
own: ten fresh set-up probes, five before and five after the measuring
process (``setup_s`` is their median), and one measuring process (every
other metric; ``peak_rss_mb`` is its peak).  The case files are
generated from ``--seed`` under ``.bench_work/`` before any timing
starts.  With ``--trace 1`` the measuring process also times the blocks
with spans around every call into hostcap's modules and reports the
per-layer metrics instead of the end-to-end ones.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts ops that did not yield a
verified feasible answer; ``correct`` is false only when a report
contradicts itself (see ``checker.py``).  A run writes its full record,
machine facts included, to ``.bench_work/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

PROBES = 10  # half before the measuring process, half after, so they span the run
RUN_DEADLINE_S = 170  # every process of one workload run ends within this

# (name, unit): gated by BENCHMARK.json's end_to_end
END_TO_END = (
    ("setup_s", "s"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("buses_per_s", "buses/s"),
    ("peak_rss_mb", "MB"),
)
# printed with the others, not gated: each reads 0 on some workload at commit eb446ae
REPORTED = (
    ("fail_frac", "ratio"),
    ("hc_sum_pu", "p.u."),
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((line.split()[1] for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "0")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_gb": round(int(mem) / 2**20, 2),
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def _worker(args: list[str], deadline: float) -> dict:
    # subprocess.run kills and reaps the worker when the deadline passes
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        manifest = build(workload, seed, workdir, ROOT)
        manifest_path = workdir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        probes = [_worker(["probe", str(manifest_path)], deadline) for _ in range(PROBES // 2)]
        measured = _worker(["measure", str(manifest_path), "--seconds", str(seconds),
                            "--trace", str(int(trace))], deadline)
        probes += [_worker(["probe", str(manifest_path)], deadline) for _ in range(PROBES - PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = measured["plain"]
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "case_p50_ms": plain["case_p50_ms"],
        "case_tail_ms": plain["case_tail_ms"],
        "buses_per_s": plain["buses_per_s"],
        "peak_rss_mb": measured["peak_rss_mb"],
        "fail_frac": plain["fail_frac"],
        "hc_sum_pu": plain["hc_sum_pu"],
    }
    phases = [plain] + ([measured["traced"]] if trace else [])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cases_per_block": len(manifest["warmup"]),
        "end_to_end": e2e,
        "plain": plain,
        "traced": measured.get("traced"),
        "layers": measured.get("layers"),
        "setup_probes": [p["setup_s"] for p in probes],
        "machine": {**machine_facts(), **measured["machine"]},
        "correct": not any(phase["inconsistent"] for phase in phases),
        "attempted": sum(phase["attempted"] for phase in phases),
        "failed": sum(phase["failed"] for phase in phases),
    }
    runs = ROOT / ".bench_work" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def print_report(rec: dict) -> None:
    plain, e2e = rec["plain"], rec["end_to_end"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  {plain['attempted']} ops "
          f"({plain['blocks']} blocks x {rec['cases_per_block']} cases) in {plain['wall_s']:.2f} s")
    notes = {
        "setup_s": f"median of {len(rec['setup_probes'])} fresh processes",
        "case_tail_ms": f"p{plain['tail_percentile']:.1f}, {plain['tail_beyond']} of "
                        f"{plain['attempted']} samples beyond",
        "fail_frac": f"{plain['failed']} of {plain['attempted']} ops",
        "hc_sum_pu": "per block, verified ops only",
    }
    for name, unit in END_TO_END + REPORTED:
        print(f"  {name:<14} {e2e[name]:>14.6g} {unit:<8} {notes.get(name, '')}")
    for label, tally in (("failures", plain["fail_reasons"]), ("inconsistent", plain["inconsistent"])):
        for reason, count in tally.items():
            print(f"  {label}: {count} x {reason}")
    if rec["layers"]:
        traced = rec["traced"]
        print(f"  traced phase: {traced['attempted']} ops, case_p50_ms {traced['case_p50_ms']:.6g} "
              f"(untraced {plain['case_p50_ms']:.6g})")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<34} {rec['layers'][name]:>14.6g} {unit}")
    print("  machine: " + json.dumps(rec["machine"], sort_keys=True))


def result_line(rec: dict) -> dict:
    if rec["trace"]:
        metrics = {name: {"value": rec["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": rec["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hostcap benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/hostcap/__init__.py", "fixtures") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a hostcap checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        t0 = time.perf_counter()
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_report(rec)
        print(f"  run took {time.perf_counter() - t0:.1f} s")
        lines[name] = result_line(rec)
    sys.stdout.flush()
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
