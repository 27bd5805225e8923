"""The benchmark's contract with the library.

``bench/`` patches library functions by module attribute and judges results
with a checker of its own.  These tests keep both ends in step: every shim
target must exist, the library's verifier must agree with the checker, two
independent implementations of the same limits, and one op of each gated
workload must run through the harness to a report that agrees with itself.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hostcap.hccore import LIMITS, ConstraintSet, verify
from hostcap.netmodel import build_ybus, parse_case

from conftest import FIXTURE_DIR

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checker  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import SHIMS  # noqa: E402

BOUNDS = {"v_min": 0.95, "v_max": 1.05, "theta_max": 0.02, "eta": 0.9}
# checker problem -> the verifier limits of the same family
FAMILIES = {
    "magnitude outside the box": ("v_max", "v_min"),
    "branch angle above theta_max": ("theta",),
    "thermal limit exceeded": ("thermal",),
    "power factor below eta": ("pf",),
}
CLEARANCE = 1e-6  # every drawn state keeps this far from every limit


def test_every_shim_target_is_callable():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in SHIMS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/tracer.py shims name missing functions: {missing}"


def clear_of_limits(net, verdict, s) -> bool:
    """No margin within CLEARANCE of its bound (thermal: relative to C), no |S| near the pf floor."""
    scale = {"thermal": np.where(np.isfinite(net.branch_limit), net.branch_limit, 1.0)}
    near = [np.abs(verdict.margin(k)) < CLEARANCE * scale.get(k, 1.0) for k in LIMITS]
    return not any(np.any(mask) for mask in near) and bool(np.all(np.abs(s) > CLEARANCE))


def test_verify_agrees_with_the_bench_checker():
    rng = np.random.default_rng(20240917)
    c = ConstraintSet(**BOUNDS)
    seen = Counter()
    for path in sorted(FIXTURE_DIR.glob("*.case")):
        text = path.read_text()
        net = parse_case(text)
        case = checker.read_case(text)
        slack = net.slack_index
        for _ in range(60):
            # spreads drawn per state, so that every family is met by some states and broken by others
            mags = 1.0 + rng.uniform(-1, 1, net.n) * rng.uniform(0.01, 0.07)
            angles = rng.uniform(-1, 1, net.n) * rng.uniform(0.0, 0.03)
            mags[slack], angles[slack] = 1.0, 0.0
            v = mags * np.exp(1j * angles)
            s = v * np.conj(build_ybus(net) @ v)
            verdict = verify(net, c, v, s)
            if not clear_of_limits(net, verdict, s):
                continue
            problems, _ = checker.check_point(case, BOUNDS, mags, angles)
            for problem, limits in FAMILIES.items():
                violated = not verdict.ok(*limits)
                assert (problem in problems) == violated, (path.name, problem, mags, angles)
                seen[problem, violated] += 1
    for problem in FAMILIES:
        assert seen[problem, True] and seen[problem, False], (problem, seen)


@pytest.mark.parametrize("workload", ["radial_thermal", "three_phase", "oracle_cert"])
def test_first_warmup_op_runs_through_the_harness(workload, tmp_path):
    manifest = workloads.build(workload, 1, tmp_path, FIXTURE_DIR.parent)
    case = manifest["warmup"][0]
    hostcap = worker._import_hostcap()
    runner = worker.Runner(hostcap, {"blocks": [[case]], "warmup": []})
    code, out = worker.run_op(hostcap, case)
    problems, inconsistent, _ = runner.verdict(case, code, out)
    assert code == 0
    assert not inconsistent, (case["id"], problems, inconsistent)
