"""The four benchmark workloads: which cases each studies, and how.

``build(workload, seed, workdir, root)`` writes the seeded case files of
one run into ``workdir`` and returns the run's manifest: a warm-up block
and BLOCKS timed blocks.  A block is one ordered list of cases with the
workload's fixed mix of sizes and constraint sets, each on feeders of its
own, so more blocks average over more feeders.  The worker times whole
blocks, so every run studies the same mix.  Only stdlib is imported here; the
set-up probe times ``import hostcap`` from a clean interpreter.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from feeders import make_feeder

WORKLOADS = ("radial_thermal", "radial_pf", "three_phase", "oracle_cert")
BLOCKS = 12  # distinct blocks per run; the timed phase cycles through them

# Wall time of one block at commit eb446ae on the reference machine (2-core Xeon,
# Python 3.11, numpy 2.4).  ``--seconds`` buys seconds / this many blocks, so
# both sides of a comparison time exactly the same ops and the percentiles
# fall on the same order statistics.
NOMINAL_BLOCK_S = {"radial_thermal": 2.85, "radial_pf": 5.5, "three_phase": 2.9, "oracle_cert": 3.4}
MIN_OPS = 30


def blocks_for(workload: str, seconds: float, block_len: int) -> int:
    return max(round(seconds / NOMINAL_BLOCK_S[workload]), -(-MIN_OPS // block_len))

DEFAULT_BOX = {"v_min": 0.95, "v_max": 1.05}

# test_global_optimality_certificate's five fixtures and constraint sets.
# Each grid holds 1.00e6-1.23e6 points: finer than the test's on 3bus.case
# (1001^2, not 201^2), coarser on the other four (101 magnitude steps, not 201).
CERT_FIXTURES = (
    ("3bus.case", 0.0, (1001, 11)),           # 1001^2 = 1.00e6 points
    ("4bus.case", 0.0, (101, 11)),            # 101^3 = 1.03e6
    ("4bus_star.case", 0.0, (101, 11)),       # 101^3 = 1.03e6
    ("3bus_complex.case", 0.1, (101, 11)),    # 101^2 x 11^2 = 1.23e6
    ("4bus_thermal.case", 0.0, (101, 11)),    # 101^3 = 1.03e6
)
CERT_GENERATED = 5        # generated 4-bus feeders per block, no pf floor
CERT_PF = 2               # and these many more with the pf floor CERT_ETA
CERT_THETA = 0.004
CERT_ETA = 0.9
CERT_GRID = (21, 5)       # 21^3 magnitudes x 5^3 angle deltas = 1.16e6 points


def _constraints(theta_max: float, eta: float | None) -> dict:
    return {**DEFAULT_BOX, "theta_max": theta_max, "eta": eta}


def _cli_case(case_id, path, n, command, constraints, *, cut=None, three_phase=False):
    argv = [command, str(path), "--theta-max", repr(constraints["theta_max"])]
    if constraints["eta"] is not None:
        argv += ["--eta", repr(constraints["eta"])]
    if cut is not None:
        argv += ["--cut", str(cut), "--workers", "2"]
    return {
        "id": case_id,
        "kind": "cli",
        "argv": argv,
        "path": str(path),
        "n": n,
        "constraints": constraints,
        "three_phase": three_phase,
        "cut": cut is not None,
    }


def _half_cut(parent: tuple[int, ...]) -> int:
    """Non-leaf, non-slack bus whose subtree size is closest to n/2."""
    n = len(parent)
    size = [1] * n
    children = [0] * n
    for i in range(n - 1, 0, -1):  # parents precede children in the generator
        size[parent[i]] += size[i]
        children[parent[i]] += 1
    inner = [i for i in range(1, n) if children[i] > 0]
    return min(inner, key=lambda i: (abs(size[i] - n / 2), i))


def _feeder_seed(seed: int, block: int, index: int) -> int:
    return (seed * 1000 + block) * 10_000 + index


def _write(workdir: Path, name: str, text: str) -> Path:
    path = workdir / name
    path.write_text(text)
    return path


def _radial_thermal(seed: int, block: int, workdir: Path) -> list[dict]:
    # 3/5/2 feeders of 500/1000/2000 buses; the last feeder of each size is
    # solved partitioned at its half-way cut.  Sorted by latency, the median
    # of a block falls among its plain 1000-bus studies.
    cases = []
    c = _constraints(0.004, None)
    for n, count in ((500, 3), (1000, 5), (2000, 2)):
        for j in range(count):
            f = make_feeder(n, _feeder_seed(seed, block, n + j), thermal=True, loads=False)
            name = f"thermal_b{block}_{n}_{j}"
            path = _write(workdir, f"{name}.case", f.text)
            cut = _half_cut(f.parent) if j == count - 1 else None
            cases.append(_cli_case(name, path, n, "solve", c, cut=cut))
    return cases


PF_SIZES = (50, 64, 77, 91, 105, 118, 132, 145, 159, 173, 186, 200)
PF_THETAS = (0.0, 0.004, 0.05)
PF_ETAS = (0.95, 0.9, 0.8)


def _radial_pf(seed: int, block: int, workdir: Path) -> list[dict]:
    # one feeder per (size, constraint set): the outcome depends on the
    # feeder, so every op of a block studies a feeder of its own
    cases = []
    for j, (n, (theta, eta)) in enumerate(itertools.product(PF_SIZES, itertools.product(PF_THETAS, PF_ETAS))):
        f = make_feeder(n, _feeder_seed(seed, block, j), thermal=True, loads=True)
        name = f"pf_b{block}_{j}_{n}"
        path = _write(workdir, f"{name}.case", f.text)
        cases.append(_cli_case(name, path, n, "solve", _constraints(theta, eta)))
    return cases


THREE_PHASE_SIZES = (100, 150, 200, 250, 300, 350, 400)


def _three_phase(seed: int, block: int, workdir: Path) -> list[dict]:
    cases = []
    c = _constraints(0.004, None)
    for j, n in enumerate(THREE_PHASE_SIZES):
        f = make_feeder(n, _feeder_seed(seed, block, j), thermal=False, loads=True, three_phase=True)
        name = f"three_b{block}_{n}"
        path = _write(workdir, f"{name}.case3", f.text)
        cases.append(_cli_case(name, path, n, "unbalanced", c, three_phase=True))
    return cases


def _oracle_case(case_id, path, n, theta, grid, eta=None):
    return {
        "id": case_id,
        "kind": "oracle",
        "path": str(path),
        "n": n,
        "constraints": _constraints(theta, eta),
        "grid": {"magnitude_steps": grid[0], "angle_steps": grid[1]},
        "three_phase": False,
        "cut": False,
    }


def _oracle_cert(seed: int, block: int, workdir: Path, fixture_dir: Path) -> list[dict]:
    cases = []
    for name, theta, grid in CERT_FIXTURES:
        path = fixture_dir / name
        n = sum(1 for line in path.read_text().splitlines() if line.split()[:1] == ["BUS"])
        cases.append(_oracle_case(f"fixture_b{block}_{name}", path, n, theta, grid))
    # generated 4-bus feeders that carry at least one thermal limit; the
    # last CERT_PF of them add the pf floor, so the pf stage and its Newton
    # re-solve run on this workload too
    sub = 0
    while len(cases) < len(CERT_FIXTURES) + CERT_GENERATED + CERT_PF:
        f = make_feeder(4, _feeder_seed(seed, block, sub), thermal=True, loads=False)
        sub += 1
        if all(c is None for c in f.limit):
            continue
        name = f"cert_b{block}_{sub - 1}"
        path = _write(workdir, f"{name}.case", f.text)
        eta = CERT_ETA if len(cases) >= len(CERT_FIXTURES) + CERT_GENERATED else None
        cases.append(_oracle_case(name, path, 4, CERT_THETA, CERT_GRID, eta))
    return cases


def build(workload: str, seed: int, workdir: Path, root: Path) -> dict:
    """Write the run's case files; block BLOCKS is the warm-up block."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "radial_thermal":
        make = _radial_thermal
    elif workload == "radial_pf":
        make = _radial_pf
    elif workload == "three_phase":
        make = _three_phase
    elif workload == "oracle_cert":
        def make(seed, block, workdir):
            return _oracle_cert(seed, block, workdir, root / "fixtures")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    blocks = [make(seed, block, workdir) for block in range(BLOCKS + 1)]
    return {"workload": workload, "seed": seed, "warmup": blocks.pop(), "blocks": blocks}
