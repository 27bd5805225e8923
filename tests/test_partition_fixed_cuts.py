"""The partitioned solve is one pipeline pass, read at the cut buses.

Where no correction moved a cut bus, it returns exactly the monolithic
solve's point as ``distributed``; otherwise it falls back to the monolithic
solve (logged).
"""

import dataclasses
import json

import numpy as np
import pytest

from hostcap import cli, hccore
from hostcap.hccore import ConstraintSet, solve_hc, solve_hc_stages
from hostcap.netmodel import parse_case
from hostcap.partition import make_partition, solve_distributed_hc

from conftest import FIXTURE_DIR, load_fixture
from test_partition import random_tree

# the clamp on 1-2 holds bus 1 at v_max, where no bus-2 value meets the limit
CHAIN_LIMIT_BELOW_CUT = """
BASE 1 1
BUS 0 slack 0 0 0
BUS 1 gen 0 0 1
BUS 2 gen 0 0 1
BUS 3 gen 0 0 1
BRANCH 0 1 0.05 0.01
BRANCH 1 2 0.05 0.01 0.19
BRANCH 2 3 0.05 0.01
"""


def assert_same_solution(a, b):
    np.testing.assert_array_equal(a.state.magnitudes, b.state.magnitudes)
    np.testing.assert_array_equal(a.state.angles, b.state.angles)
    assert a.binding == b.binding
    assert a.hc_total == b.hc_total


def test_blocked_clamp_at_a_cut_bus_falls_back(caplog):
    net = parse_case(CHAIN_LIMIT_BELOW_CUT)
    c = ConstraintSet(theta_max=0.01)
    mono = solve_hc(net, c)
    assert mono.stage == "thermal_adjusted"
    with caplog.at_level("WARNING", logger="hostcap.partition"):
        dist = solve_distributed_hc(solve_hc_stages(net, c), make_partition(net, [1]))
    assert any("fell back" in rec.message for rec in caplog.records)
    assert dist.stage == mono.stage
    assert_same_solution(dist, mono)


def test_power_factor_conflict_at_a_cut_bus_falls_back(caplog):
    net = load_fixture("8bus_pf.case")
    c = ConstraintSet(eta=0.95)
    mono = solve_hc(net, c)
    with caplog.at_level("WARNING", logger="hostcap.partition"):
        dist = solve_distributed_hc(solve_hc_stages(net, c), make_partition(net, [4]))
    messages = [rec.message for rec in caplog.records]
    assert any("fell back" in m and "power-factor" in m for m in messages), messages
    assert_same_solution(dist, mono)


def with_thermal_limits(rng, net):
    branches = [
        dataclasses.replace(br, thermal_limit=round(float(rng.uniform(0.5, 3.0)), 3))
        if rng.random() < 0.3 else br
        for br in net.branches
    ]
    return dataclasses.replace(net, branches=tuple(branches))


def test_distributed_is_bitwise_monolithic_on_thermal_random_trees():
    rng = np.random.default_rng(2718)
    outcomes = {"clamped": 0, "fallback": 0}
    for _ in range(60):
        n = int(rng.integers(8, 24))
        net = with_thermal_limits(rng, random_tree(rng, n))
        degree = np.bincount(np.concatenate([net.branch_from, net.branch_to]), minlength=n)
        internal = [b for b in range(1, n) if degree[b] >= 2]
        if not internal:
            continue
        ncuts = int(rng.integers(1, min(4, len(internal)) + 1))
        cuts = [int(b) for b in rng.choice(internal, size=ncuts, replace=False)]
        c = ConstraintSet(theta_max=float(rng.choice([0.0, 0.004, 0.01])))
        mono = solve_hc(net, c)
        dist = solve_distributed_hc(solve_hc_stages(net, c), make_partition(net, cuts))
        if dist.stage != "distributed":
            outcomes["fallback"] += 1
        elif mono.stage == "thermal_adjusted":
            outcomes["clamped"] += 1
        assert_same_solution(dist, mono)
    # some distributed solves must have clamped a branch, so the bitwise match covers the thermal stage
    assert outcomes["clamped"] > 0 and outcomes["fallback"] > 0, outcomes


@pytest.mark.parametrize(
    "case,flags,cut,fallback",
    [
        (None, ["--theta-max", "0.01"], 1, True),
        ("8bus_pf.case", ["--eta", "0.95"], 4, True),
        ("8bus.case", [], 4, False),
    ],
    ids=["thermal_fallback", "pf_fallback", "distributed"],
)
def test_one_pipeline_pass_per_partitioned_solve(tmp_path, monkeypatch, capsys, caplog, case, flags, cut, fallback):
    # the CLI's own stages feed the partitioned read, so `solve --cut` runs the pipeline once
    if case is None:
        path = tmp_path / "chain.case"
        path.write_text(CHAIN_LIMIT_BELOW_CUT)
    else:
        path = FIXTURE_DIR / case
    passes = []
    pattern = hccore._pattern_stage
    monkeypatch.setattr(hccore, "_pattern_stage", lambda *a: passes.append(a) or pattern(*a))
    with caplog.at_level("WARNING", logger="hostcap.partition"):
        code = cli.main(["solve", str(path), *flags, "--cut", str(cut)])
    assert code == 0
    assert len(passes) == 1
    assert (json.loads(capsys.readouterr().out)["result"]["stage"] != "distributed") == fallback
    warnings = [rec.message for rec in caplog.records if "fell back" in rec.message]
    assert len(warnings) == fallback
    assert all(m.endswith(f"moved cut bus {cut}") for m in warnings), warnings
