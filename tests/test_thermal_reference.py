"""The thermal stage gives bit for bit the points of the one-branch-at-a-time reference.

``hccore.adjust_thermal`` checks every limited branch of a pass in one array
expression and scores only clamps with two or more candidates;
``reference.adjust_thermal`` checks each branch on its own and scores every
candidate over the whole feeder.  Both must return the same magnitudes,
angles, stage, HC and binding set, or raise the same error.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import FIXTURE_DIR, load_fixture
from hostcap import hccore
from hostcap.hccore import (
    AdjustmentError,
    ConstraintSet,
    InfeasibleError,
    adjust_thermal,
    finalize_solution,
    solve_with_angle,
)
from hostcap.netmodel import Branch, Bus, BusKind, Network, parse_case
from hostcap.powerflow import VoltageState
from test_hccore import with_limit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

THETAS = (0.0, 0.004, 0.05)


def outcome(adjust, net, c, sol, *args):
    try:
        out = adjust(net, c, sol, *args)
    except (InfeasibleError, AdjustmentError) as exc:
        return type(exc), str(exc)
    state = out.state
    return out is sol, out.stage, state.magnitudes.tobytes(), state.angles.tobytes(), out.hc_total.hex(), out.binding


def pattern_cases(net, thetas=THETAS):
    for theta in thetas:
        c = ConstraintSet(theta_max=theta)
        yield net, c, solve_with_angle(net, c)


def fixture_cases():
    for path in sorted(FIXTURE_DIR.glob("*.case")):
        net = parse_case(path.read_text())
        if np.isfinite(net.branch_limit).any():
            yield from pattern_cases(net)


def feeder_cases(n):
    for seed in range(1, 11):
        for loads in (True, False):
            yield from pattern_cases(parse_case(make_feeder(n, seed, thermal=True, loads=loads).text))


def held_side_chain_cases():
    # 0-1-2-3 with C on 1-2: no bus-2 value fits bus 1's pattern value, so bus 1 scans the box
    buses = (Bus(0, BusKind.SLACK),) + tuple(Bus(i, BusKind.GEN) for i in (1, 2, 3))
    branches = tuple(Branch(i, i + 1, 0.05, 0.01, 0.19 if i == 1 else None) for i in range(3))
    yield from pattern_cases(Network(buses=buses, branches=branches), thetas=(0.01,))


def leaf_tie_cases():
    # the cases of test_thermal_tie_at_a_leaf_takes_the_lower_root: two roots tie exactly
    c = ConstraintSet()
    for cap, held in [(0.03, 1.0), (0.005, 1.02), (0.007, 0.98), (0.008, 1.01)]:
        net = with_limit(load_fixture("3bus.case"), 1, cap)
        state = VoltageState(magnitudes=np.array([1.0, held, 0.95]), angles=np.zeros(3))
        yield net, c, finalize_solution(net, c, state, stage="voltage_pattern")


def infeasible_cases():
    net = with_limit(load_fixture("3bus_complex.case"), 1, 1e-6)
    yield from pattern_cases(net, thetas=(0.1,))


# each group, and the reference paths its clamps must take at least once
GROUPS = {
    "fixtures": (fixture_cases, {"lone"}),
    **{f"feeders_{n}": (lambda n=n: feeder_cases(n), {"lone", "multi", "scan"}) for n in (20, 60, 150, 500)},
    "held_side_chain": (held_side_chain_cases, {"scan", "multi"}),
    "leaf_ties": (leaf_tie_cases, {"multi"}),
    "infeasible": (infeasible_cases, set()),
}


@pytest.mark.parametrize("group", GROUPS)
def test_thermal_stage_matches_the_reference_bit_for_bit(group):
    cases, required = GROUPS[group]
    paths = Counter()
    seen = 0
    for net, c, sol in cases():
        ref = outcome(reference.adjust_thermal, net, c, sol, paths)
        assert outcome(adjust_thermal, net, c, sol) == ref, (group, net.n, c)
        seen += 1
    assert seen
    assert {key for key in required if paths[key] < 1} == set(), (group, paths)
    if group == "infeasible":
        assert ref[0] is InfeasibleError and "1-2" in ref[1]


def test_thermal_stage_scores_only_clamps_with_two_or_more_candidates(monkeypatch):
    net = parse_case(make_feeder(1000, 1, thermal=True, loads=False).text)
    c = ConstraintSet(theta_max=0.004)
    sol = solve_with_angle(net, c)
    paths = Counter()
    reference.adjust_thermal(net, c, sol, paths)
    assert paths["lone"] > 0 and paths["scored"] > 0, paths

    calls = []
    scored = hccore.bus_injections

    def counting(*args, **kwargs):
        calls.append(None)
        return scored(*args, **kwargs)

    monkeypatch.setattr(hccore, "bus_injections", counting)
    adjust_thermal(net, c, sol)
    # one full-feeder evaluation per candidate of a multi-candidate clamp, none for a lone one
    assert len(calls) == paths["scored"]
