"""The three-phase solve on the tree, pinned against the dense sequence pipeline it replaced."""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hostcap.cli import main
from hostcap.hccore import ConstraintSet, solve_hc, verify
from hostcap.netmodel import Branch, Bus, BusKind, Network, serialize_case
from hostcap.sequence import (
    TRANSFORM,
    TRANSFORM_INV,
    DecouplingError,
    PhaseVector,
    SequenceSingularError,
    ThreePhaseBranch,
    ThreePhaseBus,
    ThreePhaseNetwork,
    _branch_admittances,
    _solve_sequence_nodal,
    _tree_sweep,
    build_ybus3,
    detect_scenario,
    parse_case3,
    sequence_ybus,
    solve_unbalanced_hc,
)

from conftest import FIXTURE_DIR, fixture_text
from reference import positive_sequence_network, unbalance_currents
from test_sequence import absent_phase_net3, balanced_branch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

FIXTURES3 = ["8bus_balanced.case3", "8bus_unbalanced_load.case3", "8bus_untransposed.case3"]


def feeder_net3(n, seed):
    return parse_case3(make_feeder(n, seed, thermal=False, loads=True, three_phase=True).text)


CASES = {
    **{name: (lambda name=name: parse_case3(fixture_text(name))) for name in FIXTURES3},
    "feeder100": lambda: feeder_net3(100, 3),
    "feeder400": lambda: feeder_net3(400, 4),
    "absent_phase": absent_phase_net3,
}


def dense_solve(net3, c, threshold):
    """The dense pipeline: 3n x 3n phase matrix, (3, 3, n, n) sequence matrices, dense nodal solves."""
    seq = sequence_ybus(build_ybus3(net3))
    if seq.coupling > threshold:
        raise DecouplingError("dense", coupling=seq.coupling)
    pos_net = positive_sequence_network(net3)
    positive = solve_hc(pos_net, c)
    i0, i2 = unbalance_currents(net3, seq, positive.state)
    v0 = _solve_sequence_nodal(seq.y0, i0, net3.slack_index, "zero")
    v2 = _solve_sequence_nodal(seq.y2, i2, net3.slack_index, "negative")
    v_abc = np.stack([v0, positive.state.phasors, v2], axis=1) @ TRANSFORM.T
    per_phase = verify(pos_net, c, v_abc.T)
    outside = (per_phase.violated("v_max") | per_phase.violated("v_min")).T
    return {
        "v0": v0,
        "v2": v2,
        "coupling": seq.coupling,
        "method": detect_scenario(net3, seq.coupling),
        "hc_total": 3.0 * positive.hc_total,
        "violations": tuple((int(b), int(p)) for b, p in np.argwhere(outside)),
    }


@pytest.mark.parametrize("name", CASES)
def test_tree_solve_matches_the_dense_pipeline(name, monkeypatch):
    net3, c = CASES[name](), ConstraintSet()
    # the absent-phase case couples its sequences too strongly for the default threshold
    threshold = 1.0 if name == "absent_phase" else 0.05
    ref = dense_solve(net3, c, threshold)
    monkeypatch.setattr("hostcap.sequence.COUPLING_LIMIT", threshold)
    sol = solve_unbalanced_hc(net3, c)
    scale = np.abs(sol.v_abc).max()
    assert np.abs(sol.v0 - ref["v0"]).max() <= 1e-10 * scale
    assert np.abs(sol.v2 - ref["v2"]).max() <= 1e-10 * scale
    assert sol.coupling == ref["coupling"]
    assert sol.method == ref["method"]
    assert sol.hc_total == ref["hc_total"]
    assert sol.phase_bound_violations == ref["violations"]


UNTRANSPOSED = np.array(
    [
        [0.06 + 0.012j, 0.02 + 0.004j, 0.01 + 0.002j],
        [0.02 + 0.004j, 0.05 + 0.010j, 0.02 + 0.004j],
        [0.01 + 0.002j, 0.02 + 0.004j, 0.06 + 0.012j],
    ]
)


def off_tree_net3(ends):
    """Two buses joined by a transposed line plus an untransposed branch with ``ends``."""
    return ThreePhaseNetwork(
        buses=(ThreePhaseBus(0, BusKind.SLACK, lam=0.0), ThreePhaseBus(1, BusKind.GEN)),
        branches=(balanced_branch(), ThreePhaseBranch(*ends, UNTRANSPOSED)),
    )


@pytest.mark.parametrize(
    "make",
    [absent_phase_net3, lambda: off_tree_net3((0, 1)), lambda: off_tree_net3((1, 0)),
     lambda: off_tree_net3((1, 1))],
    ids=["absent_phase", "parallel", "reversed_parallel", "self_loop"],
)
def test_refused_coupling_is_the_dense_one(make, monkeypatch):
    """A parallel branch shares its block with another; a self loop lands on the diagonal."""
    net3 = make()
    monkeypatch.setattr("hostcap.sequence.COUPLING_LIMIT", 0.0)
    with pytest.raises(DecouplingError) as err:
        solve_unbalanced_hc(net3, ConstraintSet())
    assert err.value.coupling == sequence_ybus(build_ybus3(net3)).coupling


def per_branch_admittance(z):
    """One np.ix_/inv per branch: the inversion the batched stack replaced."""
    present = [p for p in range(3) if np.any(z[p] != 0) or np.any(z[:, p] != 0)]
    y = np.zeros((3, 3), dtype=complex)
    if present:
        y[np.ix_(present, present)] = np.linalg.inv(z[np.ix_(present, present)])
    return y


@pytest.mark.parametrize("name", CASES)
def test_batched_admittances_are_bitwise_the_per_branch_inverse(name):
    net3 = CASES[name]()
    ref = np.array([per_branch_admittance(br.z) for br in net3.branches])
    assert _branch_admittances(net3).tobytes() == ref.tobytes()


def test_first_singular_block_in_branch_order_is_named(tmp_path, capsys):
    zs, zm = "0.06 0.012", "0.02 0.004"
    ok = f"{zs} {zm} {zm} {zm} {zs} {zm} {zm} {zm} {zs}"
    singular3 = "0.05 0.01 " * 9  # rank one: every entry equal
    singular2 = "0.05 0.01 0.05 0.01 0 0 0.05 0.01 0.05 0.01 0 0 0 0 0 0 0 0"  # phases a, b
    case = tmp_path / "singular.case3"
    case.write_text(
        "BASE 1 1\n"
        + "".join(f"BUS3 {i} {'slack' if i == 0 else 'gen'} 0 0 0 0 0 0 1\n" for i in range(4))
        + f"BRANCH3 0 1 {ok}\nBRANCH3 1 2 {singular3}\nBRANCH3 2 3 {singular2}\n"
    )
    # the two-phase group is inverted first; the three-phase block 1-2 still comes first in the file
    assert main(["unbalanced", str(case)]) == 1
    assert "error: branch 1-2: singular impedance block" in capsys.readouterr().err


def positive_network_reference(net3):
    """The per-branch/per-bus loops positive_sequence_network replaced."""
    ys = np.array([per_branch_admittance(br.z) for br in net3.branches])
    y1 = (TRANSFORM_INV @ ys @ TRANSFORM)[:, 1, 1]
    branches = [
        Branch(br.from_bus, br.to_bus, float(z1.real), float(z1.imag), br.thermal_limit)
        for br, z1 in zip(net3.branches, 1.0 / y1)
    ]
    buses = []
    for b in net3.buses:
        s_avg = complex(np.mean(b.load.array))
        buses.append(Bus(b.id, b.kind, s_avg.real, s_avg.imag, b.lam))
    return branches, buses


@pytest.mark.parametrize("name", CASES)
def test_positive_network_is_bitwise_the_per_entry_loops(name):
    net3 = CASES[name]()
    branches, buses = positive_network_reference(net3)
    pos = positive_sequence_network(net3)
    ref = Network(tuple(buses), tuple(branches), net3.base_mva, net3.base_kv, net3.slack_vm)
    assert serialize_case(pos) == serialize_case(ref)  # repr of every float: bitwise


@pytest.mark.parametrize("name", FIXTURES3)
def test_branch3_impedance_is_bitwise_the_parsed_pairs(name):
    net3 = parse_case3(fixture_text(name))
    rows = [ln.split() for ln in fixture_text(name).splitlines() if ln.startswith("BRANCH3")]
    assert len(rows) == len(net3.branches)
    for toks, br in zip(rows, net3.branches):
        vals = [float(t) for t in toks[3:21]]
        ref = np.array([complex(vals[2 * j], vals[2 * j + 1]) for j in range(9)]).reshape(3, 3)
        assert br.z.tobytes() == ref.tobytes()


# --- singularity by pivot ----------------------------------------------------------

Z1 = 0.05 + 0.01j


def transposed_block(z0, z1=Z1):
    """z = z1 I + (z0 - z1)/3 J: zero-sequence impedance z0, positive and negative z1."""
    return z1 * np.eye(3) + (z0 - z1) / 3 * np.ones((3, 3))


def weak_zero_chain(ratio, weak_near):
    """Slack-rooted chain 0-1-2 whose weak branch has zero-sequence admittance ``ratio`` of the other's."""
    weak, strong = transposed_block(Z1 / ratio), transposed_block(Z1)
    z01, z12 = (weak, strong) if weak_near else (strong, weak)
    load = PhaseVector(a=0.02 + 0.005j, b=0.01 + 0.002j)
    return ThreePhaseNetwork(
        buses=(
            ThreePhaseBus(0, BusKind.SLACK, lam=0.0),
            ThreePhaseBus(1, BusKind.GEN, load=load),
            ThreePhaseBus(2, BusKind.GEN, load=load),
        ),
        branches=(ThreePhaseBranch(0, 1, z01), ThreePhaseBranch(1, 2, z12)),
    )


@pytest.mark.parametrize("weak_near", [True, False], ids=["near", "far"])
def test_vanishing_zero_sequence_path_is_refused(weak_near):
    with pytest.raises(SequenceSingularError, match="zero-sequence nodal matrix is singular"):
        solve_unbalanced_hc(weak_zero_chain(1e-14, weak_near), ConstraintSet())


@pytest.mark.parametrize("weak_near", [True, False], ids=["near", "far"])
def test_weak_but_finite_zero_sequence_path_solves(weak_near):
    sol = solve_unbalanced_hc(weak_zero_chain(1e-10, weak_near), ConstraintSet())
    assert np.all(np.isfinite(sol.v0)) and np.abs(sol.v0).max() > 0


CHAIN = (np.array([-1, 0, 1]), np.array([0, 1, 2]))  # parents, BFS order of the chain 0-1-2
I_M = np.array([0, 0.1 + 0.02j, -0.05j])


@pytest.mark.parametrize("y_up", [[0, 0, 20], [0, 20, 0], [0, 20, np.nan], [0, np.inf, 20]])
def test_sweep_refuses_a_dead_or_non_finite_branch(y_up):
    with pytest.raises(SequenceSingularError, match="negative-sequence nodal matrix is singular"):
        _tree_sweep(*CHAIN, np.array(y_up, dtype=complex), I_M, "negative")


def test_sweep_is_the_grounded_laplacian_solve():
    y01, y12 = 1 / (0.05 + 0.01j), 0.5 / (0.05 + 0.01j)
    lap = np.array([[y01, -y01, 0], [-y01, y01 + y12, -y12], [0, -y12, y12]])
    v = _tree_sweep(*CHAIN, np.array([0, y01, y12]), I_M, "zero")
    assert v[0] == 0
    np.testing.assert_allclose(v[1:], np.linalg.solve(lap[1:, 1:], I_M[1:]), rtol=1e-14)


# --- memory ----------------------------------------------------------------------


def test_ten_thousand_bus_solve_runs_in_linear_memory():
    net3 = parse_case3(make_feeder(10_000, 1, thermal=False, loads=True, three_phase=True).text)
    tracemalloc.start()
    try:
        solve_unbalanced_hc(net3, ConstraintSet())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense n x n complex matrix alone would be 1.6 GB here
    assert peak < 64 * 2**20, peak
