"""Symmetrical components: transforms, sequence matrices, unbalanced solve."""

import sys
from pathlib import Path

import numpy as np
import pytest

from hostcap.hccore import ConstraintSet, solve_hc
from hostcap.powerflow import VoltageState
from hostcap.sequence import (
    ALPHA,
    TRANSFORM,
    TRANSFORM_INV,
    VOLTAGE_FLOOR,
    DecouplingError,
    PhaseVector,
    SequenceSingularError,
    ThreePhaseBranch,
    ThreePhaseBus,
    ThreePhaseNetwork,
    build_ybus3,
    from_sequence,
    parse_case3,
    sequence_ybus,
    solve_unbalanced_hc,
    to_sequence,
    _solve_sequence_nodal,
)
from hostcap.netmodel import BusKind

from conftest import fixture_text, load_fixture
from reference import positive_sequence_network, unbalance_currents

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

RNG = np.random.default_rng(777)


# --- transform ---------------------------------------------------------------


def test_transform_is_exact_inverse_pair():
    np.testing.assert_allclose(TRANSFORM @ TRANSFORM_INV, np.eye(3), atol=1e-14)


def test_balanced_set_is_pure_positive():
    v = PhaseVector(a=1.0, b=ALPHA**2, c=ALPHA)  # 1/_0, 1/_-120, 1/_+120
    seq = to_sequence(v)
    np.testing.assert_allclose(seq, [0, 1, 0], atol=1e-14)


def test_equal_phasors_are_pure_zero_sequence():
    seq = to_sequence(PhaseVector(1.0, 1.0, 1.0))
    np.testing.assert_allclose(seq, [1, 0, 0], atol=1e-14)


def test_round_trip_random_triples():
    v = RNG.normal(size=(50, 3)) + 1j * RNG.normal(size=(50, 3))
    np.testing.assert_allclose(from_sequence(to_sequence(v)), v, atol=1e-12)


def test_power_carries_factor_three():
    # ones-first-row scaling: sum V_ph conj(I_ph) = 3 * sum V_m conj(I_m)
    v = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    i = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    s_phase = np.sum(v * np.conj(i))
    s_seq = np.sum(to_sequence(v) * np.conj(to_sequence(i)))
    assert s_phase == pytest.approx(3 * s_seq, abs=1e-12)


# --- sequence admittance -------------------------------------------------------


def balanced_branch(zs=0.06 + 0.012j, zm=0.02 + 0.004j, i=0, k=1):
    z = np.full((3, 3), zm, dtype=complex)
    np.fill_diagonal(z, zs)
    return ThreePhaseBranch(from_bus=i, to_bus=k, z=z)


def two_bus_net3(branch, load=PhaseVector()):
    return ThreePhaseNetwork(
        buses=(
            ThreePhaseBus(0, BusKind.SLACK, lam=0.0),
            ThreePhaseBus(1, BusKind.GEN, load=load),
        ),
        branches=(branch,),
    )


def test_transposed_line_decouples_exactly():
    seq = sequence_ybus(build_ybus3(two_bus_net3(balanced_branch())))
    assert seq.coupling < 1e-12
    zs, zm = 0.06 + 0.012j, 0.02 + 0.004j
    np.testing.assert_allclose(seq.y1[0, 1], -1 / (zs - zm), atol=1e-10)
    np.testing.assert_allclose(seq.y0[0, 1], -1 / (zs + 2 * zm), atol=1e-10)


def test_identity_blocks_transform_to_identity():
    y = np.eye(6, dtype=complex)
    seq = sequence_ybus(y)
    np.testing.assert_allclose(seq.y0, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(seq.y1, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(seq.y2, np.eye(2), atol=1e-14)
    assert seq.coupling < 1e-14


def test_untransposed_line_couples_but_keeps_diagonals():
    net3 = parse_case3(fixture_text("8bus_untransposed.case3"))
    seq = sequence_ybus(build_ybus3(net3))
    assert seq.coupling > 1e-6
    assert np.all(np.abs(np.diag(seq.y1)) > 0)


@pytest.mark.parametrize(
    "name", ["8bus_balanced.case3", "8bus_unbalanced_load.case3", "8bus_untransposed.case3"]
)
def test_sequence_ybus_matches_the_blockwise_transform(name):
    y_abc = build_ybus3(parse_case3(fixture_text(name)))
    n = y_abc.shape[0] // 3
    seq = sequence_ybus(y_abc)
    # (sequence row, sequence column) of each returned matrix
    parts = {(0, 0): seq.y0, (1, 1): seq.y1, (2, 2): seq.y2,
             (0, 1): seq.cross_0_from_1, (2, 1): seq.cross_2_from_1}
    coupling = 0.0
    for i in range(n):
        for k in range(n):
            b012 = TRANSFORM_INV @ y_abc[3 * i : 3 * i + 3, 3 * k : 3 * k + 3] @ TRANSFORM
            for (row, col), full in parts.items():
                assert abs(full[i, k] - b012[row, col]) <= 1e-12 * max(1.0, abs(b012[row, col]))
            if np.any(b012):
                off = np.abs(b012 - np.diag(np.diag(b012))).max()
                coupling = max(coupling, off / max(np.abs(np.diag(b012)).max(), 1e-30))
    assert seq.coupling == pytest.approx(coupling, rel=1e-9, abs=1e-15)


def blockwise_reference(y_abc):
    """The per-block loop the batched transform replaced: (seq[m_row, m_col, i, k], coupling)."""
    n = y_abc.shape[0] // 3
    seq = np.zeros((3, 3, n, n), dtype=complex)
    coupling = 0.0
    for i in range(n):
        for k in range(n):
            block = y_abc[3 * i : 3 * i + 3, 3 * k : 3 * k + 3]
            if not np.any(block):
                continue
            b012 = TRANSFORM_INV @ block @ TRANSFORM
            seq[:, :, i, k] = b012
            diag_scale = max(np.max(np.abs(np.diag(b012))), 1e-30)
            off = b012 - np.diag(np.diag(b012))
            coupling = max(coupling, float(np.max(np.abs(off)) / diag_scale))
    return seq, coupling


def absent_phase_net3():
    """4 buses: a transposed line, an untransposed one, and one with phase c absent."""
    untransposed = np.array(
        [
            [0.06 + 0.012j, 0.02 + 0.004j, 0.01 + 0.002j],
            [0.02 + 0.004j, 0.05 + 0.010j, 0.02 + 0.004j],
            [0.01 + 0.002j, 0.02 + 0.004j, 0.06 + 0.012j],
        ]
    )
    two_phase = np.zeros((3, 3), dtype=complex)
    two_phase[:2, :2] = [[0.04 + 0.01j, 0.01 + 0.002j], [0.01 + 0.002j, 0.04 + 0.01j]]
    return ThreePhaseNetwork(
        buses=(ThreePhaseBus(0, BusKind.SLACK, lam=0.0),)
        + tuple(ThreePhaseBus(i, BusKind.GEN) for i in (1, 2, 3)),
        branches=(
            balanced_branch(i=0, k=1),
            ThreePhaseBranch(from_bus=1, to_bus=2, z=untransposed),
            ThreePhaseBranch(from_bus=1, to_bus=3, z=two_phase),
        ),
    )


def feeder_net3(n, seed):
    return parse_case3(make_feeder(n, seed, thermal=False, loads=True, three_phase=True).text)


@pytest.mark.parametrize(
    "make",
    [lambda: feeder_net3(100, 11), lambda: feeder_net3(400, 12), absent_phase_net3],
    ids=["feeder100", "feeder400", "absent_phase"],
)
def test_sequence_ybus_is_bitwise_the_per_block_loop(make):
    y_abc = build_ybus3(make())
    seq, coupling = blockwise_reference(y_abc)
    got = sequence_ybus(y_abc)
    parts = {(0, 0): got.y0, (1, 1): got.y1, (2, 2): got.y2,
             (0, 1): got.cross_0_from_1, (2, 1): got.cross_2_from_1}
    for (row, col), full in parts.items():
        assert full.tobytes() == seq[row, col].tobytes(), (row, col)
    assert got.coupling == coupling


def test_all_zero_admittance_has_zero_coupling():
    seq = sequence_ybus(np.zeros((6, 6), dtype=complex))
    assert seq.coupling == 0.0
    assert not np.any(seq.y1)


def test_dimension_validation():
    with pytest.raises(ValueError, match="multiple of 3"):
        sequence_ybus(np.eye(4, dtype=complex))


# --- unbalance currents ---------------------------------------------------------


def flat_positive_state(n):
    return VoltageState(magnitudes=np.ones(n), angles=np.zeros(n))


def test_balanced_loads_produce_no_injections():
    net3 = parse_case3(fixture_text("8bus_balanced.case3"))
    seq = sequence_ybus(build_ybus3(net3))
    i0, i2 = unbalance_currents(net3, seq, flat_positive_state(net3.n))
    np.testing.assert_allclose(np.abs(i0), 0.0, atol=1e-10)
    np.testing.assert_allclose(np.abs(i2), 0.0, atol=1e-10)


def test_single_phase_load_injects_locally():
    branch = balanced_branch()
    net3 = two_bus_net3(branch, load=PhaseVector(a=0.1 + 0.02j))
    seq = sequence_ybus(build_ybus3(net3))
    i0, i2 = unbalance_currents(net3, seq, flat_positive_state(2))
    assert abs(i0[1]) > 1e-3 and abs(i2[1]) > 1e-3
    assert abs(i0[0]) < 1e-12 and abs(i2[0]) < 1e-12


def test_doubling_unbalance_doubles_injections():
    base = PhaseVector(a=0.06 + 0.012j, b=0.03 + 0.006j, c=0.03 + 0.006j)
    # same mean load (0.04 + 0.008j), twice the deviation from it
    doubled = PhaseVector(a=0.08 + 0.016j, b=0.02 + 0.004j, c=0.02 + 0.004j)
    branch = balanced_branch()
    seq = sequence_ybus(build_ybus3(two_bus_net3(branch, base)))
    state = flat_positive_state(2)
    i0a, i2a = unbalance_currents(two_bus_net3(branch, base), seq, state)
    i0b, i2b = unbalance_currents(two_bus_net3(branch, doubled), seq, state)
    np.testing.assert_allclose(i0b[1], 2 * i0a[1], atol=1e-12)
    np.testing.assert_allclose(i2b[1], 2 * i2a[1], atol=1e-12)


def unbalance_reference(net3, seq, v1):
    """The per-bus loop the vectorised load currents replaced: (i0, i2, floored buses)."""
    i_abc = np.zeros((net3.n, 3), dtype=complex)
    floored = []
    for b in net3.buses:
        s_ph = b.load.array
        if not np.any(s_ph):
            continue
        v_ph = v1[b.id] * TRANSFORM[:, 1]
        mags = np.abs(v_ph)
        if np.any((mags < VOLTAGE_FLOOR) & (s_ph != 0)):
            floored.append(b.id)
        i_abc[b.id] = np.conj(s_ph / np.where(mags < VOLTAGE_FLOOR, VOLTAGE_FLOOR, v_ph))
    i_seq = to_sequence(i_abc)
    i0 = -i_seq[:, 0] - seq.cross_0_from_1 @ v1
    return i0, -i_seq[:, 2] - seq.cross_2_from_1 @ v1, floored


def test_unbalance_currents_are_bitwise_the_per_bus_loop(caplog):
    net3 = feeder_net3(60, 5)
    # one unloaded bus, so a row with no load meets the floor too
    buses = list(net3.buses)
    buses[7] = ThreePhaseBus(7, BusKind.GEN)
    net3 = ThreePhaseNetwork(buses=tuple(buses), branches=net3.branches)
    seq = sequence_ybus(build_ybus3(net3))
    rng = np.random.default_rng(3)
    mags = rng.uniform(0.9, 1.1, net3.n)
    mags[[0, 4, 7, 9]] = [1.0, 1e-8, 1e-8, 5e-7]
    state = VoltageState(magnitudes=mags, angles=rng.uniform(-0.1, 0.1, net3.n))
    i0_ref, i2_ref, floored = unbalance_reference(net3, seq, state.phasors)
    assert floored == [4, 9]
    with caplog.at_level("WARNING", logger="hostcap.sequence"):
        i0, i2 = unbalance_currents(net3, seq, state)
    assert i0.tobytes() == i0_ref.tobytes() and i2.tobytes() == i2_ref.tobytes()
    assert f"at buses {floored}" in caplog.text


# --- sequence nodal solve ---------------------------------------------------------


def grounded_laplacian(w01, w12):
    """Nodal matrix of the chain 0-1-2 with branch admittances w01, w12; bus 0 is the slack."""
    return np.array(
        [[w01, -w01, 0], [-w01, w01 + w12, -w12], [0, -w12, w12]], dtype=complex
    )


Y_LINE = 1 / (0.05 + 0.01j)


@pytest.mark.parametrize(
    "w01, w12",
    [(Y_LINE, 0), (0, Y_LINE), (Y_LINE, 1e-14 * Y_LINE), (1e-14 * Y_LINE, Y_LINE)],
    ids=["open_far", "open_near", "weak_far", "weak_near"],
)
def test_singular_sequence_matrix_is_refused(w01, w12):
    i_m = np.array([0, 0.1 + 0.02j, -0.05j])
    with pytest.raises(SequenceSingularError, match="zero-sequence nodal matrix is singular"):
        _solve_sequence_nodal(grounded_laplacian(w01, w12), i_m, 0, "zero")


def test_sequence_nodal_solve_is_the_plain_solve():
    y_m = grounded_laplacian(Y_LINE, 0.5 * Y_LINE)
    i_m = np.array([0, 0.1 + 0.02j, -0.05j])
    v = _solve_sequence_nodal(y_m, i_m, 0, "negative")
    assert v[0] == 0
    assert v[1:].tobytes() == np.linalg.solve(y_m[1:, 1:], i_m[1:]).tobytes()


# --- full unbalanced solve -------------------------------------------------------


def test_balanced_fixture_matches_single_phase_solve():
    net3 = parse_case3(fixture_text("8bus_balanced.case3"))
    single = solve_hc(load_fixture("8bus.case"), ConstraintSet())
    sol = solve_unbalanced_hc(net3, ConstraintSet())
    assert sol.hc_per_phase == pytest.approx(single.hc_total, abs=1e-8)
    assert sol.hc_total == pytest.approx(3 * sol.hc_per_phase, abs=1e-12)
    mags = np.abs(sol.v_abc)
    np.testing.assert_allclose(mags[:, 0], mags[:, 1], atol=1e-8)
    np.testing.assert_allclose(mags[:, 0], mags[:, 2], atol=1e-8)
    assert sol.method == "HC model"


def test_unbalanced_load_fixture_breaks_phase_symmetry():
    net3 = parse_case3(fixture_text("8bus_unbalanced_load.case3"))
    sol = solve_unbalanced_hc(net3, ConstraintSet())
    assert sol.method == "sequence load current"
    assert np.abs(sol.v0).max() > 1e-4
    assert np.abs(sol.v2).max() > 1e-4
    mags = np.abs(sol.v_abc)
    assert np.max(np.abs(mags[:, 0] - mags[:, 1])) > 1e-4


def test_untransposed_fixture_routes_to_line_model():
    net3 = parse_case3(fixture_text("8bus_untransposed.case3"))
    sol = solve_unbalanced_hc(net3, ConstraintSet())
    assert sol.method == "sequence line model"
    assert 0 < sol.coupling <= 0.05


def test_zero_injections_recombine_to_pure_positive():
    net3 = parse_case3(fixture_text("8bus_balanced.case3"))
    sol = solve_unbalanced_hc(net3, ConstraintSet())
    expected = np.stack([sol.v1 * TRANSFORM[p, 1] for p in range(3)], axis=1)
    np.testing.assert_allclose(sol.v_abc, expected, atol=1e-9)


def test_strong_coupling_is_refused():
    z = np.array(
        [
            [0.06 + 0.012j, 0.00 + 0.0j, 0.05 + 0.01j],
            [0.00 + 0.0j, 0.06 + 0.012j, 0.01 + 0.002j],
            [0.05 + 0.01j, 0.01 + 0.002j, 0.06 + 0.012j],
        ]
    )
    net3 = two_bus_net3(ThreePhaseBranch(from_bus=0, to_bus=1, z=z))
    with pytest.raises(DecouplingError) as err:
        solve_unbalanced_hc(net3, ConstraintSet())
    assert err.value.coupling > 0.05


def test_positive_sequence_network_recovers_line_impedance():
    net3 = parse_case3(fixture_text("8bus_balanced.case3"))
    pos = positive_sequence_network(net3)
    ref = load_fixture("8bus.case")
    for a, b in zip(pos.branches, ref.branches):
        assert a.r == pytest.approx(b.r, abs=1e-12)
        assert a.x == pytest.approx(b.x, abs=1e-12)
        assert a.thermal_limit == b.thermal_limit
