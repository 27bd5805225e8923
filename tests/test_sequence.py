"""Symmetrical components: transforms, sequence matrices, unbalanced solve."""

import numpy as np
import pytest

from hostcap.hccore import ConstraintSet, solve_hc
from hostcap.powerflow import VoltageState
from hostcap.sequence import (
    ALPHA,
    TRANSFORM,
    TRANSFORM_INV,
    DecouplingError,
    PhaseVector,
    ThreePhaseBranch,
    ThreePhaseBus,
    ThreePhaseNetwork,
    build_ybus3,
    from_sequence,
    parse_case3,
    positive_sequence_network,
    sequence_ybus,
    solve_unbalanced_hc,
    to_sequence,
    unbalance_currents,
)
from hostcap.netmodel import BusKind

from conftest import fixture_text, load_fixture

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
