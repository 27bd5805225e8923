"""Network model: parsing, admittance assembly, BFS tree and depth parity."""

from dataclasses import replace

import numpy as np
import pytest

from hostcap.netmodel import (
    Branch,
    Bus,
    BusKind,
    CaseFormatError,
    Network,
    TopologyError,
    bfs_tree,
    build_ybus,
    parse_case,
    serialize_case,
)
from hostcap.powerflow import bus_injections
from hostcap.sequence import parse_case3

from conftest import FIXTURE_DIR, load_fixture

THREE_BUS = """
BASE 1.0 12.47
BUS 0 slack 0 0 0
BUS 1 gen 0 0 1
BUS 2 gen 0 0 1
BRANCH 0 1 1 0
BRANCH 1 2 1 0
"""


def test_parse_three_bus_chain():
    net = parse_case(THREE_BUS)
    assert net.n == 3
    assert len(net.branches) == 2
    assert net.slack_index == 0
    assert [b.kind for b in net.buses] == [BusKind.SLACK, BusKind.GEN, BusKind.GEN]
    assert list(net.lam) == [0.0, 1.0, 1.0]


def test_parse_rejects_two_slacks():
    text = THREE_BUS.replace("BUS 1 gen", "BUS 1 slack")
    with pytest.raises(CaseFormatError, match="multiple slack"):
        parse_case(text)


def test_parse_rejects_missing_slack():
    text = THREE_BUS.replace("BUS 0 slack", "BUS 0 gen")
    with pytest.raises(CaseFormatError, match="missing slack"):
        parse_case(text)


def test_parse_rejects_duplicate_bus():
    text = THREE_BUS + "BUS 2 load 0 0 1\n"
    with pytest.raises(CaseFormatError, match="duplicate bus id"):
        parse_case(text)


def test_parse_rejects_disconnected_graph():
    text = """
    BASE 1 1
    BUS 0 slack 0 0 0
    BUS 1 gen 0 0 1
    BUS 2 gen 0 0 1
    BUS 3 gen 0 0 1
    BRANCH 0 1 1 0
    BRANCH 2 3 1 0
    """
    with pytest.raises(TopologyError, match="non-connected"):
        parse_case(text)


def test_parse_rejects_garbage():
    with pytest.raises(CaseFormatError):
        parse_case("BASE 1 1\nBUS zero slack 0 0 0\n")
    with pytest.raises(CaseFormatError):
        parse_case("BASE 1 1\nFROB 0 1\n")
    # both case formats share the BASE and LIMITS records and their checks
    for parse in (parse_case, parse_case3):
        with pytest.raises(CaseFormatError, match="BASE takes <MVA> <kV>"):
            parse("BASE 1 1 7\n")
        with pytest.raises(CaseFormatError, match="LIMITS takes"):
            parse("BASE 1 1\nLIMITS 0.95\n")
        with pytest.raises(CaseFormatError, match="line 3: LIMITS takes"):  # a later record is checked too
            parse("BASE 1 1\nLIMITS 0.95 1.05\nLIMITS 0.95\n")
    # a branch to a missing bus is refused by both network types, with one message
    with pytest.raises(CaseFormatError, match="branch 0-9: unknown bus id"):
        parse_case("BASE 1 1\nBUS 0 slack 0 0 0\nBUS 1 gen 0 0 1\nBRANCH 0 9 0.1 0.1\n")
    with pytest.raises(CaseFormatError, match="branch 0-9: unknown bus id"):
        parse_case3(
            "BASE 1 1\nBUS3 0 slack 0 0 0 0 0 0 0\nBUS3 1 gen 0 0 0 0 0 0 1\n"
            "BRANCH3 0 9 0.1 0.1 0 0 0 0 0 0 0.1 0.1 0 0 0 0 0 0 0.1 0.1\n"
        )



@pytest.mark.parametrize("limit", ["0", "-1"])
@pytest.mark.parametrize("name, parse", [("8bus.case", parse_case), ("8bus_balanced.case3", parse_case3)])
def test_thermal_limit_must_be_positive_in_both_formats(name, parse, limit):
    lines = (FIXTURE_DIR / name).read_text().splitlines()
    # the first branch record that carries a limit C, its last token
    lineno, toks = next(
        (i, line.split()) for i, line in enumerate(lines, 1) if line.startswith("BRANCH") and len(line.split()) in (6, 22)
    )
    lines[lineno - 1] = " ".join(toks[:-1] + [limit])
    with pytest.raises(CaseFormatError, match=f"^line {lineno}: thermal limit must be positive$"):
        parse("\n".join(lines))


def test_parse_eight_bus_fixture():
    net = load_fixture("8bus.case")
    assert net.n == 8
    assert len(net.branches) == 7
    assert net.is_radial()
    limits = [br.thermal_limit for br in net.branches]
    assert limits.count(1.2) == 2


def test_ybus_three_bus_chain():
    g_expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    ybus = build_ybus(parse_case(THREE_BUS))
    np.testing.assert_allclose(ybus.real, g_expected, atol=1e-15)
    np.testing.assert_allclose(ybus.imag, 0.0, atol=1e-15)


def test_ybus_single_reactive_branch():
    net = Network(
        buses=(Bus(0, BusKind.SLACK), Bus(1, BusKind.LOAD)),
        branches=(Branch(0, 1, 0.0, 0.1),),
    )
    expected = np.array([[-10j, 10j], [10j, -10j]])
    np.testing.assert_allclose(build_ybus(net), expected, atol=1e-12)


def test_zero_impedance_branch_rejected():
    with pytest.raises(ValueError, match="zero-impedance"):
        Branch(0, 1, 0.0, 0.0)


@pytest.mark.parametrize(
    "name",
    ["3bus.case", "4bus.case", "4bus_star.case", "5bus.case", "8bus.case", "123bus.case"],
)
def test_ybus_symmetric_and_zero_row_sums(name):
    ybus = build_ybus(load_fixture(name))
    np.testing.assert_allclose(ybus, ybus.T, atol=1e-12)
    # no shunts in these fixtures, so every row must cancel exactly
    np.testing.assert_allclose(ybus.sum(axis=1), 0.0, atol=1e-12)


def test_shunt_folded_into_diagonal():
    text = THREE_BUS + "SHUNT 1 0.5 -0.25\n"
    net = parse_case(text)
    base = parse_case(THREE_BUS)
    delta = build_ybus(net) - build_ybus(base)
    assert delta[1, 1] == pytest.approx(0.5 - 0.25j)
    assert abs(delta).sum() == pytest.approx(abs(delta[1, 1]))


def test_bus_injections_match_the_dense_ybus():
    rng = np.random.default_rng(20261018)
    texts = [path.read_text() for path in sorted(FIXTURE_DIR.glob("*.case"))]
    texts.append(THREE_BUS + "SHUNT 1 0.5 -0.25\n")  # no fixture carries a shunt
    for text in texts:
        net = parse_case(text)
        ybus = build_ybus(net)
        v = rng.uniform(0.9, 1.1, (5, net.n)) * np.exp(1j * rng.uniform(-0.1, 0.1, (5, net.n)))
        for state in v:
            dense = state * np.conj(ybus @ state)
            np.testing.assert_allclose(bus_injections(net, state), dense, rtol=0, atol=1e-12)
        dense = v * np.conj(v @ ybus.T)  # a (k, n) batch
        np.testing.assert_allclose(bus_injections(net, v), dense, rtol=0, atol=1e-12)
        assert not hasattr(net, "ybus")  # and the network keeps no dense copy


def test_parity_chain():
    assert list(bfs_tree(parse_case(THREE_BUS))[1] % 2) == [0, 1, 0]


def test_parity_star():
    assert list(bfs_tree(load_fixture("4bus_star.case"))[1] % 2) == [0, 1, 1, 1]


@pytest.mark.parametrize(
    "name",
    ["3bus.case", "4bus.case", "4bus_star.case", "5bus.case", "8bus.case", "123bus.case"],
)
def test_parity_is_proper_two_coloring(name):
    net = load_fixture(name)
    par = bfs_tree(net)[1] % 2
    for br in net.branches:
        assert par[br.from_bus] != par[br.to_bus]


def test_parity_rejects_cycle():
    text = THREE_BUS + "BRANCH 0 2 1 0\n"
    net = parse_case(text)  # connected, but meshed
    with pytest.raises(TopologyError, match="non-radial"):
        bfs_tree(net)


@pytest.mark.parametrize("name", ["3bus.case", "8bus.case", "123bus.case"])
def test_serialize_round_trip_full_precision(name):
    net = load_fixture(name)
    back = parse_case(serialize_case(net))
    assert back.n == net.n
    for a, b in zip(net.buses, back.buses):
        assert (a.id, a.kind, a.load_p, a.load_q, a.lam) == (b.id, b.kind, b.load_p, b.load_q, b.lam)
    for a, b in zip(net.branches, back.branches):
        assert (a.from_bus, a.to_bus, a.r, a.x, a.thermal_limit) == (
            b.from_bus,
            b.to_bus,
            b.r,
            b.x,
            b.thermal_limit,
        )
    np.testing.assert_array_equal(build_ybus(net), build_ybus(back))


def test_limits_record_round_trips_to_cli_defaults():
    text = THREE_BUS + "LIMITS 0.9 1.1 0.05 0.97\n"
    parsed = parse_case(text).case_limits
    assert parsed == {"v_min": 0.9, "v_max": 1.1, "theta_max": 0.05, "eta": 0.97}
    assert parse_case(THREE_BUS).case_limits is None
    net = parse_case(text)  # LIMITS is metadata; the network itself is unchanged
    assert net.n == 3
    assert parse_case(serialize_case(net)).case_limits == parsed
    assert parse_case(text + "LIMITS 0.8 1.2\n").case_limits == parsed  # the first record counts


@pytest.mark.parametrize("limits", [
    {"v_max": 1.1, "v_min": 0.9},
    {"eta": 0.97, "theta_max": 0.05, "v_max": 1.1, "v_min": 0.9},
    {"v_min": 0.9, "theta_max": 0.05, "v_max": 1.1},
])
def test_limits_are_written_in_the_record_order(limits):
    net = replace(parse_case(THREE_BUS), case_limits=limits)
    back = parse_case(serialize_case(net)).case_limits
    assert back == limits
    assert list(back) == ["v_min", "v_max", "theta_max", "eta"][: len(limits)]


@pytest.mark.parametrize("limits", [
    {"v_min": 0.9, "v_max": 1.1, "eta": 0.9},  # a gap: it would parse back as theta_max
    {"v_min": 0.9, "theta_max": 0.05},
    {"v_min": 0.9},
    {},
    {"v_min": 0.9, "v_max": 1.1, "theta": 0.05},
    {"v_min": 0.9, "v_max": 1.1, "theta_max": 0.05, "eta": 0.9, "extra": 1.0},
])
def test_limits_the_record_cannot_express_are_refused(limits):
    net = replace(parse_case(THREE_BUS), case_limits=limits)
    with pytest.raises(ValueError, match="a LIMITS record takes v_min, v_max"):
        serialize_case(net)


def test_shunt_round_trip():
    text = THREE_BUS + "SHUNT 1 0.5 -0.25\n"
    net = parse_case(text)
    back = parse_case(serialize_case(net))
    assert back.shunts == net.shunts
    np.testing.assert_array_equal(build_ybus(net), build_ybus(back))
