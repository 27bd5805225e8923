"""Every parse error of the ``.case`` and ``.case3`` formats, with its exact message.

Each row edits one line of a small valid case (a line emptied with ``""``
keeps the numbers of the lines after it) and names the exception type and
message the parser must raise.  A row whose type is ``None`` pins an input
that parses.
"""

import numpy as np
import pytest

from hostcap.cli import main
from hostcap.netmodel import Branch, Bus, BusKind, CaseFormatError, Network, TopologyError, parse_case
from hostcap.sequence import ThreePhaseBranch, ThreePhaseBus, ThreePhaseNetwork, parse_case3

S3 = "0.1 0.05 0.1 0.05 0.1 0.05"  # bus 1's phase loads
Z = "0.03 0.06 0.01 0.02 0.01 0.02 0.01 0.02 0.03 0.06 0.01 0.02 0.01 0.02 0.01 0.02 0.03 0.06"

FORMATS = {
    "case": (
        parse_case,
        (
            "BASE 1 12.47",
            "BUS 0 slack 0 0 0",
            "BUS 1 gen 0.1 0.05 1",
            "BUS 2 load 0.2 0.1 1",
            "BRANCH 0 1 0.01 0.02 1.5",
            "BRANCH 1 2 0.01 0.02",
            "SHUNT 2 0 0.1",
        ),
    ),
    "case3": (
        parse_case3,
        (
            "BASE 1 12.47",
            "BUS3 0 slack 0 0 0 0 0 0 0",
            f"BUS3 1 gen {S3} 1",
            "BUS3 2 load 0.2 0.1 0.2 0.1 0.2 0.1 1",
            f"BRANCH3 0 1 {Z} 1.5",
            f"BRANCH3 1 2 {Z}",
        ),
    ),
}

BUS_USAGE = "line 3: BUS takes <id> <kind> <Pload> <Qload> <lambda>"
BUS3_USAGE = "line 3: BUS3 takes <id> <kind> <Pa Qa Pb Qb Pc Qc> <lambda>"
BRANCH_USAGE = "line 5: BRANCH takes <from> <to> <r> <x> [C]"
BRANCH3_USAGE = "line 5: BRANCH3 takes <from> <to> + 18 impedance reals [C]"
LIMITS_USAGE = "line 8: LIMITS takes <vmin> <vmax> [theta_max] [eta]"
CONTIGUOUS = "bus ids must be contiguous integers starting at 0"
HUGE = "99999999999999999999"  # beyond int64
FMT, VAL, TOPO = CaseFormatError, ValueError, TopologyError

ROWS = [
    # BASE
    ("base-arity", "case", {1: "BASE 1"}, FMT, "line 1: BASE takes <MVA> <kV>"),
    ("base3-arity", "case3", {1: "BASE 1 12.47 7"}, FMT, "line 1: BASE takes <MVA> <kV>"),
    ("base-number", "case", {1: "BASE x 12.47"}, FMT, "line 1: base MVA is not a number: 'x'"),
    ("base3-kv-nan", "case3", {1: "BASE 1 nan"}, FMT, "line 1: base kV must be finite: 'nan'"),
    ("base-inf", "case", {1: "BASE inf 12.47"}, FMT, "line 1: base MVA must be finite: 'inf'"),
    ("base-missing", "case", {1: ""}, FMT, "missing BASE header"),
    ("base3-missing", "case3", {1: ""}, FMT, "missing BASE header"),
    # LIMITS
    ("limits-arity", "case", {8: "LIMITS 0.95"}, FMT, LIMITS_USAGE),
    ("limits3-arity", "case3", {8: "LIMITS 0.9 1.1 0 0.9 7"}, FMT, LIMITS_USAGE),
    ("limits-number", "case", {8: "LIMITS 0.95 x"}, FMT, "line 8: limit is not a number: 'x'"),
    ("limits3-nan", "case3", {8: "LIMITS 0.95 1.05 nan"}, FMT, "line 8: limit must be finite: 'nan'"),
    ("limits-later-inf", "case", {8: "LIMITS 0.95 1.05", 9: "LIMITS 0.95 inf"}, FMT, "line 9: limit must be finite: 'inf'"),
    # BUS / BUS3
    ("bus-arity", "case", {3: "BUS 1 gen 0.1 0.05"}, FMT, BUS_USAGE),
    ("bus3-arity", "case3", {3: f"BUS3 1 gen {S3}"}, FMT, BUS3_USAGE),
    ("bus-id", "case", {3: "BUS 1.0 gen 0.1 0.05 1"}, FMT, "line 3: bus id is not an integer: '1.0'"),
    ("bus3-id", "case3", {3: f"BUS3 b1 gen {S3} 1"}, FMT, "line 3: bus id is not an integer: 'b1'"),
    ("bus-kind", "case", {3: "BUS 1 pv 0.1 0.05 1"}, FMT, "line 3: unknown bus kind 'pv'"),
    ("bus3-kind", "case3", {3: f"BUS3 1 pq {S3} 1"}, FMT, "line 3: unknown bus kind 'pq'"),
    ("bus-duplicate", "case", {4: "BUS 1 load 0.2 0.1 1"}, FMT, "line 4: duplicate bus id 1"),
    ("bus3-duplicate", "case3", {4: "BUS3 1 load 0.2 0.1 0.2 0.1 0.2 0.1 1"}, FMT, "line 4: duplicate bus id 1"),
    ("bus-number", "case", {3: "BUS 1 gen x 0.05 1"}, FMT, "line 3: Pload is not a number: 'x'"),
    ("bus3-number", "case3", {3: "BUS3 1 gen 0.1 0.05 0.1 x 0.1 0.05 1"}, FMT, "line 3: phase load is not a number: 'x'"),
    ("bus-nan", "case", {3: "BUS 1 gen 0.1 nan 1"}, FMT, "line 3: Qload must be finite: 'nan'"),
    ("bus-lambda-inf", "case", {3: "BUS 1 gen 0.1 0.05 inf"}, FMT, "line 3: lambda must be finite: 'inf'"),
    ("bus3-inf", "case3", {3: "BUS3 1 gen 0.1 0.05 0.1 0.05 -inf 0.05 1"}, FMT, "line 3: phase load must be finite: '-inf'"),
    ("bus3-lambda-nan", "case3", {3: f"BUS3 1 gen {S3} nan"}, FMT, "line 3: lambda must be finite: 'nan'"),
    ("bus-negative-lambda", "case", {3: "BUS 1 gen 0.1 0.05 -1"}, FMT, "line 3: bus 1: lambda must be non-negative"),
    ("bus3-negative-lambda", "case3", {3: f"BUS3 1 gen {S3} -1"}, FMT, "line 3: bus 1: lambda must be non-negative"),
    # BRANCH / BRANCH3
    ("branch-arity-short", "case", {5: "BRANCH 0 1 0.01"}, FMT, BRANCH_USAGE),
    ("branch-arity-long", "case", {5: "BRANCH 0 1 0.01 0.02 1.5 7"}, FMT, BRANCH_USAGE),
    ("branch3-arity-long", "case3", {5: f"BRANCH3 0 1 {Z} 1.5 7"}, FMT, BRANCH3_USAGE),
    ("branch3-arity-short", "case3", {5: f"BRANCH3 0 {Z}"}, FMT, BRANCH3_USAGE),
    ("branch-from", "case", {5: "BRANCH a 1 0.01 0.02 1.5"}, FMT, "line 5: from bus is not an integer: 'a'"),
    ("branch3-to", "case3", {5: f"BRANCH3 0 1.5 {Z} 1.5"}, FMT, "line 5: to bus is not an integer: '1.5'"),
    ("branch-number", "case", {5: "BRANCH 0 1 x 0.02 1.5"}, FMT, "line 5: r is not a number: 'x'"),
    ("branch3-number", "case3", {5: f"BRANCH3 0 1 0.03 x {Z[10:]}"}, FMT, "line 5: impedance is not a number: 'x'"),
    ("branch-nan", "case", {5: "BRANCH 0 1 0.01 nan 1.5"}, FMT, "line 5: x must be finite: 'nan'"),
    ("branch3-inf", "case3", {5: f"BRANCH3 0 1 {Z[:10]} inf {Z[15:]}"}, FMT, "line 5: impedance must be finite: 'inf'"),
    ("branch-limit-number", "case", {5: "BRANCH 0 1 0.01 0.02 x"}, FMT, "line 5: thermal limit is not a number: 'x'"),
    ("branch3-limit-inf", "case3", {5: f"BRANCH3 0 1 {Z} inf"}, FMT, "line 5: thermal limit must be finite: 'inf'"),
    ("branch-limit-zero", "case", {5: "BRANCH 0 1 0.01 0.02 0"}, FMT, "line 5: thermal limit must be positive"),
    ("branch3-limit-negative", "case3", {5: f"BRANCH3 0 1 {Z} -1"}, FMT, "line 5: thermal limit must be positive"),
    ("branch-self-loop", "case", {5: "BRANCH 1 1 0.01 0.02 1.5"}, FMT, "line 5: branch 1-1: self loop"),
    ("branch-negative-r", "case", {5: "BRANCH 0 1 -0.01 0.02 1.5"}, FMT, "line 5: branch 0-1: negative resistance"),
    ("branch-zero-impedance", "case", {5: "BRANCH 0 1 0 0 1.5"}, FMT, "line 5: branch 0-1: zero-impedance branch"),
    # a BRANCH3 block is checked by the solve, not by the parser
    ("branch3-self-loop", "case3", {5: f"BRANCH3 1 1 {Z} 1.5"}, None, None),
    ("branch3-negative-r", "case3", {5: f"BRANCH3 0 1 {Z.replace('0.03', '-0.03')} 1.5"}, None, None),
    ("branch3-zero-impedance", "case3", {5: "BRANCH3 0 1" + " 0" * 18}, None, None),
    # SHUNT, a .case-only record
    ("shunt-arity", "case", {7: "SHUNT 2 0"}, FMT, "line 7: SHUNT takes <bus> <g> <b>"),
    ("shunt-id", "case", {7: "SHUNT two 0 0.1"}, FMT, "line 7: bus id is not an integer: 'two'"),
    ("shunt-number", "case", {7: "SHUNT 2 x 0.1"}, FMT, "line 7: g is not a number: 'x'"),
    ("shunt-inf", "case", {7: "SHUNT 2 0 inf"}, FMT, "line 7: b must be finite: 'inf'"),
    ("shunt-unknown-bus", "case", {7: "SHUNT 9 0 0.1"}, FMT, "line 7: SHUNT references unknown bus 9"),
    ("shunt-in-case3", "case3", {7: "SHUNT 2 0 0.1"}, FMT, "line 7: unknown record 'SHUNT'"),
    # the network
    ("unknown-branch-end", "case", {6: "BRANCH 1 9 0.01 0.02"}, FMT, "branch 1-9: unknown bus id"),
    ("unknown-branch3-end", "case3", {6: f"BRANCH3 9 2 {Z}"}, FMT, "branch 9-2: unknown bus id"),
    # an end beyond int64 is named exactly, like any other unknown end
    ("huge-branch-end", "case", {6: f"BRANCH 1 {HUGE} 0.01 0.02"}, FMT, f"branch 1-{HUGE}: unknown bus id"),
    ("huge-negative-branch-end", "case", {6: f"BRANCH -{HUGE} 2 0.01 0.02"}, FMT, f"branch -{HUGE}-2: unknown bus id"),
    ("huge-branch3-end", "case3", {6: f"BRANCH3 1 {HUGE} {Z}"}, FMT, f"branch 1-{HUGE}: unknown bus id"),
    ("huge-negative-branch3-end", "case3", {6: f"BRANCH3 1 -{HUGE} {Z}"}, FMT, f"branch 1--{HUGE}: unknown bus id"),
    ("huge-end-after-a-faulty-branch", "case", {5: "BRANCH 0 1 -0.01 0.02 1.5", 6: f"BRANCH 1 {HUGE} 0.01 0.02"},
     FMT, "line 5: branch 0-1: negative resistance"),
    ("huge-self-loop", "case", {6: f"BRANCH {HUGE} {HUGE} 0.01 0.02"}, FMT, f"line 6: branch {HUGE}-{HUGE}: self loop"),
    ("missing-slack", "case", {2: "BUS 0 load 0 0 0"}, FMT, "missing slack bus"),
    ("missing-slack3", "case3", {2: "BUS3 0 gen 0 0 0 0 0 0 0"}, FMT, "missing slack bus"),
    ("multiple-slacks", "case", {4: "BUS 2 slack 0.2 0.1 1"}, FMT, "multiple slack buses: [0, 2]"),
    ("multiple-slacks3", "case3", {3: f"BUS3 1 slack {S3} 1"}, FMT, "multiple slack buses: [0, 1]"),
    ("ids-not-from-0", "case", {4: "BUS 3 load 0.2 0.1 1"}, FMT, CONTIGUOUS),
    ("ids3-not-from-0", "case3", {2: ""}, FMT, CONTIGUOUS),
    ("no-bus", "case", {2: "", 3: "", 4: ""}, FMT, "no BUS records"),
    ("no-bus3", "case3", {2: "", 3: "", 4: ""}, FMT, "no BUS records"),
    ("disconnected", "case", {6: ""}, TOPO, "non-connected graph"),
    ("disconnected3", "case3", {6: ""}, None, None),  # the sequence solve walks the positive network, which checks
    ("unknown-record", "case", {8: "FROB 1 2"}, FMT, "line 8: unknown record 'FROB'"),
    ("bus3-in-case", "case", {3: f"BUS3 1 gen {S3} 1"}, FMT, "line 3: unknown record 'BUS3'"),
    ("bus-in-case3", "case3", {3: "BUS 1 gen 0.1 0.05 1"}, FMT, "line 3: unknown record 'BUS'"),
]


def edited(lines, edits):
    out = list(lines) + [""] * (max(edits) - len(lines))
    for lineno, text in edits.items():
        out[lineno - 1] = text
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("fmt", FORMATS)
def test_the_unedited_cases_parse(fmt):
    parse, lines = FORMATS[fmt]
    assert parse("\n".join(lines)).n == 3


@pytest.mark.parametrize("fmt, edits, error, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_parse_error(fmt, edits, error, message):
    parse, lines = FORMATS[fmt]
    text = edited(lines, edits)
    if error is None:
        parse(text)
        return
    with pytest.raises(error) as info:
        parse(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_negative_lambda_of_a_case3_is_an_input_error(tmp_path, capsys):
    lines = FORMATS["case3"][1]
    case = tmp_path / "neg.case3"
    case.write_text(edited(lines, {3: f"BUS3 1 gen {S3} -1"}))
    assert main(["unbalanced", str(case)]) == 1
    assert capsys.readouterr().err == "error: line 3: bus 1: lambda must be non-negative\n"


@pytest.mark.parametrize("sign", ["", "-"], ids=["huge", "huge-negative"])
@pytest.mark.parametrize("fmt, command, branch", [("case", "solve", "BRANCH 0 {} 0.1 0.1"),
                                                  ("case3", "unbalanced", "BRANCH3 0 {} " + Z)], ids=["case", "case3"])
def test_a_branch_end_beyond_int64_is_an_input_error(tmp_path, capsys, fmt, command, branch, sign):
    case = tmp_path / f"huge.{fmt}"
    case.write_text(edited(FORMATS[fmt][1], {6: branch.format(sign + HUGE)}))
    assert main([command, str(case)]) == 1
    assert capsys.readouterr().err == f"error: branch 0-{sign}{HUGE}: unknown bus id\n"


@pytest.mark.parametrize("sign", ["", "-"], ids=["huge", "huge-negative"])
@pytest.mark.parametrize("records", ["case", "case3"])
def test_a_record_branch_end_beyond_int64_is_a_bus_id_error(records, sign):
    end = int(sign + HUGE)
    with pytest.raises(ValueError) as info:
        if records == "case":
            Network(buses=(Bus(0, BusKind.SLACK), Bus(1, BusKind.LOAD)), branches=(Branch(0, end, 0.1, 0.1),))
        else:
            ThreePhaseNetwork(buses=(ThreePhaseBus(0, BusKind.SLACK), ThreePhaseBus(1, BusKind.LOAD)),
                              branches=(ThreePhaseBranch(0, end, np.eye(3)),))
    assert type(info.value) is ValueError
    assert str(info.value) == f"branch 0-{sign}{HUGE}: unknown bus id"
