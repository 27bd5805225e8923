"""The case readers fill the networks' columns straight from the text.

A parsed network must be bitwise the one ``Network(buses, branches, ...)``
derives from the same records, which a plain reader in this file builds; its
own records are built from the columns on first access.  The solve paths
build no record at all.  A case with two faults reports the one on the
earlier line, whichever record kinds they are.
"""

import random

import numpy as np
import pytest

from hostcap.cli import main
from hostcap.hccore import ConstraintSet
from hostcap.netmodel import Branch, Bus, BusKind, CaseFormatError, Network, parse_case, serialize_case
from hostcap.oracle import incremental_screening
from hostcap.sequence import PhaseVector, ThreePhaseBranch, ThreePhaseBus, ThreePhaseNetwork, parse_case3

from conftest import FIXTURE_DIR, fixture_text, load_fixture

CASES = sorted(p.name for p in FIXTURE_DIR.glob("*.case"))
CASES3 = sorted(p.name for p in FIXTURE_DIR.glob("*.case3"))
SEEDS = range(16)
ARRAYS = ("loads", "lam", "free", "gens", "branch_from", "branch_to", "branch_child", "branch_z", "branch_y",
          "branch_limit", "parents", "depths", "order")
ARRAYS3 = ("loads", "lam", "gens", "branch_from", "branch_to", "branch_z", "branch_limit")


def reference_network(text: str):
    """The network of a valid case text, built from records by a plain line-by-line reader."""
    buses, branches, base, limits, shunts = {}, [], None, None, {}
    three = False
    for raw in text.splitlines():
        toks = raw.split("#")[0].split()
        if not toks:
            continue
        rec, vals = toks[0].upper(), toks[1:]
        if rec == "BASE":
            base = [float(v) for v in vals]
        elif rec == "LIMITS":
            limits = limits or dict(zip(("v_min", "v_max", "theta_max", "eta"), map(float, vals)))
        elif rec == "SHUNT":
            shunts[int(vals[0])] = shunts.get(int(vals[0]), 0j) + complex(float(vals[1]), float(vals[2]))
        elif rec == "BUS":
            buses[int(vals[0])] = Bus(int(vals[0]), BusKind(vals[1].lower()), *map(float, vals[2:]))
        elif rec == "BRANCH":
            limit = float(vals[4]) if len(vals) > 4 else None
            branches.append(Branch(int(vals[0]), int(vals[1]), float(vals[2]), float(vals[3]), limit))
        elif rec == "BUS3":
            three = True
            s = [complex(float(p), float(q)) for p, q in zip(vals[2:8:2], vals[3:8:2])]
            buses[int(vals[0])] = ThreePhaseBus(int(vals[0]), BusKind(vals[1].lower()), PhaseVector(*s), float(vals[8]))
        elif rec == "BRANCH3":
            z = np.array([float(v) for v in vals[2:20]]).view(complex).reshape(3, 3)
            limit = float(vals[20]) if len(vals) > 20 else None
            branches.append(ThreePhaseBranch(int(vals[0]), int(vals[1]), z, limit))
    records = tuple(buses[i] for i in range(len(buses))), tuple(branches)
    if three:
        return ThreePhaseNetwork(*records, *base, case_limits=limits)
    vec = tuple(shunts.get(i, 0j) for i in range(len(buses))) if shunts else None
    return Network(*records, *base, shunts=vec, case_limits=limits)


def seeded_text(seed: int, three_phase: bool = False) -> str:
    """A random tree's case text: BUS records out of order and among the branches, mixed-case
    record names and kinds, comments, two BASE and two LIMITS records, a slack not always at
    bus 0, limited and unlimited branches written either way and, in .case, SHUNT records."""
    rng = random.Random(seed)
    n = rng.randrange(2, 30)
    slack = 0 if seed % 4 == 0 else rng.randrange(n)
    suffix = "3" if three_phase else ""

    def real():
        return repr(rng.choice([0.0, -0.0, round(rng.uniform(0, 0.2), 3), rng.uniform(1e-3, 0.5)]))

    def name(rec):
        return rng.choice([rec, rec.lower(), rec.title()])

    lines = ["# seeded feeder", "BASE 1 1", f"{name('limits')} 0.9 1.1 0.01", "BASE 2.5 12.47   # the last BASE counts"]
    for b in range(n):
        kind = "slack" if b == slack else rng.choice(["gen", "load", "GEN", "Load"])
        loads = " ".join(real() for _ in range(6 if three_phase else 2))
        lines.append(f"{name('BUS' + suffix)} {b} {kind} {loads} {rng.choice(['0', '1', '0.5', '1e-3'])}")
    for k in range(1, n):
        i, j = rng.randrange(k), k
        i, j = (j, i) if rng.random() < 0.5 else (i, j)
        if three_phase:
            z = " ".join(repr(rng.uniform(0.001, 0.1)) for _ in range(18))
        else:
            z = f"{rng.uniform(0, 0.1)!r} {rng.uniform(0.001, 0.1)!r}"
        limit = f" {rng.uniform(0.5, 3.0)!r}" if rng.random() < 0.5 else ""
        comment = "  # a branch" if rng.random() < 0.2 else ""
        lines.append(f"{name('BRANCH' + suffix)} {i} {j} {z}{limit}{comment}")
    if not three_phase:
        lines += [f"{name('SHUNT')} {rng.randrange(n)} {real()} {real()}" for _ in range(rng.randrange(3))]
    lines.append("LIMITS 0.8 1.2  # the first LIMITS counts")
    head, body = lines[:4], lines[4:]
    rng.shuffle(body)
    return "\n".join(head + body) + "\n"


def assert_same(net, ref, arrays, shunts=repr):
    for name in arrays:
        a, b = getattr(net, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert not a.flags.writeable, name
    assert net.slack_index == ref.slack_index and type(net.slack_index) is int
    assert (net.base_mva, net.base_kv, net.slack_vm, net.case_limits) == (ref.base_mva, ref.base_kv, ref.slack_vm, ref.case_limits)
    assert shunts(getattr(net, "shunts", None)) == shunts(getattr(ref, "shunts", None))
    # the records built on first access, field by field (repr tells -0.0 from 0.0)
    assert repr(net.buses) == repr(ref.buses)
    if isinstance(net, Network):
        assert repr(net.branches) == repr(ref.branches)
    else:
        assert [(br.from_bus, br.to_bus, br.z.tobytes(), br.thermal_limit) for br in net.branches] == [
            (br.from_bus, br.to_bus, br.z.tobytes(), br.thermal_limit) for br in ref.branches
        ]


TEXTS = [fixture_text(name) for name in CASES] + [seeded_text(seed) for seed in SEEDS]
TEXTS3 = [fixture_text(name) for name in CASES3] + [seeded_text(seed, True) for seed in SEEDS]
IDS = CASES + [f"seeded-{seed}" for seed in SEEDS]
IDS3 = CASES3 + [f"seeded-{seed}" for seed in SEEDS]


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_parse_case_is_bitwise_the_network_of_the_records(text):
    net, ref = parse_case(text), reference_network(text)
    assert_same(net, ref, ARRAYS)
    # 1/complex(r, x) per branch: numpy's 1/(r + 1j*x) differs from it in the last bit on some branches
    assert net.branch_y.tobytes() == np.array([br.series_admittance for br in ref.branches], dtype=complex).tobytes()


@pytest.mark.parametrize("text", TEXTS3, ids=IDS3)
def test_parse_case3_is_bitwise_the_network_of_the_records(text):
    assert_same(parse_case3(text), reference_network(text), ARRAYS3)


def test_the_seeded_texts_cover_every_feature():
    texts = [seeded_text(seed) for seed in SEEDS]
    nets = [parse_case(text) for text in texts]
    assert any(net.slack_index != 0 for net in nets)
    assert any(np.isinf(net.branch_limit).any() and np.isfinite(net.branch_limit).any() for net in nets)
    assert any(net.shunts is not None for net in nets)
    assert any("bus " in text and "branch " in text for text in texts)  # lowercase record names
    assert all(net.base_mva == 2.5 and net.case_limits["v_min"] == 0.9 for net in nets)
    rows = [[ln.split()[:2] for ln in text.splitlines() if ln.upper().startswith(("BUS ", "BRANCH "))] for text in texts]
    recs = [[rec.upper() for rec, _ in row] for row in rows]
    assert sum(rec.index("BRANCH") < len(rec) - 1 - rec[::-1].index("BUS") for rec in recs) > len(texts) // 2
    bus_ids = [[int(b) for rec, b in row if rec.upper() == "BUS"] for row in rows]
    assert sum(ids != sorted(ids) for ids in bus_ids) > len(texts) // 2


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_serialize_case_round_trips(text):
    net = parse_case(text)
    back = parse_case(serialize_case(net))
    assert_same(back, net, ARRAYS, shunts=lambda vec: [s for s in vec or [] if s != 0])  # zero shunts are not written
    assert serialize_case(back) == serialize_case(net)


# one faulty line of each record kind, with the message it raises at line {n}
FAULTS = {
    "BUS": ("BUS 3 gen 0.1 x 1", "line {n}: Qload is not a number: 'x'"),
    "BUS lambda": ("BUS 3 gen 0.1 0.05 -1", "line {n}: bus 3: lambda must be non-negative"),
    "BRANCH": ("BRANCH 0 1 0.01 0.02 -1", "line {n}: thermal limit must be positive"),
    "BRANCH self loop": ("BRANCH 1 1 0.01 0.02", "line {n}: branch 1-1: self loop"),
    "BASE": ("BASE 1", "line {n}: BASE takes <MVA> <kV>"),
    "LIMITS": ("LIMITS 0.9 inf", "line {n}: limit must be finite: 'inf'"),
    "SHUNT": ("SHUNT 1 x 0", "line {n}: g is not a number: 'x'"),
    "unknown": ("FROB 1", "line {n}: unknown record 'FROB'"),
}
GOOD = ["BASE 1 12.47", "BUS 0 slack 0 0 0", "BUS 1 gen 0.1 0.05 1", "BUS 2 load 0.2 0.1 1",
        "BRANCH 0 1 0.01 0.02 1.5", "BRANCH 1 2 0.01 0.02"]
PAIRS = [(a, b) for a in FAULTS for b in FAULTS if a.split()[0] != b.split()[0]]


@pytest.mark.parametrize("first, second", PAIRS, ids=[f"{a}-then-{b}" for a, b in PAIRS])
def test_of_two_faults_the_earlier_line_is_named(first, second):
    lines = GOOD[:3] + [FAULTS[first][0]] + GOOD[3:] + [FAULTS[second][0]]
    with pytest.raises(CaseFormatError) as info:
        parse_case("\n".join(lines) + "\n")
    assert str(info.value) == FAULTS[first][1].format(n=4)


def test_a_bus_fault_after_a_branch_fault_names_the_branch_line():
    lines = ["BASE 1 1", "BRANCH 0 1 0.01 x", "BUS 0 slack 0 0 0", "BUS 1 pv 0 0 1"]
    with pytest.raises(CaseFormatError, match="^line 2: x is not a number: 'x'$"):
        parse_case("\n".join(lines))
    with pytest.raises(CaseFormatError, match="^line 2: unknown bus kind 'pv'$"):
        parse_case("\n".join([lines[0], lines[3], lines[1], lines[2]]))


def test_a_zero_thermal_limit_record_is_still_accepted():
    net = load_fixture("4bus.case")
    limited = tuple(Branch(br.from_bus, br.to_bus, br.r, br.x, thermal_limit=0.0) for br in net.branches)
    built = Network(net.buses, limited)
    assert built.branch_limit.tolist() == [0.0] * len(limited)
    assert built.branches == limited


def counting_records(monkeypatch):
    """Count every Bus, Branch, ThreePhaseBus and ThreePhaseBranch built from here on."""
    built = []
    for cls in (Bus, Branch, ThreePhaseBus, ThreePhaseBranch):
        def counted(self, _check=cls.__post_init__):
            built.append(type(self).__name__)
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def inner_bus(name: str) -> int | None:
    net = load_fixture(name)
    degree = np.bincount(np.concatenate([net.branch_from, net.branch_to]), minlength=net.n)
    return next((b for b in net.free.tolist() if degree[b] > 1), None)


@pytest.mark.parametrize("name", CASES)
def test_the_solve_path_builds_no_record(name, monkeypatch, capsys):
    cut = inner_bus(name)
    built = counting_records(monkeypatch)
    path = str(FIXTURE_DIR / name)
    assert main(["solve", path]) in (0, 2)
    if cut is not None:
        assert main(["solve", path, "--cut", str(cut)]) in (0, 2)
    assert built == []
    Bus(0, BusKind.SLACK)  # the counter counts
    assert built == ["Bus"]


@pytest.mark.parametrize("name", CASES3)
def test_the_unbalanced_path_builds_no_record(name, monkeypatch, capsys):
    built = counting_records(monkeypatch)
    assert main(["unbalanced", str(FIXTURE_DIR / name)]) in (0, 2)
    assert built == []


@pytest.mark.parametrize("candidates, unknown", [([-1, 7], [-1]), ([3, 8, 9], [8, 9]), ([0.5], [0.5])])
def test_screening_refuses_candidates_that_are_not_bus_ids(net8, monkeypatch, candidates, unknown):
    import hostcap.oracle

    def no_solve(*args, **kwargs):
        raise AssertionError("a candidate outside the bus ids reached the power flow")

    monkeypatch.setattr(hostcap.oracle, "solve_newton", no_solve)
    with pytest.raises(ValueError) as info:
        incremental_screening(net8, ConstraintSet(theta_max=0.05), step=0.01, candidates=candidates)
    assert str(info.value) == f"candidates {unknown} are not bus ids 0..7"
