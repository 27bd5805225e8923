"""Golden CLI outputs on the fixtures: a refactor must leave every report unchanged.

``golden_reports.json`` holds one record per CLI run: its arguments, exit code,
stderr and stdout (the parsed JSON report, or the parsed CSV rows).  Exit code,
stderr, keys, strings and ints (so every binding's per-kind element lists)
compare exactly; floats within ``FLOAT_ABS``.  Regenerate the file only for an
intended change of output::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from hostcap.cli import main
from hostcap.hccore import _REPORT_GROUPS, LIMITS, ConstraintSet, solve_hc_stages
from hostcap.netmodel import parse_case
from hostcap.sequence import parse_case3, solve_unbalanced_hc

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
FLOAT_ABS = 1e-9


def golden_runs() -> list[list[str]]:
    cases = sorted(p.name for p in (ROOT / "fixtures").glob("*.case"))
    runs = []
    for name in cases:
        path = f"fixtures/{name}"
        for flags in ([], ["--eta", "0.95"], ["--theta-max", "0.004"],
                      ["--eta", "0.9", "--theta-max", "0.01"]):
            runs.append(["solve", *flags, path])
    runs.append(["solve", "--cut", "16,73", "fixtures/123bus.case"])
    for name in sorted(p.name for p in (ROOT / "fixtures").glob("*.case3")):
        runs.append(["unbalanced", f"fixtures/{name}"])
    for name in cases:
        runs.append(["screen", "--format", "csv", "--step", "0.01", f"fixtures/{name}"])
    return runs


def _cell(tok: str):
    for conv in (int, float):
        try:
            return conv(tok)
        except ValueError:
            pass
    return tok


def run(args: list[str]) -> dict:
    """One in-process CLI run from the repo root, as a golden record."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        os.chdir(cwd)
    text = out.getvalue()
    if text.startswith("{"):
        stdout = json.loads(text)
    else:
        stdout = [[_cell(tok) for tok in row] for row in csv.reader(io.StringIO(text))]
    return {"args": args, "exit": code, "stderr": err.getvalue(), "stdout": stdout}


def assert_same(got, want, where="stdout"):
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        assert (math.isnan(got) and math.isnan(want)) or got == want or abs(got - want) <= FLOAT_ABS, (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _records() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_golden_file_covers_every_run():
    assert [rec["args"] for rec in _records()] == golden_runs()


@pytest.mark.parametrize("index", range(len(golden_runs())), ids=[" ".join(a) for a in golden_runs()])
def test_cli_output_matches_golden(index):
    want = _records()[index]
    got = run(want["args"])
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    assert_same(got["stdout"], want["stdout"])


REPORT_RUNS = [args for args in golden_runs() if args[0] != "screen"]


def flattened(binding: dict) -> tuple:
    """A report's per-kind binding back to ``HCSolution.binding``'s pairs, in hccore's report order."""
    out = []
    for group in _REPORT_GROUPS:  # per element, the kinds in the group's order
        hits = sorted((el, j, kind) for j, kind in enumerate(group) for el in binding[kind])
        out += [(kind, el) for el, _, kind in hits]
    return tuple(out)


@pytest.mark.parametrize("args", REPORT_RUNS, ids=[" ".join(a) for a in REPORT_RUNS])
def test_report_binding_is_the_solution_binding(args):
    report = run(args)["stdout"]
    c, text = ConstraintSet(**report["constraints"]), (ROOT / args[-1]).read_text()
    if args[0] == "unbalanced":
        pairs = [(report["result"]["binding"], solve_unbalanced_hc(parse_case3(text), c).positive)]
    else:
        stages = solve_hc_stages(parse_case(text), c)
        assert len(report["stages"]) == len(stages)
        pairs = [(s["binding"], sol) for s, sol in zip(report["stages"], stages)]
        pairs.append((report["result"]["binding"], stages[-1]))  # a --cut result keeps the final stage's binding
    for binding, sol in pairs:
        assert sorted(binding) == sorted(LIMITS)
        assert all(a < b for elements in binding.values() for a, b in zip(elements, elements[1:]))
        assert flattened(binding) == sol.binding


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(run(args), sort_keys=True) + "\n" for args in golden_runs()))
    print(f"wrote {GOLDEN}", file=sys.stderr)
