"""Golden grid-oracle points: a change to the max-sum kernel must leave every grid point unchanged.

``golden_grid.json`` holds one record per ``grid_search_hc`` search: the
case, its theta_max, eta and grid, then the magnitude index and the branch
angle index of every free bus (in bus order) and ``hc_total.hex()``, or the
exception's type and message.  Everything compares exactly, so a tie broken
the other way fails.  The corpus is the ``.case`` fixtures and
``test_oracle_tables.hand_made()`` (its slack at bus 2, ``slack_vm`` 1.02) at
``GridSpec(7, 3)``, and ``make_feeder(n, seed, thermal=True, loads=True)``
for n in {4, 8, 20, 60} and seeds 1-10 at ``GridSpec(5, 3)``.  Regenerate
the file only for an intended change of a grid point::

    PYTHONPATH=src python tests/test_golden_grid.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hostcap import oracle
from hostcap.hccore import ConstraintSet, InfeasibleError
from hostcap.netmodel import parse_case
from hostcap.oracle import GridCapError, GridSpec, grid_search_hc

from conftest import FIXTURE_DIR, load_fixture
from test_oracle_tables import hand_made

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_grid.json"
ETAS = (None, 0.9)


def golden_cases() -> list[dict]:
    cases = []
    for name in sorted(p.name for p in FIXTURE_DIR.glob("*.case")) + ["hand_made"]:
        cases += [{"case": name, "theta_max": t, "eta": e, "grid": [7, 3]} for t in (0.0, 0.004, 0.1) for e in ETAS]
    for n in (4, 8, 20, 60):
        cases += [{"case": f"f{n}_{s}", "theta_max": 0.004, "eta": e, "grid": [5, 3]} for s in range(1, 11) for e in ETAS]
    return cases


def network(name: str):
    if name == "hand_made":
        return hand_made()
    if name.endswith(".case"):
        return load_fixture(name)
    n, seed = map(int, name[1:].split("_"))
    return parse_case(make_feeder(n, seed, thermal=True, loads=True).text)


def search(case: dict) -> dict:
    """One grid search as a golden record: grid indices and HC bits, or the exception."""
    net = network(case["case"])
    c, g = ConstraintSet(theta_max=case["theta_max"], eta=case["eta"]), GridSpec(*case["grid"])
    try:
        sol = grid_search_hc(net, c, g)
    except (InfeasibleError, GridCapError) as exc:
        return {**case, "error": f"{type(exc).__name__}: {exc}"}
    mag_axis, ang_axis = oracle._axes(c, g)
    m, a, free = sol.state.magnitudes, sol.state.angles, net.free.tolist()
    deltas = a[free] - a[net.parents[free]]
    return {
        **case,
        "mag": [int(np.flatnonzero(mag_axis == m[b])[0]) for b in free],
        "ang": np.abs(deltas[:, None] - ang_axis).argmin(axis=1).tolist(),
        "hc": float(sol.hc_total).hex(),
    }


def _records() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_golden_file_covers_every_case():
    assert [{k: rec[k] for k in ("case", "theta_max", "eta", "grid")} for rec in _records()] == golden_cases()


@pytest.mark.parametrize("index", range(len(golden_cases())),
                         ids=[f"{c['case']}-{c['theta_max']}-{c['eta']}" for c in golden_cases()])
def test_grid_point_matches_golden(index):
    want = _records()[index]
    assert search(golden_cases()[index]) == want


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(search(case), sort_keys=True) + "\n" for case in golden_cases()))
    print(f"wrote {GOLDEN}", file=sys.stderr)
