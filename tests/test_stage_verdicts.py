"""The thermal and pf stages act on exactly what ``verify`` flags.

Both corrections decide by the verifier's margins: the thermal stage flags a
branch by ``_thermal_margin``, the pf stage converts the generators that
``verify(...).violated("pf")`` flags.  The two border cases sit where an
earlier private rule of each stage disagreed with the verifier: a current
within ``TOL["thermal"]`` of C by one rule and beyond it by the other, and a
power factor inside the verifier's tolerance but outside the reactive band.
"""

import sys
from pathlib import Path

import hostcap.cli
import hostcap.hccore
from hostcap.hccore import AdjustmentError, ConstraintSet, InfeasibleError, solve_hc, solve_hc_stages, verify
from hostcap.netmodel import parse_case

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from feeders import make_feeder  # noqa: E402

# |y|·|V_0 - V_1| of the angle pattern lies within one round-off of C (1 + TOL["thermal"])
THERMAL_BORDER = (
    "BASE 1 1\n"
    "BUS 0 slack 0 0 0\n"
    "BUS 1 gen 0 0 1\n"
    "BRANCH 0 1 0.10724610869304878 0.19058810230192771 0.2384027590193167\n"
)
THERMAL_BORDER_THETA = 0.014415961271963373

PF_WINDOW = "BASE 1 1\nBUS 0 slack 0 0 0\nBUS 1 gen 0 0 1\nBRANCH 0 1 0.05 0.1\n"
PF_WINDOW_ETA = 0.44721409549995794  # bus 1's pattern pf + 5e-7, inside TOL["pf"]


def test_thermal_border_case_is_clamped_and_verified(tmp_path, capsys):
    net = parse_case(THERMAL_BORDER)
    c = ConstraintSet(theta_max=THERMAL_BORDER_THETA)
    pattern = solve_hc_stages(net, c)[0]
    assert not verify(net, c, pattern.state.phasors).ok("thermal")
    sol = solve_hc(net, c)
    assert sol.stage == "thermal_adjusted"
    assert sol.hc_total == 0.17829188563596063
    assert verify(net, c, sol.state.phasors, sol.injections.s).ok()

    case = tmp_path / "border.case"
    case.write_text(THERMAL_BORDER)
    assert hostcap.cli.main(["solve", str(case), "--theta-max", repr(THERMAL_BORDER_THETA)]) == 0
    assert '"thermal_adjusted"' in capsys.readouterr().out


def test_pf_window_generator_is_not_converted():
    net = parse_case(PF_WINDOW)
    c = ConstraintSet(eta=PF_WINDOW_ETA)
    pattern = solve_hc_stages(net, c)[0]
    s = pattern.injections.s[1]
    assert abs(s.real) / abs(s) < PF_WINDOW_ETA  # outside the band, yet within the verifier's tolerance
    sol = solve_hc(net, c)
    assert sol.stage == "voltage_pattern"
    assert sol.hc_total == 0.2100000000000002
    assert verify(net, c, sol.state.phasors, sol.injections.s).ok()


def test_stages_act_on_what_verify_flags(monkeypatch):
    """Every bus the pf stage converts is flagged at the state it leaves; every thermal stage verifies."""
    newton, adjust_pf = hostcap.hccore.solve_newton, hostcap.hccore.adjust_power_factor
    converted: list[int] = []  # pq of the current pf stage's last re-solve
    unflagged: list[tuple] = []
    counts = {"converted": 0, "thermal_adjusted": 0}

    def spy_newton(network, x0, p, q, pq, **kwargs):
        newly = sorted(set(pq) - set(converted))
        flagged = verify(network, c, x0.phasors).violated("pf")
        unflagged.extend((case, b) for b in newly if not flagged[b])
        counts["converted"] += len(newly)
        converted[:] = pq
        return newton(network, x0, p, q, pq, **kwargs)

    def fresh_pf_stage(*args):
        converted.clear()
        return adjust_pf(*args)

    monkeypatch.setattr(hostcap.hccore, "solve_newton", spy_newton)
    monkeypatch.setattr(hostcap.hccore, "adjust_power_factor", fresh_pf_stage)
    for n in (8, 20, 40):
        for seed in range(1, 7):
            net = parse_case(make_feeder(n, seed, thermal=True, loads=True).text)
            for theta in (0.0, 0.004, 0.05):
                for eta in (0.95, 0.9):
                    case, c = (n, seed, theta, eta), ConstraintSet(theta_max=theta, eta=eta)
                    try:
                        stages = solve_hc_stages(net, c)
                    except (AdjustmentError, InfeasibleError):
                        continue
                    for st in stages:
                        if st.stage == "thermal_adjusted":
                            counts["thermal_adjusted"] += 1
                            assert verify(net, c, st.state.phasors, st.injections.s).ok("thermal"), case
    assert not unflagged
    assert counts["converted"] and counts["thermal_adjusted"]  # both stages ran
