"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

import dataclasses
import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hostcap.hccore import (
    ConstraintSet,
    critical_angle,
    power_factors,
    solve_hc,
    solve_hc_stages,
    solve_voltage_only,
    verify,
)
from hostcap.netmodel import BusKind, build_ybus
from hostcap.oracle import GridSpec, grid_error_bound, grid_search_hc
from hostcap.partition import make_partition, solve_distributed_hc
from hostcap.sequence import from_sequence, parse_case3, solve_unbalanced_hc, to_sequence

from conftest import fixture_text, load_fixture

RNG = np.random.default_rng(5150)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def with_unit_weights(net):
    return dataclasses.replace(
        net, buses=tuple(dataclasses.replace(b, lam=1.0) for b in net.buses)
    )


def scale_limits(net, factor):
    return dataclasses.replace(
        net,
        branches=tuple(
            dataclasses.replace(
                b, thermal_limit=None if b.thermal_limit is None else b.thermal_limit * factor
            )
            for b in net.branches
        ),
    )


def test_three_bus_reproduction():
    with criterion("3-bus reproduction: V=(1.05, 0.95), P=(0.1575, -0.095), <1 s"):
        net = load_fixture("3bus.case")
        t0 = time.perf_counter()
        sol = solve_hc(net, ConstraintSet(v_min=0.95, v_max=1.05))
        elapsed = time.perf_counter() - t0
        assert sol.state.magnitudes[1] == pytest.approx(1.05, abs=1e-12)
        assert sol.state.magnitudes[2] == pytest.approx(0.95, abs=1e-12)
        assert sol.injections.p[1] == pytest.approx(0.1575, abs=1e-6)
        assert sol.injections.p[2] == pytest.approx(-0.095, abs=1e-6)
        assert elapsed < 1.0


def test_critical_angle_value_and_switch():
    with criterion("critical angle: 0.3098 +- 5e-4; oracle locates the switch +-0.01 rad"):
        crit = critical_angle(1.05, 0.95)
        assert crit == pytest.approx(0.3098, abs=5e-4)
        net = load_fixture("3bus.case")
        g = GridSpec(magnitude_steps=51, angle_steps=11)
        below = grid_search_hc(net, ConstraintSet(theta_max=crit - 0.01), g)
        above = grid_search_hc(net, ConstraintSet(theta_max=crit + 0.01), g)
        assert below.state.magnitudes[2] < 1.0   # high-low pattern holds below
        assert above.state.magnitudes[2] > 1.0   # all-high pattern above


CERTIFICATE_CASES = [
    ("3bus.case", ConstraintSet(), GridSpec(magnitude_steps=201)),
    ("4bus.case", ConstraintSet(), GridSpec(magnitude_steps=201)),
    ("4bus_star.case", ConstraintSet(), GridSpec(magnitude_steps=201)),
    ("3bus_complex.case", ConstraintSet(theta_max=0.1), GridSpec(magnitude_steps=201, angle_steps=21)),
    ("4bus_thermal.case", ConstraintSet(), GridSpec(magnitude_steps=201)),
]


def test_global_optimality_certificate():
    with criterion("optimality certificate: |solve - oracle| <= eps_grid on 5 fixtures, <5 min"):
        t0 = time.perf_counter()
        for name, c, g in CERTIFICATE_CASES:
            net = load_fixture(name)
            assert net.n - 1 <= 5  # free-bus budget of the certificate
            solver = solve_hc(net, c)
            oracle = grid_search_hc(net, c, g)
            eps = grid_error_bound(net, c, g)
            gap = abs(solver.hc_total - oracle.hc_total)
            assert gap <= eps, f"{name}: gap {gap:.3e} > eps {eps:.3e}"
            # two-sided: no feasible grid point beats the construction
            assert oracle.hc_total <= solver.hc_total + 1e-9, name
        assert time.perf_counter() - t0 < 300.0


def test_dominance_over_random_sampling():
    with criterion("dominance: pattern beats 1e4 random feasible states on every resistive fixture"):
        c = ConstraintSet()
        for name in ("3bus.case", "4bus.case", "4bus_star.case", "5bus.case", "4bus_thermal.case"):
            net = with_unit_weights(load_fixture(name))
            best = solve_voltage_only(net, c).hc_total
            mags = RNG.uniform(c.v_min, c.v_max, size=(10_000, net.n))
            mags[:, net.slack_index] = net.slack_vm
            p = mags * (mags @ build_ybus(net).real.T)
            samples = p @ net.lam
            counterexamples = int((samples > best + 1e-12).sum())
            assert counterexamples == 0, name
            assert np.any(samples < best - 1e-6)  # dominance is strict somewhere


MONO_VMAX = [1.05, 1.02, 0.99, 0.96]          # tightening downward
MONO_THETA = [0.008, 0.004, 0.002, 0.0]       # tightening downward
MONO_CSCALE = [1.0, 0.75, 0.5, 0.25]          # tightening downward
MONO_ETA = [0.68, 0.72, 0.76, 0.80]           # tightening upward


def test_constraint_tightening_monotonicity():
    with criterion("monotonicity: hc non-increasing along v_max/theta/C/eta sweeps (4^4 grid)"):
        net8 = load_fixture("8bus.case")
        hc = {}
        for vm, th, cs, eta in itertools.product(MONO_VMAX, MONO_THETA, MONO_CSCALE, MONO_ETA):
            sol = solve_hc(scale_limits(net8, cs), ConstraintSet(v_max=vm, theta_max=th, eta=eta))
            hc[(vm, th, cs, eta)] = sol.hc_total
        axes = [MONO_VMAX, MONO_THETA, MONO_CSCALE, sorted(MONO_ETA)]
        violations = 0
        for ax in range(4):
            others = [axes[j] if j != ax else [None] for j in range(4)]
            for combo in itertools.product(*others):
                seq = []
                for v in axes[ax]:
                    key = list(combo)
                    key[ax] = v
                    seq.append(hc[tuple(key)])
                violations += sum(1 for a, b in zip(seq, seq[1:]) if b > a + 1e-9)
        assert violations == 0


FEASIBILITY_RUNS = [
    ("8bus.case", ConstraintSet()),
    ("8bus.case", ConstraintSet(theta_max=0.004, eta=0.80)),
    ("8bus_pf.case", ConstraintSet(eta=0.95)),
    ("8bus_pf.case", ConstraintSet(eta=0.90)),
    ("4bus_thermal.case", ConstraintSet()),
    ("123bus.case", ConstraintSet(theta_max=0.01)),
]


def test_thermal_and_pf_feasibility():
    with criterion("feasibility: max |I|/C <= 1+1e-9 and min pf >= eta-1e-6 on all fixtures"):
        for name, c in FEASIBILITY_RUNS:
            net = load_fixture(name)
            sol = solve_hc(net, c)
            assert verify(net, c, sol.state.phasors).ok("thermal"), name
            if c.eta is not None:
                gens = [b.id for b in net.buses if b.kind is BusKind.GEN]
                assert power_factors(net, sol.injections)[gens].min() >= c.eta - 1e-6, name
        # thermal and pf binding at once on a limited variant of the pf fixture
        net = load_fixture("8bus_pf.case")
        branches = list(net.branches)
        branches[2] = dataclasses.replace(branches[2], thermal_limit=1.4)
        net = dataclasses.replace(net, branches=tuple(branches))
        c = ConstraintSet(eta=0.95)
        sol = solve_hc(net, c)
        assert verify(net, c, sol.state.phasors).ok("thermal")
        gens = [b.id for b in net.buses if b.kind is BusKind.GEN]
        assert power_factors(net, sol.injections)[gens].min() >= c.eta - 1e-6


def test_sequence_consistency():
    with criterion("sequence: balanced == single-phase (1e-8); round-trip 1e-12; 3 method labels"):
        net3 = parse_case3(fixture_text("8bus_balanced.case3"))
        single = solve_hc(load_fixture("8bus.case"), ConstraintSet())
        balanced = solve_unbalanced_hc(net3, ConstraintSet())
        assert balanced.hc_per_phase == pytest.approx(single.hc_total, abs=1e-8)

        v = RNG.normal(size=(200, 3)) + 1j * RNG.normal(size=(200, 3))
        np.testing.assert_allclose(from_sequence(to_sequence(v)), v, atol=1e-12)

        labels = {
            solve_unbalanced_hc(parse_case3(fixture_text(f)), ConstraintSet()).method
            for f in (
                "8bus_balanced.case3",
                "8bus_unbalanced_load.case3",
                "8bus_untransposed.case3",
            )
        }
        assert labels == {"HC model", "sequence load current", "sequence line model"}


def test_partition_equivalence():
    with criterion("partition: distributed == monolithic (1e-8); identical across repeated calls"):
        for name, cuts in (("8bus.case", [4]), ("123bus.case", [16, 73])):
            net = load_fixture(name)
            c = ConstraintSet()
            mono = solve_hc(net, c)
            part = make_partition(net, cuts)
            first, again = (solve_distributed_hc(solve_hc_stages(net, c), part) for _ in range(2))
            assert first.hc_total == pytest.approx(mono.hc_total, abs=1e-8), name
            assert again.hc_total == first.hc_total, name  # bitwise equal
            np.testing.assert_array_equal(again.state.magnitudes, first.state.magnitudes)
            np.testing.assert_array_equal(again.state.angles, first.state.angles)
