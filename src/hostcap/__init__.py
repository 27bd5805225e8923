"""Hosting-capacity analysis for radial low-voltage feeders."""

from .netmodel import (
    Branch,
    Bus,
    BusKind,
    CaseFormatError,
    Network,
    TopologyError,
    parse_case,
    serialize_case,
)
from .powerflow import (
    BusSetpoint,
    InjectionProfile,
    PowerFlowError,
    VoltageState,
    evaluate_injections,
    solve_newton,
)
from .hccore import (
    AdjustmentError,
    ConstraintSet,
    HCSolution,
    InfeasibleError,
    adjust_power_factor,
    adjust_thermal,
    critical_angle,
    pf_q_bounds,
    solve_hc,
    solve_hc_stages,
    solve_voltage_only,
    solve_with_angle,
    weighted_hc,
)
from .oracle import (
    GridCapError,
    GridSpec,
    grid_error_bound,
    grid_search_hc,
    incremental_screening,
    pv_curve_surface,
)
from .partition import Partition, make_partition, solve_distributed_hc
from .sequence import (
    DecouplingError,
    PhaseVector,
    ThreePhaseNetwork,
    from_sequence,
    parse_case3,
    solve_unbalanced_hc,
    to_sequence,
)

__version__ = "0.1.0"
