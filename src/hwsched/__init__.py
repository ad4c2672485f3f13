"""Scheduling-control diffusion toolkit for buffer-station trees.

Models many-server queueing control in the Halfin-Whitt regime through its
limiting controlled diffusion: tree-flow lifting, path-operator calculus,
deterministic flow integration, diffusion and pre-limit simulation, and a
grid solver for the dynamic-programming equation with policy extraction.
"""

from .model import (
    BALANCE_TOL,
    ControlPoint,
    RunningCostSpec,
    StructureError,
    TreeCombinatorics,
    TreeModel,
    ValidationReport,
    build_combinatorics,
    classify_case,
    fluid_from_flows,
    load_model,
    model_hash,
    save_model,
    validate_model,
)
from .flows import BalanceError, drift, drift_batch, lift_batch, lift_control, lift_matrix, solve_psi
from .pathops import (
    OperatorSequences,
    apply_rate,
    apply_rates,
    build_sequences,
    class_uniform_sequences,
    expansion_coefficients,
    integral_residual,
    integrate,
    invert_rate,
    series_residual,
    station_uniform_sequences,
)
from .detsys import (
    ControlPath,
    CounterexampleReport,
    DetTrajectory,
    GrowthFit,
    check_nonidling,
    counterexample_flow,
    growth_report,
    integrate_det,
    nonidling_hypothesis,
)
from .sde import (
    CostEstimate,
    FixedControl,
    GridMarkov,
    MomentCurve,
    SimPath,
    StaticPriority,
    SwitchingControl,
    default_priority_edge,
    ensemble,
    mc_cost,
    mc_cost_batch,
    moment_curve,
    simulate_path,
)
from .hjb import (
    Grid,
    HJBReport,
    HJBSolution,
    PolicyField,
    ValueField,
    box_sensitivity,
    default_grid,
    extract_policy,
    field_at,
    hamiltonian,
    hamiltonian_field,
    load_field,
    pde_residual,
    save_field,
    solve_hjb,
)
from .ctmc import (
    ComparisonReport,
    CtmcPath,
    GreedyPriority,
    ImbalanceTracking,
    ScalingSpec,
    compare_samples,
    initial_headcounts,
    run_replications,
    simulate_ctmc,
)

__version__ = "0.1.0"
