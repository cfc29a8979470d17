"""Cycle contextuality behaviors, quantum realizations, and a unitary
friend/superobserver record protocol, with brute-force cross checks."""

from .linalg import ALG_TOL, PROB_TOL
from .scenario import (
    Behavior,
    ChainResult,
    ContextualityVerdict,
    PossibilisticBehavior,
    Scenario,
    check_no_disturbance,
    is_logically_contextual,
    make_cycle_scenario,
    possibilistic_collapse,
    propagate_chain,
)
from .ncycle import (
    FlipMask,
    even_ncycle_behavior,
    even_to_unified_mask,
    odd_ncycle_behavior,
    odd_to_unified_mask,
    relabel,
    unified_ncycle_behavior,
)
from .quantum import (
    PairDistribution,
    QuantumRealization,
    SearchFailure,
    behavior_from_realization,
    born_pair,
    find_quantum_realization,
    kcbs_realization,
)
from .ewf import (
    BranchLimitError,
    ParadoxReport,
    Protocol,
    SimulationTrace,
    build_counterfactual_protocol,
    build_measure_undo_protocol,
    build_protocol,
    commutation_certificates,
    paradox_report,
    record_distribution,
    simulate,
)
from .oracles import (
    OracleResult,
    dense_commutation_certificates,
    dense_simulate,
    enumerate_contextuality,
    exhaustive_support_check,
    fixpoint_propagate_chain,
    measurement_unitary,
    projection_sequential,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
