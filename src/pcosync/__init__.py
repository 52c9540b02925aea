"""Exact analysis of synchronisation time and energy for populations of
pulse-coupled oscillators with broadcast failures."""

from .core import (
    FailureVector,
    ModelParams,
    State,
    is_firing,
    is_synchronised,
    perturbation,
    refractory,
    validate_params,
)
from .dynamics import (
    ChainOutcome,
    SuccessorDistribution,
    enumerate_failure_vectors,
    firing_successor,
    resolve_chain,
    skip_successor,
    successor_distribution,
)
from .metrics import (
    ContinuousConfig,
    order_parameter,
    order_parameter_gradient,
    phase_coherence,
    phase_position,
    r_min,
)
from .dtmc import (
    MICAZ,
    DtmcModel,
    HardwareProfile,
    build_dtmc,
    enumerate_states,
    initial_weights,
    multinomial,
    state_count,
)
from .export import export_model
from .analysis import (
    AnalysisQuery,
    AnalysisResult,
    aggregate,
    expected_reward,
    monte_carlo,
    reach_probability,
    solve_queries,
    solve_query,
    target_set,
)

__all__ = [
    "AnalysisQuery",
    "AnalysisResult",
    "ChainOutcome",
    "ContinuousConfig",
    "DtmcModel",
    "FailureVector",
    "HardwareProfile",
    "MICAZ",
    "ModelParams",
    "State",
    "SuccessorDistribution",
    "aggregate",
    "build_dtmc",
    "enumerate_failure_vectors",
    "enumerate_states",
    "expected_reward",
    "export_model",
    "firing_successor",
    "initial_weights",
    "is_firing",
    "is_synchronised",
    "monte_carlo",
    "multinomial",
    "order_parameter",
    "order_parameter_gradient",
    "perturbation",
    "phase_coherence",
    "phase_position",
    "r_min",
    "reach_probability",
    "refractory",
    "resolve_chain",
    "skip_successor",
    "solve_queries",
    "solve_query",
    "state_count",
    "successor_distribution",
    "target_set",
    "validate_params",
]

__version__ = "0.1.0"
