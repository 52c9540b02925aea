"""Exact analysis of synchronisation time and energy for populations of
pulse-coupled oscillators with broadcast failures."""

from .core import (
    FailureVector,
    ModelParams,
    State,
    is_firing,
    perturbation,
    refractory,
)
from .dynamics import skip_successor
from .metrics import phase_coherence, phase_position
from .dtmc import (
    MICAZ,
    DtmcModel,
    HardwareProfile,
    build_dtmc,
    initial_weights,
    multinomial,
    state_count,
)
from .export import export_model
from .analysis import (
    AnalysisQuery,
    AnalysisResult,
    aggregate,
    monte_carlo,
    solve_queries,
    solve_query,
    solve_target,
    target_set,
)

__all__ = [
    "AnalysisQuery",
    "AnalysisResult",
    "DtmcModel",
    "FailureVector",
    "HardwareProfile",
    "MICAZ",
    "ModelParams",
    "State",
    "aggregate",
    "build_dtmc",
    "export_model",
    "initial_weights",
    "is_firing",
    "monte_carlo",
    "multinomial",
    "perturbation",
    "phase_coherence",
    "phase_position",
    "refractory",
    "skip_successor",
    "solve_queries",
    "solve_query",
    "solve_target",
    "state_count",
    "target_set",
]

__version__ = "0.1.0"
