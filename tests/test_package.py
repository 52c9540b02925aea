"""The names the package ships, and the per-state reference it does not."""

import pytest

import pcosync
from pcosync import core, dtmc, dynamics, export, metrics

SHIPPED = {
    "AnalysisQuery", "AnalysisResult", "DtmcModel", "FailureVector", "HardwareProfile", "MICAZ",
    "ModelParams", "State", "aggregate", "build_dtmc", "export_model", "initial_weights", "is_firing",
    "monte_carlo", "multinomial", "perturbation", "phase_coherence", "phase_position", "refractory",
    "skip_successor", "solve_queries", "solve_query", "solve_target", "state_count", "target_set",
}

#: The failure-vector enumeration and the continuous order parameter are test
#: oracles (``tests/oracles.py``); the package steps with ``FiringTable`` only.
ORACLES = {
    core: ["is_synchronised"],
    dynamics: [
        "InconsistentFailureVector", "ChainOutcome", "Branch", "SuccessorDistribution", "resolve_chain",
        "enumerate_failure_vectors", "firing_successor", "failure_probability", "successor_distribution",
    ],
    metrics: [
        "ContinuousConfig", "SINGULARITY_TOL", "order_parameter", "order_parameter_sqrt_form",
        "order_parameter_gradient", "r_min",
    ],
    dtmc: ["enumerate_states"],
    export: ["float_words"],
}


def test_all_is_the_shipped_surface():
    assert sorted(pcosync.__all__) == sorted(SHIPPED)
    assert all(hasattr(pcosync, name) for name in pcosync.__all__)


@pytest.mark.parametrize("module", list(ORACLES), ids=lambda m: m.__name__)
def test_no_module_ships_a_reference_name(module):
    names = {name for names in ORACLES.values() for name in names}
    assert sorted(name for name in names if hasattr(module, name)) == []
    assert not any(hasattr(pcosync, name) for name in ORACLES[module])
