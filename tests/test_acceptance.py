"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real stdout so the verdicts stay
visible under pytest's output capture.  The headline energy figure is checked
with a ten-second cycle (one second per discrete step); the reference value
comes without a stated cycle length or message time, and with the default
one-second cycle only the time figure is meaningful (the energy criterion is
then an order of magnitude below the reference, see notes in the repo).
"""

import math
import sys
import time

import numpy as np
import pytest

from oracles import (
    ContinuousConfig,
    brute_force_successors,
    enumerate_failure_vectors,
    enumerate_states,
    firing_successor,
    is_synchronised,
    materialized_skip_power,
    order_parameter,
    order_parameter_gradient,
    order_parameter_sqrt_form,
    read_transitions,
    successor_distribution,
)
from pcosync.analysis import (
    AnalysisQuery,
    monte_carlo,
    solve_queries,
    solve_query,
    solve_target,
    target_set,
)
from pcosync.core import ModelParams, is_firing, perturbation
from pcosync.dtmc import (
    MICAZ,
    HardwareProfile,
    build_dtmc,
    multinomial,
    skip_power,
    state_count,
)
from pcosync.dynamics import skip_successor
from pcosync.export import export_model
from pcosync.metrics import phase_coherence

# ten-second cycle: one second per discrete step at granularity 10
MICAZ_10S = HardwareProfile(
    name="micaz-10s",
    idle_a=MICAZ.idle_a,
    receive_a=MICAZ.receive_a,
    transmit_a=MICAZ.transmit_a,
    voltage=MICAZ.voltage,
    cycle_s=10.0,
    message_s=MICAZ.message_s,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", file=sys.__stdout__)
    assert ok, detail


@pytest.fixture(scope="module")
def headline_models():
    """The 8-oscillator, 10-phase models for every refractory length."""
    models = {}
    for r in range(1, 6):
        p = ModelParams(n=8, t=10, r=r, epsilon=0.1, mu=0.2)
        models[r] = build_dtmc(p, MICAZ_10S)
    return models


def test_criterion_1_reference_trajectory():
    start = time.perf_counter()
    p = ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=0.2)
    sigma0 = (2, 1, 0, 0, 5, 0, 0, 0, 0, 0)
    sigma1, _ = skip_successor(sigma0)
    trajectory = [sigma1]
    for _ in range(2):
        (fv,) = [
            v
            for v in enumerate_failure_vectors(trajectory[-1], p)
            if all(f in (None, 0) for f in v)
        ]
        trajectory.append(firing_successor(trajectory[-1], fv, p))
    elapsed = time.perf_counter() - start
    expected = [
        (0, 0, 0, 0, 0, 2, 1, 0, 0, 5),
        (6, 0, 0, 0, 0, 0, 0, 0, 0, 2),
        (2, 6, 0, 0, 0, 0, 0, 0, 0, 0),
    ]
    ok = trajectory == expected and elapsed < 1.0
    report(1, ok, f"zero-failure trajectory {trajectory} in {elapsed * 1000:.1f} ms")


def test_criterion_2_phase_coherence_value():
    value = phase_coherence((0, 0, 0, 0, 0, 2, 1, 0, 0, 5), 10)
    ok = abs(value - 0.4671) <= 5e-5
    report(2, ok, f"coherence of the reference mixed state = {value:.6f}")


def test_criterion_3_perturbation_and_absorption():
    ok_arith = perturbation(2, 14, 0.1) == 3 and perturbation(5, 14, 0.1) == 7
    p = ModelParams(n=15, t=10, r=4, epsilon=0.1, mu=0.0, u=1)
    lone_at_5 = (0, 0, 0, 0, 1, 0, 0, 0, 0, 14)
    dist = successor_distribution(lone_at_5, p)
    ok_absorbed = len(dist.branches) == 1 and is_synchronised(dist.branches[0].target)
    # and the full restabilisation model reaches synchrony from everywhere
    model = build_dtmc(p)
    reach, _ = solve_target(model, target_set(model, 1.0), ())[0]
    ok_model = reach[model.initial > 0].min() >= 1.0 - 1e-6
    ok = ok_arith and ok_absorbed and ok_model
    report(
        3,
        ok,
        f"perturbations (3, 7), lone oscillator absorbed in one step: {ok_absorbed}",
    )


def test_criterion_4_synchrony_guarantee_vs_refractory(headline_models):
    mins = {}
    for r, model in headline_models.items():
        reach, _ = solve_target(model, target_set(model, 1.0), ())[0]
        mins[r] = reach[model.initial > 0].min()
    ok_guaranteed = all(abs(mins[r] - 1.0) <= 1e-6 for r in (1, 2, 3, 4))
    ok_lost = mins[5] < 1.0
    result5 = solve_query(
        headline_models[5], AnalysisQuery(lam=1.0, reward_kind="time", aggregate="avg")
    )
    ok_inf = math.isinf(result5.value)
    ok = ok_guaranteed and ok_lost and ok_inf
    report(
        4,
        ok,
        "min reach " + ", ".join(f"R={r}: {v:.6f}" for r, v in sorted(mins.items()))
        + f"; R=5 expected time {result5.value}",
    )


def test_criterion_5_headline_time_and_energy(headline_models):
    model = headline_models[1]
    time_result = solve_query(
        model, AnalysisQuery(lam=0.9, reward_kind="time", aggregate="max")
    )
    energy_result = solve_query(
        model, AnalysisQuery(lam=0.9, reward_kind="power", aggregate="max")
    )
    ok_time = abs(time_result.value - 19.0) <= 0.15 * 19.0
    ok_energy = abs(energy_result.per_node_mWh - 2.4) <= 0.25 * 2.4
    ok = ok_time and ok_energy
    report(
        5,
        ok,
        f"max time {time_result.value:.2f} cycles (19 +- 15%), "
        f"max energy {energy_result.per_node_mWh:.3f} mWh/node at 1 s per step (2.4 +- 25%)",
    )


def test_criterion_6_lambda_trends(headline_models):
    lambdas = [x / 10 for x in range(1, 11)]
    power_at_one = {}
    ok = True
    detail = []
    for r in (1, 2, 3, 4):
        model = headline_models[r]
        queries = [AnalysisQuery(lam=lam, reward_kind=kind) for lam in lambdas for kind in ("time", "power")]
        results = [(res.value, res.per_node_mWh) for res in solve_queries(model, queries)]
        times, powers = [value for value, _ in results[::2]], [mwh for _, mwh in results[1::2]]
        mono_t = all(b >= a - 1e-12 for a, b in zip(times, times[1:]))
        mono_p = all(b >= a - 1e-12 for a, b in zip(powers, powers[1:]))
        ok = ok and mono_t and mono_p
        power_at_one[r] = powers[-1]
        detail.append(f"R={r} monotone time/power {mono_t}/{mono_p}")
    gap = abs(power_at_one[3] - power_at_one[4])
    ok = ok and gap < 0.3
    report(6, ok, "; ".join(detail) + f"; |R=3 - R=4| at full synchrony {gap:.4f} mWh")


def test_criterion_7_property_suites():
    start = time.perf_counter()

    # (a) stochasticity of successor distributions and an exported matrix
    ok_a = True
    for t in range(2, 6):
        for n in range(1, 5):
            p = ModelParams(n=n, t=t, r=1, epsilon=0.1, mu=0.3)
            for sigma in enumerate_states(p):
                total = sum(
                    b.probability for b in successor_distribution(sigma, p).branches
                )
                ok_a = ok_a and abs(total - 1.0) <= 1e-12
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        model = build_dtmc(ModelParams(n=4, t=5, r=1, epsilon=0.1, mu=0.2))
        paths = export_model(model, Path(tmp) / "m")
        _, triples = read_transitions(paths["transitions"])
        sums = {}
        for src, _, prob in triples:
            sums[src] = sums.get(src, 0.0) + prob
        ok_a = ok_a and all(abs(s - 1.0) <= 1e-12 for s in sums.values())

    # (b) multinomial identity
    ok_b = True
    for t in range(2, 11):
        for n in range(1, 9):
            p = ModelParams(n=n, t=t, r=0, epsilon=0.1, mu=0.0)
            ok_b = ok_b and sum(multinomial(s) for s in enumerate_states(p)) == t**n

    # (c) per-oscillator brute-force equivalence
    ok_c = True
    for mu in (0.0, 0.3, 1.0):
        for t in range(2, 6):
            for r in range(0, min(3, t)):
                for n in range(1, 5):
                    p = ModelParams(n=n, t=t, r=r, epsilon=0.1, mu=mu)
                    for sigma in enumerate_states(p):
                        if not is_firing(sigma):
                            continue
                        expected = brute_force_successors(sigma, p)
                        got = {
                            b.target: b.probability
                            for b in successor_distribution(sigma, p).branches
                        }
                        ok_c = ok_c and set(got) == set(expected)
                        ok_c = ok_c and all(
                            abs(got[s] - q) <= 1e-9 for s, q in expected.items()
                        )

    # (d) skip power equals the materialized intermediate-state sum
    ok_d = True
    for t in range(2, 7):
        for r in range(0, t):
            p = ModelParams(n=4, t=t, r=r, epsilon=0.1, mu=0.2)
            for sigma in enumerate_states(p):
                if is_firing(sigma):
                    continue
                got = skip_power(sigma, p, MICAZ, skip_successor(sigma)[1])
                want = materialized_skip_power(sigma, p, MICAZ)
                ok_d = ok_d and math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0)

    # (e) gradient vs central finite differences
    ok_e = True
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 9))
        thetas = tuple(rng.uniform(1e-5, 2.0 * math.pi - 1e-5, size=n))
        c = ContinuousConfig(thetas)
        if order_parameter(c) <= 0.1:
            continue
        grad = order_parameter_gradient(c)
        h = 1e-6
        for k in range(n):
            hi, lo = list(thetas), list(thetas)
            hi[k] += h
            lo[k] -= h
            fd = (
                order_parameter_sqrt_form(ContinuousConfig(tuple(hi)))
                - order_parameter_sqrt_form(ContinuousConfig(tuple(lo)))
            ) / (2.0 * h)
            ok_e = ok_e and abs(grad[k] - fd) / max(abs(fd), 1.0) <= 1e-6
        checked += 1

    # (f) Monte Carlo agreement at one hundred thousand samples
    p = ModelParams(n=4, t=3, r=1, epsilon=0.5, mu=0.2)
    model = build_dtmc(p)
    exact = solve_query(model, AnalysisQuery(lam=1.0, reward_kind="time", aggregate="avg"))
    mc = monte_carlo(p, lam=1.0, reward_kind="time", samples=100_000, seed=77)
    ok_f = abs(mc.mean - exact.value) <= 3.0 * mc.std_error

    # (g) the minimum aggregate is zero in full mode for every threshold
    model = build_dtmc(ModelParams(n=3, t=4, r=1, epsilon=0.1, mu=0.2))
    ok_g = all(
        solve_query(model, AnalysisQuery(lam=lam, aggregate="min")).value == 0.0
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
    )

    elapsed = time.perf_counter() - start
    flags = dict(a=ok_a, b=ok_b, c=ok_c, d=ok_d, e=ok_e, f=ok_f, g=ok_g)
    ok = all(flags.values()) and elapsed < 300.0
    report(
        7,
        ok,
        ", ".join(f"({k}) {'ok' if v else 'FAIL'}" for k, v in flags.items())
        + f" in {elapsed:.1f} s",
    )


def test_criterion_8_restabilisation_scaling():
    ok_counts = True
    counts = {}
    for n in (10, 15, 20):
        for u in (1, 2, 3):
            p = ModelParams(n=n, t=10, r=4, epsilon=0.1, mu=0.2, u=u)
            model = build_dtmc(p)
            counts[(n, u)] = model.n_states
            ok_counts = ok_counts and model.n_states < state_count(p)
    energies = []
    for n in range(15, 36, 5):
        model = build_dtmc(ModelParams(n=n, t=10, r=4, epsilon=0.1, mu=0.2, u=1))
        result = solve_query(
            model, AnalysisQuery(lam=1.0, reward_kind="power", aggregate="avg")
        )
        energies.append(result.per_node_mWh)
    variation = (max(energies) - min(energies)) / min(energies)
    ok = ok_counts and variation < 0.10
    report(
        8,
        ok,
        f"reachable counts {sorted(set(counts.values()))} all below the full space; "
        f"per-node energy varies {variation * 100:.2f}% across sizes 15-35",
    )
