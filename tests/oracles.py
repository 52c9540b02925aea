"""Independent reference implementations used to cross-check the library.

Everything here works at the level of individual oscillators and explicit
intermediate states, deliberately avoiding the counting shortcuts used by
the package under test.
"""

from __future__ import annotations

import itertools
from collections import Counter

from pcosync.core import ModelParams, State, perturbation, refractory
from pcosync.dtmc import DtmcModel, HardwareProfile, state_power


def expand(sigma: State) -> list[int]:
    """Individual oscillator phases for a counts tuple."""
    phases = []
    for phi, k in enumerate(sigma, start=1):
        phases.extend([phi] * k)
    return phases


def per_oscillator_step(
    phases: list[int], successes: int, p: ModelParams
) -> list[int]:
    """Advance every oscillator one step given the number of pulses that got
    through from the group at the last phase."""
    t = p.t
    out = []
    for phi in phases:
        if phi == t:
            out.append(1)
            continue
        delta = refractory(phi, perturbation(phi, successes, p.epsilon), p.r)
        upd = phi + 1 + delta
        out.append(1 if upd > t else upd)
    return out


def brute_force_successors(sigma: State, p: ModelParams) -> dict[State, float]:
    """Successor distribution of a firing state computed by enumerating every
    per-oscillator broadcast success/failure assignment."""
    t = p.t
    k_t = sigma[t - 1]
    phases = expand(sigma)
    dist: Counter = Counter()
    for outcome in itertools.product((True, False), repeat=k_t):
        prob = 1.0
        for ok in outcome:
            prob *= (1.0 - p.mu) if ok else p.mu
        if prob == 0.0:
            continue
        successes = sum(outcome)
        succ = per_oscillator_step(phases, successes, p)
        counts = [0] * t
        for phi in succ:
            counts[phi - 1] += 1
        dist[tuple(counts)] += prob
    return dict(dist)


def brute_force_failure_vector_count(sigma: State, p: ModelParams) -> int:
    """Number of distinct failure vectors obtained by projecting every
    per-oscillator success/failure assignment of all firing oscillators."""
    t = p.t
    k_t = sigma[t - 1]
    vectors = set()
    for outcome in itertools.product((True, False), repeat=k_t):
        successes = sum(outcome)
        # a probe oscillator per phase tells which phases fire this step
        fires = {
            phi: stepped == 1
            for phi, stepped in zip(
                range(1, t + 1), per_oscillator_step(list(range(1, t + 1)), successes, p)
            )
        }
        entries: list[int | None] = [
            0 if fires[phi] else None for phi in range(1, t + 1)
        ]
        entries[t - 1] = k_t - successes
        # every firing oscillator broadcasts; enumerate the broadcast
        # outcomes of chain-fired occupied groups and project to counts
        free = [
            phi for phi in range(1, t) if fires[phi] and sigma[phi - 1] > 0
        ]
        for combo in itertools.product(*(range(sigma[phi - 1] + 1) for phi in free)):
            filled = list(entries)
            for phi, f in zip(free, combo):
                filled[phi - 1] = f
            vectors.add(tuple(filled))
    return len(vectors)


def materialized_skip_power(
    sigma: State, p: ModelParams, profile: HardwareProfile
) -> float:
    """Power of a skip transition computed by materializing every omitted
    intermediate state and summing the single-step power of each."""
    t = p.t
    delta = max(phi for phi in range(1, t + 1) if sigma[phi - 1] > 0)
    total = 0.0
    current = list(sigma)
    for _ in range(t - delta):
        total += state_power(tuple(current), p, profile)
        current = [0] + current[:-1]  # advance every oscillator one phase
    return total


def csr_rows(model: DtmcModel) -> list[list[tuple[int, float, float, float]]]:
    """Per source state, the (target, probability, time reward, power reward)
    of each outgoing transition, read from the model's CSR chain in stored
    order."""
    p = model.transitions
    entries = list(zip(
        p.indices.tolist(), p.data.tolist(),
        model.rewards["time"].tolist(), model.rewards["power"].tolist(),
    ))
    return [entries[a:b] for a, b in zip(p.indptr[:-1].tolist(), p.indptr[1:].tolist())]
