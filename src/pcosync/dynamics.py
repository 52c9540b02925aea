"""Successor computation for global states.

Non-firing states advance deterministically to the next firing state in one
skip transition.  In a firing state the group at the last phase fires and
broadcasts; every other group perceives the successful broadcasts of that
group and receives the (refractory-gated) perturbation ``delta``.  A group
at phase ``phi`` is absorbed by the firing group (fires in the same step)
iff its updated phase ``phi + 1 + delta`` exceeds ``T``; otherwise it moves
to the updated phase.  Groups absorbed this way transmit their own
synchronisation messages, whose broadcasts may fail in turn (the failure
vector records them), but their pulses arrive too late within the step to
perturb anyone else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    FailureVector,
    ModelParams,
    State,
    format_failure_vector,
    is_firing,
    perturbation,
    refractory,
)


class InconsistentFailureVector(ValueError):
    """Failure vector marks a phase as fired/non-fired contrary to the chain."""


@dataclass(frozen=True)
class ChainOutcome:
    """Resolution of one chain reaction: per-phase fire flag and updated
    phase (both indexed by phase - 1)."""

    fired: tuple[bool, ...]
    updated: tuple[int, ...]


@dataclass(frozen=True)
class Branch:
    target: State
    probability: float
    witnesses: tuple[FailureVector, ...]


@dataclass(frozen=True)
class SuccessorDistribution:
    source: State
    branches: tuple[Branch, ...]


def skip_successor(sigma: State) -> tuple[State, int]:
    """Deterministic successor of a non-firing state: shift every occupied
    phase up by T - delta, where delta is the maximal occupied phase.

    Returns the resulting firing state and the number of skipped steps.
    """
    if is_firing(sigma):
        raise ValueError(f"skip_successor applied to firing state {sigma}")
    t = len(sigma)
    delta = max(phi for phi in range(1, t + 1) if sigma[phi - 1] > 0)
    shift = t - delta
    new = [0] * t
    for phi in range(1, delta + 1):
        new[phi - 1 + shift] = sigma[phi - 1]
    return tuple(new), shift


def chain_updates(successes: int, p: ModelParams) -> tuple[list[bool], list[int]]:
    """Fire flags and updated phases for all phase groups, given the number
    of successful broadcasts from the firing group at phase T."""
    updated = [
        phi + 1 + refractory(phi, perturbation(phi, successes, p.epsilon), p.r)
        for phi in range(1, p.t)
    ]
    updated.append(p.t + 1)  # the firing group itself
    return [upd > p.t for upd in updated], updated


def resolve_chain(sigma: State, fv: FailureVector, p: ModelParams) -> ChainOutcome:
    """Resolve the chain reaction in a firing state under a failure vector.

    Raises InconsistentFailureVector if fv records a failure count for a
    phase that does not fire, or a star for one that does.
    """
    if not is_firing(sigma):
        raise ValueError(f"resolve_chain applied to non-firing state {sigma}")
    t = p.t
    f_t = fv[t - 1]
    if f_t is None or not 0 <= f_t <= sigma[t - 1]:
        raise InconsistentFailureVector(
            f"failure entry {f_t} invalid for the firing group k_{t}={sigma[t - 1]} in {sigma}"
        )
    fired, updated = chain_updates(sigma[t - 1] - f_t, p)
    for phi in range(t - 1, 0, -1):
        k = sigma[phi - 1]
        f = fv[phi - 1]
        if fired[phi - 1]:
            if f is None:
                raise InconsistentFailureVector(
                    f"phase {phi} fires in {sigma} but {format_failure_vector(fv)} marks it as non-fired"
                )
            if not 0 <= f <= k:
                raise InconsistentFailureVector(
                    f"failure count {f} out of range for k_{phi}={k} in {sigma}"
                )
        elif f is not None:
            raise InconsistentFailureVector(
                f"phase {phi} does not fire in {sigma} but {format_failure_vector(fv)} records {f} failures"
            )
    return ChainOutcome(tuple(fired), tuple(updated))


def enumerate_failure_vectors(sigma: State, p: ModelParams) -> list[FailureVector]:
    """All failure vectors consistent with some resolution of the chain.

    Branches first over the failure count of the firing group at phase T,
    which fixes the perceived success count and hence the set of absorbed
    groups; every absorbed group with k > 0 then branches over its own
    failure count.  Fired phases with k = 0 get entry 0, non-fired phases a
    star (None).
    """
    if not is_firing(sigma):
        raise ValueError(f"enumerate_failure_vectors applied to non-firing state {sigma}")
    t = p.t
    k_t = sigma[t - 1]
    vectors: list[FailureVector] = []
    for f_t in range(k_t + 1):
        fired, _ = chain_updates(k_t - f_t, p)
        entries: list[int | None] = [None] * t
        entries[t - 1] = f_t
        choice_phases = []
        for phi in range(t - 1, 0, -1):
            if fired[phi - 1]:
                entries[phi - 1] = 0
                if sigma[phi - 1] > 0:
                    choice_phases.append(phi)

        def walk(i: int) -> None:
            if i == len(choice_phases):
                vectors.append(tuple(entries))
                return
            phi = choice_phases[i]
            for f in range(sigma[phi - 1] + 1):
                entries[phi - 1] = f
                walk(i + 1)
            entries[phi - 1] = 0

        walk(0)
    return vectors


def firing_successor(sigma: State, fv: FailureVector, p: ModelParams) -> State:
    """Successor of a firing state: fired groups reset to phase 1, the rest
    move to their updated phase; groups landing on one phase merge."""
    outcome = resolve_chain(sigma, fv, p)
    t = p.t
    new = [0] * t
    for phi in range(1, t + 1):
        k = sigma[phi - 1]
        if k == 0:
            continue
        target = 1 if outcome.fired[phi - 1] else outcome.updated[phi - 1]
        new[target - 1] += k
    return tuple(new)


def failure_probability(sigma: State, fv: FailureVector, mu: float) -> float:
    """Probability of the failure pattern fv occurring in sigma: product of
    binomial point masses over the fired phase groups."""
    prob = 1.0
    for k, f in zip(sigma, fv):
        if f is not None:
            prob *= math.comb(k, f) * mu**f * (1.0 - mu) ** (k - f)
    return prob


def successor_distribution(sigma: State, p: ModelParams) -> SuccessorDistribution:
    """Full successor distribution of a state.

    Non-firing states have a single probability-one skip branch.  For firing
    states, failure vectors reaching the same target are merged; the merged
    branch keeps all witnesses.
    """
    if not is_firing(sigma):
        target, _ = skip_successor(sigma)
        return SuccessorDistribution(sigma, (Branch(target, 1.0, ()),))
    merged: dict[State, tuple[float, list[FailureVector]]] = {}
    for fv in enumerate_failure_vectors(sigma, p):
        prob = failure_probability(sigma, fv, p.mu)
        if prob == 0.0:
            continue
        target = firing_successor(sigma, fv, p)
        acc, wits = merged.setdefault(target, (0.0, []))
        merged[target] = (acc + prob, wits)
        wits.append(fv)
    branches = tuple(
        Branch(target, prob, tuple(wits))
        for target, (prob, wits) in sorted(merged.items())
    )
    return SuccessorDistribution(sigma, branches)


class FiringTable:
    """Firing successors of one model, read from a per-success chain table.

    The fired set and the updated phases depend only on the number s of
    successful broadcasts, so ``chain[s]`` is ``chain_updates(s, p)`` for
    s = 0..N.  The build and the sampler use this table;
    ``successor_distribution`` stays the reference it is tested against.
    """

    def __init__(self, p: ModelParams):
        self.t, self.mu = p.t, p.mu
        self.chain = [chain_updates(s, p) for s in range(p.n + 1)]
        # per success count, the phase each group lands on
        self.dest = [[1 if f else u for f, u in zip(*entry)] for entry in self.chain]
        self._masses: dict[int, list[float]] = {}

    def successor(self, sigma: State, successes: int) -> State:
        new = [0] * self.t
        for k, d in zip(sigma, self.dest[successes]):
            new[d - 1] += k
        return tuple(new)

    def masses(self, k: int) -> list[float]:
        """Failure-count masses of a group of k, formed as in ``failure_probability``."""
        if k not in self._masses:
            mu = self.mu
            self._masses[k] = [math.comb(k, f) * mu**f * (1.0 - mu) ** (k - f) for f in range(k + 1)]
        return self._masses[k]

    def firing_row(self, sigma: State) -> list[tuple[State, float]]:
        """The (target, probability) branches of ``successor_distribution``,
        bit for bit: each failure pattern's product runs over the phases in
        ascending order with the firing group last, and products that are
        not exactly 0.0 are summed per target in enumeration order (f_T
        outermost, then the highest absorbed phase)."""
        k_t = sigma[-1]
        merged: dict[State, float] = {}
        for f_t, m_t in enumerate(self.masses(k_t)):
            if not m_t:  # every product of this f_T is 0.0
                continue
            fired = self.chain[k_t - f_t][0]
            products = [1.0]
            for i in range(self.t - 1):
                if fired[i] and sigma[i]:
                    products = [q * m for m in self.masses(sigma[i]) for q in products]
            target = self.successor(sigma, k_t - f_t)
            acc = merged.get(target, 0.0)
            for q in products:
                if prob := q * m_t:
                    acc += prob
            if acc:
                merged[target] = acc
        return sorted(merged.items())
