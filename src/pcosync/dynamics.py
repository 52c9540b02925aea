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
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

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


def skip_targets(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``skip_successor`` of each row of a count array; T - delta is 0 in a firing row."""
    t = states.shape[1]
    shift = np.argmax(states[:, ::-1] > 0, axis=1)
    return np.take_along_axis(states, (np.arange(t) - shift[:, None]) % t, 1), shift


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

    MAX_GROUP = 1029  #: C(k, f) of a larger group leaves the float range

    def __init__(self, p: ModelParams):
        self.mu = p.mu
        self.chain = [chain_updates(s, p) for s in range(p.n + 1)]
        self.fired = np.array([fired for fired, _ in self.chain])
        # per success count, the phase each group lands on
        self.dest = np.where(self.fired, 1, np.array([updated for _, updated in self.chain]))
        self._masses: dict[int, list[float]] = {}

    def successors(self, states: np.ndarray, successes: np.ndarray) -> np.ndarray:
        """Row j of states stepped with ``successes[j]`` successful broadcasts."""
        targets = np.zeros(states.shape, states.dtype)
        cells = np.arange(len(states)) * states.shape[1] - 1
        for i in range(states.shape[1]):
            np.add.at(targets.reshape(-1), cells + self.dest[successes, i], states[:, i])
        return targets

    def masses(self, k: int) -> list[float]:
        """Failure-count masses of a group of k, formed as in ``failure_probability``."""
        k = int(k)  # a NumPy k would take the powers in NumPy, off in the last bit
        if k not in self._masses:
            if k > self.MAX_GROUP:
                raise ValueError(f"a group of {k} oscillators exceeds the limit of {self.MAX_GROUP}")
            mu = self.mu
            self._masses[k] = [math.comb(k, f) * mu**f * (1.0 - mu) ** (k - f) for f in range(k + 1)]
        return self._masses[k]

    def terms(self, sizes: list[int], k_t: int, f_t: int) -> list[float]:
        """The failure-pattern products of a (state, f_T) pair that are not
        exactly 0.0, in enumeration order (the highest absorbed phase
        outermost): each runs over the absorbed group sizes in phase order,
        zeros skipped, with the firing group's mass last."""
        m_t = self.masses(k_t)[f_t]
        products = [1.0]
        for k in filter(None, sizes):
            products = [q * m for m in self.masses(k) for q in products]
        return [prob for q in products if (prob := q * m_t)]

    def branches(
        self, states: np.ndarray, rank: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The branches of every row of ``states``, bit for bit as
        ``successor_distribution`` gives them: per branch its row, its
        probability, the target's rank and the target itself, with rows in
        order and each row's targets by ascending rank.  A non-firing row
        (k_T = 0) gets its one branch, the skip, of probability 1.0.

        A row's probability for a target sums the ``terms`` of its (row,
        f_T) pairs in f_T order, starting at 0.0; a target that no term
        reaches is left out.  The sum over a target's lowest f_T depends
        only on the pair's key (the absorbed group sizes in phase order,
        k_T and f_T), so it is taken once per key; only pairs that continue
        a lower f_T's running sum are added up one by one.
        """
        base = len(self.chain)
        k_t = states[:, -1].astype(np.int64)
        row = np.repeat(np.arange(len(states)), k_t + 1)
        f_t = np.arange(len(row)) - np.repeat(np.cumsum(k_t + 1) - k_t - 1, k_t + 1)
        successes = k_t[row] - f_t
        # the key as base N + 1 digits: the nonzero absorbed sizes, k_T, f_T
        digits = int(np.count_nonzero(states[:, :-1], axis=1).max(initial=0)) + 2
        key = np.zeros(len(row), np.int64 if base**digits < 2**63 else object)
        for i in range(states.shape[1] - 1):
            size = np.where(self.fired[successes, i], states[row, i], 0)
            key = np.where(size > 0, key * base + size, key)
        _, pair, key_of = np.unique(
            (key * base + k_t[row]) * base + f_t, return_index=True, return_inverse=True
        )
        # per key, from one of its pairs; Python ints, as the reference uses
        absorbed = states[row[pair], :-1] * self.fired[successes[pair], :-1]
        terms = list(map(self.terms, absorbed.tolist(), k_t[row[pair]].tolist(), f_t[pair].tolist()))
        sums = np.array([reduce(add, x, 0.0) for x in terms])[key_of]
        keep = np.flatnonzero(sums)
        row, successes, key_of, sums = row[keep], successes[keep], key_of[keep], sums[keep]
        targets, idle = self.successors(states[row], successes), k_t[row] == 0
        targets[idle] = skip_targets(states[row[idle]])[0]  # the skip of a non-firing row
        ranks = rank(targets)
        order = np.lexsort((ranks, row))  # stable: f_T ascends within a target
        row, key_of, ranks = row[order], key_of[order], ranks[order]
        probs = sums[order].tolist()
        new = np.r_[True, (row[1:] != row[:-1]) | (ranks[1:] != ranks[:-1])]
        for j in np.flatnonzero(~new).tolist():
            probs[j] = reduce(add, terms[key_of[j]], probs[j - 1])
        last = np.r_[new[1:], True]
        return row[last], np.array(probs)[last], ranks[last], targets[order[last]]
