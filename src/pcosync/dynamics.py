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


def chain_updates(successes: int, p: ModelParams) -> tuple[list[bool], list[int]]:
    """Fire flags and updated phases for all phase groups, given the number
    of successful broadcasts from the firing group at phase T."""
    epsilon = min(p.epsilon, p.t)  # T already absorbs all perturbed groups; more can overflow
    updated = [
        phi + 1 + refractory(phi, perturbation(phi, successes, epsilon), p.r)
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
    s = 0..N.  The build and the sampler both step with ``successors`` and
    weigh failures with ``masses``; ``successor_distribution`` stays the
    reference the table is tested against.
    """

    #: C(k, f) of a larger group leaves the float range: ``masses`` forms its
    #: terms in log space, and ``build_dtmc`` refuses it
    MAX_GROUP = 1029

    def __init__(self, p: ModelParams):
        self.mu = p.mu
        self.chain = [chain_updates(s, p) for s in range(p.n + 1)]
        self.fired = np.array([fired for fired, _ in self.chain])
        # per success count, the phase each group lands on
        self.dest = np.where(self.fired, 1, np.array([updated for _, updated in self.chain]))
        self._masses: dict[int, list[float]] = {}

    def successors(self, states: np.ndarray, successes: np.ndarray) -> np.ndarray:
        """Row j of states stepped with ``successes[j]`` successful broadcasts
        of its firing group, or, if it does not fire, by ``skip_successor``."""
        n, t = states.shape
        idle = np.flatnonzero(states[:, -1] == 0)
        shift = np.argmax(states[idle, ::-1] > 0, axis=1)  # T - delta
        targets = np.zeros(states.shape, states.dtype)
        cells = np.arange(n) * t - 1
        for i in range(t):
            dest = self.dest[successes, i]  # the phase group i + 1 lands on
            # a skip moves it up by T - delta; an empty group above delta lands on T
            dest[idle] = np.minimum(i + 1 + shift, t)
            np.add.at(targets.reshape(-1), cells + dest, states[:, i])
        return targets

    def masses(self, k: int) -> list[float]:
        """Failure-count masses of a group of k, formed as in
        ``failure_probability``.  Above ``MAX_GROUP`` the same terms are
        formed in log space from the exact C(k, f), which the rounding of the
        logs leaves within a few 1e-13 relative (2.6e-13 at k = 1,600,
        mu = 0.2)."""
        k = int(k)  # a NumPy k would take the powers in NumPy, off in the last bit
        if k not in self._masses:
            mu = self.mu
            if k <= self.MAX_GROUP:
                masses = [math.comb(k, f) * mu**f * (1.0 - mu) ** (k - f) for f in range(k + 1)]
            elif mu in (0.0, 1.0):  # every broadcast succeeds, or every one fails
                masses = [float(f == (k if mu else 0)) for f in range(k + 1)]
            else:
                log_mu, log_nu, comb, masses = math.log(mu), math.log1p(-mu), 1, []
                for f in range(k + 1):
                    masses.append(math.exp(math.log(comb) + f * log_mu + (k - f) * log_nu))
                    comb = comb * (k - f) // (f + 1)
            self._masses[k] = masses
        return self._masses[k]

    def products(
        self, absorbed: np.ndarray, k_t: np.ndarray, f_t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero failure-pattern products of each key, as segments of
        one flat array in key order, and each segment's start and length.
        Key i runs over the failure counts of its absorbed group sizes
        ``absorbed[i]`` (0 for none: radix 1, mass 1.0) by mixed radix,
        lowest phase fastest, as ``successor_distribution`` enumerates them;
        each product is ((1.0 * m_1) * m_2) * ... * m_T, with the mass of
        ``f_t[i]`` failures in the firing group of ``k_t[i]`` last."""
        sizes = np.unique(np.r_[absorbed.ravel(), k_t])
        mass = np.concatenate([self.masses(k) for k in sizes.tolist()])
        first = np.zeros(sizes[-1] + 1, np.int64)  # masses(k) starts at mass[first[k]]
        first[sizes] = np.cumsum(sizes + 1) - sizes - 1
        radix = absorbed.astype(np.int64) + 1
        count = radix.prod(axis=1)
        key = np.repeat(np.arange(len(count)), count)
        place = _ranges(0, count)
        products = np.ones(len(key))
        for i in range(radix.shape[1]):
            digit = radix[key, i]
            products *= mass[first[digit - 1] + place % digit]
            place //= digit
        products *= mass[first[k_t] + f_t][key]
        nonzero = products != 0.0
        count = np.bincount(key[nonzero], minlength=len(count))
        return products[nonzero], np.cumsum(count) - count, count

    def branches(
        self, states: np.ndarray, rows: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The branches of every row of ``states``, bit for bit as
        ``successor_distribution`` gives them: per branch its row, its
        probability and its target's row, which ``rows`` finds, with rows in
        order and each row's targets by ascending row.  A non-firing row
        (k_T = 0) gets its one branch, the skip, of probability 1.0.

        A row's probability for a target is the left fold, from 0.0, of the
        ``products`` of its (row, f_T) pairs in f_T order; a target that none
        reaches is left out.  The products depend only on the pair's key
        (the absorbed sizes, k_T and f_T), so ``fold_segments`` sums them
        once per key, and a target's sum is its first pair's key sum folded
        on through the products of the pairs that continue it.  The target
        depends on the success count only through its ``dest`` row, so the
        successor is formed once per run of a row's pairs that share one.
        """
        base = len(self.chain)
        k_t = states[:, -1].astype(np.int64)
        row = np.repeat(np.arange(len(states)), k_t + 1)
        f_t = _ranges(0, k_t + 1)
        successes = k_t[row] - f_t
        # a run: consecutive pairs of a row whose success counts share a dest
        # row, and so the absorbed groups and the target
        dest_of = np.r_[0, np.cumsum(np.any(self.dest[1:] != self.dest[:-1], axis=1))]
        lead = np.r_[True, (row[1:] != row[:-1]) | (dest_of[successes[1:]] != dest_of[successes[:-1]])]
        run, run_of = np.flatnonzero(lead), np.cumsum(lead) - 1
        absorbed = states[row[run], :-1] * self.fired[successes[run], :-1]
        # the key as base N + 1 digits: the nonzero absorbed sizes, k_T, f_T
        digits = int(np.count_nonzero(states[:, :-1], axis=1).max(initial=0)) + 2
        key = np.zeros(len(run), np.int64 if base**digits < 2**63 else object)
        for size in absorbed.T:
            key = np.where(size > 0, key * base + size, key)
        key = (key * base + k_t[row[run]])[run_of] * base + f_t
        _, pair, key_of = np.unique(key, return_index=True, return_inverse=True)
        terms, start, count = self.products(absorbed[run_of[pair]], k_t[row[pair]], f_t[pair])
        sums = fold_segments(terms, start, count, np.zeros(len(count)))
        # a pair without a nonzero product reaches no target
        keep = np.flatnonzero(count[key_of])
        row, successes, key_of, run_of = row[keep], successes[keep], key_of[keep], run_of[keep]
        # one successor per run that keeps a pair
        lead = np.r_[True, run_of[1:] != run_of[:-1]]
        run, run_of = np.flatnonzero(lead), np.cumsum(lead) - 1
        target = rows(self.successors(states[row[run]], successes[run]))
        order = np.lexsort((target[run_of], row))  # stable: f_T ascends within a target
        row, key_of, run_of = row[order], key_of[order], run_of[order]
        new = np.r_[True, (row[1:] != row[:-1]) | (target[run_of[1:]] != target[run_of[:-1]])]
        probs = sums[key_of[new]]  # the key sum of a branch's first pair
        # then the products of the pairs that continue the sum, in order
        cont = np.flatnonzero(~new)
        length = count[key_of[cont]]
        branch = np.cumsum(new)[cont] - 1
        end = np.flatnonzero(np.diff(branch, append=-1))  # a branch's last continuing pair
        span = np.diff(np.cumsum(length)[end], prepend=0)
        gather = _ranges(start[key_of[cont]], length)
        probs[branch[end]] = fold_segments(terms[gather], np.cumsum(span) - span, span, probs[branch[end]])
        last = np.r_[new[1:], True]
        return row[last], probs, target[run_of[last]]


def _ranges(start: np.ndarray | int, length: np.ndarray) -> np.ndarray:
    """The ranges start[i], ..., start[i] + length[i] - 1, one after another."""
    return np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum())


def fold_segments(
    values: np.ndarray, start: np.ndarray, length: np.ndarray, acc: np.ndarray
) -> np.ndarray:
    """``acc[i] + values[start[i]] + ... + values[start[i] + length[i] - 1]``
    for every segment i, each added left to right as ``functools.reduce``
    adds: step j adds the j-th value of every segment longer than j, with
    the segments sorted by length so that those come first.  ``np.sum``
    and ``np.add.reduceat`` add pairwise, which rounds differently."""
    order = np.argsort(-length, kind="stable")
    start, acc = start[order], acc[order]
    longer = np.searchsorted(-length[order], -np.arange(length.max(initial=0)))
    for j, a in enumerate(longer.tolist()):  # a: the segments longer than j
        acc[:a] += values[start[:a] + j]
    out = np.empty_like(acc)
    out[order] = acc
    return out
