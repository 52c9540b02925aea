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
from typing import Callable

import numpy as np

from .core import ModelParams, State, is_firing, perturbation, refractory


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


def skip_lengths(states: np.ndarray) -> np.ndarray:
    """T - delta of each row of a count array, delta its highest occupied phase
    (0 for a firing row), in the smallest type that holds T: the build keeps
    one per state."""
    return np.argmax(states[..., ::-1] > 0, axis=-1).astype(np.min_scalar_type(states.shape[-1]))


def chain_updates(successes: int | np.ndarray, p: ModelParams) -> tuple[list, list]:
    """Fire flags and updated phases for all phase groups, given the number
    of successful broadcasts from the firing group at phase T.  For an
    array of counts, a phase's entry is an array over them, or a constant
    where it does not depend on the count."""
    epsilon = min(p.epsilon, p.t)  # T already absorbs all perturbed groups; more can overflow
    updated = [
        phi + 1 + refractory(phi, perturbation(phi, successes, epsilon), p.r)
        for phi in range(1, p.t)
    ]
    updated.append(p.t + 1)  # the firing group itself
    return [upd > p.t for upd in updated], updated


class FiringTable:
    """Firing successors of one model, read from per-success tables.

    The fired set and the updated phases depend only on the number s of
    successful broadcasts, so row s of ``dest`` is the phase each group
    lands on under ``chain_updates(s, p)`` for s = 0..N: 1 for a group that
    fires, and phi + 1 + delta >= 2 for one that does not, so ``dest == 1``
    is the fire flags.  The build and the sampler both step with
    ``successors``, which reads the landing table ``lands`` formed once, and
    weigh failures with ``masses``.  The paper's enumeration of failure
    vectors, one state at a time, is the test oracle the table is checked
    against; the package itself has no other successor semantics.
    """

    #: C(k, f) of a larger group leaves the float range, so ``masses`` forms
    #: its terms in log space
    MAX_GROUP = 1029

    def __init__(self, p: ModelParams):
        self.mu = p.mu
        s = np.arange(p.n + 1)
        # every count at once: a phase's entry is an array over s, or a constant
        fired, updated = (np.stack(np.broadcast_arrays(s, *x)[1:], axis=1) for x in chain_updates(s, p))
        self.dest = np.where(fired, 1, updated)
        # lands: dest, then a skip by T - delta, which moves each group up by T - delta and an
        # empty group above delta to T, as row N + 1 + T - delta; one contiguous row per phase
        skips = np.minimum(np.arange(1, p.t + 1) + np.arange(p.t)[:, None], p.t)
        self.lands = np.concatenate((self.dest, skips)).T.copy()
        # the counts where the dest row changes; a run of counts with one dest row lies between two
        self.bounds = np.r_[0, np.flatnonzero(np.any(self.dest[1:] != self.dest[:-1], axis=1)) + 1, len(self.dest)]
        self._masses: dict[int, list[float]] = {}

    def successors(self, states: np.ndarray, successes: np.ndarray, skips: np.ndarray) -> np.ndarray:
        """Row j of states stepped with ``successes[j]`` successful broadcasts of its
        firing group, or, with a ``skip_lengths`` entry ``skips[j]`` > 0, by ``skip_successor``."""
        n, t = states.shape
        row = np.where(skips > 0, skips.astype(np.int64) + len(self.dest), successes)
        targets, cell = np.zeros(states.shape, states.dtype), np.empty(n, np.int64)
        cells = np.arange(-1, n * t - 1, t)  # the cell before each row's first
        for dest, column in zip(self.lands, states.T):  # the phase each group lands on
            np.take(dest, row, out=cell, mode="clip")  # rows of lands; "raise" would buffer
            cell += cells
            np.add.at(targets.reshape(-1), cell, column)
        return targets

    def masses(self, k: int) -> list[float]:
        """Failure-count masses of a group of k, f = 0..k: the binomial
        point masses C(k, f) * mu**f * (1 - mu)**(k - f), multiplied in that
        order.  Above ``MAX_GROUP`` the same terms are formed in log space;
        for a term in the normal float range the logs sum to at most
        2k log 2 + 709 in magnitude, so their rounding leaves it within
        (2k log 2 + 709) * 2**-52 relative (5.0e-13 at k = 1,100, where
        2.8e-13 was measured)."""
        k = int(k)  # a NumPy k would take the powers in NumPy, off in the last bit
        if k not in self._masses:
            mu, masses = self.mu, [0.0] * (k + 1)
            if mu in (0.0, 1.0):  # every broadcast succeeds, or every one fails
                masses[k if mu else 0] = 1.0
            else:
                nu, log_mu, log_nu, comb = 1.0 - mu, math.log(mu), math.log1p(-mu), 1
                for f in range(k + 1):  # comb is C(k, f)
                    if k <= self.MAX_GROUP:
                        masses[f] = comb * mu**f * nu ** (k - f)
                    else:
                        masses[f] = math.exp(math.log(comb) + f * log_mu + (k - f) * log_nu)
                    comb = comb * (k - f) // (f + 1)
            self._masses[k] = masses
        return self._masses[k]

    def runs(self, k_t: np.ndarray) -> np.ndarray:
        """The runs of success counts 0..k_T that share a ``dest`` row, for
        each firing-group size k_T: at most one branch of ``branches`` each."""
        return np.searchsorted(self.bounds, k_t, side="right")

    def branches(
        self, states: np.ndarray, skips: np.ndarray, rows: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The branches of every row of ``states``, whose ``skip_lengths``
        are ``skips``, bit for bit as the enumeration of failure vectors
        gives them: per branch its row, its probability and its target's
        row in ``states``, which ``rows`` finds, with rows in order and each
        row's targets by ascending row.  A non-firing row (k_T = 0) gets its
        one branch, the skip, of probability 1.0.

        A row's probability for a target is the left fold, from 0.0, of the
        failure-pattern products of the f_T that reach it, in f_T order; a
        target whose sum is 0.0 is left out.  The f_T of one target form an
        interval [lo, hi].  As the success count s grows, each group's
        updated phase phi + 1 + delta_phi(s) grows or stays, so a group that
        fires at s fires at every larger s, and the groups that do not fire
        land on distinct phases >= 2 in phase order.  Two counts with one
        target thus have the same fired groups and landings, and so has
        every count between them.  Along the interval the absorbed groups
        stay the same, so the probability depends only on the key (the
        absorbed sizes, k_T, lo, hi), and ``fold_keys`` forms it once per
        key.  The target changes only where the ``dest`` row does, so the
        successor is formed once per run of counts that share one.
        """
        k_t, bounds = states[:, -1].astype(np.int64), self.bounds
        runs = self.runs(k_t)
        row = np.repeat(np.arange(len(states)), runs)
        run = runs[row] - 1 - _ranges(0, runs)  # f_T ascends, so s descends
        # the run's s from bounds[run] to bounds[run + 1] - 1 or k_T: f_T from lo to hi
        k_t, successes = k_t[row], bounds[run]
        lo, hi = k_t - np.minimum(bounds[run + 1] - 1, k_t), k_t - successes
        target = rows(self.successors(states[row], successes, skips[row]))
        # consecutive runs of a row with one target make one branch
        new = np.r_[True, (row[1:] != row[:-1]) | (target[1:] != target[:-1])]
        hi = hi[np.r_[new[1:], True]]
        row, successes, k_t, lo, target = row[new], successes[new], k_t[new], lo[new], target[new]
        absorbed = states[row, :-1] * (self.dest == 1)[successes, :-1]  # a gather of flags, not of phases
        # the key as base N + 1 digits: the nonzero absorbed sizes, k_T, lo, hi
        base = len(self.dest)
        digits = int(np.count_nonzero(states[:, :-1], axis=1).max(initial=0)) + 3
        key = np.zeros(len(row), np.int64 if base**digits < 2**63 else object)
        for size in absorbed.T:
            key = np.where(size > 0, key * base + size, key)
        for digit in (k_t, lo, hi):
            key = key * base + digit
        # any branch of a key folds the same: its sizes may sit at other
        # phases, but an empty phase multiplies by 1.0
        first, key_of = groups(key)
        probs = self.fold_keys(absorbed[first], k_t[first], lo[first], hi[first])[key_of]
        # a target is one run of f_T, so each (row, target) is one branch: one
        # key, radix above every target, is distinct per branch and orders them
        order = np.argsort(row * (target.max(initial=0) + 1) + target)
        order = order[probs[order] != 0.0]
        return row[order], probs[order], target[order]

    def fold_keys(
        self, absorbed: np.ndarray, k_t: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Per key i, the left fold from 0.0 of its failure-pattern
        products: f_T from ``lo[i]`` to ``hi[i]``, and within each the
        failure counts of the absorbed group sizes ``absorbed[i]`` (0 for
        none: radix 1, mass 1.0) by mixed radix, lowest phase fastest, as
        the enumeration of failure vectors lists them.  Each product is
        ((1.0 * m_1) * m_2) * ... * m_T, with the mass of f_T failures in
        the firing group of ``k_t[i]`` last.  So the absorbed part q of a
        pattern is formed once per key, and its product for f_T is
        ``q * m_T(f_T)``, the same two operands as the last multiply of
        the whole chain; a phase where every key has radix 1 multiplies by
        1.0 and is skipped."""
        sizes = np.unique(np.r_[absorbed.ravel(), k_t])
        mass = np.concatenate([self.masses(k) for k in sizes.tolist()])
        first = np.zeros(sizes[-1] + 1, np.int64)  # masses(k) starts at mass[first[k]]
        first[sizes] = np.cumsum(sizes + 1) - sizes - 1
        radix = absorbed.astype(np.int64) + 1
        patterns = radix.prod(axis=1)
        place = _ranges(0, patterns)
        q = np.ones(len(place))
        for column in radix[:, np.any(radix > 1, axis=0)].T:
            digit = np.repeat(column, patterns)
            q *= mass[first[digit - 1] + place % digit]
            place //= digit
        # per (key, f_T): the key's patterns, each times the mass of f_T
        spans = hi - lo + 1
        runs = np.repeat(patterns, spans)
        q_first = np.repeat(np.cumsum(patterns) - patterns, spans)
        products = q[_ranges(q_first, runs)] * np.repeat(mass[_ranges(first[k_t] + lo, spans)], runs)
        count = patterns * spans
        return fold_segments(products, np.cumsum(count) - count, count, np.zeros(len(count)))


def _ranges(start: np.ndarray | int, length: np.ndarray) -> np.ndarray:
    """The ranges start[i], ..., start[i] + length[i] - 1, one after another."""
    return np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum())


def groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a 1-D key in ascending order, as ``np.unique``
    gives them, each by one position that holds it, and the inverse: the
    group of each entry.  One unstable sort finds them, so the position of a
    repeated value is any of its positions, not the first."""
    order = np.argsort(key)
    ordered, new = key[order], np.ones(len(key), bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(key), np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


#: Values of one block of ``fold_segments``, beyond the one row per segment.
FOLD_BLOCK = 1 << 16


def fold_segments(
    values: np.ndarray, start: np.ndarray, length: np.ndarray, acc: np.ndarray
) -> np.ndarray:
    """``acc[i] + values[start[i]] + ... + values[start[i] + length[i] - 1]``
    for every segment i, each added left to right as ``functools.reduce``
    adds.  The segments of one length fold together in blocks: row 0 of a
    block holds their sums so far and each further row their next values,
    one column per segment, and ``np.add.accumulate`` down the rows adds
    strictly in order, so Python steps once per distinct length and per
    ``FOLD_BLOCK`` values.  ``np.sum`` and ``np.add.reduceat`` add
    pairwise, which rounds differently."""
    out = np.array(acc, dtype=float)
    for size in np.unique(length).tolist():
        segs = np.flatnonzero(length == size)
        steps = max(1, FOLD_BLOCK // len(segs))
        for j in range(0, size, steps):
            block = np.empty((min(steps, size - j) + 1, len(segs)))
            block[0] = out[segs]
            block[1:] = values[start[segs] + np.arange(j, j + len(block) - 1)[:, None]]
            out[segs] = np.add.accumulate(block, axis=0)[-1]
    return out


def fold_walks(
    start: np.ndarray, acc: np.ndarray, nxt: np.ndarray, reward: np.ndarray, steps: int
) -> np.ndarray:
    """``acc[i] + reward[x_0] + ... + reward[x_(steps - 1)]`` for every walk
    i, where x_0 = ``start[i]`` and x_(k + 1) = ``nxt[x_k]``, each added left
    to right as stepping the walks together adds it.  Walks that stand at
    one position with the same acc, bit for bit, fold once.  The rewards of
    the next L steps from every position are formed once, the positions by
    doubling, for L = ``FOLD_BLOCK`` // max(pairs, positions); each block of
    L steps gathers the walks' columns of that table and adds them with
    ``np.add.accumulate`` down the rows, as ``fold_segments`` does.  So
    Python steps O(steps / L + log L) times, and no array holds more than
    ``FOLD_BLOCK`` values beyond the one row of sums."""
    pairs, inverse = np.unique(np.column_stack((start, acc.view(np.int64))), axis=0, return_inverse=True)
    here = pairs[:, 0]
    length = max(1, min(steps, FOLD_BLOCK // max(len(pairs), len(nxt))))
    walk = np.empty((length, len(nxt)), np.int64)  # walk[k, x]: k steps on from x
    walk[0] = np.arange(len(nxt))
    h = 1
    while h < length:  # k + h steps on from x: k steps on from h steps on
        walk[h:2 * h] = walk[: min(h, length - h), nxt[walk[h - 1]]]
        h *= 2
    jump, gain = nxt[walk[-1]], reward[walk]  # length steps on from x; the reward of each step
    del walk
    block = np.empty((length + 1, len(pairs)))
    block[0] = pairs[:, 1].view(float)  # row 0: the sums so far
    for j in range(0, steps, length):
        rows = block[: min(length, steps - j) + 1]
        np.take(gain[: len(rows) - 1], here, axis=1, out=rows[1:], mode="clip")  # "raise" would buffer
        np.add.accumulate(rows, axis=0, out=rows)
        rows[0], here = rows[-1], jump[here]
    return block[0][inverse.reshape(-1)]
