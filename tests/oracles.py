"""Independent reference implementations used to cross-check the library.

The oscillator-level oracles work on individual oscillators and explicit
intermediate states, deliberately avoiding the counting shortcuts used by
the package under test.  ``reference_build`` is different: it is the
one-state-at-a-time build that the array build replaced, with its float
order, kept so that the array build can be compared with it bit for bit.
``natural_factor`` is likewise the single natural-order LU factor of a
whole system that the level-by-level block factor replaced,
``reference_export`` the line-at-a-time writer that the chunked exporter
replaced, ``stepped_walks`` the step-at-a-time finish of trapped Monte
Carlo runs that ``fold_walks`` replaced, and ``sorted_initial_weights`` the
initial weights keyed by whole sorted rows and grouped by ``np.unique``,
which ``largest_counts`` and ``groups`` replaced.  ``read_states`` and
``read_transitions`` parse exported files back.  ``rational_solve`` solves a
linear system in exact rational arithmetic, and ``exact_masses`` gives a
group's failure masses as exact fractions.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pcosync.core import ModelParams, State, is_firing, perturbation, refractory
from pcosync.dtmc import (
    MICAZ,
    DtmcModel,
    HardwareProfile,
    multinomial,
    restabilisation_support,
    state_array,
    transition_rewards,
)
from pcosync.dynamics import FiringTable, skip_successor


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
        total += scalar_state_power(tuple(current), p, profile)
        current = [0] + current[:-1]  # advance every oscillator one phase
    return total


def csr_rows(model: DtmcModel) -> list[list[tuple[int, float, float, float]]]:
    """Per source state, the (target, probability, time reward, power reward)
    of each outgoing transition, read from the model's CSR chain and its
    ``transition_rewards`` in stored order."""
    p = model.transitions
    entries = list(zip(
        p.indices.tolist(), p.data.tolist(),
        transition_rewards(model, "time").tolist(), transition_rewards(model, "power").tolist(),
    ))
    return [entries[a:b] for a, b in zip(p.indptr[:-1].tolist(), p.indptr[1:].tolist())]


def compositions(n: int, t: int) -> Iterator[State]:
    """Every way to put n oscillators into t phases, in lexicographic order."""
    if t == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in compositions(n - k, t - 1):
            yield (k, *rest)


def firing_row(table: FiringTable, sigma: State) -> list[tuple[State, float]]:
    """The (target, probability) branches of a firing state, summed one
    failure pattern at a time in enumeration order (f_T outermost, then the
    highest absorbed phase), skipping products that are exactly 0.0."""
    t, k_t = len(sigma), sigma[-1]
    merged: dict[State, float] = {}
    for f_t, m_t in enumerate(table.masses(k_t)):
        if not m_t:
            continue
        dest = table.dest[k_t - f_t]
        products = [1.0]
        for i in range(t - 1):
            if dest[i] == 1 and sigma[i]:
                products = [q * m for m in table.masses(sigma[i]) for q in products]
        target = [0] * t
        for k, d in zip(sigma, dest.tolist()):
            target[d - 1] += k
        target = tuple(target)
        acc = merged.get(target, 0.0)
        for q in products:
            if prob := q * m_t:
                acc += prob
        if acc:
            merged[target] = acc
    return sorted(merged.items())


def scalar_state_power(sigma: State, p: ModelParams, profile: HardwareProfile) -> float:
    idle = sum(sigma[: p.r])
    return idle * profile.w_idle(p.t) + (p.n - idle) * profile.w_receive(p.t)


def scalar_skip_power(sigma: State, p: ModelParams, profile: HardwareProfile) -> float:
    delta = max(phi for phi in range(1, p.t + 1) if sigma[phi - 1] > 0)
    total = 0.0
    for j in range(p.t - delta):
        idle = sum(sigma[: max(p.r - j, 0)])
        total += idle * profile.w_idle(p.t) + (p.n - idle) * profile.w_receive(p.t)
    return total


def reference_build(p: ModelParams, profile: HardwareProfile = MICAZ):
    """The chain built one state at a time: breadth-first closure of the
    initial support with a seen set and a successor dict, states sorted and
    indexed through a dict, rows from ``firing_row``.  Returns the states,
    the CSR transitions, the reward arrays and the initial weights."""
    if p.u is None:
        support, total = list(compositions(p.n, p.t)), p.t**p.n
    else:
        support = list(map(tuple, restabilisation_support(p).tolist()))
        total = sum(multinomial(sigma) for sigma in support)
    init = {sigma: multinomial(sigma) / total for sigma in support}
    table = FiringTable(p)
    frontier = list(init)
    seen = set(frontier)
    succ = {}
    while frontier:
        sigma = frontier.pop()
        if is_firing(sigma):
            base_power = scalar_state_power(sigma, p, profile)
            out = [
                (tgt, prob, 1.0 / p.t, base_power + tgt[0] * profile.w_transmit())
                for tgt, prob in firing_row(table, sigma)
            ]
        else:
            tgt, skipped = skip_successor(sigma)
            out = [(tgt, 1.0, skipped / p.t, scalar_skip_power(sigma, p, profile))]
        succ[sigma] = out
        for tgt, *_ in out:
            if tgt not in seen:
                seen.add(tgt)
                frontier.append(tgt)
    states = tuple(sorted(seen))
    index = {sigma: i for i, sigma in enumerate(states)}
    rows = [succ[sigma] for sigma in states]
    cols, prob, time_r, power_r = (
        np.array(column)
        for column in zip(*((index[tgt], *rest) for row in rows for tgt, *rest in row))
    )
    indptr = np.cumsum([0, *map(len, rows)])
    transitions = sp.csr_matrix((prob, cols, indptr), shape=(len(states), len(states)))
    initial = {index[sigma]: weight for sigma, weight in init.items()}
    return states, transitions, {"time": time_r, "power": power_r}, initial


def sorted_initial_weights(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """``initial_weights`` with each key read off the whole sorted row and
    the keys grouped by ``np.unique``, its first state of a key standing
    for the key."""
    support = state_array(p) if p.u is None else restabilisation_support(p)
    digits = min(p.n if p.u is None else p.u + 1, p.t)
    key = np.zeros(len(support), np.int64 if (p.n + 1) ** digits < 2**63 else object)
    for column in np.sort(support, axis=1)[:, p.t - digits:].T:
        key = key * (p.n + 1) + column.astype(key.dtype)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    counts = [multinomial(sigma) for sigma in support[first].tolist()]
    total = sum(c * m for c, m in zip(counts, np.bincount(inverse).tolist()))
    return support, np.array([c / total for c in counts])[inverse]


def exact_masses(k: int, mu: float) -> list[Fraction]:
    """The failure-count masses C(k, f) mu**f (1 - mu)**(k - f) of a group
    of k, f = 0..k, as exact fractions of the float mu.  Fraction reduces
    each term by a gcd of numbers of k log2(d) bits, d the denominator of
    mu, at a cost quadratic in that length, so a mu with a short binary
    expansion (0.25, not 0.2) keeps groups of a thousand or more fast."""
    a, d = mu.as_integer_ratio()
    return [Fraction(math.comb(k, f) * a**f * (d - a) ** (k - f), d**k) for f in range(k + 1)]


def log_mass_bound(k: int) -> float:
    """The relative error ``FiringTable.masses`` states for a log-space
    term of a group of k in the normal float range."""
    return (2 * k * math.log(2) + 709) * 2.0**-52


def row_sum_bound(n: int) -> float:
    """How far from 1 a row may sum in a model of n oscillators with at
    most 3 outside the largest group.  That group's terms are within
    ``log_mass_bound(n)``; a row folds at most 8(n + 1) failure-pattern
    products, and the check sums them again, each term adding at most
    2**-53 of the sum."""
    return log_mass_bound(n) + 16 * (n + 1) * 2.0**-53


def natural_factor(
    p: sp.csr_matrix, levels: list[np.ndarray]
) -> list[tuple[np.ndarray, sp.csr_matrix, spla.SuperLU]]:
    """The factor the level blocks replaced, in their layout: one block
    holding every unknown, with its rows of p, and I - a factored whole in
    natural order, for a the entries of p among the unknowns, the states of
    ``levels``; none for a system without unknowns."""
    idx = np.sort(np.concatenate([np.zeros(0, int), *levels]))
    if idx.size == 0:
        return []
    system = (sp.identity(idx.size, format="csr") - p[idx][:, idx]).tocsc()
    return [(idx, p[idx], spla.splu(system, permc_spec="NATURAL"))]


def stepped_walks(
    start: np.ndarray, acc: np.ndarray, nxt: np.ndarray, reward: np.ndarray, steps: int
) -> np.ndarray:
    """The finish ``fold_walks`` replaced: every walk takes each of the
    ``steps`` steps together, adding the reward of the position it leaves."""
    here, acc = np.asarray(start), np.array(acc, dtype=float)
    for _ in range(steps):
        acc += reward[here]
        here = nxt[here]
    return acc


def rational_solve(a: sp.spmatrix, b: Sequence) -> np.ndarray:
    """The solution x of (I - a) x = b by Gauss-Jordan elimination in
    ``Fraction`` arithmetic.  Every entry of a and b (floats or fractions)
    is taken exactly, and each entry of x is rounded to a float once, at the
    end."""
    n, coo = a.shape[0], sp.coo_matrix(a)
    m = [[Fraction(int(i == j)) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        m[i][j] -= Fraction(v)
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        d = m[col][col]
        m[col] = row = [v / d for v in m[col]]
        for r in range(n):
            if r != col and (f := m[r][col]):
                m[r] = [v - f * w for v, w in zip(m[r], row)]
    return np.array([float(row[n]) for row in m])


def reference_export(model: DtmcModel, prefix: Path) -> dict[str, Path]:
    """The exporter the chunked one replaced: one f-string and one write
    per line, into the files ``export_model`` names."""
    paths = {
        "states": Path(f"{prefix}.sta"),
        "transitions": Path(f"{prefix}.tra"),
        "time_rewards": Path(f"{prefix}.time.trew"),
        "power_rewards": Path(f"{prefix}.power.trew"),
    }
    with open(paths["states"], "w", encoding="utf-8", newline="\n") as fh:
        for i, sigma in enumerate(model.states):
            fh.write(f"{i}:({','.join(str(k) for k in sigma)})\n")
    coo = model.transitions.tocoo()
    for kind, values, header in (
        ("transitions", model.transitions.data, f"{model.n_states} {model.n_transitions}\n"),
        ("time_rewards", transition_rewards(model, "time"), ""),
        ("power_rewards", transition_rewards(model, "power"), ""),
    ):
        with open(paths[kind], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            for src, dst, v in zip(coo.row.tolist(), coo.col.tolist(), values.tolist()):
                fh.write(f"{src} {dst} {v:.17g}\n")
    return paths


def read_states(path: str | Path) -> list[tuple[int, ...]]:
    states = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            idx, counts = line.split(":", 1)
            if int(idx) != len(states):
                raise ValueError(
                    f"{path}, line {lineno}: state index {idx}, expected {len(states)}"
                )
            states.append(tuple(int(x) for x in counts.strip("()").split(",")))
    return states


def read_transitions(path: str | Path) -> tuple[int, list[tuple[int, int, float]]]:
    """Returns the declared state count and the transition triples."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        n_states, n_transitions = int(header[0]), int(header[1])
        triples = []
        for line in fh:
            if not line.strip():
                continue
            src, dst, prob = line.split()
            triples.append((int(src), int(dst), float(prob)))
    if len(triples) != n_transitions:
        raise ValueError(
            f"transition file declares {n_transitions} transitions, found {len(triples)}"
        )
    return n_states, triples
