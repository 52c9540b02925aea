#!/usr/bin/env python3
"""Inspect the step-by-step behavior of one global state.

Prints the successor branches of a state as the built chain holds them
(branch probabilities, phase coherence of each target, and one failure
vector that reaches it) and optionally follows the most likely branch for a
number of steps.  Useful for checking chain reactions by hand.
"""

import argparse
import sys

import numpy as np

from pcosync.core import ModelParams, format_failure_vector, is_firing, validate_state
from pcosync.dynamics import FiringTable, skip_lengths, skip_successor
from pcosync.metrics import phase_coherence


def show_state(sigma, p):
    pcf = phase_coherence(sigma, p.t)
    kind = "firing" if is_firing(sigma) else "non-firing"
    print(f"state {sigma}  ({kind}, coherence {pcf:.4f})")


def branches(sigma, table):
    """The (probability, target, failure vector) of each branch of a firing
    state, by ascending target.  Probability and target are the chain's:
    ``FiringTable.branches`` on the state's own row.  The failure vector is
    the branch's canonical witness: the fewest failures in the firing group
    that reach the target with nonzero mass, none in the absorbed groups."""
    states = np.array([sigma])
    found = []

    def rows(targets):  # ids in lexicographic order, as the rows of a built chain
        distinct, inverse = np.unique(targets, axis=0, return_inverse=True)
        found.extend(map(tuple, distinct.tolist()))
        return inverse.reshape(-1)

    _, probs, ids = table.branches(states, skip_lengths(states), rows)
    k_t = sigma[-1]
    successes = np.arange(k_t, -1, -1)  # f_T = 0, 1, ..., k_T failures
    reached = table.successors(np.repeat(states, k_t + 1, axis=0), successes, np.zeros(k_t + 1, np.int64))
    witnesses = {}
    for f_t, (target, mass) in enumerate(zip(map(tuple, reached.tolist()), table.masses(k_t))):
        if mass and target not in witnesses:
            fired = (table.dest[k_t - f_t, :-1] == 1).tolist()
            witnesses[target] = tuple(0 if fire else None for fire in fired) + (f_t,)
    return [(prob, found[i], witnesses[found[i]]) for prob, i in zip(probs.tolist(), ids.tolist())]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("state", help="comma-separated counts, e.g. 0,0,0,0,0,2,1,0,0,5")
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--mu", type=float, default=0.2)
    ap.add_argument("--steps", type=int, default=1, help="follow the likeliest branch")
    args = ap.parse_args()

    try:
        sigma = tuple(int(x) for x in args.state.split(","))
        p = ModelParams(n=sum(sigma), t=len(sigma), r=args.r, epsilon=args.eps, mu=args.mu)
        validate_state(sigma, p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    table = FiringTable(p)
    for step in range(args.steps):
        show_state(sigma, p)
        if not is_firing(sigma):
            target, skipped = skip_successor(sigma)
            print(f"  skip over {skipped} silent steps -> {target}")
            sigma = target
            continue
        out = branches(sigma, table)
        for prob, target, fv in sorted(out, key=lambda b: -b[0]):
            print(
                f"  p={prob:.6f} -> {target}"
                f"  coherence {phase_coherence(target, p.t):.4f}"
                f"  via {format_failure_vector(fv)}"
            )
        sigma = max(out, key=lambda b: b[0])[1]
    show_state(sigma, p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
