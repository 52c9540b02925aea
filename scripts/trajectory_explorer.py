#!/usr/bin/env python3
"""Inspect the step-by-step behavior of one global state.

Prints the successor distribution of a state (branch probabilities, witness
failure vectors, phase coherence of each target) and optionally follows the
most likely branch for a number of steps.  Useful for checking chain
reactions by hand.
"""

import argparse
import sys

from pcosync.core import ModelParams, format_failure_vector, is_firing, validate_state
from pcosync.dynamics import skip_successor, successor_distribution
from pcosync.metrics import phase_coherence


def show_state(sigma, p):
    pcf = phase_coherence(sigma, p.t)
    kind = "firing" if is_firing(sigma) else "non-firing"
    print(f"state {sigma}  ({kind}, coherence {pcf:.4f})")


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

    for step in range(args.steps):
        show_state(sigma, p)
        if not is_firing(sigma):
            target, skipped = skip_successor(sigma)
            print(f"  skip over {skipped} silent steps -> {target}")
            sigma = target
            continue
        dist = successor_distribution(sigma, p)
        for b in sorted(dist.branches, key=lambda b: -b.probability):
            wits = ", ".join(format_failure_vector(fv) for fv in b.witnesses[:4])
            more = "" if len(b.witnesses) <= 4 else f" (+{len(b.witnesses) - 4} more)"
            print(
                f"  p={b.probability:.6f} -> {b.target}"
                f"  coherence {phase_coherence(b.target, p.t):.4f}"
                f"  via {wits}{more}"
            )
        sigma = max(dist.branches, key=lambda b: b.probability).target
    show_state(sigma, p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
