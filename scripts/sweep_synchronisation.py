#!/usr/bin/env python3
"""Full-network synchronisation sweep.

Sweeps the refractory length and the coherence target for a fixed population
and writes one CSV row per (R, lambda, metric, aggregate) combination: the
grid behind time/energy-versus-threshold plots.  The model for each R is
built once and shared by all queries.
"""

import argparse
import csv
import sys
import time
from dataclasses import replace

from pcosync.analysis import aggregate, expected_reward, reach_probability, target_set
from pcosync.cli import load_profile, parse_range
from pcosync.core import ModelParams
from pcosync.dtmc import build_dtmc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--t", type=int, default=10)
    ap.add_argument("--r", default="1:1:4", help="refractory range (start:step:stop)")
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--mu", type=float, default=0.2)
    ap.add_argument("--lambdas", default="0.1:0.1:1.0")
    ap.add_argument("--profile", default="micaz")
    ap.add_argument("--cycle", type=float, help="override cycle length in seconds")
    ap.add_argument("--output", default="-", help="CSV path, '-' for stdout")
    args = ap.parse_args()

    profile = load_profile(args.profile)
    if args.cycle is not None:
        profile = replace(profile, cycle_s=args.cycle)

    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([
        "R", "lambda", "metric", "aggregate", "value", "per_node_mWh",
        "reach_probability", "states", "build_s", "solve_s",
    ])
    for r in parse_range(args.r, int):
        params = ModelParams(n=args.n, t=args.t, r=r, epsilon=args.eps, mu=args.mu)
        t0 = time.perf_counter()
        model = build_dtmc(params, profile)
        build_s = time.perf_counter() - t0
        for lam in parse_range(args.lambdas, float):
            t0 = time.perf_counter()
            targets = target_set(model, lam)
            reach, _ = reach_probability(model, targets)
            for metric in ("time", "power"):
                values, _ = expected_reward(model, targets, metric, reach=reach)
                for agg in ("min", "avg", "max"):
                    res = aggregate(model, values, reach, agg, metric)
                    writer.writerow([
                        r, f"{lam:g}", metric, agg, f"{res.value:.10g}",
                        "" if res.per_node_mWh is None else f"{res.per_node_mWh:.10g}",
                        f"{res.reach_probability:.10g}", model.n_states,
                        f"{build_s:.2f}", f"{time.perf_counter() - t0:.2f}",
                    ])
            out.flush()
    if out is not sys.stdout:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
