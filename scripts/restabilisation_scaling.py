#!/usr/bin/env python3
"""Restabilisation cost versus network size.

For each network size and each number of desynchronised oscillators, builds
the restricted model (initial states where the rest of the network shares one
phase) and reports the expected per-node energy and time to regain full
synchrony, together with the reachable-state count demonstrating the state
space reduction.
"""

import argparse
import csv
import sys
import time
from dataclasses import replace

from pcosync.analysis import AnalysisQuery, solve_query
from pcosync.cli import load_profile, parse_range
from pcosync.core import ModelParams
from pcosync.dtmc import RestabilisationSpec, build_dtmc, state_count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="10:5:35")
    ap.add_argument("--t", type=int, default=10)
    ap.add_argument("--r", default="1:1:4")
    ap.add_argument("--u", default="1,2,3")
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--mu", type=float, default=0.2)
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
        "N", "U", "R", "avg_time_cycles", "avg_per_node_mWh",
        "reach_probability", "reachable_states", "full_states", "wall_s",
    ])
    for n in parse_range(args.sizes, int):
        for u in parse_range(args.u, int):
            if u >= n:
                continue
            for r in parse_range(args.r, int):
                params = ModelParams(n=n, t=args.t, r=r, epsilon=args.eps, mu=args.mu)
                t0 = time.perf_counter()
                model = build_dtmc(params, profile, RestabilisationSpec(u))
                time_res = solve_query(
                    model, AnalysisQuery(lam=1.0, reward_kind="time", aggregate="avg")
                )
                power_res = solve_query(
                    model, AnalysisQuery(lam=1.0, reward_kind="power", aggregate="avg")
                )
                writer.writerow([
                    n, u, r, f"{time_res.value:.10g}",
                    f"{power_res.per_node_mWh:.10g}",
                    f"{time_res.reach_probability:.10g}",
                    model.n_states, state_count(params),
                    f"{time.perf_counter() - t0:.2f}",
                ])
                out.flush()
    if out is not sys.stdout:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
