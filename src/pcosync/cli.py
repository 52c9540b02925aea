"""Command-line front end: parameter sweeps, CSV emission, explicit-state
export, restabilisation runs and Monte Carlo simulation.

Every numeric parameter flag accepts a single value, a comma-separated list,
or an inclusive ``start:step:stop`` range; the sweep runs the cartesian
product in deterministic order.  A flat ``key = value`` config file can seed
any flag (repeated keys accumulate); explicit command-line flags override
config values.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .analysis import (
    AnalysisQuery,
    SolverConfig,
    SolverError,
    monte_carlo,
    solve_query,
)
from .core import ModelParams, validate_params
from .dtmc import (
    MICAZ,
    PROFILES,
    HardwareProfile,
    RestabilisationSpec,
    StateSpaceLimitExceeded,
    build_dtmc,
)
from .export import export_model

CSV_COLUMNS = [
    "N", "T", "R", "epsilon", "mu", "lambda", "U", "profile",
    "metric", "aggregate", "value", "per_node_mWh", "reach_probability",
    "states", "transitions", "wall_ms",
]

PROFILE_DIR_ENV = "PCOSYNC_PROFILE_DIR"


def parse_range(text: str, cast=float) -> list:
    """Parse '3', '1,2,3' or an inclusive 'start:step:stop' range."""
    text = text.strip()
    if ":" in text:
        start_s, step_s, stop_s = text.split(":")
        start, step, stop = cast(start_s), cast(step_s), cast(stop_s)
        if step <= 0:
            raise ValueError(f"range step must be positive in {text!r}")
        values = []
        v = start
        # tolerate float accumulation up to half a step beyond the stop
        while v <= stop + (step * 1e-9 if cast is float else 0):
            values.append(cast(round(v, 12)) if cast is float else v)
            v += step
        return values
    return [cast(part) for part in text.split(",") if part.strip()]


def parse_queries(entries: Sequence[str]) -> list[tuple[str, str]]:
    """Each entry is 'metric:aggregate', e.g. 'power:avg'."""
    queries = []
    for entry in entries:
        metric, _, agg = entry.partition(":")
        if metric not in ("time", "power") or agg not in ("min", "avg", "max"):
            raise ValueError(f"bad query {entry!r}, expected metric:aggregate")
        queries.append((metric, agg))
    return queries


def load_config(path: str) -> dict[str, list[str]]:
    """Flat key-value config; '#' starts a comment, repeated keys accumulate."""
    values: dict[str, list[str]] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}, expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        values.setdefault(key, []).append(val)
    return values


def load_profile(name: str) -> HardwareProfile:
    if name in PROFILES:
        return PROFILES[name]
    profile_dir = os.environ.get(PROFILE_DIR_ENV)
    if profile_dir:
        path = Path(profile_dir) / f"{name}.profile"
        if path.exists():
            fields = {k: v[-1] for k, v in load_config(str(path)).items()}
            return HardwareProfile(
                name=name,
                idle_a=float(fields["idle_a"]),
                receive_a=float(fields["receive_a"]),
                transmit_a=float(fields["transmit_a"]),
                voltage=float(fields["voltage"]),
                cycle_s=float(fields["cycle_s"]),
                message_s=float(fields["message_s"]),
            )
    raise ValueError(f"unknown hardware profile {name!r}")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", help="oscillator count (value, list or range)")
    parser.add_argument("--t", help="phase granularity")
    parser.add_argument("--r", help="refractory period length")
    parser.add_argument("--eps", help="coupling strength")
    parser.add_argument("--mu", help="broadcast failure probability")
    parser.add_argument("--profile", help="hardware profile name (default micaz)")
    parser.add_argument("--cycle", type=float, help="oscillation cycle length in seconds")
    parser.add_argument("--msg-time", type=float, help="message transmission time in seconds")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--max-states", type=int, help="abort if more states are reached")


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="lam", help="target phase coherence (value, list or range)")
    parser.add_argument("--query", action="append", help="metric:aggregate, repeatable")
    parser.add_argument(
        "--solver", choices=["exact", "iterative"], help="linear solver (default exact)"
    )
    parser.add_argument("--tolerance", type=float, help="iterative solver tolerance")
    parser.add_argument("--output", help="CSV output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcosync",
        description="Exact time/energy analysis of pulse-coupled oscillator populations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full-network synchronisation sweep")
    _add_model_flags(p_an)
    _add_query_flags(p_an)

    p_re = sub.add_parser("restab", help="restabilisation sweep")
    _add_model_flags(p_re)
    _add_query_flags(p_re)
    p_re.add_argument("--u", help="number of desynchronised oscillators")

    p_ex = sub.add_parser("export", help="write explicit-state model files")
    _add_model_flags(p_ex)
    p_ex.add_argument("--u", help="restabilisation mode with this many desynchronised oscillators")
    p_ex.add_argument("--out", required=True, help="output path prefix")

    p_si = sub.add_parser("simulate", help="Monte Carlo estimation")
    _add_model_flags(p_si)
    _add_query_flags(p_si)
    p_si.add_argument("--u", help="restabilisation mode")
    p_si.add_argument("--samples", help="number of simulated runs")
    p_si.add_argument("--seed", help="RNG seed (required for reproducibility)")
    return parser


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the config file, if any."""
    if not getattr(args, "config", None):
        return
    config = load_config(args.config)
    for key, values in config.items():
        attr = {"lambda": "lam", "msg-time": "msg_time"}.get(key, key.replace("-", "_"))
        if getattr(args, attr, None) is None:
            if attr == "query":
                setattr(args, attr, values)
            else:
                setattr(args, attr, ",".join(values))


def _resolve_profile(args: argparse.Namespace) -> HardwareProfile:
    profile = load_profile(args.profile) if args.profile else MICAZ
    overrides = {}
    if args.cycle is not None:
        overrides["cycle_s"] = args.cycle
    if getattr(args, "msg_time", None) is not None:
        overrides["message_s"] = args.msg_time
    return replace(profile, **overrides)


def _param_grid(args: argparse.Namespace, with_u: bool) -> list[tuple]:
    def req(flag: str, cast):
        raw = getattr(args, flag)
        if raw is None:
            raise ValueError(f"missing required parameter --{flag}")
        return parse_range(str(raw), cast)

    ns = req("n", int)
    ts = req("t", int)
    rs = req("r", int)
    epss = req("eps", float)
    mus = req("mu", float)
    us = req("u", int) if with_u else [None]
    grid = []
    for n in ns:
        for t in ts:
            for r in rs:
                for eps in epss:
                    for mu in mus:
                        for u in us:
                            grid.append((n, t, r, eps, mu, u))
    return grid


class CsvSink:
    def __init__(self, output: str | None):
        self._fh = open(output, "w", encoding="utf-8", newline="") if output else sys.stdout
        self._owned = output is not None
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(CSV_COLUMNS)

    def row(self, values: list) -> None:
        self._writer.writerow(values)
        self._fh.flush()

    def status(self, message: str) -> None:
        self._writer.writerow([f"# status: {message}"])
        self._fh.flush()

    def close(self) -> None:
        if self._owned:
            self._fh.close()


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    if x != x or x in (float("inf"), float("-inf")):
        return "inf" if x > 0 else str(x)
    return f"{x:.10g}"


def _run_sweep(args: argparse.Namespace, with_u: bool) -> int:
    profile = _resolve_profile(args)
    queries = parse_queries(args.query or ["time:avg"])
    lams = parse_range(str(args.lam), float) if args.lam is not None else [1.0]
    solver = SolverConfig(
        kind=args.solver or "exact",
        tolerance=args.tolerance if args.tolerance is not None else 1e-9,
    )
    sink = CsvSink(args.output)
    try:
        for n, t, r, eps, mu, u in _param_grid(args, with_u):
            params = validate_params(ModelParams(n=n, t=t, r=r, epsilon=eps, mu=mu))
            mode = RestabilisationSpec(u) if u is not None else "full"
            start = time.perf_counter()
            model = build_dtmc(params, profile, mode, max_states=args.max_states)
            build_ms = (time.perf_counter() - start) * 1000.0
            for lam in lams:
                for metric, agg in queries:
                    query = AnalysisQuery(lam=lam, reward_kind=metric, aggregate=agg, solver=solver)
                    result = solve_query(model, query)
                    sink.row([
                        n, t, r, _fmt(eps), _fmt(mu), _fmt(lam),
                        "" if u is None else u, profile.name, metric, agg,
                        _fmt(result.value), _fmt(result.per_node_mWh),
                        _fmt(result.reach_probability),
                        model.n_states, model.n_transitions,
                        _fmt(build_ms + result.wall_time * 1000.0),
                    ])
        sink.status("ok")
        return 0
    except (ValueError, StateSpaceLimitExceeded) as exc:
        sink.status(f"error: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        sink.status(f"solver failure: {exc}")
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    finally:
        sink.close()


def cmd_analyze(args: argparse.Namespace) -> int:
    return _run_sweep(args, with_u=False)


def cmd_restab(args: argparse.Namespace) -> int:
    return _run_sweep(args, with_u=True)


def cmd_export(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args)
    try:
        grid = _param_grid(args, with_u=args.u is not None)
        if len(grid) != 1:
            raise ValueError("export expects exactly one parameter tuple")
        n, t, r, eps, mu, u = grid[0]
        params = validate_params(ModelParams(n=n, t=t, r=r, epsilon=eps, mu=mu))
        mode = RestabilisationSpec(u) if u is not None else "full"
        model = build_dtmc(params, profile, mode, max_states=args.max_states)
        paths = export_model(model, args.out)
    except (ValueError, StateSpaceLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args)
    if args.seed is None:
        print("error: --seed is required for reproducible simulation", file=sys.stderr)
        return 1
    queries = parse_queries(args.query or ["time:avg"])
    lams = parse_range(str(args.lam), float) if args.lam is not None else [1.0]
    samples = int(args.samples) if args.samples is not None else 10_000
    seed = int(args.seed)
    sink = CsvSink(args.output)
    try:
        for n, t, r, eps, mu, u in _param_grid(args, with_u=args.u is not None):
            params = validate_params(ModelParams(n=n, t=t, r=r, epsilon=eps, mu=mu))
            mode = RestabilisationSpec(u) if u is not None else "full"
            for lam in lams:
                for metric, agg in queries:
                    if agg == "min":
                        raise ValueError("simulate supports avg and max aggregates only")
                    start = time.perf_counter()
                    result = monte_carlo(
                        params, profile, mode, lam=lam, reward_kind=metric,
                        samples=samples, seed=seed,
                    )
                    wall_ms = (time.perf_counter() - start) * 1000.0
                    value = result.mean if agg == "avg" else result.max_observed
                    per_node = value / n * 1000.0 if metric == "power" else None
                    sink.row([
                        n, t, r, _fmt(eps), _fmt(mu), _fmt(lam),
                        "" if u is None else u, profile.name, metric, agg,
                        _fmt(value), _fmt(per_node),
                        _fmt(1.0 - result.censored / result.samples),
                        "", "", _fmt(wall_ms),
                    ])
        sink.status("ok")
        return 0
    except ValueError as exc:
        sink.status(f"error: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sink.close()


COMMANDS = {
    "analyze": cmd_analyze,
    "restab": cmd_restab,
    "export": cmd_export,
    "simulate": cmd_simulate,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _merge_config(args)
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
