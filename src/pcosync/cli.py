"""Command-line front end: parameter sweeps, CSV emission, explicit-state
export, restabilisation runs and Monte Carlo simulation.

Every numeric parameter flag accepts a single value, a comma-separated list,
or an inclusive ``start:step:stop`` range; the sweep runs the cartesian
product in deterministic order.  A flat ``key = value`` config file can seed
any flag of the subcommand, converted as on the command line (repeated keys
accumulate); a key that names no flag is an error, and explicit command-line
flags override config values.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterator, Sequence

from .analysis import (
    STEP_CAP,
    AnalysisQuery,
    SolverError,
    monte_carlo,
    solve_queries,
)
from .core import ModelParams, validate_params
from .dtmc import (
    MICAZ,
    PROFILES,
    HardwareProfile,
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
    """Parse '3', '1,2,3' or an inclusive 'start:step:stop' range; text that
    gives no value, such as a descending range or a lone comma, is an error."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad range {text!r}, expected start:step:stop")
        start, step, stop = map(cast, parts)
        if step <= 0:
            raise ValueError(f"range step must be positive in {text!r}")
        values = []
        v = start
        # tolerate float accumulation up to half a step beyond the stop
        while v <= stop + (step * 1e-9 if cast is float else 0):
            values.append(cast(round(v, 12)) if cast is float else v)
            v += step
    else:
        values = [cast(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no value in {text!r}")
    return values


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
            values = {k: v[-1] for k, v in load_config(str(path)).items()}
            needed = [f.name for f in fields(HardwareProfile) if f.name != "name"]
            missing = [key for key in needed if key not in values]
            if missing:
                raise ValueError(f"profile {path} lacks {', '.join(missing)}")
            return HardwareProfile(name=name, **{key: float(values[key]) for key in needed})
    raise ValueError(f"unknown hardware profile {name!r}")


#: The swept flags, in the nesting order of the sweep and the field order
#: of ``ModelParams``, and their types.
GRID_FLAGS = (("n", int), ("t", int), ("r", int), ("eps", float), ("mu", float), ("u", int))
MODEL_FLAGS = ("n", "t", "r", "eps", "mu")


def _subcommand(sub, name: str, summary: str, run, required=MODEL_FLAGS) -> argparse.ArgumentParser:
    """A subcommand with the model flags, carried out by ``run``; the flags
    named in ``required`` must be set on the command line or in the config."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(run=run, parser=parser, required=required)
    parser.add_argument("--n", help="oscillator count (value, list or range)")
    parser.add_argument("--t", help="phase granularity")
    parser.add_argument("--r", help="refractory period length")
    parser.add_argument("--eps", help="coupling strength")
    parser.add_argument("--mu", help="broadcast failure probability")
    parser.add_argument("--profile", help="hardware profile name (default micaz)")
    parser.add_argument("--cycle", type=float, help="oscillation cycle length in seconds")
    parser.add_argument("--msg-time", type=float, help="message transmission time in seconds")
    parser.add_argument("--config", help="flat key=value config file")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcosync",
        description="Exact time/energy analysis of pulse-coupled oscillator populations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_an = _subcommand(sub, "analyze", "full-network synchronisation sweep", cmd_solve)
    p_re = _subcommand(
        sub, "restab", "restabilisation sweep", cmd_solve, required=(*MODEL_FLAGS, "u")
    )
    p_ex = _subcommand(sub, "export", "write explicit-state model files", cmd_export)
    p_si = _subcommand(sub, "simulate", "Monte Carlo estimation", cmd_simulate)
    for p in (p_re, p_ex, p_si):
        p.add_argument("--u", help="number of desynchronised oscillators (restabilisation mode)")
    for p in (p_an, p_re, p_ex):
        p.add_argument("--max-states", type=int, help="abort if more states are reached")
    for p in (p_an, p_re, p_si):
        p.add_argument("--lambda", dest="lam", help="target phase coherence (value, list or range)")
        p.add_argument("--query", action="append", help="metric:aggregate, repeatable")
        p.add_argument("--output", help="CSV output path (default stdout)")
    p_ex.add_argument("--out", required=True, help="output path prefix")
    p_si.add_argument("--samples", help="number of simulated runs")
    p_si.add_argument("--seed", help="RNG seed (required for reproducibility)")
    return parser


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the config file, if any.

    Each key names a flag of the subcommand, and its values (joined by
    commas) are converted as that flag converts its argument.  Repeated
    ``query`` keys give one query each.
    """
    if args.config is None:
        return
    flags = args.parser._option_string_actions  # argparse's option-string table
    for key, values in load_config(args.config).items():
        action = flags.get(f"--{key}")
        if action is None:
            raise ValueError(f"config key {key!r} is not a flag of {args.command}")
        if getattr(args, action.dest, None) is not None:
            continue
        if action.dest == "query":
            args.query = values
            continue
        try:
            setattr(args, action.dest, (action.type or str)(",".join(values)))
        except ValueError:
            raise ValueError(f"bad config value {key} = {','.join(values)}") from None


def _resolve_profile(args: argparse.Namespace) -> HardwareProfile:
    profile = load_profile(args.profile) if args.profile else MICAZ
    overrides = {}
    if args.cycle is not None:
        overrides["cycle_s"] = args.cycle
    if args.msg_time is not None:
        overrides["message_s"] = args.msg_time
    return replace(profile, **overrides)


def _grid(args: argparse.Namespace) -> Iterator[ModelParams]:
    """Every combination of the grid flags, in ``GRID_FLAGS`` order, as
    validated parameters."""
    axes = []
    for flag, cast in GRID_FLAGS:
        raw = getattr(args, flag, None)
        if raw is None and flag in args.required:
            raise ValueError(f"missing required parameter --{flag}")
        axes.append([None] if raw is None else parse_range(str(raw), cast))
    for values in itertools.product(*axes):
        yield validate_params(ModelParams(*values))


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


def _sweep(args: argparse.Namespace, answer) -> int:
    """Write one CSV row per grid point, lambda and query, in that nesting.

    ``answer(params, profile, points)`` yields, for each (lambda,
    metric, aggregate) point in turn, the value, the per-node mWh, the reach
    probability, the state and transition counts and the wall time in ms.
    """
    sink = CsvSink(args.output)
    try:
        profile = _resolve_profile(args)
        queries = parse_queries(args.query or ["time:avg"])
        lams = parse_range(str(args.lam), float) if args.lam is not None else [1.0]
        points = [(lam, metric, agg) for lam in lams for metric, agg in queries]
        for params in _grid(args):
            for cells, (lam, metric, agg) in zip(answer(params, profile, points), points):
                value, per_node, reach, states, transitions, wall_ms = cells
                sink.row([
                    params.n, params.t, params.r, _fmt(params.epsilon), _fmt(params.mu),
                    _fmt(lam), "" if params.u is None else params.u, profile.name, metric, agg,
                    _fmt(value), _fmt(per_node), _fmt(reach), states, transitions,
                    _fmt(wall_ms),
                ])
        sink.status("ok")
        return 0
    except (ValueError, StateSpaceLimitExceeded, SolverError) as exc:
        solver_failed = isinstance(exc, SolverError)
        message = f"{'solver failure' if solver_failed else 'error'}: {exc}"
        sink.status(message)
        print(message, file=sys.stderr)
        return 2 if solver_failed else 1
    finally:
        sink.close()


def cmd_solve(args: argparse.Namespace) -> int:
    """analyze and restab: build each grid point once and solve every query on it."""

    def answer(params, profile, points):
        start = time.perf_counter()
        model = build_dtmc(params, profile, max_states=args.max_states)
        build_ms = (time.perf_counter() - start) * 1000.0
        queries = (AnalysisQuery(lam=lam, reward_kind=metric, aggregate=agg) for lam, metric, agg in points)
        for result in solve_queries(model, queries):
            yield (
                result.value, result.per_node_mWh, result.reach_probability,
                model.n_states, model.n_transitions, build_ms + result.wall_time * 1000.0,
            )

    return _sweep(args, answer)


def cmd_simulate(args: argparse.Namespace) -> int:
    """Monte Carlo estimates of every query, one simulation per (lambda,
    metric) of a grid point, shared by its aggregates; no model is built."""

    def answer(params, profile, points):
        if args.seed is None:
            raise ValueError("--seed is required for reproducible simulation")
        samples = int(args.samples) if args.samples is not None else 10_000
        seed = int(args.seed)
        runs = {}  # (lambda, metric) -> the result and its wall time in ms
        for lam, metric, agg in points:
            if agg == "min":
                raise ValueError("simulate supports avg and max aggregates only")
            if (lam, metric) not in runs:
                start = time.perf_counter()
                result = monte_carlo(
                    params, profile, lam=lam, reward_kind=metric, samples=samples, seed=seed,
                )
                runs[lam, metric] = result, (time.perf_counter() - start) * 1000.0
                if result.censored:
                    never = "; they never reach the target" if result.trapped else ""
                    note = f"{result.censored} of {samples} runs censored at step_cap {STEP_CAP}{never}"
                    print(f"note: {note}", file=sys.stderr)
            result, wall_ms = runs[lam, metric]
            value = result.mean if agg == "avg" else result.max_observed
            per_node = value / params.n * 1000.0 if metric == "power" else None
            yield value, per_node, 1.0 - result.censored / result.samples, "", "", wall_ms

    return _sweep(args, answer)


def cmd_export(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args)
    grid = list(_grid(args))
    if len(grid) != 1:
        raise ValueError("export expects exactly one parameter tuple")
    (params,) = grid
    model = build_dtmc(params, profile, max_states=args.max_states)
    for kind, path in export_model(model, args.out).items():
        print(f"{kind}: {path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _merge_config(args)
        return args.run(args)
    except (ValueError, StateSpaceLimitExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
