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
from typing import Sequence

from .analysis import (
    STEP_CAP,
    AnalysisQuery,
    SolverError,
    monte_carlo,
    solve_queries,
)
from .core import ModelParams
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


def parse_number(text: str, cast, flag: str | None = None):
    """``cast(text)``; text it cannot convert is an error that names the
    flag, if given, and the text."""
    try:
        return cast(text)
    except ValueError:
        name, kind = f"--{flag} value" if flag else "value", "an integer" if cast is int else "a number"
        raise ValueError(f"bad {name} {text.strip()!r}, expected {kind}") from None


def parse_range(text: str, cast=float, flag: str | None = None) -> list:
    """Parse '3', '1,2,3' or an inclusive 'start:step:stop' range of the
    given flag; text that gives no value, such as a descending range or a
    lone comma, is an error."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad range {text!r}, expected start:step:stop")
        start, step, stop = (parse_number(part, cast, flag) for part in parts)
        if step <= 0:
            raise ValueError(f"range step must be positive in {text!r}")
        values = []
        v = start
        # tolerate float accumulation up to half a step beyond the stop
        while v <= stop + (step * 1e-9 if cast is float else 0):
            values.append(cast(round(v, 12)) if cast is float else v)
            v += step
    else:
        values = [parse_number(part, cast, flag) for part in text.split(",") if part.strip()]
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
            if unknown := [key for key in values if key not in needed]:
                raise ValueError(f"profile key {unknown[0]!r} in {path} is not one of {', '.join(needed)}")
            missing = [key for key in needed if key not in values]
            if missing:
                raise ValueError(f"profile {path} lacks {', '.join(missing)}")
            for key in needed:
                try:
                    values[key] = float(values[key])
                except ValueError:
                    raise ValueError(f"bad profile value {key} = {values[key]} in {path}") from None
            return HardwareProfile(name=name, **{key: values[key] for key in needed})
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


def _grid(args: argparse.Namespace) -> list[ModelParams]:
    """Every combination of the grid flags, in ``GRID_FLAGS`` order; a bad
    value fails here, before any model is built."""
    axes = []
    for flag, cast in GRID_FLAGS:
        raw = getattr(args, flag, None)
        if raw is None and flag in args.required:
            raise ValueError(f"missing required parameter --{flag}")
        axes.append([None] if raw is None else parse_range(str(raw), cast, flag))
    return [ModelParams(*values) for values in itertools.product(*axes)]


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


def _sweep(args: argparse.Namespace, prepare) -> int:
    """Write one CSV row per grid point, lambda and query, in that nesting.

    Every input is made, and so checked, before any work: the profile,
    queries and lambdas, then the subcommand's own inputs in
    ``prepare(profile, queries)``, then the grid.  ``prepare`` returns
    ``answer(params)``, which yields for each query the value, per-node mWh,
    reach probability, state and transition counts and wall time in ms.
    """
    sink = CsvSink(args.output)
    try:
        profile = _resolve_profile(args)
        kinds = parse_queries(args.query or ["time:avg"])
        lams = parse_range(str(args.lam), float, "lambda") if args.lam is not None else [1.0]
        queries = [AnalysisQuery(lam, metric, agg) for lam in lams for metric, agg in kinds]
        answer = prepare(profile, queries)
        for params in _grid(args):  # a list: every grid point is made first
            for cells, q in zip(answer(params), queries):
                value, per_node, reach, states, transitions, wall_ms = cells
                sink.row([
                    params.n, params.t, params.r, _fmt(params.epsilon), _fmt(params.mu),
                    _fmt(q.lam), "" if params.u is None else params.u, profile.name,
                    q.reward_kind, q.aggregate, _fmt(value), _fmt(per_node), _fmt(reach),
                    states, transitions, _fmt(wall_ms),
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

    def prepare(profile, queries):
        def answer(params):
            start = time.perf_counter()
            model = build_dtmc(params, profile, max_states=args.max_states)
            build_ms = (time.perf_counter() - start) * 1000.0
            for result in solve_queries(model, queries):
                yield (
                    result.value, result.per_node_mWh, result.reach_probability,
                    model.n_states, model.n_transitions, build_ms + result.wall_time * 1000.0,
                )
                build_ms = 0.0  # the build is carried by the grid point's first row only

        return answer

    return _sweep(args, prepare)


def cmd_simulate(args: argparse.Namespace) -> int:
    """Monte Carlo estimates of every query, one simulation per (lambda,
    metric) of a grid point, shared by its aggregates; no model is built."""

    def prepare(profile, queries):
        if args.seed is None:
            raise ValueError("--seed is required for reproducible simulation")
        if any(q.aggregate == "min" for q in queries):
            raise ValueError("simulate supports avg and max aggregates only")
        samples = parse_number(args.samples, int, "samples") if args.samples is not None else 10_000
        seed = parse_number(args.seed, int, "seed")
        if seed < 0:
            raise ValueError(f"bad --seed value {args.seed.strip()!r}, expected a non-negative integer")

        def answer(params):
            runs = {}  # (lambda, metric) -> the result and its wall time in ms
            for q in queries:
                if (q.lam, q.reward_kind) not in runs:
                    start = time.perf_counter()
                    result = monte_carlo(params, profile, lam=q.lam, reward_kind=q.reward_kind,
                                         samples=samples, seed=seed)
                    runs[q.lam, q.reward_kind] = result, (time.perf_counter() - start) * 1000.0
                    if result.censored:
                        never = "; they never reach the target" if result.trapped else ""
                        note = f"{result.censored} of {samples} runs censored at step_cap {STEP_CAP}{never}"
                        print(f"note: {note}", file=sys.stderr)
                result, wall_ms = runs[q.lam, q.reward_kind]
                value = result.mean if q.aggregate == "avg" else result.max_observed
                per_node = value / params.n * 1000.0 if q.reward_kind == "power" else None
                yield value, per_node, 1.0 - result.censored / result.samples, "", "", wall_ms

        return answer

    return _sweep(args, prepare)


def cmd_export(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args)
    grid = _grid(args)
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
        code = args.run(args)
        sys.stdout.flush()  # so that a reader gone from stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone, as with `| head`: point stdout at devnull,
        # so that the flush at exit raises nothing, and exit with 1, as
        # Python's documented SIGPIPE recipe does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, StateSpaceLimitExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
