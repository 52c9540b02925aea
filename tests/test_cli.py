import csv
from pathlib import Path

import pytest

from pcosync import analysis
from pcosync.analysis import AnalysisQuery, monte_carlo, solve_query
from pcosync.core import ModelParams
from pcosync.dtmc import MICAZ, build_dtmc
from pcosync.cli import (
    CSV_COLUMNS,
    build_parser,
    load_config,
    load_profile,
    main,
    parse_queries,
    parse_range,
)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert rows[-1][0].startswith("# status:")
    return rows[1:-1], rows[-1][0]


def fmt(x):
    """A CSV cell as the CLI writes it: '' for None, 10 significant digits."""
    if x is None:
        return ""
    return "inf" if x == float("inf") else f"{x:.10g}"


class TestParseRange:
    def test_single_value(self):
        assert parse_range("3", int) == [3]

    def test_comma_list(self):
        assert parse_range("1,2,4", int) == [1, 2, 4]

    def test_inclusive_int_range(self):
        assert parse_range("1:1:4", int) == [1, 2, 3, 4]

    def test_inclusive_float_range(self):
        assert parse_range("0.1:0.1:1.0", float) == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        )

    @pytest.mark.parametrize("text, cast", [("3:1:2", int), ("1:0.1:0.5", float), (",", float),
                                            (" , ", int)])
    def test_text_without_values_is_an_error(self, text, cast):
        # a descending range or a list of commas only gives no value
        with pytest.raises(ValueError, match=f"no value in '{text.strip()}'"):
            parse_range(text, cast)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            parse_range("1:0:5", int)

    @pytest.mark.parametrize("text", ["1:3", "1:1:2:3"])
    def test_range_needs_three_parts(self, text):
        with pytest.raises(ValueError, match=f"bad range '{text}', expected start:step:stop"):
            parse_range(text, int)


class TestParseQueries:
    def test_valid(self):
        assert parse_queries(["time:avg", "power:max"]) == [
            ("time", "avg"),
            ("power", "max"),
        ]

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_queries(["fuel:avg"])
        with pytest.raises(ValueError):
            parse_queries(["time:median"])


class TestLoadConfig:
    def test_comments_and_repeats(self, tmp_path):
        cfg = tmp_path / "sweep.conf"
        cfg.write_text("# full sweep\nn = 8\nr = 1\nr = 2  # second range\n")
        assert load_config(str(cfg)) == {"n": ["8"], "r": ["1", "2"]}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("n 8\n")
        with pytest.raises(ValueError):
            load_config(str(cfg))


class TestAnalyze:
    def test_single_row(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main([
            "analyze", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1",
            "--mu", "0.2", "--lambda", "0.5", "--query", "time:avg",
            "--output", str(out),
        ])
        assert code == 0
        rows, status = read_csv(out)
        assert status == "# status: ok"
        (row,) = rows
        record = dict(zip(CSV_COLUMNS, row))
        assert record["N"] == "3" and record["metric"] == "time"
        assert record["U"] == ""
        assert float(record["value"]) >= 0.0
        assert record["per_node_mWh"] == ""

    def test_sweep_row_count(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main([
            "analyze", "--n", "2", "--t", "3", "--r", "0,1", "--eps", "0.5",
            "--mu", "0.2", "--lambda", "0.5,1.0",
            "--query", "time:avg", "--query", "power:max",
            "--output", str(out),
        ])
        assert code == 0
        rows, _ = read_csv(out)
        assert len(rows) == 2 * 2 * 2  # r values x lambda values x queries

    def test_unreachable_target_reports_inf(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main([
            "analyze", "--n", "2", "--t", "2", "--r", "1", "--eps", "0.1",
            "--mu", "0.2", "--lambda", "1.0", "--query", "time:avg",
            "--output", str(out),
        ])
        assert code == 0
        (row,), _ = read_csv(out)
        record = dict(zip(CSV_COLUMNS, row))
        assert record["value"] == "inf"
        assert float(record["reach_probability"]) < 1.0

    def test_invalid_params_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main([
            "analyze", "--n", "0", "--t", "4", "--r", "1", "--eps", "0.1",
            "--mu", "0.2", "--output", str(out),
        ])
        assert code == 1
        _, status = read_csv(out)
        assert status.startswith("# status: error")

    def test_singular_factor_is_a_solver_failure(self, tmp_path, capsys):
        # in float, state (0,0,1,2) steps to one state with probability 1.0
        # and a 1e-18 branch on top, closing a cycle of probability one
        out = tmp_path / "out.csv"
        code = main([
            "analyze", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1",
            "--mu", "0.999999999", "--query", "time:avg", "--output", str(out),
        ])
        assert code == 2
        rows, status = read_csv(out)
        assert rows == []
        assert status.startswith("# status: solver failure: level ")
        assert "exactly singular" in status

    def test_rows_stream_before_a_solver_failure(self, tmp_path):
        # at lambda = 0.6 no state outside the target reaches it, so the row is
        # written with nothing factored; at 1.0 the factor is singular
        out = tmp_path / "out.csv"
        code = main([
            "analyze", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1",
            "--mu", "0.999999999", "--lambda", "0.6,1.0", "--query", "time:avg",
            "--output", str(out),
        ])
        assert code == 2
        rows, status = read_csv(out)
        lam, value = CSV_COLUMNS.index("lambda"), CSV_COLUMNS.index("value")
        assert [(row[lam], row[value]) for row in rows] == [("0.6", "inf")]
        assert status.startswith("# status: solver failure: level 0 ")

    def test_state_cap_exit_code(self, tmp_path):
        code = main([
            "analyze", "--n", "6", "--t", "6", "--r", "1", "--eps", "0.1",
            "--mu", "0.2", "--max-states", "10",
            "--output", str(tmp_path / "out.csv"),
        ])
        assert code == 1

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "n = 3\nt = 4\nr = 1\neps = 0.1\nmu = 0.2\nlambda = 1.0\nquery = time:avg\n"
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["analyze", "--config", str(cfg), "--output", str(out_a)]) == 0
        assert main([
            "analyze", "--config", str(cfg), "--r", "2", "--output", str(out_b)
        ]) == 0
        (row_a,), _ = read_csv(out_a)
        (row_b,), _ = read_csv(out_b)
        assert dict(zip(CSV_COLUMNS, row_a))["R"] == "1"
        assert dict(zip(CSV_COLUMNS, row_b))["R"] == "2"

    def test_identical_flags_identical_output(self, tmp_path):
        args = [
            "analyze", "--n", "2", "--t", "3", "--r", "1", "--eps", "0.5",
            "--mu", "0.2", "--lambda", "1.0", "--query", "power:avg",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        rows_a, _ = read_csv(out_a)
        rows_b, _ = read_csv(out_b)
        # wall_ms differs between runs; everything else must not
        assert [r[:-1] for r in rows_a] == [r[:-1] for r in rows_b]

    def test_sweep_rows_equal_solve_query(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main([
            "analyze", "--n", "3", "--t", "5", "--r", "1,2", "--eps", "0.5",
            "--mu", "0.2", "--lambda", "0.5,1.0",
            "--query", "time:avg", "--query", "power:max", "--output", str(out),
        ]) == 0
        rows, status = read_csv(out)
        assert status == "# status: ok"
        expected = []
        for r in (1, 2):
            model = build_dtmc(ModelParams(n=3, t=5, r=r, epsilon=0.5, mu=0.2), MICAZ)
            for lam in (0.5, 1.0):
                for metric, agg in (("time", "avg"), ("power", "max")):
                    res = solve_query(
                        model, AnalysisQuery(lam=lam, reward_kind=metric, aggregate=agg)
                    )
                    expected.append([
                        "3", "5", str(r), "0.5", "0.2", fmt(lam), "", "micaz",
                        metric, agg, fmt(res.value), fmt(res.per_node_mWh),
                        fmt(res.reach_probability),
                        str(model.n_states), str(model.n_transitions),
                    ])
        assert [row[:-1] for row in rows] == expected
        assert "inf" not in {row[10] for row in expected}

    def test_typed_config_values_equal_flags(self, tmp_path):
        base = ["--n", "2", "--t", "3", "--r", "1", "--eps", "0.5", "--mu", "0",
                "--query", "power:avg"]
        cfg = tmp_path / "run.conf"
        cfg.write_text("cycle = 10\nmsg-time = 0.002\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["analyze", *base, "--cycle", "10", "--msg-time", "0.002",
                     "--output", str(out_a)]) == 0
        assert main(["analyze", *base, "--config", str(cfg), "--output", str(out_b)]) == 0
        rows_a, _ = read_csv(out_a)
        rows_b, _ = read_csv(out_b)
        assert [r[:-1] for r in rows_a] == [r[:-1] for r in rows_b]

    def test_config_state_cap(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("max-states = 5\n")
        out = tmp_path / "out.csv"
        code = main([
            "analyze", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1",
            "--mu", "0.2", "--config", str(cfg), "--output", str(out),
        ])
        assert code == 1
        rows, status = read_csv(out)
        assert rows == [] and status.startswith("# status: error")

    def test_config_queries_accumulate_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "n = 2\nt = 3\nr = 1\neps = 0.5\nmu = 0.2\n"
            "query = time:avg\nquery = power:max\n"
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["analyze", "--config", str(cfg), "--output", str(out_a)]) == 0
        assert main(["analyze", "--config", str(cfg), "--query", "time:max",
                     "--output", str(out_b)]) == 0
        rows_a, _ = read_csv(out_a)
        rows_b, _ = read_csv(out_b)
        assert [(r[8], r[9]) for r in rows_a] == [("time", "avg"), ("power", "max")]
        assert [(r[8], r[9]) for r in rows_b] == [("time", "max")]

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("n = 3\nt = 4\nr = 1\neps = 0.1\nmu = 0.2\nlamda = 0.5\n")
        out = tmp_path / "out.csv"
        assert main(["analyze", "--config", str(cfg), "--output", str(out)]) == 1
        assert "lamda" in capsys.readouterr().err
        assert not out.exists()

    def test_config_tolerance_rejected(self, tmp_path, capsys):
        # the exact solver takes no tolerance, from a flag or from a config
        cfg = tmp_path / "run.conf"
        cfg.write_text("n = 3\nt = 4\nr = 1\neps = 0.1\nmu = 0.2\ntolerance = 1e-6\n")
        assert main(["analyze", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]) == 1
        assert "is not a flag of analyze" in capsys.readouterr().err


class TestRestab:
    def test_u_column_and_state_reduction(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main([
            "restab", "--n", "10", "--t", "10", "--r", "4", "--eps", "0.1",
            "--mu", "0.2", "--u", "1", "--lambda", "1.0",
            "--query", "power:avg", "--output", str(out),
        ])
        assert code == 0
        (row,), _ = read_csv(out)
        record = dict(zip(CSV_COLUMNS, row))
        assert record["U"] == "1"
        assert int(record["states"]) < 92378  # full state space for N=10, T=10
        assert record["per_node_mWh"] != ""

    def test_u_equal_n_rejected(self, tmp_path):
        code = main([
            "restab", "--n", "5", "--t", "4", "--r", "1", "--eps", "0.1",
            "--mu", "0.2", "--u", "5", "--output", str(tmp_path / "o.csv"),
        ])
        assert code == 1

    def test_group_too_large_for_float_masses(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main([
            "restab", "--n", "1100", "--t", "10", "--r", "4", "--eps", "0.1",
            "--mu", "0.2", "--u", "1", "--output", str(out),
        ])
        assert code == 1
        rows, status = read_csv(out)
        assert rows == [] and status.startswith("# status: error: a group of 1099")
        assert "error: a group of 1099 oscillators exceeds the limit of 1029" in capsys.readouterr().err


class TestExport:
    def test_golden_files(self, tmp_path, capsys):
        code = main([
            "export", "--n", "2", "--t", "2", "--r", "1", "--eps", "0.1",
            "--mu", "0", "--out", str(tmp_path / "model"),
        ])
        assert code == 0
        golden_dir = Path(__file__).parent / "golden"
        for suffix in (".sta", ".tra", ".time.trew", ".power.trew"):
            got = (tmp_path / "model").with_suffix(suffix)
            assert got.read_bytes() == (golden_dir / f"n2t2mu0{suffix}").read_bytes()

    def test_dots_in_prefix_kept(self, tmp_path):
        for version in ("v1", "v2"):
            assert main([
                "export", "--n", "2", "--t", "2", "--r", "1", "--eps", "0.1",
                "--mu", "0", "--out", str(tmp_path / f"run.{version}"),
            ]) == 0
        names = {f"run.{v}{suffix}" for v in ("v1", "v2")
                 for suffix in (".sta", ".tra", ".time.trew", ".power.trew")}
        assert {path.name for path in tmp_path.iterdir()} == names

    def test_multiple_tuples_rejected(self, tmp_path):
        code = main([
            "export", "--n", "2,3", "--t", "2", "--r", "1", "--eps", "0.1",
            "--mu", "0", "--out", str(tmp_path / "model"),
        ])
        assert code == 1

    def test_restab_model_states(self, tmp_path):
        assert main([
            "export", "--n", "4", "--t", "5", "--r", "1", "--eps", "0.1",
            "--mu", "0.2", "--u", "1", "--out", str(tmp_path / "model"),
        ]) == 0
        model = build_dtmc(ModelParams(n=4, t=5, r=1, epsilon=0.1, mu=0.2, u=1))
        full = build_dtmc(ModelParams(n=4, t=5, r=1, epsilon=0.1, mu=0.2), MICAZ)
        assert model.n_states < full.n_states
        lines = (tmp_path / "model.sta").read_text().splitlines()
        assert lines == [
            f"{i}:({','.join(map(str, sigma))})" for i, sigma in enumerate(model.states)
        ]


class TestSimulate:
    def test_seed_required(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main([
            "simulate", "--n", "2", "--t", "3", "--r", "1", "--eps", "0.5",
            "--mu", "0.2", "--output", str(out),
        ])
        assert code == 1
        rows, status = read_csv(out)
        assert rows == [] and status == "# status: error: --seed is required for reproducible simulation"

    def test_fixed_seed_reproducible(self, tmp_path):
        args = [
            "simulate", "--n", "2", "--t", "3", "--r", "1", "--eps", "0.5",
            "--mu", "0.2", "--samples", "2000", "--seed", "42",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        rows_a, _ = read_csv(out_a)
        rows_b, _ = read_csv(out_b)
        assert [r[:-1] for r in rows_a] == [r[:-1] for r in rows_b]

    def test_single_oscillator_matches_analyze(self, tmp_path):
        base = ["--n", "1", "--t", "4", "--r", "1", "--eps", "0.1", "--mu", "0"]
        sim_out = tmp_path / "sim.csv"
        an_out = tmp_path / "an.csv"
        assert main(["simulate", *base, "--seed", "1", "--samples", "100",
                     "--output", str(sim_out)]) == 0
        assert main(["analyze", *base, "--output", str(an_out)]) == 0
        (sim_row,), _ = read_csv(sim_out)
        (an_row,), _ = read_csv(an_out)
        sim = dict(zip(CSV_COLUMNS, sim_row))
        exact = dict(zip(CSV_COLUMNS, an_row))
        assert sim["value"] == exact["value"] == "0"

    def test_min_aggregate_rejected(self, tmp_path):
        code = main([
            "simulate", "--n", "2", "--t", "3", "--r", "1", "--eps", "0.5",
            "--mu", "0.2", "--seed", "1", "--query", "time:min",
            "--output", str(tmp_path / "o.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize("command, flag", [
        ("simulate", ["--solver", "exact"]), ("simulate", ["--tolerance", "1e-6"]),
        ("simulate", ["--max-states", "10"]),
        ("analyze", ["--solver", "exact"]), ("analyze", ["--tolerance", "1e-6"]),
        ("restab", ["--solver", "exact"]), ("restab", ["--tolerance", "1e-6"]),
    ], ids=[f"flag{i}" for i in range(7)])
    def test_solver_flags_not_taken(self, tmp_path, capsys, command, flag):
        own = {"simulate": ["--seed", "1"], "analyze": [], "restab": ["--u", "1"]}[command]
        argv = [command, "--n", "2", "--t", "3", "--r", "1", "--eps", "0.5", "--mu", "0.2",
                *own, "--output", str(tmp_path / "o.csv")]
        build_parser().parse_args(argv)  # taken without the flag
        with pytest.raises(SystemExit):
            main([*argv, *flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--n", "3:1:2", "--t", "4", "--r", "1", "--eps", "0.1", "--mu", "0.2"],
        ["simulate", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1", "--mu", "0.2",
         "--seed", "1", "--lambda", "1:0.1:0.5"],
        ["analyze", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1", "--mu", "0.2",
         "--lambda", ","],
    ], ids=["descending-n", "descending-lambda", "comma-lambda"])
    def test_empty_sweep_range_fails(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert main([*argv, "--output", str(out)]) == 1
        assert "no value in" in capsys.readouterr().err
        assert "# status: ok" not in (out.read_text() if out.exists() else "")

    @pytest.mark.parametrize("flag, message", [
        (["--lambda", ","], "no value in ','"),
        (["--query", "time"], "bad query 'time', expected metric:aggregate"),
        (["--profile", "nosuch"], "unknown hardware profile 'nosuch'"),
    ], ids=["lambda", "query", "profile"])
    def test_bad_query_flag_leaves_error_status(self, tmp_path, capsys, flag, message):
        out = tmp_path / "o.csv"
        assert main([
            "analyze", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1", "--mu", "0.2",
            *flag, "--output", str(out),
        ]) == 1
        rows, status = read_csv(out)
        assert rows == [] and status == f"# status: error: {message}"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_censored_runs_noted_on_stderr(self, tmp_path, capsys, monkeypatch):
        # n=3, T=4, R=1, eps=0.1, mu=0.2: most runs rotate forever on a
        # closed set that holds no target; the CSV row stays as it was
        out = tmp_path / "o.csv"
        argv = ["simulate", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1", "--mu", "0.2",
                "--seed", "7", "--samples", "50", "--output", str(out)]
        assert main(argv) == 0
        (row,), status = read_csv(out)
        censored = round(50 * (1 - float(dict(zip(CSV_COLUMNS, row))["reach_probability"])))
        assert status == "# status: ok" and censored > 0
        note = f"note: {censored} of 50 runs censored at step_cap 10000"
        assert capsys.readouterr().err == f"{note}; they never reach the target\n"
        # stepped to the cap, the runs are not known to be trapped
        monkeypatch.setattr(analysis, "_closed_set", lambda *args: None)
        assert main(argv) == 0
        (stepped,), stepped_status = read_csv(out)
        assert stepped[:-1] == row[:-1] and stepped_status == status  # all but wall_ms
        assert capsys.readouterr().err == f"{note}\n"
        # every run reaches the target: no note
        assert main(["simulate", "--n", "4", "--t", "3", "--r", "1", "--eps", "0.5", "--mu", "0",
                     "--seed", "7", "--samples", "50", "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_zero_samples_is_a_clear_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main([
            "simulate", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.5",
            "--mu", "0.2", "--seed", "1", "--samples", "0", "--output", str(out),
        ]) == 1
        rows, status = read_csv(out)
        assert rows == [] and status == "# status: error: samples must be at least 1, got 0"
        assert capsys.readouterr().err == "error: samples must be at least 1, got 0\n"

    def test_group_beyond_the_build_limit(self, tmp_path):
        # with --u 1 every state has a group of 1,599 or more, above FiringTable.MAX_GROUP
        out = tmp_path / "o.csv"
        assert main([
            "simulate", "--n", "1600", "--t", "10", "--r", "4", "--eps", "0.1", "--mu", "0.2",
            "--u", "1", "--samples", "200", "--seed", "7", "--output", str(out),
        ]) == 0
        (row,), status = read_csv(out)
        assert status == "# status: ok"
        assert dict(zip(CSV_COLUMNS, row))["reach_probability"] == "1"

    def test_min_aggregate_leaves_error_status(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main([
            "simulate", "--n", "2", "--t", "3", "--r", "1", "--eps", "0.5",
            "--mu", "0.2", "--seed", "1", "--query", "time:min", "--output", str(out),
        ]) == 1
        rows, status = read_csv(out)
        assert rows == [] and status.startswith("# status: error")

    def test_restab_rows_equal_monte_carlo(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main([
            "simulate", "--n", "4", "--t", "6", "--r", "1", "--eps", "0.1",
            "--mu", "0.2", "--u", "1", "--samples", "300", "--seed", "5",
            "--query", "time:avg", "--query", "power:max", "--output", str(out),
        ]) == 0
        rows, status = read_csv(out)
        assert status == "# status: ok"
        params = ModelParams(n=4, t=6, r=1, epsilon=0.1, mu=0.2, u=1)
        expected = []
        for metric, agg in (("time", "avg"), ("power", "max")):
            res = monte_carlo(params, MICAZ, lam=1.0, reward_kind=metric, samples=300, seed=5)
            value = res.mean if agg == "avg" else res.max_observed
            expected.append([
                "4", "6", "1", "0.1", "0.2", "1", "1", "micaz", metric, agg, fmt(value),
                fmt(value / 4 * 1000.0 if metric == "power" else None),
                fmt(1.0 - res.censored / res.samples), "", "",
            ])
        assert [row[:-1] for row in rows] == expected

    def test_one_simulation_per_lambda_and_metric(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append((kwargs["lam"], kwargs["reward_kind"]))
            return monte_carlo(*args, **kwargs)

        base = ["simulate", "--n", "4", "--t", "6", "--r", "1", "--eps", "0.1", "--mu", "0.2",
                "--samples", "300", "--seed", "5", "--lambda", "1.0,0.9"]
        queries = ["time:avg", "time:max", "power:avg"]
        out = tmp_path / "o.csv"
        monkeypatch.setattr("pcosync.cli.monte_carlo", counting)
        assert main([*base, *(f for q in queries for f in ("--query", q)), "--output", str(out)]) == 0
        rows, status = read_csv(out)
        assert status == "# status: ok"
        assert calls == [(1.0, "time"), (1.0, "power"), (0.9, "time"), (0.9, "power")]
        expected = {}
        for query in queries:
            assert main([*base, "--query", query, "--output", str(out)]) == 0
            singles, _ = read_csv(out)
            for row in singles:
                expected[row[5], row[8], row[9]] = row[:-1]  # lambda, metric, aggregate
        assert [row[:-1] for row in rows] == [expected[row[5], row[8], row[9]] for row in rows]
        assert len(rows) == len(expected) == 6

    def test_censoring_noted_once_per_simulation(self, tmp_path, capsys):
        assert main([
            "simulate", "--n", "3", "--t", "4", "--r", "1", "--eps", "0.1", "--mu", "0.2",
            "--samples", "50", "--query", "time:avg", "--query", "time:max", "--seed", "7",
            "--output", str(tmp_path / "o.csv"),
        ]) == 0
        assert capsys.readouterr().err.count("note: ") == 1


class TestProfiles:
    def test_builtin(self):
        assert load_profile("micaz").receive_a == pytest.approx(19.7e-3)

    def test_unknown(self):
        with pytest.raises(ValueError):
            load_profile("nonexistent")

    def test_profile_directory(self, tmp_path, monkeypatch):
        (tmp_path / "slowmote.profile").write_text(
            "idle_a = 20e-6\nreceive_a = 19.7e-3\ntransmit_a = 17.4e-3\n"
            "voltage = 3.0\ncycle_s = 10.0\nmessage_s = 1e-3\n"
        )
        monkeypatch.setenv("PCOSYNC_PROFILE_DIR", str(tmp_path))
        profile = load_profile("slowmote")
        assert profile.cycle_s == 10.0

    def test_profile_missing_fields_is_an_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "half.profile").write_text("idle_a = 20e-6\nreceive_a = 19.7e-3\n")
        monkeypatch.setenv("PCOSYNC_PROFILE_DIR", str(tmp_path))
        code = main([
            "analyze", "--n", "2", "--t", "3", "--r", "1", "--eps", "0.5", "--mu", "0.2",
            "--profile", "half", "--output", str(tmp_path / "o.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        for field in ("transmit_a", "voltage", "cycle_s", "message_s"):
            assert field in err

    def test_cycle_override_scales_energy(self, tmp_path):
        base = [
            "analyze", "--n", "2", "--t", "3", "--r", "1", "--eps", "0.5",
            "--mu", "0", "--lambda", "1.0", "--query", "power:avg",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(base + ["--output", str(out_a)]) == 0
        assert main(base + ["--cycle", "10", "--output", str(out_b)]) == 0
        (row_a,), _ = read_csv(out_a)
        (row_b,), _ = read_csv(out_b)
        val_a = float(dict(zip(CSV_COLUMNS, row_a))["value"])
        val_b = float(dict(zip(CSV_COLUMNS, row_b))["value"])
        # listening energy scales with the cycle, transmissions do not
        assert val_a < val_b < 10.0 * val_a
