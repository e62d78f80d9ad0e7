"""Tests for the command-line interface (repro.cli / python -m repro)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def csv_points(tmp_path):
    rng = np.random.default_rng(0)
    points = np.clip(rng.normal(0.5, 0.15, size=(800, 2)), 0, 1)
    path = tmp_path / "points.csv"
    np.savetxt(path, points, delimiter=",")
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.epsilon == 3.5
        assert args.d == 12
        assert args.mechanism == "dam"

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig8"])
        assert args.name == "fig8"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--d", "0"],
            ["estimate", "--epsilon", "0"],
            ["estimate", "--epsilon", "150"],
            ["estimate", "--scale", "0"],
            ["estimate", "--scale", "1.5"],
            ["estimate", "--chunk-size", "0"],
            ["estimate", "--workers", "0"],
            ["estimate", "--workers", "two"],
            ["figure", "fig8", "--workers", "0"],
            ["query", "--d", "0"],
            ["query", "--epsilon", "-1"],
            ["query", "--scale", "0"],
            ["query", "--n-queries", "0"],
            ["query", "--top-k", "-1"],
            ["query", "--min-fraction", "1.5"],
            ["query", "--min-fraction", "-0.5"],
            ["query", "--max-fraction", "0"],
            ["query", "--max-fraction", "0.1", "--min-fraction", "0.9"],
            ["trajectory", "--d", "0"],
            ["trajectory", "--routing-d", "0"],
            ["trajectory", "--n-trajectories", "0"],
            ["trajectory", "--max-length", "0"],
            ["trajectory", "--max-length", "1"],
            ["trajectory", "--n-output", "-1"],
            ["trajectory", "--workers", "0"],
            ["trajectory", "--top-k", "-1"],
            ["stream", "--d", "0"],
            ["stream", "--epsilon", "0"],
            ["stream", "--epochs", "0"],
            ["stream", "--users-per-epoch", "0"],
            ["stream", "--trajectories-per-epoch", "0"],
            ["stream", "--max-length", "0"],
            ["stream", "--max-length", "1"],
            ["stream", "--n-synthetic", "0"],
            ["stream", "--window", "0"],
            ["stream", "--decay", "0"],
            ["stream", "--decay", "1.5"],
            ["stream", "--workers", "0"],
            ["serve", "--d", "0"],
            ["serve", "--epsilon", "-1"],
            ["serve", "--epochs", "0"],
            ["serve", "--users-per-epoch", "0"],
            ["serve", "--window", "0"],
            ["serve", "--decay", "0"],
            ["serve", "--serve-workers", "0"],
            ["serve", "--queries-per-epoch", "0"],
            ["serve", "--batch-rows", "0"],
            ["serve", "--min-fraction", "0"],
            ["serve", "--max-fraction", "1.5"],
            ["serve", "--max-fraction", "0.1", "--min-fraction", "0.9"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert f"error: argument {argv[-2]}: expected" in err
        assert "Traceback" not in err


class TestEstimateCommand:
    def test_estimate_from_csv(self, csv_points, capsys):
        code = main(["estimate", "--input", str(csv_points), "--d", "6", "--epsilon", "3.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "W2(true, estimate)" in out
        assert "users: 800" in out

    def test_estimate_with_heatmap(self, csv_points, capsys):
        code = main(["estimate", "--input", str(csv_points), "--d", "5", "--heatmap"])
        assert code == 0
        out = capsys.readouterr().out
        assert "true" in out and "estimated" in out

    def test_estimate_builtin_dataset(self, capsys):
        code = main(
            ["estimate", "--dataset", "SZipf", "--scale", "0.005", "--d", "5", "--seed", "1"]
        )
        assert code == 0
        assert "mechanism: DAM" in capsys.readouterr().out

    def test_estimate_rejects_both_sources(self, csv_points):
        with pytest.raises(SystemExit):
            main(["estimate", "--input", str(csv_points), "--dataset", "Normal"])

    def test_estimate_rejects_bad_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.zeros((5, 3)), delimiter=",")
        with pytest.raises(SystemExit):
            main(["estimate", "--input", str(path)])

    def test_huem_mechanism_selected(self, csv_points, capsys):
        code = main(["estimate", "--input", str(csv_points), "--d", "5", "--mechanism", "huem"])
        assert code == 0
        assert "mechanism: HUEM" in capsys.readouterr().out

    def test_estimate_with_workers_matches_serial(self, csv_points, capsys):
        serial_code = main(
            ["estimate", "--input", str(csv_points), "--d", "5", "--seed", "2"]
        )
        serial_out = capsys.readouterr().out
        parallel_code = main(
            [
                "estimate",
                "--input",
                str(csv_points),
                "--d",
                "5",
                "--seed",
                "2",
                "--workers",
                "2",
                "--chunk-size",
                "200",
            ]
        )
        parallel_out = capsys.readouterr().out
        assert serial_code == parallel_code == 0
        # Same W2 line and same printed estimate: the parallel path is bit-identical.
        assert serial_out == parallel_out

    def test_estimate_rejects_bad_workers(self, csv_points):
        with pytest.raises(SystemExit):
            main(["estimate", "--input", str(csv_points), "--workers", "0"])

    @pytest.mark.parametrize("chunk_size", ["0", "-5"])
    def test_estimate_rejects_bad_chunk_size_with_workers(self, csv_points, chunk_size):
        with pytest.raises(SystemExit):
            main([
                "estimate",
                "--input",
                str(csv_points),
                "--workers",
                "2",
                "--chunk-size",
                chunk_size,
            ])


class TestFigureCommand:
    def test_fig8_smoke_run(self, capsys, tmp_path):
        csv_path = tmp_path / "fig8.csv"
        json_path = tmp_path / "fig8.json"
        code = main(
            [
                "figure",
                "fig8",
                "--profile",
                "smoke",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
                "--markdown",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DAM" in out
        assert "| dataset |" in out
        assert csv_path.exists() and json_path.exists()

    def test_fig8_workers_and_cache_dir(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        args = [
            "figure", "fig8", "--profile", "smoke", "--workers", "2", "--cache-dir", str(cache_dir)
        ]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert any(cache_dir.rglob("*.json"))
        # Warm re-run answers every cell from the cache with identical output.
        assert main(args) == 0
        assert capsys.readouterr().out == cold_out

    def test_figure_rejects_bad_workers(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig8", "--workers", "0"])


class TestQueryCommand:
    def test_query_from_csv(self, csv_points, capsys):
        code = main([
            "query",
            "--input",
            str(csv_points),
            "--d",
            "6",
            "--n-queries",
            "200",
            "--epsilon",
            "4.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "range_mass" in out
        assert "range-query MAE" in out
        assert "hotspots" in out
        assert "of mass concentrates in" in out

    def test_query_save_and_replay_roundtrip(self, csv_points, tmp_path, capsys):
        log_path = tmp_path / "workload.npz"
        assert main([
            "query",
            "--input",
            str(csv_points),
            "--d",
            "5",
            "--n-queries",
            "50",
            "--save-log",
            str(log_path),
        ]) == 0
        assert log_path.exists()
        first = capsys.readouterr().out
        assert main([
            "query",
            "--input",
            str(csv_points),
            "--d",
            "5",
            "--replay",
            str(log_path),
        ]) == 0
        replayed = capsys.readouterr().out
        # Same estimate (same seed) + same workload => identical accuracy line.
        mae_line = [line for line in first.splitlines() if "MAE" in line]
        assert mae_line and mae_line[0] in replayed

    def test_query_disable_extras(self, csv_points, capsys):
        code = main([
            "query",
            "--input",
            str(csv_points),
            "--d",
            "5",
            "--n-queries",
            "20",
            "--top-k",
            "0",
            "--quantiles",
            "",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hotspots" not in out
        assert "concentrates" not in out

    def test_query_rejects_bad_parameters(self, csv_points):
        with pytest.raises(SystemExit):
            main(["query", "--input", str(csv_points), "--n-queries", "0"])


class TestTrajectoryCommand:
    def test_compare_all_mechanisms(self, csv_points, capsys):
        code = main([
            "trajectory",
            "--input",
            str(csv_points),
            "--mode",
            "compare",
            "--n-trajectories",
            "40",
            "--max-length",
            "12",
            "--routing-d",
            "25",
            "--d",
            "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload: 40 trajectories" in out
        for label in ("LDPTrace", "PivotTrace", "DAM"):
            assert label in out

    def test_compare_single_mechanism(self, csv_points, capsys):
        code = main([
            "trajectory",
            "--input",
            str(csv_points),
            "--mode",
            "compare",
            "--mechanism",
            "ldptrace",
            "--n-trajectories",
            "30",
            "--max-length",
            "10",
            "--routing-d",
            "25",
            "--d",
            "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "LDPTrace" in out and "PivotTrace" not in out

    def test_fit_prints_model(self, csv_points, capsys):
        code = main([
            "trajectory",
            "--input",
            str(csv_points),
            "--mode",
            "fit",
            "--n-trajectories",
            "30",
            "--max-length",
            "10",
            "--routing-d",
            "25",
            "--d",
            "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "length distribution" in out
        assert "top start cells" in out
        assert "direction distribution" in out

    def test_synthesize_with_workers_and_export(self, csv_points, tmp_path, capsys):
        output = tmp_path / "synthetic.csv"
        code = main([
            "trajectory",
            "--input",
            str(csv_points),
            "--mode",
            "synthesize",
            "--n-trajectories",
            "30",
            "--max-length",
            "10",
            "--routing-d",
            "25",
            "--d",
            "5",
            "--workers",
            "2",
            "--n-output",
            "25",
            "--top-k",
            "2",
            "--save-output",
            str(output),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "synthesized 25 trajectories" in out
        assert "point-density W2" in out
        assert "top origin->destination" in out
        assert "length histogram" in out
        rows = np.loadtxt(output, delimiter=",", ndmin=2)
        assert rows.shape[1] == 3
        assert np.unique(rows[:, 0]).shape[0] == 25

    def test_workers_match_serial(self, csv_points, capsys):
        args = [
            "trajectory",
            "--input",
            str(csv_points),
            "--mode",
            "fit",
            "--n-trajectories",
            "30",
            "--max-length",
            "10",
            "--routing-d",
            "25",
            "--d",
            "5",
        ]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        # Everything after the fit-timing line (the model summary) is identical.
        assert serial.splitlines()[2:] == pooled.splitlines()[2:]

    def test_rejects_bad_parameters(self, csv_points):
        with pytest.raises(SystemExit):
            main(["trajectory", "--input", str(csv_points), "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["trajectory", "--input", str(csv_points), "--n-trajectories", "0"])
        with pytest.raises(SystemExit):
            main([
                "trajectory",
                "--input",
                str(csv_points),
                "--mode",
                "synthesize",
                "--n-output",
                "-1",
            ])


class TestStreamCommand:
    STREAM_ARGS = [
        "stream", "--epochs", "5", "--users-per-epoch", "300", "--window", "2", "--d", "6"
    ]

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.workload == "point"
        # Resolved per workload at run time: shifting-hotspot / commute-shift.
        assert args.scenario is None
        assert args.window == 8
        assert args.decay is None

    def test_stream_runs_and_reports_epochs(self, capsys):
        assert main(self.STREAM_ARGS) == 0
        out = capsys.readouterr().out
        assert "scenario: shifting-hotspot" in out
        assert "mean MAE:" in out
        # One row per epoch plus the header.
        rows = [line for line in out.splitlines() if line.strip().startswith(tuple("0123456789"))]
        assert len(rows) == 5

    @pytest.mark.parametrize("scenario", ["appearing-cluster", "diurnal-mixture"])
    def test_stream_scenarios(self, scenario, capsys):
        assert main(self.STREAM_ARGS + ["--scenario", scenario]) == 0
        assert f"scenario: {scenario}" in capsys.readouterr().out

    def test_stream_decay_and_cold_start(self, capsys):
        assert main(self.STREAM_ARGS + ["--decay", "0.8", "--cold-start"]) == 0
        assert "decay: 0.8" in capsys.readouterr().out

    def test_stream_save_and_replay_is_bit_identical(self, tmp_path, capsys):
        log_path = tmp_path / "session.json"
        assert main(self.STREAM_ARGS + ["--save-log", str(log_path)]) == 0
        assert log_path.exists()
        capsys.readouterr()
        assert main(["stream", "--replay", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "max |MAE - logged| = 0.00e+00" in out
        assert "iterations identical" in out

    def test_stream_workers_match_serial(self, capsys):
        assert main(self.STREAM_ARGS + ["--seed", "3"]) == 0
        serial = capsys.readouterr().out
        assert main(self.STREAM_ARGS + ["--seed", "3", "--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        # Identical per-epoch MAE/iteration table (only timings may differ).
        def table(text):
            return [" ".join(line.split()[:4]) for line in text.splitlines()
                    if line.strip() and line.split()[0].isdigit()]
        assert table(serial) == table(pooled)

    def test_stream_rejects_bad_parameters(self):
        with pytest.raises(SystemExit):
            main(["stream", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["stream", "--epochs", "0"])
        with pytest.raises(SystemExit):
            main(["stream", "--users-per-epoch", "0"])
        with pytest.raises(SystemExit):
            main(["stream", "--window", "0"])
        with pytest.raises(SystemExit):
            main(["stream", "--decay", "1.5"])

    def test_stream_replay_rejects_epoch_mismatch(self, tmp_path, capsys):
        log_path = tmp_path / "session.json"
        assert main(self.STREAM_ARGS + ["--save-log", str(log_path)]) == 0
        log = json.loads(log_path.read_text())
        log["epochs"] = log["epochs"][:-1]
        log_path.write_text(json.dumps(log))
        with pytest.raises(SystemExit, match="replay mismatch"):
            main(["stream", "--replay", str(log_path)])

    def _log_with_backend(self, tmp_path, backend: str):
        log_path = tmp_path / "session.json"
        assert main(self.STREAM_ARGS + ["--save-log", str(log_path)]) == 0
        log = json.loads(log_path.read_text())
        log["config"]["backend"] = backend
        log_path.write_text(json.dumps(log))
        return log_path

    def test_stream_replay_refuses_a_dense_backend_log(self, tmp_path, capsys):
        # The dense row sampler drew other reports from the same seed, so such a
        # session cannot be reproduced on the disk operator.
        log_path = self._log_with_backend(tmp_path, "dense")
        capsys.readouterr()
        with pytest.raises(SystemExit, match='"backend": "dense"'):
            main(["stream", "--replay", str(log_path)])
        assert "max |MAE - logged|" not in capsys.readouterr().out

    def test_stream_replay_accepts_an_operator_backend_log(self, tmp_path, capsys):
        log_path = self._log_with_backend(tmp_path, "operator")
        capsys.readouterr()
        assert main(["stream", "--replay", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "max |MAE - logged| = 0.00e+00" in out
        assert "iterations identical" in out


class TestStreamTrajectoryWorkload:
    TRAJ_ARGS = [
        "stream", "--workload", "trajectory", "--epochs", "4",
        "--trajectories-per-epoch", "40", "--window", "2", "--d", "6",
        "--max-length", "10", "--n-synthetic", "80",
    ]

    def test_trajectory_workload_runs_and_reports_w2(self, capsys):
        assert main(self.TRAJ_ARGS) == 0
        out = capsys.readouterr().out
        assert "workload: trajectory" in out
        assert "scenario: commute-shift" in out
        assert "mean W2:" in out
        rows = [line for line in out.splitlines() if line.strip().startswith(tuple("0123456789"))]
        assert len(rows) == 4

    @pytest.mark.parametrize("scenario", ["event-surge", "route-closure"])
    def test_trajectory_scenarios(self, scenario, capsys):
        assert main(self.TRAJ_ARGS + ["--scenario", scenario]) == 0
        assert f"scenario: {scenario}" in capsys.readouterr().out

    def test_trajectory_save_and_replay_is_bit_identical(self, tmp_path, capsys):
        log_path = tmp_path / "session.json"
        assert main(self.TRAJ_ARGS + ["--save-log", str(log_path)]) == 0
        import json
        assert json.loads(log_path.read_text())["config"]["workload"] == "trajectory"
        capsys.readouterr()
        assert main(["stream", "--replay", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "workload: trajectory" in out
        assert "max |W2 - logged| = 0.00e+00" in out

    def test_trajectory_workers_match_serial(self, capsys):
        assert main(self.TRAJ_ARGS + ["--seed", "3"]) == 0
        serial = capsys.readouterr().out
        assert main(self.TRAJ_ARGS + ["--seed", "3", "--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        def table(text):
            return [" ".join(line.split()[:3]) for line in text.splitlines()
                    if line.strip() and line.split()[0].isdigit()]
        assert table(serial) == table(pooled)

    def test_rejects_scenario_of_other_workload(self):
        with pytest.raises(SystemExit, match="other workload"):
            main(self.TRAJ_ARGS + ["--scenario", "shifting-hotspot"])
        with pytest.raises(SystemExit, match="other workload"):
            main(["stream", "--scenario", "commute-shift"])

    def test_rejects_bad_trajectory_parameters(self):
        with pytest.raises(SystemExit):
            main(self.TRAJ_ARGS[:3] + ["--trajectories-per-epoch", "0"])
        with pytest.raises(SystemExit):
            main(self.TRAJ_ARGS[:3] + ["--n-synthetic", "0"])


class TestServeCommand:
    SERVE_ARGS = [
        "serve", "--epochs", "2", "--users-per-epoch", "300", "--window", "2",
        "--d", "6", "--serve-workers", "1", "--queries-per-epoch", "400",
        "--batch-rows", "128",
    ]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.scenario == "shifting-hotspot"
        assert args.serve_workers == 2
        assert args.batch_rows == 4096

    def test_serve_runs_and_verifies_bit_identity(self, capsys):
        assert main(self.SERVE_ARGS) == 0
        out = capsys.readouterr().out
        assert "scenario: shifting-hotspot" in out
        assert "serve workers: 1" in out
        assert "queries/s" in out
        assert "worker answers bit-identical to in-process engine: yes" in out
        # One served-epoch row per ingest epoch.
        rows = [line for line in out.splitlines()
                if line.strip() and line.split()[0].isdigit()]
        assert len(rows) == 2

    def test_serve_http_routes_workload_through_the_front(self, capsys):
        assert main(self.SERVE_ARGS + ["--http", "127.0.0.1:0"]) == 0
        out = capsys.readouterr().out
        assert "HTTP front listening on http://127.0.0.1:" in out
        assert "HTTP front answers bit-identical to in-process engine: yes" in out

    def test_serve_rejects_bad_parameters(self):
        with pytest.raises(SystemExit):
            main(["serve", "--serve-workers", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--epochs", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--queries-per-epoch", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--batch-rows", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--decay", "2.0"])
        with pytest.raises(SystemExit):
            main(["serve", "--http", "no-port-here"])
        with pytest.raises(SystemExit):
            main(["serve", "--http", ":8080"])
