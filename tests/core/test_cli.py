"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table2"])
        assert args.experiment == "table2"
        assert args.scale == "small"
        assert args.seed == 7

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table2", "--scale", "huge"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "fig7d" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        code = main(["run", "fig99", "--scale", "small"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_export_dataset_requires_one_directory(self, capsys):
        assert main(["export-dataset"]) == 1
        assert "-o/--output" in capsys.readouterr().err

    def test_sweep_rejects_bad_axis(self, capsys):
        code = main(["sweep", "table2", "--axis", "notafield=1"])
        assert code == 1
        assert "unknown sweep axis" in capsys.readouterr().err

    def test_obs_validate_handles_result_payloads(self, tmp_path, capsys):
        import json

        from repro.core import results_payload
        from repro.core.report import ExperimentResult

        result = ExperimentResult(
            experiment_id="table2",
            title="demo",
            headers=["a"],
            rows=[[1]],
        )
        good = tmp_path / "results.json"
        good.write_text(json.dumps(results_payload([result], seed=7)))
        assert main(["obs", "validate", str(good)]) == 0
        assert "result_schema_version 2" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"result_schema_version": 1, "results": [{}]})
        )
        assert main(["obs", "validate", str(bad)]) == 1
        assert "missing" in capsys.readouterr().err

    def test_redundancy_flags_parsed(self):
        args = build_parser().parse_args(
            ["run", "table2", "--redundancy", "r=3",
             "--read-policy", "least_loaded"]
        )
        assert args.redundancy == "r=3"
        assert args.read_policy == "least_loaded"

    def test_redundancy_flags_default_to_none(self):
        args = build_parser().parse_args(["run", "table2"])
        assert args.redundancy is None
        assert args.read_policy is None

    def test_unknown_read_policy_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "table2", "--read-policy", "round_robin"]
            )

    def test_balance_and_export_accept_redundancy_flags(self):
        args = build_parser().parse_args(
            ["balance", "plan", "--redundancy", "r=2"]
        )
        assert args.redundancy == "r=2"
        args = build_parser().parse_args(
            ["export-dataset", "-o", "out", "--redundancy", "ec=4+2"]
        )
        assert args.redundancy == "ec=4+2"

    def test_bad_redundancy_spec_fails_cleanly(self, capsys):
        code = main(["run", "table2", "--redundancy", "raid=5"])
        assert code == 1
        assert "malformed redundancy" in capsys.readouterr().err

    def test_list_includes_redundancy_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "redundancy_cov" in out
        assert "redundancy_faults" in out

    def test_run_output_flag_parsed(self):
        args = build_parser().parse_args(["run", "table2", "-o", "out.json"])
        assert args.output == "out.json"

    def test_export_dataset_output_flag(self):
        args = build_parser().parse_args(["export-dataset", "-o", "there"])
        assert args.output == "there"

    def test_sweep_parses(self):
        args = build_parser().parse_args(
            [
                "sweep", "table2", "fig7a",
                "--axis", "cache_min_traces=100,200",
                "--axis", "seed=3,4",
                "--store", "cache/",
                "-o", "sweep.json",
                "--workers", "2",
            ]
        )
        assert args.command == "sweep"
        assert args.experiments == ["table2", "fig7a"]
        assert args.axis == ["cache_min_traces=100,200", "seed=3,4"]
        assert args.store == "cache/"
        assert args.output == "sweep.json"
        assert args.workers == 2


class TestDigestFile:
    """``run --digest`` output is pinned by hash downstream: its keys,
    their order and the series format must not drift."""

    def test_keys_and_series_format(self, tmp_path):
        import argparse
        import json
        from types import SimpleNamespace

        from repro.cli import _write_digest

        study = SimpleNamespace(
            results=[], chunk_epochs=2, series_dtype="float64"
        )
        path = tmp_path / "digest.json"
        _write_digest(
            study,
            argparse.Namespace(scale="small", seed=7, digest=str(path)),
        )
        payload = json.loads(path.read_text())
        assert list(payload) == [
            "scale", "seed", "chunk_epochs", "series_format",
            "series_dtype", "per_dc", "combined",
        ]
        assert payload["series_format"] == "raw"
        assert payload["series_dtype"] == "float64"


@pytest.mark.slow
class TestMainEndToEnd:
    def test_run_with_json_output(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = main(["run", "table2", "--scale", "small", "-o", str(out)])
        assert code == 0
        import json

        payload = json.loads(out.read_text())
        assert payload["scale"] == "small"
        assert payload["results"][0]["experiment_id"] == "table2"

    def test_export_dataset_writes_files(self, tmp_path, capsys):
        code = main(["export-dataset", "-o", str(tmp_path / "data")])
        assert code == 0
        written = {p.name for p in (tmp_path / "data").iterdir()}
        assert "dc0_traces.jsonl" in written
        assert "dc0_compute.csv" in written
        assert "dc0_storage.csv" in written


@pytest.mark.slow
class TestFlushFailures:
    """The ``finally``-path writers must chain causes, never mask them."""

    def test_results_flush_failure_exits_nonzero_and_names_artifact(
        self, tmp_path, capsys
    ):
        target = tmp_path / "missing" / "results.json"
        code = main(
            ["run", "table2", "--scale", "small", "-o", str(target)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "NOT written" in err
        assert str(target) in err
        # main() surfaces the chained OSError root cause.
        assert "caused by" in err

    def test_telemetry_flush_failure_exits_nonzero(self, tmp_path, capsys):
        # A *file* where the parent directory should be defeats the
        # writer's mkdir(parents=True) with NotADirectoryError.
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        target = blocker / "telemetry.json"
        code = main(
            ["run", "table2", "--scale", "small",
             "--telemetry", str(target)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "telemetry was not written" in err
        assert "caused by" in err

    def test_telemetry_failure_never_masks_inflight_error(
        self, tmp_path, monkeypatch, capsys
    ):
        """A failing telemetry write during exception unwind is logged,
        and the original (in-flight) failure keeps propagating."""
        import repro.cli as cli_module
        from repro.obs.runtime import Telemetry

        def exploding_study(args):
            raise RuntimeError("mid-study blowup")

        def exploding_write(self, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli_module, "_study", exploding_study)
        monkeypatch.setattr(Telemetry, "write", exploding_write)
        with pytest.raises(RuntimeError, match="mid-study blowup"):
            main(
                ["run", "table2", "--scale", "small",
                 "--telemetry", str(tmp_path / "telemetry.json")]
            )
        err = capsys.readouterr().err
        assert "telemetry was NOT written" in err
        assert "keeping the original failure" in err
