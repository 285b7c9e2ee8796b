import argparse
import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

from cyclecast import cli
from cyclecast.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from cyclecast.forecaster import read_records
from cyclecast.llr import Fallback
from cyclecast.poisson import poisson_mle
from cyclecast.trace import read_observations

import oracles


OBS_HEADER = "tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n"
TWO_RECORDS = "t,tp_index,predicted_lambda,actual_lambda,fallback_used\n1,1,NA,2.0,none\n2,2,2.0,3.0,none\n"


def _obs_file(path, periods, pp_tps, metric="arrivals", scale="100.0"):
    """An observations file of ``periods`` consecutive 60 s-sub-bin periods with varying counts."""
    rows = "".join(
        f"{i % pp_tps + 1},{i // pp_tps + 1},{metric},60,{scale},"
        f"{3 + i % 5} {4 + i % 3} 5\n"
        for i in range(periods)
    )
    path.write_text(OBS_HEADER + rows)
    return str(path)


def _run_pipeline(out_dir, seed=3):
    out = str(out_dir)
    steps = [
        [
            "synth", "--out-dir", out, "--tps", "96", "--pp-tps", "24",
            "--base-rate", "6", "--daily-amp", "0.3", "--weekly-amp", "0.1",
            "--noise-sigma", "0.05", "--seed", str(seed),
        ],
        [
            "ingest", "--trace", f"{out}/trace.csv", "--header", "--out-dir", out,
            "--pp-tps", "24", "--split-tp", "48",
        ],
        ["fit", "--observations", f"{out}/observations_arrivals_test.csv", "--out-dir", out],
        [
            "predict", "--train", f"{out}/observations_arrivals_train.csv",
            "--test", f"{out}/observations_arrivals_test.csv", "--out-dir", out,
            "--pp-tps", "24", "--up-tps", "8", "--cycles", "2", "--bandwidth-k", "6",
        ],
        [
            "evaluate", "--records", f"{out}/records.csv", "--test-from-t", "49",
            "--baselines", "--out-dir", out,
        ],
    ]
    for argv in steps:
        assert main(argv) == EXIT_OK, f"step failed: {argv}"


class TestPipeline:
    def test_full_chain_outputs(self, tmp_path):
        _run_pipeline(tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert {
            "trace.csv", "truth.csv", "observations_arrivals_train.csv",
            "observations_arrivals_test.csv", "lambdas_arrivals.csv",
            "records.csv", "report.csv", "errors.csv",
        } <= names
        assert {
            "synth.manifest.json", "ingest.manifest.json", "fit.manifest.json",
            "predict.manifest.json", "evaluate.manifest.json",
        } <= names
        records = read_records(tmp_path / "records.csv")
        assert len(records) == 96
        rows = oracles.read_report_rows(tmp_path / "report.csv")
        assert len(rows) == 1
        assert rows[0]["improvement_vs_naive_pct"] != ""

    def test_observation_split_sizes(self, tmp_path):
        _run_pipeline(tmp_path)
        train = read_observations(tmp_path / "observations_arrivals_train.csv")
        test = read_observations(tmp_path / "observations_arrivals_test.csv")
        assert len(train) == 48 and len(test) == 48
        assert train[0].tp_index == 1 and test[0].tp_index == 1
        assert test[0].cycle_index == 3

    def test_manifest_shape(self, tmp_path):
        _run_pipeline(tmp_path)
        manifest = json.loads((tmp_path / "predict.manifest.json").read_text())
        assert manifest["command"] == "predict"
        assert manifest["config"]["up_tps"] == 8
        assert {i["name"] for i in manifest["inputs"]} == {
            "observations_arrivals_train.csv", "observations_arrivals_test.csv",
        }
        assert all(len(i["sha256"]) == 64 for i in manifest["inputs"])
        assert manifest["outputs"] == ["records.csv"]
        # Only settings the run uses or checks against the data are echoed.
        assert manifest["config"]["metric"] == "arrivals"
        assert manifest["config"]["sub_bin_seconds"] == 60
        assert manifest["config"]["scale"] == 100.0
        assert "tp_minutes" not in manifest["config"]

    def test_predict_manifest_counts_warmup_and_fallback_steps(self, tmp_path):
        # 96 periods of a 24-period pattern in a store of 2 cycles: the first cycle
        # is warm-up, and a window of one offset holds no line, so the weighted mean predicts.
        _run_pipeline(tmp_path)
        out = tmp_path / "one-offset"
        assert main([
            "predict", "--train", str(tmp_path / "observations_arrivals_train.csv"),
            "--test", str(tmp_path / "observations_arrivals_test.csv"), "--out-dir", str(out),
            "--pp-tps", "24", "--up-tps", "1", "--cycles", "2",
        ]) == EXIT_OK
        stats = json.loads((out / "predict.manifest.json").read_text())["stats"]
        assert stats == {
            "warmup_steps": 24, "fallbacks": {"none": 0, "widened_h": 0, "weighted_mean": 72, "global_line": 0},
        }
        # The counts are those of the records file.
        records = read_records(out / "records.csv")
        live = records.fallback[~records.warm].tolist()
        assert stats["warmup_steps"] == records.warm.sum()
        assert stats["fallbacks"] == {f.value: live.count(f) for f in Fallback}
        # The pipeline's own run: past warm-up, each step is counted once.
        stats = json.loads((tmp_path / "predict.manifest.json").read_text())["stats"]
        assert stats["warmup_steps"] + sum(stats["fallbacks"].values()) == 96

    def test_sweep_mode(self, tmp_path):
        _run_pipeline(tmp_path)
        code = main([
            "evaluate", "--train", str(tmp_path / "observations_arrivals_train.csv"),
            "--test", str(tmp_path / "observations_arrivals_test.csv"),
            "--pp-tps", "24", "--cycles", "2", "--up-tps-grid", "4,8",
            "--bandwidth-grid", "4,6", "--baselines", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        rows = oracles.read_report_rows(tmp_path / "reports.csv")
        assert len(rows) == 4
        plot = (tmp_path / "sweep_mape.csv").read_text().splitlines()
        assert plot[0] == "up_tps,bandwidth,mape"
        assert len(plot) == 5

    def test_sweep_keeps_a_fixed_radius(self, tmp_path):
        train = _obs_file(tmp_path / "train.csv", 48, 24)
        test = _obs_file(tmp_path / "test.csv", 24, 24)
        code = main([
            "evaluate", "--train", train, "--test", test, "--pp-tps", "24", "--cycles", "2",
            "--up-tps", "8", "--bandwidth-h", "2.5", "--kernel", "gaussian",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        rows = oracles.read_report_rows(tmp_path / "reports.csv")
        assert [r["config_id"] for r in rows] == ["up8-gaussian-h=2.5"]
        manifest = json.loads((tmp_path / "evaluate.manifest.json").read_text())
        assert manifest["config"]["bandwidth_grid"] == [2.5]

    def test_bandwidth_grid_with_fixed_radius_is_usage_error(self, tmp_path):
        train = _obs_file(tmp_path / "train.csv", 48, 24)
        test = _obs_file(tmp_path / "test.csv", 24, 24)
        code = main([
            "evaluate", "--train", train, "--test", test, "--pp-tps", "24", "--cycles", "2",
            "--up-tps", "8", "--bandwidth-h", "2.5", "--bandwidth-grid", "4,6",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "grids, message",
        [
            (["--up-tps-grid", "12,12", "--bandwidth-grid", "10,10"], "--up-tps-grid lists 12 more than once"),
            (["--up-tps-grid", "8,4,8"], "--up-tps-grid lists 8 more than once"),
            (["--up-tps-grid", "8", "--bandwidth-grid", "4,6,04"], "--bandwidth-grid lists 4 more than once"),
        ],
    )
    def test_repeated_grid_value_is_usage_error(self, tmp_path, capsys, grids, message):
        train = _obs_file(tmp_path / "train.csv", 48, 24)
        test = _obs_file(tmp_path / "test.csv", 24, 24)
        code = main([
            "evaluate", "--train", train, "--test", test, "--pp-tps", "24", "--cycles", "2",
            *grids, "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "reports.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        _run_pipeline(a, seed=11)
        _run_pipeline(b, seed=11)
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestResourceMetrics:
    def test_cpu_metric_predicts(self, tmp_path):
        out = str(tmp_path)
        assert main([
            "synth", "--out-dir", out, "--tps", "48", "--pp-tps", "12",
            "--base-rate", "5", "--seed", "4",
        ]) == EXIT_OK
        assert main([
            "ingest", "--trace", f"{out}/trace.csv", "--header", "--out-dir", out,
            "--pp-tps", "12", "--metric", "cpu", "--split-tp", "24",
        ]) == EXIT_OK
        assert main([
            "predict", "--train", f"{out}/observations_cpu_train.csv",
            "--test", f"{out}/observations_cpu_test.csv", "--out-dir", out,
            "--pp-tps", "12", "--up-tps", "4", "--cycles", "2",
            "--bandwidth-k", "4",
        ]) == EXIT_OK
        records = read_records(tmp_path / "records.csv")
        assert len(records) == 48
        assert (records.predicted >= 0).all()


class TestStreamUnits:
    """predict and the sweep take the metric, sub-bin width and scale of the streams, which share them."""

    def test_manifests_echo_the_units_of_the_stream(self, tmp_path):
        train = _obs_file(tmp_path / "train.csv", 8, 4, metric="memory", scale="250.0")
        test = _obs_file(tmp_path / "test.csv", 4, 4, metric="memory", scale="250.0")
        streams = ["--train", train, "--test", test, "--pp-tps", "4", "--up-tps", "2"]
        assert main(["predict", *streams, "--out-dir", str(tmp_path / "predict")]) == EXIT_OK
        assert main(["evaluate", *streams, "--out-dir", str(tmp_path / "sweep")]) == EXIT_OK
        for manifest in (tmp_path / "predict" / "predict.manifest.json", tmp_path / "sweep" / "evaluate.manifest.json"):
            config = json.loads(manifest.read_text())["config"]
            units = (config["metric"], config["sub_bin_seconds"], config["sub_bins"], config["scale"])
            assert units == ("memory", 60, 3, 250.0), manifest

    def test_an_empty_train_stream_takes_the_units_of_test(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(OBS_HEADER)
        cpu = _obs_file(tmp_path / "cpu.csv", 8, 4, metric="cpu")
        for test, units in ((cpu, ["cpu", 60, 3, 100.0]), (str(empty), [None, None, None, None])):
            out = tmp_path / Path(test).stem
            argv = ["predict", "--train", str(empty), "--test", test, "--pp-tps", "4", "--up-tps", "2"]
            assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
            config = json.loads((out / "predict.manifest.json").read_text())["config"]
            assert [config["metric"], config["sub_bin_seconds"], config["sub_bins"], config["scale"]] == units

    def test_streams_ingested_at_two_scales_are_data_error(self, tmp_path, capsys):
        # One trace ingested at --scale 100 into a/ and at --scale 10000 into b/: a cpu
        # count at one scale is 100 times one at the other, so no run may mix them.
        assert main(["synth", "--out-dir", str(tmp_path), "--tps", "48", "--pp-tps", "12", "--seed", "4"]) == EXIT_OK
        for name, scale in (("a", "100"), ("b", "10000")):
            assert main([
                "ingest", "--trace", str(tmp_path / "trace.csv"), "--header", "--pp-tps", "12",
                "--metric", "cpu", "--split-tp", "24", "--scale", scale, "--out-dir", str(tmp_path / name),
            ]) == EXIT_OK
        train, test = tmp_path / "a" / "observations_cpu_train.csv", tmp_path / "b" / "observations_cpu_test.csv"
        window = ["--pp-tps", "12", "--up-tps", "4", "--cycles", "2", "--bandwidth-k", "4"]
        for argv in (
            ["predict", "--train", str(train), "--test", str(test), *window],
            ["evaluate", "--train", str(train), "--test", str(test), *window],
            ["fit", "--observations", str(train), str(test)],
        ):
            out = tmp_path / argv[0]
            assert main([*argv, "--out-dir", str(out)]) == EXIT_DATA, argv
            err = capsys.readouterr().err
            assert (
                f"{test} carries metric 'cpu' with 60s sub-bins, 30 per period, at scale 10000.0, "
                f"but {train} carries metric 'cpu' with 60s sub-bins, 30 per period, at scale 100.0"
            ) in err, err
            assert not out.exists()

    def test_streams_ingested_at_two_period_lengths_are_data_error(self, tmp_path, capsys):
        # One trace ingested with --tp-min 30 into a/ and with --tp-min 60 into b/: a
        # 24-period pattern covers 12 h of one stream and 24 h of the other, so no run may mix them.
        assert main(["synth", "--out-dir", str(tmp_path), "--tps", "96", "--pp-tps", "24", "--seed", "4"]) == EXIT_OK
        for name, tp_min in (("a", "30"), ("b", "60")):
            assert main([
                "ingest", "--trace", str(tmp_path / "trace.csv"), "--header", "--pp-tps", "24",
                "--tp-min", tp_min, "--split-tp", "24", "--out-dir", str(tmp_path / name),
            ]) == EXIT_OK
        train = tmp_path / "a" / "observations_arrivals_train.csv"
        test = tmp_path / "b" / "observations_arrivals_test.csv"
        window = ["--pp-tps", "24", "--up-tps", "4", "--cycles", "2"]
        for argv in (
            ["predict", "--train", str(train), "--test", str(test), *window],
            ["evaluate", "--train", str(train), "--test", str(test), *window],
            ["fit", "--observations", str(train), str(test)],
        ):
            out = tmp_path / argv[0]
            assert main([*argv, "--out-dir", str(out)]) == EXIT_DATA, argv
            err = capsys.readouterr().err
            assert (
                f"{test} carries metric 'arrivals' with 60s sub-bins, 60 per period, at scale 100.0, "
                f"but {train} carries metric 'arrivals' with 60s sub-bins, 30 per period, at scale 100.0"
            ) in err, err
            assert not out.exists()

    def test_a_file_of_two_period_lengths_is_data_error(self, tmp_path, capsys):
        obs = _obs_file(tmp_path / "obs.csv", 8, 4)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(Path(obs).read_text().replace("1,2,arrivals,60,100.0,", "1,2,arrivals,60,100.0,0 "))
        window = ["--pp-tps", "4", "--up-tps", "2"]
        for argv in (
            ["predict", "--train", str(ragged), "--test", obs, *window],
            ["predict", "--train", obs, "--test", str(ragged), *window],
            ["evaluate", "--train", obs, "--test", str(ragged), *window],
            ["fit", "--observations", obs, str(ragged)],
        ):
            out = tmp_path / argv[0]
            assert main([*argv, "--out-dir", str(out)]) == EXIT_DATA, argv
            err = capsys.readouterr().err
            assert (
                f"{ragged}:6: metric 'arrivals' with 60s sub-bins, 4 per period, at scale 100.0, "
                "but the file began with metric 'arrivals' with 60s sub-bins, 3 per period, at scale 100.0"
            ) in err, err
            assert "Traceback" not in err and not out.exists()

    def test_one_file_at_two_scales_is_data_error(self, tmp_path, capsys):
        obs = _obs_file(tmp_path / "obs.csv", 8, 4, metric="cpu")
        mixed = tmp_path / "mixed.csv"
        mixed.write_text(Path(obs).read_text().replace("1,2,cpu,60,100.0,", "1,2,cpu,60,10000.0,"))
        window = ["--pp-tps", "4", "--up-tps", "2"]
        for argv in (
            ["predict", "--train", str(mixed), "--test", obs, *window],
            ["evaluate", "--train", obs, "--test", str(mixed), *window],
            ["fit", "--observations", str(mixed)],
        ):
            out = tmp_path / argv[0]
            assert main([*argv, "--out-dir", str(out)]) == EXIT_DATA, argv
            err = capsys.readouterr().err
            assert (
                f"{mixed}:6: metric 'cpu' with 60s sub-bins, 3 per period, at scale 10000.0, "
                "but the file began with metric 'cpu' with 60s sub-bins, 3 per period, at scale 100.0"
            ) in err, err
            assert not out.exists()


class TestFit:
    def test_idle_period_flagged(self, tmp_path):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n"
            "1,1,arrivals,60,100.0,2 3 4\n"
            "2,1,arrivals,60,100.0,0 0 0\n"
        )
        assert main(["fit", "--observations", str(obs_file), "--out-dir", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "lambdas_arrivals.csv").read_text().splitlines()
        assert lines[1] == "1,1,1,arrivals,3.0,0"
        assert lines[2] == "2,2,1,arrivals,0.0,1"

    def test_metrics_interleaved_across_files(self, tmp_path, capsys):
        first, second, third = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        first.write_text(OBS_HEADER + "2,1,arrivals,60,100.0,1 1\n")
        second.write_text(OBS_HEADER + "1,1,cpu,30,100.0,7 0 2\n3,1,cpu,30,100.0,0 0 0\n")
        third.write_text(OBS_HEADER + "4,1,arrivals,60,100.0,9007199254740993 2\n")
        out = tmp_path / "out"
        assert main(["fit", "--observations", str(first), str(second), str(third), "--out-dir", str(out)]) == EXIT_OK
        expected = {
            "cpu": [(1, 1, [7, 0, 2]), (3, 1, [0, 0, 0])],
            "arrivals": [(2, 1, [1, 1]), (4, 1, [9007199254740993, 2])],
        }
        for metric, periods in expected.items():
            lines = (out / f"lambdas_{metric}.csv").read_text().splitlines()
            assert lines[1:] == [
                f"{seq},{tp},{cycle},{metric},{poisson_mle(samples)!r},{int(sum(samples) == 0)}"
                for seq, (tp, cycle, samples) in enumerate(periods, start=1)
            ]
        manifest = json.loads((out / "fit.manifest.json").read_text())
        assert manifest["outputs"] == ["lambdas_arrivals.csv", "lambdas_cpu.csv"]
        # One file of several metrics is refused at its first line in another.
        mixed = tmp_path / "mixed.csv"
        mixed.write_text(OBS_HEADER + "1,1,cpu,30,100.0,7 0 2\n2,1,arrivals,60,100.0,1 1\n")
        assert main(["fit", "--observations", str(mixed), "--out-dir", str(tmp_path / "mixed")]) == EXIT_DATA
        assert f"{mixed}:3: metric 'arrivals' with 60s sub-bins" in capsys.readouterr().err
        assert not (tmp_path / "mixed").exists()

    def test_negative_count_is_data_error(self, tmp_path, capsys):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n"
            "1,1,arrivals,60,100.0,2 3 4\n"
            "2,1,arrivals,60,100.0,5 -8 1\n"
        )
        code = main(["fit", "--observations", str(obs_file), "--out-dir", str(tmp_path)])
        assert code == EXIT_DATA
        assert f"{obs_file}:3:" in capsys.readouterr().err

    def test_mixed_sub_bins_is_data_error(self, tmp_path, capsys):
        minute = _obs_file(tmp_path / "minute.csv", 2, 4)
        half = tmp_path / "half.csv"
        half.write_text(OBS_HEADER + "3,1,arrivals,60,100.0,1 2\n4,1,arrivals,30,100.0,1 2 3 4\n")
        code = main(["fit", "--observations", minute, str(half), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{half}:3: metric 'arrivals' with 30s sub-bins" in err
        assert not (tmp_path / "out" / "lambdas_arrivals.csv").exists()


class TestExitCodes:
    def test_missing_trace_is_data_error(self, tmp_path):
        code = main(["ingest", "--trace", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert code == EXIT_DATA

    def test_bad_column_flag_is_usage_error(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,job_id,task_id,cpu_request,mem_request\n0,j,t,0.1,0.1\n")
        code = main([
            "ingest", "--trace", str(trace), "--header", "--col-ts", "not_a_column",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    def test_window_beyond_pattern_is_usage_error(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n"
            "1,1,arrivals,60,100.0,1 2\n"
        )
        code = main([
            "predict", "--train", str(obs), "--test", str(obs), "--out-dir", str(tmp_path),
            "--pp-tps", "24", "--up-tps", "25",
        ])
        assert code == EXIT_USAGE

    def test_malformed_observations_is_data_error(self, tmp_path):
        bad = tmp_path / "obs.csv"
        bad.write_text("tp_index,cycle_index,metric\n1,1,arrivals\n")
        code = main(["fit", "--observations", str(bad), "--out-dir", str(tmp_path)])
        assert code == EXIT_DATA

    def test_records_and_streams_conflict(self, tmp_path):
        code = main([
            "evaluate", "--records", "r.csv", "--train", "t.csv", "--test", "u.csv",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "mode, flags, named",
        [
            *(("records", ["--baselines", *flag], flag[0]) for flag in (
                ["--pp-tps", "24"], ["--up-tps", "8"], ["--cycles", "2"], ["--kernel", "gaussian"],
                ["--bandwidth-k", "6"], ["--bandwidth-h", "2.5"], ["--up-tps-grid", "4,8"],
                ["--bandwidth-grid", "5,10"],
            )),
            ("records", ["--baseline-window", "10"], "--baseline-window"),
            ("sweep", ["--test-from-t", "3"], "--test-from-t"),
            ("sweep", ["--baselines", "--baseline-window", "10"], "--baseline-window"),
        ],
    )
    def test_flag_of_the_other_evaluate_mode_is_usage_error(self, tmp_path, capsys, mode, flags, named):
        obs = _obs_file(tmp_path / "obs.csv", 8, 4)
        records = tmp_path / "records.csv"
        records.write_text(TWO_RECORDS)
        source = ["--records", str(records)] if mode == "records" else [
            "--train", obs, "--test", obs, "--pp-tps", "4", "--up-tps", "2",
        ]
        out = tmp_path / "out"
        assert main(["evaluate", *source, "--out-dir", str(out)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "refused"
        assert main(["evaluate", *source, *flags, "--out-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "test_from_t, records, message",
        [
            ("0", TWO_RECORDS, "--test-from-t 0 is below 1, the first step"),
            ("-5", TWO_RECORDS, "--test-from-t -5 is below 1, the first step"),
            ("3", TWO_RECORDS, "--test-from-t 3 is past the last step of {path}, which holds 2 steps"),
            ("500", TWO_RECORDS, "--test-from-t 500 is past the last step of {path}, which holds 2 steps"),
            ("1", TWO_RECORDS.splitlines(keepends=True)[0], "--test-from-t 1 is past the last step of {path}, "
             "which holds 0 steps"),
        ],
        ids=["zero", "negative", "one-past", "far-past", "no-steps"],
    )
    def test_test_from_t_outside_the_records_is_usage_error(self, tmp_path, capsys, test_from_t, records, message):
        path = tmp_path / "records.csv"
        path.write_text(records)
        out = tmp_path / "out"
        code = main(["evaluate", "--records", str(path), f"--test-from-t={test_from_t}", "--out-dir", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert message.format(path=path) in err and "Traceback" not in err
        assert not out.exists()

    def test_test_from_t_may_be_the_last_step(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text(TWO_RECORDS)
        assert main(["evaluate", "--records", str(records), "--test-from-t", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
        (row,) = oracles.read_report_rows(tmp_path / "report.csv")
        assert row["retained"] == "1"

    def test_sweep_of_an_empty_test_stream_is_data_error(self, tmp_path, capsys):
        train = _obs_file(tmp_path / "train.csv", 8, 4)
        empty = tmp_path / "empty.csv"
        empty.write_text(OBS_HEADER)
        out = tmp_path / "out"
        code = main(["evaluate", "--train", train, "--test", str(empty), "--pp-tps", "4", "--up-tps", "2",
                     "--out-dir", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{empty}: no period to score" in err and "Traceback" not in err
        assert not out.exists()

    def test_infinite_fixed_radius_is_usage_error(self, tmp_path, capsys):
        obs = _obs_file(tmp_path / "obs.csv", 8, 4)
        for command in ("predict", "evaluate"):
            out = tmp_path / command
            argv = [command, "--train", obs, "--test", obs, "--pp-tps", "4", "--up-tps", "2", "--bandwidth-h", "inf"]
            assert main([*argv, "--out-dir", str(out)]) == EXIT_USAGE, command
            err = capsys.readouterr().err
            assert "fixed radius must be positive and finite, got inf" in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["ingest", "--trace", "{missing}"], EXIT_DATA, "{missing}"),
            (["fit", "--observations", "{missing}"], EXIT_DATA, "{missing}"),
            (["evaluate", "--records", "{missing}"], EXIT_DATA, "{missing}"),
            (["evaluate", "--train", "{missing}", "--test", "{missing}"], EXIT_DATA, "{missing}"),
            (["synth", "--tps", "10", "--pp-tps", "5", "--seed=-1"], EXIT_USAGE,
             "seed must be a nonnegative integer, got -1"),
            (["synth", "--tps", "10", "--pp-tps", "5", "--config", "{cfg}"], EXIT_USAGE,
             "seed must be a nonnegative integer, got -1"),
            (["synth", "--tps", "10", "--pp-tps", "5", "--config", "{plain}"], EXIT_USAGE,
             "{plain}:1: expected key=value"),
            (["ingest", "--trace", "{rejected}", "--header"], EXIT_DATA, "no usable events (2 rows rejected)"),
            (["ingest", "--trace", "{trace}", "--start-sec", "3601"], EXIT_DATA,
             "no events at or after start offset 3601s"),
            (["ingest", "--trace", "{trace}", "--split-tp", "0"], EXIT_USAGE,
             "--split-tp 0 outside [1, 2] for a 3-period span"),
            (["ingest", "--trace", "{trace}", "--split-tp", "3"], EXIT_USAGE,
             "--split-tp 3 outside [1, 2] for a 3-period span"),
            (["evaluate", "--train", "{obs}", "--test", "{obs}", "--pp-tps", "24", "--up-tps-grid", "1,x"],
             EXIT_USAGE, "--up-tps-grid must be a comma-separated integer list, got '1,x'"),
            (["evaluate", "--train", "{obs}", "--test", "{obs}", "--pp-tps", "24", "--up-tps-grid", ","],
             EXIT_USAGE, "--up-tps-grid is empty"),
            (["evaluate", "--train", "{obs}", "--pp-tps", "24"], EXIT_USAGE,
             "evaluate needs either --records or both --train and --test"),
            # A period of 2**63 us or more: one sub-bin of it, or two.
            (["synth", "--tp-min", "1000000000000", "--sub-bin-sec", "60000000000000", "--tps", "2",
              "--pp-tps", "2", "--base-rate", "1"], EXIT_USAGE,
             "target period of 1000000000000min is 60000000000000000000us, not below 2**63us"),
            (["synth", "--tp-min", "200000000000", "--sub-bin-sec", "6000000000000", "--tps", "2",
              "--pp-tps", "2", "--base-rate", "1"], EXIT_USAGE,
             "target period of 200000000000min is 12000000000000000000us, not below 2**63us"),
            # Three periods of 6e18 us, whose timestamps int64 cannot hold.
            (["synth", "--tp-min", "100000000000", "--sub-bin-sec", "3000000000000", "--tps", "3",
              "--pp-tps", "3", "--base-rate", "1"], EXIT_USAGE,
             "3 periods of 100000000000min end at 18000000000000000000us, past 2**63us"),
        ],
        ids=[
            "ingest", "fit", "records", "sweep", "seed-flag", "seed-entry", "entry-without-equals",
            "every-row-rejected", "start-past-the-last-event", "split-at-0", "split-at-the-end",
            "grid-not-integers", "grid-empty", "train-alone", "synth-period-of-one-sub-bin-past-int64",
            "synth-period-of-two-sub-bins-past-int64", "synth-trace-ending-past-int64",
        ],
    )
    def test_refused_run_makes_no_output_directory(self, tmp_path, capsys, argv, code, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-1\n")
        plain = tmp_path / "plain.cfg"
        plain.write_text("pp-tps 24\n")
        rejected = tmp_path / "rejected.csv"
        rejected.write_text("timestamp,job_id,task_id,cpu_request,mem_request\nx,j1,j1,0.1,0.1\n5,j1,j1,-1,0.1\n")
        trace = tmp_path / "trace.csv"
        trace.write_text("0,j1,j1,0.1,0.1\n3600000000,j3,j3,0.2,0.1\n")  # three 30-minute periods
        paths = {
            "missing": str(tmp_path / "nope.csv"), "cfg": str(cfg), "plain": str(plain), "rejected": str(rejected),
            "trace": str(trace), "obs": _obs_file(tmp_path / "obs.csv", 48, 24),
        }
        out = tmp_path / "out"
        assert main([arg.format(**paths) for arg in argv] + ["--out-dir", str(out)]) == code
        err = capsys.readouterr().err
        assert message.format(**paths) in err and "Traceback" not in err
        assert not out.exists()

    def test_store_too_large_is_usage_error_before_any_output(self, tmp_path, capsys):
        obs = _obs_file(tmp_path / "obs.csv", 24, 12)
        out = tmp_path / "out"
        argv = ["predict", "--train", obs, "--test", obs, "--pp-tps", "12", "--up-tps", "5",
                "--cycles", str(2**63 - 1), "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"a store of m=12 positions x l={2**63 - 1} cycles holds {12 * (2**63 - 1)} cells" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("present", [True, False], ids=["streams", "missing-streams"])
    def test_sweep_refuses_a_store_too_large_before_reading_the_streams(self, tmp_path, capsys, present):
        obs = _obs_file(tmp_path / "obs.csv", 24, 12) if present else str(tmp_path / "nope.csv")
        out = tmp_path / "out"
        argv = ["evaluate", "--train", obs, "--test", obs, "--pp-tps", "12", "--up-tps", "5",
                "--cycles", str(2**63 - 1), "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"a store of m=12 positions x l={2**63 - 1} cycles holds {12 * (2**63 - 1)} cells" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("present", [True, False], ids=["trace", "missing-trace"])
    def test_ingest_checks_its_settings_before_reading_the_trace(self, tmp_path, capsys, monkeypatch, present):
        trace = tmp_path / "trace.csv"
        if present:
            trace.write_text("0,j1,j1,0.1,0.1\n60000000,j2,j2,0.2,0.1\n")
        monkeypatch.setattr(cli, "parse_trace", None)  # the trace must not be read
        out = tmp_path / "out"
        assert main(["ingest", "--trace", str(trace), "--sub-bin-sec", "7", "--out-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "target period of 30min is not a whole number of 7s sub-bins" in err and "Traceback" not in err
        assert not out.exists()

    def test_ingest_refuses_a_period_past_int64_before_reading_the_trace(self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "trace.csv"
        trace.write_text("0,j1,j1,0.1,0.1\n60000000,j2,j2,0.2,0.1\n")
        monkeypatch.setattr(cli, "parse_trace", None)  # the trace must not be read
        out = tmp_path / "out"
        argv = ["ingest", "--trace", str(trace), "--tp-min", "1000000000000", "--sub-bin-sec", "60000000000000",
                "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "target period of 1000000000000min is 60000000000000000000us, not below 2**63us" in err
        assert "Traceback" not in err and not out.exists()

    def test_synth_trace_may_end_just_below_2_63_us(self, tmp_path):
        # Three periods of two sub-bins, ending 54,775,808 us below 2**63 us.
        tp_min = 2**63 // (3 * 60 * 10**6)
        out = str(tmp_path)
        assert main(["synth", "--out-dir", out, "--tp-min", str(tp_min), "--sub-bin-sec", str(tp_min * 30),
                     "--tps", "3", "--pp-tps", "3", "--base-rate", "2", "--seed", "5"]) == EXIT_OK
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        stamps = [int(row.split(",")[0]) for row in rows]
        assert stamps == sorted(stamps) and 0 <= stamps[0] and stamps[-1] < 3 * tp_min * 60 * 10**6
        assert main(["ingest", "--trace", f"{out}/trace.csv", "--header", "--out-dir", out, "--tp-min", str(tp_min),
                     "--sub-bin-sec", str(tp_min * 30), "--pp-tps", "3"]) == EXIT_OK
        observations = read_observations(tmp_path / "observations_arrivals.csv")
        assert len(observations) == 3 and observations.samples.sum() == len(rows)

    def test_synth_span_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        # As ingest's: at most _MAX_SPAN_SUB_BINS sub-bins, here four periods of 30.
        monkeypatch.setattr("cyclecast.trace._MAX_SPAN_SUB_BINS", 4 * 30)
        synth = ["synth", "--pp-tps", "4", "--base-rate", "2"]
        assert main([*synth, "--tps", "4", "--out-dir", str(tmp_path / "four")]) == EXIT_OK
        out = tmp_path / "five"
        assert main([*synth, "--tps", "5", "--out-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "5 periods of 30 sub-bins are 150 sub-bins, more than the 120 a span may hold" in err
        assert "Traceback" not in err and not out.exists()

    def test_records_tp_index_beyond_int64_is_data_error(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text(TWO_RECORDS.splitlines(keepends=True)[0] + "1,9223372036854775808,NA,1.0,none\n")
        out = tmp_path / "out"
        assert main(["evaluate", "--records", str(records), "--out-dir", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{records}:2: tp_index=9223372036854775808 is not below 2**63" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["synth", "--tps", "10", "--pp-tps", "5", "--seed", str(2**63)], "--seed"),
            (["ingest", "--trace", "{trace}", "--pp-tps", "{big}"], "--pp-tps"),
            (["ingest", "--trace", "{trace}", "--col-cpu", "{big}"], "--col-cpu"),
            (["predict", "--train", "{obs}", "--test", "{obs}", "--pp-tps", "{big}"], "--pp-tps"),
            (["predict", "--train", "{obs}", "--test", "{obs}", "--pp-tps", "4", "--up-tps", "2",
              "--bandwidth-k", "{big}"], "--bandwidth-k"),
            (["predict", "--train", "{obs}", "--test", "{obs}", "--config", "{cfg}"], "{cfg}:2: bandwidth_k="),
            (["evaluate", "--train", "{obs}", "--test", "{obs}", "--pp-tps", "4", "--up-tps", "2",
              "--bandwidth-grid", "5,{big}"], "--bandwidth-grid"),
            (["evaluate", "--records", "{records}", "--baselines", "--baseline-window", "{big}"], "--baseline-window"),
        ],
        ids=["synth", "ingest", "ingest-column", "predict", "predict-k", "predict-entry", "evaluate-grid",
             "evaluate-window"],
    )
    def test_integer_of_2_63_or_more_is_usage_error(self, tmp_path, capsys, argv, named):
        trace = tmp_path / "trace.csv"
        trace.write_text("0,j1,j1,0.1,0.1\n60000000,j2,j2,0.2,0.1\n")
        records = tmp_path / "records.csv"
        records.write_text(TWO_RECORDS)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pp_tps=4\nbandwidth_k={2**63}\nup_tps=2\n")
        paths = {"trace": trace, "records": records, "cfg": cfg, "obs": _obs_file(tmp_path / "obs.csv", 8, 4),
                 "big": str(10**20)}
        out = tmp_path / "out"
        try:
            code = main([arg.format(**paths) for arg in argv] + ["--out-dir", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert named.format(**paths) in err and "is not below 2**63" in err and "Traceback" not in err
        assert not out.exists()

    def test_count_beyond_int64_is_data_error_and_writes_nothing(self, tmp_path, capsys):
        # The arrivals aggregate; the cpu sum, 1e17 x 100, is not a count below 2**63.
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,job_id,task_id,cpu_request,mem_request\n0,j1,j1,1.0,0.5\n60000000,j1,j1,1e17,0.5\n")
        out = tmp_path / "out"
        argv = ["ingest", "--trace", str(trace), "--header", "--metric", "all", "--scale", "100", "--out-dir", str(out)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{trace}: scaled cpu sum 1e+19 of period 1 is not a count below 2**63 at --scale 100.0" in err
        assert "np.float64" not in err and "Traceback" not in err
        assert not out.exists()

    def test_records_mode_echoes_its_defaults(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text(TWO_RECORDS)
        assert main(["evaluate", "--records", str(records), "--out-dir", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "evaluate.manifest.json").read_text())
        assert manifest["config"] == {
            "mode": "records", "test_from_t": 1, "baselines": False, "baseline_window": 50,
        }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--base-rate", "--noise-sigma"])
    def test_non_finite_synth_rate_or_noise_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert main(["synth", "--tps", "2", f"{flag}={value}", "--out-dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} must be finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_synth_noise_whose_square_overflows_is_usage_error(self, tmp_path, capsys):
        # 2e154 squared overflows a double; a noise that large was a traceback and an empty --out-dir.
        out = tmp_path / "out"
        argv = ["synth", "--tps", "48", "--pp-tps", "24", "--noise-sigma", "2e154", "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "noise_sigma must be finite and nonnegative, at most about 1.34e154, got 2e+154" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("tps, rate", [("1", "1e300"), ("1000", "1e5")])
    def test_synth_beyond_the_event_bound_is_usage_error(self, tmp_path, capsys, tps, rate):
        out = tmp_path / "out"
        argv = ["synth", "--tps", tps, "--pp-tps", "1", "--base-rate", rate, "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"base_rate={float(rate)!r} over tps={tps} periods" in err and "Traceback" not in err
        assert not out.exists()

    def test_metric_mismatch_is_data_error(self, tmp_path, capsys):
        cpu = _obs_file(tmp_path / "cpu.csv", 4, 4, metric="cpu")
        arrivals = _obs_file(tmp_path / "arrivals.csv", 4, 4)
        window = ["--pp-tps", "4", "--up-tps", "2", "--out-dir", str(tmp_path)]
        for command in ("predict", "evaluate"):
            code = main([command, "--train", arrivals, "--test", cpu, *window])
            assert code == EXIT_DATA, command
            err = capsys.readouterr().err
            assert f"{cpu} carries metric 'cpu' with 60s sub-bins, 3 per period, at scale 100.0" in err
            assert f"but {arrivals} carries metric 'arrivals' with 60s sub-bins, 3 per period, at scale 100.0" in err
            assert "Traceback" not in err

    def test_out_of_order_stream_is_data_error(self, tmp_path, capsys):
        train = _obs_file(tmp_path / "train.csv", 4, 4)
        beyond = tmp_path / "beyond.csv"
        beyond.write_text(OBS_HEADER + "5,2,arrivals,60,100.0,1 2 3\n")
        gap = tmp_path / "gap.csv"
        gap.write_text(OBS_HEADER + "1,2,arrivals,60,100.0,1 2 3\n3,2,arrivals,60,100.0,1 2 3\n")
        window = ["--pp-tps", "4", "--up-tps", "2", "--out-dir", str(tmp_path)]
        for test, period in ((beyond, "tp_index=5 cycle_index=2"), (gap, "tp_index=3 cycle_index=2")):
            for command in ("predict", "evaluate"):
                code = main([command, "--train", train, "--test", str(test), *window])
                assert code == EXIT_DATA, (command, test)
                err = capsys.readouterr().err
                assert f"{test}: period {period} is out of order" in err
                assert "Traceback" not in err

    def test_non_finite_records_are_data_error(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text(
            "t,tp_index,predicted_lambda,actual_lambda,fallback_used\n"
            "1,1,NA,2.0,none\n2,2,nan,-5.0,none\n3,3,2.0,inf,none\n"
        )
        code = main(["evaluate", "--records", str(records), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"{records}:3: rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_records_out_of_step_order_are_data_error(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text(
            "t,tp_index,predicted_lambda,actual_lambda,fallback_used\n"
            "1,1,NA,2.0,none\n3,3,2.5,3.0,none\n2,2,2.0,2.0,none\n2,2,2.0,5.0,none\n"
        )
        code = main(["evaluate", "--records", str(records), "--baselines", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"{records}:3: step t=3 out of order: expected t=2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize(
        "rows",
        ["1,1,NA,2.0,none\n2,2,NA,2.0,none\n", "1,1,NA,2.0,none\n2,2,2.0,2.0,none\n"],
        ids=["warm-up-only", "one-retained"],
    )
    def test_bad_baseline_window_is_usage_error(self, tmp_path, capsys, rows):
        records = tmp_path / "records.csv"
        records.write_text("t,tp_index,predicted_lambda,actual_lambda,fallback_used\n" + rows)
        code = main([
            "evaluate", "--records", str(records), "--baselines", "--baseline-window", "0",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_USAGE
        assert "window must be a positive integer, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize(
        "rows, lineno, message",
        [
            # The rows that evaluate once scored with warmup_steps 2.
            ("1,-7,NA,2.0,none\n2,0,2.0,2.0,none\n3,99,3.0,2.0,none\n4,5,NA,2.0,none\n", 2, "tp_index=-7 is below 1"),
            ("1,1,NA,2.0,none\n2,2,2.0,2.0,none\n3,99,3.0,2.0,none\n", 4, "tp_index=99 follows tp_index=2"),
            ("1,1,NA,2.0,none\n2,2,2.0,2.0,none\n3,3,NA,2.0,none\n", 4, "NA prediction after a numeric one"),
            # tp_index 1, 2, 3, 1, 2, 1: the second wrap comes from 2, not 3.
            ("1,1,NA,2.0,none\n2,2,NA,2.0,none\n3,3,2.0,2.0,none\n4,1,2.0,2.0,none\n"
             "5,2,2.0,2.0,none\n6,1,2.0,2.0,none\n", 7, "wrap to 1 after tp_index=2"),
            # tp_index 1, 2, 3, 1, 2, 3, 4: past the length the first wrap set.
            ("1,1,NA,2.0,none\n2,2,NA,2.0,none\n3,3,2.0,2.0,none\n4,1,2.0,2.0,none\n"
             "5,2,2.0,2.0,none\n6,3,2.0,2.0,none\n7,4,2.0,2.0,none\n", 8, "tp_index=4 exceeds the pattern length 3"),
        ],
        ids=["below-one", "no-follow", "late-na", "wrap-lengths-differ", "past-the-length"],
    )
    def test_records_run_cannot_write_are_data_error(self, tmp_path, capsys, rows, lineno, message):
        records = tmp_path / "records.csv"
        records.write_text("t,tp_index,predicted_lambda,actual_lambda,fallback_used\n" + rows)
        code = main(["evaluate", "--records", str(records), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert f"{records}:{lineno}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("window, code", [(5000, EXIT_USAGE), (800, EXIT_OK)])
    def test_baseline_window_whose_weights_underflow_is_usage_error(self, tmp_path, capsys, window, code):
        # 700 records of a 336-period pattern, scored from step 673 on: a
        # 672-step history, where every Poisson(5000) mass underflows to zero.
        rows = "".join(
            f"{t},{(t - 1) % 336 + 1},{'NA' if t == 1 else 3.0},{2.0 + t % 5},none\n" for t in range(1, 701)
        )
        records = tmp_path / "records.csv"
        records.write_text("t,tp_index,predicted_lambda,actual_lambda,fallback_used\n" + rows)
        out = tmp_path / "out"
        assert main([
            "evaluate", "--records", str(records), "--test-from-t", "673", "--baselines",
            "--baseline-window", str(window), "--out-dir", str(out),
        ]) == code
        if code == EXIT_OK:
            (row,) = oracles.read_report_rows(out / "report.csv")
            assert row["improvement_vs_poisson_window_pct"] != ""
        else:
            assert "baseline window 5000" in capsys.readouterr().err
            assert not (out / "report.csv").exists()

    def test_start_sec_beyond_int64_offsets_is_usage_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,job_id,task_id,cpu_request,mem_request\n60000000,j1,j1,0.1,0.1\n")
        out = tmp_path / "out"
        ingest = ["ingest", "--trace", str(trace), "--header", "--out-dir", str(out)]
        code = main([*ingest, "--start-sec=-9223372036854"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and "--start-sec -9223372036854" in err and "outside int64" in err
        assert not (out / "observations_arrivals.csv").exists()
        # A negative start that fits prepends empty periods.
        assert main([*ingest, "--start-sec=-3600", "--pp-tps", "4"]) == EXIT_OK
        (first, _, last) = read_observations(out / "observations_arrivals.csv")
        assert sum(first.samples) == 0 and last.samples[1] == 1

    def test_event_at_the_end_of_int64_is_data_error(self, tmp_path, capsys):
        # The Google schema's "after the trace" timestamp implies a span whose
        # totals would take 1.12 TiB.
        out = str(tmp_path)
        synth = ["synth", "--out-dir", out, "--tps", "96", "--pp-tps", "24", "--base-rate", "2", "--seed", "7001"]
        assert main(synth) == EXIT_OK
        trace = tmp_path / "cut.csv"
        lines = (tmp_path / "trace.csv").read_text().splitlines(keepends=True)[:2000]
        trace.write_text("".join(lines) + "9223372036854775807,j1,j1,0.01,0.005\n")
        capsys.readouterr()
        code = main(["ingest", "--trace", str(trace), "--header", "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        periods = (2**63 - 1) // (30 * 60 * 10**6) + 1
        assert code == EXIT_DATA
        assert f"latest event, at timestamp 9223372036854775807, implies {periods} target periods" in err
        assert "from --start-sec 0:" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "observations_arrivals.csv").exists()

    def test_save_store_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--train", "t.csv", "--test", "u.csv", "--save-store", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "out").exists()

    def test_nonpositive_period_flags_are_usage_errors(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,job_id,task_id,cpu_request,mem_request\n0,j1,j1,0.1,0.1\n")
        for flag in (["--tp-min", "0"], ["--pp-tps", "0"]):
            code = main(["ingest", "--trace", str(trace), "--header", *flag, "--out-dir", str(tmp_path)])
            assert code == EXIT_USAGE, flag
            assert "Traceback" not in capsys.readouterr().err

    def test_bad_delimiter_is_usage_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("0,j1,j1,0.1,0.1\n")
        for delimiter in (";;", "", '"', "\r", "\n"):
            with pytest.raises(SystemExit) as exc:
                main(["ingest", "--trace", str(trace), "--delimiter", delimiter, "--out-dir", str(tmp_path)])
            assert exc.value.code == EXIT_USAGE, repr(delimiter)
            err = capsys.readouterr().err
            assert "--delimiter" in err and "Traceback" not in err

    def test_byte_order_mark_is_skipped(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(
            b"\xef\xbb\xbftimestamp,job_id,task_id,cpu_request,mem_request\n0,j1,j1,0.1,0.1\n"
        )
        for columns in ([], ["--col-ts", "timestamp", "--col-cpu", "cpu_request"]):
            out = tmp_path / str(len(columns))
            code = main(["ingest", "--trace", str(trace), "--header", *columns, "--out-dir", str(out)])
            assert code == EXIT_OK
            manifest = json.loads((out / "ingest.manifest.json").read_text())
            assert manifest["config"]["rejected_rows"] == 0
        headless = tmp_path / "headless.csv"
        headless.write_bytes(b"\xef\xbb\xbf0,j1,j1,0.1,0.1\n60000000,j2,j2,0.1,0.1\n")
        code = main(["ingest", "--trace", str(headless), "--out-dir", str(tmp_path / "headless")])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "headless" / "ingest.manifest.json").read_text())
        assert manifest["config"]["rejected_rows"] == 0

    def test_empty_first_line_is_not_the_header(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("\ntimestamp,job_id,task_id,cpu_request,mem_request\n0,j1,j1,0.1,0.1\n")
        for columns in ([], ["--col-ts", "timestamp"]):
            out = tmp_path / str(len(columns))
            code = main(["ingest", "--trace", str(trace), "--header", *columns, "--out-dir", str(out)])
            assert code == EXIT_OK, columns
            manifest = json.loads((out / "ingest.manifest.json").read_text())
            assert manifest["config"]["rejected_rows"] == 0

    def test_negative_column_index_is_usage_error(self, tmp_path, capsys):
        # On a ragged file a negative index would read a different column on each row.
        trace = tmp_path / "trace.csv"
        trace.write_text("0,j1,j1,0.1,0.1\n60000000,j2,0.2,0.1\n")
        for flags in (["--col-cpu", "-2", "--col-mem", "-1"], ["--col-ts", "-5"], ["--col-mem", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(["ingest", "--trace", str(trace), *flags, "--metric", "cpu", "--out-dir", str(tmp_path)])
            assert exc.value.code == EXIT_USAGE, flags
            err = capsys.readouterr().err
            assert "--col-" in err and "0 or more" in err and "Traceback" not in err
        assert not (tmp_path / "observations_cpu.csv").exists()

    def test_non_utf8_trace_is_data_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"0,j1,j1,0.1,0.1\n5,j\xe9,t,0.2,0.1\n")
        code = main(["ingest", "--trace", str(trace), "--out-dir", str(tmp_path)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{trace}: not UTF-8 text" in err and "Traceback" not in err

    @pytest.mark.parametrize("cpu", ["", "0.01"])
    def test_field_past_csv_limit_is_data_error(self, tmp_path, capsys, cpu):
        # A field longer than csv.field_size_limit() (131,072); the empty cpu
        # field keeps the file from the bulk reader even without the long line.
        rows = [f"{i * 1_000_000},j1,j1,0.01,0.005" for i in range(100)]
        rows[49] = f"5000000,{'x' * 200_000},j1,{cpu},0.005"
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,job_id,task_id,cpu_request,mem_request\n" + "".join(r + "\n" for r in rows))
        out = tmp_path / "out"
        code = main(["ingest", "--trace", str(trace), "--header", "--tp-min", "1", "--pp-tps", "2",
                     "--out-dir", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{trace}: line 51: field larger than field limit" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("metric, scale", [("arrivals", "nan"), ("cpu", "inf"), ("all", "-inf"),
                                               ("memory", "0"), ("arrivals", "-2.5"), ("cpu", "lots")])
    def test_bad_scale_is_usage_error(self, tmp_path, capsys, metric, scale):
        trace = tmp_path / "trace.csv"
        trace.write_text("0,j1,j1,0.1,0.1\n60000000,j2,j2,0.2,0.1\n")
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--trace", str(trace), "--metric", metric, f"--scale={scale}", "--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--scale" in err and "finite positive" in err and "Traceback" not in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scale={scale}\n")
        code = main(["ingest", "--trace", str(trace), "--metric", metric, "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "finite positive" in capsys.readouterr().err
        assert not list(tmp_path.glob("observations_*.csv"))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,1,arrivals,0,100.0,1 2", "at least 1 second"),
            ("2,1,arrivals,-60,100.0,1 2", "at least 1 second"),
            ("2,1,arrivals,60,nonsense,1 2", "finite positive"),
            ("2,1,arrivals,60,nan,1 2", "finite positive"),
            ("2,1,arrivals,60,100.0,3 9223372036854775808", "below 2**63"),
        ],
    )
    def test_observations_outside_the_invariants_are_data_errors(self, tmp_path, capsys, row, message):
        obs = tmp_path / "obs.csv"
        obs.write_text(OBS_HEADER + "1,1,arrivals,60,100.0,1 2\n" + row + "\n")
        window = ["--pp-tps", "4", "--up-tps", "2"]
        for argv in (
            ["fit", "--observations", str(obs)],
            ["predict", "--train", str(obs), "--test", str(obs), *window],
            ["evaluate", "--train", str(obs), "--test", str(obs), *window],
        ):
            assert main([*argv, "--out-dir", str(tmp_path / "out")]) == EXIT_DATA, argv
            err = capsys.readouterr().err
            assert f"{obs}:3: " in err and message in err and "Traceback" not in err
        assert not (tmp_path / "out" / "lambdas_arrivals.csv").exists()

    def test_sub_bin_mismatch_is_data_error(self, tmp_path, capsys):
        obs = _obs_file(tmp_path / "obs.csv", 8, 4)
        mixed = tmp_path / "mixed.csv"
        mixed.write_text(Path(obs).read_text().replace("1,2,arrivals,60,", "1,2,arrivals,30,"))
        window = ["--pp-tps", "4", "--up-tps", "2"]
        for command in ("predict", "evaluate"):
            out = tmp_path / command
            code = main([command, "--train", obs, "--test", str(mixed), *window, "--out-dir", str(out)])
            assert code == EXIT_DATA, command
            err = capsys.readouterr().err
            assert f"{mixed}:6: metric 'arrivals' with 30s sub-bins" in err
            assert "but the file began with metric 'arrivals' with 60s sub-bins" in err
            assert not out.exists()


class TestConfigFile:
    def test_file_applies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults for this experiment\npp-tps=24\nup-tps=6\nbandwidth-k=4\n")
        obs = tmp_path / "obs.csv"
        header = "tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n"
        rows = "".join(
            f"{i % 24 + 1},{i // 24 + 1},arrivals,60,100.0,3 4 5\n" for i in range(48)
        )
        obs.write_text(header + rows)
        out = tmp_path / "out"
        code = main([
            "predict", "--train", str(obs), "--test", str(obs), "--config", str(cfg),
            "--up-tps", "8", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        manifest = json.loads((out / "predict.manifest.json").read_text())
        assert manifest["config"]["pp_tps"] == 24      # from file
        assert manifest["config"]["up_tps"] == 8       # flag wins
        assert manifest["config"]["bandwidth_k"] == 4  # from file

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pp_tps=24\nup-tps=6\n", encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbfpp_tps")
        obs = _obs_file(tmp_path / "obs.csv", 48, 24)
        out = tmp_path / "out"
        code = main(["predict", "--train", obs, "--test", obs, "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "predict.manifest.json").read_text())
        assert (manifest["config"]["pp_tps"], manifest["config"]["up_tps"]) == (24, 6)

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            ("pp-tps=24\nup_tp = 10\n", 2, "unknown key 'up_tp'"),
            ("pp-tps=24\nup-tps=6\npp_tps=12\n", 3, "pp_tps given twice, first on line 1"),
            ("bandwidth-h=2.5\n# both modes\nbandwidth_k=4\n", 3,
             "bandwidth_k and bandwidth_h (line 1) are mutually exclusive"),
            ("pp-tps=24\nup_tps=abc\n", 2, "up_tps='abc': invalid literal for int()"),
            ("pp-tps=24\nbandwidth_h=-1\n", 2, "bandwidth_h='-1': fixed radius must be positive"),
            ("bandwidth_h=inf\n", 1, "bandwidth_h='inf': fixed radius must be positive and finite, got inf"),
        ],
        ids=["unknown-key", "twice", "both-bandwidths", "uncastable", "bad-bandwidth", "infinite-bandwidth"],
    )
    def test_bad_entries_are_usage_errors_naming_the_line(self, tmp_path, capsys, text, lineno, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        obs = _obs_file(tmp_path / "obs.csv", 48, 24)
        out = tmp_path / "out"
        code = main(["predict", "--train", obs, "--test", obs, "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cfg}:{lineno}: {message}" in err and "Traceback" not in err
        assert not (out / "predict.manifest.json").exists()

    @pytest.mark.parametrize(
        "command, text, lineno, message",
        [
            ("predict", "pp-tps=24\nkernel=tophat\n", 2, "kernel='tophat': 'tophat' is not a valid KernelFamily"),
            ("evaluate", "pp-tps=24\n\nkernel = Cosine\n", 3, "kernel='Cosine': 'cosine' is not a valid KernelFamily"),
            ("ingest", "metric=requests\n", 1, "metric='requests': 'requests' is not a valid MetricKind"),
            ("ingest", "# metrics\nmetric=arrivals,cpu\n", 2,
             "metric='arrivals,cpu': 'arrivals,cpu' is not a valid MetricKind"),
        ],
    )
    def test_unknown_kernel_or_metric_names_the_line(self, tmp_path, capsys, command, text, lineno, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        if command == "ingest":
            trace = tmp_path / "trace.csv"
            trace.write_text("0,j1,j1,0.1,0.1\n60000000,j2,j2,0.2,0.1\n")
            argv = ["ingest", "--trace", str(trace)]
        else:
            obs = _obs_file(tmp_path / "obs.csv", 48, 24)
            argv = [command, "--train", obs, "--test", obs, "--up-tps", "6"]
        code = main([*argv, "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{cfg}:{lineno}: {message}" in err and "Traceback" not in err
        assert not list(out.glob("*.manifest.json"))

    def test_one_file_with_metric_all_serves_every_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("metric=all\npp-tps=24\nup-tps=6\ncycles=2\nbandwidth-k=4\nsub-bin-sec=60\nseed=5\n")
        out = str(tmp_path)
        config = ["--config", str(cfg)]
        assert main(["synth", "--tps", "72", "--base-rate", "5", *config, "--out-dir", out]) == EXIT_OK
        ingest = ["ingest", "--trace", f"{out}/trace.csv", "--header", "--split-tp", "48", *config]
        assert main([*ingest, "--out-dir", out]) == EXIT_OK
        for metric in ("arrivals", "cpu", "memory"):
            streams = ["--train", f"{out}/observations_{metric}_train.csv",
                       "--test", f"{out}/observations_{metric}_test.csv", *config]
            assert main(["predict", *streams, "--out-dir", f"{out}/{metric}"]) == EXIT_OK, metric
            assert main(["evaluate", *streams, "--up-tps-grid", "3,6", "--out-dir", f"{out}/{metric}"]) == EXIT_OK
            for command in ("predict", "evaluate"):
                manifest = json.loads((tmp_path / metric / f"{command}.manifest.json").read_text())
                assert manifest["config"]["metric"] == metric, (metric, command)


# The settings each command reads; every other setting, and --config where it reads none, is refused.
SETTINGS = ["tp_min", "pp_tps", "up_tps", "cycles", "kernel", "bandwidth_k", "bandwidth_h",
            "metric", "sub_bin_sec", "scale", "seed"]
FORECAST = ["pp_tps", "up_tps", "cycles", "kernel", "bandwidth_k", "bandwidth_h"]
READS = {
    "synth": ["tp_min", "pp_tps", "sub_bin_sec", "seed"],
    "ingest": ["tp_min", "pp_tps", "sub_bin_sec", "metric", "scale"],
    "fit": [],
    "predict": FORECAST,
    "evaluate": FORECAST,
}
UNREAD = [
    (command, key)
    for command, reads in READS.items()
    for key in [*SETTINGS, "config"]
    if key not in reads and not (key == "config" and reads)
]

# Each command's flags, in the order its help lists them.
FLAGS = {
    "synth": "--tps --base-rate --daily-amp --weekly-amp --noise-sigma "
             "--tp-min --pp-tps --sub-bin-sec --seed --config --out-dir",
    "ingest": "--trace --col-ts --col-cpu --col-mem --delimiter --header --start-sec --split-tp "
              "--tp-min --pp-tps --sub-bin-sec --metric --scale --config --out-dir",
    "fit": "--observations --out-dir",
    "predict": "--train --test --pp-tps --up-tps --cycles --kernel --bandwidth-k --bandwidth-h "
               "--config --out-dir",
    "evaluate": "--records --test-from-t --train --test --up-tps-grid --bandwidth-grid --baselines "
                "--baseline-window --pp-tps --up-tps --cycles --kernel --bandwidth-k --bandwidth-h "
                "--config --out-dir",
}


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def _commands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestFlagSurface:
    def test_each_command_takes_only_its_flags(self):
        commands = _commands()
        assert set(commands) == set(FLAGS)
        for name, command in commands.items():
            flags = [opt for action in command._actions for opt in action.option_strings if opt not in ("-h", "--help")]
            assert flags == FLAGS[name].split(), name
        assert sum(len(flags.split()) for flags in FLAGS.values()) == 54

    @pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_setting_the_command_does_not_read_is_usage_error(self, tmp_path, capsys, command, key):
        trace = tmp_path / "trace.csv"
        trace.write_text("0,j1,j1,0.1,0.1\n60000000,j2,j2,0.2,0.1\n")
        obs = _obs_file(tmp_path / "obs.csv", 48, 24)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pp-tps=24\n")
        value = {
            "tp_min": "30", "pp_tps": "24", "up_tps": "8", "cycles": "2", "kernel": "gaussian",
            "bandwidth_k": "6", "bandwidth_h": "2.5", "metric": "arrivals", "sub_bin_sec": "60",
            "scale": "100", "seed": "9", "config": str(cfg),
        }[key]
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--tps", "2"],
            "ingest": ["ingest", "--trace", str(trace)],
            "fit": ["fit", "--observations", obs],
            "predict": ["predict", "--train", obs, "--test", obs],
            "evaluate": ["evaluate", "--train", obs, "--test", obs],
        }[command] + ["--out-dir", str(out)]
        build_parser().parse_args(argv)
        flag = f"--{key.replace('_', '-')}"
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists() and not list(tmp_path.rglob("*.manifest.json"))

    # Unambiguous prefixes of a flag of the command: each named a flag when
    # argparse's abbreviations were on, so each ran and exited 0.
    PREFIXES = [
        ["synth", "--tps", "2", "--pp-tps", "1", "--noise", "0.1"],
        ["synth", "--tps", "2", "--pp-tps", "1", "--base", "3"],
        ["ingest", "--trace", "{trace}", "--split", "1"],
        ["fit", "--obs", "{obs}"],
        ["predict", "--train", "{obs}", "--test", "{obs}", "--up", "8"],
        ["evaluate", "--records", "{records}", "--test-from", "2"],
        ["evaluate", "--train", "{obs}", "--test", "{obs}", "--up-tps-g", "4,8"],
    ]

    @pytest.mark.parametrize("argv", PREFIXES, ids=[" ".join(a[:1] + a[-2:-1]) for a in PREFIXES])
    def test_flag_prefix_is_usage_error(self, tmp_path, capsys, argv):
        trace = tmp_path / "trace.csv"
        trace.write_text("0,j1,j1,0.1,0.1\n60000000,j2,j2,0.2,0.1\n")
        records = tmp_path / "records.csv"
        records.write_text(TWO_RECORDS)
        paths = {"trace": str(trace), "obs": _obs_file(tmp_path / "obs.csv", 48, 24), "records": str(records)}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv] + ["--out-dir", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists() and not list(tmp_path.rglob("*.manifest.json"))

    def test_version_prefix_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--vers"])
        assert exc.value.code == EXIT_USAGE
        assert "cyclecast 0" not in capsys.readouterr().out


ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


class TestDocumentedCommandLines:
    """The command lines that the README shows and the benchmark runs parse; none is run."""

    def test_readme_command_lines_parse(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
        argvs = [shlex.split(line)[1:] for line in lines if line.startswith("cyclecast ")]
        assert len(argvs) == 7
        for argv in argvs:
            build_parser().parse_args(argv)

    def test_readme_settings_table_matches_the_parser(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("Each command takes a flag only for a setting it reads:\n\n", 1)[1].split("\n\n")[0]
        documented = {}
        for row in table.splitlines()[2:]:
            commands, settings = (cell.strip() for cell in row.strip("|").split("|"))
            for command in re.findall(r"`(\w+)`", commands):
                documented[command] = re.findall(r"`(--[\w-]+)`", settings)
        registered = {
            name: [opt for action in command._actions if action.dest in cli._SETTINGS for opt in action.option_strings]
            for name, command in _commands().items()
        }
        assert documented == registered

    @pytest.mark.parametrize("size", sorted(workloads.SIZES))
    @pytest.mark.parametrize("workload", ["readme", "long-sweep"])
    def test_benchmark_command_lines_parse(self, size, workload):
        p = workloads.SIZES[size][workload]
        commands = workloads.offline_commands(workload, p, workloads.HELD_OUT_SEEDS[workload], Path("out"))
        assert commands
        for _, argv in commands:
            build_parser().parse_args(argv)
