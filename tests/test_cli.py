import json

from cyclecast.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from cyclecast.evaluation import read_report_rows
from cyclecast.forecaster import read_records
from cyclecast.store import restore
from cyclecast.trace import read_observations


OBS_HEADER = "tp_index,cycle_index,metric,sub_bin_seconds,scale,samples\n"


def _obs_file(path, periods, pp_tps, metric="arrivals"):
    """An observations file of ``periods`` consecutive 60 s-sub-bin periods with varying counts."""
    rows = "".join(
        f"{i % pp_tps + 1},{i // pp_tps + 1},{metric},60,100.0,"
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
            "--save-store",
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
            "records.csv", "store.snapshot", "report.csv", "errors.csv",
        } <= names
        assert {
            "synth.manifest.json", "ingest.manifest.json", "fit.manifest.json",
            "predict.manifest.json", "evaluate.manifest.json",
        } <= names
        records = read_records(tmp_path / "records.csv")
        assert len(records) == 96
        store = restore((tmp_path / "store.snapshot").read_text())
        assert store.m == 24 and store.populated == 48
        rows = read_report_rows(tmp_path / "report.csv")
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
        assert manifest["outputs"] == ["records.csv", "store.snapshot"]
        # Only settings the run uses or checks against the data are echoed.
        assert manifest["config"]["metric"] == "arrivals"
        assert manifest["config"]["sub_bin_seconds"] == 60
        assert "tp_minutes" not in manifest["config"] and "scale" not in manifest["config"]

    def test_sweep_mode(self, tmp_path):
        _run_pipeline(tmp_path)
        code = main([
            "evaluate", "--train", str(tmp_path / "observations_arrivals_train.csv"),
            "--test", str(tmp_path / "observations_arrivals_test.csv"),
            "--pp-tps", "24", "--cycles", "2", "--up-tps-grid", "4,8",
            "--bandwidth-grid", "4,6", "--baselines", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        rows = read_report_rows(tmp_path / "reports.csv")
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
        rows = read_report_rows(tmp_path / "reports.csv")
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
            "--bandwidth-k", "4", "--metric", "cpu",
        ]) == EXIT_OK
        records = read_records(tmp_path / "records.csv")
        assert len(records) == 48
        assert all(r.predicted is None or r.predicted >= 0 for r in records)


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

    def test_metric_mismatch_is_data_error(self, tmp_path, capsys):
        cpu = _obs_file(tmp_path / "cpu.csv", 4, 4, metric="cpu")
        arrivals = _obs_file(tmp_path / "arrivals.csv", 4, 4)
        window = ["--pp-tps", "4", "--up-tps", "2", "--out-dir", str(tmp_path)]
        for train, test in [(cpu, cpu), (arrivals, cpu)]:
            for command in ("predict", "evaluate"):
                code = main([command, "--train", train, "--test", test, *window])
                assert code == EXIT_DATA, (command, train, test)
                err = capsys.readouterr().err
                assert f"{cpu}: period tp_index=1 cycle_index=1 carries metric 'cpu'" in err
                assert "Traceback" not in err

    def test_sub_bin_mismatch_is_data_error(self, tmp_path, capsys):
        obs = _obs_file(tmp_path / "obs.csv", 8, 4)
        window = ["--pp-tps", "4", "--up-tps", "2", "--out-dir", str(tmp_path)]
        for sub_bin in ("30", "7"):
            for command in ("predict", "evaluate"):
                code = main([command, "--train", obs, "--test", obs, "--sub-bin-sec", sub_bin, *window])
                assert code == EXIT_DATA, (command, sub_bin)
                assert "with 60s sub-bins" in capsys.readouterr().err


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
