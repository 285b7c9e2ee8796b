"""Command-line interface: reproducible ingest/fit/predict/evaluate/synth runs.

Every command writes its outputs plus a run manifest (the resolved
configuration, sha256 digests of the inputs, and the output names) so a run
can be reproduced and diffed byte-for-byte. File paths inside manifests are
recorded by name only; reruns into different directories stay identical.

Exit codes: 0 on success, 2 for usage or configuration problems, 1 for data
problems (missing or malformed files).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .evaluation import (
    config_id,
    evaluate_records,
    sweep,
    write_plot_data,
    write_reports,
)
from .forecaster import ForecastConfig, read_records, run, write_records
from .llr import KernelFamily, KernelSpec
from .poisson import poisson_mle_rows
from .synthetic import RNG_NAME, SyntheticSpec, generate, write_truth
from .trace import (
    _INT64_LIMIT,
    US_PER_SECOND,
    ColumnMapping,
    MetricKind,
    Observations,
    _check_scale,
    _CountTooLarge,
    _span_geometry,
    _SpanTooLarge,
    _units_text,
    aggregate_span,
    parse_trace,
    read_observations,
    span_tps,
    write_observations,
    write_trace,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


class _Setting(NamedTuple):
    """A setting that commands may take as a flag and a config file may hold."""

    type: Callable[[str], Any]  # parses the flag
    default: Any
    help: str
    cast: Callable[[Any], Any] | None = None  # of the flag, a file value or the default; None means ``type``
    choices: tuple[str, ...] | None = None


def _int(value: str | int) -> int:
    """An integer setting. The pipeline keeps integers as int64, so 2**63 and more are refused."""
    try:
        number = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if number >= _INT64_LIMIT:
        raise argparse.ArgumentTypeError(f"{number} is not below 2**63")
    return number


def _scale(value: str | float) -> float:
    try:
        return _check_scale(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _metric_list(value: str) -> list[MetricKind]:
    if value == "all":
        return [MetricKind.ARRIVALS, MetricKind.CPU, MetricKind.MEMORY]
    return [MetricKind(value)]


_SETTINGS: dict[str, _Setting] = {
    "tp_min": _Setting(_int, 30, "target-period length in minutes"),
    "pp_tps": _Setting(_int, 336, "target periods per pattern period"),
    "up_tps": _Setting(_int, 50, "utilization-window length in target periods"),
    "cycles": _Setting(_int, 4, "pattern-period cycles kept in the store"),
    "kernel": _Setting(
        str, "epanechnikov", "kernel family",
        cast=lambda v: KernelFamily(v.lower()), choices=tuple(f.value for f in KernelFamily),
    ),
    # KernelSpec checks a bandwidth, so a bad file entry is named with its line.
    "bandwidth_k": _Setting(_int, 20, "k-nearest bandwidth", cast=lambda v: KernelSpec(k=_int(v)).k),
    "bandwidth_h": _Setting(
        float, None, "fixed-radius bandwidth; give it or --bandwidth-k, not both",
        cast=lambda v: KernelSpec(h=float(v)).h,
    ),
    "metric": _Setting(str, "arrivals", "arrivals, cpu, memory or all", cast=_metric_list),
    "sub_bin_sec": _Setting(_int, 60, "sample sub-bin width in seconds"),
    "scale": _Setting(_scale, 100.0, "count scale for cpu/memory requests"),
    "seed": _Setting(_int, 0, "random seed"),
}

# The settings the forecaster reads: predict's, and the evaluate sweep's.
_FORECAST_SETTINGS = ("pp_tps", "up_tps", "cycles", "kernel", "bandwidth_k", "bandwidth_h")


class DataError(Exception):
    """Unreadable or malformed data files (exit code 1)."""


def _read_config_file(path: str) -> dict[str, tuple[str, int]]:
    """Each ``key=value`` entry of a config file, as ``key: (value, line)``.

    Keys take ``-`` or ``_``; a byte order mark is dropped. Refuses, naming
    the file and line, a line without ``=``, a key that is not a setting, a
    key given twice, and ``bandwidth_h`` beside ``bandwidth_k``.
    """
    values: dict[str, tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip().replace("-", "_")
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; the keys are {', '.join(_SETTINGS)}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: {key} given twice, first on line {values[key][1]}")
            other = {"bandwidth_h": "bandwidth_k", "bandwidth_k": "bandwidth_h"}.get(key)
            if other in values:
                raise ValueError(f"{path}:{lineno}: {key} and {other} (line {values[other][1]}) are mutually exclusive")
            values[key] = (value.strip(), lineno)
    return values


class _Resolver:
    """Merge layer: command-line flag > config file entry > built-in default.

    ``get`` reads only settings the command registers as flags; the file
    may hold any setting.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.file_values = _read_config_file(args.config) if args.config else {}

    def get(self, key: str):
        """The flag for ``key``, else its file entry, else its default, through the table's cast."""
        setting = _SETTINGS[key]
        cast = setting.cast or setting.type
        flag = getattr(self.args, key)
        if flag is not None or key not in self.file_values:
            return cast(flag if flag is not None else setting.default)
        text, lineno = self.file_values[key]
        try:
            return cast(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{self.args.config}:{lineno}: {key}={text!r}: {exc}") from None

    def kernel_spec(self) -> KernelSpec:
        """The kernel; a fixed radius, by flag or else by file entry, takes the place of ``k``."""
        family = self.get("kernel")
        if self.args.bandwidth_h is not None or (
            self.args.bandwidth_k is None and "bandwidth_h" in self.file_values
        ):
            return KernelSpec(family=family, h=self.get("bandwidth_h"))
        return KernelSpec(family=family, k=self.get("bandwidth_k"))

    def forecast_config(self, up_tps: int | None = None) -> ForecastConfig:
        """The forecaster settings; ``up_tps`` stands in for --up-tps (a sweep grid value)."""
        return ForecastConfig(
            pp_tps=self.get("pp_tps"),
            up_tps=self.get("up_tps") if up_tps is None else up_tps,
            cycles=self.get("cycles"),
            kernel=self.kernel_spec(),
        )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)  # reused, so hashing a trace adds one small buffer to peak memory
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            digest.update(memoryview(buffer)[:size])
    return digest.hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict[str, object],
    inputs: Sequence[Path],
    outputs: Sequence[str],
    seed: int | None,
) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": [{"name": p.name, "sha256": _sha256(p)} for p in inputs],
        "outputs": sorted(outputs),
        "seed": seed,
        "version": __version__,
    }
    path = out_dir / f"{command}.manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _column(value: str) -> int | str:
    try:
        index = int(value)
    except ValueError:
        return value
    # A negative index counts from the end of each row, so on a ragged file
    # it would read a different column on each row.
    if index < 0:
        raise argparse.ArgumentTypeError(f"column index must be 0 or more, got {index}")
    if index >= _INT64_LIMIT:
        raise argparse.ArgumentTypeError(f"column index {index} is not below 2**63")
    return index


def _delimiter(value: str) -> str:
    try:
        return ColumnMapping(delimiter=value).delimiter
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _data_read(fn, *fnargs):
    try:
        return fn(*fnargs)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _check_units(path: str, obs: Observations, first_path: str, first: Observations) -> None:
    """Refuse, naming both files, a stream ``obs`` whose units are not those of ``first``."""
    if len(obs) and len(first) and obs._units != first._units:
        raise DataError(
            f"{path} carries {_units_text(*obs._units)}, but {first_path} carries {_units_text(*first._units)}"
        )


def _read_streams(train_path: str, test_path: str, pp_tps: int) -> tuple[Observations, Observations, dict]:
    """Read the train and test streams as one run's input, and the units they carry.

    Each file holds one unit set, its metric, sub-bin width and scale; those
    of the two files must agree, and come back as the manifests echo them
    (``None`` when neither file has a period). Rejects any period out of
    place, naming the first: the forecaster consumes pattern positions
    1..pp_tps in turn.
    """
    train, test = (_data_read(read_observations, path) for path in (train_path, test_path))
    _check_units(test_path, test, train_path, train)
    step = 0
    for path, obs in ((train_path, train), (test_path, test)):
        position = (step + np.arange(len(obs))) % pp_tps + 1
        bad = np.flatnonzero(obs.tp_index != position)
        if len(bad):
            i = bad[0]
            raise DataError(
                f"{path}: period tp_index={obs.tp_index[i]} cycle_index={obs.cycle_index[i]} is out of order: "
                f"the stream is at position {position[i]} of a {pp_tps}-period pattern"
            )
        step += len(obs)
    metric, sub_bin_seconds, scale = (train if len(train) else test)._units
    units = {"metric": metric and metric.value, "sub_bin_seconds": sub_bin_seconds, "scale": scale}
    return train, test, units


def cmd_synth(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    seed = res.get("seed")
    spec = SyntheticSpec(
        pp_tps=res.get("pp_tps"),
        tps=args.tps,
        base_rate=args.base_rate,
        daily_amplitude=args.daily_amp,
        weekly_amplitude=args.weekly_amp,
        noise_sigma=args.noise_sigma,
        seed=seed,
        tp_minutes=res.get("tp_min"),
        sub_bin_seconds=res.get("sub_bin_sec"),
    )
    events, truths = generate(spec)
    out = _out_dir(args)
    write_trace(out / "trace.csv", events, spec.tp_minutes)
    write_truth(out / "truth.csv", truths)
    _write_manifest(
        out,
        "synth",
        {k: v for k, v in asdict(spec).items() if k != "seed"} | {"rng": RNG_NAME},  # seed is top level
        inputs=[],
        outputs=["trace.csv", "truth.csv"],
        seed=seed,
    )
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    metrics = res.get("metric")
    tp_min = res.get("tp_min")
    pp_tps = res.get("pp_tps")
    sub_bin_sec = res.get("sub_bin_sec")
    scale = res.get("scale")
    mapping = ColumnMapping(
        timestamp=args.col_ts,
        cpu=args.col_cpu,
        mem=args.col_mem,
        delimiter=args.delimiter,
        has_header=args.header,
    )
    _span_geometry(tp_min, sub_bin_sec)  # refused settings exit before the trace is read

    try:
        parsed = parse_trace(args.trace, mapping)
    except UnicodeDecodeError as exc:
        raise DataError(f"{args.trace}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        raise DataError(f"{args.trace}: {exc}") from exc
    if not parsed.events:
        raise DataError(f"{args.trace}: no usable events ({parsed.rejected} rows rejected)")
    start_us = US_PER_SECOND * args.start_sec
    try:
        num_tps = span_tps(parsed.events, start_us, tp_min)
    except ValueError as exc:
        raise ValueError(f"--start-sec {args.start_sec} with --tp-min {tp_min}: {exc}") from None
    if num_tps == 0:
        raise DataError(f"{args.trace}: no events at or after start offset {args.start_sec}s")

    # Every metric is aggregated before any file is written, so a refused
    # metric leaves no output behind.
    parts: dict[str, Observations] = {}
    for metric in metrics:
        try:
            observations = aggregate_span(
                parsed.events, start_us, num_tps, tp_min, pp_tps, metric, sub_bin_sec, scale
            )
        except _SpanTooLarge as exc:
            last = int(parsed.events.timestamp.max())
            raise DataError(
                f"{args.trace}: the latest event, at timestamp {last}, implies {num_tps} target periods "
                f"of {tp_min}min from --start-sec {args.start_sec}: {exc}"
            ) from None
        except _CountTooLarge as exc:
            raise DataError(f"{args.trace}: {exc} at --scale {scale!r}") from None
        if args.split_tp is not None:
            if not 1 <= args.split_tp < len(observations):
                raise ValueError(
                    f"--split-tp {args.split_tp} outside [1, {len(observations) - 1}] "
                    f"for a {len(observations)}-period span"
                )
            parts[f"observations_{metric.value}_train.csv"] = observations[: args.split_tp]
            parts[f"observations_{metric.value}_test.csv"] = observations[args.split_tp :]
        else:
            parts[f"observations_{metric.value}.csv"] = observations
    out = _out_dir(args)
    for name, obs in parts.items():
        write_observations(out / name, obs)

    print(f"parsed {len(parsed.events)} events ({parsed.rejected} rejected), {num_tps} target periods")
    _write_manifest(
        out,
        "ingest",
        {
            "tp_minutes": tp_min,
            "pp_tps": pp_tps,
            "sub_bin_seconds": sub_bin_sec,
            "scale": scale,
            "metrics": [m.value for m in metrics],
            "start_sec": args.start_sec,
            "split_tp": args.split_tp,
            "delimiter": mapping.delimiter,
            "has_header": mapping.has_header,
            "columns": {
                "timestamp": mapping.timestamp,
                "cpu": mapping.cpu,
                "mem": mapping.mem,
            },
            "rejected_rows": parsed.rejected,
        },
        inputs=[Path(args.trace)],
        outputs=list(parts),
        seed=None,
    )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    # Per metric, its files in the order given: one rate file each, in one set of units.
    groups: dict[MetricKind, list[tuple[str, Observations]]] = {}
    for path in args.observations:
        obs = _data_read(read_observations, path)
        if len(obs):
            group = groups.setdefault(obs.metric, [])
            if group:
                _check_units(path, obs, *group[0])
            group.append((path, obs))
    out = _out_dir(args)
    outputs = []
    for metric, group in groups.items():
        stream = Observations.concat([obs for _, obs in group])
        rates = poisson_mle_rows(stream.samples, stream.counts)
        name = f"lambdas_{metric.value}.csv"
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("seq,tp_index,cycle_index,metric,lambda,empty\n")
            # A sum of counts is 0, and so is their mean, only if every count is.
            fh.writelines(
                f"{seq},{tp},{cycle},{metric.value},{rate!r},{int(rate == 0)}\n"
                for seq, tp, cycle, rate in zip(
                    range(1, len(stream) + 1), stream.tp_index.tolist(), stream.cycle_index.tolist(), rates.tolist()
                )
            )
        outputs.append(name)
    _write_manifest(
        out,
        "fit",
        {"metrics": sorted(m.value for m in groups)},
        inputs=[Path(p) for p in args.observations],
        outputs=outputs,
        seed=None,
    )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    cfg = res.forecast_config()
    ds = cfg.new_store()  # a store too large is refused before any stream is read
    train, test, units = _read_streams(args.train, args.test, cfg.pp_tps)
    out = _out_dir(args)
    records = run(Observations.concat([train, test]), cfg, ds)
    write_records(out / "records.csv", records)
    _write_manifest(
        out,
        "predict",
        _config_echo(cfg) | units | {"train_tps": len(train), "test_tps": len(test)},
        inputs=[Path(args.train), Path(args.test)],
        outputs=["records.csv"],
        seed=None,
    )
    return EXIT_OK


def _config_echo(cfg: ForecastConfig) -> dict[str, object]:
    return {
        "pp_tps": cfg.pp_tps,
        "up_tps": cfg.up_tps,
        "cycles": cfg.cycles,
        "kernel": cfg.kernel.family.value,
        "bandwidth_k": cfg.kernel.k,
        "bandwidth_h": cfg.kernel.h,
    }


def _int_grid(text: str, what: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ValueError(f"{what} is empty")
    if max(values) >= _INT64_LIMIT:
        raise ValueError(f"{what} lists {max(values)}, which is not below 2**63")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ValueError(f"{what} lists {repeated} more than once")
    return values


def _given(args: argparse.Namespace, *keys: str) -> str:
    """The flags among ``keys`` that the command line gave, as it spells them."""
    return ", ".join(f"--{key.replace('_', '-')}" for key in keys if getattr(args, key) is not None)


def cmd_evaluate(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    if args.records is not None:
        if args.train or args.test:
            raise ValueError("--records and --train/--test are mutually exclusive")
        if sweep_flags := _given(args, *_FORECAST_SETTINGS, "up_tps_grid", "bandwidth_grid"):
            raise ValueError(f"{sweep_flags}: --records scores a finished run, so it takes no sweep flags")
        if args.baseline_window is not None and not args.baselines:
            raise ValueError("--baseline-window sets the window of --baselines, which is not given")
        test_from_t = 1 if args.test_from_t is None else args.test_from_t
        if test_from_t < 1:
            raise ValueError(f"--test-from-t {test_from_t} is below 1, the first step")
        baseline_window = 50 if args.baseline_window is None else args.baseline_window
        records = _data_read(read_records, args.records)
        if test_from_t > len(records):
            raise ValueError(f"--test-from-t {test_from_t} is past the last step of {args.records}, "
                             f"which holds {len(records)} steps")
        report = evaluate_records(records, test_from_t, "records", baseline_window if args.baselines else None)
        out = _out_dir(args)
        write_reports(out / "report.csv", [report])
        with open(out / "errors.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("seq,absolute_percentage_error\n")
            for seq, err in enumerate(report.errors, start=1):
                fh.write(f"{seq},{err!r}\n")
        _write_manifest(
            out,
            "evaluate",
            {
                "mode": "records",
                "test_from_t": test_from_t,
                "baselines": args.baselines,
                "baseline_window": baseline_window,
            },
            inputs=[Path(args.records)],
            outputs=["report.csv", "errors.csv"],
            seed=None,
        )
        return EXIT_OK

    if not (args.train and args.test):
        raise ValueError("evaluate needs either --records or both --train and --test")
    if records_flags := _given(args, "test_from_t", "baseline_window"):
        raise ValueError(f"{records_flags}: a sweep scores every test step, so these apply to --records only")
    kernel = res.kernel_spec()
    up_grid = (
        _int_grid(args.up_tps_grid, "--up-tps-grid")
        if args.up_tps_grid
        else [res.get("up_tps")]
    )
    if args.bandwidth_grid:
        if kernel.h is not None:
            raise ValueError("--bandwidth-grid sweeps k-nearest bandwidths and cannot take a fixed radius")
        kernels = [replace(kernel, k=k) for k in _int_grid(args.bandwidth_grid, "--bandwidth-grid")]
    else:
        kernels = [kernel]
    configs = [replace(res.forecast_config(up), kernel=kern) for up in up_grid for kern in kernels]
    configs[0].new_store()  # every configuration shares the store's size: refuse it before any stream is read
    train, test, units = _read_streams(args.train, args.test, configs[0].pp_tps)
    if not len(test):
        raise DataError(f"{args.test}: no period to score")
    reports = sweep(configs, train, test, with_baselines=args.baselines)
    out = _out_dir(args)
    write_reports(out / "reports.csv", reports)
    write_plot_data(out / "sweep_mape.csv", reports)
    _write_manifest(
        out,
        "evaluate",
        {
            "mode": "sweep",
            "up_tps_grid": up_grid,
            "bandwidth_grid": [kern.k if kern.h is None else kern.h for kern in kernels],
            "kernel": kernel.family.value,
            **units,
            "pp_tps": configs[0].pp_tps,
            "cycles": configs[0].cycles,
            "baselines": args.baselines,
            "configs": [config_id(c) for c in configs],
        },
        inputs=[Path(args.train), Path(args.test)],
        outputs=["reports.csv", "sweep_mape.csv"],
        seed=None,
    )
    return EXIT_OK


def _add_run_flags(p: argparse.ArgumentParser, keys: Sequence[str]) -> None:
    """Flags for the settings ``keys``, ``--config`` if there are any, and ``--out-dir``."""
    bandwidth = p.add_mutually_exclusive_group() if "bandwidth_k" in keys else p
    for key in keys:
        setting = _SETTINGS[key]
        default = "" if setting.default is None else f" (default {setting.default})"
        (bandwidth if key.startswith("bandwidth_") else p).add_argument(
            f"--{key.replace('_', '-')}", type=setting.type, choices=setting.choices,
            help=setting.help + default,
        )
    if keys:
        p.add_argument("--config", help="key=value config file of any settings; flags override it")
    p.add_argument("--out-dir", required=True, help="directory for outputs and the run manifest")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process and shared by every caller, so no caller may add to it.
    # Flags must be spelled in full: a prefix would keep a renamed flag answering to its old name.
    parser = argparse.ArgumentParser(
        prog="cyclecast",
        description="Cyclic-window workload forecasting: rate fitting, prediction, evaluation.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"cyclecast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("synth", help="generate a seeded synthetic trace with known rates")
    p.add_argument("--tps", type=int, default=1008, help="total target periods to generate")
    p.add_argument("--base-rate", type=float, default=20.0, help="base events per sub-bin")
    p.add_argument("--daily-amp", type=float, default=0.4, help="daily modulation amplitude [0,1)")
    p.add_argument("--weekly-amp", type=float, default=0.2, help="weekly modulation amplitude [0,1)")
    p.add_argument("--noise-sigma", type=float, default=0.0, help="lognormal noise sigma per period")
    _add_run_flags(p, ("tp_min", "pp_tps", "sub_bin_sec", "seed"))
    p.set_defaults(func=cmd_synth)

    p = add_parser("ingest", help="parse a trace and aggregate per-period observations")
    p.add_argument("--trace", required=True, help="delimited trace file")
    p.add_argument("--col-ts", type=_column, default=0, help="timestamp column (index or header name)")
    p.add_argument("--col-cpu", type=_column, default=3, help="cpu request column (index or header name)")
    p.add_argument("--col-mem", type=_column, default=4, help="memory request column (index or header name)")
    p.add_argument("--delimiter", type=_delimiter, default=",", help="field delimiter (default comma)")
    p.add_argument("--header", action="store_true", help="first row is a header")
    p.add_argument("--start-sec", type=int, default=0, help="aggregation start offset in seconds")
    p.add_argument("--split-tp", type=int, help="split observations into train/test after this period")
    _add_run_flags(p, ("tp_min", "pp_tps", "sub_bin_sec", "metric", "scale"))
    p.set_defaults(func=cmd_ingest)

    p = add_parser("fit", help="fit per-period rates from observation files")
    p.add_argument("--observations", nargs="+", required=True, help="observation files")
    _add_run_flags(p, ())
    p.set_defaults(func=cmd_fit)

    p = add_parser("predict", help="run the cyclic-window forecaster over train+test streams")
    p.add_argument("--train", required=True, help="training observations file")
    p.add_argument("--test", required=True, help="test observations file")
    _add_run_flags(p, _FORECAST_SETTINGS)
    p.set_defaults(func=cmd_predict)

    p = add_parser("evaluate", help="score prediction records, or sweep configurations")
    p.add_argument("--records", help="prediction records file (single-run mode)")
    p.add_argument("--test-from-t", type=int, help="first step counted as test (records mode; default 1)")
    p.add_argument("--train", help="training observations file (sweep mode)")
    p.add_argument("--test", help="test observations file (sweep mode)")
    p.add_argument("--up-tps-grid", help="comma-separated utilization-window lengths to sweep")
    p.add_argument("--bandwidth-grid", help="comma-separated k-nearest bandwidths to sweep")
    p.add_argument("--baselines", action="store_true", help="include baseline comparator deltas")
    p.add_argument("--baseline-window", type=_int, help="window of the --baselines (records mode; default 50)")
    _add_run_flags(p, _FORECAST_SETTINGS)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"cyclecast: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"cyclecast: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"cyclecast: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
