"""The benchmark's workloads, their output checks and their fingerprints.

Three workloads, each made only from the workload seed:

* ``readme``: the README's first five commands (synth, ingest, fit,
  predict, evaluate --records --baselines) on a 1008-period trace of about
  608k events. The event layers (synthetic, trace) dominate.
* ``long-sweep``: a 2016-period trace at base rate 1 (about 60k events),
  ingested for all three metrics, then predict, evaluate --records and the
  3x3 sweep with the Gaussian kernel. The forecaster/llr/store/evaluation
  layers dominate; the Gaussian kernel weights every point.
* ``online-p99``: one closed-loop caller making the provisioning decision
  per period in steady state: predict_step, poisson_quantile(lam, 0.99),
  observe_step, library only, no files.

Checks are of two kinds. Invariants hold for every seed (every command
exits 0, sample sums equal the events in the trace, one record per period
with one warm-up step, finite nonnegative predictions, reported MAPE equal
to the MAPE of the records, quantiles equal to scipy's). Fingerprints pin
the outputs of the seeds in ``reference.json``, recorded from the seed code:
integer content and fallback columns exactly, rates (as sums of blocks of
64) and MAPE to 1e-12 relative. Every failed check counts as a failed
operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from pathlib import Path

TP_MINUTES = 30
SUB_BIN_SECONDS = 60
SAMPLES_PER_TP = TP_MINUTES * 60 // SUB_BIN_SECONDS
PROVISION_P = 0.99
CPU_PER_EVENT = 0.01
REL_TOL = 1e-12

WORKLOADS = ("readme", "long-sweep", "online-p99")

# A seed per workload that no tuning of the benchmark or of a change used;
# re-check a claimed gain on it.
HELD_OUT_SEEDS = {"readme": 7001, "long-sweep": 7002, "online-p99": 7003}

SIZES = {
    "full": {
        "readme": {"tps": 1008, "pp_tps": 336, "base_rate": 20, "split": 672,
                   "up": 50, "cycles": 2, "k": 20},
        "long-sweep": {"tps": 2016, "pp_tps": 336, "base_rate": 1, "split": 1344,
                       "up": 50, "cycles": 2, "k": 20,
                       "up_grid": [12, 24, 50], "k_grid": [10, 20, 30]},
        "online-p99": {"pp_tps": 336, "warm": 1344, "steps": 1344, "base_rate": 2.0,
                       "scale": 5e4, "up": 50, "cycles": 4, "k": 20},
    },
    # Seconds-long versions of the same workloads for the benchmark's own test.
    "smoke": {
        "readme": {"tps": 96, "pp_tps": 24, "base_rate": 5, "split": 48,
                   "up": 12, "cycles": 2, "k": 10},
        "long-sweep": {"tps": 144, "pp_tps": 24, "base_rate": 1, "split": 96,
                       "up": 12, "cycles": 2, "k": 10,
                       "up_grid": [4, 8, 12], "k_grid": [5, 10, 15]},
        "online-p99": {"pp_tps": 24, "warm": 96, "steps": 96, "base_rate": 2.0,
                       "scale": 5e4, "up": 12, "cycles": 4, "k": 10},
    },
}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(size: str, workload: str, seed: int) -> dict | None:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(size, {}).get(workload, {}).get(str(seed))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def sketch(values, block: int = 64) -> list[float]:
    """Sums of consecutive blocks of ``block`` values.

    For nonnegative values each sum stays within REL_TOL when every value
    does, and a change of one value shows in its block's sum at REL_TOL
    once it exceeds about ``block * REL_TOL`` relative.
    """
    values = list(values)
    return [math.fsum(values[i:i + block]) for i in range(0, len(values), block)]


def close(a, b, floor: float = 0.0) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), floor)


class Problems:
    """Failed checks, keyed by the operation whose output failed them."""

    def __init__(self) -> None:
        self.by_op: dict[str, list[str]] = {}

    def expect(self, op: str, ok: bool, message: str) -> bool:
        if not ok:
            self.by_op.setdefault(op, []).append(message)
        return ok


# --------------------------------------------------------------------- offline


def offline_commands(workload: str, p: dict, seed: int, out: Path) -> list[tuple[str, list[str]]]:
    """(operation name, cyclecast argv) for one iteration of an offline workload."""
    o = str(out)
    pp = ["--pp-tps", str(p["pp_tps"])]
    train, test = f"{o}/observations_arrivals_train.csv", f"{o}/observations_arrivals_test.csv"
    records = ["--records", f"{o}/records.csv", "--test-from-t", str(p["split"] + 1), "--baselines"]
    synth = ["synth", "--out-dir", o, "--tps", str(p["tps"]), "--base-rate", str(p["base_rate"]),
             "--daily-amp", "0.4", "--weekly-amp", "0.2", "--noise-sigma", "0.1",
             "--seed", str(seed), *pp]
    ingest = ["ingest", "--trace", f"{o}/trace.csv", "--header", "--out-dir", o,
              "--split-tp", str(p["split"]), *pp]
    window = ["--up-tps", str(p["up"]), "--cycles", str(p["cycles"]), "--bandwidth-k", str(p["k"])]
    if workload == "readme":
        return [
            ("synth", synth),
            ("ingest", ingest),
            ("fit", ["fit", "--observations", test, "--out-dir", o]),
            ("predict", ["predict", "--train", train, "--test", test, *window, *pp, "--out-dir", o]),
            ("evaluate", ["evaluate", *records, "--out-dir", o]),
        ]
    gaussian = ["--kernel", "gaussian", "--cycles", str(p["cycles"]), *pp]
    return [
        ("synth", synth),
        ("ingest", [*ingest, "--metric", "all"]),
        ("predict", ["predict", "--train", train, "--test", test, *window, *gaussian,
                     "--out-dir", o]),
        # The sweep's baselines use each configuration's window length.
        ("evaluate", ["evaluate", *records, "--baseline-window", str(p["up"]), "--out-dir", o]),
        ("sweep", ["evaluate", "--train", train, "--test", test,
                   "--up-tps-grid", ",".join(map(str, p["up_grid"])),
                   "--bandwidth-grid", ",".join(map(str, p["k_grid"])),
                   *gaussian, "--baselines", "--out-dir", f"{o}/sweep"]),
    ]


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in fh if line.strip()]


def _float(text: str) -> float | None:
    return None if text in ("", "NA") else float(text)


def _observations(path: Path, first_period: int, count: int, p: dict, probs: Problems) -> list:
    """Parse an observations file; returns [tp_index, cycle_index, metric, samples] rows."""
    _, rows = _rows(path)
    probs.expect("ingest", len(rows) == count, f"{path.name}: {len(rows)} periods, expected {count}")
    parsed = []
    for i, row in enumerate(rows):
        tp, cycle, metric = int(row[0]), int(row[1]), row[2]
        samples = [int(s) for s in row[5].split()]
        period = first_period + i
        probs.expect(
            "ingest",
            (tp, cycle) == (period % p["pp_tps"] + 1, period // p["pp_tps"] + 1)
            and len(samples) == SAMPLES_PER_TP and min(samples) >= 0,
            f"{path.name}:{i + 2}: bad period stamp or samples",
        )
        parsed.append([tp, cycle, metric, samples])
    return parsed


def _mean(samples: list[int]) -> float:
    return math.fsum(samples) / len(samples)


def check_offline(workload: str, p: dict, out: Path, rcs: dict[str, int | None]) -> tuple[dict, Problems]:
    """Invariants of one offline iteration; returns (fingerprint, problems).

    A check that cannot even read its input counts against the operation
    that should have written it.
    """
    probs = Problems()
    fp: dict[str, dict] = {}
    for op, rc in rcs.items():
        probs.expect(op, rc == 0, f"{op} exited {rc}")
    tps, split = p["tps"], p["split"]

    op = "synth"
    try:
        with open(out / "trace.csv", "rb") as fh:
            events = sum(1 for _ in fh) - 1
        _, truth_rows = _rows(out / "truth.csv")
        truth = [float(r[1]) for r in truth_rows]
        probs.expect(op, len(truth) == tps and all(math.isfinite(v) and v > 0 for v in truth),
                     "truth.csv: wrong length or non-positive rate")
        fp[op] = {"exact": {"events": events}, "close": {"truth": sketch(truth)}}

        op = "ingest"
        metrics = ["arrivals"] if workload == "readme" else ["arrivals", "cpu", "memory"]
        obs = {}
        for metric in metrics:
            obs[metric] = (
                _observations(out / f"observations_{metric}_train.csv", 0, split, p, probs)
                + _observations(out / f"observations_{metric}_test.csv", split, tps - split, p, probs)
            )
        arrivals = obs["arrivals"]
        total = sum(sum(o[3]) for o in arrivals)
        probs.expect(op, total == events, f"arrival samples sum to {total}, trace has {events} events")
        fp[op] = {"exact": {"observations": digest(obs)}}

        if workload == "readme":
            op = "fit"
            _, lam_rows = _rows(out / "lambdas_arrivals.csv")
            test_obs = arrivals[split:]
            probs.expect(op, len(lam_rows) == len(test_obs), "lambdas_arrivals.csv: wrong length")
            lams = [float(r[4]) for r in lam_rows]
            for lam, row, o in zip(lams, lam_rows, test_obs):
                probs.expect(op, close(lam, _mean(o[3])) and row[5] == str(int(sum(o[3]) == 0)),
                             f"lambdas_arrivals.csv seq {row[0]}: not the sample mean")
            fp[op] = {"exact": {"empty": digest([r[5] for r in lam_rows])},
                      "close": {"lambdas": sketch(lams)}}

        op = "predict"
        _, rec_rows = _rows(out / "records.csv")
        probs.expect(op, len(rec_rows) == tps, f"records.csv: {len(rec_rows)} records for {tps} periods")
        predicted = [_float(r[2]) for r in rec_rows]
        actual = [float(r[3]) for r in rec_rows]
        for i, (row, o) in enumerate(zip(rec_rows, arrivals)):
            t = i + 1
            probs.expect(
                op,
                row[0] == str(t) and row[1] == str(i % p["pp_tps"] + 1)
                # One warm-up step: from t = 2 on the window (n >= 2) holds the previous period.
                and (predicted[i] is None) == (t == 1)
                and (predicted[i] is None or (math.isfinite(predicted[i]) and predicted[i] >= 0))
                and close(actual[i], _mean(o[3])) and row[4] != "",
                f"records.csv t={t}: bad stamp, warm-up, prediction or actual",
            )
        fp[op] = {
            "exact": {"records": digest([[r[0], r[1], r[2] == "NA", r[4]] for r in rec_rows])},
            "close": {"predicted": sketch(v for v in predicted if v is not None), "actual": sketch(actual)},
        }

        op = "evaluate"
        header, rep_rows = _rows(out / "report.csv")
        rep = dict(zip(header, rep_rows[0]))
        scored = [abs(pr - a) / a for pr, a in zip(predicted[split:], actual[split:])
                  if pr is not None and a > 0]
        probs.expect(
            op,
            len(rep_rows) == 1 and int(rep["retained"]) == len(scored)
            and int(rep["warmup_steps"]) == 0
            and close(float(rep["mape"]), math.fsum(scored) / len(scored)),
            "report.csv: MAPE or counts differ from the records",
        )
        report = _report_fingerprint([rep])
        fp[op] = report

        if workload == "long-sweep":
            op = "sweep"
            header, sweep_rows = _rows(out / "sweep" / "reports.csv")
            reps = [dict(zip(header, r)) for r in sweep_rows]
            expected = {f"up{u}-gaussian-k={k}" for u in p["up_grid"] for k in p["k_grid"]}
            probs.expect(op, {r["config_id"] for r in reps} == expected and len(reps) == len(expected),
                         "sweep/reports.csv: wrong configurations")
            probs.expect(op, all(int(r["retained"]) == len(scored) and math.isfinite(float(r["mape"]))
                                 for r in reps), "sweep/reports.csv: wrong retained count or MAPE")
            # The predict command's configuration is one of the grid points.
            same = [r for r in reps if r["config_id"] == f"up{p['up']}-gaussian-k={p['k']}"]
            grid_point = _report_fingerprint(same)
            probs.expect(op, len(same) == 1
                         and grid_point["exact"]["rows"][0][1:] == report["exact"]["rows"][0][1:]
                         and _fingerprint_close(grid_point, report),
                         "sweep/reports.csv: grid point differs from the evaluated records")
            fp[op] = _report_fingerprint(reps)
    except (OSError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        probs.expect(op, False, f"{op} output unreadable: {exc!r}")
    return fp, probs


def _report_fingerprint(reps: list[dict]) -> dict:
    return {
        "exact": {"rows": [[r["config_id"], r["retained"], r["skipped_zero_targets"], r["warmup_steps"]]
                           for r in reps]},
        "close": {"mape": [float(r["mape"]) for r in reps]},
        "close_pct": {"deltas": [_float(r[k]) for r in reps for k in
                                 ("improvement_vs_naive_pct", "improvement_vs_poisson_window_pct")]},
    }


def _fingerprint_close(got: dict, ref: dict) -> bool:
    for kind, floor in (("close", 0.0), ("close_pct", 100.0)):
        for key, ref_values in ref.get(kind, {}).items():
            values = got.get(kind, {}).get(key)
            if values is None or len(values) != len(ref_values):
                return False
            if not all(close(a, b, floor) for a, b in zip(values, ref_values)):
                return False
    return True


def compare_fingerprints(got: dict, ref: dict, probs: Problems, what: str) -> None:
    """Exact parts must be equal, float parts within REL_TOL."""
    for op, ref_fp in ref.items():
        fp = got.get(op, {})
        probs.expect(op, fp.get("exact") == ref_fp.get("exact"), f"{op}: integer output differs from {what}")
        probs.expect(op, _fingerprint_close(fp, ref_fp), f"{op}: rates or MAPE differ from {what}")


# ---------------------------------------------------------------------- online


def online_inputs(cyclecast, p: dict, seed: int) -> tuple[object, list, list]:
    """(config, warm-up observations, timed observations) for ``online-p99``.

    CPU-metric periods: per sub-bin a Poisson count of events at the cyclic
    intensity, times ``scale * CPU_PER_EVENT`` (the ingest rounding of
    per-event CPU requests), so the median rate is about 1000 at full size.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    pp = p["pp_tps"]
    per_event = p["scale"] * CPU_PER_EVENT
    observations = []
    for t in range(p["warm"] + p["steps"]):
        phase = (t % pp) / pp
        rate = p["base_rate"] * (1.0 + 0.2 * math.sin(2 * math.pi * phase)
                                 + 0.4 * math.sin(2 * math.pi * 7 * phase))
        rate *= math.exp(0.1 * rng.standard_normal() - 0.005)
        counts = rng.poisson(rate, size=SAMPLES_PER_TP)
        observations.append(cyclecast.PeriodObservation(
            tp_index=t % pp + 1,
            cycle_index=t // pp + 1,
            metric=cyclecast.MetricKind.CPU,
            samples=[int(math.floor(per_event * int(c) + 0.5)) for c in counts],
            sub_bin_seconds=SUB_BIN_SECONDS,
        ))
    cfg = cyclecast.ForecastConfig(
        pp_tps=pp, up_tps=p["up"], cycles=p["cycles"], kernel=cyclecast.KernelSpec(k=p["k"])
    )
    return cfg, observations[: p["warm"]], observations[p["warm"]:]


def warm_store(cyclecast, p: dict, warm: list):
    ds = cyclecast.new_dataset(p["pp_tps"], p["cycles"])
    for obs in warm:
        cyclecast.observe_step(ds, obs)
    return ds


def check_online_steps(lams: list, qs: list, failed: set[int]) -> None:
    """Per-step invariants; adds the index of each failing step to ``failed``."""
    for i, (lam, q) in enumerate(zip(lams, qs)):
        if not (isinstance(lam, numbers.Real) and math.isfinite(lam) and lam >= 0
                and isinstance(q, numbers.Integral) and q >= 0):
            failed.add(i)


def check_quantiles_scipy(lams: list, qs: list, failed: set[int]) -> None:
    """Compares each quantile with scipy.stats.poisson.ppf at PROVISION_P."""
    import numpy as np
    from scipy.stats import poisson

    lam = np.asarray(lams, dtype=float)
    positive = lam > 0
    expected = np.zeros(len(lams))
    expected[positive] = poisson.ppf(PROVISION_P, lam[positive])
    for i, (q, e) in enumerate(zip(qs, expected)):
        if q != e:
            failed.add(i)


def online_fingerprint(lams: list, fallbacks: list, qs: list) -> dict:
    return {"step": {"exact": {"quantiles": digest([int(q) for q in qs]), "fallbacks": digest(fallbacks)},
                     "close": {"lambdas": sketch(float(v) for v in lams)}}}
