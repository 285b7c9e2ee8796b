"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
values next to each criterion.
"""

import math
import time
from pathlib import Path

import numpy as np

from cyclecast.evaluation import evaluate_records, sweep
from cyclecast.forecaster import ForecastConfig, run
from cyclecast.llr import Fallback, KernelFamily, KernelSpec, llr_apply, llr_plan
from cyclecast.poisson import poisson_mle, poisson_quantile
from cyclecast.store import new_dataset
from cyclecast.synthetic import SyntheticSpec, generate
from cyclecast.trace import MetricKind, aggregate_span
from cyclecast.cli import EXIT_OK, main as cli_main

import oracles
from pipeline_util import GOLDEN_FILES, run_reference_pipeline

GOLDEN_DIR = Path(__file__).parent / "golden"

ALL_FAMILIES = [KernelFamily.EPANECHNIKOV, KernelFamily.BIWEIGHT, KernelFamily.GAUSSIAN]


def _announce(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_mle_correctness():
    rng = np.random.default_rng(1001)
    vectors = [
        [int(v) for v in rng.integers(0, 1000, size=int(rng.integers(1, 80)))]
        for _ in range(1000)
    ]
    start = time.perf_counter()
    worst = 0.0
    for samples in vectors:
        got = poisson_mle(samples)
        expected = oracles.exact_mean(samples)
        if expected == 0:
            assert got == 0.0
        else:
            rel = abs(got - expected) / expected
            worst = max(worst, rel)
            assert rel <= 1e-12
        if got > 0:
            ll_hat = oracles.log_likelihood(samples, got)
            assert ll_hat >= oracles.log_likelihood(samples, got * 1.01)
            assert ll_hat >= oracles.log_likelihood(samples, got * 0.99)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(
        "mle-correctness",
        f"1000 vectors, worst relative error {worst:.2e}, stationarity held, {elapsed:.2f}s",
    )


def test_llr_exactness():
    start = time.perf_counter()

    # Affine reproduction across every kernel family and both bandwidth modes.
    slope, intercept = -2.25, 7.0
    xs = [float(x) for x in range(14)]
    line = [slope * x + intercept for x in xs]
    for family in ALL_FAMILIES:
        for spec in (KernelSpec(family=family, h=5.0), KernelSpec(family=family, k=6)):
            for x_u in (0.0, 3.5, 9.0, 13.0, 14.0):
                expected = slope * x_u + intercept
                got = llr_apply(llr_plan(xs, x_u, spec), line)
                assert abs(got - expected) < 1e-9, (family, spec, x_u)

    # Oracle equivalence on 500 random primary-path instances.
    rng = np.random.default_rng(2002)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 2000, "random instance generation stalled"
        n = int(rng.integers(5, 51))
        xs = np.sort(rng.uniform(0, 25, size=n))
        ys = rng.uniform(-10, 30, size=n)
        pts = list(zip(xs.tolist(), ys.tolist()))
        family = ALL_FAMILIES[int(rng.integers(0, 3))]
        if rng.integers(0, 2):
            spec = KernelSpec(family=family, h=float(rng.uniform(4, 15)))
        else:
            spec = KernelSpec(family=family, k=int(rng.integers(3, n + 1)))
        x_u = float(rng.uniform(0, 25))
        if spec.k is not None:
            h = oracles.knearest_bandwidth(x_u, xs.tolist(), spec.k)
            if h == 0:
                continue
        else:
            h = float(spec.h)
        plan = llr_plan(xs.tolist(), x_u, spec)
        if plan.fallback is not Fallback.NONE:
            continue
        expected = oracles.llr_normal_equations(pts, x_u, family.value, h, dps=40)
        err = abs(llr_apply(plan, ys) - expected)
        worst = max(worst, err)
        assert err <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(
        "llr-exactness",
        f"affine suite exact, {checked} oracle instances, worst |err| {worst:.2e}, {elapsed:.2f}s",
    )


def test_cyclic_store_law():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    for m in (1, 7, 336):
        for l in (1, 4):
            ds = new_dataset(m, l)
            # Independent replay of the cursor walk.
            p, w = 1, 1
            reference: dict[tuple[int, int], float] = {}
            n_updates = 10 * m * l
            for step in range(n_updates):
                value = float(rng.uniform(0, 100))
                ds.update(value)
                reference[(p, w)] = value
                if p < m:
                    p += 1
                else:
                    p = 1
                    w = w + 1 if w < l else 1
                assert (ds.p, ds.w) == (p, w)
                assert oracles.store_populated(ds) == min(step + 1, m * l)
            assert ds.t == n_updates + 1
            # Overwrite-oldest: cells hold exactly the reference's last writes.
            for position in range(1, m + 1):
                for cycle in range(1, l + 1):
                    assert oracles.store_get(ds, position, cycle) == reference.get((position, cycle))
            # Wrap-around windows for every cursor position: row i of the
            # window holds the replay's cells at the i-th of its n positions.
            for n in {1, max(1, m // 2), m}:
                for _ in range(m):
                    value = float(rng.uniform(0, 100))
                    ds.update(value)
                    reference[(p, w)] = value
                    p, w = (p + 1, w) if p < m else (1, w % l + 1)
                    positions = [(p - n + i) % m + 1 for i in range(n)]
                    expected = [[reference[(pos, c)] for c in range(1, l + 1)] for pos in positions]
                    block, empty = ds.window_cells(n)
                    assert not empty.any() and block.tolist() == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(
        "cyclic-store-law",
        f"m in (1,7,336) x l in (1,4), cursor walk + overwrite + wrap verified, {elapsed:.2f}s",
    )


def test_poisson_quantile_exact():
    checked = 0
    for lam in (0.1, 1.0, 2.0, 10.0, 100.0):
        for p in (0.5, 0.9, 0.99):
            assert poisson_quantile(lam, p) == oracles.quantile_bruteforce(lam, p)
            checked += 1
    _announce("poisson-quantile", f"{checked} (rate, p) pairs match brute-force CDF summation")


# Regression bounds below were recorded from the first run of this fixture
# (cyclic 0.09916, naive +25.88%, window +39.59%) and hold headroom for
# platform drift.
RECOVERY_MAPE_BOUND = 0.11
RECOVERY_NAIVE_MARGIN = 18.0
RECOVERY_WINDOW_MARGIN = 30.0


def test_synthetic_recovery_beats_baselines():
    start = time.perf_counter()
    spec = SyntheticSpec(
        pp_tps=336,
        tps=1008,
        base_rate=20.0,
        daily_amplitude=0.4,
        weekly_amplitude=0.2,
        noise_sigma=0.1,
        seed=42,
    )
    events, _ = generate(spec)
    observations = aggregate_span(
        events, 0, spec.tps, spec.tp_minutes, spec.pp_tps, MetricKind.ARRIVALS, spec.sub_bin_seconds
    )
    cfg = ForecastConfig(up_tps=50, cycles=2, kernel=KernelSpec(k=20))
    records = run(observations, cfg)
    report = evaluate_records(
        records, test_from_t=673, cid="recovery", baseline_window=50
    )
    elapsed = time.perf_counter() - start

    assert math.isfinite(report.mape)
    assert report.baseline_deltas["naive"] > 0.0
    assert report.baseline_deltas["poisson_window"] > 0.0
    assert report.mape <= RECOVERY_MAPE_BOUND
    assert report.baseline_deltas["naive"] >= RECOVERY_NAIVE_MARGIN
    assert report.baseline_deltas["poisson_window"] >= RECOVERY_WINDOW_MARGIN
    assert elapsed < 60.0
    _announce(
        "synthetic-recovery",
        f"mape {report.mape:.4f}, vs naive +{report.baseline_deltas['naive']:.1f}%, "
        f"vs window +{report.baseline_deltas['poisson_window']:.1f}%, {elapsed:.1f}s",
    )


def test_longer_window_not_worse_on_periodic_trace():
    spec = SyntheticSpec(
        pp_tps=336,
        tps=1008,
        base_rate=4.0,
        daily_amplitude=0.3,
        weekly_amplitude=0.15,
        noise_sigma=0.0,
        seed=42,
    )
    events, _ = generate(spec)
    observations = aggregate_span(
        events, 0, spec.tps, spec.tp_minutes, spec.pp_tps, MetricKind.ARRIVALS, spec.sub_bin_seconds
    )
    configs = [
        ForecastConfig(up_tps=up, cycles=2, kernel=KernelSpec(k=20)) for up in (6, 50)
    ]
    reports = sweep(configs, observations[:672], observations[672:])
    short, long_ = reports[0], reports[1]
    assert short.up_tps == 6 and long_.up_tps == 50
    assert long_.mape <= short.mape
    _announce(
        "longer-window-benefit",
        f"mape(up=50) {long_.mape:.4f} <= mape(up=6) {short.mape:.4f}",
    )


def _google_layout_rows(path: Path) -> int:
    """Write a cluster-format extract: 13 columns, ts/cpu/mem at 0/9/10."""
    spec = SyntheticSpec(pp_tps=12, tps=36, base_rate=5.0, noise_sigma=0.05, seed=8)
    events, _ = generate(spec)
    tp_us = spec.tp_minutes * 60 * 1_000_000
    columns = zip(events.timestamp.tolist(), events.cpu.tolist(), events.mem.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (ts, cpu, mem) in enumerate(columns):
            row = [
                str(ts), "", f"j{ts // tp_us + 1}", str(i), f"m{i % 11}", "0", "user", "2",
                "4", repr(cpu), repr(mem), "0.001", "0",
            ]
            fh.write(",".join(row) + "\n")
    return len(events)


def test_cluster_format_extract_full_pipeline(tmp_path):
    trace = tmp_path / "extract.csv"
    n_events = _google_layout_rows(trace)
    out = tmp_path / "out"

    code = cli_main([
        "ingest", "--trace", str(trace), "--out-dir", str(out),
        "--col-ts", "0", "--col-cpu", "9", "--col-mem", "10",
        "--pp-tps", "12", "--metric", "all", "--split-tp", "24",
    ])
    assert code == EXIT_OK
    for metric in ("arrivals", "cpu", "memory"):
        assert (out / f"observations_{metric}_train.csv").exists()

    code = cli_main([
        "fit", "--observations", str(out / "observations_arrivals_test.csv"),
        str(out / "observations_cpu_test.csv"), "--out-dir", str(out),
    ])
    assert code == EXIT_OK

    code = cli_main([
        "evaluate", "--train", str(out / "observations_arrivals_train.csv"),
        "--test", str(out / "observations_arrivals_test.csv"),
        "--pp-tps", "12", "--cycles", "2", "--up-tps-grid", "3,6",
        "--bandwidth-grid", "4,8", "--baselines", "--out-dir", str(out),
    ])
    assert code == EXIT_OK

    rows = oracles.read_report_rows(out / "reports.csv")
    assert len(rows) == 4
    for row in rows:
        assert math.isfinite(float(row["mape"]))
        assert row["improvement_vs_naive_pct"] != ""
        assert row["improvement_vs_poisson_window_pct"] != ""
    plot = (out / "sweep_mape.csv").read_text().splitlines()
    assert plot[0] == "up_tps,bandwidth,mape" and len(plot) == 5
    _announce(
        "cluster-format-pipeline",
        f"{n_events} extract rows through ingest/fit/evaluate; "
        f"4-cell window x bandwidth table with baseline deltas emitted",
    )


def test_golden_outputs_locked(tmp_path):
    assert GOLDEN_DIR.is_dir(), "golden snapshot missing; run tests/make_golden.py"
    work = tmp_path / "run"
    run_reference_pipeline(work)
    mismatches = []
    for name in GOLDEN_FILES:
        got = (work / name).read_bytes()
        want = (GOLDEN_DIR / name).read_bytes()
        if got != want:
            mismatches.append(name)
    assert not mismatches, f"outputs drifted from golden snapshot: {mismatches}"
    _announce("golden-outputs", f"{len(GOLDEN_FILES)} pipeline outputs byte-match the snapshot")


def test_pipeline_determinism(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_reference_pipeline(first)
    run_reference_pipeline(second)
    names = sorted(str(p.relative_to(first)) for p in first.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(second)) for p in second.rglob("*") if p.is_file())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    _announce("determinism", f"two pipeline runs produced {len(names)} byte-identical files")
