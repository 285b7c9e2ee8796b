"""The pair summary and claim rule of ``tools/bench_pairs.py``, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def _runs(walls, rss=50.0, failed_change=0):
    runs = []
    for pair, (parent, change) in enumerate(walls):
        for side, wall in (("parent", parent), ("change", change)):
            runs.append({
                "pair": pair, "order": len(runs) + 1, "side": side, "workload": "w", "seed": pair,
                "trace": 0, "attempted": 10, "failed": failed_change if side == "change" else 0,
                "wall_s": wall, "setup_s": 0.1, "peak_rss_mb": rss, "iterations": [10, 10, 10],
            })
    return runs


def test_summary_counts_wins_and_quartiles():
    walls = [(1.0, 0.5), (1.1, 0.6), (0.9, 1.0), (1.2, 0.55), (1.0, 0.5)]
    summary = bench_pairs.summarise(_runs(walls, failed_change=1), METRICS)["w"]
    wall = summary["wall_s"]
    assert wall["pairs"] == 5 and wall["change_wins"] == 4
    assert wall["parent_median"] == 1.0 and wall["change_median"] == 0.55
    assert wall["parent_quartiles"] == [1.0, 1.1]
    # Equal values are ties, which count for neither side.
    assert summary["peak_rss_mb"]["change_wins"] == 0
    assert summary["failed"] == {"parent": 0, "change": 5}


def test_summary_gives_each_sides_median_iterations_per_child():
    runs = _runs([(1.0, 0.5), (1.0, 0.5), (1.0, 0.5)])
    iterations = {"parent": [[16, 17, 16], [17, 17, 16], [16, 16, 18]],
                  "change": [[30, 34, 29], [35, 33, 31], [32, 30, 29]]}
    for r in runs:
        r["iterations"] = iterations[r["side"]][r["pair"]]
    summary = bench_pairs.summarise(runs, METRICS)["w"]
    assert summary["median_iterations_per_child"] == {"parent": 16, "change": 31}
    # A pair with a failed run is left out, as from the medians of the metrics.
    del runs[5]["wall_s"]
    summary = bench_pairs.summarise(runs, METRICS)["w"]
    assert summary["median_iterations_per_child"] == {"parent": 16.5, "change": 32}


def test_pair_with_a_failed_run_counts_as_run_and_not_won():
    runs = _runs([(1.0, 0.5), (1.0, 0.5)])
    del runs[3]["wall_s"]
    summary = bench_pairs.summarise(runs, METRICS)["w"]
    wall = summary["wall_s"]
    assert wall["pairs"] == 2 and wall["change_wins"] == 1 and summary["failed_runs"] == 1
    # Medians are over the complete pairs only.
    assert wall["change_median"] == 0.5 and summary["seeds"] == [0]


def test_failed_pairs_count_against_the_claim():
    # Nine clear wins in nine complete pairs, and one pair whose change run failed.
    runs = _runs([(1.0, 0.7)] * 9 + [(1.0, 0.7)])
    del runs[-1]["wall_s"]
    summary = bench_pairs.summarise(runs, METRICS)
    claim = bench_pairs.claim(summary, "w:wall_s:1.25", {"wall_s": "s"})
    assert claim["change_wins"] == "9/10" and claim["met"] is True
    del runs[-3]["wall_s"]
    summary = bench_pairs.summarise(runs, METRICS)
    claim = bench_pairs.claim(summary, "w:wall_s:1.25", {"wall_s": "s"})
    assert claim["change_wins"] == "8/10" and claim["met"] is False
    assert claim["seeds"] == list(range(8))


@pytest.mark.parametrize(
    "walls, met",
    [
        ([(1.0, 0.7)] * 9 + [(1.1, 0.7)], True),
        # Nine wins in ten, but a ratio of medians under 1.25.
        ([(1.0, 0.9)] * 9 + [(0.8, 0.9)], False),
        # A large ratio, but only eight wins in ten.
        ([(1.0, 0.5)] * 8 + [(0.4, 0.5)] * 2, False),
    ],
)
def test_claim_rule(walls, met):
    summary = bench_pairs.summarise(_runs(walls), METRICS)
    claim = bench_pairs.claim(summary, "w:wall_s:1.25", {"wall_s": "s"})
    assert claim["met"] is met
    assert claim["change_wins"] == f"{summary['w']['wall_s']['change_wins']}/10"
    assert "median_difference_s" in claim and "parent_iqr_s" in claim


@pytest.mark.parametrize(
    "walls, verdict",
    [
        # Medians 1.0 and 1.3: worse by 30%, over the 25% bound.
        ([(1.0, 1.3)] * 5, "regressed"),
        # A quiet parent (IQR 0) and a median 20% worse: within the bound.
        ([(1.0, 1.2)] * 5, "within bound"),
        # Parent IQR 0.4 of its median, over the bound, and runs that overlap.
        ([(0.8, 1.0), (0.8, 0.7), (1.0, 0.9), (1.2, 1.1), (1.2, 1.0)], "unresolved"),
        # The same noisy parent, but every change run beats every parent run.
        ([(0.8, 0.7), (0.8, 0.6), (1.0, 0.7), (1.2, 0.75), (1.2, 0.7)], "within bound"),
        # A noisy parent and a median worse by more than the bound: regressed first.
        ([(0.8, 1.3), (0.8, 1.3), (1.0, 1.3), (1.2, 1.3), (1.2, 1.3)], "regressed"),
    ],
    ids=["regressed", "quiet-within", "noisy-unresolved", "noisy-every-run-better", "noisy-regressed"],
)
def test_verdict_against_the_bound(walls, verdict):
    summary = bench_pairs.summarise(_runs(walls), METRICS)["w"]
    assert summary["wall_s"]["verdict"] == verdict
    assert summary["peak_rss_mb"]["verdict"] == "within bound"


def test_verdict_for_a_metric_where_higher_is_better():
    metric = {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1}
    assert bench_pairs.verdict([100.0, 100.0, 100.0], [85.0, 85.0, 85.0], metric) == "regressed"
    assert bench_pairs.verdict([100.0, 100.0, 100.0], [95.0, 95.0, 95.0], metric) == "within bound"
    assert bench_pairs.verdict([80.0, 100.0, 120.0], [100.0, 110.0, 90.0], metric) == "unresolved"
    assert bench_pairs.verdict([80.0, 100.0, 120.0], [121.0, 130.0, 125.0], metric) == "within bound"
