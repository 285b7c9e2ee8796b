"""Benchmark a change against its parent commit in alternating pairs.

    python3 tools/bench_pairs.py --parent 799f313 --out BENCH_8.json \
        --pairs long-sweep=1,2,3,4,5,6,7,8,9,7002 --pairs readme=1,2,3,4,7001 \
        --pairs online-p99=1,2,3,4,7003 --traced long-sweep=2 \
        --claim long-sweep:wall_s:1.25

Exports ``src/``, ``perfbench/`` and ``BENCHMARK.json`` of the parent commit,
and of the change (the working tree), into fresh directories under
``--work-dir``. Each pair then runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once in each directory, N being ``run_seconds`` from ``BENCHMARK.json``: the
parent first in even pairs and the change first in odd ones. ``--traced W=S`` adds one ``--trace 1`` pair for the per-layer
metrics. The result file holds what was run (``what``), ``parent_commit``,
the ``machine``, the ``claim`` (if one is named), a ``summary`` per workload
and end-to-end metric (pairs, change wins, medians and quartiles, and a
``verdict`` against the metric's bound in ``BENCHMARK.json``), the
traced per-layer metrics of each side, and every run in ``runs``. A pair
with a failed run counts as run and not won; medians and quartiles are over
the pairs whose two runs both succeeded, whose seeds the summary lists.
Each run also records its children's timed ``iterations`` and ``rss_mb``,
and the summary gives each side's median iterations per child: a faster
loop runs more iterations in the same seconds, and the worker keeps check
data per iteration, so a ``peak_rss_mb`` move is read against them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPORTED = ("src", "perfbench", "BENCHMARK.json")


def export(commit: str | None, dest: Path) -> None:
    """The benchmark's inputs from ``commit``, or from the working tree if None."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if commit is None:
        for name in EXPORTED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work"))
            else:
                shutil.copy2(src, dest / name)
        return
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit, *EXPORTED], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        # The "data" filter exists from Python 3.10.12 and 3.11.4 on.
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    if proc.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {commit} failed")


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its result line, plus the machine line before it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode}
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _workload_seeds(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition("=")
    return workload, [int(s) for s in seeds.split(",") if s.strip()]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def verdict(parent: list[float], change: list[float], metric: dict) -> str:
    """``metric`` against its bound, from the runs of the complete pairs.

    ``regressed`` if the change's median is worse than the parent's by more
    than the bound (a fraction of the parent's median); else ``unresolved``
    if the parent's IQR over its median exceeds the bound, unless every
    change run reads better than every parent run; else ``within bound``.
    """
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    parent_median = statistics.median(parent)
    if sign * (statistics.median(change) - parent_median) > metric["bound"] * abs(parent_median):
        return "regressed"
    q1, q3 = _quartiles(parent)
    every_run_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > metric["bound"] * abs(parent_median) and not every_run_better:
        return "unresolved"
    return "within bound"


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric: every pair run, and wins, medians, quartiles and
    the verdict over the pairs whose two runs both succeeded."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == 0:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        both = [p for p in pairs.values() if all("wall_s" in p.get(s, {}) for s in ("parent", "change"))]
        summary[workload] = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["parent"][name] for p in both]
            change = [p["change"][name] for p in both]
            if not both:
                continue
            wins = sum((c < q) if lower else (c > q) for q, c in zip(parent, change))
            summary[workload][name] = {
                "pairs": len(pairs),
                "change_wins": wins,
                "parent_median": statistics.median(parent),
                "parent_quartiles": _quartiles(parent),
                "change_median": statistics.median(change),
                "change_quartiles": _quartiles(change),
                "change_over_parent": statistics.median(change) / statistics.median(parent),
                "verdict": verdict(parent, change, metric),
            }
        summary[workload]["failed"] = {
            side: sum(r.get("failed", 0) for p in pairs.values() for s, r in p.items() if s == side)
            for side in ("parent", "change")
        }
        summary[workload]["failed_runs"] = sum("wall_s" not in r for p in pairs.values() for r in p.values())
        summary[workload]["seeds"] = [p["parent"]["seed"] for p in both]
        if both:
            summary[workload]["median_iterations_per_child"] = {
                side: statistics.median(n for p in both for n in p[side]["iterations"])
                for side in ("parent", "change")
            }
    return summary


def claim(summary: dict, spec: str, units: dict[str, str]) -> dict:
    """Whether ``workload:metric:ratio`` holds: the ratio of medians, 9 in 10 pairs run won, and a gap over the parent IQR."""
    workload, metric, ratio = spec.split(":")
    unit = units[metric]
    s = summary[workload][metric]
    gap = abs(s["parent_median"] - s["change_median"])
    iqr = s["parent_quartiles"][1] - s["parent_quartiles"][0]
    parent_over_change = s["parent_median"] / s["change_median"]
    return {
        "metric": f"{workload} {metric}",
        "target": f"parent median over change median >= {ratio}, change wins >= 9 of 10 pairs run, "
                  "median difference > parent IQR",
        "seeds": summary[workload]["seeds"],
        "parent_over_change": parent_over_change,
        "change_wins": f"{s['change_wins']}/{s['pairs']}",
        f"median_difference_{unit}": gap,
        f"parent_iqr_{unit}": iqr,
        "met": parent_over_change >= float(ratio) and s["change_wins"] >= 0.9 * s["pairs"] and gap > iqr,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--out", type=Path, required=True, help="result file, e.g. BENCH_8.json")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=SEEDS",
                    help="one untraced pair per seed; repeat per workload")
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD=SEED",
                    help="one traced pair, recording the per-layer metrics")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC:RATIO", help="the claimed gain to check")
    ap.add_argument("--work-dir", type=Path, default=ROOT / ".bench_pairs", help="where checkouts go")
    args = ap.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(benchmark["run_seconds"])
    parent_commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                                   stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    checkouts = {"parent": args.work_dir / "parent", "change": args.work_dir / "change"}
    export(parent_commit, checkouts["parent"])
    export(None, checkouts["change"])

    plan = [(w, s, 0) for spec in args.pairs for w, seeds in [_workload_seeds(spec)] for s in seeds]
    plan += [(w, s, 1) for spec in args.traced for w, seeds in [_workload_seeds(spec)] for s in seeds]
    runs: list[dict] = []
    machine = None
    for pair, (workload, seed, trace) in enumerate(plan):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            out = bench(checkouts[side], workload, seed, seconds, trace)
            run = {"pair": pair, "order": len(runs) + 1, "side": side, "workload": workload,
                   "seed": seed, "trace": trace}
            if "result" not in out:
                run["exit"] = out["exit"]
            else:
                result = out["result"]
                machine = machine or out["info"]["machine"]
                children = out["info"]["children"]
                run.update(attempted=result["attempted"], failed=result["failed"],
                           iterations=[len(c["walls"]) for c in children],
                           rss_mb=[c["rss_mb"] for c in children])
                values = {k: v["value"] for k, v in result["metrics"].items()}
                if trace:
                    run["per_layer"] = values
                else:
                    run.update(values)
            runs.append(run)
            print(json.dumps(run), file=sys.stderr, flush=True)

    command = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
    summary = summarise(runs, benchmark["end_to_end"])
    doc = {
        "what": (
            f"Alternating pairs of benchmark runs, parent commit against this change, each run `{command}` "
            "from a fresh export of that commit's `src/`, `perfbench/` and `BENCHMARK.json`. Pair i runs the "
            "parent first when i is even and the change first when i is odd; `order` is the global run order. "
            "Traced pairs (`--trace 1`) give the per-layer metrics."
        ),
        "parent_commit": parent_commit,
        "machine": machine,
        "claim": claim(summary, args.claim, {m["name"]: m["unit"] for m in benchmark["end_to_end"]})
        if args.claim else None,
        "summary": summary,
    }
    for r in runs:
        if r["trace"] and r["side"] == "parent":
            twin = next((c for c in runs if c["pair"] == r["pair"] and c["side"] == "change"), {})
            layers = r.get("per_layer", {})
            doc[f"traced_{r['workload'].replace('-', '_')}_seed_{r['seed']}"] = {
                name: {"parent": v, "change": twin.get("per_layer", {}).get(name)}
                for name, v in layers.items()
                if v or twin.get("per_layer", {}).get(name)
            }
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    shutil.rmtree(args.work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
