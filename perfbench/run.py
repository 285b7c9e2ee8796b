"""cyclecast benchmark: one run of one workload, result as a JSON line.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 36 --trace 0

Run from a checkout; cyclecast is imported from its ``src/``. A run starts
``CHILDREN`` fresh interpreters in turn, one thread of BLAS/OpenMP each.
Each gets an equal share of what is left of ``--seconds`` for timed
iterations, and runs at least one. A child's set-up time runs from its
start to ``ready``: interpreter, imports and inputs.

``--trace 0`` prints the end-to-end metrics:
  wall_s       median time of one timed iteration
  setup_s      median set-up time of the children
  peak_rss_mb  median peak resident set of the children

``--trace 1`` runs the middle child untraced and the others with every
layer wrapped (see tracing.py), and prints the per-layer metrics: the
median over traced iterations of each layer's per-iteration value; the
per-command times and online step latencies of the untraced child; and
``tracing.overhead_s``, traced minus untraced median ``wall_s``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the machine, each child and any failed checks.
``--size smoke`` runs the same workloads, seconds long, for
``check_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracing import COUNTERS, SPAN_METRICS

ROOT = Path(__file__).resolve().parent.parent
CHILDREN = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
COMMANDS = ("synth", "ingest", "fit", "predict", "evaluate", "sweep")


def per_layer_names() -> list[str]:
    names = [f"{span}.{f}" for span, fields in SPAN_METRICS.items() for f in fields]
    names += COUNTERS + ["llr.llr_fit.fallback_ratio"]
    names += [f"cli.{c}.wall_s" for c in COMMANDS]
    names += ["online.step_p50_ms", "online.step_p99_ms", "tracing.overhead_s"]
    return names


class ChildFailed(Exception):
    pass


def run_child(args, traced: int, budget: float, work: Path, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--budget", repr(budget),
           "--trace", str(traced), "--size", args.size, "--work-dir", str(work)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0 or not lines:
        raise ChildFailed(f"worker exited {code} ({'after' if ready else 'before'} set-up)")
    child = json.loads(lines[-1])
    child["setup_s"] = setup_s
    child["traced"] = traced
    return child


def main() -> int:
    ap = argparse.ArgumentParser(description="cyclecast benchmark run")
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(wl.SIZES), default="full")
    args = ap.parse_args()

    if not (ROOT / "src" / "cyclecast" / "__init__.py").is_file():
        print(f"perfbench: no cyclecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    modes = [1, 0, 1] if args.trace else [0] * CHILDREN
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    children = []
    try:
        for i, traced in enumerate(modes):
            budget = (args.seconds - sum(c["timed_s"] for c in children)) / (len(modes) - i)
            children.append(run_child(args, traced, budget, work / f"child{i}", deadline))
    except ChildFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def walls(traced: int) -> list[float]:
        return [it["wall_s"] for c in children if c["traced"] == traced for it in c["iterations"]]

    if args.trace:
        traced_its = [it for c in children if c["traced"] for it in c["iterations"]]
        plain_its = [it for c in children if not c["traced"] for it in c["iterations"]]
        values = {name: statistics.median(it["layers"][name] for it in traced_its)
                  for name in per_layer_names() if name in traced_its[0]["layers"]}
        for c in COMMANDS:
            values[f"cli.{c}.wall_s"] = statistics.median(it["ops"].get(c, 0.0) for it in plain_its)
        for q in ("p50", "p99"):
            values[f"online.step_{q}_ms"] = statistics.median(it.get(f"step_{q}_ms", 0.0) for it in plain_its)
        values["tracing.overhead_s"] = statistics.median(walls(1)) - statistics.median(walls(0))
        units = {"_s": "s", "_ms": "ms", "ratio": "ratio", "bytes": "B"}
        metrics = {name: {"value": values[name],
                          "unit": next((u for sfx, u in units.items() if name.endswith(sfx)), "count")}
                   for name in per_layer_names()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls(0)), "unit": "s"},
            "setup_s": {"value": statistics.median(c["setup_s"] for c in children), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["rss_mb"] for c in children), "unit": "MB"},
        }

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "machine": children[0]["machine"],
        "referenced": children[0]["referenced"],
        "children": [{"traced": c["traced"], "setup_s": c["setup_s"], "rss_mb": c["rss_mb"],
                      "walls": [it["wall_s"] for it in c["iterations"]]} for c in children],
        "missing_spans": children[0]["missing_spans"],
        "problems": [p for c in children for p in c["problems"]][:20],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
