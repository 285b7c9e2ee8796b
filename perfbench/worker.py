"""One fresh interpreter of a benchmark run: set up, measure, check, report.

Started by ``run.py``; not meant to be run by hand. Prints ``ready`` once
the workload is set up (the interpreter, the imports and the inputs), then
runs timed iterations until its time budget is spent, checks every
iteration's outputs, and prints one JSON line with its measurements.

An iteration is the workload's commands in order (offline workloads) or one
pass of the timed online steps over a freshly warmed store (online-p99).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _quantile_ms(latencies: list[float]) -> tuple[float, float]:
    """Median and p99 in ms; p99 of 1344 samples leaves 13 beyond it."""
    cuts = statistics.quantiles(latencies, n=100)
    return statistics.median(latencies) * 1e3, cuts[98] * 1e3


class OfflineWorkload:
    def __init__(self, cyclecast, workload: str, p: dict, seed: int, work: Path) -> None:
        self.workload, self.p, self.out = workload, p, work / "out"
        self.commands = wl.offline_commands(workload, p, seed, self.out)
        self.ops_per_iteration = len(self.commands)

    def iterate(self, tracer: Tracer | None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        cli = sys.modules["cyclecast.cli"]
        ops, rcs = {}, {}
        if tracer:
            tracer.reset()
        start = perf_counter()
        for name, argv in self.commands:
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rcs[name] = cli.main(argv)
            except SystemExit as exc:
                rcs[name] = exc.code
            except Exception:  # a traceback is a failed operation; the run goes on
                traceback.print_exc()
                rcs[name] = None
            ops[name] = perf_counter() - t0
        wall = perf_counter() - start
        layers = tracer.metrics() if tracer else {}
        fp, probs = wl.check_offline(self.workload, self.p, self.out, rcs)
        return {"wall_s": wall, "ops": ops, "layers": layers, "fp": fp, "probs": probs,
                "failed_ops": set()}

    def finish(self, iterations: list[dict]) -> None:
        pass


class OnlineWorkload:
    def __init__(self, cyclecast, workload: str, p: dict, seed: int, work: Path) -> None:
        self.cc, self.p = cyclecast, p
        self.cfg, self.warm, self.stream = wl.online_inputs(cyclecast, p, seed)
        self.ops_per_iteration = len(self.stream)
        self.store = wl.warm_store(cyclecast, p, self.warm)

    def iterate(self, tracer: Tracer | None) -> dict:
        cc, cfg = self.cc, self.cfg
        ds = self.store if self.store is not None else wl.warm_store(cc, self.p, self.warm)
        self.store = None
        lams, fallbacks, qs, lat = [], [], [], []
        failed: set[int] = set()
        if tracer:
            tracer.reset()
        start = perf_counter()
        try:
            for obs in self.stream:
                t0 = perf_counter()
                lam, fallback = cc.predict_step(ds, cfg)
                q = cc.poisson_quantile(lam, wl.PROVISION_P)
                cc.observe_step(ds, obs)
                lat.append(perf_counter() - t0)
                lams.append(lam)
                fallbacks.append(getattr(fallback, "value", str(fallback)))
                qs.append(q)
        except Exception:  # the failing step and every one after it fail
            traceback.print_exc()
            failed.update(range(len(lams), len(self.stream)))
        wall = perf_counter() - start
        layers = tracer.metrics() if tracer else {}
        wl.check_online_steps(lams, qs, failed)
        p50, p99 = _quantile_ms(lat) if len(lat) > 1 else (0.0, 0.0)
        it = {"wall_s": wall, "ops": {}, "layers": layers, "step_p50_ms": p50, "step_p99_ms": p99,
              "probs": wl.Problems(), "failed_ops": failed, "values": (lams, fallbacks, qs)}
        if not failed:
            it["fp"] = wl.online_fingerprint(lams, fallbacks, qs)
        return it

    def finish(self, iterations: list[dict]) -> None:
        """After timing: the first complete pass's quantiles against scipy."""
        for it in iterations:
            if not it["failed_ops"]:
                lams, _, qs = it.pop("values")
                wl.check_quantiles_scipy(lams, qs, it["failed_ops"])
                return


def _machine(numpy_version: str) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of timed iterations")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(wl.SIZES), required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import cyclecast
    import cyclecast.cli  # noqa: F401  (the offline workloads' entry point)

    if Path(cyclecast.__file__).resolve().parent != ROOT / "src" / "cyclecast":
        print(f"perfbench: imported cyclecast from {cyclecast.__file__}, not from src/", file=sys.stderr)
        return 1
    tracer = Tracer() if args.trace else None
    missing = tracer.install() if tracer else []
    params = wl.SIZES[args.size][args.workload]
    kind = OnlineWorkload if args.workload == "online-p99" else OfflineWorkload
    workload = kind(cyclecast, args.workload, params, args.seed, args.work_dir)
    reference = wl.load_reference(args.size, args.workload, args.seed)
    print("ready", flush=True)

    iterations = []
    start = perf_counter()
    while True:
        iterations.append(workload.iterate(tracer))
        elapsed = perf_counter() - start
        if elapsed + iterations[-1]["wall_s"] > args.budget:
            break
    timed_s = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish(iterations)

    attempted = failed = 0
    messages = []
    first_fp = next((it["fp"] for it in iterations if "fp" in it), None)
    for it in iterations:
        probs = it["probs"]
        fp = it.get("fp")
        if fp is not None and fp != first_fp:
            wl.compare_fingerprints(fp, first_fp, probs, "the run's first iteration")
        if fp is not None and reference is not None:
            wl.compare_fingerprints(fp, reference, probs, f"the reference for seed {args.seed}")
        attempted += workload.ops_per_iteration
        failed += min(len(it["failed_ops"]) + len(probs.by_op), workload.ops_per_iteration)
        messages += [m for ms in probs.by_op.values() for m in ms]
        if it["failed_ops"]:
            messages.append(f"{len(it['failed_ops'])} online steps failed their checks")

    print(json.dumps({
        "iterations": [{k: it[k] for k in ("wall_s", "ops", "layers", "step_p50_ms", "step_p99_ms") if k in it}
                       for it in iterations],
        "timed_s": timed_s,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": messages[:20],
        "referenced": reference is not None,
        "missing_spans": missing,
        "machine": _machine(numpy.__version__),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
