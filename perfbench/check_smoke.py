"""The benchmark's own test, seconds long: python3 perfbench/check_smoke.py

1. Runs every workload at ``--size smoke``, untraced and traced, and checks
   the result line against BENCHMARK.json: every metric present with its
   unit, end-to-end values positive, no failed operation.
2. Perturbs one predicted rate, one true rate and one quantile in real
   outputs and checks that the output checks catch each one.
3. Runs the benchmark from a directory holding only BENCHMARK.json and
   perfbench/, where it must fail without printing a result.

Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl
import worker

ROOT = worker.ROOT
SEED = 1
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result_lines(spec: dict) -> None:
    for workload in wl.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            lines = proc.stdout.splitlines()
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: no failed operation {info['problems'][:3]}")
            expect(info["referenced"], f"{what}: seed {SEED} has a reference")
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[section]}
            expect({k: v["unit"] for k, v in metrics.items()} == expected, f"{what}: metric names and units")
            if trace == 0:
                expect(all(v["value"] > 0 for v in metrics.values()), f"{what}: end-to-end metrics positive")


def check_perturbations() -> None:
    import cyclecast
    import cyclecast.cli  # noqa: F401

    work = ROOT / ".perfbench_work" / "smoke-perturb"
    try:
        p = wl.SIZES["smoke"]["readme"]
        offline = worker.OfflineWorkload(cyclecast, "readme", p, SEED, work)
        offline.iterate(None)
        reference = wl.load_reference("smoke", "readme", SEED)
        for name, column, row in (("records.csv", 2, 10), ("truth.csv", 1, 10)):
            path = offline.out / name
            original = path.read_text(encoding="utf-8")
            lines = original.splitlines(keepends=True)
            cells = lines[row].rstrip("\n").split(",")
            cells[column] = repr(float(cells[column]) * (1 + 1e-9))
            lines[row] = ",".join(cells) + "\n"
            path.write_text("".join(lines), encoding="utf-8")
            fp, probs = wl.check_offline("readme", p, offline.out, {"synth": 0})
            wl.compare_fingerprints(fp, reference, probs, "the reference")
            expect(bool(probs.by_op), f"a 1e-9 change of one value in {name} fails a check {probs.by_op}")
            path.write_text(original, encoding="utf-8")

        p = wl.SIZES["smoke"]["online-p99"]
        online = worker.OnlineWorkload(cyclecast, "online-p99", p, SEED, work)
        it = online.iterate(None)
        lams, fallbacks, qs = it["values"]
        qs = list(qs)
        qs[5] += 1
        failed: set[int] = set()
        wl.check_quantiles_scipy(lams, qs, failed)
        probs = wl.Problems()
        wl.compare_fingerprints(wl.online_fingerprint(lams, fallbacks, qs),
                                wl.load_reference("smoke", "online-p99", SEED), probs, "the reference")
        expect(failed == {5} and bool(probs.by_op), "one quantile off by one fails the scipy and reference checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare, "readme", 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_result_lines(spec)
    check_perturbations()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
