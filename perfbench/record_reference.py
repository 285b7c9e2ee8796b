"""Record reference fingerprints into reference.json from the current code.

    python3 perfbench/record_reference.py [--size full|smoke] [--seeds 0-31]

Run only on code whose outputs are known good: the benchmark then holds
every later version to these outputs for the recorded seeds (integer
content and fallbacks exactly, rates and MAPE to 1e-12 relative). The
held-out seeds of workloads.HELD_OUT_SEEDS are always recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads as wl
import worker


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", choices=tuple(wl.SIZES), default="full")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-31"))
    args = ap.parse_args()

    sys.path.insert(0, str(worker.ROOT / "src"))
    import cyclecast
    import cyclecast.cli  # noqa: F401

    with open(wl.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    (worker.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=worker.ROOT / ".perfbench_work"))
    try:
        for name in wl.WORKLOADS:
            kind = worker.OnlineWorkload if name == "online-p99" else worker.OfflineWorkload
            table = reference.setdefault(args.size, {}).setdefault(name, {})
            for seed in sorted(set(args.seeds) | {wl.HELD_OUT_SEEDS[name]}):
                workload = kind(cyclecast, name, wl.SIZES[args.size][name], seed, scratch)
                it = workload.iterate(None)
                workload.finish([it])
                if it["probs"].by_op or it["failed_ops"] or "fp" not in it:
                    print(f"{name} seed {seed}: checks failed: {it['probs'].by_op}", file=sys.stderr)
                    return 1
                table[str(seed)] = it["fp"]
                print(f"{name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # One line per seed keeps the file small and its diffs readable.
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        sizes = sorted(reference)
        for i, size in enumerate(sizes):
            fh.write(f' "{size}": {{\n')
            names = sorted(reference[size])
            for j, name in enumerate(names):
                fh.write(f'  "{name}": {{\n')
                seeds = sorted(reference[size][name], key=int)
                for k, seed in enumerate(seeds):
                    fp = json.dumps(reference[size][name][seed], sort_keys=True, separators=(",", ":"))
                    fh.write(f'   "{seed}": {fp}{"," if k < len(seeds) - 1 else ""}\n')
                fh.write(f'  }}{"," if j < len(names) - 1 else ""}\n')
            fh.write(f' }}{"," if i < len(sizes) - 1 else ""}\n')
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
