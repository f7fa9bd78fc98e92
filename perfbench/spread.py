"""Check that the end-to-end metrics are steady across seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 10 [--workload serve-hot ...] [--seconds 12]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints each metric's median and inter-quartile spread as a share of
the median next to its bound from ``BENCHMARK.json``.  Exits 1 when a
run fails or a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in workloads:
        values: "dict[str, list[float]]" = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        for metric, xs in values.items():
            if len(xs) < 2:
                continue
            s = spread(xs)
            bound = bounds.get(metric, float("nan"))
            within = metric == "setup_s" or s <= bound
            ok &= within
            print(f"  {name:12s} {metric:18s} median={statistics.median(xs):10.4g} "
                  f"spread={s:.3f} bound={bound} {'ok' if within else 'OVER'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
