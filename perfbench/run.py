"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sssp-road --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` is a separate run that times each layer and prints the
per-layer metrics (see ``perfbench/metrics.py``).  The line before the
result records the environment (CPU count, library versions, git sha,
dataset fingerprints, the kernel thresholds autotune chose).  The last
line is ``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every answer was right, 1 when any answer was wrong
(the result line is still printed), 2 when the benchmark cannot run at all
(no result line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The workloads ``BENCHMARK.json`` gates.  ``sssp-social`` (OK-small,
#: kernel-bound) runs the same way but is not gated: over ten seeds its
#: 5 ms runs spread by 0.26-0.29 of their median, more than the largest
#: bound, and its median moved by half between sets of runs half an hour
#: apart, while the step-loop-bound ``sssp-road`` moved by under a tenth.
WORKLOADS = ("sssp-road", "serve-cold", "serve-hot")
UNGATED = ("sssp-social",)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + UNGATED)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _jsonable(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    # The benchmark's own graph cache: generation is warmed untimed into it,
    # so set-up measures the same cached load on every run.
    os.environ["REPRO_GRAPH_CACHE"] = str(ROOT / "perfbench" / ".cache" / "graphs")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import common, metrics

    if args.workload.startswith("sssp"):
        from perfbench import sssp as workload
    else:
        from perfbench import serve as workload
    out = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": _jsonable(common.environment(ROOT, out["graphs"]))}))
    result = {
        "correct": out["wrong"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics.report(out["values"], bool(args.trace)),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
