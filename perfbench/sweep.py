"""Run the benchmark over several seeds and summarize the spread.

Run from the repository root, for example:

    python3 perfbench/sweep.py --seeds 10 --out perfbench/results/sweep.json

For every workload of BENCHMARK.json it makes one untraced run per seed,
serially, and reports for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance over the median, and the same for the rates and
set-up times before the host-speed correction. With ``--traced`` it adds one traced
run per workload on the first seed, for the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text())
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary = {"seconds": args.seconds, "seeds": list(seeds), "workloads": {}}
    for workload in args.workloads:
        runs = [bench(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "errors": sorted({e for r in runs for e in r["record"]["errors"]}),
            "digests": [r["record"]["digest"] for r in runs],
            "end_to_end": {},
        }
        summary["environment"] = runs[0]["record"]["environment"]
        for m in spec["end_to_end"]:
            stats = spread([r["metrics"][m["name"]]["value"] for r in runs])
            stats["bound"] = m["bound"]
            entry["end_to_end"][m["name"]] = stats
            print(
                f"{workload:10s} {m['name']:14s} median {stats['median']:.6g} {m['unit']}"
                f"  spread {stats['spread']:.4f} (bound {m['bound']})",
                flush=True,
            )
        # The same spreads before the host-speed correction, to show what it buys.
        entry["uncorrected"] = {}
        for name in ("rounds_per_s", "setup_s"):
            stats = spread([r["record"]["uncorrected"][f"raw_{name}"] for r in runs])
            entry["uncorrected"][name] = stats
            print(
                f"{workload:10s} {name:14s} uncorrected median {stats['median']:.6g}"
                f"  spread {stats['spread']:.4f}",
                flush=True,
            )
        if args.traced:
            traced = bench(workload, args.first_seed, args.seconds, 1)
            entry["traced"] = {
                "correct": traced["correct"],
                "digests_match": traced["record"]["digests_match"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            }
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
