"""dpsqkd benchmark: one workload, one seed, measured in fresh interpreters.

Run from the repository root:

    python3 perfbench/run.py --workload keygen --seed 1 --seconds 25 --trace 0

Workloads: keygen, attack, cli_batch, decoy (see perfbench/README.md).
With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics from a traced
repeat of the same operations. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Every interpreter is started serially with PYTHONPATH set to the
repository's src/, so at most this process and one child run at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("keygen", "attack", "cli_batch", "decoy")

# Set-up is timed in this many extra fresh interpreters besides the measuring
# one; the reported figure is the median over all of them.
SETUP_PROBES = 6
# Whole-run budget; the benchmark must end within 180 s.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _child(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    deadline = time.monotonic() + BUDGET_S
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "dpsqkd" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no dpsqkd sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        print("error: --seed must be >= 0 and --seconds in [1, 60]", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_child([*common, "--probe"], env, deadline))
        run = _child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    values = dict(run["metrics"])
    if not args.trace:
        setups.append(run)
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["peak_rss_mib"] = run["peak_rss_mib"]
        raw = {
            "raw_rounds_per_s": run["raw_rounds_per_s"],
            "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: worker did not measure {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    # A program error is a failed operation; a wrong output, or a traced
    # run that simulates different numbers, makes the run incorrect.
    correct = run["wrong"] == 0 and run.get("digests_match", True)
    environment = {
        "python": platform.python_version(),
        "numpy": run["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "setup_samples": [{k: s[k] for k in ("setup_s", "raw_setup_s")} for s in setups],
        **{k: v for k, v in run.items() if k not in ("metrics", "setup_s", "raw_setup_s")},
        "metrics": metrics,
    }
    if not args.trace:
        record["uncorrected"] = raw
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in environment.items()))
    print(
        f"operations {run['attempted']}, failed {run['failed']} "
        f"(failed_fraction {run['failed'] / run['attempted']:.4g}), rounds {run['rounds']}"
    )
    for message, count in {**run["errors"], **run["problems"]}.items():
        print(f"  {count} x {message}")
    print(f"statistics digest {run['digest']}" + (
        f", traced {run['traced_digest']}" if args.trace else ""
    ))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(
            f"  uncorrected: rounds_per_s {raw['raw_rounds_per_s']:.6g} 1/s, "
            f"setup_s {raw['raw_setup_s']:.6g} s"
        )
    print(f"record: {out.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
