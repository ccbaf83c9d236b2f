"""One benchmark run of one workload, inside a fresh interpreter.

run.py starts this file with PYTHONPATH set to the repository's src/, so
``import dpsqkd`` here is the first import of the package and is timed as
set-up. The last line of standard output is one JSON object with the raw
measurements; run.py turns it into the benchmark's result line.

An operation is one ``run_session`` call (keygen, attack, decoy) or one
in-process ``dps-qkd`` invocation (cli_batch). Operation ``i`` of a run
always gets the same inputs for the same ``--seed``, so the traced pass
repeats the untraced pass exactly and their digests must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
CLI_CONFIG = ROOT / "configs" / "experiments.json"

# Consecutive operations are pooled into windows at least this long and the
# rate is the median over windows, so that sub-millisecond operations (a
# session that fails in its first rounds) still give a steady figure.
WINDOW_S = 0.5

KEYGEN_ROUNDS = 10_000
ATTACK_ROUNDS = 2_000
DECOY_ROUNDS = 2_000
# cli_batch runs configs/experiments.json with every `rounds` of it divided
# by this: the full config takes about 30 s per run, the scaled one under a
# second, and every experiment keeps its share of the rounds.
CLI_SCALE = 40

# Output checks allow this many binomial standard deviations, a tolerance
# that does not depend on the seed.
SIGMAS = 6.0
EDGE_FRACTION_N3 = 1 / 8  # the paper's 1/8 edge slots, so efficiency 7/8

# The dps-qkd experiments that have a cli.run_experiment.<name>.s metric.
EXPERIMENTS = ("truth_table", "baseline", "efficiency_scan", "attack_demo", "birefringence_sweep")


@dataclass
class Outcome:
    """What one operation produced, as far as the benchmark checks it."""

    rounds: int  # protocol rounds the operation completed
    digest: str  # of the simulated statistics or the output tree
    sifted: int = 0
    sifted_rounds: int = 0  # rounds of the sessions that report `sifted`
    rss_growth: int = 0  # bytes of RSS gained while the result was held
    problem: str | None = None  # the output check that failed
    error: str | None = None  # the exception the program raised


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _failure(exc: Exception) -> Outcome:
    """Outcome of an operation that raised, named by the innermost frame.

    The rounds completed are those before the failing round: the
    ``round_index`` argument of the innermost ``run_round`` frame on the
    traceback, or 0 when there is none.
    """
    completed = 0
    frame = lineno = None
    for frame, lineno in traceback.walk_tb(exc.__traceback__):
        if frame.f_code.co_name == "run_round":
            index = frame.f_locals.get("round_index")
            if isinstance(index, int):
                completed = index
    where = ""
    if frame is not None:
        code = frame.f_code
        where = f" ({Path(code.co_filename).name}:{lineno} in {code.co_name})"
    error = f"{type(exc).__name__}: {exc}{where}"
    return Outcome(rounds=completed, digest=_digest(error), error=error)


def _binomial_problem(
    label: str, measured, expected: float, p: float, n: int, slack: float = 0.0
) -> str | None:
    if n == 0 or measured is None:
        return f"{label}: no single-click rounds"
    tol = SIGMAS * math.sqrt(p * (1 - p) / n) + slack
    if abs(measured - expected) > tol:
        return f"{label} {measured:.6f} outside {expected:.6f} +- {tol:.6f} (n={n})"
    return None


def check_keygen(stats) -> str | None:
    if stats.mismatches:
        return f"{stats.mismatches} sifted mismatches"
    if stats.alarm:
        return "alarm raised on a noiseless passive session"
    p, n = EDGE_FRACTION_N3, stats.n_single_click
    return _binomial_problem("efficiency", stats.efficiency, 1 - p, p, n) or _binomial_problem(
        "edge fraction", stats.edge_fraction, p, p, n
    )


def check_attack(stats) -> str | None:
    if stats.eve_agreement != 1.0:
        return f"eve_agreement {stats.eve_agreement} != 1.0"
    if not stats.alarm:
        return "intercept-resend attack raised no alarm"
    return None


def check_decoy(stats) -> str | None:
    if stats.mismatches:
        return f"{stats.mismatches} sifted mismatches"
    return None


class SessionWorkload:
    """Repeated ``run_session`` calls on one base config, one seed per call."""

    def __init__(self, base, check, seed: int):
        import dpsqkd.session

        self.session = dpsqkd.session
        self.base = base
        self.check = check
        self.seed = seed

    def operation(self, i: int) -> tuple[float, Outcome]:
        config = replace(self.base, master_seed=self.seed * 2**32 + i)
        rss = _rss_bytes()
        start = time.perf_counter()
        try:
            result = self.session.run_session(config)
        except Exception as exc:
            return time.perf_counter() - start, _failure(exc)
        elapsed = time.perf_counter() - start
        stats = result.stats
        return elapsed, Outcome(
            rounds=stats.rounds,
            digest=_digest(repr(stats)),
            sifted=stats.sifted_length,
            sifted_rounds=stats.rounds,
            rss_growth=_rss_bytes() - rss,
            problem=self.check(stats),
        )


def scaled_config(path: Path, scale: int) -> dict:
    """The experiment config at ``path`` with every ``rounds`` divided by ``scale``."""
    from dpsqkd.session import SessionConfig

    raw = json.loads(path.read_text())
    defaults = raw.setdefault("defaults", {})
    defaults.setdefault("rounds", SessionConfig().rounds)
    for entry in (defaults, *raw["experiments"]):
        if isinstance(entry, dict) and "rounds" in entry:
            entry["rounds"] = max(1, round(entry["rounds"] / scale))
    return raw


def _read_tables(out: Path) -> dict[str, list[dict]]:
    tables = {}
    for path in sorted(out.glob("*.csv")):
        with path.open(newline="") as f:
            tables[path.stem] = list(csv.DictReader(f))
    return tables


class CliWorkload:
    """``dps-qkd --config <scaled configs/experiments.json>`` run in-process."""

    def __init__(self, seed: int):
        import dpsqkd.cli

        self.cli = dpsqkd.cli
        RESULTS.mkdir(exist_ok=True)
        config = RESULTS / f"cli-config-seed{seed}.json"
        config.write_text(json.dumps(scaled_config(CLI_CONFIG, CLI_SCALE), indent=1))
        specs = dpsqkd.cli.parse_config(config)
        # efficiency_scan's table has no rounds column: one row per session
        self.scan_rounds = next((s.base.rounds for s in specs if s.name == "efficiency_scan"), 0)
        self.argv = ["--config", str(config), "--seed", str(seed)]
        self.first_digest: str | None = None

    def operation(self, i: int) -> tuple[float, Outcome]:
        RESULTS.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="cli-out-", dir=RESULTS))
        try:
            rss = _rss_bytes()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = self.cli.main([*self.argv, "--out", str(out)])
            except Exception as exc:
                return time.perf_counter() - start, _failure(exc)
            elapsed = time.perf_counter() - start
            growth = _rss_bytes() - rss
            files = sorted(p for p in out.rglob("*") if p.is_file())
            tree = hashlib.sha256()
            for path in files:
                tree.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
            digest = tree.hexdigest()[:16]
            if self.first_digest is None:
                self.first_digest = digest
            tables = _read_tables(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        outcome = Outcome(rounds=0, digest=digest, rss_growth=growth)
        self._count(tables, outcome)
        outcome.problem = self._check(status, tables, digest)
        return elapsed, outcome

    def _count(self, tables: dict[str, list[dict]], outcome: Outcome) -> None:
        """Rounds and sifted bits of the invocation, as its tables report them."""
        for name, rows in tables.items():
            if rows and "rounds" in rows[0]:
                rounds = sum(int(row["rounds"]) for row in rows)
            elif name == "efficiency_scan":
                rounds = len(rows) * self.scan_rounds
            else:
                continue
            outcome.rounds += rounds
            if rows and "sifted_length" in rows[0]:
                outcome.sifted += sum(int(row["sifted_length"]) for row in rows)
                outcome.sifted_rounds += rounds

    def _check(self, status, tables: dict[str, list[dict]], digest: str) -> str | None:
        if status != 0:
            return f"dps-qkd exited with status {status}"
        if digest != self.first_digest:
            return f"output tree {digest} differs from the first invocation's {self.first_digest}"
        if "truth_table" not in tables or "efficiency_scan" not in tables:
            return "truth_table.csv or efficiency_scan.csv missing"
        bad = [r for r in tables["truth_table"] if r["readout_rule_holds"] != "true"]
        if bad:
            return f"readout rule fails for {len(bad)} truth-table row(s)"
        for row in tables["efficiency_scan"]:
            exact = float(row["exact"])
            problem = _binomial_problem(
                f"efficiency_scan n={row['n_stages']}",
                float(row["measured"]) if row["measured"] else None,
                exact,
                1 - exact,
                int(row["single_click_rounds"]),
                slack=1e-5,  # the CSV keeps 6 significant digits
            )
            if problem:
                return problem
        return None


def build(workload: str, seed: int):
    """Import dpsqkd and build the workload's inputs: the timed set-up."""
    if workload == "cli_batch":
        return CliWorkload(seed)

    from dpsqkd.channel import BirefringenceMode, ChannelParams, EveKind
    from dpsqkd.optics import DetectorParams, DoubleClickPolicy
    from dpsqkd.session import SessionConfig

    if workload == "keygen":
        base = SessionConfig(
            n_stages=3, rounds=KEYGEN_ROUNDS, mean_photons_return=0.8, sample_prob=0.0
        )
        return SessionWorkload(base, check_keygen, seed)
    if workload == "attack":
        base = SessionConfig(
            n_stages=3,
            rounds=ATTACK_ROUNDS,
            mean_photons_return=0.5,
            sample_prob=0.2,
            eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
            channel=ChannelParams(
                loss_db=3.0, birefringence_mode=BirefringenceMode.RANDOM_PER_TRAIN
            ),
            detector=DetectorParams(dark_count_prob=1e-3),
        )
        return SessionWorkload(base, check_attack, seed)
    if workload == "decoy":
        base = SessionConfig(
            n_stages=3,
            rounds=DECOY_ROUNDS,
            mean_photons_return=0.8,
            sample_prob=0.1,
            decoy_prob=0.25,
            detector=DetectorParams(double_click_policy=DoubleClickPolicy.RANDOM_PICK),
        )
        return SessionWorkload(base, check_decoy, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _python_reference() -> complex:
    """Fixed pure-Python work like the simulator's: small tuples, dicts, complex maths."""
    slots = {}
    for k in range(3000):
        slots[k] = (complex(k, 1.0) * 0.7, (1 + 0j, 0j))
    total = 0j
    for k, (amplitude, polarization) in slots.items():
        total += amplitude * polarization[0] + abs(amplitude) ** 2
    return total


def _numpy_reference() -> float:
    """Fixed numpy work like the simulator's: per-round streams, small draws, 2x2 QR."""
    import numpy as np

    total = 0.0
    for i in range(60):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(1, i))))
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        total += float(rng.random(4)[0]) + abs(complex(q[0, 0]))
    return total


# The shared host's speed drifts by a factor of two over minutes, largely in
# step for the simulator and for fixed reference work. Rates and set-up times
# are therefore reported corrected to the nominal host, using host_speed()
# measured in the same interpreter around the same work. The nominal rates
# (calls per second) are about the medians of the host that recorded
# BASELINE.json, so corrected figures read like its typical figures.
REFERENCES = (
    (_python_reference, 10, 500.0),
    (_numpy_reference, 3, 250.0),
)
# The simulator's speed moves by about three quarters as much as the
# reference loops' speed. Over 80 runs of the four workloads on the host of
# BASELINE.json, this exponent took the spread of rounds_per_s between runs
# from 4-9 % (exponent 1) to 2-7 %, and that of setup_s down alike.
SPEED_ELASTICITY = 0.75


def host_speed() -> float:
    """Speed of the host right now relative to the nominal host.

    The geometric mean of two reference loops' rates over their nominal
    rates, raised to SPEED_ELASTICITY, with the garbage collector off so
    that the program's heap does not change the figure.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        speed = 1.0
        for loop, calls, nominal in REFERENCES:
            start = time.perf_counter()
            for _ in range(calls):
                loop()
            speed *= calls / (time.perf_counter() - start) / nominal
        return speed ** (SPEED_ELASTICITY / len(REFERENCES))
    finally:
        if enabled:
            gc.enable()


@dataclass
class Window:
    rounds: int
    elapsed: float  # seconds inside the program's calls
    speed: float  # host_speed() around the window

    @property
    def raw_rate(self) -> float:
        return self.rounds / self.elapsed

    @property
    def corrected_rate(self) -> float:
        return self.raw_rate / self.speed


@dataclass
class Tally:
    """Running totals of one pass. Only the window list, and the digests when
    asked for, grow with the number of operations, so a faster program does
    not raise the benchmark's own memory."""

    keep_digests: bool = False
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    rounds: int = 0
    sifted: int = 0
    sifted_rounds: int = 0
    elapsed: float = 0.0
    bytes_per_round: float = 0.0  # largest RSS growth of one operation per round
    digest: str = ""  # of operation 0
    digests: list[str] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)
    problems: dict[str, int] = field(default_factory=dict)
    windows: list[Window] = field(default_factory=list)

    def add(self, elapsed: float, outcome: Outcome) -> None:
        if not self.attempted:
            self.digest = outcome.digest
        self.attempted += 1
        self.failed += bool(outcome.error or outcome.problem)
        self.wrong += bool(outcome.problem)
        self.rounds += outcome.rounds
        self.sifted += outcome.sifted
        self.sifted_rounds += outcome.sifted_rounds
        self.elapsed += elapsed
        if outcome.rounds:
            self.bytes_per_round = max(self.bytes_per_round, outcome.rss_growth / outcome.rounds)
        if self.keep_digests:
            self.digests.append(outcome.digest)
        for message, counts in ((outcome.error, self.errors), (outcome.problem, self.problems)):
            if message:
                counts[message] = counts.get(message, 0) + 1

    def corrected_rate(self) -> float:
        return statistics.median(w.corrected_rate for w in self.windows)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "rounds": self.rounds,
            "digest": self.digest,
            "errors": self.errors,
            "problems": self.problems,
        }


def measure(
    workload, seconds: float | None = None, count: int | None = None, tracer=None, keep_digests=False
) -> Tally:
    """Run operations 0, 1, ... for ``seconds`` (at least one) or ``count``.

    Consecutive operations are pooled into windows of at least WINDOW_S of
    program time, with host_speed() sampled at every window boundary.
    A short tail is dropped unless it is the only window.
    """
    tally = Tally(keep_digests=keep_digests)
    deadline = time.perf_counter() + seconds if seconds is not None else None
    before = host_speed()
    rounds, elapsed = 0, 0.0
    while True:
        if count is not None and tally.attempted >= count:
            break
        if deadline is not None and tally.attempted and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.operation = tally.attempted
        t, outcome = workload.operation(tally.attempted)
        tally.add(t, outcome)
        rounds += outcome.rounds
        elapsed += t
        if elapsed >= WINDOW_S:
            after = host_speed()
            tally.windows.append(Window(rounds, elapsed, (before + after) / 2))
            before = after
            rounds, elapsed = 0, 0.0
    if elapsed > 0 and not tally.windows:
        tally.windows.append(Window(rounds, elapsed, (before + host_speed()) / 2))
    return tally


def per_layer(tracer: Tracer, untraced: Tally, traced: Tally) -> dict:
    def per_round(x: float) -> float:
        return x / traced.rounds if traced.rounds else 0.0

    def per_operation(x: float) -> float:
        return x / traced.attempted

    run_rounds = tracer.calls("session.run_round")
    # from corrected rates, so that host drift between the passes cancels
    untraced_rate, traced_rate = untraced.corrected_rate(), traced.corrected_rate()
    if untraced_rate and traced_rate:
        overhead = untraced_rate / traced_rate
    else:
        overhead = traced.elapsed / untraced.elapsed
    metrics = {
        "session.round_rng.us_per_call": tracer.us_per_call("session.round_rng"),
        "session.run_round.us_per_call": tracer.us_per_call("session.run_round"),
        "session.run_round.self_us_per_call": tracer.us_per_call("session.run_round", self_time=True),
        "session.session_stats.us_per_round": per_round(tracer.busy_s("session.session_stats") * 1e6),
        "session.records_bytes_per_round": untraced.bytes_per_round,
        "session.sifted_bits_per_round": (
            traced.sifted / traced.sifted_rounds if traced.sifted_rounds else 0.0
        ),
        "session.bob_prepare_hit_ratio": (
            1 - tracer.calls("stations.bob_prepare") / run_rounds if run_rounds else 0.0
        ),
        "stations.bob_prepare.calls": per_operation(tracer.calls("stations.bob_prepare")),
        "stations.alice_decoy_replace.errors": per_operation(
            tracer.errors("stations.alice_decoy_replace")
        ),
        "optics.mzi_pass.calls_per_round": per_round(tracer.calls("optics.mzi_pass")),
        "optics.detect.calls_per_round": per_round(tracer.calls("optics.detect")),
        "cli.parse_config.ms": per_operation(tracer.busy_s("cli.parse_config") * 1e3),
        "cli.emit.ms": per_operation(tracer.busy_s("cli.emit") * 1e3),
        "trace.overhead_ratio": overhead,
        "failed_fraction": untraced.failed / untraced.attempted,
    }
    for name in (
        "stations.CascadeConfig",
        "stations.bob_measure",
        "stations.infer_bit",
        "stations.alice_sample_and_check",
        "stations.alice_decoy_replace",
        "stations.alice_energy_monitor",
        "optics.mzi_pass",
        "optics.attenuate",
        "optics.faraday_reflect",
        "optics.detect",
        "channel.round_unitary",
        "channel.fiber_transmit",
        "channel.eve_forward_hook",
        "channel.eve_backward_hook",
    ):
        metrics[f"{name}.us_per_call"] = tracer.us_per_call(name)
    for experiment in EXPERIMENTS:
        key = f"cli.run_experiment.{experiment}"
        metrics[f"{key}.s"] = per_operation(tracer.busy_s(key))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="only time the set-up")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    workload = build(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    setup = {
        "raw_setup_s": setup_s,
        "setup_s": setup_s * host_speed(),
    }
    if args.probe:
        print(json.dumps(setup))
        return 0

    import numpy

    result = {**setup, "numpy": numpy.__version__}
    if args.trace:
        untraced = measure(workload, seconds=args.seconds / 2, keep_digests=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, count=untraced.attempted, tracer=tracer, keep_digests=True)
        finally:
            tracer.restore()
        result.update(untraced.summary())
        result["traced_digest"] = traced.digest
        result["digests_match"] = untraced.digests == traced.digests
        result["metrics"] = per_layer(tracer, untraced, traced)
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps(
                {
                    "aggregates": {
                        name: dict(zip(("calls", "busy_ns", "self_ns", "errors"), agg))
                        for name, agg in sorted(tracer.aggregates.items())
                    },
                    "missing": tracer.missing,
                    "spans": tracer.spans,
                }
            )
        )
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        tally = measure(workload, seconds=args.seconds)
        result.update(tally.summary())
        result["windows"] = [(w.rounds, w.elapsed, w.speed) for w in tally.windows]
        result["raw_rounds_per_s"] = statistics.median(w.raw_rate for w in tally.windows)
        result["metrics"] = {"rounds_per_s": tally.corrected_rate()}
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
