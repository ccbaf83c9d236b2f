"""Batch experiment runner.

Reads a JSON config naming experiments, runs them with fully seeded
randomness, and writes one CSV (or JSON) table per experiment plus a
stdout summary. All randomness flows from the single master seed; a fixed
config and seed reproduce byte-identical output files.

Config format::

    {
      "seed": 7,
      "defaults": {"rounds": 20000, "mean_photons_return": 0.5},
      "experiments": [
        "baseline",
        {"name": "efficiency_scan", "stages": [1, 2, 3], "rounds": 50000},
        {"name": "attack_demo", "sample_prob": 0.2},
        {"name": "birefringence_sweep"},
        {"name": "truth_table"}
      ]
    }

Experiment entries are either a bare name or an object with ``name`` plus
session overrides. The session keys are the fields of ``SessionConfig``,
``DetectorParams`` and ``ChannelParams``, less four of ``SessionConfig``:
``master_seed`` (the file's ``seed``), ``eve_kind`` (set by ``attack_demo``)
and the ``detector`` and ``channel`` sections, whose fields are keys
themselves. ``efficiency_scan`` also accepts ``stages`` (list of cascade
sizes, each in 1..16 like ``n_stages``; default 1..6).

``birefringence_mode`` changes no table: it selects only the fiber unitary
of the field-level reference round, drawn from the master seed, which the
Faraday mirror cancels, so no click probability depends on it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .channel import BirefringenceMode, ChannelParams, EveKind
from .optics import ClickEvent, DetectorParams
from .phases import KEY_PHASES, QUATERNARY
from .session import SessionConfig, competitor_efficiency, run_session, theoretical_efficiency
from .stations import CascadeConfig, Detector, alice_encode, bob_measure, bob_prepare, infer_bit


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad key."""


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    base: SessionConfig
    stages: tuple[int, ...] = ()


@dataclass(frozen=True)
class ResultTable:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from integer parts (master seed, codes, indices)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _replace(obj, **changes):
    """``dataclasses.replace``, reporting the dataclass's own value check
    (whose message names the field) as a ConfigError."""
    try:
        return replace(obj, **changes)
    except ValueError as e:
        raise ConfigError(str(e)) from None


#: The ``SessionConfig`` fields that no config key sets: ``master_seed`` is
#: the file's top-level ``seed``, ``attack_demo`` sets ``eve_kind``, and
#: ``detector`` and ``channel`` are sections whose own fields are keys.
_NOT_KEYS = ("master_seed", "eve_kind", "detector", "channel")
_SECTIONS = {"detector": DetectorParams, "channel": ChannelParams}
#: The section each session key of the config file sets ("session" for a
#: ``SessionConfig`` field). The dataclasses check the values and name the
#: field in their errors.
_KEY_SECTION = {
    **{f.name: "session" for f in fields(SessionConfig) if f.name not in _NOT_KEYS},
    **{f.name: section for section, kind in _SECTIONS.items() for f in fields(kind)},
}


def _build_session(overrides: dict, seed: int) -> SessionConfig:
    """The session an experiment's merged defaults and overrides describe."""
    sections: dict[str, dict] = {"session": {}, **{section: {} for section in _SECTIONS}}
    for key, value in overrides.items():
        if key not in _KEY_SECTION:
            raise ConfigError(f"unknown config key: {key}")
        sections[_KEY_SECTION[key]][key] = value
    try:
        parts = {name: kind(**sections[name]) for name, kind in _SECTIONS.items()}
        return SessionConfig(**parts, **sections["session"], master_seed=seed)
    except ValueError as e:
        # a bad seed is reported before any other bad value
        _replace(SessionConfig(), master_seed=seed)
        raise ConfigError(str(e)) from None


def parse_config(path) -> list[ExperimentSpec]:
    """Load and validate the experiment file; unknown names and keys and
    invalid values are rejected with messages naming the offender."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config {path}: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown_top = set(raw) - {"seed", "defaults", "experiments"}
    if unknown_top:
        raise ConfigError(f"unknown config key: {sorted(unknown_top)[0]}")

    seed = raw.get("seed", 0)
    defaults = raw.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigError("defaults must be an object")
    if "stages" in defaults:
        raise ConfigError(
            "unknown config key in defaults: stages (only an efficiency_scan entry takes it)"
        )
    entries = raw.get("experiments")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("experiments must be a non-empty list")

    specs = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict):
            raise ConfigError(f"experiment entry must be a name or object, got {entry!r}")
        if "name" not in entry:
            raise ConfigError("experiment entry is missing the name key")
        name = entry["name"]
        if name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment name: {name!r}")
        # a name is its variant seeds and its output file
        if any(spec.name == name for spec in specs):
            raise ConfigError(f"experiment {name!r} appears more than once")
        overrides = {k: v for k, v in entry.items() if k != "name"}
        stages: tuple[int, ...] = ()
        if name == "efficiency_scan":
            raw_stages = overrides.pop("stages", [1, 2, 3, 4, 5, 6])
            if not isinstance(raw_stages, list) or not raw_stages:
                raise ConfigError("stages must be a non-empty list of integers")
            stages = tuple(raw_stages)
        elif "stages" in overrides:
            raise ConfigError("unknown config key: stages (only an efficiency_scan entry takes it)")
        base = _build_session({**defaults, **overrides}, seed)
        for n in stages:
            _replace(base, n_stages=n)
        specs.append(ExperimentSpec(name=name, base=base, stages=stages))
    return specs


def _variant_seed(spec: ExperimentSpec, variant: int) -> int:
    return derive_seed(spec.base.master_seed, _NAME_CODE[spec.name], variant)


#: (column, ``SessionStats`` attribute) of the baseline table
_SESSION_COLUMNS = (
    ("rounds", "rounds"),
    ("sampled", "n_sampled"),
    ("no_click", "n_no_click"),
    ("single_click", "n_single_click"),
    ("multi_click", "n_multi_click"),
    ("efficiency", "efficiency"),
    ("edge_fraction", "edge_fraction"),
    ("sifted_length", "sifted_length"),
    ("mismatches", "mismatches"),
    ("qber", "qber"),
    ("check_error_rate", "check_error_rate"),
    ("energy_alarms", "energy_alarms"),
    ("alarm", "alarm"),
)


#: (column, ``SessionStats`` attribute) of the attack_demo table, after ``variant``
_ATTACK_COLUMNS = (
    ("rounds", "rounds"),
    ("sifted_length", "sifted_length"),
    ("qber", "qber"),
    ("mismatches", "mismatches"),
    ("eve_key_agreement", "eve_agreement"),
    ("check_rounds_matched", "check_rounds_matched"),
    ("check_error_rate", "check_error_rate"),
    ("alarm", "alarm"),
)


def _session_row(cfg: SessionConfig, columns) -> tuple:
    """The row of ``columns`` that ``cfg``'s session statistics give."""
    stats = run_session(cfg).stats
    return tuple(getattr(stats, attr) for _, attr in columns)


def _run_baseline(spec: ExperimentSpec) -> ResultTable:
    cfg = replace(spec.base, master_seed=_variant_seed(spec, 0))
    return ResultTable(
        "baseline",
        tuple(column for column, _ in _SESSION_COLUMNS),
        (_session_row(cfg, _SESSION_COLUMNS),),
    )


def _run_efficiency_scan(spec: ExperimentSpec) -> ResultTable:
    rows = []
    for i, n in enumerate(spec.stages):
        cfg = replace(spec.base, n_stages=n, master_seed=_variant_seed(spec, i))
        stats = run_session(cfg).stats
        rows.append(
            (
                n,
                stats.n_single_click,
                stats.efficiency,
                float(theoretical_efficiency(n)),
                float(competitor_efficiency(n)),
            )
        )
    return ResultTable(
        "efficiency_scan",
        ("n_stages", "single_click_rounds", "measured", "exact", "competitor"),
        tuple(rows),
    )


def _run_attack_demo(spec: ExperimentSpec) -> ResultTable:
    attack = EveKind.INTERCEPT_RESEND_REFERENCE
    off_seed, on_seed = _variant_seed(spec, 0), _variant_seed(spec, 1)
    off = replace(spec.base, eve_kind=attack, sample_prob=0.0, decoy_prob=0.0, master_seed=off_seed)
    on = replace(spec.base, eve_kind=attack, master_seed=on_seed)
    return ResultTable(
        "attack_demo",
        ("variant", *(column for column, _ in _ATTACK_COLUMNS)),
        tuple(
            (label, *_session_row(cfg, _ATTACK_COLUMNS))
            for label, cfg in (("checks_off", off), ("checks_on", on))
        ),
    )


def _run_birefringence_sweep(spec: ExperimentSpec) -> ResultTable:
    """One row per birefringence mode, all from one session. A session never
    draws a fiber unitary (its tables do not read the mode), so the rows
    differ only in ``mode``; the Faraday compensation that makes this exact
    is checked on the reference round's legs, not by this table."""
    cfg = replace(spec.base, master_seed=_variant_seed(spec, 0))
    stats = run_session(cfg).stats
    clicks = (stats.d1_clicks, stats.d2_clicks, stats.d3_clicks, stats.d4_clicks)
    counts = (stats.rounds, *clicks, stats.efficiency, stats.mismatches)
    return ResultTable(
        "birefringence_sweep",
        ("mode", "rounds", "d1", "d2", "d3", "d4", "efficiency", "mismatches"),
        tuple((mode.value, *counts) for mode in BirefringenceMode),
    )


def _run_truth_table(spec: ExperimentSpec) -> ResultTable:
    """Exact interference coefficients per phase pair, normalized so a
    non-interfering (edge) slot has magnitude 1; ``odd_slots_click_d1`` is
    None at n=1, where no inner slot is odd."""
    n = spec.base.n_stages
    # Bob's cascade and train for each of his phases, encoded with both key phases
    cascades = [CascadeConfig(n, phase_b) for phase_b in QUATERNARY]
    trains = [bob_prepare(cascade, 1 + 0j) for cascade in cascades]
    slots = cascades[0].gate
    odd_inner = slots[2:-1:2]
    norm = 2.0 ** (n + 1)
    rows = []
    for bit, phase_a in enumerate(KEY_PHASES):
        for phase_b, cascade, train in zip(QUATERNARY, cascades, trains):
            d1, d2 = bob_measure(alice_encode(train, phase_a), cascade)
            c1 = [abs(d1.amplitude(k)) * norm for k in slots]
            c2 = [abs(d2.amplitude(k)) * norm for k in slots]
            odd_inner_d1 = all(c1[k - 1] > 1e-9 for k in odd_inner) if odd_inner else None
            lit = [Detector.D1 if c > 1e-9 else Detector.D2 for c in c1]
            # every inner slot lights one port, and Bob reads Alice's bit off it
            rule_holds = all(
                (c1[k - 1] > 1e-9) != (c2[k - 1] > 1e-9)
                and infer_bit(ClickEvent(lit[k - 1], k), cascade).value == bit
                for k in slots[1:-1]
            )
            rows.append(
                (str(phase_a), str(phase_b), *c1, *c2, odd_inner_d1, rule_holds)
            )
    columns = (
        "alice_phase",
        "bob_phase",
        *(f"d1_t{k}" for k in slots),
        *(f"d2_t{k}" for k in slots),
        "odd_slots_click_d1",
        "readout_rule_holds",
    )
    return ResultTable("truth_table", columns, tuple(rows))


#: The experiments by name. Their order is part of every output file: an
#: experiment's position is its code in ``derive_seed``.
_RUNNERS = {
    "baseline": _run_baseline,
    "efficiency_scan": _run_efficiency_scan,
    "attack_demo": _run_attack_demo,
    "birefringence_sweep": _run_birefringence_sweep,
    "truth_table": _run_truth_table,
}
EXPERIMENT_NAMES = tuple(_RUNNERS)
_NAME_CODE = {name: i for i, name in enumerate(EXPERIMENT_NAMES)}


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    return _RUNNERS[spec.name](spec)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def emit(results, fmt: str, out_dir) -> list[Path]:
    """Write one file per result table and print a short summary.

    CSV dialect: header row, comma delimiter, '.' decimal separator, floats
    with 6 significant digits, LF line endings. The ``structured`` format
    writes the same fields as JSON.
    """
    if fmt not in ("csv", "structured"):
        raise ValueError(f"format must be 'csv' or 'structured', got {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in results:
        if fmt == "csv":
            path = out_dir / f"{table.name}.csv"
            lines = [",".join(table.columns)]
            lines.extend(",".join(_format_cell(v) for v in row) for row in table.rows)
            path.write_text("\n".join(lines) + "\n", newline="\n")
        else:
            path = out_dir / f"{table.name}.json"
            doc = {
                "experiment": table.name,
                "columns": list(table.columns),
                "rows": [[_json_cell(v) for v in row] for row in table.rows],
            }
            path.write_text(json.dumps(doc, indent=2) + "\n", newline="\n")
        paths.append(path)
        print(f"[{table.name}] {len(table.rows)} row(s) -> {path}")
        header = "  " + "  ".join(table.columns[:8])
        print(header)
        for row in table.rows[:4]:
            print("  " + "  ".join(_format_cell(v) for v in row[:8]))
        if len(table.rows) > 4:
            print(f"  ... {len(table.rows) - 4} more row(s)")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dps-qkd",
        description="Run differential-phase-shift QKD experiments from a config file.",
    )
    parser.add_argument("--config", required=True, help="JSON experiment file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--rounds", type=int, default=None, help="override rounds everywhere")
    parser.add_argument("--experiment", default=None, help="run only the named experiment")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--format", choices=("csv", "structured"), default="csv")
    args = parser.parse_args(argv)

    try:
        specs = parse_config(args.config)
        if args.seed is not None:
            specs = [replace(s, base=_replace(s.base, master_seed=args.seed)) for s in specs]
        if args.rounds is not None:
            specs = [replace(s, base=_replace(s.base, rounds=args.rounds)) for s in specs]
        if args.experiment is not None:
            if args.experiment not in EXPERIMENT_NAMES:
                raise ConfigError(f"unknown experiment name: {args.experiment!r}")
            specs = [s for s in specs if s.name == args.experiment]
            if not specs:
                raise ConfigError(f"experiment {args.experiment!r} is not in the config")
        results = [run_experiment(spec) for spec in specs]
        emit(results, args.format, args.out)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
