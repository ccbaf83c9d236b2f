"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run `pytest tests/test_acceptance.py -s` to get one [PASS]/[FAIL] line per
criterion, with the measured runtime against its budget in microseconds,
so the headroom shows even for the sub-millisecond criteria. Monte Carlo
criteria share one large seeded simulation (fixture ``big_run``) whose
wall time is charged against each criterion that uses it.
"""

import cmath
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dpsqkd.channel import EveKind, random_unitary
from dpsqkd.cli import main as cli_main
from dpsqkd.phases import KEY_PHASES, QUATERNARY, QuantizedPhase
from dpsqkd.session import (
    SessionConfig,
    _forward_leg,
    _return_leg,
    competitor_efficiency,
    run_session,
    theoretical_efficiency,
)
from dpsqkd.stations import CascadeConfig, alice_encode, bob_measure, bob_prepare
from dpsqkd.optics import attenuate


def report(num: int, label: str, elapsed: float, budget: float):
    assert elapsed < budget, (
        f"criterion {num} took {elapsed:.3f} s, budget {budget} s"
    )
    print(f"\n[PASS] criterion {num}: {label}  ({elapsed * 1e6:.0f} us < {budget * 1e6:.0f} us)")


def fail_line(num: int, label: str):
    print(f"\n[FAIL] criterion {num}: {label}")


# ---------------------------------------------------------------------------
# shared Monte Carlo run for the click-statistics criteria (3 and 8):
# n = 3, ideal detectors, no channel noise, enough rounds to collect at
# least 1e5 single-click rounds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_run():
    cfg = SessionConfig(
        n_stages=3,
        rounds=280_000,
        mean_photons_return=0.8,
        sample_prob=0.0,
        master_seed=2026,
    )
    t0 = time.perf_counter()
    stats = run_session(cfg).stats
    elapsed = time.perf_counter() - t0
    return stats, elapsed


def test_criterion_1_prepared_train_phase_structure():
    label = "prepared 8-pulse train: equal magnitudes, alternating phase"
    try:
        t0 = time.perf_counter()
        for phase_b in QUATERNARY:
            train = bob_prepare(CascadeConfig(3, phase_b), 1.0)
            ref = train.amplitude(1)
            assert train.occupied_slots() == tuple(range(1, 9))
            for k in range(1, 9):
                assert abs(abs(train.amplitude(k)) - abs(ref)) < 1e-10
                expected = ref * (phase_b.factor if k % 2 == 0 else 1.0)
                assert abs(train.amplitude(k) - expected) < 1e-10
        elapsed = time.perf_counter() - t0
    except AssertionError:
        fail_line(1, label)
        raise
    report(1, label, elapsed, 0.001)


def _d1_coeff(k: int, fa: float, fb: float) -> complex:
    if k == 1:
        return cmath.exp(-1j * fa)
    if k == 9:
        return cmath.exp(-2j * fb)
    if k % 2 == 0:
        return cmath.exp(-1j * fb) * (1 + cmath.exp(-1j * fa))
    return cmath.exp(-2j * fb) + cmath.exp(-1j * fa)


def _d2_coeff(k: int, fa: float, fb: float) -> complex:
    if k == 1:
        return cmath.exp(-1j * fa)
    if k == 9:
        return -cmath.exp(-2j * fb)
    if k % 2 == 0:
        return cmath.exp(-1j * fb) * (1 - cmath.exp(-1j * fa))
    return cmath.exp(-1j * fa) - cmath.exp(-2j * fb)


def test_criterion_2_return_interference_truth_table():
    label = "return interference matches the published coefficient table"
    try:
        t0 = time.perf_counter()
        for phase_a in KEY_PHASES:
            for phase_b in QUATERNARY:
                fa, fb = phase_a.radians, phase_b.radians
                cfg = CascadeConfig(3, phase_b)
                encoded = alice_encode(bob_prepare(cfg, 1.0), phase_a)
                d1, d2 = bob_measure(encoded, cfg)
                for port, coeff in ((d1, _d1_coeff), (d2, _d2_coeff)):
                    lam = None
                    for k in range(1, 10):
                        c = coeff(k, fa, fb)
                        if abs(c) > 1e-9:
                            lam = port.amplitude(k) / c
                            break
                    for k in range(1, 10):
                        assert abs(port.amplitude(k) - lam * coeff(k, fa, fb)) < 1e-10
                # exact quarter-turn readout rule: odd inner slots exit D1
                # iff twice Bob's phase equals Alice's phase
                d1_lit = all(abs(d1.amplitude(k)) > 1e-9 for k in (3, 5, 7))
                d2_lit = all(abs(d2.amplitude(k)) > 1e-9 for k in (3, 5, 7))
                rule = phase_b.doubled().quarter_turns == phase_a.quarter_turns
                assert d1_lit == rule and d2_lit == (not rule)
        elapsed = time.perf_counter() - t0
    except AssertionError:
        fail_line(2, label)
        raise
    report(2, label, elapsed, 0.010)


def test_criterion_3_key_creation_efficiency(big_run):
    label = "efficiency: exact (2^n-1)/2^n for n=1..6, Monte Carlo 7/8 at n=3"
    stats, sim_elapsed = big_run
    try:
        t0 = time.perf_counter()
        for n in range(1, 7):
            cfg = CascadeConfig(n, QuantizedPhase(n % 4))
            encoded = alice_encode(bob_prepare(cfg, 1.0), KEY_PHASES[n % 2])
            d1, d2 = bob_measure(encoded, cfg)
            total = d1.total_energy + d2.total_energy
            first, last = cfg.edge_slots
            inner = sum(
                abs(d1.amplitude(k)) ** 2 + abs(d2.amplitude(k)) ** 2
                for k in range(first + 1, last)
            )
            assert abs(inner / total - float(Fraction(2 ** n - 1, 2 ** n))) < 1e-12
        assert stats.n_single_click >= 100_000
        assert abs(stats.efficiency - 7 / 8) <= 0.01
        elapsed = sim_elapsed + (time.perf_counter() - t0)
    except AssertionError:
        fail_line(3, label)
        raise
    report(3, label, elapsed, 30.0)


def test_criterion_4_efficiency_comparison_table():
    label = "cascade efficiency beats n/(n+1) for n = 2..20, exact rationals"
    try:
        t0 = time.perf_counter()
        assert theoretical_efficiency(3) == Fraction(7, 8)
        assert competitor_efficiency(3) == Fraction(3, 4)
        for n in range(2, 21):
            assert theoretical_efficiency(n) > competitor_efficiency(n)
        elapsed = time.perf_counter() - t0
    except AssertionError:
        fail_line(4, label)
        raise
    report(4, label, elapsed, 0.001)


def test_criterion_5_noiseless_sessions_have_zero_qber():
    label = "noiseless passive session, 1e4 rounds: zero sifted mismatches"
    try:
        t0 = time.perf_counter()
        cfg = SessionConfig(
            rounds=10_000, mean_photons_return=0.5, master_seed=505
        )
        stats = run_session(cfg).stats
        assert stats.sifted_length > 1000
        assert stats.mismatches == 0
        elapsed = time.perf_counter() - t0
    except AssertionError:
        fail_line(5, label)
        raise
    report(5, label, elapsed, 10.0)


def test_criterion_6_faraday_mirror_compensation():
    label = "mirror round trip cancels 100 random fiber unitaries"
    try:
        t0 = time.perf_counter()
        rng = np.random.default_rng(606)
        config = SessionConfig(source_mean_photons=1.0, mean_photons_return=0.1)
        cascade = CascadeConfig(3, QUATERNARY[1])

        def trip(u):
            # the reference round's legs, fiber unitary u forward and u^T back
            prepared, sent, train, _ = _forward_leg(config.link, cascade, u)
            encoded = alice_encode(attenuate(train, config.mean_photons_return), KEY_PHASES[1])
            ((_, d1), (_, d2)), _ = _return_leg(config.link, cascade, prepared, sent, encoded, u)
            return d1, d2

        ref1, ref2 = trip(None)
        for _ in range(100):
            d1, d2 = trip(random_unitary(rng))
            for ref, port in ((ref1, d1), (ref2, d2)):
                # bit-identical per-slot energies: identical click statistics
                assert np.array_equal(port.energies, ref.energies)
                # one polarization per train: identical for every slot
                a = np.array(port.polarization)
                b = np.array(ref.polarization)
                phase = np.vdot(b, a)
                phase /= abs(phase)
                assert np.linalg.norm(a - phase * b) < 1e-10
        elapsed = time.perf_counter() - t0
    except AssertionError:
        fail_line(6, label)
        raise
    report(6, label, elapsed, 5.0)


def _flat_substitute_check_error_oracle() -> float:
    """Enumerate the flat-phase substitute against every announced phase and
    check basis: expected wrong-detector click weight among matched bases."""
    total, n = 0.0, 0
    for qb in range(4):
        for qc in (0, 1):
            fc = qc * math.pi / 2
            for lead_even in (True, False):
                comb = (qb + qc) % 4 if lead_even else (qb - qc) % 4
                if comb not in (0, 2):
                    continue
                s3 = abs(1 + cmath.exp(-1j * fc)) ** 2
                s4 = abs(1 - cmath.exp(-1j * fc)) ** 2
                wrong = s4 if comb == 0 else s3
                total += wrong / (s3 + s4)
                n += 1
    return total / n


def test_criterion_7_attack_dichotomy():
    label = "intercept-resend: invisible without checks, caught with them"
    try:
        t0 = time.perf_counter()
        # oracle fixed before the Monte Carlo runs
        oracle = _flat_substitute_check_error_oracle()
        assert oracle == pytest.approx(0.5)

        unchecked = SessionConfig(
            rounds=10_000,
            mean_photons_return=0.5,
            sample_prob=0.0,
            decoy_prob=0.0,
            eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
            master_seed=707,
        )
        stats_off = run_session(unchecked).stats
        assert stats_off.sifted_length > 1000
        assert stats_off.mismatches == 0          # sifted QBER exactly zero
        assert stats_off.eve_agreement == 1.0     # full key leakage
        assert stats_off.energy_alarms == 0

        checked = SessionConfig(
            rounds=10_000,
            mean_photons_return=0.5,
            sample_prob=0.2,
            eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
            master_seed=708,
        )
        stats_on = run_session(checked).stats
        assert stats_on.check_rounds_matched > 500
        # clicks within a round are correlated, so take one matched round as
        # the independent unit for the standard error
        se = math.sqrt(oracle * (1 - oracle) / stats_on.check_rounds_matched)
        assert stats_on.check_error_rate > oracle - 3 * se
        assert stats_on.alarm is True
        elapsed = time.perf_counter() - t0
    except AssertionError:
        fail_line(7, label)
        raise
    report(7, label, elapsed, 60.0)


def test_criterion_8_edge_slot_fraction(big_run):
    label = "edge-slot clicks arrive at 1/8 of single-click rounds"
    stats, sim_elapsed = big_run
    try:
        t0 = time.perf_counter()
        assert stats.n_single_click >= 100_000
        assert abs(stats.edge_fraction - 1 / 8) <= 0.01
        elapsed = sim_elapsed + (time.perf_counter() - t0)
    except AssertionError:
        fail_line(8, label)
        raise
    report(8, label, elapsed, 30.0)


def test_criterion_9_byte_identical_reruns(tmp_path):
    label = "same config and seed give byte-identical CSV output"
    try:
        t0 = time.perf_counter()
        config = {
            "seed": 909,
            "defaults": {"rounds": 2500, "mean_photons_return": 0.5},
            "experiments": [
                "baseline",
                {"name": "efficiency_scan", "stages": [1, 3]},
                "truth_table",
            ],
        }
        cfg_path = tmp_path / "acceptance.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli_main(["--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli_main(["--config", str(cfg_path), "--out", str(out2)]) == 0
        names = ("baseline.csv", "efficiency_scan.csv", "truth_table.csv")
        for name in names:
            first = (out1 / name).read_bytes()
            second = (out2 / name).read_bytes()
            assert len(first) > 0
            assert first == second
        elapsed = time.perf_counter() - t0
    except AssertionError:
        fail_line(9, label)
        raise
    report(9, label, elapsed, 60.0)
