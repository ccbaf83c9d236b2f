import math

import numpy as np
import pytest

from dpsqkd.channel import (
    BirefringenceMode,
    ChannelParams,
    EveKind,
    fiber_transmit,
    intercept_backward,
    intercept_forward,
    random_unitary,
    round_unitary,
)
from dpsqkd.optics import PulseTrain, attenuate, faraday_reflect
from dpsqkd.phases import PHASE_0, PHASE_90, PHASE_180, PHASE_270
from dpsqkd.session import SessionConfig, run_session
from dpsqkd.stations import (
    BitOutcome,
    CascadeConfig,
    Detector,
    alice_encode,
    bob_measure,
    bob_prepare,
    infer_bit,
)

ATTACK = EveKind.INTERCEPT_RESEND_REFERENCE


# --- fiber ------------------------------------------------------------------


def test_lossless_plain_fiber_is_identity():
    train = bob_prepare(CascadeConfig(3, PHASE_90), 1.0)
    out = fiber_transmit(train, ChannelParams())
    assert out is train


def test_three_db_halves_energy():
    train = PulseTrain.from_amplitudes({1: 1.0, 2: 1j})
    params = ChannelParams(loss_db=3.0103)
    out = fiber_transmit(train, params)
    assert out.total_energy == pytest.approx(train.total_energy / 2, rel=1e-3)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(loss_db=-1.0)
    assert ChannelParams(loss_db=10.0).transmittance == pytest.approx(0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss_db": math.nan},
        {"loss_db": math.inf},
        {"loss_db": 4000.0},  # the transmittance underflows to 0
        {"seed": -1},
        {"loss_db": True},
        {"loss_db": "3"},
    ],
    ids=["nan_loss", "inf_loss", "loss_4000_db", "negative_seed", "bool_loss", "str_loss"],
)
def test_channel_params_rejects_bad_input(kwargs):
    with pytest.raises(ValueError, match="loss_db|seed"):
        ChannelParams(**kwargs)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = random_unitary(rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_round_unitary_modes():
    rng = np.random.default_rng(1)
    assert round_unitary(ChannelParams(), rng) is None
    fixed = ChannelParams(birefringence_mode=BirefringenceMode.FIXED_UNITARY, seed=5)
    u1 = round_unitary(fixed, rng)
    u2 = round_unitary(fixed, rng)
    assert np.array_equal(u1, u2)
    per_train = ChannelParams(birefringence_mode=BirefringenceMode.RANDOM_PER_TRAIN)
    v1 = round_unitary(per_train, rng)
    v2 = round_unitary(per_train, rng)
    assert not np.allclose(v1, v2)


def test_roundtrip_returns_fiber_independent_statistics():
    # full mirror trip through 50 random fibers: detector-level energies and
    # polarizations must match the identity channel to 1e-10
    rng = np.random.default_rng(4)
    cfg = CascadeConfig(3, PHASE_90)
    prepared = bob_prepare(cfg, 1.0)

    def trip(unitary, params):
        t = fiber_transmit(prepared, params, unitary)
        t = alice_encode(attenuate(t, 0.1), PHASE_180)
        t = faraday_reflect(t)
        t = fiber_transmit(t, params, None if unitary is None else unitary.T)
        return bob_measure(t, cfg)

    ref1, ref2 = trip(None, ChannelParams())
    params = ChannelParams(birefringence_mode=BirefringenceMode.RANDOM_PER_TRAIN)
    for _ in range(50):
        u = random_unitary(rng)
        d1, d2 = trip(u, params)
        for ref, port in ((ref1, d1), (ref2, d2)):
            assert port.occupied_slots() == ref.occupied_slots()
            for k in ref.occupied_slots():
                assert abs(abs(port.amplitude(k)) - abs(ref.amplitude(k))) < 1e-10
            a = np.array(port.polarization)
            b = np.array(ref.polarization)
            phase = np.vdot(b, a)
            phase /= abs(phase)
            assert np.linalg.norm(a - phase * b) < 1e-10


# --- intercept-resend forward leg --------------------------------------------


def test_substitute_train_is_flat_with_matching_energies():
    original = bob_prepare(CascadeConfig(3, PHASE_270), 2.0)
    substitute = intercept_forward(original)
    assert substitute.occupied_slots() == original.occupied_slots()
    for k in original.occupied_slots():
        # per-slot energy identical, all differential phases zero
        assert abs(substitute.amplitude(k)) ** 2 == abs(original.amplitude(k)) ** 2
        assert substitute.amplitude(k).imag == 0.0
        assert substitute.amplitude(k).real > 0.0
    assert substitute.total_energy == original.total_energy


def test_substitute_passes_energy_monitor_at_zero_tolerance():
    from dpsqkd.stations import alice_energy_monitor

    original = bob_prepare(CascadeConfig(3, PHASE_90), 1.5)
    substitute = intercept_forward(original)
    assert alice_energy_monitor(substitute, original.total_energy, 0.0) is False


def test_substitute_energy_match_survives_fiber_loss():
    params = ChannelParams(loss_db=7.5)
    original = bob_prepare(CascadeConfig(3, PHASE_90), 1.0)
    honest_arrival = fiber_transmit(original, params)
    attack_arrival = fiber_transmit(intercept_forward(original), params)
    rel = abs(attack_arrival.total_energy - honest_arrival.total_energy)
    assert rel / honest_arrival.total_energy < 1e-12


# --- intercept-resend backward leg --------------------------------------------


@pytest.mark.parametrize("key_phase,expected_bit", [(PHASE_0, BitOutcome.BIT0), (PHASE_180, BitOutcome.BIT1)])
def test_attack_reads_and_replays_alice_key(key_phase, expected_bit):
    cfg = CascadeConfig(3, PHASE_90)
    prepared = bob_prepare(cfg, 8.0)

    to_alice = intercept_forward(prepared)
    reflected = faraday_reflect(alice_encode(attenuate(to_alice, 0.4), key_phase))
    to_bob, inferred = intercept_backward(reflected, prepared, to_alice)

    assert inferred == key_phase
    assert to_bob.total_energy == pytest.approx(0.4, rel=1e-12)
    # Bob's interference stays deterministic: every inner slot lights exactly
    # the detector the honest train would have lit
    d1, d2 = bob_measure(to_bob, cfg)
    h1, h2 = bob_measure(
        faraday_reflect(alice_encode(attenuate(prepared, 0.4), key_phase)), cfg
    )
    for k in range(2, 9):
        assert (abs(d1.amplitude(k)) > 1e-9) == (abs(h1.amplitude(k)) > 1e-9)
        assert (abs(d2.amplitude(k)) > 1e-9) == (abs(h2.amplitude(k)) > 1e-9)
        lit = Detector.D1 if abs(d1.amplitude(k)) > 1e-9 else Detector.D2
        from dpsqkd.optics import ClickEvent

        assert infer_bit(ClickEvent(lit, k), cfg) is expected_bit


def test_attack_handles_vacuum_return():
    prepared = bob_prepare(CascadeConfig(2, PHASE_0), 1.0)
    substitute = intercept_forward(prepared)
    out, inferred = intercept_backward(PulseTrain.vacuum(), prepared, substitute)
    assert out.total_energy == 0.0
    assert inferred is None


def test_attack_with_rotated_reference_phase():
    # the substitute's common phase is Eve's choice; inference is relative to
    # her own reference so any fixed value works
    prepared = bob_prepare(CascadeConfig(3, PHASE_0), 4.0)
    to_alice = intercept_forward(prepared, substitute_phase=PHASE_90)
    reflected = faraday_reflect(alice_encode(attenuate(to_alice, 0.2), PHASE_180))
    _, inferred = intercept_backward(reflected, prepared, to_alice)
    assert inferred == PHASE_180


# --- session-level dichotomy ---------------------------------------------------


def test_attack_is_invisible_without_checks():
    cfg = SessionConfig(
        rounds=1500,
        mean_photons_return=0.5,
        sample_prob=0.0,
        decoy_prob=0.0,
        eve_kind=ATTACK,
        master_seed=31,
    )
    stats = run_session(cfg).stats
    assert stats.sifted_length > 200
    assert stats.mismatches == 0
    assert stats.eve_agreement == 1.0
    assert stats.energy_alarms == 0


def test_checks_expose_the_attack():
    # matched-basis error rate for a flat substitute is 1/2 on average,
    # far above any sane threshold
    cfg = SessionConfig(
        rounds=2000,
        mean_photons_return=0.5,
        sample_prob=0.2,
        eve_kind=ATTACK,
        master_seed=32,
    )
    stats = run_session(cfg).stats
    assert stats.check_rounds_matched > 100
    assert stats.check_error_rate > 0.4
    assert stats.alarm is True


def test_honest_sessions_have_zero_check_errors():
    cfg = SessionConfig(
        rounds=800, mean_photons_return=0.5, sample_prob=0.3, master_seed=33
    )
    stats = run_session(cfg).stats
    assert stats.check_compared > 500
    assert stats.check_errors == 0
    assert stats.check_error_rate == 0.0
