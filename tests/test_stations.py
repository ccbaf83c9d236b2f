import cmath
import math

import numpy as np
import pytest

from dpsqkd.optics import (
    ClickEvent,
    DetectorParams,
    PulseTrain,
    detect,
    phase_modulate,
)
from dpsqkd.phases import (
    KEY_PHASES,
    PHASE_0,
    PHASE_90,
    PHASE_180,
    PHASE_270,
    QUATERNARY,
    QuantizedPhase,
)
from dpsqkd.stations import (
    BitOutcome,
    CascadeConfig,
    Detector,
    ProtocolError,
    alice_check_ports,
    alice_decoy_positions,
    alice_encode,
    alice_energy_monitor,
    alice_score_check,
    bob_measure,
    bob_prepare,
    check_expected_detector,
    infer_bit,
    key_slot,
    odd_slots,
)
from dpsqkd.session import SessionConfig, run_session


def chain_dense(source: complex, stages, phases_rad):
    """Independent preparation oracle: closed-form constructive-port
    recurrence x'(k) = i (x(k) + e^{-i p} x(k - d)) / 2, chained by hand."""
    amps = {1: source}
    for d, p in zip(stages, phases_rad):
        f = cmath.exp(-1j * p)
        keys = sorted(set(amps) | {k + d for k in amps})
        amps = {k: 1j * (amps.get(k, 0) + f * amps.get(k - d, 0)) / 2 for k in keys}
    return amps


# --- cascade config -------------------------------------------------------


def test_cascade_delays_halve_to_one():
    cfg = CascadeConfig(3, PHASE_0)
    assert cfg.delays == (4, 2, 1)
    assert cfg.train_slots == 8
    assert cfg.edge_slots == (1, 9)
    assert cfg.gate == range(1, 10)
    assert CascadeConfig(1, PHASE_0).delays == (1,)
    assert CascadeConfig(5, PHASE_0).delays == (16, 8, 4, 2, 1)


def test_cascade_rejects_zero_stages():
    with pytest.raises(ValueError):
        CascadeConfig(0, PHASE_0)
    # a float or bool stage count, or a bare number for the phase, is
    # rejected naming its field
    for n_stages, bob_phase, field in (
        (2.5, PHASE_0, "n_stages"),
        (True, PHASE_0, "n_stages"),
        (3, 1, "bob_phase"),
    ):
        with pytest.raises(ValueError, match=field):
            CascadeConfig(n_stages, bob_phase)


# --- bob_prepare ----------------------------------------------------------


def test_prepare_three_stages_quarter_turn():
    train = bob_prepare(CascadeConfig(3, PHASE_90), 1.0)
    assert train.occupied_slots() == tuple(range(1, 9))
    for k in range(1, 9):
        assert abs(abs(train.amplitude(k)) - 1 / 8) < 1e-12
    # even slots trail the odd slots by exp(-i pi/2) = -i
    for k in range(2, 9, 2):
        ratio = train.amplitude(k) / train.amplitude(k - 1)
        assert abs(ratio - (-1j)) < 1e-12


def test_prepare_single_stage_equal_phases():
    train = bob_prepare(CascadeConfig(1, PHASE_0), 1.0)
    assert train.occupied_slots() == (1, 2)
    assert abs(train.amplitude(1) - train.amplitude(2)) < 1e-12


def test_prepare_two_stages_sign_flip():
    train = bob_prepare(CascadeConfig(2, PHASE_180), 1.0)
    assert train.occupied_slots() == (1, 2, 3, 4)
    expected = chain_dense(1.0, (2, 1), (0.0, math.pi))
    for k in range(1, 5):
        assert abs(train.amplitude(k) - expected[k]) < 1e-12
    # slots {1, 3} in phase, slots {2, 4} flipped
    assert abs(train.amplitude(3) - train.amplitude(1)) < 1e-12
    assert abs(train.amplitude(2) + train.amplitude(1)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("qt", [0, 1, 2, 3])
def test_prepare_matches_dense_chain(n, qt):
    cfg = CascadeConfig(n, QuantizedPhase(qt))
    phases = [0.0] * (n - 1) + [qt * math.pi / 2]
    expected = chain_dense(2.0, cfg.delays, phases)
    train = bob_prepare(cfg, 2.0)
    for k in range(1, 2 ** n + 1):
        assert abs(train.amplitude(k) - expected[k]) < 1e-12


# --- alice_encode ---------------------------------------------------------


def test_encode_zero_phase_is_identity():
    train = bob_prepare(CascadeConfig(3, PHASE_90), 1.0)
    assert alice_encode(train, PHASE_0) is train


def test_encode_pi_negates_odd_slots():
    train = bob_prepare(CascadeConfig(3, PHASE_0), 1.0)
    out = alice_encode(train, PHASE_180)
    for k in range(1, 9):
        sign = -1 if k % 2 == 1 else 1
        assert abs(out.amplitude(k) - sign * train.amplitude(k)) < 1e-15


def test_encode_twice_is_identity():
    train = bob_prepare(CascadeConfig(2, PHASE_90), 1.0)
    twice = alice_encode(alice_encode(train, PHASE_180), PHASE_180)
    for k in range(1, 5):
        assert twice.amplitude(k) == train.amplitude(k)


def test_encode_rejects_non_key_phase():
    train = bob_prepare(CascadeConfig(1, PHASE_0), 1.0)
    with pytest.raises(ProtocolError):
        alice_encode(train, PHASE_90)


# --- bob_measure and the readout truth table -------------------------------


def roundtrip(phase_a, phase_b, n=3):
    cfg = CascadeConfig(n, phase_b)
    encoded = alice_encode(bob_prepare(cfg, 1.0), phase_a)
    return bob_measure(encoded, cfg), cfg


def test_measure_both_phases_zero_all_light_at_d1():
    (d1, d2), _ = roundtrip(PHASE_0, PHASE_0)
    for k in range(2, 9):
        assert abs(d1.amplitude(k)) > 1e-9
        assert abs(d2.amplitude(k)) < 1e-12


def test_measure_alice_pi_even_slots_move_to_d2():
    (d1, d2), _ = roundtrip(PHASE_180, PHASE_0)
    for k in (2, 4, 6, 8):
        assert abs(d1.amplitude(k)) < 1e-12
        assert abs(d2.amplitude(k)) > 1e-9


def test_measure_bob_quarter_turn_odd_slots_move_to_d2():
    (d1, d2), _ = roundtrip(PHASE_0, PHASE_90)
    for k in (3, 5, 7):
        assert abs(d1.amplitude(k)) < 1e-12
        assert abs(d2.amplitude(k)) > 1e-9
    for k in (2, 4, 6, 8):
        assert abs(d1.amplitude(k)) > 1e-9
        assert abs(d2.amplitude(k)) < 1e-12


@pytest.mark.parametrize("qa", [0, 2])
@pytest.mark.parametrize("qb", [0, 1, 2, 3])
def test_readout_is_deterministic_and_correct(qa, qb):
    # for every phase combination and every inner slot exactly one detector
    # is lit, and decoding that click returns Alice's phase
    phase_a, phase_b = QuantizedPhase(qa), QuantizedPhase(qb)
    (d1, d2), cfg = roundtrip(phase_a, phase_b)
    expected_bit = BitOutcome.BIT0 if qa == 0 else BitOutcome.BIT1
    for k in range(2, 9):
        lit1 = abs(d1.amplitude(k)) > 1e-9
        lit2 = abs(d2.amplitude(k)) > 1e-9
        assert lit1 != lit2
        detector = Detector.D1 if lit1 else Detector.D2
        assert infer_bit(ClickEvent(detector, k), cfg) is expected_bit


@pytest.mark.parametrize("qa", [0, 2])
@pytest.mark.parametrize("qb", [0, 1, 2, 3])
def test_edge_slots_split_evenly(qa, qb):
    (d1, d2), cfg = roundtrip(QuantizedPhase(qa), QuantizedPhase(qb))
    for k in cfg.edge_slots:
        assert abs(abs(d1.amplitude(k)) - abs(d2.amplitude(k))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_inner_energy_fraction_is_exact(n):
    cfg = CascadeConfig(n, PHASE_90)
    encoded = alice_encode(bob_prepare(cfg, 1.0), PHASE_180)
    d1, d2 = bob_measure(encoded, cfg)
    total = d1.total_energy + d2.total_energy
    first, last = cfg.edge_slots
    inner = sum(
        abs(d1.amplitude(k)) ** 2 + abs(d2.amplitude(k)) ** 2
        for k in range(first + 1, last)
    )
    assert abs(inner / total - (2 ** n - 1) / 2 ** n) < 1e-12


# --- infer_bit ------------------------------------------------------------


def test_infer_even_slot_ignores_bob_phase():
    for qb in range(4):
        cfg = CascadeConfig(3, QuantizedPhase(qb))
        assert infer_bit(ClickEvent(Detector.D1, 4), cfg) is BitOutcome.BIT0
        assert infer_bit(ClickEvent(Detector.D2, 4), cfg) is BitOutcome.BIT1


def test_infer_odd_slot_uses_doubled_bob_phase():
    # 2 * (pi/2) = pi, so a D2 click at an odd slot decodes to phase 0
    cfg = CascadeConfig(3, PHASE_90)
    assert infer_bit(ClickEvent(Detector.D2, 5), cfg) is BitOutcome.BIT0
    assert infer_bit(ClickEvent(Detector.D1, 5), cfg) is BitOutcome.BIT1


def test_infer_edge_slots_discarded():
    cfg = CascadeConfig(3, PHASE_0)
    assert infer_bit(ClickEvent(Detector.D1, 1), cfg) is BitOutcome.DISCARD
    assert infer_bit(ClickEvent(Detector.D2, 9), cfg) is BitOutcome.DISCARD


def test_infer_rejects_check_detectors():
    cfg = CascadeConfig(3, PHASE_0)
    with pytest.raises(ProtocolError):
        infer_bit(ClickEvent(Detector.D3, 4), cfg)


# --- energy monitor -------------------------------------------------------


def test_energy_monitor_quiet_on_match():
    train = PulseTrain.from_amplitudes({k: 1.0 for k in range(8)})
    assert alice_energy_monitor(train, 8.0, 0.0) is False


def test_energy_monitor_alarms_on_double_energy():
    train = PulseTrain.from_amplitudes({k: 1.0 for k in range(8)})
    assert alice_energy_monitor(train, 4.0, 0.2) is True


def test_energy_monitor_blind_to_flat_phase_substitution():
    # a substitute train with matching per-slot intensity but no phase
    # structure passes the energy check; only the interferometric check can
    # tell them apart
    honest = bob_prepare(CascadeConfig(3, PHASE_90), 1.0)
    flat = PulseTrain.from_amplitudes(
        {k: abs(honest.amplitude(k)) for k in honest.occupied_slots()}
    )
    assert alice_energy_monitor(flat, honest.total_energy, 0.0) is False


def test_energy_monitor_rejects_bad_expectation():
    # a NaN or infinite expectation or tolerance would never raise the alarm
    train = PulseTrain.single(1, 1.0)
    for expected, tolerance in ((0.0, 0.1), (math.nan, 0.05), (math.inf, 0.05)):
        with pytest.raises(ValueError, match="expected_energy"):
            alice_energy_monitor(train, expected, tolerance)
    for tolerance in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="rel_tolerance"):
            alice_energy_monitor(train, 1.0, tolerance)


# --- sampling check -------------------------------------------------------


def check_clicks(train, check_phase, rng):
    """Sample the check interferometer's D3/D4 clicks for a 3-stage ``train``
    gated on slots 1 .. 9: gate slot k of both detectors reads uniform k of
    a hand-built row of 10."""
    gate = CascadeConfig(3, PHASE_0).gate
    ports = alice_check_ports(train, check_phase)
    return detect(ports, DetectorParams(), gate, rng.random(10)[1:])


def test_sample_prob_zero_never_diverts():
    # the per-train sampling draw is made by the round
    records = run_session(SessionConfig(rounds=100, sample_prob=0.0)).records
    assert not any(r.sampled or r.check_clicks for r in records)


def test_sampled_honest_train_clicks_one_deterministic_port():
    # strong pulses, matched basis (both phases zero): all inner-slot light
    # exits D3 and D4 stays dark
    rng = np.random.default_rng(1)
    train = bob_prepare(CascadeConfig(3, PHASE_0), 64.0)
    clicks = check_clicks(train, PHASE_0, rng)
    inner = [c for c in clicks if 2 <= c.slot <= 8]
    assert inner and all(c.detector is Detector.D3 for c in inner)


def test_sampled_flat_train_contradicts_announced_phase():
    # a flat-phase substitute behaves like bob_phase = 0; when pi is the
    # announced phase the matched-basis expectation is D4, so every observed
    # D3 click is a check error
    rng = np.random.default_rng(2)
    honest = bob_prepare(CascadeConfig(3, PHASE_180), 64.0)
    flat = PulseTrain.from_amplitudes(
        {k: abs(honest.amplitude(k)) for k in honest.occupied_slots()}
    )
    clicks = check_clicks(flat, PHASE_0, rng)
    inner = [c for c in clicks if 2 <= c.slot <= 8]
    assert inner
    for c in inner:
        expected = check_expected_detector(PHASE_180, PHASE_0, c.slot)
        assert expected is Detector.D4
        assert c.detector is Detector.D3  # wrong port: error detected


def test_sample_and_check_rejects_bad_basis():
    with pytest.raises(ProtocolError):
        alice_check_ports(PulseTrain.single(1, 1.0), PHASE_180)


# --- check_expected_detector -----------------------------------------------

# one slot of each parity: an odd slot combines bob + check, an even one
# bob - check
ODD_AND_EVEN_SLOTS = (3, 2)


def test_check_outcome_matched_constructive():
    for slot in ODD_AND_EVEN_SLOTS:
        assert check_expected_detector(PHASE_0, PHASE_0, slot) is Detector.D3


def test_check_outcome_matched_destructive():
    for slot in ODD_AND_EVEN_SLOTS:
        assert check_expected_detector(PHASE_180, PHASE_0, slot) is Detector.D4


def test_check_outcome_unmatched_bases():
    for slot in ODD_AND_EVEN_SLOTS:
        assert check_expected_detector(PHASE_90, PHASE_0, slot) is None


def test_check_outcome_agrees_with_interference():
    # brute force: build the incoming train for each bob phase, pass it
    # through the check stage, and confirm the predicted port is the lit one
    from dpsqkd.optics import mzi_pass

    for qb in range(4):
        phase_b = QuantizedPhase(qb)
        train = bob_prepare(CascadeConfig(3, phase_b), 1.0)
        for qc in (0, 1):
            check = QuantizedPhase(qc)
            d4, d3 = mzi_pass(train, 1, check)
            for k in range(2, 9):
                expected = check_expected_detector(phase_b, check, k)
                e3, e4 = abs(d3.amplitude(k)), abs(d4.amplitude(k))
                if expected is Detector.D3:
                    assert e3 > 1e-9 and e4 < 1e-12
                elif expected is Detector.D4:
                    assert e4 > 1e-9 and e3 < 1e-12
                else:
                    assert abs(e3 - e4) < 1e-12 and e3 > 1e-9


def test_check_expected_detector_rejects_bad_basis():
    with pytest.raises(ProtocolError):
        check_expected_detector(PHASE_0, PHASE_180, 3)


# --- alice_score_check -------------------------------------------------------


def test_score_check_unmatched_bases_compares_nothing():
    cascade = CascadeConfig(3, PHASE_90)
    clicks = [ClickEvent(Detector.D3, 4), ClickEvent(Detector.D4, 5)]
    assert alice_score_check(clicks, cascade, PHASE_0) == (False, 0, 0)


def test_score_check_leaves_out_edge_slots():
    # bob 0, check 0: every inner slot predicts D3, so D4 clicks on the two
    # edge slots (1 and 9 at n=3) would be errors if they were compared
    cascade = CascadeConfig(3, PHASE_0)
    clicks = [ClickEvent(Detector.D4, 1), ClickEvent(Detector.D3, 4), ClickEvent(Detector.D4, 9)]
    assert alice_score_check(clicks, cascade, PHASE_0) == (True, 1, 0)


def test_score_check_counts_one_wrong_port_inner_click():
    cascade = CascadeConfig(3, PHASE_180)
    clicks = [ClickEvent(Detector.D4, 2), ClickEvent(Detector.D3, 5), ClickEvent(Detector.D4, 7)]
    assert alice_score_check(clicks, cascade, PHASE_0) == (True, 3, 1)


def test_score_check_matched_train_scores_clean():
    # the honest train in a matched basis lights only the predicted port
    rng = np.random.default_rng(4)
    for phase_b, check in ((PHASE_0, PHASE_0), (PHASE_90, PHASE_90), (PHASE_270, PHASE_90)):
        cascade = CascadeConfig(3, phase_b)
        clicks = check_clicks(bob_prepare(cascade, 64.0), check, rng)
        inner = [c for c in clicks if 2 <= c.slot <= 8]
        assert inner
        assert alice_score_check(clicks, cascade, check) == (True, len(inner), 0)


def test_key_slot_is_the_odd_slot_read():
    assert [key_slot(k) for k in range(2, 9)] == [1, 3, 3, 5, 5, 7, 7]


# --- decoy replacement -----------------------------------------------------


def test_decoy_prob_zero_equals_plain_encode():
    train = bob_prepare(CascadeConfig(3, PHASE_90), 1.0)
    positions = alice_decoy_positions(odd_slots(train), 0.0, [])  # reads no uniform
    assert positions == ()
    out = alice_encode(train, PHASE_180, positions, PHASE_90)
    plain = alice_encode(train, PHASE_180)
    for k in range(1, 9):
        assert out.amplitude(k) == plain.amplitude(k)


def test_decoy_prob_one_zero_phase_leaves_odd_slots_unmodulated():
    u = np.random.default_rng(0).random(4).tolist()
    train = bob_prepare(CascadeConfig(3, PHASE_0), 1.0)
    positions = alice_decoy_positions(odd_slots(train), 1.0, u)
    assert positions == (1, 3, 5, 7)
    out = alice_encode(train, PHASE_180, positions, PHASE_0)
    for k in range(1, 9):
        assert out.amplitude(k) == train.amplitude(k)


def test_decoy_replacement_fraction_is_binomial():
    n_odd = 100_000
    u = np.random.default_rng(8).random(n_odd).tolist()
    train = PulseTrain.from_amplitudes({2 * i + 1: 1.0 for i in range(n_odd)})
    positions = alice_decoy_positions(odd_slots(train), 0.5, u)
    assert len(positions) / n_odd == pytest.approx(0.5, abs=0.01)


def test_decoy_marks_replaced_phase():
    u = np.random.default_rng(8).random(4).tolist()
    train = PulseTrain.from_amplitudes({k: 1.0 for k in range(1, 9)})
    positions = alice_decoy_positions(odd_slots(train), 0.5, u)
    assert positions == tuple(k for k in (1, 3, 5, 7) if u[k // 2] < 0.5)
    out = alice_encode(train, PHASE_180, positions, PHASE_90)
    for k in range(1, 9, 2):
        expected = -1j if k in positions else -1.0
        assert out.amplitude(k) == expected
    for k in range(2, 9, 2):
        assert out.amplitude(k) == 1.0


def test_decoy_keeps_polarization_and_energy():
    # every slot keeps its Jones vector and energy; odd slots carry exactly
    # the key or the decoy modulation, as the returned positions say
    u = np.random.default_rng(2).random(16).tolist()
    pol = (0.6 + 0j, 0.48 + 0.64j)  # a unit Jones vector: 0.36 + 0.2304 + 0.4096 = 1
    prepared = bob_prepare(CascadeConfig(5, PHASE_90), 1.0)
    train = PulseTrain.from_amplitudes(
        {k: prepared.amplitude(k) for k in prepared.occupied_slots()}, pol
    )
    positions = alice_decoy_positions(odd_slots(train), 0.5, u)
    out = alice_encode(train, PHASE_180, positions, PHASE_90)
    odd = [k for k in train.occupied_slots() if k % 2 == 1]
    assert positions == tuple(sorted(positions)) and set(positions) <= set(odd)
    assert 0 < len(positions) < len(odd)
    keyed = phase_modulate(train, slice(None), PHASE_180)
    decoyed = phase_modulate(train, slice(None), PHASE_90)
    assert set(out.occupied_slots()) == set(train.occupied_slots())
    assert out.polarization == train.polarization
    for k in train.occupied_slots():
        a, q = train.amplitude(k), out.amplitude(k)
        assert abs(q) ** 2 == pytest.approx(abs(a) ** 2, rel=1e-12)
        if k % 2 == 0:
            expected = a
        elif k in positions:
            expected = decoyed.amplitude(k)
        else:
            expected = keyed.amplitude(k)
        assert q == expected


def test_decoy_rejects_bad_phases():
    train = PulseTrain.single(1, 1.0)
    with pytest.raises(ProtocolError):
        alice_encode(train, PHASE_90, (1,), PHASE_0)
    with pytest.raises(ProtocolError):
        alice_encode(train, PHASE_0, (1,), PHASE_270)
