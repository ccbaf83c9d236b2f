import cmath
import math

import numpy as np
import pytest

from dpsqkd.channel import random_unitary
from dpsqkd.optics import (
    DetectorParams,
    PulseTrain,
    attenuate,
    click_table,
    coupler_mix,
    faraday_reflect,
    jones_apply,
    mzi_pass,
    phase_modulate,
    sample_clicks,
    unit_jones,
)
from dpsqkd.phases import PHASE_0, PHASE_90, PHASE_180, QuantizedPhase

ISQ2 = 1 / math.sqrt(2)

# the coupler convention as an explicit matrix, used as an independent check
COUPLER_MATRIX = np.array([[1, 1j], [1j, 1]]) * ISQ2


def dense_mzi(amps: dict, delay: int, phase_rad: float):
    """Closed-form single-pass oracle: port1 = (x[k] - e^{-i p} x[k-d]) / 2,
    port2 = i (x[k] + e^{-i p} x[k-d]) / 2. Independent of the coupler
    composition used by the library."""
    f = cmath.exp(-1j * phase_rad)
    keys = sorted(set(amps) | {k + delay for k in amps})
    p1 = {k: (amps.get(k, 0) - f * amps.get(k - delay, 0)) / 2 for k in keys}
    p2 = {k: 1j * (amps.get(k, 0) + f * amps.get(k - delay, 0)) / 2 for k in keys}
    return p1, p2


def train_amps(train: PulseTrain) -> dict:
    return dict(train.slots)


# --- coupler -------------------------------------------------------------


def test_coupler_single_port_splits_evenly():
    o1, o2 = coupler_mix(1, 0)
    assert abs(o1 - ISQ2) < 1e-12
    assert abs(o2 - 1j * ISQ2) < 1e-12


def test_coupler_vacuum():
    assert coupler_mix(0, 0) == (0j, 0j)


def test_coupler_balanced_input_exits_cross_port():
    # expected values from applying the 2x2 matrix directly
    vec_in = np.array([ISQ2, 1j * ISQ2])
    expected = COUPLER_MATRIX @ vec_in
    o1, o2 = coupler_mix(vec_in[0], vec_in[1])
    assert abs(o1 - expected[0]) < 1e-12 and abs(o2 - expected[1]) < 1e-12
    assert abs(o1) < 1e-12
    assert abs(o2 - 1j) < 1e-12


def test_coupler_unitarity_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        o1, o2 = coupler_mix(a, b)
        assert abs((abs(o1) ** 2 + abs(o2) ** 2) - (abs(a) ** 2 + abs(b) ** 2)) < 1e-12


# --- pulse train ---------------------------------------------------------


def test_train_rejects_bad_indices():
    with pytest.raises(ValueError):
        PulseTrain.from_amplitudes({-1: 1.0})
    with pytest.raises(ValueError):
        PulseTrain.from_amplitudes({1.5: 1.0})


def test_train_energy_and_vacuum():
    t = PulseTrain.from_amplitudes({1: 1.0, 2: 1j, 5: -2.0})
    assert t.total_energy == pytest.approx(6.0)
    assert t.amplitude(3) == 0j
    assert len(PulseTrain.vacuum()) == 0


def test_unit_jones():
    p = unit_jones(3, 4j)
    assert abs(abs(p[0]) ** 2 + abs(p[1]) ** 2 - 1) < 1e-12
    with pytest.raises(ValueError):
        unit_jones(0, 0)


# --- mzi_pass ------------------------------------------------------------


def test_mzi_single_pulse_splits_in_time():
    train = PulseTrain.single(1, 1.0)
    p1, p2 = mzi_pass(train, 4, PHASE_0)
    for port in (p1, p2):
        assert port.occupied_slots() == (1, 5)
        assert abs(abs(port.amplitude(1)) - 0.5) < 1e-12
        assert abs(abs(port.amplitude(5)) - 0.5) < 1e-12


def test_mzi_vacuum_in_vacuum_out():
    p1, p2 = mzi_pass(PulseTrain.vacuum(), 2, PHASE_90)
    assert len(p1) == 0 and len(p2) == 0


def test_mzi_two_pulse_interference_against_dense_oracle():
    amps = {1: ISQ2, 2: ISQ2}
    train = PulseTrain.from_amplitudes(amps)
    e1, e2 = dense_mzi(amps, 1, 0.0)
    p1, p2 = mzi_pass(train, 1, PHASE_0)
    for k in (1, 2, 3):
        assert abs(p1.amplitude(k) - e1[k]) < 1e-12
        assert abs(p2.amplitude(k) - e2[k]) < 1e-12
    # middle slot of the constructive port carries the full sum
    assert abs(abs(p2.amplitude(2)) - ISQ2) < 1e-12
    assert abs(p1.amplitude(2)) < 1e-12


@pytest.mark.parametrize("delay", [1, 2, 4])
@pytest.mark.parametrize("qt", [0, 1, 2, 3])
def test_mzi_matches_dense_oracle_random_trains(delay, qt):
    rng = np.random.default_rng(1000 + delay + 10 * qt)
    amps = {int(k): complex(a, b) for k, a, b in
            zip(rng.integers(0, 12, 6), rng.normal(size=6), rng.normal(size=6))}
    train = PulseTrain.from_amplitudes(amps)
    e1, e2 = dense_mzi(amps, delay, qt * math.pi / 2)
    p1, p2 = mzi_pass(train, delay, QuantizedPhase(qt))
    for k in set(e1) | set(e2):
        assert abs(p1.amplitude(k) - e1[k]) < 1e-12
        assert abs(p2.amplitude(k) - e2[k]) < 1e-12


def test_mzi_unitarity():
    rng = np.random.default_rng(7)
    for trial in range(50):
        n = rng.integers(1, 10)
        amps = {int(k): complex(a, b) for k, a, b in
                zip(rng.integers(0, 20, n), rng.normal(size=n), rng.normal(size=n))}
        train = PulseTrain.from_amplitudes(amps)
        p1, p2 = mzi_pass(train, int(rng.integers(1, 6)), QuantizedPhase(int(rng.integers(0, 4))))
        assert abs(p1.total_energy + p2.total_energy - train.total_energy) < 1e-12


def test_mzi_rejects_zero_delay():
    with pytest.raises(ValueError):
        mzi_pass(PulseTrain.single(1, 1.0), 0, PHASE_0)


# --- phase_modulate ------------------------------------------------------


def test_phase_modulate_negates_odd_slots():
    train = PulseTrain.from_amplitudes({k: 1.0 for k in range(1, 9)})
    out = phase_modulate(train, lambda k: k % 2 == 1, PHASE_180)
    for k in range(1, 9):
        expected = -1.0 if k % 2 == 1 else 1.0
        assert out.amplitude(k) == expected
    assert abs(out.total_energy - train.total_energy) < 1e-12


def test_phase_modulate_zero_is_identity():
    train = PulseTrain.from_amplitudes({1: 1.0, 2: 1j})
    assert phase_modulate(train, lambda k: True, PHASE_0) is train


def test_phase_modulate_quarter_turn():
    train = PulseTrain.single(3, 2.0)
    out = phase_modulate(train, lambda k: k == 3, PHASE_90)
    assert out.amplitude(3) == 2.0 * -1j


# --- attenuate -----------------------------------------------------------


def test_attenuate_rescales_to_target():
    train = PulseTrain.from_amplitudes({k: 1.0 for k in range(4)})  # energy 4
    out = attenuate(train, 0.1)
    scale = math.sqrt(0.1 / 4.0)
    for k in range(4):
        assert abs(out.amplitude(k) - scale) < 1e-15
    assert abs(out.total_energy - 0.1) < 1e-15


def test_attenuate_to_zero_gives_vacuum():
    out = attenuate(PulseTrain.single(1, 3.0), 0.0)
    assert len(out) == 0


def test_attenuate_identity():
    train = PulseTrain.single(1, 1.0)
    out = attenuate(train, 1.0)
    assert out.amplitude(1) == pytest.approx(1.0)


def test_attenuate_vacuum_to_positive_energy_fails():
    with pytest.raises(ValueError):
        attenuate(PulseTrain.vacuum(), 0.5)
    with pytest.raises(ValueError):
        attenuate(PulseTrain.single(1, 1.0), -0.1)


# --- jones_apply / faraday_reflect ---------------------------------------


def test_jones_identity():
    train = PulseTrain.from_amplitudes({1: 1.0, 2: 1j}, polarization=unit_jones(1, 1j))
    out = jones_apply(train, np.eye(2))
    for k in (1, 2):
        assert out.slots[k] == train.slots[k]
    assert out.polarization == train.polarization


def test_jones_rotation_h_to_v():
    rot = np.array([[0, -1], [1, 0]], dtype=complex)  # 90 degree rotation
    train = PulseTrain.single(1, 1.0, polarization=(1 + 0j, 0j))
    out = jones_apply(train, rot)
    p1, p2 = out.polarization
    assert abs(p1) < 1e-12 and abs(abs(p2) - 1) < 1e-12


def test_jones_inverse_roundtrip():
    rng = np.random.default_rng(5)
    train = PulseTrain.from_amplitudes({1: 1.0, 4: 2j}, polarization=unit_jones(1, 2 - 1j))
    for _ in range(20):
        u = random_unitary(rng)
        back = jones_apply(jones_apply(train, u), u.conj().T)
        assert back.slots == train.slots
        pa, pb = back.polarization
        qa, qb = train.polarization
        assert abs(pa - qa) < 1e-10 and abs(pb - qb) < 1e-10


def test_jones_rejects_non_unitary():
    with pytest.raises(ValueError):
        jones_apply(PulseTrain.single(1, 1.0), np.array([[1, 0], [0, 2]]))


def test_faraday_image_of_horizontal():
    out = faraday_reflect(PulseTrain.single(1, 1.0, polarization=(1 + 0j, 0j)))
    p1, p2 = out.polarization
    # vertical up to a global phase
    assert abs(p1) < 1e-12 and abs(abs(p2) - 1) < 1e-12


def test_faraday_image_is_orthogonal_for_linear_states():
    # the rotation image is orthogonal to every linearly polarized input
    rng = np.random.default_rng(9)
    for _ in range(50):
        pol = unit_jones(complex(rng.normal()), complex(rng.normal()))
        out = faraday_reflect(PulseTrain.single(1, 1.0, polarization=pol))
        q1, q2 = out.polarization
        inner = pol[0].conjugate() * q1 + pol[1].conjugate() * q2
        assert abs(inner) < 1e-12


def test_faraday_roundtrip_cancels_fiber_unitary():
    # forward unitary, mirror, transposed unitary backward (reciprocity)
    # must give a polarization independent of the fiber, up to one global
    # phase; exact because M^T R M = det(M) R for the rotation image R
    rng = np.random.default_rng(11)
    train = PulseTrain.from_amplitudes({1: 1.0, 2: 1j}, polarization=unit_jones(1, 1j))
    reference = faraday_reflect(train)
    for _ in range(100):
        u = random_unitary(rng)
        out = jones_apply(faraday_reflect(jones_apply(train, u)), u.T)
        assert out.slots == reference.slots
        a = np.array(out.polarization)
        b = np.array(reference.polarization)
        phase = np.vdot(b, a)
        phase /= abs(phase)
        assert np.linalg.norm(a - phase * b) < 1e-10


def test_plain_reflection_does_not_compensate():
    # dropping the mirror image breaks the cancellation: the round trip
    # then depends on the fiber (this is what the mirror is for)
    rng = np.random.default_rng(13)
    pol = unit_jones(1, 1j)
    train = PulseTrain.single(1, 1.0, polarization=pol)
    drifted = 0
    for _ in range(20):
        u = random_unitary(rng)
        out = jones_apply(jones_apply(train, u), u.T)
        a = np.array(out.polarization)
        b = np.array(pol)
        phase = np.vdot(b, a)
        if abs(phase) > 1e-12:
            a = a * (abs(phase) / phase)
        drifted += np.linalg.norm(a - b) > 1e-3
    assert drifted > 15


def test_faraday_preserves_amplitudes():
    train = PulseTrain.from_amplitudes({1: 1 + 2j, 3: -0.5j})
    out = faraday_reflect(train)
    for k in (1, 3):
        assert out.amplitude(k) == train.amplitude(k)


# --- detection: sample_clicks of click_table ------------------------------


def detect(train, params, rng):
    """Clicks of one branch whose slot k reads uniform k of a hand-built row."""
    table = click_table([("d", train)], params, (0,))
    return sample_clicks(table, rng.random(max(train.slots, default=0) + 2).tolist())


def test_detect_vacuum_never_clicks():
    rng = np.random.default_rng(0)
    clicks = detect(PulseTrain.vacuum(), DetectorParams(), rng)
    assert clicks == []


def test_detect_saturated_slot_always_clicks():
    rng = np.random.default_rng(0)
    train = PulseTrain.single(2, 1000.0)  # |a|^2 = 1e6
    for _ in range(50):
        clicks = detect(train, DetectorParams(), rng)
        assert clicks == [("d", 2)]


def test_detect_zero_amplitude_slot_never_clicks():
    rng = np.random.default_rng(0)
    train = PulseTrain({5: 0j})
    for _ in range(200):
        assert detect(train, DetectorParams(), rng) == []


def test_detect_click_frequency_matches_poisson_model():
    # uniform 8-slot train with total energy 0.1: per-slot click probability
    # is 1 - exp(-0.1/8); pooling the 8 identical slots over 1e5 rows gives
    # 8e5 Bernoulli samples, enough to pin the rate to well under 2% relative
    rng = np.random.default_rng(1)
    amp = math.sqrt(0.1 / 8)
    train = PulseTrain.from_amplitudes({k: amp for k in range(1, 9)})
    params = DetectorParams(quantum_efficiency=1.0)
    rounds = 100_000
    total = 0
    for _ in range(rounds):
        total += len(detect(train, params, rng))
    expected = -math.expm1(-0.1 / 8)
    measured = total / (8 * rounds)
    assert abs(measured - expected) / expected < 0.02


def test_detect_dark_counts_on_empty_window():
    # an occupied zero-amplitude slot gates its neighbourhood; dark counts
    # then fire at the configured rate
    rng = np.random.default_rng(77)
    train = PulseTrain({3: 0j})
    params = DetectorParams(dark_count_prob=0.5)
    counts = 0
    trials = 2000
    for _ in range(trials):
        counts += len(detect(train, params, rng))
    # window = slots {2, 3, 4}, each dark-firing independently at 0.5
    assert counts / (3 * trials) == pytest.approx(0.5, abs=0.05)


def test_click_table_gates_window_and_skips_empty_branches():
    # dark counts widen each branch to the occupied slots and their
    # neighbours; a branch with an empty window gets no entry and no draw;
    # slot k of a branch reads position (its column) + k
    train = PulseTrain({0: 1.0, 3: 0j})
    params = DetectorParams(quantum_efficiency=0.5, dark_count_prob=0.1)
    table = click_table([("a", train), ("b", PulseTrain.vacuum())], params, (10, 20))
    assert [(c.detector, c.slot) for c, _, _ in table] == [("a", k) for k in (0, 1, 2, 3, 4)]
    assert [j for _, j, _ in table] == [10, 11, 12, 13, 14]
    p0 = -math.expm1(-0.5)
    assert tuple(p for _, _, p in table) == (p0 + 0.1 - p0 * 0.1, 0.1, 0.1, 0.1, 0.1)


def test_sample_clicks_draws_one_uniform_per_gated_slot():
    # branch by branch in table order, a slot clicks iff the uniform at its
    # position is below its probability (0.47 per slot here); no other
    # uniform of the row is read
    train = PulseTrain.from_amplitudes({k: 0.8 for k in range(1, 6)})
    table = click_table(
        [("a", train), ("b", PulseTrain.single(2, 0.8))], DetectorParams(), (0, 6)
    )
    u = np.random.default_rng(5).random(9).tolist()
    clicks = sample_clicks(table, u)
    draws = u[1:6] + [u[8]]
    gated = [("a", k) for k in range(1, 6)] + [("b", 2)]
    probs = [p for _, _, p in table]
    expected = [c for c, d, p in zip(gated, draws, probs) if d < p]
    assert clicks == expected and 0 < len(expected) < 6
    for j in (0, 6, 7):
        assert sample_clicks(table, u[:j] + [1.0 - u[j]] + u[j + 1 :]) == clicks


def test_detect_efficiency_scales_click_rate():
    rng = np.random.default_rng(3)
    train = PulseTrain.single(1, 1.0)
    half = DetectorParams(quantum_efficiency=0.5)
    rounds = 20_000
    clicks = sum(len(detect(train, half, rng)) for _ in range(rounds))
    assert clicks / rounds == pytest.approx(-math.expm1(-0.5), abs=0.01)


def test_detector_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(quantum_efficiency=1.5)
    with pytest.raises(ValueError):
        DetectorParams(dark_count_prob=-0.1)
    # a value of the wrong type is rejected naming its field
    for field, value in (("quantum_efficiency", None), ("dark_count_prob", True)):
        with pytest.raises(ValueError, match=field):
            DetectorParams(**{field: value})
