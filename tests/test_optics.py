import cmath
import collections
import math
import sys

import numpy as np
import pytest

from dpsqkd.channel import ChannelParams, fiber_transmit, random_unitary
from dpsqkd.optics import (
    H_POL,
    DetectorParams,
    PulseTrain,
    attenuate,
    click_thresholds,
    coupler_mix,
    detect,
    faraday_reflect,
    jones_product,
    mzi_pass,
    phase_modulate,
)
from dpsqkd.phases import PHASE_0, PHASE_90, PHASE_180, QuantizedPhase

ISQ2 = 1 / math.sqrt(2)
#: a circular polarization: a unit Jones vector with a complex component
CIRCULAR = (ISQ2 + 0j, 1j * ISQ2)

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
    # a bool is no slot; a numpy integer is, as for the integer config fields
    with pytest.raises(ValueError, match="slot index"):
        PulseTrain.from_amplitudes({True: 1.0})
    train = PulseTrain.from_amplitudes({np.int64(2): 1.0})
    assert train.occupied_slots() == (2,) and train.amplitude(2) == 1.0


@pytest.mark.parametrize(
    "make, slot",
    [
        (lambda: PulseTrain(np.array([1, np.nan])), 1),
        (lambda: PulseTrain.from_amplitudes({0: 1.0, 3: complex(0.5, math.inf)}), 3),
        # abs(a) ** 2 overflows: Python raises OverflowError on it
        (lambda: PulseTrain.single(1, 1e200), 1),
        (lambda: PulseTrain.single(2, math.nextafter(math.sqrt(sys.float_info.max), math.inf)), 2),
    ],
    ids=["nan", "inf", "1e200", "above-largest"],
)
def test_train_rejects_non_finite_or_overflowing_amplitudes(make, slot):
    with pytest.raises(ValueError, match=f"slot {slot}: .* must be finite"):
        make()


def test_train_accepts_the_largest_amplitude_with_a_finite_energy():
    largest = math.sqrt(sys.float_info.max)
    assert math.isfinite(PulseTrain.single(0, largest * 1j).total_energy)
    # each slot's energy is finite though their sum is not
    assert PulseTrain(np.array([largest, largest])).total_energy == math.inf


def test_train_accepts_a_largest_slot_that_np_abs_rounds_up():
    # libm's hypot, as in the slot energies, decides: np.abs reads this
    # amplitude one ulp above the largest accepted magnitude
    a = cmath.rect(math.sqrt(sys.float_info.max), 2.6960016621281517)
    assert np.abs(a) > abs(a) == math.sqrt(sys.float_info.max)
    # two such slots overflow the sum, which sends the train to its slot check
    train = PulseTrain(np.array([a, a]))
    assert train.energies.tolist() == [abs(a) ** 2] * 2 and train.total_energy == math.inf


def test_train_energy_and_vacuum():
    t = PulseTrain.from_amplitudes({1: 1.0, 2: 1j, 5: -2.0})
    assert t.total_energy == pytest.approx(6.0)
    assert t.amplitude(3) == 0j
    assert len(PulseTrain.vacuum()) == 0


def test_total_energy_is_an_uncompensated_left_fold():
    # 1.0 + 1e-8 rounds back to 1.0 twice; a compensated sum, as Python
    # 3.12's sum() is, gives 1.0000000000000002
    train = PulseTrain(np.array([1.0, 1e-8, 1e-8]))
    assert train.total_energy == 1.0
    with pytest.raises(ValueError, match="read-only"):
        train.energies[0] = 0.0


def test_train_array_is_read_only_and_empty_slots_read_plus_zero():
    # transforms share arrays; an empty slot may hold a signed zero, but
    # reads as Python's 0j, and an occupied one as a Python complex
    train = PulseTrain.from_amplitudes({1: 1.0, 2: 1j})
    for port in (train, *mzi_pass(train, 2, PHASE_180)):
        with pytest.raises(ValueError, match="read-only"):
            port.amplitudes[0] = 1.0
        empty = port.amplitude(0)
        assert type(empty) is complex and empty == 0j
        assert math.copysign(1.0, empty.real) == math.copysign(1.0, empty.imag) == 1.0
        assert type(port.amplitude(2)) is complex and port.amplitude(2) != 0j


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
    out = phase_modulate(train, slice(1, None, 2), PHASE_180)
    for k in range(1, 9):
        expected = -1.0 if k % 2 == 1 else 1.0
        assert out.amplitude(k) == expected
    assert abs(out.total_energy - train.total_energy) < 1e-12


def test_phase_modulate_zero_is_identity():
    train = PulseTrain.from_amplitudes({1: 1.0, 2: 1j})
    assert phase_modulate(train, slice(None), PHASE_0) is train


def test_phase_modulate_quarter_turn():
    train = PulseTrain.single(3, 2.0)
    out = phase_modulate(train, [3], PHASE_90)
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
    for target in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="target_mean_photons"):
            attenuate(PulseTrain.single(1, 1.0), target)


def test_attenuate_far_above_the_train_energy():
    # target / energy overflows to inf, whose scale would make every slot
    # inf; the roots of target and energy are each finite
    train = PulseTrain.from_amplitudes({1: 1e-150, 2: 1e-150})  # energy 2e-300
    out = attenuate(train, 1e300)
    assert out.amplitude(1) == out.amplitude(2)
    assert out.total_energy == pytest.approx(1e300, rel=1e-12)


def test_attenuate_far_below_the_train_energy():
    # target / energy underflows to 0, whose scale would empty every slot;
    # the roots of target and energy are each nonzero
    train = PulseTrain.from_amplitudes({1: 1e150, 2: 1e150})  # energy 2e300
    out = attenuate(train, 1e-300)
    assert out.amplitude(1) == out.amplitude(2) != 0
    assert out.total_energy == pytest.approx(1e-300, rel=1e-12)


def test_attenuate_overflowing_train_fails():
    # each slot's |a|^2 is finite, their sum is not: the scale would be 0 and
    # the train would come back empty
    m = math.sqrt(sys.float_info.max)
    with pytest.raises(ValueError, match="total energy overflows"):
        attenuate(PulseTrain(np.array([m, m])), 1.0)


# --- the fiber's Jones step / faraday_reflect ----------------------------

LOSSLESS = ChannelParams()


def test_jones_identity():
    train = PulseTrain.from_amplitudes({1: 1.0, 2: 1j}, polarization=CIRCULAR)
    out = fiber_transmit(train, LOSSLESS, np.eye(2))
    for k in (1, 2):
        assert out.amplitude(k) == train.amplitude(k)
    assert out.polarization == train.polarization


def test_jones_rotation_h_to_v():
    rot = np.array([[0, -1], [1, 0]], dtype=complex)  # 90 degree rotation
    train = PulseTrain.single(1, 1.0, polarization=(1 + 0j, 0j))
    out = fiber_transmit(train, LOSSLESS, rot)
    p1, p2 = out.polarization
    assert abs(p1) < 1e-12 and abs(abs(p2) - 1) < 1e-12


def test_jones_inverse_roundtrip():
    rng = np.random.default_rng(5)
    polarization = jones_product(random_unitary(rng), H_POL)
    train = PulseTrain.from_amplitudes({1: 1.0, 4: 2j}, polarization=polarization)
    for _ in range(20):
        u = random_unitary(rng)
        back = fiber_transmit(fiber_transmit(train, LOSSLESS, u), LOSSLESS, u.conj().T)
        assert np.array_equal(back.amplitudes, train.amplitudes)
        pa, pb = back.polarization
        qa, qb = train.polarization
        assert abs(pa - qa) < 1e-10 and abs(pb - qb) < 1e-10


def test_faraday_image_of_horizontal():
    out = faraday_reflect(PulseTrain.single(1, 1.0, polarization=(1 + 0j, 0j)))
    p1, p2 = out.polarization
    # vertical up to a global phase
    assert abs(p1) < 1e-12 and abs(abs(p2) - 1) < 1e-12


def test_faraday_image_is_orthogonal_for_linear_states():
    # the rotation image is orthogonal to every linearly polarized input
    rng = np.random.default_rng(9)
    for _ in range(50):
        angle = rng.uniform(0.0, 2 * math.pi)
        pol = (complex(math.cos(angle)), complex(math.sin(angle)))
        out = faraday_reflect(PulseTrain.single(1, 1.0, polarization=pol))
        q1, q2 = out.polarization
        inner = pol[0].conjugate() * q1 + pol[1].conjugate() * q2
        assert abs(inner) < 1e-12


def test_plain_reflection_does_not_compensate():
    # dropping the mirror image breaks the cancellation: the round trip
    # then depends on the fiber (this is what the mirror is for)
    rng = np.random.default_rng(13)
    pol = CIRCULAR
    train = PulseTrain.single(1, 1.0, polarization=pol)
    drifted = 0
    for _ in range(20):
        u = random_unitary(rng)
        out = fiber_transmit(fiber_transmit(train, LOSSLESS, u), LOSSLESS, u.T)
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


# --- detection ------------------------------------------------------------


def detect_one(train, params, rng):
    """Clicks of a branch, paired with an empty one, gated on slots 0 ..
    (its last occupied slot) + 1, slot k reading draw k."""
    gate = range(max(train.occupied_slots(), default=0) + 2)
    pair = (("d", train), ("e", PulseTrain.vacuum()))
    return detect(pair, params, gate, rng.random(len(gate)))


def test_detect_vacuum_never_clicks():
    rng = np.random.default_rng(0)
    clicks = detect_one(PulseTrain.vacuum(), DetectorParams(), rng)
    assert clicks == []


def test_detect_saturated_slot_always_clicks():
    rng = np.random.default_rng(0)
    train = PulseTrain.single(2, 1000.0)  # |a|^2 = 1e6
    for _ in range(50):
        clicks = detect_one(train, DetectorParams(), rng)
        assert clicks == [("d", 2)]


def test_detect_zero_amplitude_slot_never_clicks():
    rng = np.random.default_rng(0)
    train = PulseTrain.from_amplitudes({5: 1e-200})  # occupied, energy 0
    for _ in range(200):
        assert detect_one(train, DetectorParams(), rng) == []


def test_detect_click_frequency_matches_poisson_model():
    # uniform 800-slot train with energy 0.1/8 per slot: per-slot click
    # probability is 1 - exp(-0.1/8); pooling the 800 identical slots over
    # 1e3 rows gives 8e5 Bernoulli samples, enough to pin the rate to well
    # under 2% relative
    rng = np.random.default_rng(1)
    slots = 800
    amp = math.sqrt(0.1 / 8)
    train = PulseTrain.from_amplitudes({k: amp for k in range(1, slots + 1)})
    params = DetectorParams(quantum_efficiency=1.0)
    rounds = 1_000
    total = 0
    for _ in range(rounds):
        total += len(detect_one(train, params, rng))
    expected = -math.expm1(-0.1 / 8)
    measured = total / (slots * rounds)
    assert abs(measured - expected) / expected < 0.02


def test_detect_dark_counts_on_empty_window():
    # a gate with no light, its slots empty, of zero energy or past the
    # train's end, dark-counts at the configured rate on every slot
    rng = np.random.default_rng(77)
    train = PulseTrain.from_amplitudes({3: 1e-200})
    params = DetectorParams(dark_count_prob=0.5)
    gate = range(1, 8)
    pair = (("d", train), ("e", PulseTrain.vacuum()))
    counts = 0
    trials = 2000
    for _ in range(trials):
        # the empty partner dark-counts too: count the first detector only
        clicks = detect(pair, params, gate, rng.random(8)[1:])
        counts += sum(d == "d" for d, _ in clicks)
    assert counts / (7 * trials) == pytest.approx(0.5, abs=0.05)


def test_detect_gates_every_slot_of_every_branch():
    # dark counts reach every gated slot, lit or empty, of both branches of
    # a pair, an empty one included; slot gate[i] reads draws[i], and
    # draws of another length than the gate's are rejected
    train = PulseTrain.from_amplitudes({1: 1.0, 3: 1e-200})
    params = DetectorParams(quantum_efficiency=0.5, dark_count_prob=0.1)
    branches = (("a", train), ("b", PulseTrain.vacuum()))
    gate = range(1, 7)
    p1 = {k: 0.1 for k in gate}
    p1[1] = -math.expm1(-0.5) + 0.1 + math.expm1(-0.5) * 0.1
    for i, k in enumerate(gate):
        u = np.full(len(gate), 0.99)
        u[i] = 0.0
        assert detect(branches, params, gate, u) == [("a", k)], k
    for draws in (np.full(5, 0.99), np.full(7, 0.99), np.full((1, 6), 0.99), [], 0.5):
        with pytest.raises(ValueError, match="one draw per gate slot"):
            detect(branches, params, gate, draws)
    # each slot's thresholds exactly: a first only below low, both below
    # first, b only below any, none at any
    for k in gate:
        first, low, reach = click_thresholds(p1[k], 0.1)
        for x, expected in (
            (np.nextafter(low, 0), [("a", k)]),
            (low, [("a", k), ("b", k)]),
            (np.nextafter(first, 0), [("a", k), ("b", k)]),
            (first, [("b", k)]),
            (np.nextafter(reach, 0), [("b", k)]),
            (reach, []),
        ):
            u = np.full(len(gate), 0.99)
            u[k - gate.start] = x
            assert detect(branches, params, gate, u) == expected, (k, x)


def test_detect_draws_one_uniform_per_gated_slot():
    # in slot order, the first detector of a slot first, a gated slot's one
    # uniform clicks each detector by the joint law (0.47 per lit slot here,
    # 0 per empty one without dark counts)
    lit = PulseTrain.from_amplitudes({k: 0.8 for k in range(1, 6)})
    branches = (("a", lit), ("b", PulseTrain.single(2, 0.8)))
    u = np.random.default_rng(5).random(6)[1:]
    gate = range(1, 6)
    clicks = detect(branches, DetectorParams(), gate, u)
    p = -math.expm1(-(0.8**2))
    expected = []
    for i, k in enumerate(gate):
        first, low, reach = click_thresholds(p, p if k == 2 else 0.0)
        x = u[i]
        expected += [(d, k) for d, hit in (("a", x < first), ("b", low <= x < reach)) if hit]
    assert clicks == expected and 0 < len(expected) < 6
    # without dark counts b's empty slots never click: at u = 0 only the
    # first detector of the pair does
    zeros = detect(branches, DetectorParams(), gate, np.zeros(len(gate)))
    assert zeros == [("a", k) for k in gate]


def test_detect_pair_follows_the_joint_law():
    # the one uniform of a slot clicks its two detectors independently:
    # over 5 slots of 8000 rows, each of a-only, b-only and both falls within
    # 5 binomial standard deviations of p1 (1 - p2), (1 - p1) p2 and p1 p2
    a = PulseTrain.from_amplitudes({k: math.sqrt(0.5) for k in range(1, 6)})
    b = PulseTrain.from_amplitudes({k: math.sqrt(1.2) for k in range(1, 6)})
    p1, p2 = -math.expm1(-0.5), -math.expm1(-1.2)
    gate, rows = range(1, 6), 8000
    rng = np.random.default_rng(29)
    counts = collections.Counter()
    for _ in range(rows):
        by_slot = collections.defaultdict(str)
        for d, k in detect((("a", a), ("b", b)), DetectorParams(), gate, rng.random(6)[1:]):
            by_slot[k] += d
        counts.update(by_slot.values())
    trials = rows * len(gate)
    for outcome, p in (("a", p1 * (1 - p2)), ("b", (1 - p1) * p2), ("ab", p1 * p2)):
        assert abs(counts[outcome] - trials * p) < 5 * math.sqrt(trials * p * (1 - p)), outcome


def test_detect_efficiency_scales_click_rate():
    rng = np.random.default_rng(3)
    train = PulseTrain.single(1, 1.0)
    half = DetectorParams(quantum_efficiency=0.5)
    rounds = 20_000
    clicks = sum(len(detect_one(train, half, rng)) for _ in range(rounds))
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
