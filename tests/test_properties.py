"""Property tests for the optics invariants: energy conservation per
interferometer pass, Faraday round-trip invariance (of the fiber's Jones
step, and of the two legs a reference round runs), slot energies and click
probabilities bit-for-bit equal to Python's ``abs``, ``**`` and
``math.expm1`` per slot, the joint law by which one uniform clicks a slot's
two detectors, the readout rule, and
the equivalence of the session kernel with the field-level reference round
(``session.reference_round``) over drawn session configs, round by round
and over sessions of several chunks, whose statistics and sifted bits do
not depend on the chunk budget. The kernel's statistics are checked
against a fold over the record view (``fold_stats`` below), also across
chunk edges, where its sifted bits are those of the records. A
session's records do not depend on the birefringence mode, since a session
never draws a fiber. The memoized phase tables of a config
equal a fresh build of them, also right after the tables of a link that
differs in one field they read, and their slot-class thresholds spread
over the gate equal the dense thresholds of the legs' trains, under
envelopes that no row exceeds. Bob's phase changes none of what the
tables keep once per link: the slot energies reaching Alice, her energy
monitor, her lit odd slots and the phase Eve reads back.

It also checks that every real-valued config field takes a float or names
itself in a ValueError, whatever value it is given; that every real and
integral config field takes each spelling of a number (int, float, numpy
scalars, Fraction) alike, down to one shared table object, and rejects
bools, NaN, infinities, strings and None by name; and that
``estimate_qber`` equals a plain loop over the disclosed bits.

Examples are derandomized so that every run of the suite checks the same
cases; the fixed-example tests in the other files stay as goldens.
"""

import cmath
import collections
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpsqkd.session
from dpsqkd.channel import (
    BirefringenceMode,
    ChannelParams,
    EveKind,
    eve_key_phase,
    fiber_transmit,
    random_unitary,
    round_unitary,
)
from dpsqkd.optics import (
    _MAX_AMPLITUDE,
    H_POL,
    ClickEvent,
    DetectorParams,
    DoubleClickPolicy,
    PulseTrain,
    attenuate,
    click_probabilities,
    click_thresholds,
    faraday_reflect,
    jones_product,
    mzi_pass,
)
from dpsqkd.phases import CHECK_PHASES, KEY_PHASES, QUATERNARY, QuantizedPhase
from dpsqkd.session import (
    SessionConfig,
    SessionStats,
    _forward_leg,
    _return_leg,
    build_phase_tables,
    estimate_qber,
    reference_round,
    round_uniforms,
    run_round,
    run_session,
)
from dpsqkd.stations import (
    BitOutcome,
    CascadeConfig,
    Detector,
    alice_check_ports,
    alice_encode,
    bob_measure,
    bob_prepare,
    infer_bit,
    odd_slots,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
amplitudes = st.builds(complex, finite, finite)
sparse_trains = st.dictionaries(st.integers(0, 40), amplitudes, max_size=12)
haar_unitaries = st.integers(0, 2**32 - 1).map(lambda s: random_unitary(np.random.default_rng(s)))
jones_vectors = haar_unitaries.map(lambda u: jones_product(u, H_POL))


@PROPERTY
@given(sparse_trains, st.integers(1, 16), st.integers(0, 3), jones_vectors)
def test_mzi_pass_conserves_energy(slots, delay, quarter_turns, polarization):
    train = PulseTrain.from_amplitudes(slots, polarization)
    p1, p2 = mzi_pass(train, delay, QuantizedPhase(quarter_turns))
    energy = train.total_energy
    assert abs(p1.total_energy + p2.total_energy - energy) <= 1e-12 * max(1.0, energy)
    assert p1.polarization == p2.polarization == polarization


@PROPERTY
@given(jones_vectors, haar_unitaries)
# a circular input, whose Jones vector has a complex component
@example((1 / math.sqrt(2) + 0j, 1j / math.sqrt(2)), random_unitary(np.random.default_rng(11)))
def test_faraday_round_trip_is_fiber_independent(polarization, u):
    # U forward, mirror, U transposed backward: the returned polarization is
    # the mirror image of the input up to one global phase, whatever U is;
    # the amplitudes come back bit for bit, so Bob's readout of them does too
    train = PulseTrain.from_amplitudes({1: 1.0, 2: 1j}, polarization)
    reference = faraday_reflect(train)
    fiber = ChannelParams()
    out = fiber_transmit(faraday_reflect(fiber_transmit(train, fiber, u)), fiber, u.T)
    assert np.array_equal(out.amplitudes, train.amplitudes)
    a, b = np.array(out.polarization), np.array(reference.polarization)
    phase = np.vdot(b, a)
    assert abs(abs(phase) - 1) < 1e-10
    assert np.linalg.norm(a - phase / abs(phase) * b) < 1e-10


# any phase and any magnitude a train accepts: 0, energies that underflow
# (|a| below about 1.5e-162), the photon numbers where expm1 rounds in earnest,
# the largest; and subnormal real and imaginary parts
magnitudes = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-150),
    st.floats(0.0, 4.0),
    st.floats(0.0, _MAX_AMPLITUDE),
)
subnormals = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
slot_amplitudes = st.one_of(
    st.builds(cmath.rect, magnitudes, st.floats(-math.pi, math.pi)).filter(
        lambda a: abs(a) <= _MAX_AMPLITUDE
    ),
    st.builds(complex, subnormals, subnormals),
)


@PROPERTY
@given(st.lists(slot_amplitudes, max_size=12), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
# np.expm1 rounds -0.7 * 0.8 ** 2 and -0.7 * 1.3 ** 2 otherwise than math.expm1
@example([0j, 5e-324j, complex(1e-200, -1e-200), 0.8 + 0j, 1.3j, _MAX_AMPLITUDE + 0j], 0.7, 0.01)
def test_energies_and_click_probabilities_follow_the_scalar_law(amplitudes, efficiency, dark):
    # the contract that keeps table bytes equal: per slot, the energy is
    # Python's abs(a) ** 2 and the click probability the closed form, exactly
    # on every slot, an empty one or one past the train's end included
    train = PulseTrain(np.array(amplitudes, dtype=np.complex128))
    p = click_probabilities(train, DetectorParams(efficiency, dark), range(len(amplitudes) + 2))
    assert p.dtype == np.float64 and len(p) == len(amplitudes) + 2
    for k, a in enumerate(amplitudes):
        energy = abs(a) ** 2
        signal = -math.expm1(-efficiency * energy)
        assert train.energies[k] == energy
        assert p[k] == signal + dark - signal * dark
        if energy == 0.0:
            assert p[k] == dark
    assert p[len(amplitudes) :].tolist() == [dark, dark]


#: click probabilities: the ends, dark-count sizes, the smallest normal and
#: subnormal floats, and any value in [0, 1]
click_probability_values = st.one_of(
    st.sampled_from((0.0, 1.0, 1e-6, 1e-3, 0.02, 2.2250738585072014e-308, 5e-324)),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0, 1.0),
)


@PROPERTY
@given(click_probability_values, click_probability_values)
def test_click_thresholds_follow_the_joint_law(p1, p2):
    # one uniform below first clicks the first detector, one in [low, any)
    # the second: the intervals must measure p1, p2 and p1 p2, each within a
    # few ulp of the largest threshold, the scale of their rounding
    first, low, reach = (a.item() for a in click_thresholds(np.array([p1]), np.array([p2])))
    assert 0.0 <= low <= first <= reach <= 1.0
    ulps = 4 * math.ulp(reach)
    assert first == p1
    assert abs((reach - low) - p2) <= ulps
    assert abs((first - low) - p1 * p2) <= ulps
    # a lone detector (p2 = 0) clicks below its own probability, and so does
    # the second when the first cannot click
    if p2 == 0.0:
        assert low == reach == p1
    if p1 == 0.0:
        assert low == 0.0 and reach == p2


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(source=amplitudes.filter(lambda a: abs(a) > 1e-3))
def test_readout_rule_for_every_phase_pair(n, source):
    # every inner slot lights exactly one of D1/D2 and that detector reads
    # Alice's bit; the two edge slots are discarded
    for phase_a in KEY_PHASES:
        alice_bit = BitOutcome.BIT0 if phase_a.quarter_turns == 0 else BitOutcome.BIT1
        for phase_b in QUATERNARY:
            cascade = CascadeConfig(n, phase_b)
            d1, d2 = bob_measure(alice_encode(bob_prepare(cascade, source), phase_a), cascade)
            slot_energy = abs(source) ** 2 / 4**n  # of each of the 2^n prepared slots
            tol = 1e-9 * slot_energy
            first, last = cascade.edge_slots
            for edge in (first, last):
                assert infer_bit(ClickEvent(Detector.D1, edge), cascade) is BitOutcome.DISCARD
            for k in range(first + 1, last):
                e1, e2 = abs(d1.amplitude(k)) ** 2, abs(d2.amplitude(k)) ** 2
                assert math.isclose(e1 + e2, slot_energy, rel_tol=1e-9)
                assert (e1 < tol) != (e2 < tol)
                lit = Detector.D1 if e2 < tol else Detector.D2
                assert infer_bit(ClickEvent(lit, k), cascade) is alice_bit


# --- the session kernel against the field-level reference ------------------


session_configs = st.builds(
    lambda n, eve, mode, decoy, dark, policy, sample, mu, loss, tolerance, seed: SessionConfig(
        n_stages=n,
        rounds=1,
        mean_photons_return=mu,
        sample_prob=sample,
        decoy_prob=decoy,
        energy_tolerance=tolerance,
        detector=DetectorParams(dark_count_prob=dark, double_click_policy=policy),
        channel=ChannelParams(loss_db=loss, birefringence_mode=mode),
        eve_kind=eve,
        master_seed=seed,
    ),
    st.sampled_from(range(1, 7)),
    st.sampled_from(EveKind),
    st.sampled_from(BirefringenceMode),
    st.sampled_from((0.0, 0.3, 1.0)),
    st.sampled_from((0.0, 0.02)),
    st.sampled_from(DoubleClickPolicy),
    st.sampled_from((0.0, 0.3, 1.0)),
    st.sampled_from((0.0, 0.5, 40.0)),
    st.sampled_from((0.0, 3.0)),
    # at zero tolerance, float rounding of the train energy trips the monitor
    st.sampled_from((0.05, 0.0)),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(session_configs, st.integers(0, 2**20))
@example(
    # Alice's attenuator raises the train 1e300 / 5e-28 times, a ratio that
    # overflows a float
    SessionConfig(
        n_stages=1, rounds=10, mean_photons_return=1e300, channel=ChannelParams(loss_db=300.0)
    ),
    0,
)
def test_table_rounds_equal_field_level_rounds(config, first_round):
    # run_round is the kernel on a chunk of one row; both read the same row
    # of uniforms at the same positions
    for i in range(first_round, first_round + 10):
        u = round_uniforms(config, i)
        assert run_round(config, i, u) == reference_round(config, i, u)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    session_configs,
    st.integers(0, 2**20),
    st.sampled_from(QUATERNARY),
    st.sampled_from(KEY_PHASES),
)
def test_round_legs_compensate_every_fiber(config, round_index, bob_phase, key_phase):
    # the legs reference_round runs, through the fiber of the round's
    # birefringence mode and through none: the mirror makes the D1/D2 trains
    # agree slot for slot, and both Eve's resent train and an honest one
    # reach Bob in the mirror image of the prepared polarization
    cascade = CascadeConfig(config.n_stages, bob_phase)

    def legs(unitary):
        prepared, sent, train, alarm = _forward_leg(config.link, cascade, unitary)
        encoded = alice_encode(attenuate(train, config.mean_photons_return), key_phase)
        branches, eve_phase = _return_leg(config.link, cascade, prepared, sent, encoded, unitary)
        return prepared, alarm, eve_phase, [port for _, port in branches]

    unitary = round_unitary(config.channel, config.master_seed, round_index)
    prepared, alarm, eve_phase, ports = legs(unitary)
    _, bare_alarm, bare_eve_phase, bare_ports = legs(None)
    assert (alarm, eve_phase) == (bare_alarm, bare_eve_phase)
    mirrored = np.array(faraday_reflect(prepared).polarization)
    for port, bare in zip(ports, bare_ports, strict=True):
        assert np.array_equal(port.energies, bare.energies)
        a = np.array(port.polarization)
        phase = np.vdot(mirrored, a)
        assert abs(abs(phase) - 1) < 1e-10
        assert np.linalg.norm(a - phase / abs(phase) * mirrored) < 1e-10


#: unsampled rounds with decoys: each one takes the kernel's decoy path; the
#: subnormal returned energy leaves Eve nothing to read
decoy_session_configs = st.builds(
    lambda n, eve, decoy, dark, policy, mu, loss, seed: SessionConfig(
        n_stages=n,
        rounds=1,
        mean_photons_return=mu,
        sample_prob=0.0,
        decoy_prob=decoy,
        detector=DetectorParams(dark_count_prob=dark, double_click_policy=policy),
        channel=ChannelParams(loss_db=loss),
        eve_kind=eve,
        master_seed=seed,
    ),
    st.sampled_from(range(1, 9)),
    st.sampled_from(EveKind),
    st.sampled_from((0.3, 1.0)),
    st.sampled_from((0.0, 0.02)),
    st.sampled_from(DoubleClickPolicy),
    st.sampled_from((0.5, 40.0, 5e-324)),
    st.sampled_from((0.0, 3.0)),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(decoy_session_configs, st.integers(0, 2**20))
@example(
    # at n = 8 the subnormal return still reaches Bob's ports, below Eve's
    # notice: every odd slot reads the decoy train, lit with dark counts
    SessionConfig(
        n_stages=8,
        rounds=1,
        mean_photons_return=5e-324,
        sample_prob=0.0,
        decoy_prob=1.0,
        detector=DetectorParams(dark_count_prob=0.02),
        eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
    ),
    0,
)
@example(
    # Alice's odd slots are lit, but at 40 dB nothing comes back to Eve:
    # she resends nothing, and the decoys read the decoy row
    SessionConfig(
        n_stages=3,
        rounds=1,
        mean_photons_return=1e-320,
        sample_prob=0.0,
        decoy_prob=0.3,
        detector=DetectorParams(dark_count_prob=0.02),
        channel=ChannelParams(loss_db=40.0),
        eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
    ),
    0,
)
def test_decoy_rounds_equal_field_level_rounds(config, first_round):
    # decoy rounds gather their tables per slot or follow Eve's vote; the
    # reference runs their optics
    for i in range(first_round, first_round + 10):
        u = round_uniforms(config, i)
        assert run_round(config, i, u) == reference_round(config, i, u)


#: the chunk budget of the chunk-edge tests, smaller than the module's so
#: that the records of their 2.5-chunk sessions stay few; no result depends
#: on the budget (``test_session_results_do_not_depend_on_the_chunk_budget``)
EDGE_BUDGET = 2**14


def _in_edge_chunks(config, rounds):
    """``config`` drawing its rows in chunks of ``EDGE_BUDGET`` uniforms, with
    ``rounds(chunk_rounds)`` rounds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dpsqkd.session, "_CHUNK_UNIFORMS", EDGE_BUDGET)
        chunk = dataclasses.replace(config).block.chunk_rounds
        return dataclasses.replace(config, rounds=rounds(chunk))


#: configs with sampling, decoys, both Eve kinds, dark counts and both
#: double-click policies
chunked_session_configs = st.builds(
    lambda n, eve, decoy, dark, policy, mu, seed: SessionConfig(
        n_stages=n,
        mean_photons_return=mu,
        sample_prob=0.3,
        decoy_prob=decoy,
        detector=DetectorParams(dark_count_prob=dark, double_click_policy=policy),
        eve_kind=eve,
        master_seed=seed,
    ),
    st.sampled_from(range(1, 7)),
    st.sampled_from(EveKind),
    st.sampled_from((0.0, 0.3)),
    st.sampled_from((0.0, 0.02)),
    st.sampled_from(DoubleClickPolicy),
    st.sampled_from((0.5, 40.0)),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(chunked_session_configs, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6))
def test_chunked_session_rounds_equal_field_level_rounds(config, fractions):
    # a session of two whole chunks and a partial one: the rounds on both
    # sides of every chunk edge, the last round, and rounds drawn at random,
    # each from the session's record view
    config = _in_edge_chunks(config, lambda chunk: 2 * chunk + chunk // 2 + 1)
    chunk = config.block.chunk_rounds
    records = run_session(config).records
    assert len(records) == config.rounds
    edges = [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, config.rounds - 1]
    for i in edges + [int(f * config.rounds) for f in fractions]:
        assert records[i] == reference_round(config, i, round_uniforms(config, i))


#: uniforms per array call: two budgets below the module's, and the module's
CHUNK_BUDGETS = (2**12, 2**15, dpsqkd.session._CHUNK_UNIFORMS)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(chunked_session_configs, st.sampled_from((0.5, 1.5)), st.sampled_from((0.0, 0.3)))
def test_session_results_do_not_depend_on_the_chunk_budget(config, chunks, sample_prob):
    # under each budget the session runs as a different number of chunks,
    # the last one partial under the module's, and gives the same
    # statistics, detector counts included, and sifted bits
    width = config.block.width
    top = max(CHUNK_BUDGETS) // width
    rounds = int(chunks * top) + 1
    assert rounds % top, "the last chunk under the largest budget is partial"
    results = []
    for budget in CHUNK_BUDGETS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dpsqkd.session, "_CHUNK_UNIFORMS", budget)
            budgeted = dataclasses.replace(config, rounds=rounds, sample_prob=sample_prob)
        assert budgeted.block.chunk_rounds == max(1, budget // width)
        results.append(run_session(budgeted))
    first, *others = results
    for result in others:
        assert result.stats == first.stats
        for name in ("alice_bits", "bob_bits"):
            bits, expected = getattr(result, name), getattr(first, name)
            assert bits.dtype == expected.dtype, name
            assert np.array_equal(bits, expected), name


def _every_odd_slot_replaced(eve_kind, mu, policy):
    """A session of two whole n=3 chunks and a partial one in which Alice
    replaces every odd slot of every round."""
    config = SessionConfig(
        n_stages=3,
        mean_photons_return=mu,
        sample_prob=0.0,
        decoy_prob=1.0,
        detector=DetectorParams(double_click_policy=policy),
        eve_kind=eve_kind,
        master_seed=29,
    )
    config = _in_edge_chunks(config, lambda chunk: 2 * chunk + chunk // 2)
    chunk = config.block.chunk_rounds
    assert config.rounds > 2 * chunk
    result = run_session(config)
    for i in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, config.rounds - 1):
        assert result.records[i] == reference_round(config, i, round_uniforms(config, i))
    assert sum(len(record.decoy_positions) for record in result.records) == 4 * config.rounds
    return result.records


@pytest.mark.parametrize("eve_kind", list(EveKind))
def test_sessions_with_every_odd_slot_replaced_and_no_click(eve_kind):
    # the scatter replaces every odd slot and the pick has no click to
    # choose from; under attack Eve still reads a phase and resends
    records = _every_odd_slot_replaced(eve_kind, 1e-300, DoubleClickPolicy.RANDOM_PICK)
    assert not any(record.clicks for record in records)
    attacked = eve_kind is EveKind.INTERCEPT_RESEND_REFERENCE
    assert all((record.eve_phase is not None) == attacked for record in records)


@pytest.mark.parametrize("eve_kind", list(EveKind))
@pytest.mark.parametrize("policy", list(DoubleClickPolicy))
def test_sessions_with_every_odd_slot_replaced_and_clicks(eve_kind, policy):
    records = _every_odd_slot_replaced(eve_kind, 0.8, policy)
    # every chosen inner-slot click reads a replaced slot, so no round keeps a key bit
    inner = [record.bit in (BitOutcome.BIT0, BitOutcome.BIT1) for record in records]
    assert any(inner)
    assert [record.decoy_hit for record in records] == inner


#: links whose return train is lit, subnormal or empty, with energy monitors
#: that trip on rounding and on loss
forward_configs = st.builds(
    lambda n, eve, mu, loss, tolerance: SessionConfig(
        n_stages=n,
        mean_photons_return=mu,
        energy_tolerance=tolerance,
        channel=ChannelParams(loss_db=loss),
        eve_kind=eve,
    ),
    st.integers(1, 8),
    st.sampled_from(EveKind),
    st.sampled_from((0.0, 5e-324, 1e-320, 1e-300, 0.1, 0.8)),
    st.one_of(st.sampled_from((0.0, 40.0)), st.floats(0.0, 40.0)),
    st.sampled_from((0.05, 0.0)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    forward_configs,
    st.sampled_from(KEY_PHASES),
    st.sampled_from(CHECK_PHASES),
    st.integers(0, 2**128 - 1),
)
def test_bob_phase_changes_no_energy_alarm_odd_slot_or_eve_phase(
    config, key_phase, decoy_phase, decoy_bits
):
    # Bob's phase sits on even slots of equal magnitude: the slot energies
    # reaching Alice, her monitor, her lit odd slots and Eve's reading are
    # the same for every Bob phase, which is why the phase tables keep one
    # flag of each per link and the kernel counts Eve's vote without it
    seen = set()
    for bob_phase in QUATERNARY:
        cascade = CascadeConfig(config.n_stages, bob_phase)
        prepared, sent, train, alarm = _forward_leg(config.link, cascade)
        attenuated = attenuate(train, config.mean_photons_return)
        odd = odd_slots(attenuated)
        decoys = [s for s in odd if decoy_bits >> (s // 2) & 1]
        encoded = alice_encode(attenuated, key_phase, decoys, decoy_phase)
        _, eve_phase = _return_leg(config.link, cascade, prepared, sent, encoded)
        seen.add((train.energies.tobytes(), alarm, odd, eve_phase))
        if eve_phase is not None:
            # she reads every odd slot Alice holds, as the kernel's vote assumes
            assert len(odd) == 2 ** (config.n_stages - 1)
            votes = [0, 0, 0, 0]
            votes[key_phase.quarter_turns] += len(odd) - len(decoys)
            votes[decoy_phase.quarter_turns] += len(decoys)
            assert eve_phase is KEY_PHASES[eve_key_phase(votes)]
    assert len(seen) == 1


def _stats_rng(master_seed: int) -> np.random.Generator:
    """The session's statistics stream: spawn key (2, 0) under the master seed."""
    seed = np.random.SeedSequence(master_seed, spawn_key=(2, 0))
    return np.random.Generator(np.random.PCG64(seed))


def fold_stats(records, config: SessionConfig) -> SessionStats:
    """A session's statistics as a loop over its records: what the kernel's
    reductions must give."""
    n_sampled = n_none = n_single = n_multi = n_edge = 0
    check_matched_rounds = check_compared = check_errors = 0
    energy_alarms = 0
    eve_hits = eve_total = 0
    detector_clicks = collections.Counter()
    alice_key: list[int] = []
    bob_key: list[int] = []
    for r in records:
        detector_clicks.update(click.detector for click in r.clicks + r.check_clicks)
        if r.energy_alarm:
            energy_alarms += 1
        if r.sampled:
            n_sampled += 1
            if r.check_matched:
                check_matched_rounds += 1
                check_compared += r.check_compared
                check_errors += r.check_errors
            continue
        n_clicks = len(r.clicks)
        if n_clicks == 0:
            n_none += 1
        elif n_clicks == 1:
            n_single += 1
            # a single click is the chosen one, so its bit is its readout
            if r.bit is BitOutcome.DISCARD:
                n_edge += 1
        else:
            n_multi += 1
        # sifting: one usable inner-slot click, untouched by decoys
        if r.decoy_hit or r.bit not in (BitOutcome.BIT0, BitOutcome.BIT1):
            continue
        alice_key.append(r.alice_bit)
        bob_key.append(r.bit.value)
        if r.eve_phase is not None:
            eve_total += 1
            eve_bit = 0 if r.eve_phase.quarter_turns == 0 else 1
            eve_hits += eve_bit == r.alice_bit

    mismatches = sum(1 for a, b in zip(alice_key, bob_key) if a != b)
    if alice_key:
        qber, disclosed = estimate_qber(
            alice_key, bob_key, config.disclose_fraction, _stats_rng(config.master_seed)
        )
    else:
        qber, disclosed = None, 0

    efficiency = (n_single - n_edge) / n_single if n_single else None
    edge_fraction = n_edge / n_single if n_single else None
    check_rate = check_errors / check_compared if check_compared else None
    alarm = bool(
        energy_alarms
        or (check_rate is not None and check_rate > config.max_check_error)
        or (qber is not None and qber > config.max_qber)
    )
    return SessionStats(
        rounds=len(records),
        n_sampled=n_sampled,
        n_no_click=n_none,
        n_single_click=n_single,
        n_multi_click=n_multi,
        n_edge_single=n_edge,
        efficiency=efficiency,
        edge_fraction=edge_fraction,
        sifted_length=len(alice_key),
        mismatches=mismatches,
        qber=qber,
        qber_disclosed=disclosed,
        final_key_length=len(alice_key) - disclosed,
        check_rounds_matched=check_matched_rounds,
        check_compared=check_compared,
        check_errors=check_errors,
        check_error_rate=check_rate,
        energy_alarms=energy_alarms,
        d1_clicks=detector_clicks[Detector.D1],
        d2_clicks=detector_clicks[Detector.D2],
        d3_clicks=detector_clicks[Detector.D3],
        d4_clicks=detector_clicks[Detector.D4],
        eve_agreement=(eve_hits / eve_total) if eve_total else None,
        alarm=alarm,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(session_configs)
def test_stats_reductions_equal_the_record_fold(config):
    result = run_session(dataclasses.replace(config, rounds=300))
    folded = fold_stats(result.records, result.config)
    assert repr(result.stats) == repr(folded)
    stats = result.stats
    # the statistics are counts and rates: no field holds a sequence
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        assert value is None or type(value) in (int, float, bool), field.name
    assert stats.final_key_length == stats.sifted_length - stats.qber_disclosed


@settings(max_examples=30, deadline=None, derandomize=True)
@given(chunked_session_configs)
def test_stats_reductions_equal_the_record_fold_across_chunk_edges(config):
    # two whole chunks and a partial one: the session sums its counts chunk
    # by chunk and concatenates the chunks' sifted bits, whose order the QBER
    # disclosure indexes
    config = _in_edge_chunks(config, lambda chunk: 2 * chunk + chunk // 2 + 1)
    assert config.rounds % config.block.chunk_rounds and config.rounds > 2 * config.block.chunk_rounds
    result = run_session(config)
    assert repr(result.stats) == repr(fold_stats(result.records, config))
    # the sifted bits are those of the records, round by round
    sifted = [r for r in result.records if r.bit in (BitOutcome.BIT0, BitOutcome.BIT1)]
    sifted = [r for r in sifted if not r.decoy_hit]
    assert result.alice_bits.tolist() == [r.alice_bit for r in sifted]
    assert result.bob_bits.tolist() == [r.bit.value for r in sifted]


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=300),
    st.floats(0.0, 1.0, exclude_min=True),
    st.integers(0, 2**32 - 1),
)
def test_estimate_qber_equals_a_plain_loop(pairs, fraction, seed):
    alice = [a for a, _ in pairs]
    bob = [b for _, b in pairs]
    qber, disclosed = estimate_qber(alice, bob, fraction, np.random.default_rng(seed))
    n = len(pairs)
    if n == 0:
        assert (qber, disclosed) == (None, 0)
        return
    size = min(n, max(1, round(fraction * n)))
    rng = np.random.default_rng(seed)
    drawn = set(rng.choice(n, size=size, replace=False).tolist())
    mismatches = sum(1 for i in drawn if alice[i] != bob[i])
    assert qber == mismatches / size
    assert disclosed == size


@settings(max_examples=40, deadline=None, derandomize=True)
@given(session_configs)
def test_records_do_not_depend_on_birefringence(config):
    # a session never draws a fiber (its tables do not read the mode), so its
    # records are bit-identical under every birefringence mode; the mirror's
    # compensation is checked on the legs, test_round_legs_compensate_every_fiber
    config = dataclasses.replace(config, rounds=30)
    records = {
        run_session(
            dataclasses.replace(
                config, channel=dataclasses.replace(config.channel, birefringence_mode=mode)
            )
        ).records
        for mode in BirefringenceMode
    }
    assert len(records) == 1


#: the session fields that the phase tables never read, drawn at random
unread_fields = st.fixed_dictionaries(
    {
        "rounds": st.integers(1, 10**6),
        "master_seed": st.integers(0, 2**64),
        "sample_prob": st.floats(0.0, 1.0),
        "disclose_fraction": st.floats(0.01, 1.0),
        "max_check_error": st.floats(0.0, 1.0),
        "max_qber": st.floats(0.0, 1.0),
        "decoy_prob": st.floats(0.0, 1.0),
    }
)

#: links over every field the tables read, with random unread fields
link_configs = st.builds(
    lambda n, eve, dark, efficiency, mu, loss, tolerance, mode, policy, unread: SessionConfig(
        n_stages=n,
        mean_photons_return=mu,
        energy_tolerance=tolerance,
        detector=DetectorParams(
            quantum_efficiency=efficiency, dark_count_prob=dark, double_click_policy=policy
        ),
        channel=ChannelParams(loss_db=loss, birefringence_mode=mode),
        eve_kind=eve,
        **unread,
    ),
    st.integers(1, 8),
    st.sampled_from(EveKind),
    st.sampled_from((0.0, 0.02)),
    st.sampled_from((1.0, 0.4)),
    st.sampled_from((0.5, 3.0)),
    st.sampled_from((0.0, 3.0)),
    st.sampled_from((0.05, 0.0)),
    st.sampled_from(BirefringenceMode),
    st.sampled_from(DoubleClickPolicy),
    unread_fields,
)

#: a sibling link that differs from ``config`` in one read field
READ_FIELD_CHANGES = {
    "n_stages": lambda c: dict(n_stages=c.n_stages % 8 + 1),
    "mean_photons_return": lambda c: dict(mean_photons_return=c.mean_photons_return + 0.25),
    "quantum_efficiency": lambda c: dict(
        detector=dataclasses.replace(c.detector, quantum_efficiency=c.detector.quantum_efficiency / 2)
    ),
    "dark_count_prob": lambda c: dict(
        detector=dataclasses.replace(c.detector, dark_count_prob=0.02 - c.detector.dark_count_prob)
    ),
    "loss_db": lambda c: dict(
        channel=dataclasses.replace(c.channel, loss_db=c.channel.loss_db + 3.0)
    ),
    "eve_kind": lambda c: dict(eve_kind=next(k for k in EveKind if k is not c.eve_kind)),
}


@pytest.mark.parametrize("field", sorted(READ_FIELD_CHANGES))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(config=link_configs, unread=unread_fields)
def test_memoized_phase_tables_equal_a_fresh_build(field, config, unread):
    # the memo returns each link's own tables: the sibling's are read right
    # after config's, from which it differs in one read field and the unread ones
    sibling = dataclasses.replace(config, **READ_FIELD_CHANGES[field](config), **unread)
    for cfg in (config, sibling):
        fresh = build_phase_tables(cfg.link)
        for name, array in cfg.phase_tables._asdict().items():
            assert np.array_equal(array, getattr(fresh, name)), name


#: links over n 1-10, efficiency, dark counts, loss and both Eve kinds, with
#: a lit, subnormal or empty return train; every link's tables hold the
#: decoy row, so every example checks decoy trains too
class_links = st.builds(
    lambda n, eve, dark, efficiency, mu, loss: SessionConfig(
        n_stages=n,
        mean_photons_return=mu,
        detector=DetectorParams(quantum_efficiency=efficiency, dark_count_prob=dark),
        channel=ChannelParams(loss_db=loss),
        eve_kind=eve,
    ).link,
    st.integers(1, 10),
    st.sampled_from(EveKind),
    st.sampled_from((0.0, 0.02)),
    st.sampled_from((1.0, 0.4)),
    st.sampled_from((0.5, 40.0, 5e-324, 0.0)),
    st.sampled_from((0.0, 3.0, 20.0)),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(class_links)
def test_slot_class_thresholds_equal_the_dense_thresholds(link):
    # the class table spread over the gate by slot_class is every row's
    # dense click_thresholds on the trains of the legs, and no row's any
    # exceeds the envelope of the round kind that reads it
    tables = build_phase_tables(link)
    turns = dpsqkd.session._TURN_ROWS
    for b, bob_phase in enumerate(QUATERNARY):
        cascade = CascadeConfig(link.n_stages, bob_phase)
        prepared, sent, train, _ = _forward_leg(link, cascade)
        attenuated = attenuate(train, link.mean_photons_return)
        decoy = alice_encode(attenuated, KEY_PHASES[0], odd_slots(attenuated), CHECK_PHASES[1])
        encoded = [alice_encode(attenuated, phase) for phase in KEY_PHASES]
        rows = {i: alice_check_ports(train, phase) for i, phase in enumerate(CHECK_PHASES)}
        for r, returned in zip((turns, turns + 1, turns + 2), (encoded[0], decoy, encoded[1])):
            rows[r], _ = _return_leg(link, cascade, prepared, sent, returned)
        for r, ((_, first), (_, second)) in rows.items():
            p = (click_probabilities(port, link, cascade.gate) for port in (first, second))
            spread = tables.thresholds[:, b, r].take(tables.slot_class, axis=1)
            assert np.array_equal(spread, np.array(click_thresholds(*p))), (b, r)
            assert (spread[2] <= tables.any[0 if r >= turns else 1]).all(), (b, r)


#: (dataclass, field) for every real-valued field of the three configs
REAL_CONFIG_FIELDS = [
    (cls, f.name)
    for cls in (SessionConfig, DetectorParams, ChannelParams)
    for f in dataclasses.fields(cls)
    if f.type in ("float", float)
]

config_values = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.booleans(),
    st.complex_numbers(max_magnitude=10.0),
    st.sampled_from((math.nan, math.inf, -math.inf)),
    st.floats(max_value=-1e-300, allow_infinity=False),
    st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(-(10**400), 10**400),
    st.floats(min_value=0.0, max_value=1.0).map(np.float64),
)


@PROPERTY
@given(st.sampled_from(REAL_CONFIG_FIELDS), config_values)
def test_real_config_field_stores_a_float_or_names_itself(field, value):
    # a TypeError or AttributeError here would be an input the config
    # neither runs nor rejects with a clear error
    cls, name = field
    try:
        config = cls(**{name: value})
    except ValueError as e:
        assert name in str(e)
        return
    stored = getattr(config, name)
    assert type(stored) is float and stored == float(value) and math.isfinite(stored)


#: (dataclass, field, integral) for every real and integral field of the three configs
NUMBER_CONFIG_FIELDS = [
    (cls, f.name, f.type in ("int", int))
    for cls in (SessionConfig, DetectorParams, ChannelParams)
    for f in dataclasses.fields(cls)
    if f.type in ("float", float, "int", int)
]

#: numbers that every spelling holds exactly (k/8 fits a float32), in and out
#: of each field's range; no integral one builds tables beyond n = 12
exact_numbers = st.builds(
    Fraction, st.sampled_from((-8, -1, 0, 1, 2, 3, 5, 12, 40, 32000)), st.sampled_from((1, 2, 8))
)


def spellings(x: Fraction) -> list:
    """``x`` as each type a config field may be given; as integral types only
    when it is an integer."""
    values = [float(x), np.float64(float(x)), np.float32(float(x)), x]
    if x.denominator == 1:
        values += [int(x), np.int64(int(x))]
    return values


#: the session config field that holds each parameter class
PARTS = {DetectorParams: "detector", ChannelParams: "channel"}


def config_with(cls, name: str, value) -> SessionConfig:
    """A session config whose field ``name`` of ``cls`` is ``value``."""
    if cls is SessionConfig:
        return SessionConfig(**{name: value})
    return SessionConfig(**{PARTS[cls]: cls(**{name: value})})


def field_of(config: SessionConfig, cls, name: str):
    holder = config if cls is SessionConfig else getattr(config, PARTS[cls])
    return getattr(holder, name)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(NUMBER_CONFIG_FIELDS), exact_numbers)
def test_every_spelling_of_a_number_gives_one_config(field, x):
    # an int, float, numpy scalar or Fraction of one value is accepted or
    # rejected together, coerced to the plain Python value, and shares one
    # table object; an integral field takes only integral types
    cls, name, integral = field
    plain = float(x)
    if integral:
        plain = int(x) if x.denominator == 1 else None
    expected = None
    if plain is not None:
        try:
            expected = config_with(cls, name, plain)
        except ValueError as e:
            assert name in str(e)
    for value in spellings(x):
        if expected is None or (integral and not isinstance(value, (int, np.integer))):
            with pytest.raises(ValueError, match=name):
                config_with(cls, name, value)
            continue
        config = config_with(cls, name, value)
        stored = field_of(config, cls, name)
        assert type(stored) is type(plain) and stored == plain
        assert config == expected
        assert config.phase_tables is expected.phase_tables


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(NUMBER_CONFIG_FIELDS),
    st.sampled_from(
        (True, False, np.True_, math.nan, math.inf, -math.inf, np.float64(math.nan), "1", None)
    ),
)
def test_a_non_number_is_rejected_naming_the_field(field, value):
    cls, name, _ = field
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})
