"""Property tests for the optics invariants: energy conservation per
interferometer pass, Faraday round-trip invariance, the readout rule, and
the equivalence of the table-driven ``run_round`` with the field-level
reference round (``reference_round`` below) over drawn session configs.
Faraday compensation is also checked at the protocol level: a session's
records do not depend on the birefringence mode.

It also checks that every real-valued config field takes a float or names
itself in a ValueError, whatever value it is given.

Examples are derandomized so that every run of the suite checks the same
cases; the fixed-example tests in the other files stay as goldens.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from dpsqkd.optics import (
    ClickEvent,
    DetectorParams,
    DoubleClickPolicy,
    PulseTrain,
    attenuate,
    click_table,
    faraday_reflect,
    jones_apply,
    mzi_pass,
    sample_clicks,
    unit_jones,
)
from dpsqkd.phases import CHECK_PHASES, KEY_PHASES, QUATERNARY, QuantizedPhase
from dpsqkd.session import RoundRecord, SessionConfig, round_uniforms, run_round, run_session
from dpsqkd.stations import (
    BitOutcome,
    CascadeConfig,
    Detector,
    alice_check_ports,
    alice_decoy_encode,
    alice_decoy_positions,
    alice_encode,
    alice_energy_monitor,
    alice_score_check,
    bob_measure,
    bob_prepare,
    infer_bit,
    key_slot,
    odd_slots,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
amplitudes = st.builds(complex, finite, finite)
sparse_trains = st.dictionaries(st.integers(0, 40), amplitudes, max_size=12)
jones_vectors = st.tuples(amplitudes, amplitudes).filter(
    lambda p: abs(p[0]) ** 2 + abs(p[1]) ** 2 > 1e-6
).map(lambda p: unit_jones(*p))
haar_unitaries = st.integers(0, 2**32 - 1).map(lambda s: random_unitary(np.random.default_rng(s)))


@PROPERTY
@given(sparse_trains, st.integers(1, 16), st.integers(0, 3), jones_vectors)
def test_mzi_pass_conserves_energy(slots, delay, quarter_turns, polarization):
    train = PulseTrain(slots, polarization)
    p1, p2 = mzi_pass(train, delay, QuantizedPhase(quarter_turns))
    energy = train.total_energy
    assert abs(p1.total_energy + p2.total_energy - energy) <= 1e-12 * max(1.0, energy)
    assert p1.polarization == p2.polarization == polarization


@PROPERTY
@given(jones_vectors, haar_unitaries)
def test_faraday_round_trip_is_fiber_independent(polarization, u):
    # U forward, mirror, U transposed backward: the returned polarization is
    # the mirror image of the input up to one global phase, whatever U is
    train = PulseTrain({1: 1.0, 2: 1j}, polarization)
    reference = faraday_reflect(train)
    out = jones_apply(faraday_reflect(jones_apply(train, u)), u.T)
    assert out.slots == train.slots
    a, b = np.array(out.polarization), np.array(reference.polarization)
    phase = np.vdot(b, a)
    assert abs(abs(phase) - 1) < 1e-10
    assert np.linalg.norm(a - phase / abs(phase) * b) < 1e-10


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


# --- table-driven rounds against the field-level reference -----------------


def reference_round(config: SessionConfig, round_index: int, u) -> RoundRecord:
    """The field-level round: every optical element runs on every round.

    It uses the primitives that ``run_round`` and its
    ``SessionConfig.phase_tables`` are built from (``alice_check_ports``,
    ``alice_decoy_positions``, ``alice_decoy_encode``, ``click_table``,
    ``sample_clicks``, ``alice_score_check``), but runs them on this round's
    trains instead of looking up tables. It reads the round's row of
    uniforms ``u`` at the positions the ``session`` docstring lays down,
    computed here on their own, and draws the fiber unitary, which no
    record depends on, from a substream of its own. The table-driven
    ``run_round`` must give the same record.
    """
    n = config.n_stages
    gated = 2**n + 3  # gate slots 0 .. 2^n + 2
    columns = (5 + 2 ** (n - 1), 5 + 2 ** (n - 1) + gated)
    pick = columns[1] + gated

    phase_a = KEY_PHASES[int(u[0] * 2)]
    phase_b = QUATERNARY[int(u[1] * 4)]
    check_phase = CHECK_PHASES[int(u[2] * 2)]
    decoy_phase = CHECK_PHASES[int(u[3] * 2)]

    cascade = CascadeConfig(config.n_stages, phase_b)
    prepared = bob_prepare(cascade, complex(math.sqrt(config.source_mean_photons)))
    unitary = round_unitary(config.channel, np.random.default_rng([config.master_seed, round_index]))

    attack = config.eve_kind is EveKind.INTERCEPT_RESEND_REFERENCE
    sent = intercept_forward(prepared) if attack else prepared
    train = fiber_transmit(sent, config.channel, unitary)

    expected = (
        config.source_mean_photons / cascade.train_slots * config.channel.transmittance
    )
    alarm = alice_energy_monitor(train, expected, config.energy_tolerance)

    if u[4] < config.sample_prob:
        check_ports = alice_check_ports(train, check_phase)
        check_clicks = sample_clicks(click_table(check_ports, config.detector, columns), u)
        matched, compared, errors = alice_score_check(check_clicks, cascade, check_phase)
        return RoundRecord(
            index=round_index,
            alice_phase=phase_a,
            bob_phase=phase_b,
            sampled=True,
            check_phase=check_phase,
            check_matched=matched,
            check_compared=compared,
            check_errors=errors,
            check_clicks=tuple(check_clicks),
            energy_alarm=alarm,
        )

    train = attenuate(train, config.mean_photons_return)
    decoy_positions = alice_decoy_positions(odd_slots(train), config.decoy_prob, u, 5)
    train = alice_decoy_encode(train, phase_a, decoy_positions, decoy_phase)
    train = faraday_reflect(train)
    train = fiber_transmit(train, config.channel, None if unitary is None else unitary.T)
    eve_phase = None
    if attack:
        train, eve_phase = intercept_backward(train, prepared, sent)

    d1, d2 = bob_measure(train, cascade)
    key_table = click_table([(Detector.D1, d1), (Detector.D2, d2)], config.detector, columns)
    clicks = sample_clicks(key_table, u)

    multi = len(clicks) >= 2
    chosen: ClickEvent | None = None
    if len(clicks) == 1:
        chosen = clicks[0]
    elif multi and config.detector.double_click_policy is DoubleClickPolicy.RANDOM_PICK:
        chosen = clicks[int(u[pick] * len(clicks))]

    bit: BitOutcome | None = None
    decoy_hit = False
    if chosen is not None:
        bit = infer_bit(chosen, cascade)
        if bit is not BitOutcome.DISCARD and decoy_positions:
            decoy_hit = key_slot(chosen.slot) in decoy_positions

    return RoundRecord(
        index=round_index,
        alice_phase=phase_a,
        bob_phase=phase_b,
        sampled=False,
        check_phase=check_phase,
        energy_alarm=alarm,
        clicks=tuple(clicks),
        multi_click=multi,
        bit=bit,
        decoy_positions=decoy_positions,
        decoy_hit=decoy_hit,
        eve_phase=eve_phase,
    )


session_configs = st.builds(
    lambda n, eve, mode, decoy, dark, policy, sample, mu, loss, tolerance, seed: SessionConfig(
        n_stages=n,
        rounds=1,
        mean_photons_return=mu,
        sample_prob=sample,
        decoy_prob=decoy,
        energy_tolerance=tolerance,
        detector=DetectorParams(dark_count_prob=dark, double_click_policy=policy),
        channel=ChannelParams(loss_db=loss, birefringence_mode=mode, seed=seed),
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
def test_table_rounds_equal_field_level_rounds(config, first_round):
    # both read the same row of uniforms at the same positions
    for i in range(first_round, first_round + 10):
        u = round_uniforms(config, i)
        assert run_round(config, i, u) == reference_round(config, i, u)


#: unsampled rounds with decoys: each one takes the decoy path of run_round;
#: the subnormal returned energy leaves Eve nothing to read
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
def test_decoy_rounds_equal_field_level_rounds(config, first_round):
    # decoy rounds gather their tables per slot or follow Eve's vote; the
    # reference runs their optics
    for i in range(first_round, first_round + 10):
        u = round_uniforms(config, i)
        assert run_round(config, i, u) == reference_round(config, i, u)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(session_configs)
def test_records_do_not_depend_on_birefringence(config):
    # the Faraday mirror compensates the fiber for every unitary, so a
    # session's records are bit-identical under every birefringence mode
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
