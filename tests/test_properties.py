"""Property tests for the optics invariants: energy conservation per
interferometer pass, Faraday round-trip invariance, and the readout rule.

Examples are derandomized so that every run of the suite checks the same
cases; the fixed-example tests in the other files stay as goldens.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsqkd.channel import random_unitary
from dpsqkd.optics import (
    ClickEvent,
    PulseTrain,
    faraday_reflect,
    jones_apply,
    mzi_pass,
    unit_jones,
)
from dpsqkd.phases import KEY_PHASES, QUATERNARY, QuantizedPhase
from dpsqkd.stations import (
    BitOutcome,
    CascadeConfig,
    Detector,
    alice_encode,
    bob_measure,
    bob_prepare,
    infer_bit,
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
