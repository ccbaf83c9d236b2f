"""Protocol roles for the two stations, and both readout rules.

Bob prepares a 2^n-slot pulse train with a cascade of delay-line
interferometers (delays 2^(n-1) .. 2, 1 slots) and, on the return pass,
reuses the last stage to interfere neighbouring slots onto detectors D1/D2.
Alice monitors the incoming energy and diverts some whole trains to a
check interferometer (detectors D3/D4). The rest she attenuates, encodes
with her key phase on the odd slots, some of which she may replace with
decoy phases, and reflects off a Faraday mirror. Which trains are diverted
and which detectors click is decided per round from the round's row of
uniforms; the functions here give the trains a round decides on, and
``session.reference_round`` runs a round on them.

The two readout rules live here as well. The key readout
(:func:`infer_bit`, :func:`key_slot`) decodes every inner slot and discards
the two edge slots. The eavesdropping check
(:func:`check_expected_detector`, :func:`alice_score_check`) scores a
sampled train's D3/D4 clicks against Bob's announced phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .optics import ClickEvent, PulseTrain, _int_field, _mzi_ports, mzi_pass, phase_modulate
from .phases import CHECK_PHASES, KEY_PHASES, PHASE_0, PHASE_180, QuantizedPhase


class ProtocolError(ValueError):
    """A station was driven outside the protocol's contract."""


class Detector(Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"


class BitOutcome(Enum):
    BIT0 = 0
    BIT1 = 1
    DISCARD = "discard"


@dataclass(frozen=True)
class CascadeConfig:
    """Geometry of Bob's preparation cascade plus his phase for the round.

    Delays halve stage by stage down to one slot, so the 2^n pulses of the
    prepared train land on consecutive slots without overlapping.
    """

    n_stages: int
    bob_phase: QuantizedPhase
    delays: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        _int_field(self, "n_stages")
        if self.n_stages < 1:
            raise ValueError(f"n_stages must be >= 1, got {self.n_stages}")
        if not isinstance(self.bob_phase, QuantizedPhase):
            raise ValueError(f"bob_phase must be a QuantizedPhase, got {self.bob_phase!r}")
        object.__setattr__(
            self, "delays", tuple(2 ** i for i in reversed(range(self.n_stages)))
        )

    @property
    def train_slots(self) -> int:
        return 2 ** self.n_stages

    @property
    def edge_slots(self) -> tuple[int, int]:
        """The two return-train slots where no interference takes place."""
        return (1, 2 ** self.n_stages + 1)

    @property
    def gate(self) -> range:
        """The slots every detector is gated on: the return train's, from
        one edge slot to the other."""
        first, last = self.edge_slots
        return range(first, last + 1)


def bob_prepare(config: CascadeConfig, source_amplitude: complex) -> PulseTrain:
    """Split one source pulse into 2^n equal-magnitude slots.

    The cascade chains the constructive port of each stage; only the last
    stage (delay 1) carries Bob's phase in its long arm, so the prepared
    train has relative phase 0 on odd slots and bob_phase on even slots.
    Each pass halves the kept field, so per-slot magnitude is |source|/2^n.
    """
    amplitudes = np.array([0, source_amplitude], np.complex128)  # slot 1
    last = len(config.delays) - 1
    for i, delay in enumerate(config.delays):
        _, amplitudes = _mzi_ports(amplitudes, delay, config.bob_phase if i == last else PHASE_0)
    return PulseTrain(amplitudes)


def alice_encode(
    train: PulseTrain,
    key_phase: QuantizedPhase,
    decoys: Iterable[int] = (),
    decoy_phase: QuantizedPhase = PHASE_0,
) -> PulseTrain:
    """Encode Alice's key bit as a common phase on the odd slots, except the
    odd slots ``decoys``, which she replaces by the decoy phase."""
    if key_phase not in KEY_PHASES:
        raise ProtocolError(f"key phase must be 0 or pi, got {key_phase}")
    if decoy_phase not in CHECK_PHASES:
        raise ProtocolError(f"decoy phase must be 0 or pi/2, got {decoy_phase}")
    replaced = list(decoys)
    keyed = np.arange(len(train.amplitudes)) % 2 == 1
    keyed[replaced] = False
    train = phase_modulate(train, keyed, key_phase)
    return phase_modulate(train, replaced, decoy_phase)


def bob_measure(return_train: PulseTrain, config: CascadeConfig) -> tuple[PulseTrain, PulseTrain]:
    """Interfere neighbouring slots of the returned train onto D1/D2.

    One pass through the delay-1 stage, whose long-arm modulator applies
    bob_phase again on the way in. Output slots run 1 .. 2^n + 1; D1 is the
    constructive port, so with both phases zero every inner slot exits D1.
    """
    d2, d1 = mzi_pass(return_train, 1, config.bob_phase)
    return d1, d2


def infer_bit(click: ClickEvent, config: CascadeConfig) -> BitOutcome:
    """Bob's readout rule, exact in quarter-turn arithmetic.

    Edge slots are discarded. On even slots D1 means bit 0 and D2 bit 1.
    On odd inner slots D1 means Alice's phase equalled twice Bob's phase
    (mod 2 pi) and D2 the opposite, so the bit follows from bob_phase alone.
    """
    if click.detector not in (Detector.D1, Detector.D2):
        raise ProtocolError(f"key readout uses D1/D2 only, got {click.detector}")
    first, last = config.edge_slots
    if click.slot == first or click.slot == last:
        return BitOutcome.DISCARD
    if click.slot % 2 == 0:
        return BitOutcome.BIT0 if click.detector is Detector.D1 else BitOutcome.BIT1
    inferred = config.bob_phase.doubled()
    if click.detector is Detector.D2:
        inferred = inferred + PHASE_180
    return BitOutcome.BIT0 if inferred.quarter_turns == 0 else BitOutcome.BIT1


def key_slot(click_slot):
    """The odd slot, carrying Alice's key phase, that a D1/D2 click read:
    return slot k interferes prepared slots k - 1 and k (also on arrays)."""
    return click_slot - 1 + click_slot % 2


def alice_energy_monitor(train: PulseTrain, expected_energy: float, rel_tolerance: float) -> bool:
    """True (alarm) iff the incoming energy strays beyond the tolerance."""
    if not 0 < expected_energy < math.inf:
        raise ValueError(f"expected_energy must be finite and > 0, got {expected_energy}")
    if not 0 <= rel_tolerance < math.inf:
        raise ValueError(f"rel_tolerance must be finite and >= 0, got {rel_tolerance}")
    return abs(train.total_energy - expected_energy) / expected_energy > rel_tolerance


def alice_check_ports(
    train: PulseTrain, check_phase: QuantizedPhase
) -> tuple[tuple[Detector, PulseTrain], tuple[Detector, PulseTrain]]:
    """The check interferometer's (detector, train) branches, D3 first.

    Sampling is per train: peeling single pulses off would destroy the
    downstream interference. The diverted train passes a delay-1 stage with
    check_phase in the long arm; D3 is the constructive port. The caller
    detects both branches and scores the clicks with
    :func:`alice_score_check`.
    """
    if check_phase not in CHECK_PHASES:
        raise ProtocolError(f"check phase must be 0 or pi/2, got {check_phase}")
    d4, d3 = mzi_pass(train, 1, check_phase)
    return (Detector.D3, d3), (Detector.D4, d4)


def check_expected_detector(
    bob_phase: QuantizedPhase, check_phase: QuantizedPhase, slot: int
) -> Detector | None:
    """Predicted check detector for the neighbour pair read at ``slot``.

    An odd slot interferes phases (bob_phase, 0), an even one (0,
    bob_phase); against the check phase this gives a deterministic port
    whenever bob_phase + check_phase (odd slot) or bob_phase - check_phase
    (even slot) is 0 (D3) or pi (D4), and a 50/50 split (None) otherwise.
    """
    if check_phase not in CHECK_PHASES:
        raise ProtocolError(f"check phase must be 0 or pi/2, got {check_phase}")
    combined = bob_phase + check_phase if slot % 2 == 1 else bob_phase - check_phase
    if combined.quarter_turns == 0:
        return Detector.D3
    if combined.quarter_turns == 2:
        return Detector.D4
    return None


def alice_score_check(
    clicks: Iterable[ClickEvent], cascade: CascadeConfig, check_phase: QuantizedPhase
) -> tuple[bool, int, int]:
    """Score a sampled train's check clicks against Bob's announced phase.

    Returns (matched, compared, errors). Unmatched bases give (False, 0, 0);
    otherwise every click off the edge slots is compared, and one on the
    port that :func:`check_expected_detector` does not predict is an error.
    """
    bob_phase = cascade.bob_phase
    if check_expected_detector(bob_phase, check_phase, 2) is None:
        return False, 0, 0
    first, last = cascade.edge_slots
    compared = 0
    errors = 0
    for click in clicks:
        if click.slot == first or click.slot == last:
            continue
        compared += 1
        if click.detector is not check_expected_detector(bob_phase, check_phase, click.slot):
            errors += 1
    return True, compared, errors


def alice_decoy_positions(
    odd_slots: Sequence[int], decoy_prob: float, uniforms: Sequence[float], start: int = 0
) -> tuple[int, ...]:
    """The odd slots that Alice replaces by a decoy: odd slot k of
    ``odd_slots`` (ascending) is replaced when the uniform at position
    ``start + k // 2`` of the row falls below decoy_prob. The caller keeps
    the positions for sifting: a key click fed by a decoy slot is unusable."""
    if decoy_prob == 0.0:
        return ()
    odd = np.asarray(odd_slots, dtype=np.intp)
    return tuple(odd[np.take(uniforms, start + odd // 2) < decoy_prob].tolist())


def odd_slots(train: PulseTrain) -> tuple[int, ...]:
    """The train's occupied odd slots in ascending order."""
    return tuple((2 * np.flatnonzero(train.amplitudes[1::2]) + 1).tolist())
