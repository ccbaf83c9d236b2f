"""Fiber channel and the intercept-resend attack.

The fiber applies loss plus one collective polarization unitary per round
(slow birefringence drift: every pulse of a train sees the same transform,
so it acts on the train's one Jones vector). The backward leg applies the
transpose of the forward unitary, the standard reciprocity rule; together
with the mirror image at the far end this makes the round trip independent
of the fiber settings up to a global phase.

The eavesdropper is two pure functions, one per leg. On the way to Alice
she replaces Bob's train with a substitute of identical per-slot energies
but a single common phase; on the way back she reads Alice's modulation
off the reflected substitute and resends Bob's stored original re-encoded
with what she learned. The caller keeps both trains between the legs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .optics import PulseTrain, _enum_field, _int_field, _real_field, attenuate, jones_product
from .phases import PHASE_0, PHASE_180, QuantizedPhase
from .stations import alice_encode


class BirefringenceMode(Enum):
    NONE = "none"
    FIXED_UNITARY = "fixed_unitary"
    RANDOM_PER_TRAIN = "random_per_train"


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary: the Q of a complex Gaussian matrix
    whose R has a positive real diagonal (Mezzadri, Notices AMS 54, 592
    (2007))."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    d = np.diag(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class ChannelParams:
    """One-way fiber model: loss in dB plus a collective unitary source."""

    loss_db: float = 0.0
    birefringence_mode: BirefringenceMode = BirefringenceMode.NONE
    seed: int = 0

    def __post_init__(self):
        _enum_field(self, "birefringence_mode", BirefringenceMode)
        _int_field(self, "seed")
        _real_field(self, "loss_db", 0.0)
        if self.transmittance == 0.0:
            raise ValueError(f"loss_db must leave a nonzero transmittance, got {self.loss_db}")
        if self.seed < 0:
            raise ValueError(f"channel seed must be >= 0, got {self.seed}")

    @property
    def transmittance(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)

    @cached_property
    def fixed_unitary(self) -> np.ndarray:
        return random_unitary(np.random.default_rng(self.seed))


def round_unitary(params: ChannelParams, rng: np.random.Generator) -> np.ndarray | None:
    """Draw or look up the collective unitary for one round; None = identity."""
    if params.birefringence_mode is BirefringenceMode.NONE:
        return None
    if params.birefringence_mode is BirefringenceMode.FIXED_UNITARY:
        return params.fixed_unitary
    return random_unitary(rng)


def fiber_transmit(
    train: PulseTrain, params: ChannelParams, unitary: np.ndarray | None = None
) -> PulseTrain:
    """Propagate a train through one leg of the fiber.

    Amplitudes scale by sqrt(transmittance) and the train's polarization by
    ``unitary`` (None is the identity). The backward leg of a round passes
    the transpose of the forward leg's unitary (reciprocity).
    """
    scale = math.sqrt(params.transmittance)
    if unitary is None and scale == 1.0:
        return train
    polarization = train.polarization
    if unitary is not None:
        polarization = jones_product(unitary, polarization)
    return PulseTrain({k: a * scale for k, a in train.slots.items()}, polarization)


class EveKind(Enum):
    PASSIVE = "passive"
    INTERCEPT_RESEND_REFERENCE = "intercept_resend_reference"


def intercept_forward(train: PulseTrain, substitute_phase: QuantizedPhase = PHASE_0) -> PulseTrain:
    """Forward leg of the reference-pulse intercept-resend attack.

    Eve keeps Bob's train and sends on a substitute with identical per-slot
    energies but one common phase. She keeps a copy of the substitute too:
    it is her phase reference for :func:`intercept_backward`.
    """
    f = substitute_phase.factor
    # abs() keeps the slot energy bit-for-bit equal, so the substitute
    # passes Alice's energy monitor at zero tolerance
    return PulseTrain({k: abs(a) * f for k, a in train.slots.items()}, train.polarization)


def eve_key_phase(votes: Sequence[int]) -> QuantizedPhase:
    """Eve's guess of Alice's key phase from her reading of the odd slots.

    ``votes[q]`` counts the odd slots she read at q quarter turns. Every
    slot Alice keyed votes for her key phase and a decoy at 0 votes for 0;
    only 0 and pi are key phases, so a decoy at pi/2 votes for neither. A
    tie goes to 0.
    """
    return PHASE_0 if votes[0] >= votes[2] else PHASE_180


def intercept_backward(
    reflected: PulseTrain, stored: PulseTrain, substitute: PulseTrain
) -> tuple[PulseTrain, QuantizedPhase | None]:
    """Backward leg: read Alice's key phase and resend Bob's stored train.

    The reflected substitute differs from the kept ``substitute`` only by
    Alice's modulation, so the phase of every odd slot is read off exactly,
    and :func:`eve_key_phase` turns them into a guess of the key phase.
    The stored original is re-encoded with that phase and matched in energy
    to the reflected train, so the legitimate readout sees nothing unusual.
    Returns the resent train and the inferred phase, or the vacuum train and
    None when nothing came back.
    """
    if reflected.total_energy == 0.0:
        return reflected, None
    votes = [0, 0, 0, 0]
    for k, sent in substitute.slots.items():
        if k % 2 == 0 or sent == 0j:
            continue
        a = reflected.slots.get(k)
        if a is None:
            continue
        # reflected slot = sent * (positive real) * exp(-i * modulation)
        qt = round(-cmath.phase(a / sent) / (math.pi / 2)) % 4
        votes[qt] += 1
    inferred = eve_key_phase(votes)
    return attenuate(alice_encode(stored, inferred), reflected.total_energy), inferred
