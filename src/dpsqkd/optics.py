"""Field-level optical primitives.

A pulse train is a read-only array of classical complex field amplitudes,
one per time slot from slot 0, and one Jones vector for the whole train:
every pulse of a train sees the same fiber unitary (collective
birefringence), so the pulses never differ in polarization. Couplers,
delay-line interferometers, phase modulators, attenuators and the Faraday
mirror are pure functions on immutable pulse trains, each a few operations
on the whole array. Photon detection, ``detect``, gives each pair of output
trains a column of a row of uniforms and gates a fixed range of slots: each
gated slot, lit or empty, has one uniform at its fixed position, and it
clicks the pair's two detectors with their click probabilities (signal
or-ed with a dark count) independently (``click_thresholds``), compared
for the whole gate at once.

Conventions fixed here (and relied on by the goldens in the test suite):

* 50/50 couplers use the symmetric matrix [[1, i], [i, 1]] / sqrt(2).
* An interferometer pass keeps honest amplitudes: each pass halves the
  per-path field, and the two output ports together conserve energy.
* Port 2 of ``mzi_pass`` carries the constructive (+) combination when the
  long-arm phase is zero; port 1 carries the (-) combination.
* The Faraday mirror maps (p1, p2) -> (p2, -p1), the quarter-wave rotation
  that makes a reciprocal round trip (U forward, mirror, U transposed
  backward) independent of U up to a global phase.
* Array products are by quarter-turn factors or real scales, which round
  as Python's do; energies and click probabilities call libm's ``hypot``,
  ``pow`` and ``expm1`` as Python does (``np.abs``, ``np.expm1`` may not).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MAX_AMPLITUDE = math.sqrt(np.finfo(float).max)

#: Jones vector as a plain (complex, complex) pair; horizontal by default.
Jones = tuple[complex, complex]
H_POL: Jones = (1 + 0j, 0j)


def jones_product(matrix: np.ndarray, polarization: Jones) -> Jones:
    """The 2x2 matrix times the Jones vector, unchecked."""
    (u00, u01), (u10, u11) = matrix.tolist()
    p1, p2 = polarization
    return (u00 * p1 + u01 * p2, u10 * p1 + u11 * p2)


@dataclass(frozen=True, eq=False)
class PulseTrain:
    """Dense train: a read-only copy of the complex amplitudes, entry k for
    slot k, plus the one unit Jones vector all its pulses share.

    Slot k is occupied when its amplitude is nonzero, however small (its
    energy may underflow to 0). The squared amplitude magnitude is the
    slot's mean photon number; the polarization carries no intensity.
    """

    amplitudes: np.ndarray
    polarization: Jones = H_POL

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", a := np.array(self.amplitudes, np.complex128))
        a.setflags(write=False)
        if not math.isfinite(np.vdot(a, a).real):  # a finite sum of |a|^2 clears every slot
            if (bad := np.flatnonzero(~(np.hypot(a.real, a.imag) <= _MAX_AMPLITUDE))).size:
                raise ValueError(f"slot {bad[0]}: |a|^2 of {a[bad[0]]} must be finite")

    @classmethod
    def from_amplitudes(
        cls, amplitudes: Mapping[int, complex], polarization: Jones = H_POL
    ) -> "PulseTrain":
        for k in amplitudes:
            if not _is_int(k) or k < 0:
                raise ValueError(f"slot index must be a non-negative integer, got {k!r}")
        array = np.zeros(max(amplitudes, default=-1) + 1, dtype=np.complex128)
        array[list(amplitudes)] = [complex(a) for a in amplitudes.values()]
        return cls(array, polarization)

    @classmethod
    def single(cls, slot: int, amplitude: complex, polarization: Jones = H_POL) -> "PulseTrain":
        return cls.from_amplitudes({slot: amplitude}, polarization)

    @classmethod
    def vacuum(cls) -> "PulseTrain":
        return cls(np.zeros(0, dtype=np.complex128))

    @cached_property
    def energies(self) -> np.ndarray:
        """Each slot's mean photon number ``abs(a) ** 2``, read-only."""
        energies = np.float_power(np.hypot(self.amplitudes.real, self.amplitudes.imag), 2.0)
        energies.setflags(write=False)
        return energies

    @cached_property
    def total_energy(self) -> float:
        """``energies`` added left to right in slot order, uncompensated."""
        return reduce(operator.add, self.energies.tolist(), 0.0)

    def amplitude(self, slot: int) -> complex:
        """Slot ``slot``'s amplitude as a Python complex, 0j when empty."""
        if 0 <= slot < len(self.amplitudes) and (a := complex(self.amplitudes[slot])):
            return a
        return 0j

    def occupied_slots(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.amplitudes).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.amplitudes))


def _enum_field(obj, name: str, enum_type: type[Enum]) -> None:
    """Coerce a frozen dataclass field to ``enum_type``; a member or its
    value is accepted, anything else is rejected naming the field."""
    value = getattr(obj, name)
    try:
        member = enum_type(value)
    except ValueError:
        raise ValueError(
            f"{name} must be one of {[m.value for m in enum_type]}, got {value!r}"
        ) from None
    object.__setattr__(obj, name, member)


def _is_int(value) -> bool:
    """Whether ``value`` is integral but not a bool: the rule for counts,
    seeds, slots and round indices."""
    # an exact int first, before the slower ABC check
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _int_field(obj, name: str) -> None:
    """Coerce a frozen dataclass field holding a count or seed to ``int``;
    any integral value but a bool is accepted, anything else is rejected
    naming the field."""
    value = getattr(obj, name)
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    object.__setattr__(obj, name, int(value))


def _real_field(
    obj, name: str, low: float, high: float = math.inf, open_low: bool = False
) -> None:
    """Coerce a frozen dataclass field holding a real quantity to ``float``;
    a finite real value but a bool in [low, high], or in (low, high] with
    ``open_low``, is accepted, anything else is rejected naming the field."""
    value = getattr(obj, name)
    # an exact float or int first, before the ABC check
    if type(value) in (float, int) or (
        not isinstance(value, bool) and isinstance(value, numbers.Real)
    ):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (low < x if open_low else low <= x) and x <= high:
            object.__setattr__(obj, name, x)
            return
    interval = f"{'(' if open_low else '['}{low:g}, {high:g}{']' if high < math.inf else ')'}"
    raise ValueError(f"{name} must be a finite real number in {interval}, got {value!r}")


class DoubleClickPolicy(Enum):
    DISCARD_ROUND = "discard_round"
    RANDOM_PICK = "random_pick"


@dataclass(frozen=True)
class DetectorParams:
    """Threshold-detector model: Poisson click probability plus dark counts."""

    quantum_efficiency: float = 1.0
    dark_count_prob: float = 0.0
    double_click_policy: DoubleClickPolicy = DoubleClickPolicy.DISCARD_ROUND

    def __post_init__(self):
        _enum_field(self, "double_click_policy", DoubleClickPolicy)
        _real_field(self, "quantum_efficiency", 0.0, 1.0)
        _real_field(self, "dark_count_prob", 0.0, 1.0)


IDEAL_DETECTOR = DetectorParams()


class ClickEvent(NamedTuple):
    detector: Hashable
    slot: int


def coupler_mix(a, b):
    """Symmetric 50/50 coupler: ((a + i b), (i a + b)) / sqrt(2); also on arrays."""
    return ((a + 1j * b) * _INV_SQRT2, (1j * a + b) * _INV_SQRT2)


def mzi_pass(train: PulseTrain, delay_slots: int, long_arm_phase) -> tuple[PulseTrain, PulseTrain]:
    """One pass through an unbalanced interferometer.

    The input is split by a coupler, the long arm delays by ``delay_slots``
    and applies exp(-i * long_arm_phase), and a second coupler recombines.
    Output slot k holds the coupler mix of input(k) from the short arm with
    the delayed input(k - delay_slots) from the long arm. Returns
    (port1, port2) in coupler order; port2 is the constructive port at zero
    phase. Energy over both ports equals the input energy.
    """
    ports = _mzi_ports(train.amplitudes, delay_slots, long_arm_phase)
    return tuple(PulseTrain(port, train.polarization) for port in ports)


def _mzi_ports(amplitudes: np.ndarray, delay_slots: int, long_arm_phase):
    """``mzi_pass`` on an amplitude array: the two ports' arrays."""
    if delay_slots < 1:
        raise ValueError(f"delay_slots must be >= 1, got {delay_slots}")
    f = long_arm_phase.factor
    # each arm is the input padded with delay_slots empty slots, after it on
    # the short arm and before it on the long one
    size = len(amplitudes)
    short = np.zeros(size + delay_slots, np.complex128)
    long = np.zeros(size + delay_slots, np.complex128)
    short[:size] = amplitudes
    long[delay_slots:] = amplitudes
    return coupler_mix(short * _INV_SQRT2, f * (1j * long * _INV_SQRT2))


def phase_modulate(train: PulseTrain, slots, phase) -> PulseTrain:
    """Multiply the slots ``slots`` (a boolean mask, a slice or slot indices
    into the train's array) by exp(-i * phase); energy is unchanged."""
    f = phase.factor
    if f == 1 + 0j:
        return train
    out = train.amplitudes.copy()
    out[slots] *= f
    return PulseTrain(out, train.polarization)


def attenuate(train: PulseTrain, target_mean_photons: float) -> PulseTrain:
    """Uniformly rescale so the train's total energy equals the target."""
    if not 0 <= target_mean_photons < math.inf:
        raise ValueError(f"target_mean_photons must be finite and >= 0, got {target_mean_photons}")
    if target_mean_photons == 0.0:
        return PulseTrain(np.zeros(0, dtype=np.complex128), train.polarization)
    energy = train.total_energy
    if energy == math.inf:
        raise ValueError("cannot rescale a train whose total energy overflows")
    if energy == 0.0:
        raise ValueError("cannot rescale a vacuum train to positive energy")
    ratio = target_mean_photons / energy
    # a ratio that overflows or underflows to 0 is taken root by root: each
    # root is finite and nonzero (a subnormal ratio keeps the one root)
    if ratio == math.inf or ratio == 0.0:
        scale = math.sqrt(target_mean_photons) / math.sqrt(energy)
    else:
        scale = math.sqrt(ratio)
    return PulseTrain(train.amplitudes * scale, train.polarization)


def faraday_reflect(train: PulseTrain) -> PulseTrain:
    """Faraday-mirror reflection: polarization (p1, p2) -> (p2, -p1).

    The image of a 90-degree rotation R satisfies M^T R M = det(M) R for
    every matrix M, so a round trip through a reciprocal fiber (U forward,
    U transposed backward) lands on the same polarization for every U, up
    to the global phase det(U). Amplitudes are untouched.
    """
    p1, p2 = train.polarization
    return PulseTrain(train.amplitudes, (p2, -p1))


def click_probabilities(train: PulseTrain, params: DetectorParams, gate: range) -> np.ndarray:
    """The click probability of each slot of ``gate``, consecutive slots:
    1 - (1 - s)(1 - dark) with signal s = 1 - exp(-eta * |a|^2), so a slot
    that is empty, past the train's end or of an energy that underflows to
    0 clicks with the dark-count probability; ``math.expm1`` runs once per
    distinct energy."""
    energies = np.zeros(len(gate))
    inside = train.energies[gate.start : gate.stop]
    energies[: len(inside)] = inside
    levels, index = np.unique(energies, return_inverse=True)
    signal = -np.array([math.expm1(x) for x in (-params.quantum_efficiency * levels).tolist()])
    dark = params.dark_count_prob
    return (signal + dark - signal * dark)[index]


def click_thresholds(p1, p2):
    """The thresholds ``(first, low, any)`` that click the two detectors of a
    gate slot, of click probabilities ``p1`` and ``p2`` (floats or arrays),
    from the slot's one uniform u: the first detector clicks when u < first,
    the second when low <= u < any. The intervals measure p1, p2 and, where
    they overlap, p1 * p2: two independent clicks. With p2 = 0 the second
    interval is empty and the first is u < p1."""
    low = p1 * (1.0 - p2)
    return p1, low, p1 + p2 * (1.0 - p1)


def detect(
    branches: Sequence[tuple[Hashable, PulseTrain]],
    params: DetectorParams,
    gate: range,
    columns: Sequence[int],
    uniforms: Sequence[float],
) -> list[ClickEvent]:
    """The clicks of each pair of (detector, train) branches from one row of
    uniforms, pair by pair in slot order, the first detector of a slot first.

    Every slot k of ``gate`` is gated, lit or not. The j-th pair reads the
    uniform at position ``columns[j] + k`` for both its detectors, which
    click by the ``click_thresholds`` of their ``click_probabilities``. A
    lone last branch clicks when the uniform falls below its probability.
    The caller gives each pair a column wide enough for the gate; no other
    uniform is read.
    """
    u = np.asarray(uniforms)
    slots = np.asarray(gate)
    pairs = [branches[j : j + 2] for j in range(0, len(branches), 2)]
    clicks = []
    for pair, start in zip(pairs, columns, strict=True):
        p = [click_probabilities(train, params, gate) for _, train in pair]
        first, low, reach = click_thresholds(p[0], p[1] if len(p) == 2 else 0.0)
        x = u[start + slots]
        # (slot, detector) in slot order, the first detector first
        clicked = np.stack((x < first, (low <= x) & (x < reach)), axis=1)
        for i in np.flatnonzero(clicked).tolist():
            clicks.append(ClickEvent(pair[i % 2][0], int(slots[i // 2])))
    return clicks
