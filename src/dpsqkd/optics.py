"""Field-level optical primitives.

A pulse train maps time slots to classical complex field amplitudes and
carries one Jones vector for the whole train: every pulse of a train sees
the same fiber unitary (collective birefringence), so the pulses never
differ in polarization. Couplers, delay-line interferometers, phase
modulators, attenuators and the Faraday mirror are pure functions on
immutable pulse trains. Photon detection comes in two halves: the pure
``click_table`` turns output trains into per-slot click probabilities, each
tied to a fixed position in a row of uniforms, and ``sample_clicks``
compares a table with such a row. A table depends on amplitudes alone, so a
caller that meets the same trains again can build it once and sample it
many times.

Conventions fixed here (and relied on by the goldens in the test suite):

* 50/50 couplers use the symmetric matrix [[1, i], [i, 1]] / sqrt(2).
* An interferometer pass keeps honest amplitudes: each pass halves the
  per-path field, and the two output ports together conserve energy.
* Port 2 of ``mzi_pass`` carries the constructive (+) combination when the
  long-arm phase is zero; port 1 carries the (-) combination.
* The Faraday mirror maps (p1, p2) -> (p2, -p1), the quarter-wave rotation
  that makes a reciprocal round trip (U forward, mirror, U transposed
  backward) independent of U up to a global phase.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Jones vector as a plain (complex, complex) pair; horizontal by default.
Jones = tuple[complex, complex]
H_POL: Jones = (1 + 0j, 0j)
V_POL: Jones = (0j, 1 + 0j)


def unit_jones(p1: complex, p2: complex) -> Jones:
    """Normalize a Jones vector; rejects the zero vector."""
    norm = math.sqrt(abs(p1) ** 2 + abs(p2) ** 2)
    if norm == 0.0:
        raise ValueError("polarization vector must be nonzero")
    return (p1 / norm, p2 / norm)


def jones_product(matrix: np.ndarray, polarization: Jones) -> Jones:
    """The 2x2 matrix times the Jones vector, unchecked."""
    (u00, u01), (u10, u11) = matrix.tolist()
    p1, p2 = polarization
    return (u00 * p1 + u01 * p2, u10 * p1 + u11 * p2)


@dataclass(frozen=True)
class PulseTrain:
    """Sparse train: map from non-negative slot index to complex amplitude,
    plus the one unit Jones vector all its pulses share.

    An absent index means vacuum. The squared amplitude magnitude is the
    slot's mean photon number; the polarization carries no intensity.
    """

    slots: dict[int, complex]
    polarization: Jones = H_POL

    @classmethod
    def from_amplitudes(
        cls, amplitudes: Mapping[int, complex], polarization: Jones = H_POL
    ) -> "PulseTrain":
        slots = {}
        for k, a in amplitudes.items():
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"slot index must be a non-negative integer, got {k!r}")
            slots[k] = complex(a)
        return cls(slots, polarization)

    @classmethod
    def single(cls, slot: int, amplitude: complex, polarization: Jones = H_POL) -> "PulseTrain":
        return cls.from_amplitudes({slot: amplitude}, polarization)

    @classmethod
    def vacuum(cls) -> "PulseTrain":
        return cls({})

    @cached_property
    def total_energy(self) -> float:
        return sum(abs(a) ** 2 for a in self.slots.values())

    def amplitude(self, slot: int) -> complex:
        return self.slots.get(slot, 0j)

    def occupied_slots(self) -> tuple[int, ...]:
        return tuple(sorted(self.slots))

    def __len__(self) -> int:
        return len(self.slots)

    def __contains__(self, slot: int) -> bool:
        return slot in self.slots


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


def _int_field(obj, name: str) -> None:
    """Coerce a frozen dataclass field holding a count or seed to ``int``;
    any integral value but a bool is accepted, anything else is rejected
    naming the field."""
    value = getattr(obj, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    object.__setattr__(obj, name, int(value))


def _real_field(
    obj, name: str, low: float, high: float = math.inf, open_low: bool = False
) -> None:
    """Coerce a frozen dataclass field holding a real quantity to ``float``;
    a finite real value but a bool in [low, high], or in (low, high] with
    ``open_low``, is accepted, anything else is rejected naming the field."""
    value = getattr(obj, name)
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
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


def coupler_mix(a: complex, b: complex) -> tuple[complex, complex]:
    """Symmetric 50/50 coupler: ((a + i b), (i a + b)) / sqrt(2)."""
    return ((a + 1j * b) * _INV_SQRT2, (1j * a + b) * _INV_SQRT2)


def mzi_pass(
    train: PulseTrain,
    delay_slots: int,
    long_arm_phase,
) -> tuple[PulseTrain, PulseTrain]:
    """One pass through an unbalanced interferometer.

    The input is split by a coupler, the long arm delays by ``delay_slots``
    and applies exp(-i * long_arm_phase), and a second coupler recombines.
    Output slot k holds the coupler mix of input(k) from the short arm with
    the delayed input(k - delay_slots) from the long arm. Returns
    (port1, port2) in coupler order; port2 is the constructive port at zero
    phase. Energy over both ports equals the input energy.
    """
    if delay_slots < 1:
        raise ValueError(f"delay_slots must be >= 1, got {delay_slots}")
    f = long_arm_phase.factor
    slots = train.slots
    get = slots.get
    keys = set(slots)
    keys.update(k + delay_slots for k in slots)
    out1: dict[int, complex] = {}
    out2: dict[int, complex] = {}
    for k in keys:
        short = get(k)
        long = get(k - delay_slots)
        s = short * _INV_SQRT2 if short is not None else 0j
        l = f * (1j * long * _INV_SQRT2) if long is not None else 0j
        o1, o2 = coupler_mix(s, l)
        if o1 != 0j:
            out1[k] = o1
        if o2 != 0j:
            out2[k] = o2
    return PulseTrain(out1, train.polarization), PulseTrain(out2, train.polarization)


def phase_modulate(
    train: PulseTrain,
    selector: Callable[[int], bool],
    phase,
) -> PulseTrain:
    """Multiply selected slots by exp(-i * phase); energy is unchanged."""
    f = phase.factor
    if f == 1 + 0j:
        return train
    out = {k: a * f if selector(k) else a for k, a in train.slots.items()}
    return PulseTrain(out, train.polarization)


def attenuate(train: PulseTrain, target_mean_photons: float) -> PulseTrain:
    """Uniformly rescale so the train's total energy equals the target."""
    if target_mean_photons < 0:
        raise ValueError(f"target_mean_photons must be >= 0, got {target_mean_photons}")
    if target_mean_photons == 0.0:
        return PulseTrain({}, train.polarization)
    energy = train.total_energy
    if energy == 0.0:
        raise ValueError("cannot rescale a vacuum train to positive energy")
    scale = math.sqrt(target_mean_photons / energy)
    return PulseTrain({k: a * scale for k, a in train.slots.items()}, train.polarization)


def _check_unitary(transform: np.ndarray) -> np.ndarray:
    u = np.asarray(transform, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"polarization transform must be 2x2, got shape {u.shape}")
    if np.max(np.abs(u @ u.conj().T - np.eye(2))) > 1e-10:
        raise ValueError("polarization transform is not unitary")
    return u


def jones_apply(train: PulseTrain, transform: np.ndarray) -> PulseTrain:
    """Apply a unitary Jones matrix to the train's polarization."""
    u = _check_unitary(transform)
    return PulseTrain(train.slots, jones_product(u, train.polarization))


def faraday_reflect(train: PulseTrain) -> PulseTrain:
    """Faraday-mirror reflection: polarization (p1, p2) -> (p2, -p1).

    The image of a 90-degree rotation R satisfies M^T R M = det(M) R for
    every matrix M, so a round trip through a reciprocal fiber (U forward,
    U transposed backward) lands on the same polarization for every U, up
    to the global phase det(U). Amplitudes are untouched.
    """
    p1, p2 = train.polarization
    return PulseTrain(train.slots, (p2, -p1))


#: One gated slot: (click event, position in the row of uniforms, click
#: probability).
ClickEntry = tuple[ClickEvent, int, float]
#: Detection table: the entry of every gated slot, branch by branch in slot
#: order.
ClickTable = tuple[ClickEntry, ...]


def click_table(
    branches: Iterable[tuple[Hashable, PulseTrain]],
    params: DetectorParams,
    columns: Sequence[int],
) -> ClickTable:
    """Click probability of every gated slot of each (detector, train) branch.

    Per occupied slot the probability is 1 - exp(-eta * |amplitude|^2);
    dark counts add independently over the gated window (every occupied
    slot and its immediate neighbours). A slot with exactly zero amplitude
    and zero dark probability has probability 0. Slot k of the j-th branch
    is decided by the uniform at position ``columns[j] + k`` of a row, so
    the caller gives each branch a column wide enough for its window.
    """
    dark = params.dark_count_prob
    table = []
    for (detector, train), start in zip(branches, columns, strict=True):
        slots = train.slots
        if dark > 0.0:
            window = set(slots)
            for k in slots:
                window.add(k + 1)
                if k >= 1:
                    window.add(k - 1)
            candidates = sorted(window)
        else:
            candidates = sorted(slots)
        for k in candidates:
            a = slots.get(k)
            p = click_probability(a, params) if a is not None else dark
            table.append((ClickEvent(detector, k), start + k, p))
    return tuple(table)


def click_probability(amplitude: complex, params: DetectorParams) -> float:
    """Click probability of an occupied slot: 1 - exp(-eta * |amplitude|^2),
    or-ed with an independent dark count. An empty slot of the gated window
    clicks with the dark-count probability alone."""
    p_signal = -math.expm1(-params.quantum_efficiency * abs(amplitude) ** 2)
    dark = params.dark_count_prob
    return p_signal + dark - p_signal * dark


def sample_clicks(table: ClickTable, uniforms: Sequence[float]) -> list[ClickEvent]:
    """The clicks of one row of uniforms: a gated slot clicks when the
    uniform at its position falls below its probability."""
    return [click for click, j, p in table if uniforms[j] < p]
