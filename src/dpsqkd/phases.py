"""Exact quarter-turn phase arithmetic.

Every phase shift in the protocol is a multiple of pi/2, so phases are kept
as integers mod 4 and only converted to a complex factor through a fixed
4-element table. Readout rules like "does twice Bob's phase equal Alice's
phase" are then exact integer comparisons with no floating-point tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

# exp(-i * k * pi/2) for k = 0..3; exact complex values, no trig
_UNIT_TABLE = (1 + 0j, -1j, -1 + 0j, 1j)


@dataclass(frozen=True, slots=True)
class QuantizedPhase:
    """A phase k * pi/2 stored as the integer k mod 4, k integral, not a bool."""

    quarter_turns: int

    def __post_init__(self):
        k = self.quarter_turns
        # optics._is_int's rule, kept here so that phases imports nothing of the package
        if type(k) is not int and (isinstance(k, bool) or not isinstance(k, numbers.Integral)):
            raise ValueError(f"quarter_turns must be an integer, got {k!r}")
        object.__setattr__(self, "quarter_turns", int(k) % 4)

    def __add__(self, other: "QuantizedPhase") -> "QuantizedPhase":
        return QuantizedPhase(self.quarter_turns + other.quarter_turns)

    def __sub__(self, other: "QuantizedPhase") -> "QuantizedPhase":
        return QuantizedPhase(self.quarter_turns - other.quarter_turns)

    def __neg__(self) -> "QuantizedPhase":
        return QuantizedPhase(-self.quarter_turns)

    def doubled(self) -> "QuantizedPhase":
        """Twice this phase; maps {0, 1, 2, 3} -> {0, 2, 0, 2}."""
        return QuantizedPhase(2 * self.quarter_turns)

    @property
    def radians(self) -> float:
        return self.quarter_turns * math.pi / 2

    @property
    def factor(self) -> complex:
        """The modulation factor exp(-i * phase), from the exact table."""
        return _UNIT_TABLE[self.quarter_turns]

    def __str__(self) -> str:
        return ("0", "pi/2", "pi", "3pi/2")[self.quarter_turns]


PHASE_0 = QuantizedPhase(0)
PHASE_90 = QuantizedPhase(1)
PHASE_180 = QuantizedPhase(2)
PHASE_270 = QuantizedPhase(3)

#: Bob's signal-preparation alphabet.
QUATERNARY = (PHASE_0, PHASE_90, PHASE_180, PHASE_270)
#: Alice's key alphabet (bit 0 / bit 1).
KEY_PHASES = (PHASE_0, PHASE_180)
#: Check/decoy basis alphabet.
CHECK_PHASES = (PHASE_0, PHASE_90)
