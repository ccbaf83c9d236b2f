import cmath
import math
import re

import numpy as np
import pytest

from dpsqkd.phases import (
    CHECK_PHASES,
    KEY_PHASES,
    PHASE_0,
    PHASE_90,
    PHASE_180,
    PHASE_270,
    QUATERNARY,
    QuantizedPhase,
)


def test_factor_table_matches_exp():
    for k in range(4):
        expected = cmath.exp(-1j * k * math.pi / 2)
        assert abs(QuantizedPhase(k).factor - expected) < 1e-15


def test_factor_values_are_exact():
    assert QuantizedPhase(0).factor == 1 + 0j
    assert QuantizedPhase(1).factor == -1j
    assert QuantizedPhase(2).factor == -1 + 0j
    assert QuantizedPhase(3).factor == 1j


def test_addition_closed_mod_4():
    for a in range(8):
        for b in range(8):
            s = QuantizedPhase(a) + QuantizedPhase(b)
            assert s.quarter_turns == (a + b) % 4
            d = QuantizedPhase(a) - QuantizedPhase(b)
            assert d.quarter_turns == (a - b) % 4


def test_doubling_map():
    assert [QuantizedPhase(k).doubled().quarter_turns for k in range(4)] == [0, 2, 0, 2]


def test_negation_and_normalization():
    assert (-PHASE_90).quarter_turns == 3
    assert QuantizedPhase(-1) == PHASE_270
    assert QuantizedPhase(7) == PHASE_270


def test_quarter_turns_must_be_integral_and_not_a_bool():
    # numpy integers are stored as int; a float, a bool or a string is
    # rejected naming the value, not at the first read of the factor
    for k in (np.int8(-1), np.int64(7), np.uint8(3)):
        phase = QuantizedPhase(k)
        assert phase == PHASE_270 and type(phase.quarter_turns) is int
    for k in (1.5, 1.0, np.float64(2.0), True, np.bool_(True), "1", None, 1 + 0j):
        with pytest.raises(ValueError, match=re.escape(f"got {k!r}")):
            QuantizedPhase(k)


def test_radians():
    assert QuantizedPhase(2).radians == pytest.approx(math.pi)


def test_alphabets():
    assert QUATERNARY == (PHASE_0, PHASE_90, PHASE_180, PHASE_270)
    assert KEY_PHASES == (PHASE_0, PHASE_180)
    assert CHECK_PHASES == (PHASE_0, PHASE_90)


def test_str_labels():
    assert [str(p) for p in QUATERNARY] == ["0", "pi/2", "pi", "3pi/2"]
