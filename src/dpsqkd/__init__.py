"""Desk-scale simulator of a plug-and-play differential-phase-shift QKD link.

A cascade of unbalanced delay-line interferometers turns one laser pulse
into a 2^n-slot phase-coded train; the train makes a Bob -> Alice -> Bob
round trip through a lossy, birefringent fiber with a Faraday mirror at the
far end, and neighbouring slots interfere back at Bob for a deterministic
key readout. The package also models the reference-pulse intercept-resend
attack and the sampling check that exposes it.
"""

from .phases import (
    CHECK_PHASES,
    KEY_PHASES,
    PHASE_0,
    PHASE_90,
    PHASE_180,
    PHASE_270,
    QUATERNARY,
    QuantizedPhase,
)
from .optics import (
    ClickEvent,
    DetectorParams,
    DoubleClickPolicy,
    H_POL,
    IDEAL_DETECTOR,
    Jones,
    PulseTrain,
    V_POL,
    attenuate,
    coupler_mix,
    detect,
    faraday_reflect,
    jones_apply,
    mzi_pass,
    phase_modulate,
    unit_jones,
)
from .stations import (
    BitOutcome,
    CascadeConfig,
    CheckOutcome,
    Detector,
    PairLead,
    ProtocolError,
    alice_decoy_replace,
    alice_encode,
    alice_energy_monitor,
    alice_sample_and_check,
    bob_measure,
    bob_prepare,
    check_expected_outcome,
    infer_bit,
    lead_parity,
)
from .channel import (
    BirefringenceMode,
    ChannelParams,
    EveKind,
    fiber_transmit,
    intercept_backward,
    intercept_forward,
    random_unitary,
    round_unitary,
)
from .session import (
    QberEstimate,
    RoundRecord,
    SessionConfig,
    SessionResult,
    SessionStats,
    competitor_efficiency,
    estimate_qber,
    round_rng,
    run_round,
    run_session,
    session_stats,
    sift,
    theoretical_efficiency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
