"""Desk-scale simulator of a plug-and-play differential-phase-shift QKD link.

A cascade of unbalanced delay-line interferometers turns one laser pulse
into a 2^n-slot phase-coded train; the train makes a Bob -> Alice -> Bob
round trip through a lossy, birefringent fiber with a Faraday mirror at the
far end, and neighbouring slots interfere back at Bob for a deterministic
key readout. The package also models the reference-pulse intercept-resend
attack and the sampling check that exposes it.
"""

from .phases import KEY_PHASES, PHASE_90, PHASE_180, QUATERNARY, QuantizedPhase
from .optics import (
    DetectorParams,
    DoubleClickPolicy,
    PulseTrain,
    attenuate,
    faraday_reflect,
    mzi_pass,
)
from .stations import CascadeConfig, Detector, alice_encode, bob_measure, bob_prepare
from .channel import BirefringenceMode, ChannelParams, EveKind, fiber_transmit, random_unitary
from .session import SessionConfig, competitor_efficiency, run_session, theoretical_efficiency

#: The names the README and the demos import, the enums and detector
#: settings a config passes, and the ``Detector`` ports that records report;
#: everything else is imported from its submodule.
__all__ = [
    "BirefringenceMode",
    "CascadeConfig",
    "ChannelParams",
    "Detector",
    "DetectorParams",
    "DoubleClickPolicy",
    "EveKind",
    "KEY_PHASES",
    "PHASE_90",
    "PHASE_180",
    "PulseTrain",
    "QUATERNARY",
    "QuantizedPhase",
    "SessionConfig",
    "alice_encode",
    "attenuate",
    "bob_measure",
    "bob_prepare",
    "competitor_efficiency",
    "faraday_reflect",
    "fiber_transmit",
    "mzi_pass",
    "random_unitary",
    "run_session",
    "theoretical_efficiency",
]
__version__ = "0.1.0"
