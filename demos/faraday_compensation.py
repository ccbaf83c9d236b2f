"""Why the mirror at Alice's end makes the link self-stabilizing.

The fiber applies an unknown, slowly drifting polarization unitary. A
Faraday mirror sends back the orthogonal state, and the return pass through
the same fiber undoes the distortion: whatever the fiber does, the light
arrives back at Bob in one fixed polarization (up to a global phase) and
the detector energies never move. Swap the mirror for a plain reflector
and the returned polarization wanders with the fiber.
"""

import numpy as np

from dpsqkd import (
    CascadeConfig,
    ChannelParams,
    PHASE_90,
    PHASE_180,
    alice_encode,
    attenuate,
    bob_measure,
    bob_prepare,
    faraday_reflect,
    fiber_transmit,
    random_unitary,
)


def roundtrip(prepared, cascade, unitary, mirror):
    params = ChannelParams()
    t = fiber_transmit(prepared, params, unitary)
    t = alice_encode(attenuate(t, 0.1), PHASE_180)
    t = mirror(t)
    t = fiber_transmit(t, params, unitary.T)  # reciprocity: transpose on the way back
    return bob_measure(t, cascade)


def polarization_spread(ports_by_trial):
    """Largest distance (up to global phase) between trials, per port."""
    worst = 0.0
    reference = ports_by_trial[0]
    for d1, d2 in ports_by_trial[1:]:
        for ref, port in ((reference[0], d1), (reference[1], d2)):
            a = np.array(port.polarization)
            b = np.array(ref.polarization)
            phase = np.vdot(b, a)
            if abs(phase) > 1e-12:
                a = a * (abs(phase) / phase)
            worst = max(worst, float(np.linalg.norm(a - b)))
    return worst


def energy_spread(ports_by_trial):
    worst = 0.0
    reference = ports_by_trial[0]
    for d1, d2 in ports_by_trial[1:]:
        for ref, port in ((reference[0], d1), (reference[1], d2)):
            for k in ref.occupied_slots():
                worst = max(
                    worst, abs(abs(port.amplitude(k)) - abs(ref.amplitude(k)))
                )
    return worst


def plain_reflector(train):
    return train  # keeps amplitude and polarization as they are


def main():
    rng = np.random.default_rng(7)
    cascade = CascadeConfig(3, PHASE_90)
    prepared = bob_prepare(cascade, 1.0)
    unitaries = [random_unitary(rng) for _ in range(40)]

    with_mirror = [roundtrip(prepared, cascade, u, faraday_reflect) for u in unitaries]
    without = [roundtrip(prepared, cascade, u, plain_reflector) for u in unitaries]

    print("40 random fiber settings, same source and phases:\n")
    print("                         polarization spread   energy spread")
    print(
        f"  Faraday mirror:              {polarization_spread(with_mirror):10.2e}"
        f"      {energy_spread(with_mirror):10.2e}"
    )
    print(
        f"  plain reflector:             {polarization_spread(without):10.2e}"
        f"      {energy_spread(without):10.2e}"
    )
    print(
        "\nWith the mirror the returned polarization is pinned to machine"
        "\nprecision for every fiber; with a plain reflector it wanders with"
        "\nthe fiber. (Detector energies are phase-encoded and survive either"
        "\nway in this scalar-detection model.)"
    )


if __name__ == "__main__":
    main()
