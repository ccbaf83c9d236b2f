"""Walk one laser pulse through the preparation cascade, stage by stage.

Each interferometer stage splits every incoming pulse into two copies a
fixed number of slots apart; halving the delays (4, 2, 1) keeps the copies
from overlapping, so three stages turn one pulse into eight equal-magnitude
pulses on consecutive slots. The last stage's long-arm modulator stamps
Bob's phase onto the even slots.
"""

import cmath
import math

from dpsqkd import CascadeConfig, PHASE_90, PulseTrain, QuantizedPhase, bob_prepare, mzi_pass


def show(train: PulseTrain, title: str):
    print(f"\n{title}")
    print(f"  energy kept: {train.total_energy:.4f}")
    for k in train.occupied_slots():
        a = train.amplitude(k)
        print(f"  slot {k}:  |a| = {abs(a):.4f}   phase = {cmath.phase(a) / math.pi:+.2f} pi")


def main():
    bob_phase = PHASE_90
    print(f"Bob's phase for this round: {bob_phase} (applied on the last stage)")

    train = PulseTrain.single(1, 1.0)
    show(train, "source pulse")

    for i, delay in enumerate((4, 2, 1)):
        phase = bob_phase if delay == 1 else QuantizedPhase(0)
        _, train = mzi_pass(train, delay, phase)
        show(train, f"after stage {i + 1} (delay {delay} slots)")

    print(
        "\nEach stage halves the kept field and doubles the pulse count;"
        "\nodd slots stay at phase 0, even slots carry Bob's phase."
    )

    # the one-call equivalent
    direct = bob_prepare(CascadeConfig(3, bob_phase), 1.0)
    match = all(
        abs(direct.amplitude(k) - train.amplitude(k)) < 1e-12
        for k in range(1, 9)
    )
    print(f"bob_prepare reproduces the chained stages exactly: {match}")


if __name__ == "__main__":
    main()
