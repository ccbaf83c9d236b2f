"""Round orchestration, sifting, and session statistics.

One laser pulse per round. A round runs: prepare -> eavesdropper forward
leg -> fiber -> Alice (energy monitor, optional whole-train check,
attenuation, key/decoy encoding, Faraday mirror) -> fiber -> eavesdropper
backward leg -> readout interferometer -> detectors. The eavesdropper, if
the config names one, is the intercept-resend attack of ``channel``.
:func:`reference_round` runs exactly that on the round's own trains, the
two legs being ``_forward_leg`` and ``_return_leg``: it is the readable
definition of a round, and the session kernel is checked against it.

A session does not run the optics per round. The Faraday mirror cancels the
fiber's polarization transform, so a round's click probabilities depend
only on its phases (Alice's key phase, Bob's phase, the check phase) and on
its decoy replacements, never on the fiber unitary: the records of a
session are the same for every ``BirefringenceMode``. Bob's readout
interferes neighbouring slots only (the pairwise rule of differential phase
shift): output slot k reads input slots k - 1 and k, of which exactly one,
``key_slot(k)``, is odd and carries Alice's modulation. So each output
slot's click probability is the one it has in a train whose odd slots all
carry that slot's phase: key phase 0 or pi, or decoy phase pi/2.
:func:`build_phase_tables` runs the same legs once per Bob phase for each
of those trains and for each check phase. A gated slot's click
probabilities, dark counts included, depend only on its class (inner even,
inner odd, first or last edge), so the tables keep them per class
(:class:`PhaseTables`). Its one input is a config's :class:`Link`
(``SessionConfig.link``), the fields the tables depend on, never the seed;
``SessionConfig.phase_tables`` looks the tables up in a bounded memo keyed
on the link, which shares them read-only between configs.
Bob's phase moves no slot's energy, so the energy monitor's alarm, whether
Alice's odd slots are lit and whether Eve reads anything back are one flag
each per link. Under the intercept-resend attack Eve reads the odd slots
and votes: keyed slots vote for the key phase, a decoy at 0 votes for 0
and one at pi/2 for neither (``channel.eve_key_phase``, also the reference
round's rule). The kernel counts each round's votes from its key phase
and decoys, and with no decoys takes her guess to be the key phase; Eve
resends the key train of her guess, which the round reads whole.

The kernel runs a chunk of rounds as array work on their rows of uniforms.
Each round takes one row of the tables: its check train, its key train or
the key train Eve resent. A gate slot's one uniform clicks both of its
detectors (``optics.click_thresholds``); ``_clicks`` splits into detectors
only the few slots below the envelope of their round's kind. A click is
its round and its gate position, one of 2G per round, and the kernel reads
bits, decoy hits and check scores from the tables by 1-D takes. Decoys,
Eve's vote, sampling and random picks cost per-round work only when the
config turns them on; dark counts are in the tables and cost none.
A session folds each chunk into its counts and its sifted bits as it is
drawn (``_fold``), and :func:`session_stats` reduces the sums: no per-round
array outlives its chunk. ``SessionResult.columns`` (a :class:`RoundColumns`)
and ``records`` (a :class:`RoundRecord` per round) rerun the kernel over the
same rows when first read; :func:`run_round` runs one row as a chunk of one.

Stream contract. All of a session's rounds read one stream,
``np.random.PCG64`` seeded with ``SeedSequence(master_seed,
spawn_key=(1,))``. Round i owns the W uniforms (``Generator.random``, one
64-bit output each) that start at output i * W. A row holds only the draws
that the config's rounds can read, each at a fixed position in the round's
row u whether or not the round uses it: the sampling draw at ``_SAMPLE``
and the click draws from ``_CLICKS`` in every row, the others where
``SessionConfig.block`` puts them; no other module knows a position. With
n stages and G = 2^n + 1 gated slots 1 .. 2^n + 1 (``CascadeConfig.gate``):

* u[0], u[1], u[2]: Alice's key phase, Bob's phase and the check phase;
* u[3]: the sampling draw, the train is diverted when u[3] < sample_prob;
* u[4 + k - 1]: the click draw of gate slot k, one uniform for both of its
  detectors, D1 and D2 in a keyed round, D3 and D4 in a sampled one: with
  (first, low, any) the ``optics.click_thresholds`` of their click
  probabilities, the first clicks when u < first and the second when
  low <= u < any;
* u[4 + G]: the double-click pick, clicks[int(u * len(clicks))], only
  under ``DoubleClickPolicy.RANDOM_PICK``;
* then, only when decoy_prob > 0, the decoy phase and the decoy draw of
  each odd slot 2j + 1, 0 <= j < 2^(n-1), in that order.

So W = 4 + G with neither the pick nor decoys: 7, 9, 13, 21, 37 and 69 at
n = 1 .. 6.

A session draws its rows as arrays of at most 2^17 uniforms (one row at a
time when a row is longer); ``round_uniforms`` draws one round's row alone
after ``PCG64.advance(i * W)``, which jumps ahead in O(log i) steps.
Both read the same numbers, so a round run alone equals the same round in
its session, and two sessions with the same config are bit-identical.
QBER disclosure draws from spawn key (2, 0) (``_STATS_STREAM``), and the
reference round's fiber from spawn key (3,) or ``default_rng([master_seed,
round_index])`` (``channel.round_unitary``), which no record reads.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channel import (
    ChannelParams,
    EveKind,
    eve_key_phase,
    fiber_transmit,
    intercept_backward,
    intercept_forward,
    round_unitary,
)
from .optics import (
    ClickEvent,
    DetectorParams,
    DoubleClickPolicy,
    IDEAL_DETECTOR,
    PulseTrain,
    _enum_field,
    _int_field,
    _is_int,
    _real_field,
    attenuate,
    click_probabilities,
    click_thresholds,
    detect,
    faraday_reflect,
)
from .phases import CHECK_PHASES, KEY_PHASES, PHASE_0, PHASE_90, QUATERNARY, QuantizedPhase
from .stations import (
    BitOutcome,
    CascadeConfig,
    Detector,
    alice_check_ports,
    alice_decoy_positions,
    alice_encode,
    alice_energy_monitor,
    alice_score_check,
    bob_measure,
    bob_prepare,
    infer_bit,
    key_slot,
    odd_slots,
)

# spawn-key namespaces under the master seed
_ROUND_STREAM = 1
_STATS_STREAM = 2

# the sampling draw, after the key, Bob's and the check phase, and the click
# draw of gate slot 1, the first of G (module docstring)
_SAMPLE = 3
_CLICKS = 4
# uniforms per array call of a session (1 MiB of draws), so chunk memory
# stays bounded for any n. A chunk's kernel calls cost a fixed 45 us at n=3
# and 80 us with decoys (2-vCPU Xeon), and whole sessions ran 50 and 220 us
# faster per chunk saved, so a 10 000-round n=3 session runs as one chunk.
# 2^16 would split that session into 5041 + 4959 rows, which took about 220
# minor page faults per session, against 0.3 at 2^15 and 1.1 at 2^17.
_CHUNK_UNIFORMS = 2**17

#: The largest cascade a session accepts: a round's row holds about 2^n
#: uniforms, and the field-level tables build trains of 2^n slots.
MAX_STAGES = 16


@dataclass(frozen=True)
class SessionConfig:
    """A session's settings. A config also holds two values derived from its
    fields when it is made, neither of them a field: ``block``, where a
    round's draws sit in its row of uniforms (:class:`RoundBlock`), and
    ``link``, the fields that the phase tables read (:class:`Link`)."""

    n_stages: int = 3
    rounds: int = 100_000
    source_mean_photons: float = 512.0
    mean_photons_return: float = 0.1
    sample_prob: float = 0.1
    decoy_prob: float = 0.0
    energy_tolerance: float = 0.05
    disclose_fraction: float = 0.1
    max_check_error: float = 0.05
    max_qber: float = 0.05
    detector: DetectorParams = IDEAL_DETECTOR
    channel: ChannelParams = ChannelParams()
    eve_kind: EveKind = EveKind.PASSIVE
    master_seed: int = 0

    def __post_init__(self):
        _enum_field(self, "eve_kind", EveKind)
        for name in ("n_stages", "rounds", "master_seed"):
            _int_field(self, name)
        if self.n_stages < 1:
            raise ValueError(f"n_stages must be >= 1, got {self.n_stages}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        _real_field(self, "source_mean_photons", 0.0, open_low=True)
        _real_field(self, "mean_photons_return", 0.0)
        _real_field(self, "sample_prob", 0.0, 1.0)
        _real_field(self, "decoy_prob", 0.0, 1.0)
        _real_field(self, "energy_tolerance", 0.0)
        _real_field(self, "disclose_fraction", 0.0, 1.0, open_low=True)
        _real_field(self, "max_check_error", 0.0)
        _real_field(self, "max_qber", 0.0)
        for name, kind in (("detector", DetectorParams), ("channel", ChannelParams)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        # the energy per slot reaching Alice must stay a normal float, or her
        # energy monitor and attenuator would see an empty train
        arriving = self.source_mean_photons * self.channel.transmittance
        per_slot = math.ldexp(arriving, -2 * self.n_stages)
        if per_slot < sys.float_info.min:
            raise ValueError(
                f"source_mean_photons * transmittance / 4**n_stages underflows to {per_slot}"
                f" (loss_db {self.channel.loss_db}, n_stages {self.n_stages})"
            )
        if self.n_stages > MAX_STAGES:
            raise ValueError(f"n_stages must be <= {MAX_STAGES}, got {self.n_stages}")
        # derived once here rather than on first read: on Python 3.11 the
        # first read of a functools.cached_property takes a lock, about 2 us
        object.__setattr__(self, "block", _round_block(self))
        object.__setattr__(self, "link", _link(self))

    @property
    def phase_tables(self) -> PhaseTables:
        """The optics of a round for each of Bob's phases, run once per link
        with the field-level functions: ``build_phase_tables(self.link)``
        through a memo keyed on the :class:`Link`.

        Configs with one link share one read-only table object; the memo
        keeps the last ``_phase_tables.cache_info().maxsize`` links (about
        3.6 MiB each at n=16), and the config keeps no reference to them.
        """
        return _phase_tables(self.link)


class Link(NamedTuple):
    """The fields of a config that the phase tables read, and all that
    :func:`build_phase_tables` and the legs of a round read of a config.

    Configs that agree on them share one table object, whatever their seed,
    rounds, sampling, decoys, thresholds, double-click policy or
    birefringence. The detector fields keep the names of ``DetectorParams``
    and ``transmittance`` is that of ``ChannelParams``, so a link stands for
    the detector in ``click_probabilities`` and for the channel in
    ``fiber_transmit``.
    """

    n_stages: int
    source_mean_photons: float
    mean_photons_return: float
    energy_tolerance: float
    quantum_efficiency: float
    dark_count_prob: float
    loss_db: float
    eve_kind: EveKind

    transmittance = ChannelParams.transmittance


class RoundBlock(NamedTuple):
    """The positions of a round's row of uniforms that a config moves (see
    the module docstring). The click draws, from ``_CLICKS``, are one for
    each of the ``gated`` = 2^n + 1 gate slots 1 .. 2^n + 1
    (``CascadeConfig.gate``), both of its detectors. ``pick`` is the
    double-click pick, ``decoy_phase`` the decoy phase and ``decoys`` the
    draw of odd slot 1, the first of 2^(n-1), each None when the config
    draws none. A row is ``width`` uniforms, and a session draws
    ``chunk_rounds`` rows per array call.
    """

    gated: int
    pick: int | None
    decoy_phase: int | None
    decoys: int | None
    width: int
    chunk_rounds: int


def _round_block(config: SessionConfig) -> RoundBlock:
    """Where a round's draws sit in its row of uniforms: only those that
    ``config``'s rounds can read."""
    gated = 2**config.n_stages + 1
    width = _CLICKS + gated
    pick = decoy_phase = decoys = None
    if config.detector.double_click_policy is DoubleClickPolicy.RANDOM_PICK:
        pick, width = width, width + 1
    if config.decoy_prob > 0.0:
        decoy_phase, decoys = width, width + 1
        width = decoys + 2 ** (config.n_stages - 1)
    # row i starts at output i * width of the stream
    chunk_rounds = max(1, _CHUNK_UNIFORMS // width)
    return RoundBlock(gated, pick, decoy_phase, decoys, width, chunk_rounds)


def _link(config: SessionConfig) -> Link:
    """The fields of ``config`` that the phase tables read."""
    return Link(
        n_stages=config.n_stages,
        source_mean_photons=config.source_mean_photons,
        mean_photons_return=config.mean_photons_return,
        energy_tolerance=config.energy_tolerance,
        quantum_efficiency=config.detector.quantum_efficiency,
        dark_count_prob=config.detector.dark_count_prob,
        loss_db=config.channel.loss_db,
        eve_kind=config.eve_kind,
    )


#: Rows of ``PhaseTables.thresholds``: the check trains at check phase 0 and
#: pi/2, then the return trains whose odd slots all carry 0, 1 or 2 quarter
#: turns (key phase 0, decoy phase pi/2, key phase pi).
_CHECK_ROWS = 0
_TURN_ROWS = 2
_TRAIN_ROWS = 5
#: Slot classes of ``PhaseTables.slot_class``: inner even, inner odd, first
#: and last edge.
_CLASSES = 4

#: Detectors c = 0 and 1 of gate position 2(k - 1) + c, in a keyed and a sampled round.
_KEY_DETECTORS = (Detector.D1, Detector.D2)
_CHECK_DETECTORS = (Detector.D3, Detector.D4)

#: ``RoundColumns.bit`` codes: no chosen click, then ``_BITS[code]``.
_NO_BIT = -1
_BITS = (BitOutcome.BIT0, BitOutcome.BIT1, BitOutcome.DISCARD)


class PhaseTables(NamedTuple):
    """What the optics of a round give, over Bob's phase and the slot classes.

    The Faraday mirror undoes the fiber's polarization transform, and no
    amplitude depends on the polarization, so these hold for every fiber
    unitary. Arrays are indexed by Bob's phase in quarter turns first. Of
    the G = 2^n + 1 gate slots 1 .. 2^n + 1 (``CascadeConfig.gate``), gate
    slot k is at k - 1, as its click draw is at ``_CLICKS + k - 1`` of a
    round's row; its two detectors c = 0 and 1 are at gate position
    2(k - 1) + c.

    Bob's phase sits on the even slots of a train whose slots all have one
    magnitude, so it moves no slot's energy on the way to Alice and back.
    Three 0-d flags hold for every Bob phase: ``energy_alarm``, the energy
    monitor's verdict; ``odd``, whether Alice's odd slots are lit (every one
    of them is a decoy candidate, or none is); ``eve_reads``, whether Eve
    reads a phase back and so resends every unsampled round, false with no
    attack. The kernel counts her vote from the round's key phase and
    decoys (``channel.eve_key_phase``).

    Every inner gate slot of one parity reads the same pair of slots, so
    gate slot k has the optics of its class ``slot_class[k - 1]``: 0 inner
    even, 1 inner odd, 2 the first edge, 3 the last edge.
    ``thresholds[:, b, r, c]`` is (first, low, any) of a class-c slot in
    train r (rows ``_CHECK_ROWS`` + check index, ``_TURN_ROWS`` + quarter
    turns on the odd slots, the decoy row at 1 built for every link): the
    ``optics.click_thresholds`` of its two click probabilities, dark counts
    included, lit or empty, as ``optics.detect`` reads them.
    ``any[0, k - 1]`` and ``any[1, k - 1]`` are gate slot k's envelopes, its
    largest ``any`` over the rows that a keyed and a sampled round can read.
    The rows differ only in the last bits (a slot's energy over both ports
    is the same for every phase only up to rounding), so the envelope finds
    the lit slots and each one's own row decides them. At n=16 the tables
    hold 3.6 MiB.
    ``bit[b, g]`` is the ``RoundColumns.bit`` code of a D1/D2 click at gate
    position g (``infer_bit``); ``check_matched[b, i]`` says whether check index i
    scores against Bob's phase, and ``check_compared`` and ``check_error``
    mark the D3/D4 clicks that it compares and counts as errors
    (``alice_score_check``).
    """

    energy_alarm: np.ndarray
    odd: np.ndarray
    eve_reads: np.ndarray
    slot_class: np.ndarray
    any: np.ndarray
    thresholds: np.ndarray
    bit: np.ndarray
    check_matched: np.ndarray
    check_compared: np.ndarray
    check_error: np.ndarray


#: Bob's readout as (detector, train) branches, D1 first.
Branches = tuple[tuple[Detector, PulseTrain], tuple[Detector, PulseTrain]]


def build_phase_tables(link: Link) -> PhaseTables:
    """Bob's preparation, the forward leg, Alice's station and the return
    leg of ``link`` for every Bob phase, as the arrays of
    :class:`PhaseTables`, read-only since sessions share them. Raises
    ValueError if a slot's thresholds differ from its class's."""
    n = link.n_stages
    # the readout rules read a gate slot only through its parity and whether
    # it is an edge slot: each rule runs on one slot per class (inner even,
    # inner odd, first edge, last edge), and ``slot_class`` spreads the
    # result over the gate, whose ends are the edge slots
    cascades = [CascadeConfig(n, phase) for phase in QUATERNARY]
    gate = cascades[0].gate
    representatives = (2, 3, *cascades[0].edge_slots)
    slot_class = (np.array(gate) % 2).astype(np.int8)
    slot_class[[0, -1]] = (2, 3)
    picked = np.array(representatives) - gate.start
    thresholds = np.zeros((3, len(QUATERNARY), _TRAIN_ROWS, _CLASSES))
    for b, cascade in enumerate(cascades):
        prepared, sent, train, energy_alarm = _forward_leg(link, cascade)
        # the (detector, train) branches of every row of the tables
        by_row = {
            _CHECK_ROWS + i: alice_check_ports(train, phase) for i, phase in enumerate(CHECK_PHASES)
        }
        attenuated = attenuate(train, link.mean_photons_return)
        odd_in_train = odd_slots(attenuated)
        for phase in KEY_PHASES:
            by_row[_TURN_ROWS + phase.quarter_turns], eve_phase = _return_leg(
                link, cascade, prepared, sent, alice_encode(attenuated, phase)
            )
        # every odd slot a decoy at pi/2, read only in rounds Eve does not resend
        decoy_train = alice_encode(attenuated, PHASE_0, odd_in_train, PHASE_90)
        by_row[_TURN_ROWS + PHASE_90.quarter_turns], _ = _return_leg(
            link, cascade, prepared, sent, decoy_train
        )
        for r, ((_, first_train), (_, second_train)) in by_row.items():
            p = (click_probabilities(train, link, gate) for train in (first_train, second_train))
            dense = np.array(click_thresholds(*p))
            thresholds[:, b, r] = dense[:, picked]
            if not np.array_equal(dense, thresholds[:, b, r].take(slot_class, axis=1)):
                raise ValueError(f"the click thresholds of n_stages {n} vary within a slot class")

    # the largest ``any`` over the rows of each round kind, as read per gate slot
    keyed = thresholds[2, :, _TURN_ROWS:].max(axis=(0, 1))
    sampled = thresholds[2, :, _CHECK_ROWS:_TURN_ROWS].max(axis=(0, 1))
    read = product(cascades, representatives, _KEY_DETECTORS)
    bit = np.array(
        [_BITS.index(infer_bit(ClickEvent(d, k), cascade)) for cascade, k, d in read], dtype=np.int8
    ).reshape(len(QUATERNARY), _CLASSES, 2)[:, slot_class]
    # (matched, compared, errors) of a lone D3/D4 click, per Bob phase,
    # check phase, slot and detector
    scored = product(cascades, CHECK_PHASES, representatives, _CHECK_DETECTORS)
    scores = np.array(
        [alice_score_check([ClickEvent(d, k)], cascade, phase) for cascade, phase, k, d in scored],
        dtype=bool,
    ).reshape(len(QUATERNARY), len(CHECK_PHASES), _CLASSES, 2, 3)[:, :, slot_class]
    checks = (len(QUATERNARY), len(CHECK_PHASES), 2 * len(gate))
    # Bob's phase moves no slot's energy, so the last one's flags are the link's
    tables = PhaseTables(
        energy_alarm=np.array(energy_alarm),
        odd=np.array(bool(odd_in_train)),
        eve_reads=np.array(eve_phase is not None),
        slot_class=slot_class,
        any=np.stack((keyed, sampled)).take(slot_class, axis=1),
        thresholds=thresholds,
        bit=bit.reshape(len(QUATERNARY), -1),
        check_matched=scores[:, :, 0, 0, 0],
        check_compared=scores[..., 1].reshape(checks),
        check_error=scores[..., 2].reshape(checks),
    )
    for array in tables:
        array.setflags(write=False)
    return tables


# ``configs/experiments.json`` runs 7 distinct links, and a smaller memo would
# evict links that recur within one ``dps-qkd`` run; at n=16 an entry holds
# about 3.6 MiB (0.2 MiB at n=12); typed, so that a plain tuple of the same
# fields is not taken for a link
_phase_tables = lru_cache(maxsize=8, typed=True)(build_phase_tables)


def _forward_leg(
    link: Link, cascade: CascadeConfig, unitary: np.ndarray | None = None
) -> tuple[PulseTrain, PulseTrain, PulseTrain, bool]:
    """Bob's preparation, Eve's forward leg, the fiber with polarization
    transform ``unitary`` and Alice's energy monitor: the prepared train,
    the train sent into the fiber, the train arriving at Alice and the
    monitor's alarm."""
    prepared = bob_prepare(cascade, complex(math.sqrt(link.source_mean_photons)))
    attack = link.eve_kind is EveKind.INTERCEPT_RESEND_REFERENCE
    sent = intercept_forward(prepared) if attack else prepared
    train = fiber_transmit(sent, link, unitary)
    expected = link.source_mean_photons / cascade.train_slots * link.transmittance
    return prepared, sent, train, alice_energy_monitor(train, expected, link.energy_tolerance)


def _return_leg(
    link: Link,
    cascade: CascadeConfig,
    prepared: PulseTrain,
    sent: PulseTrain,
    encoded: PulseTrain,
    unitary: np.ndarray | None = None,
) -> tuple[Branches, QuantizedPhase | None]:
    """Mirror, fiber (the transpose of the forward leg's ``unitary``), Eve's
    backward leg and Bob's readout for Alice's encoded train: the D1/D2
    branches and Eve's inferred phase."""
    back = None if unitary is None else unitary.T
    train = fiber_transmit(faraday_reflect(encoded), link, back)
    eve_phase = None
    if link.eve_kind is EveKind.INTERCEPT_RESEND_REFERENCE:
        train, eve_phase = intercept_backward(train, prepared, sent)
    d1, d2 = bob_measure(train, cascade)
    return ((Detector.D1, d1), (Detector.D2, d2)), eve_phase


class RoundColumns(NamedTuple):
    """A run of rounds as arrays, one entry per round, except ``clicks``
    and ``decoy_slots``, which list only what happened, so that the columns
    hold a few bytes per round at any n.

    ``key``, ``check``: indices into ``KEY_PHASES`` and ``CHECK_PHASES``;
    ``bob``: Bob's phase in quarter turns. ``clicks``: the gate position
    2(k - 1) + c of every click (detector c of gate slot k: D1/D2 in a
    keyed round, D3/D4 in a sampled one), round by round and ascending
    within a round, ``n_clicks`` per round. ``bit``: ``_NO_BIT`` when no
    click was chosen, else an index into ``_BITS``. ``decoy_slots``: the
    odd slots that carried a decoy, listed like ``clicks``, ``n_decoys``
    per round. ``eve``: Eve's inferred phase as an index into
    ``KEY_PHASES``, -1 for none. The check fields are False or 0 in keyed
    rounds.
    """

    key: np.ndarray
    bob: np.ndarray
    check: np.ndarray
    sampled: np.ndarray
    energy_alarm: np.ndarray
    n_clicks: np.ndarray
    clicks: np.ndarray
    bit: np.ndarray
    check_matched: np.ndarray
    check_compared: np.ndarray
    check_errors: np.ndarray
    n_decoys: np.ndarray
    decoy_slots: np.ndarray
    decoy_hit: np.ndarray
    eve: np.ndarray


def _clicks(
    tables: PhaseTables,
    block: RoundBlock,
    u: np.ndarray,
    sampled: np.ndarray,
    rows: np.ndarray,
    decoy_reads: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every click of the rounds whose rows of uniforms are the rows of
    ``u``, ``sampled`` the sampled ones, and whose table rows are ``rows``:
    its round and its gate position 2(k - 1) + c (detector c of gate slot
    k), round by round and ascending within a round. With ``decoy_reads``,
    (the chunk's decoy mask, each round's decoy row), the gate slots that
    read a replaced odd slot read its round's decoy row instead.

    Each gate slot's uniform is compared with the envelope of its round's
    kind, and only the slots below it are split into their detectors, by
    the (first, low, any) thresholds of their class in their own row.
    """
    gated = block.gated
    # every gate slot below its round kind's envelope, as one flat index r * G + k - 1
    envelope = tables.any[0]
    # broadcasting any[0] when no round is sampled ran keygen sessions 3-4 % faster than the take
    if sampled.any():
        envelope = tables.any.take(sampled.view(np.int8), axis=0)
    lit = np.flatnonzero(u[:, _CLICKS : _CLICKS + gated] < envelope)
    lit_round = lit // gated
    at = lit - lit_round * gated  # gate slot k - 1
    source = rows.take(lit_round)
    if decoy_reads is not None:
        decoys, decoy_rows = decoy_reads
        # gate slot k reads odd slot 2j + 1 for j = (k - 1) // 2, but for the
        # last, k = 2^n + 1, which reads none
        half = decoys.shape[1]
        odd = np.minimum(at >> 1, half - 1)
        replaced = decoys.take(lit_round * half + odd) & (at < gated - 1)
        source = np.where(replaced, decoy_rows.take(lit_round), source)
    at_class = source * _CLASSES + tables.slot_class.take(at)
    first, low, reach = tables.thresholds.reshape(3, -1).take(at_class, axis=1)
    # the slot's uniform against its row's thresholds: the first detector
    # clicks below first, the second at or above low and below any
    x = u.reshape(-1).take(lit + lit_round * (block.width - gated) + _CLICKS)
    clicked = np.empty((len(lit), 2), dtype=bool)
    np.less(x, first, out=clicked[:, 0])
    np.greater_equal(x, low, out=clicked[:, 1])
    clicked[:, 1] &= x < reach
    detector = np.flatnonzero(clicked)  # 2i + c for lit slot i
    slot = detector >> 1
    return lit_round.take(slot), 2 * at.take(slot) + (detector & 1)


#: A chunk as the kernel's head leaves it for its two tails. Per round: the
#: phases, ``sampled`` and ``check_matched`` as in RoundColumns, the decoy mask
#: over Alice's odd slots (None without decoys), the key phase Bob reads back
#: (Eve's guess where she reads), and the clicks, also with those of sampled
#: rounds zeroed. Per click: its gate position. Per chosen click: its round and
#: bit; ``inner`` indexes those that read a key bit, and ``hit`` says whether a
#: decoy replaced its odd slot. Per compared and per erring check click: its round.
_Chunk = namedtuple(
    "_Chunk",
    "key bob check sampled n_sampled decoys resent n_clicks keyed_clicks clicks picked"
    " chosen_bit inner hit check_matched compared errors",
)


def _run_chunk(config: SessionConfig, tables: PhaseTables, u: np.ndarray) -> _Chunk:
    """The kernel's head on the rounds whose rows of uniforms are the rows
    of ``u`` (module docstring), for :func:`_fold` or :func:`_round_columns`:
    per-round work only for what the config turns on, every table read a 1-D
    ``take`` and every click its round and gate position (``_clicks``)."""
    block, m = config.block, len(u)
    width = 2 * block.gated  # gate positions per round, two detectors per gate slot
    half = 2 ** (config.n_stages - 1)  # Alice's odd slots
    # int(u * 2) is u >= 0.5
    key = (u[:, 0] >= 0.5).view(np.int8)
    bob = (u[:, 1] * 4).astype(np.intp)
    check = (u[:, 2] >= 0.5).view(np.int8)
    sampled = u[:, _SAMPLE] < config.sample_prob
    n_sampled = int(np.count_nonzero(sampled))

    decoys, resent = None, key
    if config.decoy_prob > 0.0:
        # CHECK_PHASES[i] is i quarter turns
        decoy_turns = (u[:, block.decoy_phase] * 2).astype(np.intp)
        # Alice's lit odd slots, none in a sampled round
        decoys = u[:, block.decoys : block.decoys + half] < config.decoy_prob
        decoys &= ~sampled[:, None] & tables.odd
    if tables.eve_reads and decoys is not None:
        # Eve reads all of Alice's odd slots: the keyed ones vote for the key
        # phase (KEY_PHASES[i] is 2i turns), each decoy for its decoy phase;
        # with no decoys every slot votes for the key phase. She resends her
        # guess, which a sampled round never reads: it reads its check train
        n_decoys = decoys.sum(axis=1)
        turns = np.arange(len(QUATERNARY))[:, None]
        votes = (turns == 2 * key) * (half - n_decoys) + (turns == decoy_turns) * n_decoys
        resent = eve_key_phase(votes)

    # every round reads one row of the tables: the check train of a sampled round,
    # else the key train (KEY_PHASES[i] is 2i turns) or the one Eve resent
    rows = bob * _TRAIN_ROWS + np.where(sampled, _CHECK_ROWS + check, _TURN_ROWS + 2 * resent)
    decoy_reads = None
    if decoys is not None and not tables.eve_reads:
        # where Eve reads, she resends every unsampled round whole
        decoy_reads = (decoys, bob * _TRAIN_ROWS + _TURN_ROWS + decoy_turns)
    by_round, clicks = _clicks(tables, block, u, sampled, rows, decoy_reads)
    n_clicks = np.bincount(by_round, minlength=m)
    keyed_clicks = np.where(sampled, 0, n_clicks) if n_sampled else n_clicks
    # the chosen click's index in ``clicks``: the only one, or the one the pick lands on
    nth = np.cumsum(n_clicks) - n_clicks
    if config.detector.double_click_policy is DoubleClickPolicy.RANDOM_PICK:
        nth += (u[:, block.pick] * n_clicks).astype(np.intp)
        picked = np.flatnonzero(keyed_clicks)
    else:
        picked = np.flatnonzero(keyed_clicks == 1)
    chosen = clicks.take(nth.take(picked))
    chosen_bit = tables.bit.take(bob.take(picked) * width + chosen)
    inner = np.flatnonzero(chosen_bit != _BITS.index(BitOutcome.DISCARD))
    hit = None
    if decoys is not None:
        # a chosen inner-slot click at gate position 2(k - 1) + c reads odd
        # slot 2j + 1 for j = (k - 1) // 2, replaced when the round's decoy
        # draw j fell below decoy_prob
        hit = decoys.take(picked.take(inner) * half + (chosen.take(inner) >> 2))
    check_matched, compared, errors = np.zeros(m, dtype=bool), by_round[:0], by_round[:0]
    if n_sampled:
        scored = bob * len(CHECK_PHASES) + check
        check_matched = sampled & tables.check_matched.take(scored)
        on_check = sampled.take(by_round)  # the D3/D4 clicks
        rounds = by_round[on_check]
        at = scored.take(rounds) * width + clicks[on_check]
        compared = rounds[tables.check_compared.take(at)]
        errors = rounds[tables.check_error.take(at)]
    return _Chunk(
        key, bob, check, sampled, n_sampled, decoys, resent, n_clicks, keyed_clicks,
        clicks, picked, chosen_bit, inner, hit, check_matched, compared, errors,
    )


def _fold(
    config: SessionConfig, tables: PhaseTables, chunk: _Chunk
) -> tuple[Counter, np.ndarray, np.ndarray]:
    """A chunk's counts (:func:`session_stats`) and its sifted bits, Alice's
    (her key phase) and Bob's: one per chosen inner-slot click that no decoy
    touched."""
    m, picked = len(chunk.key), chunk.picked
    if config.detector.double_click_policy is DoubleClickPolicy.RANDOM_PICK:
        n_clicked = len(picked)
        single = chunk.keyed_clicks.take(picked) == 1
        n_single = int(np.count_nonzero(single))
        n_edge = n_single - int(np.count_nonzero(single.take(chunk.inner)))
    else:
        n_clicked = int(np.count_nonzero(chunk.keyed_clicks))
        n_single = len(picked)
        n_edge = n_single - len(chunk.inner)
    usable = chunk.inner if chunk.hit is None else chunk.inner[~chunk.hit]
    kept = picked.take(usable)
    alice, bob = chunk.key.take(kept), chunk.chosen_bit.take(usable)
    eve_total = eve_hits = 0
    if tables.eve_reads:
        eve_total = len(kept)
        eve_hits = int(np.count_nonzero(chunk.resent.take(kept) == alice))
    counts = Counter(
        rounds=m,
        n_sampled=chunk.n_sampled,
        n_no_click=m - chunk.n_sampled - n_clicked,
        n_single_click=n_single,
        n_multi_click=n_clicked - n_single,
        n_edge_single=n_edge,
        check_rounds_matched=int(np.count_nonzero(chunk.check_matched)),
        check_compared=len(chunk.compared),
        check_errors=len(chunk.errors),
        energy_alarms=m if tables.energy_alarm else 0,
        eve_total=eve_total,
        eve_hits=eve_hits,
    )
    return counts, alice, bob


def _round_columns(tables: PhaseTables, chunk: _Chunk) -> RoundColumns:
    """A chunk's :class:`RoundColumns`, built only when they are read."""
    m = len(chunk.key)
    n_decoys, decoy_slots = np.zeros(m, np.int32), np.zeros(0, np.int32)
    decoy_hit = np.zeros(m, dtype=bool)
    if chunk.decoys is not None:
        half = chunk.decoys.shape[1]
        flat = np.flatnonzero(chunk.decoys)  # round r's odd slot 2j + 1 at r * half + j
        decoy_round = flat // half
        n_decoys = np.bincount(decoy_round, minlength=m).astype(np.int32)
        decoy_slots = (2 * (flat - decoy_round * half) + 1).astype(np.int32)
        decoy_hit[chunk.picked.take(chunk.inner)] = chunk.hit
    bit = np.full(m, _NO_BIT, dtype=np.int8)
    bit[chunk.picked] = chunk.chosen_bit
    eve = np.full(m, -1, dtype=np.int8)
    if tables.eve_reads:
        eve = np.where(chunk.sampled, -1, chunk.resent).astype(np.int8)
    return RoundColumns(
        key=chunk.key,
        bob=chunk.bob.astype(np.int8),
        check=chunk.check,
        sampled=chunk.sampled,
        energy_alarm=np.full(m, tables.energy_alarm),
        n_clicks=chunk.n_clicks.astype(np.int32),
        clicks=chunk.clicks.astype(np.int32),
        bit=bit,
        check_matched=chunk.check_matched,
        check_compared=np.bincount(chunk.compared, minlength=m).astype(np.int32),
        check_errors=np.bincount(chunk.errors, minlength=m).astype(np.int32),
        n_decoys=n_decoys,
        decoy_slots=decoy_slots,
        decoy_hit=decoy_hit,
        eve=eve,
    )


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Everything one round produced; at most one sifted bit per round."""

    index: int
    alice_phase: QuantizedPhase
    bob_phase: QuantizedPhase
    sampled: bool
    check_phase: QuantizedPhase
    check_matched: bool | None = None
    check_compared: int = 0
    check_errors: int = 0
    check_clicks: tuple[ClickEvent, ...] = ()
    energy_alarm: bool = False
    clicks: tuple[ClickEvent, ...] = ()
    multi_click: bool = False
    bit: BitOutcome | None = None
    decoy_positions: tuple[int, ...] = ()
    decoy_hit: bool = False
    eve_phase: QuantizedPhase | None = None

    @property
    def alice_bit(self) -> int:
        return 0 if self.alice_phase.quarter_turns == 0 else 1


def _by_round(values: np.ndarray, counts: np.ndarray) -> list[list[int]]:
    """``values``, listed round by round with ``counts[i]`` for round i, as
    one list per round."""
    flat = values.tolist()
    ends = np.cumsum(counts).tolist()
    return [flat[end - count : end] for count, end in zip(counts.tolist(), ends)]


def _records(
    config: SessionConfig, columns: RoundColumns, first_index: int = 0
) -> tuple[RoundRecord, ...]:
    """The record view of ``columns``, whose first round is ``first_index``."""
    width = 2 * config.block.gated
    # a click's code is its gate position 2(k - 1) + c, one round's 2G
    # positions further in a sampled round, whose detectors come two later;
    # one event per code that occurs, shared by the rounds it occurs in
    codes = columns.clicks + width * np.repeat(columns.sampled, columns.n_clicks)
    detectors = _KEY_DETECTORS + _CHECK_DETECTORS
    events = {
        c: ClickEvent(detectors[c // width * 2 + c % 2], c % width // 2 + 1)
        for c in np.unique(codes).tolist()
    }
    clicks = _by_round(codes, columns.n_clicks)
    decoys = _by_round(columns.decoy_slots, columns.n_decoys)
    names = ("key", "bob", "check", "sampled", "energy_alarm", "bit", "check_matched")
    names += ("check_compared", "check_errors", "decoy_hit", "eve")
    fields = [getattr(columns, name).tolist() for name in names]
    records = []
    for i, (key, bob, check, sampled, alarm, bit, matched, compared, errors, hit, eve) in enumerate(
        zip(*fields)
    ):
        round_clicks = tuple(events[c] for c in clicks[i])
        common = dict(
            index=first_index + i,
            alice_phase=KEY_PHASES[key],
            bob_phase=QUATERNARY[bob],
            sampled=sampled,
            check_phase=CHECK_PHASES[check],
            energy_alarm=alarm,
        )
        if sampled:
            record = RoundRecord(
                **common,
                check_matched=matched,
                check_compared=compared,
                check_errors=errors,
                check_clicks=round_clicks,
            )
        else:
            record = RoundRecord(
                **common,
                clicks=round_clicks,
                multi_click=len(round_clicks) >= 2,
                bit=None if bit == _NO_BIT else _BITS[bit],
                decoy_positions=tuple(decoys[i]),
                decoy_hit=hit,
                eve_phase=None if eve < 0 else KEY_PHASES[eve],
            )
        records.append(record)
    return tuple(records)


def _round_stream(master_seed: int) -> np.random.PCG64:
    """The session's round stream at its first output (module docstring)."""
    return np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(_ROUND_STREAM,)))


def _check_round(
    config: SessionConfig, round_index: int, u: Sequence[float] | None = None
) -> np.ndarray | None:
    """Reject a round index that is not an integer >= 0 and a row ``u``
    that is not ``config.block.width`` uniforms in [0, 1); ``u`` as an array."""
    if not _is_int(round_index) or round_index < 0:
        raise ValueError(f"round_index must be an integer >= 0, got {round_index!r}")
    if u is None:
        return None
    row = np.asarray(u, dtype=np.float64)
    width = config.block.width
    if row.shape != (width,):
        raise ValueError(f"u must hold {width} uniforms, got shape {row.shape}")
    outside = ~((row >= 0.0) & (row < 1.0))  # NaN included
    if outside.any():
        raise ValueError(f"u must hold uniforms in [0, 1), got {row[outside]}")
    return row


def round_uniforms(config: SessionConfig, round_index: int) -> list[float]:
    """Round ``round_index``'s row of uniforms, drawn alone: the same row
    that :func:`session_uniforms` gives for it."""
    _check_round(config, round_index)
    width = config.block.width
    stream = _round_stream(config.master_seed)
    stream.advance(int(round_index) * width)
    return np.random.Generator(stream).random(width).tolist()


def session_uniforms(config: SessionConfig) -> Iterator[np.ndarray]:
    """Every round's row of uniforms in round order, as arrays of
    ``config.block.chunk_rounds`` rows (fewer in the last)."""
    block = config.block
    draws = np.random.Generator(_round_stream(config.master_seed))
    for start in range(0, config.rounds, block.chunk_rounds):
        rows = min(block.chunk_rounds, config.rounds - start)
        yield draws.random((rows, block.width))


def _stats_rng(master_seed: int) -> np.random.Generator:
    ss = np.random.SeedSequence(master_seed, spawn_key=(_STATS_STREAM, 0))
    return np.random.Generator(np.random.PCG64(ss))


def run_round(config: SessionConfig, round_index: int, u: Sequence[float]) -> RoundRecord:
    """Execute one full protocol round from its row of uniforms ``u``: the
    session kernel on a chunk of one row.

    Every draw reads its fixed position in ``u`` (module docstring). The
    round depends on nothing but its arguments, so a round run alone with
    :func:`round_uniforms` equals the same round in a session.
    """
    row = _check_round(config, round_index, u).reshape(1, -1)
    tables = config.phase_tables
    return _records(config, _round_columns(tables, _run_chunk(config, tables, row)), round_index)[0]


def reference_round(config: SessionConfig, round_index: int, u: Sequence[float]) -> RoundRecord:
    """The field-level round: every optical element runs on this round's
    trains, and the clicks come from ``optics.detect``.

    It slices the round's row ``u`` at the positions of the module docstring
    for ``detect`` and ``alice_decoy_positions`` and takes the fiber from
    ``channel.round_unitary``, which no record depends on. The session
    kernel, and so :func:`run_round`, must give the same record.
    """
    u = _check_round(config, round_index, u)
    block = config.block
    phase_a = KEY_PHASES[int(u[0] * 2)]
    phase_b = QUATERNARY[int(u[1] * 4)]
    check_phase = CHECK_PHASES[int(u[2] * 2)]

    cascade = CascadeConfig(config.n_stages, phase_b)
    click_draws = u[_CLICKS : _CLICKS + block.gated]
    unitary = round_unitary(config.channel, config.master_seed, round_index)
    prepared, sent, train, alarm = _forward_leg(config.link, cascade, unitary)
    common = dict(index=round_index, alice_phase=phase_a, bob_phase=phase_b)
    common.update(check_phase=check_phase, energy_alarm=alarm)

    if u[_SAMPLE] < config.sample_prob:
        check_ports = alice_check_ports(train, check_phase)
        check_clicks = detect(check_ports, config.detector, cascade.gate, click_draws)
        matched, compared, errors = alice_score_check(check_clicks, cascade, check_phase)
        return RoundRecord(
            **common,
            sampled=True,
            check_matched=matched,
            check_compared=compared,
            check_errors=errors,
            check_clicks=tuple(check_clicks),
        )

    train = attenuate(train, config.mean_photons_return)
    decoy_positions, decoy_phase = (), PHASE_0
    if block.decoys is not None:
        decoy_draws = u[block.decoys : block.decoys + 2 ** (config.n_stages - 1)]
        decoy_positions = alice_decoy_positions(odd_slots(train), config.decoy_prob, decoy_draws)
        decoy_phase = CHECK_PHASES[int(u[block.decoy_phase] * 2)]
    encoded = alice_encode(train, phase_a, decoy_positions, decoy_phase)
    branches, eve_phase = _return_leg(config.link, cascade, prepared, sent, encoded, unitary)
    clicks = detect(branches, config.detector, cascade.gate, click_draws)

    multi = len(clicks) >= 2
    chosen: ClickEvent | None = None
    if len(clicks) == 1:
        chosen = clicks[0]
    elif multi and config.detector.double_click_policy is DoubleClickPolicy.RANDOM_PICK:
        chosen = clicks[int(u[block.pick] * len(clicks))]

    bit: BitOutcome | None = None
    decoy_hit = False
    if chosen is not None:
        bit = infer_bit(chosen, cascade)
        if bit is not BitOutcome.DISCARD and decoy_positions:
            decoy_hit = key_slot(chosen.slot) in decoy_positions

    return RoundRecord(
        **common,
        sampled=False,
        clicks=tuple(clicks),
        multi_click=multi,
        bit=bit,
        decoy_positions=decoy_positions,
        decoy_hit=decoy_hit,
        eve_phase=eve_phase,
    )


def estimate_qber(
    alice, bob, disclose_fraction: float, rng: np.random.Generator
) -> tuple[float | None, int]:
    """Compare a random subset of both keys publicly.

    Returns ``(qber, disclosed)``: the error rate over the disclosed bits and
    their number, which leave the key. The rate is None (no data) rather than
    0 for empty keys. The subset size is round(fraction * length), at least
    one bit for nonempty keys.
    """
    if len(alice) != len(bob):
        raise ValueError("keys must have equal length")
    if not 0.0 < disclose_fraction <= 1.0:
        raise ValueError(f"disclose_fraction must be in (0, 1], got {disclose_fraction}")
    n = len(alice)
    if n == 0:
        return None, 0
    size = min(n, max(1, round(disclose_fraction * n)))
    disclosed = rng.choice(n, size=size, replace=False)
    alice, bob = np.asarray(alice), np.asarray(bob)
    return int(np.count_nonzero(alice[disclosed] != bob[disclosed])) / size, size


@dataclass(frozen=True)
class SessionStats:
    """Counts and rates over one session's rounds; the sifted key itself is
    ``result.alice_bits`` and ``result.bob_bits``."""

    rounds: int
    n_sampled: int
    n_no_click: int
    n_single_click: int
    n_multi_click: int
    n_edge_single: int
    efficiency: float | None
    edge_fraction: float | None
    sifted_length: int
    mismatches: int
    qber: float | None
    qber_disclosed: int
    final_key_length: int
    check_rounds_matched: int
    check_compared: int
    check_errors: int
    check_error_rate: float | None
    energy_alarms: int
    eve_agreement: float | None
    alarm: bool


def session_stats(
    counts: Counter, alice: np.ndarray, bob: np.ndarray, config: SessionConfig
) -> SessionStats:
    """Reduce a session's counts and its sifted bits to protocol-level
    statistics, disclosing a random part of the bits (``estimate_qber``).
    ``counts`` holds the counts of :class:`SessionStats` by field name, and
    of the sifted bits Eve read, ``eve_total``, and got right, ``eve_hits``.

    Efficiency and the edge fraction condition on rounds with exactly one
    click, where the slot statistics reflect the interference energies.
    The check-error rate covers matched-basis sampled rounds only.
    """
    qber, disclosed = estimate_qber(
        alice, bob, config.disclose_fraction, _stats_rng(config.master_seed)
    )
    n_single, n_edge = counts["n_single_click"], counts["n_edge_single"]
    compared, errors = counts["check_compared"], counts["check_errors"]
    eve_total = counts["eve_total"]
    check_rate = errors / compared if compared else None
    alarm = bool(
        counts["energy_alarms"]
        or (check_rate is not None and check_rate > config.max_check_error)
        or (qber is not None and qber > config.max_qber)
    )
    return SessionStats(
        **{name: n for name, n in counts.items() if name not in ("eve_total", "eve_hits")},
        efficiency=(n_single - n_edge) / n_single if n_single else None,
        edge_fraction=n_edge / n_single if n_single else None,
        sifted_length=len(alice),
        mismatches=int(np.count_nonzero(alice != bob)),
        qber=qber,
        qber_disclosed=disclosed,
        final_key_length=len(alice) - disclosed,
        check_error_rate=check_rate,
        eve_agreement=counts["eve_hits"] / eve_total if eve_total else None,
        alarm=alarm,
    )


@dataclass(frozen=True, eq=False)
class SessionResult:
    """A session's statistics and its sifted key: ``alice_bits`` and
    ``bob_bits``, one entry per sifted round in round order. Per-round
    ``columns`` and ``records`` are built when first read, by a second pass
    of the kernel over the session's rows."""

    config: SessionConfig
    stats: SessionStats
    alice_bits: np.ndarray
    bob_bits: np.ndarray

    @cached_property
    def columns(self) -> RoundColumns:
        """Every round as a :class:`RoundColumns`."""
        config, tables = self.config, self.config.phase_tables
        chunks = (_run_chunk(config, tables, u) for u in session_uniforms(config))
        chunks = [_round_columns(tables, chunk) for chunk in chunks]
        return RoundColumns(*(np.concatenate(field) for field in zip(*chunks)))

    @cached_property
    def records(self) -> tuple[RoundRecord, ...]:
        """Every round as a :class:`RoundRecord`."""
        return _records(self.config, self.columns)


def run_session(config: SessionConfig) -> SessionResult:
    """Run all rounds through the kernel, a chunk of rows at a time, folding
    each chunk into the session's counts and sifted bits, and reduce them."""
    tables = config.phase_tables
    totals, sifted = Counter(), []
    for u in session_uniforms(config):
        counts, *bits = _fold(config, tables, _run_chunk(config, tables, u))
        totals.update(counts)
        sifted.append(bits)
    alice, bob = (np.concatenate(bits) for bits in zip(*sifted))
    return SessionResult(config, session_stats(totals, alice, bob, config), alice, bob)


def _stages(n: int) -> int:
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return int(n)


def theoretical_efficiency(n: int) -> Fraction:
    """Key-creation efficiency of the n-stage cascade: (2^n - 1) / 2^n."""
    n = _stages(n)
    return Fraction(2**n - 1, 2**n)


def competitor_efficiency(n: int) -> Fraction:
    """Reference efficiency n / (n + 1) of the compared n-stage system."""
    n = _stages(n)
    return Fraction(n, n + 1)
