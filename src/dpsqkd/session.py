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
``SessionConfig.phase_tables`` runs the same legs once per Bob phase for
each of those trains and for each check phase, and keeps the click
probability of every gate slot in dense arrays (:class:`PhaseTables`).
Under the intercept-resend attack Eve reads the odd slots and votes: keyed
slots vote for the key phase, a decoy at 0 votes for 0 and one at pi/2 for
neither (``channel.eve_key_phase``). The tables hold her guess for every
key phase, decoy phase and number of decoys; she resends the key train of
her guess, which the round reads whole.

The kernel runs a chunk of rounds as array work on their rows of uniforms:
it indexes the phases, draws the sampling and decoy masks, gathers every
gate slot's click probability from the tables, compares them with the click
uniforms, picks among double clicks through a running count of the clicks,
and reads bits and check scores from lookup arrays. It gives a
:class:`RoundColumns`, one array per round field. :func:`session_stats`
reduces the columns; a :class:`RoundRecord` per round is built only when
``SessionResult.records`` is read, and :func:`run_round` runs one row as a
chunk of one.

Stream contract. All of a session's rounds read one counter-based stream,
``np.random.Philox`` keyed by ``SeedSequence(master_seed,
spawn_key=(1,)).generate_state(2, np.uint64)``. Round i owns the W
uniforms (``Generator.random``, one 64-bit output each) that start at
counter i * W / 4, W a multiple of 4. With n stages, G = 2^n + 3 gate slots
(0 .. 2^n + 2) and C = 5 + 2^(n-1), every draw has a fixed position in the
round's row u, whether or not the round uses it:

* u[0], u[1], u[2], u[3]: Alice's key phase, Bob's phase, the check phase
  and the decoy phase;
* u[4]: the sampling draw, the train is diverted when u[4] < sample_prob;
* u[5 + j], 0 <= j < 2^(n-1): the decoy draw of odd slot 2j + 1;
* u[C + c*G + k]: the click draw of detector column c at gate slot k;
  column 0 is D1 (key) or D3 (check), column 1 is D2 or D4, since a round
  is either sampled or keyed;
* u[C + 2G]: the double-click pick, clicks[int(u * len(clicks))];
* the rest, up to W = 4 * ceil((C + 2G + 1) / 4), is padding.

A session draws its rows as arrays of at most 2^15 uniforms (one row at a
time when a row is longer); ``round_uniforms`` draws one round's row alone
by advancing the counter.
Both read the same numbers, so a round run alone equals the same round in
its session, and two sessions with the same config are bit-identical.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    _real_field,
    attenuate,
    click_probability,
    click_table,
    faraday_reflect,
    sample_clicks,
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

# fixed positions in a round's row of uniforms (module docstring)
_SAMPLE = 4
_DECOYS = 5
# uniforms per array call of a session, so chunk memory stays bounded for any
# n; 2^16 ran a few percent faster but left about 1 MiB more peak RSS
_CHUNK_UNIFORMS = 2**15

#: The largest cascade a session accepts: a round's row holds about 2^(n+1)
#: uniforms, and the field-level tables build trains of 2^n slots.
MAX_STAGES = 16


@dataclass(frozen=True)
class SessionConfig:
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

    @cached_property
    def block(self) -> RoundBlock:
        """Where a round's draws sit in its row of uniforms."""
        gated = 2**self.n_stages + 3
        column0 = _DECOYS + 2 ** (self.n_stages - 1)
        pick = column0 + 2 * gated
        # whole Philox counters of 4 outputs, so row i starts at counter i * width / 4
        width = (pick + 4) // 4 * 4
        return RoundBlock((column0, column0 + gated), pick, width, max(1, _CHUNK_UNIFORMS // width))

    @cached_property
    def phase_tables(self) -> PhaseTables:
        """The optics of a round for each of Bob's phases, run once with the
        field-level functions. Rounds only gather from them, so every round
        of the session shares them."""
        return _phase_tables(self)


class RoundBlock(NamedTuple):
    """The layout of a round's row of uniforms (see the module docstring).

    Gate slot k of detector column c reads position ``columns[c] + k``;
    ``pick`` is the double-click pick; a row is ``width`` uniforms, and a
    session draws ``chunk_rounds`` rows per array call.
    """

    columns: tuple[int, int]
    pick: int
    width: int
    chunk_rounds: int


#: Rows of ``PhaseTables.signal``: the check trains at check phase 0 and
#: pi/2, then the return trains whose odd slots all carry 0, 1 or 2 quarter
#: turns (key phase 0, decoy phase pi/2, key phase pi).
_CHECK_ROWS = 0
_TURN_ROWS = 2
_TRAIN_ROWS = 5

#: The detectors of gate-position columns 0 and 1 in a keyed and a sampled round.
_KEY_DETECTORS = (Detector.D1, Detector.D2)
_CHECK_DETECTORS = (Detector.D3, Detector.D4)

#: ``RoundColumns.bit`` codes: no chosen click, then ``_BITS[code]``.
_NO_BIT = -1
_BITS = (BitOutcome.BIT0, BitOutcome.BIT1, BitOutcome.DISCARD)


class PhaseTables(NamedTuple):
    """What the optics of a round give, as dense arrays over Bob's phase.

    The Faraday mirror undoes the fiber's polarization transform, and no
    amplitude depends on the polarization, so these hold for every fiber
    unitary. Arrays are indexed by Bob's phase in quarter turns first. A
    gate position g = c * G + k is gate slot k of detector column c, laid
    out like the click columns of a round's row (``SessionConfig.block``).

    ``signal[b, r, g]`` is the click probability of gate position g in
    train r (rows ``_CHECK_ROWS`` + check index, ``_TURN_ROWS`` + quarter
    turns on the odd slots), and ``occupied[b, r, g]`` whether that slot
    carries light; an empty slot has probability 0, and the kernel adds the
    dark-count window (occupied slots and their neighbours) per round, as
    ``optics.click_table`` does. Decoy rounds need no row of their own:
    output slot k reads odd slot ``key_slot(k)``, whose decoy index is
    ``decoy_of[k]`` (2^(n-1) when slot k reads no odd slot that Alice can
    replace), so a decoy round gathers slot by slot from the rows of its key
    and decoy phases.

    ``eve[b, i, d, m]`` is Eve's guess, an index into ``KEY_PHASES``, when
    Alice's key index is i and m of her odd slots carry decoy phase d
    quarter turns (m = 0 gives i); it is -1 where Eve resends nothing (no
    attack, or nothing came back to her). Only such rounds read the decoy
    row (1 quarter turn), so it is filled only when ``decoy_prob`` > 0 and
    ``eve[b]`` holds a -1. ``odd[b, j]`` marks the odd slots 2j + 1 of
    Alice's train (the decoy candidates), ``energy_alarm[b]`` the energy
    monitor's verdict.
    ``bit[b, g]`` is the ``RoundColumns.bit`` code of a D1/D2 click at g
    (``infer_bit``); ``check_matched[b, i]`` says whether check index i
    scores against Bob's phase, and ``check_compared`` and ``check_error``
    mark the D3/D4 clicks that it compares and counts as errors
    (``alice_score_check``).
    """

    energy_alarm: np.ndarray
    odd: np.ndarray
    signal: np.ndarray
    occupied: np.ndarray
    eve: np.ndarray
    decoy_of: np.ndarray
    bit: np.ndarray
    check_matched: np.ndarray
    check_compared: np.ndarray
    check_error: np.ndarray


#: Bob's readout as (detector, train) branches, D1 first.
Branches = tuple[tuple[Detector, PulseTrain], tuple[Detector, PulseTrain]]


def _phase_tables(config: SessionConfig) -> PhaseTables:
    """Bob's preparation, the forward leg, Alice's station and the return
    leg for every Bob phase, as the dense arrays of :class:`PhaseTables`."""
    n = config.n_stages
    gated = 2**n + 3
    half = 2 ** (n - 1)
    shape = (len(QUATERNARY), _TRAIN_ROWS, 2 * gated)
    signal = np.zeros(shape)
    occupied = np.zeros(shape, dtype=bool)
    energy_alarm = np.zeros(len(QUATERNARY), dtype=bool)
    odd = np.zeros((len(QUATERNARY), half), dtype=bool)
    eve = np.full((len(QUATERNARY), len(KEY_PHASES), len(CHECK_PHASES), half + 1), -1, np.int8)
    for b, bob_phase in enumerate(QUATERNARY):
        cascade = CascadeConfig(n, bob_phase)
        prepared, sent, train, energy_alarm[b] = _forward_leg(config, cascade)
        # the (detector, train) branches of every row of the tables
        by_row = {
            _CHECK_ROWS + i: alice_check_ports(train, phase) for i, phase in enumerate(CHECK_PHASES)
        }
        attenuated = attenuate(train, config.mean_photons_return)
        odd_in_train = odd_slots(attenuated)
        odd[b, [k // 2 for k in odd_in_train]] = True
        for i, phase in enumerate(KEY_PHASES):
            branches, eve_phase = _return_leg(
                config, cascade, prepared, sent, alice_encode(attenuated, phase)
            )
            by_row[_TURN_ROWS + phase.quarter_turns] = branches
            if eve_phase is None:
                continue
            # Eve's vote when m of the odd slots carry decoy phase d instead
            for d, m in np.ndindex(len(CHECK_PHASES), len(odd_in_train) + 1):
                votes = [0, 0, 0, 0]
                votes[phase.quarter_turns] = len(odd_in_train) - m
                votes[CHECK_PHASES[d].quarter_turns] += m
                eve[b, i, d, m] = KEY_PHASES.index(eve_key_phase(votes))
        # only rounds where Eve resends nothing read the decoy row
        if config.decoy_prob > 0.0 and (eve[b] < 0).any():
            decoy_train = alice_encode(attenuated, PHASE_0, odd_in_train, PHASE_90)
            by_row[_TURN_ROWS + PHASE_90.quarter_turns], _ = _return_leg(
                config, cascade, prepared, sent, decoy_train
            )
        for r, branches in by_row.items():
            for c, (_, branch) in enumerate(branches):
                g = c * gated + np.fromiter(branch.slots, np.intp, len(branch.slots))
                # a train has few distinct amplitudes: each is evaluated once
                probability = {
                    a: click_probability(a, config.detector) for a in set(branch.slots.values())
                }
                signal[b, r, g] = [probability[a] for a in branch.slots.values()]
                occupied[b, r, g] = True

    # the decoy index of the odd slot that output slot k reads; ``half``
    # where it reads none (slot 0, the last edge slot and the one after it)
    decoy_of = np.array(
        [j if 0 <= (j := key_slot(k) // 2) < half else half for k in range(gated)], dtype=np.intp
    )
    # the readout rules read a gate slot only through its parity and whether
    # it is an edge slot: each rule runs on one slot per class (inner even,
    # inner odd, first edge, last edge), and ``classes`` spreads the result
    cascades = [CascadeConfig(n, phase) for phase in QUATERNARY]
    first, last = cascades[0].edge_slots
    representatives = (0, 3, first, last)
    classes = np.arange(gated) % 2
    classes[[first, last]] = (2, 3)
    bit = np.array(
        [
            [
                [_BITS.index(infer_bit(ClickEvent(d, k), cascade)) for k in representatives]
                for d in _KEY_DETECTORS
            ]
            for cascade in cascades
        ],
        dtype=np.int8,
    )[..., classes]
    # (matched, compared, errors) of a lone D3/D4 click, per Bob phase,
    # check phase, detector and slot
    scores = np.array(
        [
            [
                [
                    [alice_score_check([ClickEvent(d, k)], cascade, phase) for k in representatives]
                    for d in _CHECK_DETECTORS
                ]
                for phase in CHECK_PHASES
            ]
            for cascade in cascades
        ],
        dtype=bool,
    )[:, :, :, classes]
    checks = (len(QUATERNARY), len(CHECK_PHASES), 2 * gated)
    return PhaseTables(
        energy_alarm=energy_alarm,
        odd=odd,
        signal=signal,
        occupied=occupied,
        eve=eve,
        decoy_of=decoy_of,
        bit=bit.reshape(len(QUATERNARY), 2 * gated),
        check_matched=scores[:, :, 0, 0, 0],
        check_compared=scores[..., 1].reshape(checks),
        check_error=scores[..., 2].reshape(checks),
    )


def _forward_leg(
    config: SessionConfig, cascade: CascadeConfig, unitary: np.ndarray | None = None
) -> tuple[PulseTrain, PulseTrain, PulseTrain, bool]:
    """Bob's preparation, Eve's forward leg, the fiber with polarization
    transform ``unitary`` and Alice's energy monitor: the prepared train,
    the train sent into the fiber, the train arriving at Alice and the
    monitor's alarm."""
    prepared = bob_prepare(cascade, complex(math.sqrt(config.source_mean_photons)))
    attack = config.eve_kind is EveKind.INTERCEPT_RESEND_REFERENCE
    sent = intercept_forward(prepared) if attack else prepared
    train = fiber_transmit(sent, config.channel, unitary)
    expected = config.source_mean_photons / cascade.train_slots * config.channel.transmittance
    return prepared, sent, train, alice_energy_monitor(train, expected, config.energy_tolerance)


def _return_leg(
    config: SessionConfig,
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
    train = fiber_transmit(faraday_reflect(encoded), config.channel, back)
    eve_phase = None
    if config.eve_kind is EveKind.INTERCEPT_RESEND_REFERENCE:
        train, eve_phase = intercept_backward(train, prepared, sent)
    d1, d2 = bob_measure(train, cascade)
    return ((Detector.D1, d1), (Detector.D2, d2)), eve_phase


class RoundColumns(NamedTuple):
    """A run of rounds as arrays, one entry per round, except ``clicks``
    and ``decoy_slots``, which list only what happened, so that a session
    holds a few bytes per round at any n.

    ``key``, ``check``: indices into ``KEY_PHASES`` and ``CHECK_PHASES``;
    ``bob``: Bob's phase in quarter turns. ``clicks``: the gate position
    c * G + k of every click (gate slot k of detector column c: D1/D2 in a
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


def _run_chunk(config: SessionConfig, u: np.ndarray) -> RoundColumns:
    """The kernel: the rounds whose rows of uniforms are the rows of ``u``,
    as array work over the whole chunk (module docstring)."""
    tables = config.phase_tables
    block = config.block
    m = len(u)
    gated = block.columns[1] - block.columns[0]
    half = tables.odd.shape[1]
    key = (u[:, 0] * 2).astype(np.int8)
    bob = (u[:, 1] * 4).astype(np.intp)
    check = (u[:, 2] * 2).astype(np.int8)
    decoy_turns = (u[:, 3] * 2).astype(np.intp)  # CHECK_PHASES[i] is i quarter turns
    sampled = u[:, _SAMPLE] < config.sample_prob
    keyed = ~sampled

    # column ``half`` stays False: the slots that read no odd slot
    decoys = np.zeros((m, half + 1), dtype=bool)
    decoys[:, :half] = u[:, _DECOYS : _DECOYS + half] < config.decoy_prob
    decoys[:, :half] &= tables.odd[bob]
    decoys[sampled] = False
    # Eve resends the key train of her guess, her vote over the odd slots
    eve = np.where(sampled, -1, tables.eve[bob, key, decoy_turns, decoys.sum(axis=1)])
    key_turns = 2 * np.where(eve >= 0, eve, key).astype(np.intp)  # KEY_PHASES[i] is 2i turns

    # the train each gate slot reads, as a row of the tables: the check train
    # of a sampled round, else the key train; a decoy round's gate slots
    # whose odd input carries a decoy read the train of the decoy phase
    rows = bob * _TRAIN_ROWS + np.where(sampled, _CHECK_ROWS + check, _TURN_ROWS + key_turns)
    index = rows
    replaced = decoys & (eve < 0)[:, None]
    if replaced.any():
        decoy_rows = bob * _TRAIN_ROWS + _TURN_ROWS + decoy_turns
        by_slot = np.where(replaced[:, tables.decoy_of], decoy_rows[:, None], rows[:, None])
        index = np.tile(by_slot, 2), np.arange(2 * gated)
    p = tables.signal.reshape(-1, 2 * gated)[index]
    dark = config.detector.dark_count_prob
    if dark > 0.0:
        lit = tables.occupied.reshape(-1, 2 * gated)[index].reshape(m, 2, gated)
        window = lit.copy()
        window[:, :, 1:] |= lit[:, :, :-1]
        window[:, :, :-1] |= lit[:, :, 1:]
        p[(window & ~lit).reshape(m, 2 * gated)] = dark

    clicked = u[:, block.columns[0] : block.columns[0] + 2 * gated] < p
    n_clicks = clicked.sum(axis=1)
    # the chosen click, in table order (D1 then D2, slots ascending): the
    # only one, or the one the pick lands on
    chosen = clicked.argmax(axis=1)
    picked = keyed & (n_clicks == 1)
    if config.detector.double_click_policy is DoubleClickPolicy.RANDOM_PICK:
        multi = keyed & (n_clicks >= 2)
        rank = (u[multi, block.pick] * n_clicks[multi]).astype(np.intp)
        chosen[multi] = (np.cumsum(clicked[multi], axis=1) > rank[:, None]).argmax(axis=1)
        picked |= multi
    bit = np.where(picked, tables.bit[bob, chosen], _NO_BIT).astype(np.int8)
    decoy_hit = decoys[np.arange(m), tables.decoy_of[chosen % gated]]
    decoy_hit &= (bit == 0) | (bit == 1)

    check_matched = tables.check_matched[bob, check] & sampled
    check_compared = np.zeros(m, dtype=np.int32)
    check_errors = np.zeros(m, dtype=np.int32)
    if sampled.any():
        scored = clicked[sampled]
        on = bob[sampled], check[sampled]
        check_compared[sampled] = (scored & tables.check_compared[on]).sum(axis=1)
        check_errors[sampled] = (scored & tables.check_error[on]).sum(axis=1)
    # the dense masks stay in the chunk: the columns keep what happened
    decoys = decoys[:, :half]
    return RoundColumns(
        key=key,
        bob=bob.astype(np.int8),
        check=check,
        sampled=sampled,
        energy_alarm=tables.energy_alarm[bob],
        n_clicks=n_clicks.astype(np.int32),
        clicks=np.nonzero(clicked)[1].astype(np.int32),
        bit=bit,
        check_matched=check_matched,
        check_compared=check_compared,
        check_errors=check_errors,
        n_decoys=decoys.sum(axis=1, dtype=np.int32),
        decoy_slots=(2 * np.nonzero(decoys)[1] + 1).astype(np.int32),
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
    gated = config.block.columns[1] - config.block.columns[0]
    events = {
        sampled: [ClickEvent(d, k) for d in detectors for k in range(gated)]
        for sampled, detectors in ((False, _KEY_DETECTORS), (True, _CHECK_DETECTORS))
    }
    clicks = _by_round(columns.clicks, columns.n_clicks)
    decoys = _by_round(columns.decoy_slots, columns.n_decoys)
    fields = (
        columns.key,
        columns.bob,
        columns.check,
        columns.sampled,
        columns.energy_alarm,
        columns.bit,
        columns.check_matched,
        columns.check_compared,
        columns.check_errors,
        columns.decoy_hit,
        columns.eve,
    )
    records = []
    for i, (key, bob, check, sampled, alarm, bit, matched, compared, errors, hit, eve) in enumerate(
        zip(*(a.tolist() for a in fields))
    ):
        round_clicks = tuple(events[sampled][g] for g in clicks[i])
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


def _round_stream(master_seed: int) -> np.random.Philox:
    """The session's round stream at counter 0 (module docstring)."""
    key = np.random.SeedSequence(master_seed, spawn_key=(_ROUND_STREAM,))
    return np.random.Philox(key=key.generate_state(2, np.uint64))


def _check_round(
    config: SessionConfig, round_index: int, u: Sequence[float] | None = None
) -> np.ndarray | None:
    """Reject a round index that is not an integer >= 0 and a row ``u``
    that is not ``config.block.width`` uniforms in [0, 1); ``u`` as an array."""
    integral = isinstance(round_index, numbers.Integral) and not isinstance(round_index, bool)
    if not integral or round_index < 0:
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
    stream.advance(int(round_index) * width // 4)
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
    return _records(config, _run_chunk(config, row), round_index)[0]


def reference_round(config: SessionConfig, round_index: int, u: Sequence[float]) -> RoundRecord:
    """The field-level round: every optical element runs on this round's
    trains, and the clicks come from ``optics.click_table`` and
    ``sample_clicks``.

    It reads the round's row of uniforms ``u`` at the positions of
    ``config.block`` and draws the fiber unitary, which no record depends
    on, from a substream of its own. The session kernel, and so
    :func:`run_round`, must give the same record.
    """
    u = _check_round(config, round_index, u).tolist()
    columns = config.block.columns
    phase_a = KEY_PHASES[int(u[0] * 2)]
    phase_b = QUATERNARY[int(u[1] * 4)]
    check_phase = CHECK_PHASES[int(u[2] * 2)]
    decoy_phase = CHECK_PHASES[int(u[3] * 2)]

    cascade = CascadeConfig(config.n_stages, phase_b)
    rng = np.random.default_rng([config.master_seed, round_index])
    unitary = round_unitary(config.channel, rng)
    prepared, sent, train, alarm = _forward_leg(config, cascade, unitary)

    if u[_SAMPLE] < config.sample_prob:
        check_ports = alice_check_ports(train, check_phase)
        check_clicks = sample_clicks(click_table(check_ports, config.detector, columns), u)
        matched, compared, errors = alice_score_check(check_clicks, cascade, check_phase)
        return RoundRecord(
            index=round_index,
            alice_phase=phase_a,
            bob_phase=phase_b,
            sampled=True,
            check_phase=check_phase,
            check_matched=matched,
            check_compared=compared,
            check_errors=errors,
            check_clicks=tuple(check_clicks),
            energy_alarm=alarm,
        )

    train = attenuate(train, config.mean_photons_return)
    decoy_positions = alice_decoy_positions(odd_slots(train), config.decoy_prob, u, _DECOYS)
    encoded = alice_encode(train, phase_a, decoy_positions, decoy_phase)
    branches, eve_phase = _return_leg(config, cascade, prepared, sent, encoded, unitary)
    clicks = sample_clicks(click_table(branches, config.detector, columns), u)

    multi = len(clicks) >= 2
    chosen: ClickEvent | None = None
    if len(clicks) == 1:
        chosen = clicks[0]
    elif multi and config.detector.double_click_policy is DoubleClickPolicy.RANDOM_PICK:
        chosen = clicks[int(u[config.block.pick] * len(clicks))]

    bit: BitOutcome | None = None
    decoy_hit = False
    if chosen is not None:
        bit = infer_bit(chosen, cascade)
        if bit is not BitOutcome.DISCARD and decoy_positions:
            decoy_hit = key_slot(chosen.slot) in decoy_positions

    return RoundRecord(
        index=round_index,
        alice_phase=phase_a,
        bob_phase=phase_b,
        sampled=False,
        check_phase=check_phase,
        energy_alarm=alarm,
        clicks=tuple(clicks),
        multi_click=multi,
        bit=bit,
        decoy_positions=decoy_positions,
        decoy_hit=decoy_hit,
        eve_phase=eve_phase,
    )


def _keyed_bits(columns: RoundColumns) -> np.ndarray:
    """The rounds that give a key bit: a chosen inner-slot click (so the
    round was not sampled) untouched by decoys."""
    return ((columns.bit == 0) | (columns.bit == 1)) & ~columns.decoy_hit


def sift(columns: RoundColumns) -> tuple[np.ndarray, np.ndarray]:
    """Raw shared key: rounds with one usable inner-slot click, unsampled
    and untouched by decoys. Alice's bit is her own phase; Bob's is inferred."""
    usable = _keyed_bits(columns)
    return columns.key[usable], columns.bit[usable]


@dataclass(frozen=True)
class QberEstimate:
    """Error rate over a disclosed subset; disclosed bits leave the key."""

    qber: float | None
    disclosed: int
    alice_remaining: tuple[int, ...]
    bob_remaining: tuple[int, ...]


def estimate_qber(
    alice_key,
    bob_key,
    disclose_fraction: float,
    rng: np.random.Generator,
) -> QberEstimate:
    """Compare a random subset of both keys publicly.

    Returns None (no data) rather than 0 for empty keys. The subset size is
    round(fraction * length), at least one bit for nonempty keys.
    """
    if len(alice_key) != len(bob_key):
        raise ValueError("keys must have equal length")
    if not 0.0 < disclose_fraction <= 1.0:
        raise ValueError(f"disclose_fraction must be in (0, 1], got {disclose_fraction}")
    n = len(alice_key)
    if n == 0:
        return QberEstimate(None, 0, (), ())
    size = min(n, max(1, round(disclose_fraction * n)))
    disclosed = np.zeros(n, dtype=bool)
    disclosed[rng.choice(n, size=size, replace=False)] = True
    alice, bob = np.asarray(alice_key), np.asarray(bob_key)
    mismatches = int(np.count_nonzero(alice[disclosed] != bob[disclosed]))
    kept = ~disclosed
    return QberEstimate(
        mismatches / size, size, tuple(alice[kept].tolist()), tuple(bob[kept].tolist())
    )


@dataclass(frozen=True)
class SessionStats:
    """Aggregates over one session's rounds."""

    rounds: int
    n_sampled: int
    n_no_click: int
    n_single_click: int
    n_multi_click: int
    n_edge_single: int
    efficiency: float | None
    edge_fraction: float | None
    sifted_length: int
    alice_key: tuple[int, ...]
    bob_key: tuple[int, ...]
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


def session_stats(columns: RoundColumns, config: SessionConfig) -> SessionStats:
    """Reduce a session's columns to protocol-level statistics.

    Efficiency and the edge fraction condition on rounds with exactly one
    click, where the slot statistics reflect the interference energies.
    The check-error rate covers matched-basis sampled rounds only.
    """

    def count(mask: np.ndarray) -> int:
        return int(np.count_nonzero(mask))

    keyed = ~columns.sampled
    n_clicks = columns.n_clicks
    n_single = count(keyed & (n_clicks == 1))
    # a single click is the chosen one, so its bit is its readout
    n_edge = count(keyed & (n_clicks == 1) & (columns.bit == _BITS.index(BitOutcome.DISCARD)))
    check_compared = int(columns.check_compared.sum())
    check_errors = int(columns.check_errors.sum())
    energy_alarms = count(columns.energy_alarm)

    alice_key, bob_key = sift(columns)
    attacked = _keyed_bits(columns) & (columns.eve >= 0)
    eve_total = count(attacked)
    eve_hits = count(attacked & (columns.eve == columns.key))

    if len(alice_key):
        est = estimate_qber(
            alice_key, bob_key, config.disclose_fraction, _stats_rng(config.master_seed)
        )
        qber, disclosed = est.qber, est.disclosed
        final_len = len(est.alice_remaining)
    else:
        qber, disclosed, final_len = None, 0, 0

    efficiency = (n_single - n_edge) / n_single if n_single else None
    edge_fraction = n_edge / n_single if n_single else None
    check_rate = check_errors / check_compared if check_compared else None
    alarm = bool(
        energy_alarms
        or (check_rate is not None and check_rate > config.max_check_error)
        or (qber is not None and qber > config.max_qber)
    )
    return SessionStats(
        rounds=len(columns.key),
        n_sampled=count(columns.sampled),
        n_no_click=count(keyed & (n_clicks == 0)),
        n_single_click=n_single,
        n_multi_click=count(keyed & (n_clicks >= 2)),
        n_edge_single=n_edge,
        efficiency=efficiency,
        edge_fraction=edge_fraction,
        sifted_length=len(alice_key),
        alice_key=tuple(alice_key.tolist()),
        bob_key=tuple(bob_key.tolist()),
        mismatches=count(alice_key != bob_key),
        qber=qber,
        qber_disclosed=disclosed,
        final_key_length=final_len,
        check_rounds_matched=count(columns.check_matched),
        check_compared=check_compared,
        check_errors=check_errors,
        check_error_rate=check_rate,
        energy_alarms=energy_alarms,
        eve_agreement=(eve_hits / eve_total) if eve_total else None,
        alarm=alarm,
    )


@dataclass(frozen=True, eq=False)
class SessionResult:
    config: SessionConfig
    columns: RoundColumns
    stats: SessionStats

    @cached_property
    def records(self) -> tuple[RoundRecord, ...]:
        """Every round as a :class:`RoundRecord`, built when first read."""
        return _records(self.config, self.columns)


def run_session(config: SessionConfig) -> SessionResult:
    """Run all rounds through the kernel, a chunk of rows at a time, and
    reduce them."""
    chunks = [_run_chunk(config, u) for u in session_uniforms(config)]
    columns = RoundColumns(*(np.concatenate(field) for field in zip(*chunks)))
    return SessionResult(config, columns, session_stats(columns, config))


def theoretical_efficiency(n: int) -> Fraction:
    """Key-creation efficiency of the n-stage cascade: (2^n - 1) / 2^n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(2 ** n - 1, 2 ** n)


def competitor_efficiency(n: int) -> Fraction:
    """Reference efficiency n / (n + 1) of the compared n-stage system."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Fraction(n, n + 1)
