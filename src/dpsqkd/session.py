"""Round orchestration, sifting, and session statistics.

One laser pulse per round. A round runs: prepare -> eavesdropper forward
leg -> fiber -> Alice (energy monitor, optional whole-train check,
attenuation, key/decoy encoding, Faraday mirror) -> fiber -> eavesdropper
backward leg -> readout interferometer -> detectors. The eavesdropper, if
the config names one, is the intercept-resend attack of ``channel``.

The Faraday mirror cancels the fiber's polarization transform, so a round's
click probabilities depend only on its phases (Alice's key phase, Bob's
phase, the check phase) and on any decoy replacements, and never on the
fiber unitary: the records of a session are the same for every
``BirefringenceMode``. Each config therefore runs that pipeline once per
class of round, with the field-level functions, and keeps the results in
``SessionConfig.phase_tables``: per Bob phase, the energy-monitor verdict,
a D3/D4 click table per check phase and a D1/D2 click table per key phase.
A round looks up its table and compares it with its uniforms.

Decoy rounds run no optics either, although their masks are too many to
tabulate. Bob's readout interferes neighbouring slots only (the pairwise
rule of differential phase shift): output slot k reads input slots k - 1
and k, of which exactly one is odd and carries Alice's modulation. So each
output slot's click probability is the one it has in a train whose odd
slots all carry that slot's phase, and a decoy round gathers its D1/D2
table slot by slot from the tables of three such trains (key phase 0 or pi,
decoy phase pi/2). Under the intercept-resend attack Eve reads the odd
slots and votes: keyed slots vote for the key phase, a decoy at 0 votes for
0 and one at pi/2 for neither (``channel.eve_key_phase``). She then resends
the key train of her guess, so an attacked decoy round reads that key table.

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

A session draws its rows a bounded chunk at a time; ``round_uniforms``
draws one round's row alone by advancing the counter. Both read the same
numbers, so a round run alone equals the same round in its session, and two
sessions with the same config are bit-identical.
"""

from __future__ import annotations

import math
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
)
from .optics import (
    ClickEntry,
    ClickEvent,
    ClickTable,
    DetectorParams,
    DoubleClickPolicy,
    IDEAL_DETECTOR,
    PulseTrain,
    _enum_field,
    _int_field,
    _real_field,
    attenuate,
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
    alice_decoy_encode,
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
# uniforms per array call of a session, so chunk memory stays bounded for any n
_CHUNK_UNIFORMS = 8192

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
    def phase_tables(self) -> tuple[PhaseTables, ...]:
        """The optics of a round for each of Bob's phases, indexed by quarter
        turns, run once with the field-level functions. Rounds only draw
        from them, so every round of the session shares them."""
        return tuple(_phase_tables(self, phase) for phase in QUATERNARY)


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


#: Bob's readout as (detector, train) branches, D1 first.
Branches = tuple[tuple[Detector, PulseTrain], tuple[Detector, PulseTrain]]


#: One gate slot of a detector column in :attr:`PhaseTables.pair_rows`: its
#: click-table entry when its odd input slot carries 0, 1 or 2 quarter turns
#: (None where the output is exactly zero), then its dark-count-only entry
#: (None without dark counts).
PairRow = tuple[ClickEntry | None, ClickEntry | None, ClickEntry | None, ClickEntry | None]


class PhaseTables(NamedTuple):
    """What the optics of a round give for one phase of Bob.

    The Faraday mirror undoes the fiber's polarization transform, and no
    amplitude depends on the polarization, so these hold for every fiber
    unitary. Check tables are indexed like ``CHECK_PHASES`` and key tables
    like ``KEY_PHASES``; a key table comes with Eve's inferred phase (None
    when she resends nothing: no attack, or nothing came back to her).
    Every table reads the columns of ``SessionConfig.block``.

    Decoy rounds need no optics of their own. Under the attack Eve resends
    one of the two key trains, the one her vote picks
    (:func:`channel.eve_key_phase`). Otherwise the pairwise readout rule
    applies: Bob's output slot k interferes input slots k - 1 and k, and
    exactly one of them, ``key_slot(k)``, is odd and carries Alice's
    modulation. So slot k's entry is the one it has in a train whose odd
    slots all carry that slot's phase: key phase 0 or pi, or decoy phase
    pi/2. ``pair_rows`` keeps these entries per detector column and gate
    slot (see ``PairRow``) when ``decoy_prob`` > 0 and Eve resends nothing,
    and :func:`_decoy_table` gathers a decoy round's table from them.
    """

    cascade: CascadeConfig
    energy_alarm: bool
    check_tables: tuple[ClickTable, ...]
    odd_slots: tuple[int, ...]
    key_tables: tuple[tuple[ClickTable, QuantizedPhase | None], ...]
    pair_rows: tuple[tuple[PairRow, ...], ...]


def _phase_tables(config: SessionConfig, bob_phase: QuantizedPhase) -> PhaseTables:
    """Bob's preparation, the forward leg and Alice's station for one Bob
    phase, up to the click tables of her check and of Bob's readout."""
    cascade = CascadeConfig(config.n_stages, bob_phase)
    prepared = bob_prepare(cascade, complex(math.sqrt(config.source_mean_photons)))
    attack = config.eve_kind is EveKind.INTERCEPT_RESEND_REFERENCE
    sent = intercept_forward(prepared) if attack else prepared
    train = fiber_transmit(sent, config.channel)
    expected = (
        config.source_mean_photons / cascade.train_slots * config.channel.transmittance
    )
    check_tables = tuple(
        click_table(alice_check_ports(train, phase), config.detector, config.block.columns)
        for phase in CHECK_PHASES
    )
    attenuated = attenuate(train, config.mean_photons_return)
    odd = odd_slots(attenuated)
    legs = [
        _return_leg(config, cascade, prepared, sent, alice_encode(attenuated, phase))
        for phase in KEY_PHASES
    ]
    key_tables = tuple((table, eve_phase) for table, _, eve_phase in legs)
    pair_rows = ()
    if config.decoy_prob > 0.0 and key_tables[0][1] is None:
        # by the quarter turns of the odd slots: 0, pi/2 (all replaced), pi
        decoyed = _return_leg(
            config, cascade, prepared, sent, alice_decoy_encode(attenuated, PHASE_0, odd, PHASE_90)
        )
        pair_rows = _pair_rows(config, (legs[0], decoyed, legs[1]))
    return PhaseTables(
        cascade=cascade,
        energy_alarm=alice_energy_monitor(train, expected, config.energy_tolerance),
        check_tables=check_tables,
        odd_slots=odd,
        key_tables=key_tables,
        pair_rows=pair_rows,
    )


def _return_leg(
    config: SessionConfig,
    cascade: CascadeConfig,
    prepared: PulseTrain,
    sent: PulseTrain,
    encoded: PulseTrain,
) -> tuple[ClickTable, Branches, QuantizedPhase | None]:
    """Mirror, fiber, Eve's backward leg and Bob's readout for Alice's
    encoded train: the D1/D2 click table, the branches it was built from and
    Eve's inferred phase."""
    train = fiber_transmit(faraday_reflect(encoded), config.channel)
    eve_phase = None
    if config.eve_kind is EveKind.INTERCEPT_RESEND_REFERENCE:
        train, eve_phase = intercept_backward(train, prepared, sent)
    d1, d2 = bob_measure(train, cascade)
    branches = ((Detector.D1, d1), (Detector.D2, d2))
    return click_table(branches, config.detector, config.block.columns), branches, eve_phase


def _pair_rows(
    config: SessionConfig, legs: Sequence[tuple[ClickTable, Branches, QuantizedPhase | None]]
) -> tuple[tuple[PairRow, ...], ...]:
    """Per detector column, the ``PairRow`` of every gate slot, from the
    return legs whose odd slots all carry 0, 1 and 2 quarter turns."""
    gated = 2**config.n_stages + 3
    dark = config.detector.dark_count_prob
    columns = []
    for c, start in enumerate(config.block.columns):
        detector = legs[0][1][c][0]
        by_turns = []
        for table, branches, _ in legs:
            slots = branches[c][1].slots
            signal: list[ClickEntry | None] = [None] * gated
            for entry in table:
                event = entry[0]
                if event.detector is detector and event.slot in slots:
                    signal[event.slot] = entry
            by_turns.append(signal)
        if dark > 0.0:
            # what click_table gives a slot of the gated window with no signal
            dark_entries = [(ClickEvent(detector, k), start + k, dark) for k in range(gated)]
        else:
            dark_entries = [None] * gated
        columns.append(tuple(zip(*by_turns, dark_entries)))
    return tuple(columns)


def _decoy_table(
    tables: PhaseTables, key_turns: int, positions: Sequence[int], decoy_turns: int, dark: float
) -> list[ClickEntry]:
    """The D1/D2 click table of a round in which Eve resends nothing and
    whose odd slots ``positions`` carry the decoy phase, gathered from
    ``tables.pair_rows``: the entries, order and gated window that
    :func:`click_table` gives the round's own trains."""
    turns = [key_turns] * len(tables.pair_rows[0])
    for j in positions:
        # output slots j and j + 1 read odd slot j (key_slot)
        turns[j] = turns[j + 1] = decoy_turns
    if dark == 0.0:
        return [
            entry
            for column in tables.pair_rows
            for row, q in zip(column, turns)
            if (entry := row[q]) is not None
        ]
    table = []
    for column in tables.pair_rows:
        picked = [row[q] for row, q in zip(column, turns)]
        # the gated window: occupied slots and their neighbours; lit[-1] is
        # the missing neighbour of slot 0
        lit = [entry is not None for entry in picked]
        lit.append(False)
        for k, entry in enumerate(picked):
            if entry is not None:
                table.append(entry)
            elif lit[k - 1] or lit[k + 1]:
                table.append(column[k][3])
    return table


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


def _round_stream(master_seed: int) -> np.random.Philox:
    """The session's round stream at counter 0 (module docstring)."""
    key = np.random.SeedSequence(master_seed, spawn_key=(_ROUND_STREAM,))
    return np.random.Philox(key=key.generate_state(2, np.uint64))


def round_uniforms(config: SessionConfig, round_index: int) -> list[float]:
    """Round ``round_index``'s row of uniforms, drawn alone: the same row
    that :func:`session_uniforms` yields for it."""
    width = config.block.width
    stream = _round_stream(config.master_seed)
    stream.advance(round_index * width // 4)
    return np.random.Generator(stream).random(width).tolist()


def session_uniforms(config: SessionConfig) -> Iterator[list[float]]:
    """Every round's row of uniforms in round order, drawn
    ``config.block.chunk_rounds`` rows per array call."""
    block = config.block
    draws = np.random.Generator(_round_stream(config.master_seed))
    for start in range(0, config.rounds, block.chunk_rounds):
        rows = min(block.chunk_rounds, config.rounds - start)
        yield from draws.random((rows, block.width)).tolist()


def _stats_rng(master_seed: int) -> np.random.Generator:
    ss = np.random.SeedSequence(master_seed, spawn_key=(_STATS_STREAM, 0))
    return np.random.Generator(np.random.PCG64(ss))


def run_round(config: SessionConfig, round_index: int, u: Sequence[float]) -> RoundRecord:
    """Execute one full protocol round from its row of uniforms ``u``.

    Every draw reads its fixed position in ``u`` (module docstring). The
    round depends on nothing but its arguments, so a round run alone with
    :func:`round_uniforms` equals the same round in a session. The optics
    come from ``config.phase_tables``.
    """
    key_index = int(u[0] * 2)
    check_index = int(u[2] * 2)
    phase_a = KEY_PHASES[key_index]
    phase_b = QUATERNARY[int(u[1] * 4)]
    check_phase = CHECK_PHASES[check_index]

    tables = config.phase_tables[phase_b.quarter_turns]
    alarm = tables.energy_alarm

    # Alice's check: the whole train is diverted, with probability sample_prob
    if u[_SAMPLE] < config.sample_prob:
        check_clicks = sample_clicks(tables.check_tables[check_index], u)
        matched, compared, errors = alice_score_check(check_clicks, tables.cascade, check_phase)
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

    decoy_positions = alice_decoy_positions(tables.odd_slots, config.decoy_prob, u, _DECOYS)
    key_table, eve_phase = tables.key_tables[key_index]
    if decoy_positions:
        decoy_turns = int(u[3] * 2)  # CHECK_PHASES[i] is i quarter turns
        if eve_phase is None:
            key_table = _decoy_table(
                tables,
                phase_a.quarter_turns,
                decoy_positions,
                decoy_turns,
                config.detector.dark_count_prob,
            )
        else:
            votes = [0, 0, 0, 0]
            votes[phase_a.quarter_turns] = len(tables.odd_slots) - len(decoy_positions)
            votes[decoy_turns] += len(decoy_positions)
            eve_phase = eve_key_phase(votes)
            # Eve resends the key train of her guess; KEY_PHASES[i] is 2i quarter turns
            key_table = tables.key_tables[eve_phase.quarter_turns // 2][0]
    clicks = sample_clicks(key_table, u)

    multi = len(clicks) >= 2
    chosen: ClickEvent | None = None
    if len(clicks) == 1:
        chosen = clicks[0]
    elif multi and config.detector.double_click_policy is DoubleClickPolicy.RANDOM_PICK:
        chosen = clicks[int(u[config.block.pick] * len(clicks))]

    bit: BitOutcome | None = None
    decoy_hit = False
    if chosen is not None:
        bit = infer_bit(chosen, tables.cascade)
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


def sift(records) -> tuple[list[int], list[int]]:
    """Raw shared key: rounds with one usable inner-slot click, unsampled
    and untouched by decoys. Alice's bit is her own phase; Bob's is inferred."""
    alice_key: list[int] = []
    bob_key: list[int] = []
    for r in records:
        if r.sampled or r.decoy_hit:
            continue
        if r.bit is BitOutcome.BIT0 or r.bit is BitOutcome.BIT1:
            alice_key.append(r.alice_bit)
            bob_key.append(r.bit.value)
    return alice_key, bob_key


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
    disclosed = set(rng.choice(n, size=size, replace=False).tolist())
    mismatches = sum(1 for i in disclosed if alice_key[i] != bob_key[i])
    alice_rest = tuple(alice_key[i] for i in range(n) if i not in disclosed)
    bob_rest = tuple(bob_key[i] for i in range(n) if i not in disclosed)
    return QberEstimate(mismatches / size, size, alice_rest, bob_rest)


@dataclass(frozen=True)
class SessionStats:
    """Aggregates over one session's records."""

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


def session_stats(records, config: SessionConfig) -> SessionStats:
    """Fold a session's records into protocol-level statistics.

    Efficiency and the edge fraction condition on rounds with exactly one
    click, where the slot statistics reflect the interference energies.
    The check-error rate covers matched-basis sampled rounds only.
    """
    n_sampled = n_none = n_single = n_multi = n_edge = 0
    check_matched_rounds = check_compared = check_errors = 0
    energy_alarms = 0
    eve_hits = eve_total = 0
    for r in records:
        if r.energy_alarm:
            energy_alarms += 1
        if r.sampled:
            n_sampled += 1
            if r.check_matched:
                check_matched_rounds += 1
                check_compared += r.check_compared
                check_errors += r.check_errors
            continue
        n_clicks = len(r.clicks)
        if n_clicks == 0:
            n_none += 1
        elif n_clicks == 1:
            n_single += 1
            # a single click is the chosen one, so its bit is its readout
            if r.bit is BitOutcome.DISCARD:
                n_edge += 1
        else:
            n_multi += 1

    alice_key, bob_key = sift(records)
    mismatches = sum(1 for a, b in zip(alice_key, bob_key) if a != b)

    for r in records:
        if r.sampled or r.decoy_hit or r.eve_phase is None:
            continue
        if r.bit is BitOutcome.BIT0 or r.bit is BitOutcome.BIT1:
            eve_total += 1
            eve_bit = 0 if r.eve_phase.quarter_turns == 0 else 1
            eve_hits += eve_bit == r.alice_bit

    if alice_key:
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
        rounds=len(records),
        n_sampled=n_sampled,
        n_no_click=n_none,
        n_single_click=n_single,
        n_multi_click=n_multi,
        n_edge_single=n_edge,
        efficiency=efficiency,
        edge_fraction=edge_fraction,
        sifted_length=len(alice_key),
        alice_key=tuple(alice_key),
        bob_key=tuple(bob_key),
        mismatches=mismatches,
        qber=qber,
        qber_disclosed=disclosed,
        final_key_length=final_len,
        check_rounds_matched=check_matched_rounds,
        check_compared=check_compared,
        check_errors=check_errors,
        check_error_rate=check_rate,
        energy_alarms=energy_alarms,
        eve_agreement=(eve_hits / eve_total) if eve_total else None,
        alarm=alarm,
    )


@dataclass(frozen=True)
class SessionResult:
    config: SessionConfig
    records: tuple[RoundRecord, ...]
    stats: SessionStats


def run_session(config: SessionConfig) -> SessionResult:
    """Run all rounds serially, each on its row of the session's stream,
    and aggregate."""
    records = tuple(
        run_round(config, i, u) for i, u in enumerate(session_uniforms(config))
    )
    return SessionResult(config, records, session_stats(records, config))


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
