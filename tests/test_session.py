import collections
import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import dpsqkd.optics
import dpsqkd.session
import dpsqkd.stations
from dpsqkd.channel import BirefringenceMode, ChannelParams, EveKind
from dpsqkd.optics import ClickEvent, DetectorParams, DoubleClickPolicy
from dpsqkd.phases import PHASE_0, PHASE_180
from dpsqkd.session import (
    MAX_STAGES,
    SessionConfig,
    competitor_efficiency,
    estimate_qber,
    reference_round,
    round_uniforms,
    run_round,
    run_session,
    session_uniforms,
    theoretical_efficiency,
)
from dpsqkd.stations import BitOutcome, Detector


def scripted_row(cfg, seed, first4):
    """A hand-built row of uniforms for ``cfg`` whose four phase draws are forced."""
    u = np.random.default_rng(seed).random(cfg.block.width).tolist()
    u[0:4] = first4
    return u


FORCE_A0_B0 = (0.0, 0.0, 0.0, 0.0)  # alice 0, bob 0, check 0, sampling draw 0


# --- run_round ----------------------------------------------------------------


def test_round_with_zero_phases_clicks_d1_inner_and_reads_bit0():
    cfg = SessionConfig(
        rounds=1,
        mean_photons_return=3.0,
        sample_prob=0.0,
        detector=DetectorParams(double_click_policy=DoubleClickPolicy.RANDOM_PICK),
        master_seed=0,
    )
    saw_bit = False
    for i in range(100):
        rec = run_round(cfg, i, scripted_row(cfg, i, FORCE_A0_B0))
        for c in rec.clicks:
            if 2 <= c.slot <= 8:
                assert c.detector is Detector.D1  # deterministic interference
        if rec.bit in (BitOutcome.BIT0, BitOutcome.BIT1):
            assert rec.bit is BitOutcome.BIT0
            saw_bit = True
    assert saw_bit


def test_sampled_round_contributes_check_data_not_key():
    cfg = SessionConfig(rounds=1, sample_prob=1.0, master_seed=5)
    rec = run_round(cfg, 0, round_uniforms(cfg, 0))
    assert rec.sampled
    assert rec.bit is None
    assert rec.clicks == ()
    assert len(rec.check_clicks) > 0
    if rec.check_matched:
        assert rec.check_compared > 0 and rec.check_errors == 0


def test_vacuum_return_round_records_no_detection():
    cfg = SessionConfig(rounds=1, mean_photons_return=0.0, sample_prob=0.0, master_seed=1)
    rec = run_round(cfg, 0, round_uniforms(cfg, 0))
    assert rec.clicks == ()
    assert rec.bit is None


@pytest.mark.parametrize("round_fn", [run_round, reference_round])
def test_dark_counts_reach_every_slot_of_the_return_train_and_no_other(round_fn):
    # Bob's phase 0 and key phase 0 light D2 only at edge slots 1 and 9, yet
    # at its inner slot 5 (position 4 of the click column) D2 alone
    # dark-counts when the slot's uniform is just below the threshold of
    # either detector; with every click uniform at its slot's low threshold
    # both detectors click on exactly the return train's slots, the gate
    cfg = SessionConfig(sample_prob=0.0, detector=DetectorParams(dark_count_prob=0.01))
    block = cfg.block
    tables = cfg.phase_tables  # Bob's phase 0, key phase 0
    row = tables.thresholds[:, 0, dpsqkd.session._TURN_ROWS]
    _, low, reach = row.take(tables.slot_class, axis=1)
    u = [0.0] * 4 + [0.999] * (block.width - 4)
    clicks_at = dpsqkd.session._CLICKS
    u[clicks_at + 5 - 1] = float(np.nextafter(reach[5 - 1], 0.0))
    rec = round_fn(cfg, 0, u)
    assert rec.clicks == (ClickEvent(Detector.D2, 5),) and rec.bit is BitOutcome.BIT1
    u[clicks_at : clicks_at + block.gated] = low.tolist()
    gate = dpsqkd.stations.CascadeConfig(3, PHASE_0).gate
    assert round_fn(cfg, 0, u).clicks == tuple(
        ClickEvent(d, k) for k in gate for d in (Detector.D1, Detector.D2)
    )


def test_multi_click_policy_discard_vs_pick():
    # huge return energy forces several clicks per round
    base = dict(rounds=1, mean_photons_return=40.0, sample_prob=0.0, master_seed=9)
    discard = SessionConfig(**base)
    rec = run_round(discard, 0, round_uniforms(discard, 0))
    assert rec.multi_click and rec.bit is None
    pick = SessionConfig(
        **base,
        detector=DetectorParams(double_click_policy=DoubleClickPolicy.RANDOM_PICK),
    )
    rec = run_round(pick, 0, round_uniforms(pick, 0))
    assert rec.multi_click and rec.bit is not None


# --- sift -----------------------------------------------------------------------


def test_noiseless_sifted_keys_agree():
    cfg = SessionConfig(rounds=100, mean_photons_return=0.8, sample_prob=0.0, master_seed=2)
    result = run_session(cfg)
    alice, bob = result.alice_bits, result.bob_bits
    assert len(alice) > 10
    assert alice.tolist() == bob.tolist()


def test_all_rounds_sampled_gives_empty_keys():
    cfg = SessionConfig(rounds=50, sample_prob=1.0, master_seed=3)
    result = run_session(cfg)
    alice, bob = result.alice_bits, result.bob_bits
    assert alice.tolist() == bob.tolist() == []
    assert result.stats.sifted_length == 0


def test_decoy_contaminated_clicks_are_sifted_out():
    # decoy slots break readout determinism, but the bookkeeping removes every
    # affected round, so the sifted keys still agree exactly
    cfg = SessionConfig(
        rounds=3000,
        mean_photons_return=0.8,
        sample_prob=0.0,
        decoy_prob=0.5,
        master_seed=4,
    )
    stats = run_session(cfg).stats
    assert stats.sifted_length > 300
    assert stats.mismatches == 0


def test_a_return_far_below_the_arriving_light_keeps_the_odd_slots_lit():
    # Alice attenuates 1e300 photons to 1e-300, a ratio that underflows to 0:
    # her odd slots stay lit, so she places the decoys the same draws place
    # at the default source energy
    cfg = SessionConfig(
        source_mean_photons=1e300,
        mean_photons_return=1e-300,
        decoy_prob=0.5,
        rounds=1000,
        sample_prob=0.0,
    )
    assert cfg.phase_tables.odd
    placed = run_session(cfg).columns.n_decoys.sum()
    assert placed > 0
    assert placed == run_session(replace(cfg, source_mean_photons=512.0)).columns.n_decoys.sum()


#: Sessions whose records are pinned: decoy rounds are built from per-slot
#: tables, not their own optics, and the records must stay what running every
#: optical element on them gave.
DECOY_RECORD_CONFIGS = {
    # the perfbench decoy workload's shape
    "decoy": SessionConfig(
        rounds=2000,
        mean_photons_return=0.8,
        sample_prob=0.1,
        decoy_prob=0.25,
        detector=DetectorParams(double_click_policy=DoubleClickPolicy.RANDOM_PICK),
        master_seed=31,
    ),
    # attacked decoy rounds with loss and dark counts
    "attacked n=4": SessionConfig(
        n_stages=4,
        rounds=1000,
        mean_photons_return=0.5,
        decoy_prob=0.3,
        eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
        channel=ChannelParams(loss_db=3.0),
        detector=DetectorParams(dark_count_prob=0.02),
        master_seed=32,
    ),
    "n=6": SessionConfig(
        n_stages=6, rounds=300, mean_photons_return=0.5, decoy_prob=0.3, master_seed=33
    ),
}

#: Sessions whose statistics are pinned: the four benchmark workload shapes,
#: pinned before rounds became array work over chunks.
WORKLOAD_CONFIGS = {
    # keygen: the acceptance big_run shape
    "keygen": SessionConfig(
        rounds=10_000, mean_photons_return=0.8, sample_prob=0.0, master_seed=101
    ),
    # attack: intercept-resend with checks, loss, birefringence and dark counts
    "attack": SessionConfig(
        rounds=2_000,
        mean_photons_return=0.5,
        sample_prob=0.2,
        eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
        channel=ChannelParams(loss_db=3.0, birefringence_mode=BirefringenceMode.RANDOM_PER_TRAIN),
        detector=DetectorParams(dark_count_prob=1e-3),
        master_seed=102,
    ),
    # decoy: decoys with random-pick double clicks
    "decoy": SessionConfig(
        rounds=2_000,
        mean_photons_return=0.8,
        sample_prob=0.1,
        decoy_prob=0.25,
        detector=DetectorParams(double_click_policy=DoubleClickPolicy.RANDOM_PICK),
        master_seed=103,
    ),
    # n=6 with sampling, decoys and dark counts
    "n=6": SessionConfig(
        n_stages=6,
        rounds=1_000,
        mean_photons_return=0.5,
        sample_prob=0.2,
        decoy_prob=0.3,
        detector=DetectorParams(
            dark_count_prob=0.01, double_click_policy=DoubleClickPolicy.RANDOM_PICK
        ),
        master_seed=104,
    ),
}


def sha256_of_repr(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_decoy_session_records_golden():
    digests = {
        "decoy": "2aeb74e1bc4630c0ca2831872d608971e5a34ca14c0017a3d836e7c2b00c69eb",
        "attacked n=4": "d672d15e5dd1579c1c2a33f2fb34ce6732e0af97b1bc91956cbcc6f046fcbe66",
        "n=6": "9af58362f868cedc4c5f8d733fdb69ed29ac5ac55dc828c49fbf41b00c810bfb",
    }
    for name, cfg in DECOY_RECORD_CONFIGS.items():
        assert sha256_of_repr(run_session(cfg).records) == digests[name], name


def test_workload_stats_golden():
    digests = {
        "keygen": "bbc588bde4f12909260722da6d1a1467f15ccc98ca37f15cf08b26c1c286350f",
        "attack": "02347cf2741270b0bb559ed0e24270f718411b3796ca5c8f6faeccd4ced7605b",
        "decoy": "8f58bcd1c0291c84f729e263b880203cf2277c4eb79e78f58420e6290c547089",
        "n=6": "a250c8d5563763d2b964f55101bb17db3e25b4da23f03121d78a6acf4c879c10",
    }
    for name, cfg in WORKLOAD_CONFIGS.items():
        assert sha256_of_repr(run_session(cfg).stats) == digests[name], name


def test_phase_table_bytes_golden():
    # the arrays over Bob's phase and the gate, dtype, shape and bytes, built
    # without the memo, and the per-link (energy_alarm, odd, eve_reads) flags:
    # the goldens above stop at n=6 sessions, these pin the optics up to n=16,
    # where the tables hold 3.6 MiB
    configs = {
        "3cddb0db990e884885c7b3c18b46a9d76687d32df37e02a1c05da904fa10ef4d": (
            (False, True, False),
            SessionConfig(n_stages=1),
        ),
        "0609d6506955fddbaad6a475690bbf3787af82272c99522d23da9dbe549bd7b3": (
            (False, True, True),
            SessionConfig(
                n_stages=3,
                eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
                detector=DetectorParams(dark_count_prob=0.01),
                channel=ChannelParams(loss_db=3.0),
            ),
        ),
        # return slots occupied but with an energy that underflows to zero
        "0c3633b7897a3691889abf37c5d247c1a31f5650ce5b049875d36690fce0680e": (
            (False, True, False),
            SessionConfig(n_stages=8, decoy_prob=0.3, mean_photons_return=5e-324),
        ),
        "7a0e40c3af2fadc129000baa71e450e01afe81ceaaffa15b7cfa9e4a7be0dffc": (
            (False, True, False),
            SessionConfig(n_stages=12, decoy_prob=0.3),
        ),
        # the attacked link of the CI's n=16 sessions
        "54448ac2102fa0ce980bb4cabd121cf0925da2649b31f525c416e4a19c3d37c8": (
            (False, True, True),
            SessionConfig(
                n_stages=16,
                decoy_prob=0.3,
                eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
                detector=DetectorParams(dark_count_prob=0.01),
            ),
        ),
    }
    for digest, (flags, cfg) in configs.items():
        tables = dpsqkd.session.build_phase_tables(cfg.link)
        h = hashlib.sha256()
        for name in (
            "slot_class", "any", "thresholds", "bit", "check_matched", "check_compared", "check_error"
        ):
            array = getattr(tables, name)
            h.update(f"{array.dtype.str}{array.shape}".encode())
            h.update(array.tobytes())
        assert h.hexdigest() == digest
        assert sum(a.nbytes for a in tables) < 4 * 2**20
        per_link = (tables.energy_alarm, tables.odd, tables.eve_reads)
        assert [(a.dtype, a.shape) for a in per_link] == [(np.dtype(bool), ())] * 3
        assert tuple(bool(a) for a in per_link) == flags


def test_phase_tables_reject_thresholds_that_vary_within_a_slot_class(monkeypatch):
    # a click probability that grows along the gate breaks the four-class
    # rule: the build names the link's n rather than spread a wrong class
    probabilities = dpsqkd.session.click_probabilities

    def growing(train, link, gate):
        return probabilities(train, link, gate) * np.linspace(0.5, 1.0, len(gate))

    monkeypatch.setattr(dpsqkd.session, "click_probabilities", growing)
    with pytest.raises(ValueError, match="n_stages 3 vary within a slot class"):
        dpsqkd.session.build_phase_tables(SessionConfig(n_stages=3).link)


@pytest.mark.parametrize("eve_kind", list(EveKind))
def test_decoy_rounds_run_no_interferometer_optics(monkeypatch, eve_kind):
    # once the tables are built, a decoy round is a gather or follows Eve's
    # vote: no round passes a train through an interferometer
    cfg = SessionConfig(
        rounds=400,
        mean_photons_return=0.8,
        decoy_prob=0.5,
        eve_kind=eve_kind,
        detector=DetectorParams(dark_count_prob=0.01),
        master_seed=8,
    )
    cfg.phase_tables

    def no_optics(*args, **kwargs):
        raise AssertionError("a round ran interferometer optics")

    for module in (dpsqkd.optics, dpsqkd.stations, dpsqkd.session):
        monkeypatch.setattr(module, "mzi_pass", no_optics, raising=False)
    records = run_session(cfg).records
    assert sum(1 for r in records if r.decoy_positions) > 100


# --- the phase-table memo -------------------------------------------------------

#: a link with every field the tables read away from its default
MEMO_LINK = SessionConfig(
    n_stages=2,
    rounds=50,
    source_mean_photons=256.0,
    mean_photons_return=0.5,
    decoy_prob=0.2,
    energy_tolerance=0.1,
    detector=DetectorParams(quantum_efficiency=0.5, dark_count_prob=0.01),
    channel=ChannelParams(loss_db=3.0),
    eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
)

#: changes of the fields the tables never read
UNREAD_CHANGES = {
    "rounds": dict(rounds=7),
    "master_seed": dict(master_seed=99),
    "sample_prob": dict(sample_prob=0.7),
    "disclose_fraction": dict(disclose_fraction=0.5),
    "max_check_error": dict(max_check_error=0.2),
    "max_qber": dict(max_qber=0.3),
    "decoy_prob": dict(decoy_prob=0.0),
    "birefringence_mode": dict(
        channel=ChannelParams(loss_db=3.0, birefringence_mode=BirefringenceMode.RANDOM_PER_TRAIN)
    ),
    "double_click_policy": dict(
        detector=DetectorParams(
            quantum_efficiency=0.5,
            dark_count_prob=0.01,
            double_click_policy=DoubleClickPolicy.RANDOM_PICK,
        )
    ),
}

#: a change of each field the tables read
READ_CHANGES = {
    "n_stages": dict(n_stages=3),
    "source_mean_photons": dict(source_mean_photons=512.0),
    "mean_photons_return": dict(mean_photons_return=0.8),
    "energy_tolerance": dict(energy_tolerance=0.05),
    "quantum_efficiency": dict(detector=DetectorParams(quantum_efficiency=0.9, dark_count_prob=0.01)),
    "dark_count_prob": dict(detector=DetectorParams(quantum_efficiency=0.5)),
    "loss_db": dict(channel=ChannelParams(loss_db=6.0)),
    "eve_kind": dict(eve_kind=EveKind.PASSIVE),
}


@pytest.mark.parametrize("change", UNREAD_CHANGES.values(), ids=UNREAD_CHANGES)
def test_configs_differing_in_unread_fields_share_one_table_object(change):
    assert replace(MEMO_LINK, **change).link == MEMO_LINK.link
    assert replace(MEMO_LINK, **change).phase_tables is MEMO_LINK.phase_tables


@pytest.mark.parametrize("change", READ_CHANGES.values(), ids=READ_CHANGES)
def test_a_change_in_a_read_field_gives_another_table(change):
    assert replace(MEMO_LINK, **change).link != MEMO_LINK.link
    assert replace(MEMO_LINK, **change).phase_tables is not MEMO_LINK.phase_tables


def test_phase_tables_are_read_only():
    for array in MEMO_LINK.phase_tables:
        first = (0,) * array.ndim
        with pytest.raises(ValueError, match="read-only"):
            array[first] = array[first]


def test_phase_tables_do_not_depend_on_build_order():
    # the memo is the only state the tables keep: A then B gives the same
    # bytes as B then A from an empty memo (replace makes fresh instances)
    a = MEMO_LINK
    b = replace(MEMO_LINK, n_stages=3, eve_kind=EveKind.PASSIVE, decoy_prob=0.0)

    def build(*configs):
        dpsqkd.session._phase_tables.cache_clear()
        tables = [replace(config).phase_tables for config in configs]
        return [[(array.dtype, array.shape, array.tobytes()) for array in t] for t in tables]

    a_first, b_second = build(a, b)
    b_first, a_second = build(b, a)
    assert a_first == a_second
    assert b_first == b_second


def test_kept_results_do_not_pin_evicted_tables():
    # a config or result keeps no reference to its tables: once the memo
    # lets a link go, its tables are freed even while its results are kept
    links = [SessionConfig(n_stages=4, rounds=20, mean_photons_return=i / 10) for i in range(1, 10)]
    first = weakref.ref(links[0].phase_tables.any)
    results = [run_session(link) for link in links]
    dpsqkd.session._phase_tables.cache_clear()
    gc.collect()
    assert first() is None
    assert len(results) == 9


def test_phase_table_memo_is_bounded():
    # configs/experiments.json runs 7 distinct links
    assert dpsqkd.session._phase_tables.cache_info().maxsize == 8


@pytest.fixture
def built(monkeypatch):
    """Counts, by class name, the SessionConfig, DetectorParams and
    ChannelParams built while the test runs."""
    counts = collections.Counter()
    for cls in (SessionConfig, DetectorParams, ChannelParams):

        def counting(self, check=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def test_phase_tables_build_no_config_on_a_hit_or_a_miss(built):
    # the memo is keyed on the link, and the builder reads the link alone:
    # neither a miss nor a hit builds a config or parameter object
    memo = dpsqkd.session._phase_tables
    memo.cache_clear()
    config = replace(MEMO_LINK, mean_photons_return=0.375)
    sibling = replace(config, **UNREAD_CHANGES["double_click_policy"], master_seed=3)
    built.clear()
    tables = config.phase_tables
    assert memo.cache_info().misses == 1
    assert config.phase_tables is tables
    assert sibling.phase_tables is tables
    assert memo.cache_info().hits == 2
    assert not built


def test_run_session_builds_no_config_for_its_tables(built):
    config = replace(MEMO_LINK, mean_photons_return=0.625)
    dpsqkd.session._phase_tables.cache_clear()
    built.clear()
    run_session(config)
    run_session(config)
    assert dpsqkd.session._phase_tables.cache_info()[:2] == (1, 1)
    assert not built


@pytest.mark.parametrize("eve_kind", list(EveKind))
def test_a_kept_one_chunk_result_pins_no_chunk(monkeypatch, eve_kind):
    # a one-chunk session keeps its chunk's columns without a copy: none of
    # them may be a view of the chunk's uniforms or of the shared tables
    chunks = []
    draw = dpsqkd.session.session_uniforms

    def capture(config):
        for u in draw(config):
            chunks.append(u)
            yield u

    monkeypatch.setattr(dpsqkd.session, "session_uniforms", capture)
    config = SessionConfig(
        rounds=600,
        mean_photons_return=0.8,
        sample_prob=0.3,
        decoy_prob=0.3,
        eve_kind=eve_kind,
        detector=DetectorParams(
            dark_count_prob=0.01, double_click_policy=DoubleClickPolicy.RANDOM_PICK
        ),
        master_seed=4,
    )
    result = run_session(config)
    assert len(chunks) == 1
    for name, column in result.columns._asdict().items():
        for source in (chunks[0], *config.phase_tables):
            assert not np.shares_memory(column, source), name


# --- estimate_qber ----------------------------------------------------------------


def test_qber_identical_keys():
    rng = np.random.default_rng(0)
    assert estimate_qber([0, 1] * 50, [0, 1] * 50, 0.5, rng) == (0.0, 50)


def test_qber_complementary_keys():
    rng = np.random.default_rng(0)
    assert estimate_qber([0] * 40, [1] * 40, 0.25, rng) == (1.0, 10)


def test_qber_five_percent_flips():
    rng = np.random.default_rng(123)
    n = 20_000
    alice = rng.integers(0, 2, n).tolist()
    flips = rng.random(n) < 0.05
    bob = [a ^ int(f) for a, f in zip(alice, flips)]
    qber, disclosed = estimate_qber(alice, bob, 0.5, rng)
    assert disclosed == 10_000
    assert qber == pytest.approx(0.05, abs=0.007)


def test_qber_empty_keys_report_no_data():
    rng = np.random.default_rng(0)
    assert estimate_qber([], [], 0.5, rng) == (None, 0)


def test_qber_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        estimate_qber([0], [0, 1], 0.5, rng)
    with pytest.raises(ValueError):
        estimate_qber([0], [0], 0.0, rng)


def test_qber_disclosure_shrinks_final_key():
    rng = np.random.default_rng(7)
    # the disclosed bits leave the key: a session's final key is
    # sifted_length - qber_disclosed
    assert estimate_qber([0] * 100, [0] * 100, 0.1, rng) == (0.0, 10)


# --- session statistics --------------------------------------------------------


def test_round_accounting_is_complete():
    cfg = SessionConfig(rounds=2000, mean_photons_return=0.5, sample_prob=0.15, master_seed=6)
    stats = run_session(cfg).stats
    assert (
        stats.n_sampled + stats.n_no_click + stats.n_single_click + stats.n_multi_click
        == stats.rounds
    )
    assert stats.efficiency is not None and stats.edge_fraction is not None
    assert stats.efficiency + stats.edge_fraction == pytest.approx(1.0)
    assert stats.qber == 0.0
    assert stats.final_key_length == stats.sifted_length - stats.qber_disclosed
    assert stats.eve_agreement is None
    assert stats.alarm is False


def test_reproducibility_same_seed_same_stats():
    cfg = SessionConfig(rounds=500, mean_photons_return=0.5, master_seed=77)
    a = run_session(cfg)
    b = run_session(cfg)
    assert a.stats == b.stats
    assert a.records == b.records
    c = run_session(replace(cfg, master_seed=78))
    assert c.stats != a.stats


def _assert_rounds_order_independent(cfg):
    # each round owns a fixed block of the session's stream and depends on
    # nothing else, so executing rounds in any order or in isolation
    # reproduces the session's records
    session_records = run_session(cfg).records
    for i in (39, 7, 0, 22):
        solo = run_round(cfg, i, round_uniforms(cfg, i))
        assert solo == session_records[i]
    return session_records


def test_rounds_are_order_independent():
    _assert_rounds_order_independent(
        SessionConfig(rounds=40, mean_photons_return=0.5, master_seed=13)
    )


def test_rounds_are_order_independent_under_attack():
    # the eavesdropper reads the config, so a round run alone is attacked
    # exactly as it is inside its session
    cfg = SessionConfig(
        rounds=40,
        mean_photons_return=0.5,
        decoy_prob=0.3,
        eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
        channel=ChannelParams(loss_db=2.0, birefringence_mode=BirefringenceMode.RANDOM_PER_TRAIN),
        detector=DetectorParams(dark_count_prob=0.02),
        master_seed=14,
    )
    records = _assert_rounds_order_independent(cfg)
    assert any(r.eve_phase is not None for r in records)


@pytest.mark.parametrize("n", [1, 2, 6, MAX_STAGES])
def test_round_uniforms_equal_the_chunked_session_rows(n):
    # first and last round of the first chunk, first round of the second and
    # the last round of the session, which falls in a partial chunk; at
    # MAX_STAGES a row is longer than half the chunk budget and every chunk
    # one row
    probe = SessionConfig(n_stages=n, master_seed=21)
    chunk = probe.block.chunk_rounds
    last = max(1, chunk // 2)
    cfg = replace(probe, rounds=2 * chunk + last)
    chunks = list(session_uniforms(cfg))
    assert [len(rows) for rows in chunks] == [chunk, chunk, last]
    budget = dpsqkd.session._CHUNK_UNIFORMS
    assert all(rows.size <= budget or len(rows) == 1 for rows in chunks)
    rows = np.concatenate(chunks)
    assert len(rows) == cfg.rounds
    for i in (0, chunk - 1, chunk, cfg.rounds - 1):
        assert round_uniforms(cfg, i) == rows[i].tolist()
    # a numpy integer index advances the stream like a Python int
    assert round_uniforms(cfg, np.int64(chunk)) == rows[chunk].tolist()


#: the traced peak of a session, its phase tables aside: 8x the 1 MiB of
#: uniforms a chunk draws
SESSION_PEAK_BYTES = 8 * 2**20


@pytest.mark.parametrize("n, chunks", [(3, 1), (3, 40), (10, 5.5), (MAX_STAGES, 8)])
def test_session_memory_is_bounded_by_the_chunk_budget(n, chunks):
    # a chunk draws at most 2^17 uniforms, or one row where a row is longer,
    # and the session folds it into counts before it draws the next, so a
    # session's working memory stays bounded whatever n and however many
    # chunks it runs; the widest rows, with the pick and decoys, at a full
    # n=3 chunk, 40 n=3 chunks (275 920 rounds), several n=10 chunks and
    # n=16 chunks of one row
    probe = SessionConfig(
        n_stages=n,
        mean_photons_return=0.8,
        sample_prob=0.3,
        decoy_prob=0.3,
        detector=DetectorParams(
            dark_count_prob=0.01, double_click_policy=DoubleClickPolicy.RANDOM_PICK
        ),
        master_seed=30,
    )
    block = probe.block
    assert block.width * block.chunk_rounds <= max(dpsqkd.session._CHUNK_UNIFORMS, block.width)
    if n == MAX_STAGES:
        assert (block.width, block.chunk_rounds) == (98311, 1)
    cfg = replace(probe, rounds=math.ceil(chunks * block.chunk_rounds))
    cfg.phase_tables  # built and memoized outside the trace
    tracemalloc.start()
    try:
        result = run_session(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.stats.rounds == cfg.rounds
    assert peak < SESSION_PEAK_BYTES, peak


#: the peak RSS of a fresh interpreter that imports the package and runs one
#: 3·10^6-round n=3 session; an interpreter with numpy imported holds about
#: 30 MiB, and a session that kept 55 MiB per million rounds held 200 MiB
FRESH_SESSION_RSS_MIB = 96


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_a_long_session_keeps_no_per_round_memory():
    # the settings of a finite-size verdict at 40 dB: few clicks, few
    # sifted bits, and every round's counts folded into the session's sums.
    # The child reports VmHWM, its own peak RSS: its ru_maxrss would also
    # count the resident memory of the test process at the fork
    code = """
from dpsqkd.channel import ChannelParams
from dpsqkd.optics import DetectorParams
from dpsqkd.session import SessionConfig, run_session
config = SessionConfig(
    n_stages=3, rounds=3_000_000, mean_photons_return=0.2, sample_prob=0.1,
    channel=ChannelParams(loss_db=40.0),
    detector=DetectorParams(quantum_efficiency=0.1, dark_count_prob=1e-6),
)
assert run_session(config).stats.rounds == config.rounds
print(next(line for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""
    src = os.path.dirname(os.path.dirname(dpsqkd.session.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    peak_mib = int(proc.stdout.split()[-2]) / 1024  # "VmHWM: <n> kB"
    assert peak_mib < FRESH_SESSION_RSS_MIB, peak_mib


def test_round_uniforms_far_ahead_are_one_contiguous_draw():
    # rows 2^40 and 2^40 + 1 are the 2W outputs that follow 2^40 rows of W
    cfg = SessionConfig(master_seed=22)
    width, i = cfg.block.width, 2**40
    stream = np.random.PCG64(np.random.SeedSequence(cfg.master_seed, spawn_key=(1,)))
    stream.advance(i * width)
    draw = np.random.Generator(stream).random(2 * width).tolist()
    assert round_uniforms(cfg, i) + round_uniforms(cfg, i + 1) == draw


ROUND_COLUMN_DTYPES = {
    **dict.fromkeys(("key", "bob", "check", "bit", "eve"), np.int8),
    **dict.fromkeys(("sampled", "energy_alarm", "check_matched", "decoy_hit"), np.bool_),
    **dict.fromkeys(
        ("n_clicks", "clicks", "check_compared", "check_errors", "n_decoys", "decoy_slots"),
        np.int32,
    ),
}


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("decoy_prob", [0.0, 0.3])
@pytest.mark.parametrize("eve_kind", list(EveKind))
@pytest.mark.parametrize("sample_prob", [0.0, 0.2])
@pytest.mark.parametrize("dark", [0.0, 0.01])
def test_round_columns_contract(monkeypatch, n, decoy_prob, eve_kind, sample_prob, dark):
    # the record and stats goldens compare values after ``tolist``, so they
    # cannot see a column's dtype; every session here spans two chunks, of
    # 2^15 uniforms to keep the sessions short
    monkeypatch.setattr(dpsqkd.session, "_CHUNK_UNIFORMS", 2**15)
    probe = SessionConfig(n_stages=n)
    cfg = SessionConfig(
        n_stages=n,
        rounds=probe.block.chunk_rounds + 7,
        mean_photons_return=0.8,
        sample_prob=sample_prob,
        decoy_prob=decoy_prob,
        eve_kind=eve_kind,
        detector=DetectorParams(dark_count_prob=dark),
        master_seed=41,
    )
    columns = run_session(cfg).columns
    assert set(columns._fields) == set(ROUND_COLUMN_DTYPES)
    for name, dtype in ROUND_COLUMN_DTYPES.items():
        column = getattr(columns, name)
        assert column.dtype == dtype, name
        if name not in ("clicks", "decoy_slots"):
            assert column.shape == (cfg.rounds,), name
    assert columns.clicks.shape == (columns.n_clicks.sum(),)
    assert columns.decoy_slots.shape == (columns.n_decoys.sum(),)
    assert columns.n_clicks.any()
    if decoy_prob == 0.0:
        assert columns.decoy_slots.size == 0 and not columns.n_decoys.any()
        assert not columns.decoy_hit.any()
    else:
        assert columns.n_decoys.any()


@pytest.mark.parametrize("n", [1, 3, 6, MAX_STAGES])
def test_round_block_layout(n):
    # three phases and the sampling draw, one click column of the gate slots
    # 1 .. 2^n + 1, then the pick only under random pick, then the decoy
    # phase and one decoy draw per odd slot only with decoys
    gated = 2**n + 1
    for decoy_prob in (0.0, 0.3):
        for policy in DoubleClickPolicy:
            cfg = SessionConfig(
                n_stages=n,
                decoy_prob=decoy_prob,
                detector=DetectorParams(double_click_policy=policy),
            )
            block = cfg.block
            assert (dpsqkd.session._SAMPLE, block.gated, dpsqkd.session._CLICKS) == (3, gated, 4)
            end = 4 + gated
            if policy is DoubleClickPolicy.RANDOM_PICK:
                assert block.pick == end
                end += 1
            else:
                assert block.pick is None
            if decoy_prob:
                assert (block.decoy_phase, block.decoys) == (end, end + 1)
                end += 1 + 2 ** (n - 1)
            else:
                assert block.decoy_phase is None and block.decoys is None
            assert block.width == end
            assert block.chunk_rounds == max(1, dpsqkd.session._CHUNK_UNIFORMS // end)
            assert len(round_uniforms(cfg, 5)) == end
    # the rows of the keygen shape at n = 1 .. 6
    widths = [SessionConfig(n_stages=k, sample_prob=0.0).block.width for k in range(1, 7)]
    assert widths == [7, 9, 13, 21, 37, 69]


@pytest.mark.parametrize("n", range(1, MAX_STAGES + 1))
def test_decoy_scatter_overwrites_the_gate_positions_that_read_each_odd_slot(n):
    # the kernel reads the first 2^n gate slots in pairs: pair j, gate slots
    # 2j + 1 and 2j + 2 at 2j and 2j + 1, must be the slots k with
    # key_slot(k) == 2j + 1, and the last gate slot must read no odd slot;
    # so a gate slot at k - 1 reads odd slot 2j + 1 with j = (k - 1) // 2
    gated, half = SessionConfig(n_stages=n).block.gated, 2 ** (n - 1)
    gate = np.array(dpsqkd.stations.CascadeConfig(n, PHASE_0).gate)
    assert len(gate) == gated == 2 * half + 1
    read = dpsqkd.stations.key_slot(gate)
    pairs = read[:-1].reshape(half, 2)
    assert (pairs == 2 * np.arange(half)[:, None] + 1).all()
    assert read[-1] not in 2 * np.arange(half) + 1
    assert ((gate - 1) // 2 == np.arange(gated) // 2).all()
    assert (read[:-1] == 2 * ((gate[:-1] - 1) // 2) + 1).all()


@pytest.mark.parametrize("round_fn", [run_round, reference_round])
def test_both_gate_slots_of_a_replaced_odd_slot_read_the_decoy_row(round_fn):
    # a slot's threshold for either detector is nearly the same in the key
    # and the decoy train (one slot's energy), but not to the last bit: each
    # gate slot's uniform sits at the lower of the two, so it is lit under
    # the higher only, and the round clicks where the decoy row is the higher
    cfg = SessionConfig(sample_prob=0.0, decoy_prob=1.0, mean_photons_return=0.8)
    block, tables = cfg.block, cfg.phase_tables
    turns = dpsqkd.session._TURN_ROWS
    # Bob 0, key 0 and pi/2, spread over the gate
    key_row, decoy_row = tables.thresholds[2, 0, turns : turns + 2].take(tables.slot_class, axis=1)
    reading = np.arange(block.gated - 1)  # the gate slots that read an odd slot
    differ = reading[key_row[reading] != decoy_row[reading]]
    assert {0, 1} <= set(differ % 2)  # both slots of a pair are checked
    u = [0.0] * 4 + [0.999] * (block.width - 4)
    u[block.decoy_phase] = 0.75  # pi/2, and every decoy draw 0 replaces its slot
    clicks_at = dpsqkd.session._CLICKS
    for k in range(block.gated):
        u[clicks_at + k] = 0.999
    for at in differ.tolist():
        u[clicks_at + at] = float(min(key_row[at], decoy_row[at]))
    expected = [at + 1 for at in differ.tolist() if decoy_row[at] > key_row[at]]
    assert sorted({c.slot for c in round_fn(cfg, 0, u).clicks}) == expected


def test_round_uniforms_golden():
    # a change of numpy's PCG64 or SeedSequence output changes every record
    assert round_uniforms(SessionConfig(master_seed=0), 0)[:8] == [
        0.6771968569751019,
        0.2429867485428212,
        0.6117637963218119,
        0.4230998298211348,
        0.8234937464573729,
        0.770577233001593,
        0.5596966081393742,
        0.6781308356666703,
    ]


@pytest.mark.parametrize("round_fn", [run_round, reference_round])
@pytest.mark.parametrize(
    "index, edit, match",
    [
        (0, lambda u: u[:10], "u must hold 13 uniforms"),
        (0, lambda u: u + [0.5], "u must hold 13 uniforms"),
        (0, lambda u: [1.0] + u[1:], r"\[0, 1\)"),
        (0, lambda u: u[:5] + [math.nan] + u[6:], r"\[0, 1\)"),
        (0, lambda u: u[:-1] + [-0.25], r"\[0, 1\)"),
        (-1, lambda u: u, "round_index"),
        (True, lambda u: u, "round_index"),
    ],
    ids=["short_row", "long_row", "one", "nan", "negative_value", "negative_index", "bool_index"],
)
def test_rounds_reject_malformed_rows_and_indices(round_fn, index, edit, match):
    # rejected with an error naming the argument, before the row is read:
    # a short row would broadcast in the kernel, 1.0 would index past a table
    cfg = SessionConfig(mean_photons_return=40.0, sample_prob=0.0)
    with pytest.raises(ValueError, match=match):
        round_fn(cfg, index, edit(round_uniforms(cfg, 0)))
    if match == "round_index":
        with pytest.raises(ValueError, match=match):
            round_uniforms(cfg, index)


def test_efficiency_converges_at_moderate_scale():
    cfg = SessionConfig(
        rounds=30_000, mean_photons_return=0.8, sample_prob=0.0, master_seed=8
    )
    stats = run_session(cfg).stats
    assert stats.n_single_click > 10_000
    assert stats.efficiency == pytest.approx(7 / 8, abs=0.015)
    assert stats.edge_fraction == pytest.approx(1 / 8, abs=0.015)


def single_click_efficiency_oracle(n: int, mu: float) -> float:
    """Exact inner-slot probability conditioned on one click.

    With per-cell click probability 1 - exp(-E), conditioning on exactly one
    click weights cell k by exp(E_k) - 1. The lit inner cells carry mu/2^n
    each; the four edge cells carry a quarter of that.
    """
    e_in = mu / 2 ** n
    w_in = (2 ** n - 1) * math.expm1(e_in)
    w_edge = 4 * math.expm1(e_in / 4)
    return w_in / (w_in + w_edge)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_efficiency_tracks_cascade_size(n):
    mu = 0.8
    cfg = SessionConfig(
        n_stages=n,
        rounds=12_000,
        mean_photons_return=mu,
        sample_prob=0.0,
        master_seed=40 + n,
    )
    stats = run_session(cfg).stats
    expected = single_click_efficiency_oracle(n, mu)
    sigma = math.sqrt(expected * (1 - expected) / stats.n_single_click)
    assert stats.efficiency == pytest.approx(expected, abs=4 * sigma)
    # conditioning bias vanishes with mu; the asymptotic fraction still rules
    assert abs(stats.efficiency - (2 ** n - 1) / 2 ** n) < 0.06


def test_dark_counts_produce_qber_and_alarm():
    cfg = SessionConfig(
        rounds=4000,
        mean_photons_return=0.2,
        sample_prob=0.0,
        detector=DetectorParams(dark_count_prob=0.02),
        master_seed=10,
    )
    stats = run_session(cfg).stats
    assert stats.mismatches > 0
    assert stats.qber is not None and stats.qber > 0.05
    assert stats.alarm is True


def test_dark_counts_on_a_vacuum_return_fill_the_gate():
    # with no light back, each of the 2 (2^n + 1) gated slots of a round
    # dark-counts on its own, and every click's slot lies in the gate
    n, rounds, dark = 3, 20_000, 0.01
    cfg = SessionConfig(
        n_stages=n,
        rounds=rounds,
        mean_photons_return=0.0,
        sample_prob=0.0,
        detector=DetectorParams(dark_count_prob=dark),
        master_seed=12,
    )
    result = run_session(cfg)
    clicks = result.columns.clicks
    trials = rounds * 2 * (2**n + 1)
    assert abs(len(clicks) - trials * dark) < 5 * math.sqrt(trials * dark * (1 - dark))
    slots = {click.slot for record in result.records for click in record.clicks}
    assert slots == set(dpsqkd.stations.CascadeConfig(n, PHASE_0).gate)


def test_channel_immunity_statistics():
    # collective birefringence with a mirror at the far end must not shift
    # per-detector counts beyond sampling noise
    from scipy.stats import binomtest

    base = dict(rounds=20_000, mean_photons_return=0.5, sample_prob=0.0)
    plain = run_session(SessionConfig(**base, master_seed=50)).stats
    noisy = run_session(
        SessionConfig(
            **base,
            channel=ChannelParams(birefringence_mode=BirefringenceMode.RANDOM_PER_TRAIN),
            master_seed=51,
        )
    ).stats
    for a, b in (
        (plain.n_single_click, noisy.n_single_click),
        (plain.n_edge_single, noisy.n_edge_single),
    ):
        res = binomtest(a, a + b, 0.5)
        assert res.pvalue > 0.01
    assert noisy.mismatches == 0


# --- efficiency formulas ----------------------------------------------------------


def test_theoretical_efficiency_values():
    assert theoretical_efficiency(3) == Fraction(7, 8)
    assert theoretical_efficiency(1) == Fraction(1, 2)
    assert theoretical_efficiency(6) == Fraction(63, 64)


def test_competitor_efficiency_values():
    assert competitor_efficiency(3) == Fraction(3, 4)
    assert competitor_efficiency(1) == Fraction(1, 2)


def test_cascade_beats_competitor_for_n_above_one():
    for n in range(2, 21):
        assert theoretical_efficiency(n) > competitor_efficiency(n)
    assert theoretical_efficiency(1) == competitor_efficiency(1)


@pytest.mark.parametrize("formula", [theoretical_efficiency, competitor_efficiency])
@pytest.mark.parametrize("n", [0, -1, 3.0, 2.5, True, "3", None])
def test_efficiency_formulas_reject_bad_n(formula, n):
    with pytest.raises(ValueError, match="n must be"):
        formula(n)


def test_efficiency_formulas_take_numpy_integers_exactly():
    # a numpy integer's 2 ** n would overflow in its own width from n = 31
    # or 63 (a RuntimeWarning, an error under this suite's settings)
    for formula in (theoretical_efficiency, competitor_efficiency):
        for dtype in (np.int32, np.int64):
            for n in (3, 31, 40, 63, 64):
                result = formula(dtype(n))
                assert result == formula(n) and type(result.numerator) is int, (dtype, n)


# --- config validation ---------------------------------------------------------


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(rounds=0)
    with pytest.raises(ValueError):
        SessionConfig(sample_prob=1.2)
    with pytest.raises(ValueError):
        SessionConfig(n_stages=0)
    with pytest.raises(ValueError):
        SessionConfig(mean_photons_return=-0.5)


@pytest.mark.parametrize(
    "field,value",
    [
        ("disclose_fraction", 0.0),
        ("disclose_fraction", 1.5),
        ("mean_photons_return", math.nan),
        ("source_mean_photons", math.nan),
        ("source_mean_photons", math.inf),
        ("energy_tolerance", math.nan),
        ("max_qber", math.nan),
        ("max_check_error", math.inf),
        ("energy_tolerance", -0.1),
        ("max_check_error", -0.1),
        ("max_qber", -0.1),
        ("master_seed", -1),
        ("sample_prob", "0.1"),
        ("sample_prob", True),
        ("detector", None),
        ("channel", None),
    ],
)
def test_session_config_rejects_bad_input(field, value):
    # each of these was accepted and then failed or misbehaved inside the
    # session: a NaN threshold silently disables its alarm (nan > x is False),
    # a string failed in a bare TypeError, True ran as 1.0 and a missing
    # detector failed deep inside the first round
    with pytest.raises(ValueError, match=field):
        SessionConfig(**{field: value})


@pytest.mark.parametrize("n_stages", [MAX_STAGES + 1, 40])
def test_session_config_bounds_n_stages(n_stages):
    # a round's row and the field-level tables grow like 2^n; n=40 would
    # need 2^40 slots per train
    with pytest.raises(ValueError, match=f"n_stages must be <= {MAX_STAGES}"):
        SessionConfig(n_stages=n_stages)
    assert SessionConfig(n_stages=MAX_STAGES).n_stages == MAX_STAGES


@pytest.mark.parametrize("loss_db,n_stages", [(3200.0, 3), (100.0, 600)])
def test_session_config_rejects_underflowing_arrival_energy(loss_db, n_stages):
    # a positive transmittance can still leave a per-slot energy at Alice that
    # underflows, which her energy monitor and attenuator cannot handle
    with pytest.raises(ValueError, match="underflows"):
        SessionConfig(n_stages=n_stages, channel=ChannelParams(loss_db=loss_db))


def test_session_config_accepts_lossy_but_representable_link():
    cfg = SessionConfig(rounds=3, mean_photons_return=0.5, channel=ChannelParams(loss_db=3000.0))
    assert run_session(cfg).stats.rounds == 3


@pytest.mark.parametrize(
    "make,field,member",
    [
        (
            lambda v: SessionConfig(rounds=50, sample_prob=0.0, eve_kind=v),
            "eve_kind",
            EveKind.INTERCEPT_RESEND_REFERENCE,
        ),
        (
            lambda v: SessionConfig(
                rounds=50,
                mean_photons_return=40.0,
                detector=DetectorParams(double_click_policy=v),
            ),
            "double_click_policy",
            DoubleClickPolicy.RANDOM_PICK,
        ),
        (
            lambda v: SessionConfig(rounds=50, channel=ChannelParams(birefringence_mode=v)),
            "birefringence_mode",
            BirefringenceMode.FIXED_UNITARY,
        ),
    ],
    ids=["eve_kind", "double_click_policy", "birefringence_mode"],
)
def test_enum_field_given_as_its_value_is_the_member(make, field, member):
    # a string used to be kept as is and then compared with `is` against the
    # members, so the session silently ran the default branch
    by_value, by_member = make(member.value), make(member)
    assert by_value == by_member
    assert run_session(by_value).stats == run_session(by_member).stats
    with pytest.raises(ValueError, match=f"{field} must be one of .*{member.value}"):
        make("no_such_value")


@pytest.mark.parametrize(
    "field,value",
    [
        ("rounds", 2.5),
        ("rounds", True),
        ("n_stages", 2.5),
        ("n_stages", "3"),
        ("master_seed", 1.5),
    ],
)
def test_session_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SessionConfig(**{field: value})


def test_numpy_integers_are_accepted_as_counts():
    cfg = SessionConfig(n_stages=np.int64(2), rounds=np.int32(3), master_seed=np.uint8(4))
    assert cfg == SessionConfig(n_stages=2, rounds=3, master_seed=4)
    assert run_session(cfg).stats.rounds == 3
