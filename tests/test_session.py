import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import dpsqkd.optics
import dpsqkd.session
import dpsqkd.stations
from dpsqkd.channel import BirefringenceMode, ChannelParams, EveKind
from dpsqkd.optics import DetectorParams, DoubleClickPolicy
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
    session_stats,
    session_uniforms,
    sift,
    theoretical_efficiency,
)
from dpsqkd.stations import BitOutcome, Detector


def scripted_row(cfg, seed, first4):
    """A hand-built row of uniforms for ``cfg`` whose four phase draws are forced."""
    u = np.random.default_rng(seed).random(cfg.block.width).tolist()
    u[0:4] = first4
    return u


FORCE_A0_B0 = (0.0, 0.0, 0.0, 0.0)  # alice 0, bob 0, check 0, decoy 0


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
    alice, bob = sift(result.columns)
    assert len(alice) > 10
    assert alice.tolist() == bob.tolist()


def test_all_rounds_sampled_gives_empty_keys():
    cfg = SessionConfig(rounds=50, sample_prob=1.0, master_seed=3)
    result = run_session(cfg)
    alice, bob = sift(result.columns)
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


def test_decoy_session_records_golden():
    # decoy rounds are built from per-slot tables, not their own optics; the
    # records must stay what running every optical element on them gave
    configs = {
        # the perfbench decoy workload's shape
        "fbff9023e70ca64fc36d0ed0ea04b973eda04458f4e6fc95927452002c4f84a9": SessionConfig(
            rounds=2000,
            mean_photons_return=0.8,
            sample_prob=0.1,
            decoy_prob=0.25,
            detector=DetectorParams(double_click_policy=DoubleClickPolicy.RANDOM_PICK),
            master_seed=31,
        ),
        # attacked decoy rounds with loss and dark counts
        "c1b1db848451808cd32f259bd5cda9ca8491dc41cebb53ff1a7ef42c0b9768e2": SessionConfig(
            n_stages=4,
            rounds=1000,
            mean_photons_return=0.5,
            decoy_prob=0.3,
            eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
            channel=ChannelParams(loss_db=3.0),
            detector=DetectorParams(dark_count_prob=0.02),
            master_seed=32,
        ),
        "ab0109c3dfbc83c12a5c6f1c41fcf1159774faf85934a2ed1a0f516878499356": SessionConfig(
            n_stages=6, rounds=300, mean_photons_return=0.5, decoy_prob=0.3, master_seed=33
        ),
    }
    for digest, cfg in configs.items():
        records = run_session(cfg).records
        assert hashlib.sha256(repr(records).encode()).hexdigest() == digest


def test_workload_stats_golden():
    # the statistics of the four benchmark workload shapes, pinned before
    # rounds became array work over chunks
    configs = {
        # keygen: the acceptance big_run shape
        "5c4347f011dda0d2fdb8049cf129a6381399442b0a230fb06be2fd08256c2662": SessionConfig(
            rounds=10_000, mean_photons_return=0.8, sample_prob=0.0, master_seed=101
        ),
        # attack: intercept-resend with checks, loss, birefringence and dark counts
        "89e05fd876d2fefbdf25cef21feb01883e318caade38f18554dd26b7bd1afc27": SessionConfig(
            rounds=2_000,
            mean_photons_return=0.5,
            sample_prob=0.2,
            eve_kind=EveKind.INTERCEPT_RESEND_REFERENCE,
            channel=ChannelParams(
                loss_db=3.0, birefringence_mode=BirefringenceMode.RANDOM_PER_TRAIN
            ),
            detector=DetectorParams(dark_count_prob=1e-3),
            master_seed=102,
        ),
        # decoy: decoys with random-pick double clicks
        "be2b457a703a1d345754d57f4d2d3c9f9444c6ea5cf2d3e7bd8deb6e9f64c56e": SessionConfig(
            rounds=2_000,
            mean_photons_return=0.8,
            sample_prob=0.1,
            decoy_prob=0.25,
            detector=DetectorParams(double_click_policy=DoubleClickPolicy.RANDOM_PICK),
            master_seed=103,
        ),
        # n=6 with sampling, decoys and dark counts
        "aa5370557b4d969cd5e5e68866d03d410f93eb177797cbc7839f43d4113e5a1b": SessionConfig(
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
    for digest, cfg in configs.items():
        stats = run_session(cfg).stats
        assert hashlib.sha256(repr(stats).encode()).hexdigest() == digest


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


# --- estimate_qber ----------------------------------------------------------------


def test_qber_identical_keys():
    rng = np.random.default_rng(0)
    est = estimate_qber([0, 1] * 50, [0, 1] * 50, 0.5, rng)
    assert est.qber == 0.0
    assert est.disclosed == 50
    assert len(est.alice_remaining) == 50


def test_qber_complementary_keys():
    rng = np.random.default_rng(0)
    est = estimate_qber([0] * 40, [1] * 40, 0.25, rng)
    assert est.qber == 1.0


def test_qber_five_percent_flips():
    rng = np.random.default_rng(123)
    n = 20_000
    alice = rng.integers(0, 2, n).tolist()
    flips = rng.random(n) < 0.05
    bob = [a ^ int(f) for a, f in zip(alice, flips)]
    est = estimate_qber(alice, bob, 0.5, rng)  # 1e4 disclosed
    assert est.disclosed == 10_000
    assert est.qber == pytest.approx(0.05, abs=0.007)


def test_qber_empty_keys_report_no_data():
    rng = np.random.default_rng(0)
    est = estimate_qber([], [], 0.5, rng)
    assert est.qber is None and est.disclosed == 0


def test_qber_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        estimate_qber([0], [0, 1], 0.5, rng)
    with pytest.raises(ValueError):
        estimate_qber([0], [0], 0.0, rng)


def test_qber_disclosure_shrinks_final_key():
    rng = np.random.default_rng(7)
    est = estimate_qber([0] * 100, [0] * 100, 0.1, rng)
    assert est.disclosed == 10
    assert len(est.alice_remaining) == 90 and len(est.bob_remaining) == 90


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


@pytest.mark.parametrize("n", [1, 6])
def test_round_uniforms_equal_the_chunked_session_rows(n):
    # first and last round of the first chunk, first round of the second and
    # the last round of the session, which falls in a partial chunk
    probe = SessionConfig(n_stages=n, master_seed=21)
    chunk = probe.block.chunk_rounds
    cfg = replace(probe, rounds=2 * chunk + chunk // 2)
    chunks = list(session_uniforms(cfg))
    assert [len(rows) for rows in chunks] == [chunk, chunk, chunk // 2]
    assert all(rows.size <= 2**15 for rows in chunks)
    rows = np.concatenate(chunks)
    assert len(rows) == cfg.rounds
    for i in (0, chunk - 1, chunk, cfg.rounds - 1):
        assert round_uniforms(cfg, i) == rows[i].tolist()
    # a numpy integer index advances the stream like a Python int
    assert round_uniforms(cfg, np.int64(chunk)) == rows[chunk].tolist()


@pytest.mark.parametrize("n", [1, 3, 6, MAX_STAGES])
def test_round_block_layout(n):
    # phases, sampling, one decoy draw per odd slot, two detector columns of
    # gate slots 0 .. 2^n + 2, the pick, padded to whole Philox counters
    cfg = SessionConfig(n_stages=n)
    column0 = 5 + 2 ** (n - 1)
    gated = 2**n + 3
    assert cfg.block.columns == (column0, column0 + gated)
    assert cfg.block.pick == column0 + 2 * gated
    assert cfg.block.width % 4 == 0 and 0 < cfg.block.width - cfg.block.pick <= 4
    assert len(round_uniforms(cfg, 5)) == cfg.block.width


def test_round_uniforms_golden():
    # a change of numpy's Philox or SeedSequence output changes every record
    assert round_uniforms(SessionConfig(master_seed=0), 0)[:8] == [
        0.674438164022751,
        0.4788968376798527,
        0.30998762221501774,
        0.4726330704259736,
        0.8217534484187546,
        0.9743123880042773,
        0.28929430132065914,
        0.055152668428354645,
    ]


@pytest.mark.parametrize("round_fn", [run_round, reference_round])
@pytest.mark.parametrize(
    "index, edit, match",
    [
        (0, lambda u: u[:10], "u must hold 32 uniforms"),
        (0, lambda u: u + [0.5], "u must hold 32 uniforms"),
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


def test_efficiency_formulas_reject_bad_n():
    with pytest.raises(ValueError):
        theoretical_efficiency(0)
    with pytest.raises(ValueError):
        competitor_efficiency(0)


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
            lambda v: SessionConfig(
                rounds=50, channel=ChannelParams(birefringence_mode=v, seed=3)
            ),
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


@pytest.mark.parametrize("value", [1.5, False])
def test_channel_params_rejects_non_integer_seed(value):
    with pytest.raises(ValueError, match="seed must be an integer"):
        ChannelParams(birefringence_mode=BirefringenceMode.FIXED_UNITARY, seed=value)


def test_numpy_integers_are_accepted_as_counts():
    cfg = SessionConfig(n_stages=np.int64(2), rounds=np.int32(3), master_seed=np.uint8(4))
    assert cfg == SessionConfig(n_stages=2, rounds=3, master_seed=4)
    assert run_session(cfg).stats.rounds == 3
