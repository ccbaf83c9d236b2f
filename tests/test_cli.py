import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import dpsqkd.session
from dpsqkd.channel import BirefringenceMode
from dpsqkd.cli import (
    ConfigError,
    ExperimentSpec,
    ResultTable,
    emit,
    main,
    parse_config,
    run_experiment,
)
from dpsqkd.optics import DoubleClickPolicy
from dpsqkd.session import MAX_STAGES


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# --- parse_config ---------------------------------------------------------


def test_minimal_config_fills_documented_defaults(tmp_path):
    path = write_config(tmp_path, {"experiments": ["baseline"]})
    (spec,) = parse_config(path)
    assert spec.name == "baseline"
    cfg = spec.base
    assert cfg.n_stages == 3
    assert cfg.rounds == 100_000
    assert cfg.mean_photons_return == 0.1
    assert cfg.sample_prob == 0.1
    assert cfg.decoy_prob == 0.0
    assert cfg.channel.loss_db == 0.0
    assert cfg.detector.quantum_efficiency == 1.0
    assert cfg.detector.dark_count_prob == 0.0


def test_out_of_range_probability_is_named(tmp_path):
    path = write_config(
        tmp_path, {"experiments": [{"name": "baseline", "sample_prob": 1.5}]}
    )
    with pytest.raises(ConfigError, match="sample_prob"):
        parse_config(path)


#: the field that a config key sets, where the two names differ; the
#: dataclass's error names the field
FIELD_OF_KEY = {"seed": "master_seed"}

#: values of the wrong type, one per section: session, detector, channel and
#: the top-level seed
WRONG_TYPES = [
    ("sample_prob", "0.1"),
    ("dark_count_prob", True),
    ("loss_db", None),
    ("seed", "7"),
]


def baseline_setting(key, value, **doc):
    """A config whose one baseline experiment sets ``key``: the top-level
    seed, or a session key of the experiment entry."""
    if key == "seed":
        return {**doc, "seed": value, "experiments": ["baseline"]}
    return {**doc, "experiments": [{"name": "baseline", key: value}]}


@pytest.mark.parametrize(
    "key,value",
    [
        ("disclose_fraction", 0.0),
        ("mean_photons_return", float("nan")),
        ("loss_db", 4000),
        ("energy_tolerance", -0.5),
        *WRONG_TYPES,
    ],
)
def test_out_of_range_session_value_is_named(tmp_path, key, value):
    # the value rules live in the dataclasses; the CLI reports their error
    path = write_config(tmp_path, baseline_setting(key, value))
    with pytest.raises(ConfigError, match=FIELD_OF_KEY.get(key, key)):
        parse_config(path)


@pytest.mark.parametrize(
    "key,value",
    [
        ("disclose_fraction", 0.0),
        ("mean_photons_return", float("nan")),
        ("loss_db", 4000),
        # beyond the float range: float() raises OverflowError
        pytest.param("max_qber", 10**400, id="max_qber-10**400"),
        *WRONG_TYPES,
    ],
)
def test_main_out_of_range_value_exits_2(tmp_path, capsys, key, value):
    doc = baseline_setting(key, value, defaults={"rounds": 20})
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert code == 2
    assert FIELD_OF_KEY.get(key, key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_repeated_experiment_exits_2(tmp_path, capsys):
    # both entries would run on one variant seed and write one file
    doc = {
        "defaults": {"rounds": 20},
        "experiments": ["baseline", {"name": "baseline", "rounds": 50}],
    }
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "'baseline' appears more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_efficiency_scan_stage_out_of_range_is_named(tmp_path):
    doc = {"experiments": [{"name": "efficiency_scan", "stages": [3, 600]}]}
    with pytest.raises(ConfigError, match="n_stages"):
        parse_config(write_config(tmp_path, doc))


def test_main_efficiency_scan_stage_above_bound_exits_2(tmp_path, capsys):
    doc = {"experiments": [{"name": "efficiency_scan", "stages": [3, MAX_STAGES + 1]}]}
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"n_stages must be <= {MAX_STAGES}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_experiment_rejected(tmp_path):
    path = write_config(tmp_path, {"experiments": ["qber_scan"]})
    with pytest.raises(ConfigError, match="qber_scan"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    # channel_seed is no key: the fiber is drawn from the master seed; nor
    # are the SessionConfig fields that the seed, attack_demo and the
    # detector and channel keys set
    keys = ("phton_number", "channel_seed", "master_seed", "eve_kind", "detector", "channel")
    for key in keys:
        path = write_config(tmp_path, {"experiments": [{"name": "baseline", key: 1}]})
        with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
            parse_config(path)


def test_main_unknown_key_exits_2(tmp_path, capsys):
    doc = {"defaults": {"rounds": 20, "channel_seed": 4}, "experiments": ["baseline"]}
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown config key: channel_seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (["baseline"], [], "config root must be an object"),
        ({"sed": 3, "experiments": ["baseline"]}, [], "unknown config key: sed"),
        ({"defaults": [], "experiments": ["baseline"]}, [], "defaults must be an object"),
        ({"seed": 3}, [], "experiments must be a non-empty list"),
        ({"experiments": []}, [], "experiments must be a non-empty list"),
        ({"experiments": [3]}, [], "experiment entry must be a name or object, got 3"),
        ({"experiments": [{"rounds": 5}]}, [], "experiment entry is missing the name key"),
        (
            {"experiments": [{"name": "efficiency_scan", "stages": 3}]},
            [],
            "stages must be a non-empty list of integers",
        ),
        (
            {"experiments": ["baseline"]},
            ["--experiment", "truth_table"],
            "experiment 'truth_table' is not in the config",
        ),
    ],
)
def test_main_config_shape_errors_exit_2(tmp_path, capsys, doc, argv, message):
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out), *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_missing_file_and_malformed_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(bad)


def test_efficiency_scan_expands_stage_list(tmp_path):
    path = write_config(
        tmp_path,
        {"experiments": [{"name": "efficiency_scan", "stages": [1, 2, 3, 4, 5, 6]}]},
    )
    (spec,) = parse_config(path)
    assert spec.stages == (1, 2, 3, 4, 5, 6)
    path = write_config(tmp_path, {"experiments": ["efficiency_scan"]}, "d.json")
    (spec,) = parse_config(path)
    assert spec.stages == (1, 2, 3, 4, 5, 6)  # documented default


def test_stages_only_valid_for_scan(tmp_path):
    path = write_config(
        tmp_path, {"experiments": [{"name": "baseline", "stages": [1]}]}
    )
    with pytest.raises(ConfigError, match=r"stages \(only an efficiency_scan entry takes it\)"):
        parse_config(path)


@pytest.mark.parametrize("experiment", ["baseline", "efficiency_scan"])
def test_stages_in_defaults_exits_2_naming_the_scan_entry(tmp_path, capsys, experiment):
    doc = {"defaults": {"rounds": 20, "stages": [1, 2]}, "experiments": [experiment]}
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown config key in defaults: stages (only an efficiency_scan entry takes it)" in err
    assert not (tmp_path / "out").exists()


def test_defaults_merge_with_overrides(tmp_path):
    doc = {
        "seed": 3,
        "defaults": {"rounds": 5000, "mean_photons_return": 0.5},
        "experiments": [
            "baseline",
            {"name": "attack_demo", "rounds": 800},
        ],
    }
    base, attack = parse_config(write_config(tmp_path, doc))
    assert base.base.rounds == 5000 and base.base.mean_photons_return == 0.5
    assert attack.base.rounds == 800 and attack.base.mean_photons_return == 0.5
    assert base.base.master_seed == 3


def test_detector_and_channel_keys(tmp_path):
    doc = {
        "experiments": [
            {
                "name": "baseline",
                "quantum_efficiency": 0.8,
                "dark_count_prob": 0.001,
                "double_click_policy": "random_pick",
                "loss_db": 3.0,
                "birefringence_mode": "random_per_train",
            }
        ]
    }
    (spec,) = parse_config(write_config(tmp_path, doc))
    assert spec.base.detector.quantum_efficiency == 0.8
    assert spec.base.detector.double_click_policy is DoubleClickPolicy.RANDOM_PICK
    assert spec.base.channel.loss_db == 3.0
    assert spec.base.channel.birefringence_mode is BirefringenceMode.RANDOM_PER_TRAIN


def test_bad_enum_value_is_named(tmp_path):
    doc = {"experiments": [{"name": "baseline", "birefringence_mode": "wobbly"}]}
    with pytest.raises(ConfigError, match="birefringence_mode"):
        parse_config(write_config(tmp_path, doc))


def test_non_integer_rounds_rejected(tmp_path):
    doc = {"experiments": [{"name": "baseline", "rounds": 10.5}]}
    with pytest.raises(ConfigError, match="rounds"):
        parse_config(write_config(tmp_path, doc))


# --- run_experiment ---------------------------------------------------------


def small_spec(tmp_path, name, **overrides):
    doc = {"seed": 11, "experiments": [{"name": name, **overrides}]}
    (spec,) = parse_config(write_config(tmp_path, doc, f"{name}.json"))
    return spec


@pytest.mark.parametrize("n", range(1, 7))
def test_truth_table_rows(tmp_path, n):
    table = run_experiment(small_spec(tmp_path, "truth_table", n_stages=n))
    assert len(table.rows) == 8
    by_phase = {(r[0], r[1]): r for r in table.rows}
    row = by_phase[("0", "0")]
    cols = dict(zip(table.columns, row))
    # both phases zero: inner slots all at D1 with coefficient 2, edges split
    last = 2**n + 1
    for k in range(2, last):
        assert cols[f"d1_t{k}"] == pytest.approx(2.0, abs=1e-9)
        assert cols[f"d2_t{k}"] == pytest.approx(0.0, abs=1e-9)
    for k in (1, last):
        assert cols[f"d1_t{k}"] == pytest.approx(1.0, abs=1e-9)
        assert cols[f"d2_t{k}"] == pytest.approx(1.0, abs=1e-9)
    assert all(r[-1] is True for r in table.rows)
    # the odd inner slots are 3, 5, .., 2^n - 1: none at n = 1
    odd_inner = range(3, last, 2)
    for r in table.rows:
        cells = dict(zip(table.columns, r))
        if n == 1:
            assert cells["odd_slots_click_d1"] is None
        else:
            assert cells["odd_slots_click_d1"] is all(cells[f"d1_t{k}"] > 1e-9 for k in odd_inner)
    if n > 1:
        assert {r[-2] for r in table.rows} == {True, False}


def test_efficiency_scan_exact_column(tmp_path):
    spec = small_spec(
        tmp_path, "efficiency_scan", stages=[1, 3], rounds=4000,
        mean_photons_return=0.5, sample_prob=0.0,
    )
    table = run_experiment(spec)
    rows = {r[0]: r for r in table.rows}
    assert rows[3][3] == pytest.approx(0.875)
    assert rows[3][4] == pytest.approx(0.75)
    assert rows[1][3] == pytest.approx(0.5)
    assert abs(rows[3][2] - 0.875) < 0.05


def test_attack_demo_rows(tmp_path):
    spec = small_spec(
        tmp_path, "attack_demo", rounds=1200, mean_photons_return=0.5, sample_prob=0.2
    )
    table = run_experiment(spec)
    rows = {r[0]: dict(zip(table.columns, r)) for r in table.rows}
    off, on = rows["checks_off"], rows["checks_on"]
    assert off["qber"] == 0.0
    assert off["mismatches"] == 0
    assert off["eve_key_agreement"] == 1.0
    assert off["alarm"] is False
    assert on["check_error_rate"] > 0.3
    assert on["alarm"] is True


def test_birefringence_sweep_rows(tmp_path):
    spec = small_spec(
        tmp_path, "birefringence_sweep", rounds=1500,
        mean_photons_return=0.5, sample_prob=0.0,
    )
    table = run_experiment(spec)
    assert [r[0] for r in table.rows] == ["none", "fixed_unitary", "random_per_train"]
    for row in table.rows:
        cols = dict(zip(table.columns, row))
        assert cols["mismatches"] == 0
        assert cols["d1"] + cols["d2"] > 300


def test_birefringence_sweep_rows_differ_only_in_mode(tmp_path):
    # a session never draws a fiber, so one session gives every mode's row
    # and the rows agree click for click, checks included; that the mirror
    # compensates the fiber is checked on the legs in test_properties.py
    spec = small_spec(
        tmp_path, "birefringence_sweep", rounds=600, mean_photons_return=0.5,
        sample_prob=0.2,
    )
    table = run_experiment(spec)
    assert [r[0] for r in table.rows] == [m.value for m in BirefringenceMode]
    assert len({r[1:] for r in table.rows}) == 1
    cols = dict(zip(table.columns, table.rows[0]))
    assert cols["d1"] + cols["d2"] > 0 and cols["d3"] + cols["d4"] > 0


# --- emit ---------------------------------------------------------------------


def test_emit_empty_table_writes_header_only(tmp_path, capsys):
    table = ResultTable("baseline", ("a", "b"), ())
    (path,) = emit([table], "csv", tmp_path)
    assert path.read_text() == "a,b\n"


def test_emit_formats_csv_cells(tmp_path):
    table = ResultTable(
        "baseline", ("x", "y", "z", "w"), ((1.23456789, None, True, 7),)
    )
    (path,) = emit([table], "csv", tmp_path)
    assert path.read_text().splitlines()[1] == "1.23457,,true,7"


def test_emit_structured_mirrors_fields(tmp_path):
    table = ResultTable("baseline", ("x", "y"), ((1.5, "a"), (2.5, "b")))
    (path,) = emit([table], "structured", tmp_path)
    doc = json.loads(path.read_text())
    assert doc["experiment"] == "baseline"
    assert doc["columns"] == ["x", "y"]
    assert doc["rows"] == [[1.5, "a"], [2.5, "b"]]


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit([], "xml", tmp_path)


# --- main ----------------------------------------------------------------------


def run_config_doc(tmp_path):
    return {
        "seed": 5,
        "defaults": {"rounds": 600, "mean_photons_return": 0.5},
        "experiments": ["baseline", "truth_table"],
    }


def test_main_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, run_config_doc(tmp_path))
    out = tmp_path / "results"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "baseline.csv").exists()
    assert (out / "truth_table.csv").exists()
    assert "baseline" in capsys.readouterr().out


def test_main_identical_seeds_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, run_config_doc(tmp_path))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("baseline.csv", "truth_table.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_main_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, run_config_doc(tmp_path))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out1), "--seed", "99"]) == 0
    assert main(["--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "baseline.csv").read_bytes() != (out2 / "baseline.csv").read_bytes()


def test_main_experiment_filter_and_rounds(tmp_path):
    cfg = write_config(tmp_path, run_config_doc(tmp_path))
    out = tmp_path / "only"
    code = main(
        ["--config", str(cfg), "--out", str(out), "--experiment", "baseline", "--rounds", "200"]
    )
    assert code == 0
    assert (out / "baseline.csv").exists()
    assert not (out / "truth_table.csv").exists()
    row = (out / "baseline.csv").read_text().splitlines()[1]
    assert row.startswith("200,")


def test_main_decoy_session_end_to_end(tmp_path, capsys):
    doc = run_config_doc(tmp_path)
    doc["defaults"]["decoy_prob"] = 0.25
    cfg = write_config(tmp_path, doc)
    assert parse_config(cfg)[0].base.decoy_prob == 0.25
    out = tmp_path / "decoy"
    code = main(
        ["--config", str(cfg), "--out", str(out), "--experiment", "baseline", "--rounds", "300"]
    )
    assert code == 0
    row = (out / "baseline.csv").read_text().splitlines()[1]
    assert row.startswith("300,")
    assert "baseline" in capsys.readouterr().out


def test_main_return_far_above_the_arriving_light_runs(tmp_path):
    # 1e300 photons out of 5e-28 arriving at Alice: the attenuator's ratio
    # overflows a float, and the session still runs, with Eve and without
    doc = {
        "defaults": {
            "n_stages": 1,
            "rounds": 10,
            "mean_photons_return": 1e300,
            "loss_db": 300.0,
        },
        "experiments": ["baseline", "attack_demo"],
    }
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    assert (out / "baseline.csv").read_text().splitlines()[1].startswith("10,")


def test_experiments_tree_golden(tmp_path):
    # every table of the shipped config at 400 rounds, pinned before rounds
    # became array work over chunks: sha256 over the sorted files' relative
    # paths, a NUL and their bytes
    config = Path(__file__).resolve().parents[1] / "configs" / "experiments.json"
    out = tmp_path / "tree"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", str(config), "--rounds", "400", "--out", str(out)]) == 0
    tree = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        tree.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    assert tree.hexdigest() == "2730c5bb8b7ae54023eac369d65232e725651fa2eee024d1537cb7c46b20e52c"


def test_experiments_build_no_record_view(tmp_path, monkeypatch):
    # the tables come from statistics and round columns; no experiment pays
    # for a RoundRecord per round
    def no_records(*args, **kwargs):
        raise AssertionError("an experiment built a record view")

    monkeypatch.setattr(dpsqkd.session, "_records", no_records)
    config = Path(__file__).resolve().parents[1] / "configs" / "experiments.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", str(config), "--rounds", "200", "--out", str(tmp_path)]) == 0


def test_main_bad_config_is_nonzero(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_main_unwritable_out_is_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiments": ["truth_table"]})
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["--config", str(cfg), "--out", str(blocker)]) == 2


def test_main_filter_unknown_experiment(tmp_path):
    cfg = write_config(tmp_path, run_config_doc(tmp_path))
    assert main(["--config", str(cfg), "--experiment", "nope"]) == 2
