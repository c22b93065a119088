import json

import numpy as np
import pytest

from weakspin import CouplingTensor, LocalHamiltonians, Records, Runs
from weakspin.design import DENT_THRESHOLD_DEFAULT, GRID_DEFAULT, grid_times
from weakspin.estimator import KAPPA_MAX_DEFAULT
from weakspin.fileio import (
    ConfigError,
    ScenarioConfig,
    ScenarioOptions,
    config_to_doc,
    curve_csv_lines,
    dump_json,
    load_config,
    load_records,
    parse_config,
    parse_grid_spec,
    parse_records,
    records_to_doc,
    save_config,
    save_records,
)


def _minimal_doc():
    return {
        "coupling_mhz": {"xx": 5.0, "yy": 4.2, "zz": 8.2, "xy": -6.3, "xz": -2.9, "yz": -2.3},
        "runs": [
            {"r_i": [0, 0, 1], "p": [0, 0, 1], "q": [1, 0, 0], "dt": 0.05},
        ],
    }


def test_parse_minimal_config():
    config = parse_config(_minimal_doc())
    assert np.isclose(config.coupling.values[0], 5.0)
    assert len(config.runs) == 1
    assert config.locals_.is_zero
    assert config.options.seed == 0


def test_parse_config_with_options_and_locals():
    doc = _minimal_doc()
    doc["local_fields"] = {"target": [0, 0, 1.5], "probe": [0.1, 0, 0]}
    doc["options"] = {
        "seed": 3,
        "noise": 0.01,
        "dent_threshold": 5e-4,
        "grid": "0.002:0.1:0.002",
        "kappa_max": 1e6,
    }
    config = parse_config(doc)
    assert not config.locals_.is_zero
    assert config.options.grid == (0.002, 0.1, 0.002)
    assert config.options.kappa_max == 1e6


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["coupling_mhz"].update(ww=1.0),
        lambda d: d["runs"][0].update(phase=0.2),
        lambda d: d.update(options={"sneaky": True}),
    ],
)
def test_parse_config_rejects_unknown_keys(mutate):
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_config_missing_pieces():
    doc = _minimal_doc()
    del doc["coupling_mhz"]
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = _minimal_doc()
    del doc["coupling_mhz"]["yz"]
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = _minimal_doc()
    del doc["runs"][0]["dt"]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_grid_spec_errors():
    assert parse_grid_spec("0.001:0.2:0.001") == (0.001, 0.2, 0.001)
    for bad in ("0.2:0.1:0.01", "a:b:c", "1:2", "0:0.1:0.01", "0.01:0.1:-1"):
        with pytest.raises(ConfigError):
            parse_grid_spec(bad)


def test_config_without_options_gets_default_options():
    doc = {
        "coupling_mhz": dict.fromkeys(("xx", "yy", "zz", "xy", "xz", "yz"), 1.0),
        "runs": [{"r_i": [0, 0, 1], "p": [1, 0, 0], "q": [0, 1, 0], "dt": 0.05}],
    }
    assert parse_config(doc).options == ScenarioOptions()
    assert ScenarioOptions().grid == GRID_DEFAULT
    assert ScenarioOptions().dent_threshold == DENT_THRESHOLD_DEFAULT
    assert ScenarioOptions().kappa_max == KAPPA_MAX_DEFAULT


def test_grid_times_covers_range():
    times = grid_times((0.001, 0.2, 0.001))
    assert times[0] == pytest.approx(0.001)
    assert times[-1] == pytest.approx(0.2)
    assert len(times) == 200


def test_config_round_trip(tmp_path):
    config = ScenarioConfig(
        coupling=CouplingTensor(np.array([5.0, 4.2, 8.2, -6.3, -2.9, -2.3])),
        runs=Runs(r_i=[(0, 0, 1)], p=[(0, 1, 0)], q_tilde=[(1, 0, 0)], dt=[0.091]),
        locals_=LocalHamiltonians.from_fields(target=(0.0, 0.5, 1.0)),
        options=ScenarioOptions(seed=9, noise=0.02),
    )
    path = tmp_path / "scenario.json"
    save_config(config, str(path))
    loaded = load_config(str(path))
    assert np.array_equal(loaded.coupling.values, config.coupling.values)
    assert np.array_equal(loaded.runs.r_i, config.runs.r_i)
    assert loaded.runs.dt[0] == config.runs.dt[0]
    assert np.allclose(loaded.locals_.h_target, config.locals_.h_target, atol=1e-15)
    assert loaded.options == config.options


def test_records_round_trip(tmp_path):
    rec = Records(
        r_i=[(0, 0, 1)],
        r_f=[(0.1, -0.2, 0.97)],
        p=[(0, 1, 0)],
        q=[(1, 0, 0)],
        dt=[0.0625],
        expectation=[-0.123456789012345],
    )
    path = tmp_path / "records.json"
    save_records(rec, str(path), meta={"seed": 1})
    loaded = load_records(str(path))
    assert len(loaded) == 1
    assert loaded.expectation[0] == rec.expectation[0]  # lossless float round trip
    assert np.array_equal(loaded.r_f, rec.r_f)


def test_parse_records_rejects_unknown_or_missing():
    doc = records_to_doc(parse_records({"records": []}))
    doc["records"] = [{"r_i": [0, 0, 1]}]
    with pytest.raises(ConfigError):
        parse_records(doc)
    doc = {"records": [], "surprise": 1}
    with pytest.raises(ConfigError):
        parse_records(doc)


def test_dump_json_is_deterministic():
    doc = {"b": [1.0, 0.1], "a": {"y": 2, "x": 1}}
    assert dump_json(doc) == dump_json(json.loads(dump_json(doc)))


def test_curve_csv_formatting():
    lines = curve_csv_lines(
        [0.001, 0.123456789012345], [0.0, 1.23456789012345e-05], [False, True]
    )
    assert lines[0] == "dt_us,delta,dent"
    assert lines[1] == "0.001,0,0"
    assert lines[2] == "0.123456789012,1.23456789012e-05,1"
