import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from weakspin import CouplingTensor, sample_designs
from weakspin import cli
from weakspin.cli import build_parser, main
from weakspin.fileio import dump_json, load_records
from weakspin.protocol import OMEGA_LABELS

from _helpers import model_one, random_unit

NV_DOC = {
    "coupling_mhz": {
        "xx": 5.0, "yy": 4.2, "zz": 8.2, "xy": -6.3, "xz": -2.9, "yz": -2.3,
    },
    "runs": [
        {"r_i": [0, 0, 1], "p": [0, 0.59, 0.81], "q": [-0.16, 0, 0.99], "dt": 0.091},
        {"r_i": [-0.48, 0.59, 0.65], "p": [0, 0, 1], "q": [-0.25, 0.59, -0.77], "dt": 0.086},
        {"r_i": [-0.81, 0.59, 0], "p": [-0.65, 0.59, -0.48], "q": [0.25, 0.59, -0.77], "dt": 0.073},
        {"r_i": [0, 0, 1], "p": [0, 0, 1], "q": [-0.99, 0, -0.16], "dt": 0.069},
        {"r_i": [0.81, 0, -0.59], "p": [-0.10, 0.95, 0.29], "q": [0, 0.81, -0.59], "dt": 0.066},
        {"r_i": [0.31, 0.95, 0], "p": [-0.18, 0.95, -0.25], "q": [0, 0.81, 0.59], "dt": 0.051},
    ],
    "options": {"seed": 5},
}


def _normalized_doc(doc):
    out = json.loads(json.dumps(doc))
    for run in out["runs"]:
        for key in ("r_i", "p", "q"):
            v = np.asarray(run[key], dtype=float)
            run[key] = (v / np.linalg.norm(v)).tolist()
    return out


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_json(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def nv_config(tmp_path):
    return _write(tmp_path, "nv.json", _normalized_doc(NV_DOC))


def test_simulate_writes_expected_dt_column(nv_config, tmp_path):
    out = tmp_path / "records.json"
    assert main(["simulate", "--config", nv_config, "--out", str(out)]) == 0
    records = load_records(str(out))
    assert records.dt.tolist() == [0.091, 0.086, 0.073, 0.069, 0.066, 0.051]


def test_simulate_zero_coupling_keeps_inner_product(tmp_path):
    doc = _normalized_doc(NV_DOC)
    doc["coupling_mhz"] = {k: 0.0 for k in doc["coupling_mhz"]}
    config = _write(tmp_path, "zero.json", doc)
    out = tmp_path / "records.json"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    records = load_records(str(out))
    for q, p, expectation in zip(records.q, records.p, records.expectation):
        assert expectation == pytest.approx(float(q @ p), abs=1e-12)


def test_simulate_deterministic_bytes(nv_config, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = main(
            ["simulate", "--config", nv_config, "--out", str(out),
             "--seed", "11", "--noise", "0.01"]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"coupling_mhz": {', encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_simulate_rejects_unknown_key(tmp_path):
    doc = _normalized_doc(NV_DOC)
    doc["unsupported"] = True
    config = _write(tmp_path, "unknown.json", doc)
    assert main(["simulate", "--config", config, "--out", "-"]) == 2


def test_simulate_rejects_invalid_run(tmp_path, capsys):
    doc = _normalized_doc(NV_DOC)
    doc["runs"][3]["dt"] = -0.5
    config = _write(tmp_path, "invalid.json", doc)
    assert main(["simulate", "--config", config, "--out", "-"]) == 3
    assert "dt" in capsys.readouterr().err


def test_estimate_round_trip_recovers_tensor(nv_config, tmp_path):
    records = tmp_path / "records.json"
    report = tmp_path / "report.json"
    assert main(["simulate", "--config", nv_config, "--out", str(records)]) == 0
    code = main(
        ["estimate", "--records", str(records), "--config", nv_config,
         "--out", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert set(doc["coupling_mhz"]) == {"xx", "yy", "zz", "xy", "xz", "yz"}
    assert "error_mean_mhz" in doc
    assert doc["condition_number"] > 1.0
    assert len(doc["per_record_residuals"]) == 6


def test_estimate_exact_on_model_synthesized_records(tmp_path):
    rng = np.random.default_rng(123)
    g = CouplingTensor(np.array([5.0, 4.2, 8.2, -6.3, -2.9, -2.3]))
    records = []
    while len(records) < 6:
        r_i, r_f, p, q = (random_unit(rng) for _ in range(4))
        if 1.0 + r_i @ r_f < 0.2:
            continue
        dt = rng.uniform(0.02, 0.08)
        e = model_one(r_i, r_f, p, q, dt, g)
        if abs(e) > 1.0:
            continue
        records.append(
            {"r_i": r_i.tolist(), "r_f": r_f.tolist(), "p": p.tolist(),
             "q": q.tolist(), "dt": dt, "expectation": e}
        )
    path = tmp_path / "synthetic.json"
    path.write_text(dump_json({"records": records}), encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["estimate", "--records", str(path), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    estimated = [doc["coupling_mhz"][k] for k in ("xx", "yy", "zz", "xy", "xz", "yz")]
    assert np.abs(np.array(estimated) - g.values).max() < 1e-9
    assert doc["residual_norm"] < 1e-9


def test_estimate_needs_six_records(tmp_path):
    doc = {"records": []}
    path = tmp_path / "empty.json"
    path.write_text(dump_json(doc), encoding="utf-8")
    assert main(["estimate", "--records", str(path), "--out", "-"]) == 3


def test_estimate_duplicate_records_ill_conditioned(nv_config, tmp_path, capsys):
    records = tmp_path / "records.json"
    main(["simulate", "--config", nv_config, "--out", str(records)])
    doc = json.loads(records.read_text())
    doc["records"] = [doc["records"][0]] * 6
    dup = tmp_path / "dup.json"
    dup.write_text(dump_json(doc), encoding="utf-8")
    assert main(["estimate", "--records", str(dup), "--out", "-"]) == 4
    assert "condition number" in capsys.readouterr().err


def test_curve_csv_output(nv_config, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["curve", "--config", nv_config, "--run-index", "0",
         "--grid", "0.002:0.2:0.002", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dt_us,delta,dent"
    assert len(lines) == 101
    # a deep dent exists on this curve; it must be flagged
    flags = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(flags) >= 1


def test_curve_zero_coupling_all_zero(tmp_path):
    doc = _normalized_doc(NV_DOC)
    doc["coupling_mhz"] = {k: 0.0 for k in doc["coupling_mhz"]}
    config = _write(tmp_path, "zero.json", doc)
    out = tmp_path / "curve.csv"
    assert main(["curve", "--config", config, "--run-index", "0", "--out", str(out)]) == 0
    deltas = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert max(deltas) < 1e-12


def test_curve_bad_grid_is_parse_error(nv_config):
    assert main(["curve", "--config", nv_config, "--run-index", "0",
                 "--grid", "0.2:0.1:0.001", "--out", "-"]) == 2


def test_curve_grid_above_cap_is_parse_error(nv_config, capsys):
    # 2e11 points would exhaust memory; the cap refuses them up front
    assert main(["curve", "--config", nv_config, "--run-index", "0",
                 "--grid", "0.001:0.2:1e-12", "--out", "-"]) == 2
    assert "100000" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["curve", "--run-index", "0"], ["design", "--count", "2"]])
def test_grid_beyond_longest_time_is_parse_error(nv_config, capsys, command):
    argv = [command[0], "--config", nv_config, *command[1:], "--grid", "0.001:1:0.001"]
    assert main(argv + ["--out", "-"]) == 2
    assert "0.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key",
    [("options", "seed"), ("options", "noise"), ("coupling_mhz", "xx")],
)
def test_non_numeric_config_scalar_is_parse_error(tmp_path, capsys, section, key):
    doc = _normalized_doc(NV_DOC)
    doc[section][key] = "abc"
    config = _write(tmp_path, "bad.json", doc)
    assert main(["simulate", "--config", config, "--out", "-"]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dt", "expectation"])
def test_non_numeric_record_field_is_parse_error(nv_config, tmp_path, capsys, key):
    records = tmp_path / "records.json"
    main(["simulate", "--config", nv_config, "--out", str(records)])
    doc = json.loads(records.read_text())
    doc["records"][2][key] = [1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(doc), encoding="utf-8")
    assert main(["estimate", "--records", str(bad), "--out", "-"]) == 2
    assert f"records[2].{key}" in capsys.readouterr().err


OPTION_FAULTS = [
    pytest.param(["simulate", "--noise", "nan"], {}, "noise", id="simulate-noise-nan"),
    pytest.param(["simulate", "--noise", "-0.5"], {}, "noise", id="simulate-noise-negative"),
    pytest.param(["simulate"], {"noise": float("nan")}, "noise", id="config-noise-nan"),
    pytest.param(["simulate", "--seed", "-1"], {}, "seed", id="simulate-seed-negative"),
    pytest.param(["simulate"], {"seed": -2}, "seed", id="simulate-config-seed-negative"),
    pytest.param(["design", "--count", "1", "--seed", "-1"], {}, "seed",
                 id="design-seed-negative"),
    pytest.param(["design", "--count", "1"], {"seed": -1}, "seed", id="design-config-seed-negative"),
    pytest.param(["design", "--count", "1", "--threshold", "nan"], {}, "dent_threshold",
                 id="design-threshold-nan"),
    pytest.param(["curve", "--run-index", "0", "--threshold", "nan"], {}, "dent_threshold",
                 id="curve-threshold-nan"),
    pytest.param(["curve", "--run-index", "0", "--threshold", "-1"], {}, "dent_threshold",
                 id="curve-threshold-negative"),
    pytest.param(["curve", "--run-index", "0"], {"dent_threshold": 0.0}, "dent_threshold",
                 id="config-threshold-zero"),
    pytest.param(["estimate", "--kappa-max", "nan"], {}, "kappa_max", id="estimate-kappa-nan"),
    pytest.param(["estimate", "--kappa-max", "inf"], {}, "kappa_max", id="estimate-kappa-inf"),
    pytest.param(["estimate"], {"kappa_max": -1.0}, "kappa_max", id="config-kappa-negative"),
]


@pytest.mark.parametrize("argv,options,option", OPTION_FAULTS)
def test_bad_option_value_is_invalid_data(nv_config, tmp_path, capsys, argv, options, option):
    # a bad value exits 3 naming its option, whether a flag or the config sets it
    records = tmp_path / "records.json"
    assert main(["simulate", "--config", nv_config, "--out", str(records)]) == 0
    doc = _normalized_doc(NV_DOC)
    doc["options"].update(options)
    config = _write(tmp_path, "options.json", doc)
    if argv[0] == "estimate":
        argv = [*argv, "--records", str(records)] + (["--config", config] if options else [])
    else:
        argv = [*argv, "--config", config]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: option {option} must be")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,option",
    [(["--noise", "nan"], "noise"), (["--noise", "-1"], "noise"), (["--seed", "-1"], "seed")],
    ids=["noise-nan", "noise-negative", "seed-negative"],
)
def test_reproduce_nv_bad_option_value_is_invalid_data(capsys, flags, option):
    assert main(["reproduce-nv", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: option {option} must be")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_estimate_provenance_describes_parsed_records(nv_config, tmp_path):
    records = tmp_path / "records.json"
    main(["simulate", "--config", nv_config, "--seed", "4", "--out", str(records)])
    report = tmp_path / "report.json"
    assert main(["estimate", "--records", str(records), "--out", str(report)]) == 0
    provenance = json.loads(report.read_text())["provenance"]
    assert provenance["records_sha256"] == hashlib.sha256(records.read_bytes()).hexdigest()
    assert provenance["records_meta"] == json.loads(records.read_text())["meta"]


def test_config_sha256_describes_the_config_file(nv_config, tmp_path):
    with open(nv_config, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    records = tmp_path / "records.json"
    assert main(["simulate", "--config", nv_config, "--out", str(records)]) == 0
    assert json.loads(records.read_text())["meta"]["config_sha256"] == digest
    report = tmp_path / "report.json"
    argv = ["estimate", "--records", str(records), "--config", nv_config, "--out", str(report)]
    assert main(argv) == 0
    assert json.loads(report.read_text())["provenance"]["config_sha256"] == digest


def test_nan_record_expectation_is_invalid_data(nv_config, tmp_path, capsys):
    records = tmp_path / "records.json"
    main(["simulate", "--config", nv_config, "--out", str(records)])
    doc = json.loads(records.read_text())
    doc["records"][2]["expectation"] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(doc), encoding="utf-8")
    assert main(["estimate", "--records", str(bad), "--out", "-"]) == 3
    assert "records[2]: expectation nan" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["r_i", "p"])
def test_record_state_outside_bloch_ball_is_invalid_data(nv_config, tmp_path, capsys, key):
    records = tmp_path / "records.json"
    main(["simulate", "--config", nv_config, "--out", str(records)])
    doc = json.loads(records.read_text())
    doc["records"][2][key] = [0.0, 0.0, 5.0]
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(doc), encoding="utf-8")
    assert main(["estimate", "--records", str(bad), "--out", "-"]) == 3
    assert f"records[2]: {key} norm 5.0 exceeds 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "BAD"],
        ["estimate", "--records", "BAD"],
        ["curve", "--config", "BAD", "--run-index", "0"],
        ["design", "--config", "BAD", "--count", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_utf8_input_is_parse_error(tmp_path, argv):
    # a UTF-16 file starts with bytes ff fe, which are not UTF-8
    bad = tmp_path / "utf16.json"
    bad.write_bytes("{}".encode("utf-16"))
    argv = [str(bad) if arg == "BAD" else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "weakspin.cli", *argv, "--out", "-"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "not UTF-8" in proc.stderr


@pytest.mark.parametrize(
    "field,value,command",
    [
        ("local_fields", [], "simulate"),
        ("local_fields", [1.0, 0.0, 0.0], "design"),
        ("options", [], "simulate"),
        ("options", "seed=1", "curve"),
    ],
    ids=["local_fields-list", "local_fields-vector", "options-list", "options-string"],
)
def test_non_object_config_field_is_parse_error(tmp_path, field, value, command):
    doc = _normalized_doc(NV_DOC)
    doc[field] = value
    config = _write(tmp_path, "config.json", doc)
    extra = {"curve": ["--run-index", "0"], "design": ["--count", "1"]}.get(command, [])
    proc = subprocess.run(
        [sys.executable, "-m", "weakspin.cli", command, "--config", config, *extra, "--out", "-"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"'{field}' must be an object" in proc.stderr


def test_parser_built_once_serves_every_call(nv_config, tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    records, again = tmp_path / "records.json", tmp_path / "again.json"
    assert main(["simulate", "--config", nv_config, "--out", str(records)]) == 0
    report = tmp_path / "report.json"
    assert main(["estimate", "--records", str(records), "--out", str(report)]) == 0
    assert capsys.readouterr().out.startswith("estimated coupling (MHz): xx=")
    assert set(json.loads(report.read_text())["coupling_mhz"]) == set(OMEGA_LABELS)
    assert main(["simulate", "--config", nv_config, "--bogus-flag"]) == 2
    assert "unrecognized arguments: --bogus-flag" in capsys.readouterr().err
    # the failed parse leaves the shared parser as it was
    assert main(["simulate", "--config", nv_config, "--out", str(again)]) == 0
    assert again.read_bytes() == records.read_bytes()
    assert len(built) == 1


def test_design_without_grid_or_threshold_uses_library_defaults(tmp_path):
    # a weak prior puts the chosen times well inside the default grid, where
    # a grid built another way would differ from the library's in the last bits
    doc = _normalized_doc(NV_DOC)
    doc["coupling_mhz"] = {k: v / 10.0 for k, v in doc["coupling_mhz"].items()}
    config = _write(tmp_path, "weak.json", doc)
    out = tmp_path / "designs.json"
    argv = ["design", "--config", config, "--count", "5", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    cli_candidates = json.loads(out.read_text())["candidates"]
    g = CouplingTensor(np.array([doc["coupling_mhz"][k] for k in OMEGA_LABELS]))
    lib_candidates = sample_designs(2, g, 5)
    assert len(cli_candidates) == len(lib_candidates)
    for doc, cand in zip(cli_candidates, lib_candidates):
        assert doc["condition_number"] == cand.condition_number
        assert doc["max_correction"] == cand.max_correction
        runs = cand.runs
        rows = zip(runs.r_i, runs.p, runs.q_tilde, runs.dt)
        for run_doc, (r_i, p, q_tilde, dt) in zip(doc["runs"], rows, strict=True):
            assert run_doc["dt"] == dt
            for key, v in (("r_i", r_i), ("p", p), ("q", q_tilde)):
                assert run_doc[key] == v.tolist()


def test_curve_index_out_of_range(nv_config):
    assert main(["curve", "--config", nv_config, "--run-index", "6", "--out", "-"]) == 3


def test_design_command_runs(nv_config, tmp_path, capsys):
    out = tmp_path / "designs.json"
    code = main(
        ["design", "--config", nv_config, "--count", "4", "--seed", "2",
         "--grid", "0.002:0.08:0.002", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["candidates"]) == 4
    conds = [c["condition_number"] for c in doc["candidates"]]
    assert conds == sorted(conds)
    assert "best of 4" in capsys.readouterr().out


def test_reproduce_nv_default_fails_honestly(capsys):
    # the bundled scenario does not reproduce its published reference at
    # the published interaction times under either unit convention
    code = main(["reproduce-nv"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "published reference" in out


def test_reproduce_nv_passes_deep_in_weak_regime(capsys):
    code = main(["reproduce-nv", "--dt-scale", "0.001"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_reproduce_nv_noise_degrades(capsys):
    code = main(["reproduce-nv", "--dt-scale", "0.001", "--noise", "0.05"])
    assert code == 1


def test_entry_point_runs_as_subprocess(nv_config, tmp_path):
    out = tmp_path / "rec.json"
    proc = subprocess.run(
        [sys.executable, "-m", "weakspin.cli", "simulate",
         "--config", nv_config, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_bad_subcommand_exits_with_parse_code():
    assert main(["frobnicate"]) == 2
