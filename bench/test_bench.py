"""Smoke tests of the benchmark itself.

    python3 -m pytest bench

They run a few ops of each workload on a fixed seed, check that every
declared metric is reported with its unit, that corrupted outputs are
caught, and that the tracer's call counts match this engine's structure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from hostref import NOMINAL_S, reference
from spans import Tracer

SEED = 7


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _op(cli, name, index, directory):
    workload = workloads.WORKLOADS[name]
    op = workload.make_op(SEED, index, directory)
    return workload, op, workloads.run_op(cli.main, op)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_ops_pass_their_checks(cli, name, tmp_path):
    for index in (0, 1, 7):  # op 7 of estimate_roundtrip is reproduce-nv
        workload, op, outcome = _op(cli, name, index, tmp_path)
        workload.check(op, outcome)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_reported(name, trace):
    result, details = run.run(name, SEED, 0.2, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = run.declared_metrics(trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert details["adj_latency"]["samples"] >= 1
        assert len(details["wall"]["setup_launches_s"]) == run.SETUP_REPEATS
    elif name in run.STRUCTURE:
        assert details["structure"]["all_ops_match"]
    assert {"cpu", "nproc", "python", "numpy", "blas", "source_sha256"} <= set(details["environment"])


def _perturb_curve(path: Path, rows) -> None:
    lines = path.read_text().splitlines()
    for row in rows:
        t, v, flag = lines[row].split(",")
        lines[row] = f"{t},{float(v) * (1.0 + 1e-6):.12g},{flag}"
    path.write_text("\n".join(lines) + "\n")


def _perturb_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_perturbed_curve_value_is_caught(cli, tmp_path):
    workload, op, outcome = _op(cli, "curve_scan", 0, tmp_path)
    _perturb_curve(op.outputs[0], [op.data["spots"][0] + 1])  # +1 skips the header
    with pytest.raises(workloads.CheckFailed):
        workload.check(op, outcome)


def test_perturbed_tensor_component_is_caught(cli, tmp_path):
    workload, op, outcome = _op(cli, "estimate_roundtrip", 0, tmp_path)

    def edit(doc):
        doc["coupling_mhz"]["xy"] += 1e-3

    _perturb_json(op.outputs[1], edit)
    with pytest.raises(workloads.CheckFailed):
        workload.check(op, outcome)


def test_perturbed_design_score_is_caught(cli, tmp_path):
    workload, op, outcome = _op(cli, "design_search", 0, tmp_path)

    def edit(doc):
        doc["candidates"][0]["condition_number"] *= 1.0 - 1e-6

    _perturb_json(op.outputs[0], edit)
    with pytest.raises(workloads.CheckFailed):
        workload.check(op, outcome)


def test_corrupted_output_counts_as_failed_op(cli, tmp_path):
    def corrupting_main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        _perturb_curve(out, range(1, len(out.read_text().splitlines())))
        return code

    runner = run.Runner(corrupting_main, tmp_path)
    samples = runner.closed_loop("curve_scan", SEED, 0.0)
    assert samples.ok.tolist() == [0]
    assert runner.attempted == 2 and len(runner.failures) == 2  # warm-up and op 0


def test_tracer_matches_engine_structure(cli, tmp_path):
    import weakspin.design

    original = weakspin.design.run_protocol_series
    tracer = Tracer()
    for index, (name, (fn, expected)) in enumerate(run.STRUCTURE.items()):
        workload = workloads.WORKLOADS[name]
        op = workload.make_op(SEED, index, tmp_path)
        tracer.begin_op(index)
        assert weakspin.design.run_protocol_series is not original
        outcome = workloads.run_op(cli.main, op)
        tracer.end_op()
        assert weakspin.design.run_protocol_series is original
        workload.check(op, outcome)
        assert tracer.calls_per_op(fn)[-1] == expected
    summary = tracer.summary()
    assert sum(summary["self_seconds"].values()) == pytest.approx(summary["op_seconds"], rel=1e-9)


def test_golden_digest_repeats(cli, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = run.Runner(cli.main, tmp_path / "a").golden("estimate_roundtrip")
    second = run.Runner(cli.main, tmp_path / "b").golden("estimate_roundtrip")
    assert first[1] == second[1] and first[0] == second[0]


def test_fails_without_the_program(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "curve_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_timings_are_adjusted_by_their_reference():
    samples = run.Samples()
    samples.add(0.3, 2.0 * NOMINAL_S, True, False)  # a host at half the nominal speed
    samples.add(0.1, NOMINAL_S, True, False)
    samples.add_launch(0.08, 4.0 * NOMINAL_S)
    assert samples.adjusted() == pytest.approx([0.15, 0.1])
    assert samples.adjusted_launches() == pytest.approx([0.02])
    assert reference() > 0.0
