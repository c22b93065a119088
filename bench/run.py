"""Benchmark of the weakspin CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client calls `weakspin.cli.main(argv)`
in this process in a closed loop for S seconds on inputs drawn from the
seed, checks every output (see workloads.py), and prints one JSON line
with the metrics BENCHMARK.json declares: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`.  A line of details
(environment, tail percentiles, output digest) precedes it.

Timings are adjusted for the host's speed (see hostref.py): each op's
wall time, and each set-up launch's, is scaled by a fixed reference
computation timed next to it.  The raw wall times are in the details.
Set-up time is the import of `weakspin.cli` in fresh interpreters,
launched through the timed loop with its clock stopped.
Design quality and accuracy come from a fixed golden set of ops (seed
GOLDEN_SEED, whatever --seed is), so they move only when the code does;
the same golden ops of the run's own workload give its output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

# numpy's OpenBLAS starts one thread per CPU at import.  The CLI's 4x4
# matrices are too small for OpenBLAS to split, so the second thread only
# adds to set-up, and on a 2-CPU host it moved the import time by 20-35%.
# One BLAS thread for the ops and for the set-up probes, which inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from hostref import NOMINAL_S, reference  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 15
CHECK_BATCH = 32
# ops run in blocks of at least this many seconds, each followed by one
# reference timing that adjusts them; the host's speed moved by 20% within
# two seconds, and a reference costs 1-2 ms
BLOCK_S = 0.1
# Tail latency is reported in the details line, not as a bounded metric:
# the adjustment follows the host over a block of ops, not within an op,
# and the adjusted p90's spread over ten 30-second runs of design_search
# was 12.5%, more than a third of the largest bound a metric may carry.
TAIL_LADDER = (90, 95, 99, 99.9)
GOLDEN_SEED = 0
GOLDEN_OPS = {"design_search": 8, "curve_scan": 4, "estimate_roundtrip": 16}
QUALITY = {"best_kappa_p50": ("design_search", "kappa"),
           "rel_error_p50": ("estimate_roundtrip", "rel_error")}
# exact per-op call counts of this commit's engine, printed beside the trace:
# two time series per run (its curve and its design-matrix row), six runs
# per candidate; two local-field propagators per curve point
STRUCTURE = {
    "design_search": ("protocol.run_protocol_series", 12 * workloads.WORKLOADS["design_search"].count),
    "curve_scan": ("core.herm_exp", 2 * workloads.WORKLOADS["curve_scan"].points),
}

SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import weakspin.cli\n"
    "print(time.perf_counter() - t, weakspin.cli.__file__)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def launch_setup_probe() -> tuple[float, float]:
    """Import time of weakspin.cli in a fresh interpreter, and the mean
    of the reference timings just before and after the launch."""
    before = reference()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"importing weakspin.cli failed:\n{done.stderr}")
    seconds, path = done.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"weakspin.cli was imported from {path.strip()}, not {SRC}")
    return float(seconds), (before + reference()) / 2.0


def import_cli():
    sys.path.insert(0, str(SRC))
    import weakspin.cli

    if not Path(weakspin.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"weakspin.cli was imported from {weakspin.cli.__file__}")
    return weakspin.cli


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "weakspin").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


class Samples:
    """Per-op figures of a closed loop.

    They are kept in flat arrays because peak RSS is a metric: a list of
    objects per op grew it in steps of a megabyte with the op count, that
    is, with the host's speed.  `reference` is the reference timing of
    each op's block; launches are set-up probes made during the loop,
    with the reference timing beside each.
    """

    def __init__(self):
        self.seconds = array("d")
        self.reference = array("d")
        self.ok = array("b")
        self.traced = array("b")
        self.launches = array("d")
        self.launch_reference = array("d")

    def __len__(self) -> int:
        return len(self.seconds)

    def add(self, seconds: float, reference_s: float, ok: bool, traced: bool) -> None:
        self.seconds.append(seconds)
        self.reference.append(reference_s)
        self.ok.append(ok)
        self.traced.append(traced)

    def add_launch(self, seconds: float, reference_s: float) -> None:
        self.launches.append(seconds)
        self.launch_reference.append(reference_s)

    def adjusted(self) -> list[float]:
        """Each op's wall time on a host that runs the reference in NOMINAL_S."""
        return [t * NOMINAL_S / r for t, r in zip(self.seconds, self.reference)]

    def adjusted_launches(self) -> list[float]:
        return [t * NOMINAL_S / r for t, r in zip(self.launches, self.launch_reference)]


class Runner:
    """Runs and checks ops of one workload, keeping a record of each."""

    def __init__(self, main, directory: Path):
        self.main = main
        self.directory = directory
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, workload, seed: int, index: int, directory: Path, tracer=None):
        """Run one op; return (op, outcome)."""
        op = workload.make_op(seed, index, directory)
        if tracer is not None:
            tracer.begin_op(index)
        try:
            outcome = workloads.run_op(self.main, op)
        finally:
            if tracer is not None:
                tracer.end_op()
        self.attempted += 1
        return op, outcome

    def check(self, workload, seed: int, index: int, op, outcome):
        """Check one op's outputs; return its quality figures, or None if it failed."""
        try:
            return workload.check(op, outcome)
        except (workloads.CheckFailed, OSError, ValueError, LookupError, TypeError) as exc:
            self.failures.append(f"{workload.name} seed {seed} op {index}: {exc!r}")
            return None

    def golden(self, name: str) -> tuple[list[dict], str]:
        """Run the golden ops of a workload: their quality figures and output digest."""
        workload = workloads.WORKLOADS[name]
        directory = self.directory / f"golden-{name}"
        directory.mkdir()
        digest = hashlib.sha256()
        qualities = []
        for index in range(GOLDEN_OPS[name]):
            op, outcome = self.execute(workload, GOLDEN_SEED, index, directory)
            digest.update(workloads.output_bytes(op, outcome))
            quality = self.check(workload, GOLDEN_SEED, index, op, outcome)
            if quality is not None:
                qualities.append(quality)
        return qualities, digest.hexdigest()

    def closed_loop(self, name: str, seed: int, seconds: float, tracer=None,
                    probe=None) -> Samples:
        """One warm-up op, then ops until `seconds` have passed.

        Ops are checked in batches of CHECK_BATCH with the loop's clock
        stopped, so that the checks' own work (CSV parsing, oracle
        propagators) runs between few timed ops, and the batch bounds the
        memory that ops waiting for their check hold.  With a tracer,
        every third op is traced, starting with op 1; three is coprime to
        estimate_roundtrip's one-in-eight op mix, so traced and untraced
        ops see the same mix.

        With a set-up `probe`, it is called SETUP_REPEATS times, spread
        evenly over the loop's time with the clock stopped, so that set-up
        time samples the host over the whole run as the ops do; a burst of
        launches sees the host of one second.

        Ops run in blocks of at least BLOCK_S seconds of op time; a block
        ends early when its ops are checked.  A reference timing follows
        each block, with the clock stopped, and is kept with its ops.
        """
        workload = workloads.WORKLOADS[name]
        directory = self.directory / "ops"
        directory.mkdir()
        self.check(workload, seed, -1, *self.execute(workload, seed, -1, directory))
        samples = Samples()
        pending = []  # [index, op, outcome, traced, reference seconds] awaiting their check
        block = []  # the pending entries that have no reference timing yet
        probes = SETUP_REPEATS if probe is not None else 0

        def end_block():
            reference_s = reference()
            for entry in block:
                entry[-1] = reference_s
            block.clear()

        def check_pending():
            if block:
                end_block()
            for index, op, outcome, traced, reference_s in pending:
                ok = self.check(workload, seed, index, op, outcome) is not None
                samples.add(outcome.seconds, reference_s, ok, traced)
            pending.clear()

        least = 1 if tracer is None else 2
        start = time.perf_counter()
        while len(samples) + len(pending) < least or time.perf_counter() - start < seconds:
            index = len(samples) + len(pending)
            traced = tracer if tracer is not None and index % 3 == 1 else None
            op, outcome = self.execute(workload, seed, index, directory, traced)
            paused = time.perf_counter()
            entry = [index, op, outcome, traced is not None, None]
            pending.append(entry)
            block.append(entry)
            if sum(e[2].seconds for e in block) >= BLOCK_S:
                end_block()
            probe_due = (len(samples.launches) < probes and paused - start
                         >= (len(samples.launches) + 0.5) * seconds / probes)
            if len(pending) == CHECK_BATCH or probe_due:
                check_pending()
                if probe_due:
                    samples.add_launch(*probe())
            start += time.perf_counter() - paused
        check_pending()
        while len(samples.launches) < probes:
            samples.add_launch(*probe())
        return samples


def latency_stats(latencies: list[float]) -> dict:
    """Median and nearest-rank tail percentiles with the samples beyond each;
    `tail` is the highest of them that keeps at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    percentiles = []
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        percentiles.append({"percentile": p, "ms": 1e3 * ordered[rank - 1], "beyond": n - rank})
    return {
        "samples": n,
        "p50_ms": 1e3 * statistics.median(ordered),
        "percentiles": percentiles,
        "tail": ([t for t in percentiles if t["beyond"] >= 10] or percentiles[:1])[-1],
    }


def end_to_end(runner: Runner, name: str, seed: int, seconds: float):
    # the first launch is not counted: it may write bytecode caches
    launch_setup_probe()
    samples = runner.closed_loop(name, seed, seconds, probe=launch_setup_probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = samples.adjusted()
    stats = latency_stats(latencies)
    golden = {w: runner.golden(w) for w in {name, *(w for w, _ in QUALITY.values())}}
    metrics = {
        "setup_s": statistics.median(samples.adjusted_launches()),
        "adj_ops_per_s": len(samples) / sum(latencies),
        "adj_latency_p50_ms": stats["p50_ms"],
        "ok_frac": sum(samples.ok) / len(samples),
        "peak_rss_mb": peak_rss_mb,
    }
    for metric, (workload, key) in QUALITY.items():
        values = [q[key] for q in golden[workload][0] if key in q]
        # with no golden op passing its check there is no figure: report the worst
        metrics[metric] = statistics.median(values) if values else sys.float_info.max
    details = {
        "adj_latency": stats,
        "golden_digest": golden[name][1],
        "wall": {"latency_p50_ms": 1e3 * statistics.median(samples.seconds),
                 "ops_per_s": len(samples) / sum(samples.seconds),
                 "setup_s": statistics.median(samples.launches),
                 "setup_launches_s": samples.launches.tolist()},
        "host": {"reference_nominal_ms": 1e3 * NOMINAL_S,
                 "reference_p50_ms": 1e3 * statistics.median(samples.reference),
                 "launch_reference_p50_ms": 1e3 * statistics.median(samples.launch_reference)},
    }
    return metrics, details


def per_layer(runner: Runner, name: str, seed: int, seconds: float, declared):
    tracer = Tracer()
    samples = runner.closed_loop(name, seed, seconds, tracer)
    adjusted = samples.adjusted()
    plain = [t for t, on in zip(adjusted, samples.traced) if not on]
    traced = [t for t, on in zip(adjusted, samples.traced) if on]
    summary = tracer.summary()
    ops = summary["ops"]
    calls, busy = summary["calls"], summary["self_seconds"]
    metrics = {}
    # the functions reported one by one are those BENCHMARK.json declares; all are traced
    for fn in (m.removesuffix(".calls") for m in declared if m.endswith(".calls")):
        metrics[f"{fn}.calls"] = calls[fn] / ops
        metrics[f"{fn}.self_ms"] = 1e3 * busy[fn] / ops
    metrics["protocol.run_protocol_series.time_points"] = (
        tracer.counts["protocol.run_protocol_series.time_points"] / ops)
    for layer in LAYERS:
        layer_s = sum(v for k, v in busy.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = 1e3 * layer_s / ops
        metrics[f"{layer}.share"] = layer_s / summary["op_seconds"]
    estimates = calls["cli.cmd_estimate"]
    metrics["fileio.record_file_reads"] = (
        tracer.counts["fileio.record_file_reads"] / estimates if estimates else 0.0)
    evaluated = tracer.counts["design.grid_points_evaluated"]
    metrics["design.grid_points_needed_ratio"] = (
        tracer.counts["design.grid_points_needed"] / evaluated if evaluated else 0.0)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    spans = WORK / f"trace-{name}.npz"
    tracer.save(spans)
    details = {"traced_ops": ops, "untraced_ops": len(plain), "spans": len(tracer.start),
               "spans_file": str(spans.relative_to(ROOT)), "golden_digest": runner.golden(name)[1]}
    if name in STRUCTURE:
        fn, expected = STRUCTURE[name]
        observed = tracer.calls_per_op(fn)
        details["structure"] = {"calls": fn, "expected_per_op": expected,
                                "all_ops_match": all(c == expected for c in observed)}
    return metrics, details


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (result line, details)."""
    if not (SRC / "weakspin" / "cli.py").is_file():
        raise BenchError(f"no weakspin sources under {SRC}")
    units = declared_metrics(trace)
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        runner = Runner(cli.main, directory)
        if trace:
            metrics, details = per_layer(runner, workload, seed, seconds, units)
        else:
            metrics, details = end_to_end(runner, workload, seed, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    details.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                   failures=runner.failures[:5], environment=environment())
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
