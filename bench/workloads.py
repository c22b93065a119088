"""The benchmark's workloads: seeded inputs, CLI calls and output checks.

Each workload is a closed loop of one client.  An op is one or more
`weakspin.cli.main(argv)` calls on inputs the workload generates from
(seed, op index) alone, so an op is reproducible whatever ran before it.
Every file an op reads or writes gets a fresh name in the run's temp
directory: re-opening a just-written file with "w" can stall for tens of
milliseconds on ext4 (delayed allocation is flushed on truncate), which
would time the disk instead of the program.

Checks use `oracle`, never the code path being timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own expectation."""


@dataclass
class Op:
    argvs: list[list[str]]
    outputs: list[Path]
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    codes: list
    stdout: list[str]
    stderr: list[str]
    seconds: float


def run_op(main, op: Op) -> Outcome:
    """Call the CLI for each argv of the op, timing all calls together.

    An exception escaping the CLI ends the op; its traceback is kept as
    the stderr of the failed call and its exit code is None.
    """
    codes, outs, errs = [], [], []
    start = time.perf_counter()
    for argv in op.argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(main(argv))
        except Exception:
            codes.append(None)
            err.write(traceback.format_exc())
        outs.append(out.getvalue())
        errs.append(err.getvalue())
        if codes[-1] != 0:
            break
    return Outcome(codes, outs, errs, time.perf_counter() - start)


def output_bytes(op: Op, outcome: Outcome) -> bytes:
    """Everything the op produced: each call's stdout, then each output file."""
    parts = [s.encode() for s in outcome.stdout]
    parts += [p.read_bytes() for p in op.outputs if p.exists()]
    return b"\0".join(parts)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _require_exit_zero(outcome: Outcome) -> None:
    for code, err in zip(outcome.codes, outcome.stderr):
        _require(code == 0, f"exit code {code}: {err.strip()[-500:]}")


def _unit(rng) -> list[float]:
    v = rng.normal(size=3)
    return (v / np.linalg.norm(v)).tolist()


def _coupling(rng) -> dict:
    """A random symmetric tensor with |g_ij| <= 10, the range of acceptance criterion 5."""
    m = rng.uniform(-10.0, 10.0, size=(3, 3))
    m = (m + m.T) / 2.0
    return {label: float(m[a, b]) for label, (a, b) in zip(oracle.LABELS, oracle.PAIRS)}


def _write_json(path: Path, doc) -> None:
    with open(path, "x", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _is_unit(v) -> bool:
    return len(v) == 3 and abs(math.fsum(x * x for x in v) - 1.0) <= 1e-12


class Workload:
    name = ""
    tag = 0  # mixed into each op's seed so workloads draw different inputs

    def rng(self, seed: int, index: int) -> np.random.Generator:
        return np.random.default_rng([seed, self.tag, index + 1])

    def make_op(self, seed: int, index: int, directory: Path) -> Op:
        raise NotImplementedError

    def check(self, op: Op, outcome: Outcome) -> dict:
        """Raise CheckFailed on a wrong output; return quality figures."""
        raise NotImplementedError


class DesignSearch(Workload):
    """`design --count 20` on a fresh prior tensor, default 200-point grid."""

    name = "design_search"
    tag = 1
    count = 20
    grid = (1e-3, 0.2, 1e-3)  # the CLI default, MIN:MAX:STEP in us

    def make_op(self, seed, index, directory):
        rng = self.rng(seed, index)
        coupling = _coupling(rng)
        placeholder = {"r_i": _unit(rng), "p": _unit(rng), "q": _unit(rng), "dt": 0.05}
        design_seed = int(rng.integers(1 << 31))
        config, out = directory / f"{index}-config.json", directory / f"{index}-design.json"
        _write_json(config, {"coupling_mhz": coupling, "runs": [placeholder]})
        argv = ["design", "--config", str(config), "--count", str(self.count),
                "--seed", str(design_seed), "--out", str(out)]
        return Op([argv], [out], {"coupling": coupling, "seed": design_seed})

    def check(self, op, outcome):
        _require_exit_zero(outcome)
        doc = json.loads(op.outputs[0].read_text())
        _require(doc.get("count") == self.count and doc.get("seed") == op.data["seed"],
                 "design echoes the wrong count or seed")
        cands = doc["candidates"]
        _require(len(cands) == self.count, f"{len(cands)} candidates, expected {self.count}")
        keys = [(not math.isfinite(c["condition_number"]), c["condition_number"]) for c in cands]
        _require(keys == sorted(keys), "candidates are not sorted by condition number")
        start, stop, step = self.grid
        for c in cands:
            _require(len(c["runs"]) == 6, "candidate does not hold 6 runs")
            for run in c["runs"]:
                _require(all(_is_unit(run[k]) for k in ("r_i", "p", "q")),
                         "run vector is not a unit vector")
                k = round((run["dt"] - start) / step)
                _require(0 <= k and start + k * step <= stop + 1e-12
                         and abs(run["dt"] - (start + k * step)) <= 1e-12,
                         f"dt {run['dt']} is not on the grid")
        best = cands[0]
        g = oracle.tensor_matrix(op.data["coupling"])
        zero = (0.0, 0.0, 0.0)
        rows, deltas = [], []
        for run in best["runs"]:
            r_f, q, _ = oracle.exact_run(g, zero, zero, run["r_i"], run["p"], run["q"], run["dt"])
            rows.append(oracle.design_row(run["r_i"], r_f, run["p"], q))
            deltas.append(oracle.model_error(g, zero, zero, run["r_i"], run["p"], run["q"], run["dt"]))
        kappa = float(np.linalg.cond(np.array(rows)))
        _require(math.isclose(kappa, best["condition_number"], rel_tol=1e-7),
                 f"best condition number {best['condition_number']} != re-scored {kappa}")
        _require(math.isclose(max(deltas), best["max_correction"], rel_tol=1e-7, abs_tol=1e-11),
                 f"best max model error {best['max_correction']} != re-scored {max(deltas)}")
        _require(f"condition number {kappa:.3f}" in outcome.stdout[0],
                 "summary line does not report the best condition number")
        return {"kappa": best["condition_number"]}


class CurveScan(Workload):
    """`curve` over 5,000 grid points for a run with non-zero local fields."""

    name = "curve_scan"
    tag = 2
    grid = (1e-4, 0.5, 1e-4)
    threshold = 1e-3  # the config default dent threshold
    dt_min = 0.02  # dents below this time are not reported
    spot_checks = 8

    @property
    def points(self) -> int:
        start, stop, step = self.grid
        return int(round((stop - start) / step)) + 1

    def make_op(self, seed, index, directory):
        rng = self.rng(seed, index)
        coupling = _coupling(rng)
        fields = {"target": rng.uniform(-3.0, 3.0, 3).tolist(),
                  "probe": rng.uniform(-3.0, 3.0, 3).tolist()}
        runs = [{"r_i": _unit(rng), "p": _unit(rng), "q": _unit(rng), "dt": 0.05}
                for _ in range(int(rng.integers(1, 5)))]
        run_index = int(rng.integers(len(runs)))
        spots = rng.choice(self.points, size=self.spot_checks, replace=False).tolist()
        config, out = directory / f"{index}-config.json", directory / f"{index}-curve.csv"
        _write_json(config, {"coupling_mhz": coupling, "local_fields": fields, "runs": runs})
        argv = ["curve", "--config", str(config), "--run-index", str(run_index),
                "--grid", ":".join(f"{x:g}" for x in self.grid), "--out", str(out)]
        return Op([argv], [out], {"coupling": coupling, "fields": fields,
                                  "run": runs[run_index], "spots": spots})

    def check(self, op, outcome):
        _require_exit_zero(outcome)
        text = op.outputs[0].read_text()
        _require(text.startswith("dt_us,delta,dent\n"), "CSV header is wrong")
        table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        _require(table.shape == (self.points, 3), f"CSV has shape {table.shape}")
        start, _, step = self.grid
        expected_t = start + step * np.arange(self.points)
        t, v, flag = table[:, 0], table[:, 1], table[:, 2]
        _require(np.allclose(t, expected_t, rtol=0, atol=1e-12), "CSV times are off the grid")
        _require(np.all((flag == 0) | (flag == 1)), "dent flags are not 0/1")
        self._check_dents(t, v, flag)
        g = oracle.tensor_matrix(op.data["coupling"])
        run, fields = op.data["run"], op.data["fields"]
        spots = list(op.data["spots"])
        if np.any(np.isfinite(v)):
            spots.append(int(np.nanargmin(v)))
        for k in spots:
            want = oracle.model_error(g, fields["target"], fields["probe"],
                                      run["r_i"], run["p"], run["q"], expected_t[k])
            got = v[k]
            _require((math.isnan(want) and math.isnan(got))
                     or abs(got - want) <= 1e-8 * abs(want) + 1e-11,
                     f"delta at t={expected_t[k]:.4g} is {got}, oracle gives {want}")
        return {}

    def _check_dents(self, t, v, flag):
        """A flag marks a local minimum below threshold past dt_min.

        Points whose comparison is within the CSV's 12-digit rounding are
        not judged.
        """
        mid = slice(1, -1)
        tol = 1e-11 * np.abs(v[mid])
        with np.errstate(invalid="ignore"):
            want = ((t[mid] >= self.dt_min) & (v[mid] < self.threshold)
                    & (v[mid] < v[:-2]) & (v[mid] < v[2:]))
            clear = ((np.abs(t[mid] - self.dt_min) > 1e-9)
                     & (np.abs(v[mid] - self.threshold) > tol)
                     & (np.abs(v[mid] - v[:-2]) > tol) & (np.abs(v[mid] - v[2:]) > tol))
        bad = clear & (want != (flag[mid] == 1))
        _require(not np.any(bad), f"{int(bad.sum())} dent flags disagree with the curve")
        _require(flag[0] == 0 and flag[-1] == 0, "an end point is flagged as a dent")


class EstimateRoundtrip(Workload):
    """`simulate` then `estimate` on a fresh config; every 8th op `reproduce-nv`."""

    name = "estimate_roundtrip"
    tag = 3
    noise = 2e-6
    nv_every = 8
    max_weak_kappa = 1e3  # redraw designs that the estimator would barely resolve

    def make_op(self, seed, index, directory):
        if index % self.nv_every == self.nv_every - 1:
            return Op([["reproduce-nv", "--dt-scale", "0.001"]], [], {"nv": True})
        rng = self.rng(seed, index)
        coupling = _coupling(rng)
        fields = {"target": rng.uniform(-1.0, 1.0, 3).tolist(),
                  "probe": rng.uniform(-1.0, 1.0, 3).tolist()}
        n_runs = int(rng.integers(6, 25))
        while True:
            runs = [{"r_i": _unit(rng), "p": _unit(rng), "q": _unit(rng),
                     "dt": float(rng.uniform(0.5e-4, 1.5e-4))} for _ in range(n_runs)]
            weak_rows = [oracle.design_row(r["r_i"], r["r_i"], r["p"], r["q"]) for r in runs]
            if np.linalg.cond(np.array(weak_rows)) <= self.max_weak_kappa:
                break
        spots = rng.choice(n_runs, size=2, replace=False).tolist()
        config = directory / f"{index}-config.json"
        records = directory / f"{index}-records.json"
        report = directory / f"{index}-report.json"
        _write_json(config, {"coupling_mhz": coupling, "local_fields": fields, "runs": runs,
                             "options": {"seed": int(rng.integers(1 << 31)),
                                         "noise": self.noise}})
        argvs = [["simulate", "--config", str(config), "--out", str(records)],
                 ["estimate", "--records", str(records), "--config", str(config),
                  "--out", str(report)]]
        return Op(argvs, [records, report],
                  {"coupling": coupling, "fields": fields, "runs": runs, "spots": spots})

    def check(self, op, outcome):
        _require_exit_zero(outcome)
        if op.data.get("nv"):
            _require(outcome.stdout[0].rstrip().endswith("\nPASS"), "reproduce-nv did not PASS")
            return {}
        records = json.loads(op.outputs[0].read_text())["records"]
        runs = op.data["runs"]
        _require(len(records) == len(runs), f"{len(records)} records for {len(runs)} runs")
        for rec, run in zip(records, runs):
            _require(rec["r_i"] == run["r_i"] and rec["p"] == run["p"] and rec["dt"] == run["dt"],
                     "record does not echo its run's controls")
        g = oracle.tensor_matrix(op.data["coupling"])
        fields = op.data["fields"]
        noise_tol = 8.0 * self.noise + 1e-12
        for k in op.data["spots"]:
            run, rec = runs[k], records[k]
            r_f, q, e = oracle.exact_run(g, fields["target"], fields["probe"],
                                         run["r_i"], run["p"], run["q"], run["dt"])
            _require(np.max(np.abs(np.subtract(rec["r_f"], r_f))) <= noise_tol
                     and abs(rec["expectation"] - e) <= noise_tol
                     and np.max(np.abs(np.subtract(rec["q"], q))) <= 1e-12,
                     f"record {k} disagrees with the oracle's simulation")
        report = json.loads(op.outputs[1].read_text())
        xi, kappa = oracle.solve_records(records)
        got = np.array([report["coupling_mhz"][label] for label in oracle.LABELS])
        _require(np.max(np.abs(got - xi)) <= 1e-7 * (1.0 + np.max(np.abs(xi))),
                 f"estimated tensor {got.tolist()} != least-squares {xi.tolist()}")
        _require(math.isclose(report["condition_number"], kappa, rel_tol=1e-6),
                 f"condition number {report['condition_number']} != {kappa}")
        truth = np.array([op.data["coupling"][label] for label in oracle.LABELS])
        _require(abs(report["error_mean_mhz"] - float(np.mean(got - truth))) <= 1e-9,
                 "reported mean error does not match the tensor")
        _require(outcome.stdout[1].startswith("estimated coupling (MHz):"),
                 "estimate printed no summary")
        return {"rel_error": float(np.max(np.abs(got - truth)) / np.max(np.abs(truth)))}


WORKLOADS = {w.name: w for w in (DesignSearch(), CurveScan(), EstimateRoundtrip())}
