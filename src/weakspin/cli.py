"""Command-line front end.

Subcommands: simulate, estimate, curve, design, reproduce-nv.  Exit
codes are a stable contract: 0 success, 1 reproduction check failed,
2 parse error, 3 invalid data, 4 ill-conditioned design.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import design as design_mod
from . import fileio, nv
from .core import (
    DimensionMismatchError,
    InvalidStateError,
    NonHermitianError,
    ParameterError,
)
from .estimator import (
    IllConditionedDesignError,
    InsufficientDataError,
    build_system,
    error_stats,
    simulate_records,
    solve,
)
from .protocol import OMEGA_LABELS

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INVALID_DATA = 3
EXIT_ILL_CONDITIONED = 4

TWO_PI = 2.0 * math.pi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakspin",
        description="Two-qubit weak-measurement simulator and coupling-tensor estimator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--two-pi", action="store_true", help="treat MHz values as 2*pi rad/us")
    add_command = functools.partial(sub.add_parser, parents=[common])

    sim = add_command("simulate", help="forward-simulate configured runs into records")
    sim.add_argument("--config", required=True, help="scenario config (JSON)")
    sim.add_argument("--out", default="-", help="output record file, '-' for stdout")
    sim.add_argument("--seed", type=int, default=None, help="override config seed")
    sim.add_argument("--noise", type=float, default=None, help="override config noise spread")
    sim.add_argument("--dt-scale", type=float, default=1.0, help="multiply every dt")

    est = add_command("estimate", help="invert a record file into a coupling tensor")
    est.add_argument("--records", required=True, help="record file from simulate")
    est.add_argument("--config", default=None, help="config supplying the true tensor")
    est.add_argument("--out", default="-", help="output report file, '-' for stdout")
    est.add_argument("--kappa-max", type=float, default=None, help="condition-number cap")

    cur = add_command("curve", help="emit the model-error curve of one run as CSV")
    cur.add_argument("--config", required=True)
    cur.add_argument("--run-index", type=int, required=True, help="0-based run index")
    cur.add_argument("--grid", default=None, help="MIN:MAX:STEP in us")
    cur.add_argument("--threshold", type=float, default=None, help="dent threshold")
    cur.add_argument("--out", default="-", help="output CSV, '-' for stdout")

    des = add_command("design", help="sample and score candidate parameter sets")
    des.add_argument("--config", required=True, help="config supplying the prior tensor")
    des.add_argument("--count", type=int, default=50, help="number of candidates")
    des.add_argument("--seed", type=int, default=None)
    des.add_argument("--threshold", type=float, default=None)
    des.add_argument("--grid", default=None, help="MIN:MAX:STEP in us")
    des.add_argument("--out", default="-")

    rep = add_command("reproduce-nv", help="run the bundled NV validation scenario")
    rep.add_argument("--noise", type=float, default=0.0)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--dt-scale", type=float, default=1.0)
    return parser


def _options(args, options: fileio.ScenarioOptions) -> fileio.ScenarioOptions:
    """Config options with every flag given on the command line taking precedence."""
    flags = {"threshold": "dent_threshold"}  # flags named otherwise than their option
    overrides = {
        flags.get(flag, flag): value
        for flag in ("seed", "noise", "threshold", "grid", "kappa_max")
        if (value := getattr(args, flag, None)) is not None
    }
    if "grid" in overrides:
        overrides["grid"] = fileio.parse_grid_spec(overrides["grid"])
    return dataclasses.replace(options, **overrides)


def _angular_scale(args) -> float:
    return TWO_PI if args.two_pi else 1.0


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_simulate(args) -> int:
    config, config_sha256 = fileio.load_config_file(args.config)
    options = _options(args, config.options)
    if not args.dt_scale > 0.0:
        raise ParameterError(f"dt scale must be positive, got {args.dt_scale}")
    scale = _angular_scale(args)
    g_sim = config.coupling.scaled(scale)
    runs = config.runs
    if args.dt_scale != 1.0:
        runs = dataclasses.replace(runs, dt=runs.dt * args.dt_scale)
    rng = np.random.default_rng(options.seed)
    records = simulate_records(runs, g_sim, config.locals_, options.noise, rng)
    meta = {
        "config_sha256": config_sha256,
        "seed": options.seed,
        "noise": options.noise,
        "dt_scale": args.dt_scale,
        "angular_scale": scale,
        "tool_version": fileio.TOOL_VERSION,
    }
    _write_text(args.out, fileio.dump_json(fileio.records_to_doc(records, meta)))
    return EXIT_OK


def cmd_estimate(args) -> int:
    records, records_meta, records_sha256 = fileio.load_records_file(args.records)
    scale = _angular_scale(args)
    g_true = config_sha256 = None
    options = fileio.ScenarioOptions()
    if args.config is not None:
        config, config_sha256 = fileio.load_config_file(args.config)
        g_true, options = config.coupling, config.options
    a, zeta = build_system(records)
    raw = solve(a, zeta, kappa_max=_options(args, options).kappa_max)
    g_est = raw.g_est.scaled(1.0 / scale)
    per_record = (a @ raw.g_est.values - zeta).tolist()
    stats = error_stats(g_true, g_est) if g_true is not None else None
    provenance = {
        "records_sha256": records_sha256,
        "angular_scale": scale,
        "tool_version": fileio.TOOL_VERSION,
    }
    if records_meta:
        provenance["records_meta"] = records_meta
    if config_sha256 is not None:
        provenance["config_sha256"] = config_sha256
    report = fileio.report_doc(
        dataclasses.replace(raw, g_est=g_est),
        per_record_residuals=per_record,
        provenance=provenance,
        error_stats=stats,
    )
    _write_text(args.out, fileio.dump_json(report))
    summary = "estimated coupling (MHz): " + ", ".join(
        f"{k}={v:+.4f}" for k, v in zip(OMEGA_LABELS, g_est.values)
    )
    if stats is not None:
        summary += f"; error {stats[0]:+.4f} +/- {stats[1]:.4f} MHz"
    print(summary)
    return EXIT_OK


def cmd_curve(args) -> int:
    config = fileio.load_config(args.config)
    if not 0 <= args.run_index < len(config.runs):
        raise InvalidStateError(
            f"run index {args.run_index} out of range 0..{len(config.runs) - 1}"
        )
    options = _options(args, config.options)
    scale = _angular_scale(args)
    runs, k = config.runs, args.run_index
    curve = design_mod.correction_curve(
        runs.r_i[k], runs.p[k], runs.q_tilde[k], config.coupling.scaled(scale),
        config.locals_, design_mod.grid_times(options.grid),
    )
    dents = set(design_mod.find_dents(curve, options.dent_threshold))
    flags = [t in dents for t in curve.times]
    lines = fileio.curve_csv_lines(curve.times, curve.values, flags)
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_design(args) -> int:
    config = fileio.load_config(args.config)
    options = _options(args, config.options)
    candidates = design_mod.sample_designs(
        options.seed,
        config.coupling.scaled(_angular_scale(args)),
        args.count,
        times=design_mod.grid_times(options.grid),
        threshold=options.dent_threshold,
        locals_=config.locals_,
    )
    doc = {
        "candidates": [
            {
                "condition_number": c.condition_number,
                "max_correction": c.max_correction,
                "runs": fileio.runs_to_doc(c.runs),
            }
            for c in candidates
        ],
        "seed": options.seed,
        "count": args.count,
    }
    _write_text(args.out, fileio.dump_json(doc))
    best = candidates[0]
    print(
        f"best of {args.count}: condition number {best.condition_number:.3f},"
        f" max model error {best.max_correction:.3e}"
    )
    return EXIT_OK


def cmd_reproduce_nv(args) -> int:
    if not args.dt_scale > 0.0:
        raise ParameterError(f"dt scale must be positive, got {args.dt_scale}")
    options = fileio.ScenarioOptions(seed=args.seed, noise=args.noise)
    outcome = nv.reproduce(
        dt_scale=args.dt_scale,
        noise=options.noise,
        seed=options.seed,
        angular_scale=_angular_scale(args),
    )
    np.set_printoptions(precision=4, suppress=True)
    print("true coupling (MHz):")
    print(outcome.g_true.matrix)
    print("estimated coupling (MHz):")
    print(outcome.g_est.matrix)
    print("published reference estimate (MHz):")
    print(outcome.reference)
    print(
        f"error: {outcome.error_mean:+.4f} +/- {outcome.error_std:.4f} MHz"
        f"  (reference {nv.NV_REFERENCE_ERROR_MHZ[0]:+.3f} +/-"
        f" {nv.NV_REFERENCE_ERROR_MHZ[1]:.3f});"
        f" max component error {outcome.max_component_error:.4f} MHz;"
        f" condition number {outcome.condition_number:.2f}"
    )
    if outcome.passed:
        print("PASS")
        return EXIT_OK
    print("FAIL component-wise differences (MHz):")
    diff = outcome.g_est.matrix - outcome.g_true.matrix
    for label, value in zip(OMEGA_LABELS, outcome.g_est.values - outcome.g_true.values):
        print(f"  {label}: {value:+.4f}")
    print(diff)
    return EXIT_CHECK_FAILED


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the parse-error code
        return int(exc.code) if exc.code else EXIT_OK
    handlers = {
        "simulate": cmd_simulate,
        "estimate": cmd_estimate,
        "curve": cmd_curve,
        "design": cmd_design,
        "reproduce-nv": cmd_reproduce_nv,
    }
    try:
        return handlers[args.command](args)
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_PARSE_ERROR
    except fileio.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except IllConditionedDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED
    except (
        InvalidStateError,
        InsufficientDataError,
        DimensionMismatchError,
        NonHermitianError,
        ParameterError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATA


if __name__ == "__main__":
    raise SystemExit(main())
