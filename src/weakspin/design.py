"""Experiment design: correction curves, dent search, candidate scoring.

The linear response model is only approximate; its deviation from the
exact dynamics,

    Delta(dt) = | E_exact(dt) - E_first_order(dt) |,

grows quadratically at small dt and then oscillates.  Informative
interaction times are those where Delta is small: either inside the
contiguous "weak horizon" near dt = 0, or at local minima (dents) that
appear once the dynamics starts oscillating.  This module computes the
curves, locates dents automatically, and scores randomly sampled
parameter sets by the conditioning of their predicted design matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError
from .estimator import build_rows
from .protocol import (
    EPS_ORTH,
    CouplingTensor,
    LocalHamiltonians,
    Runs,
    _first_order,
    run_protocol,
    run_protocol_series,
)

T_MAX_DEFAULT = 0.5
DENT_THRESHOLD_DEFAULT = 1e-3
DT_MIN_DEFAULT = 0.02
GRID_DEFAULT = (1e-3, 0.2, 1e-3)  # start, stop, step in us

# A curve over this many points peaks near 70 MB; larger grids are refused.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True, eq=False)
class CorrectionCurve:
    """Delta(dt) over a time grid for fixed (r_i, p, q_tilde).

    Points where the post-selection came too close to orthogonal are
    flagged invalid (value NaN) rather than failing the whole curve.
    """

    times: np.ndarray
    values: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True, eq=False)
class DesignCandidate:
    """A set of protocol runs, one per row, with its design-quality score.

    max_correction is the largest model error Delta at the chosen
    interaction times; condition_number refers to the predicted design
    matrix.  Candidates sort by conditioning.
    """

    runs: Runs
    max_correction: float
    condition_number: float


def grid_times(grid: tuple[float, float, float] = GRID_DEFAULT) -> np.ndarray:
    """Times start + step*k from start up to stop, for a (start, stop, step) grid."""
    start, stop, step = grid
    n = np.floor((stop - start) / step + 1e-9) + 1
    if not n <= MAX_GRID_POINTS:
        raise ParameterError(f"grid has {n:.3g} points, above the cap of {MAX_GRID_POINTS}")
    return start + step * np.arange(int(n))


def _check_grid(times: np.ndarray, t_max: float) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ParameterError("time grid must be 1-d with at least two points")
    if not np.all(np.diff(times) > 0.0):
        raise ParameterError("time grid must be strictly increasing")
    if not (times[0] > 0.0 and times[-1] <= t_max):
        raise ParameterError(f"time grid must lie in (0, {t_max}]")
    return times


def _model_errors(r_i, p, q_tilde, g, locals_, times):
    """Delta[N,T] of N stacked runs from one engine call and one model pass.

    Returns Delta (NaN where the post-selection came too close to
    orthogonal), the mask of valid points, and the corrected r_f[N,T,3]
    and q[N,T,3] it was computed from, so a design reads its rows off them.
    """
    r_f, q, exact = run_protocol_series(r_i, p, q_tilde, g, locals_, times)
    # without a probe field the axis is q_tilde at every time
    axis = q[:, :1] if locals_ is None or not np.any(locals_.h_probe) else q
    model, denom = _first_order(r_i, r_f, p, axis, times, g)
    valid = denom >= EPS_ORTH
    delta = np.abs(np.subtract(exact, model, out=model), out=model)
    delta[~valid] = np.nan
    return delta, valid, r_f, q


def correction_curve(
    r_i,
    p,
    q_tilde,
    g: CouplingTensor,
    locals_: LocalHamiltonians | None = None,
    times: np.ndarray | None = None,
    *,
    t_max: float = T_MAX_DEFAULT,
) -> CorrectionCurve:
    """Pointwise |exact - first-order| expectation over a time grid.

    The model is evaluated with the exact corrected (r_f, q) at each
    grid time, i.e. exactly the quantities an experiment would feed the
    estimator.
    """
    times = _check_grid(grid_times() if times is None else times, t_max)
    stack = (np.asarray(v, dtype=float)[None] for v in (r_i, p, q_tilde))
    values, valid, _, _ = _model_errors(*stack, g, locals_, times)
    return CorrectionCurve(times=times, values=values[0], valid=valid[0])


def _dent_mask(times, values, valid, threshold, dt_min):
    """Points of (..., T) curves that are dents: see find_dents."""
    v, ok = values[..., 1:-1], valid[..., :-2] & valid[..., 1:-1] & valid[..., 2:]
    with np.errstate(invalid="ignore"):  # NaN at invalid points compares False
        inner = ok & (times[1:-1] >= dt_min) & (v < threshold)
        inner &= (v < values[..., :-2]) & (v < values[..., 2:])
    mask = np.zeros(values.shape, dtype=bool)
    mask[..., 1:-1] = inner
    return mask


def find_dents(
    curve: CorrectionCurve,
    threshold: float = DENT_THRESHOLD_DEFAULT,
    *,
    dt_min: float = DT_MIN_DEFAULT,
) -> list[float]:
    """Times of local minima of Delta below threshold, best first.

    Local minima are grid points strictly below both neighbors; the
    region below dt_min is excluded so selected times carry measurable
    signal.  Ties in Delta go to the earlier time.  Returns an empty
    list when nothing qualifies.
    """
    hits = np.flatnonzero(_dent_mask(curve.times, curve.values, curve.valid, threshold, dt_min))
    order = np.lexsort((curve.times[hits], curve.values[hits]))
    return curve.times[hits[order]].tolist()


def _horizon_index(values, valid, threshold):
    """Per (..., T) curve, the last index of its sub-threshold prefix; -1 if there is none."""
    below = (values <= threshold) & valid
    return np.where(below.all(axis=-1), below.shape[-1], np.argmin(below, axis=-1)) - 1


def weak_horizon(curve: CorrectionCurve, threshold: float) -> float | None:
    """Largest time of the contiguous sub-threshold prefix of the curve.

    The prefix starts at the first grid point; within it the model error
    has stayed below threshold for every earlier time, so halving a time
    keeps the design in the quadratic regime.  Returns None when even
    the first grid point is above threshold.
    """
    idx = _horizon_index(curve.values, curve.valid, threshold)
    return None if idx < 0 else float(curve.times[idx])


def _time_indices(times, values, valid, threshold, dt_min):
    """Grid index that assign_time's rule picks on each row of (N, T) curves."""
    horizon = _horizon_index(values, valid, threshold)
    dents = _dent_mask(times, values, valid, threshold, dt_min)
    best_dent = np.argmin(np.where(dents, values, np.inf), axis=-1)
    late = (times >= dt_min) & valid
    pool = np.where(late.any(axis=-1, keepdims=True), late, valid)
    least = np.argmin(np.where(pool, values, np.inf), axis=-1)
    return np.where(horizon >= 0, horizon, np.where(dents.any(axis=-1), best_dent, least))


def _delta_at(curve: CorrectionCurve, time: float) -> float:
    return float(curve.values[np.argmin(np.abs(curve.times - time))])


def assign_time(
    curve: CorrectionCurve,
    threshold: float = DENT_THRESHOLD_DEFAULT,
    *,
    dt_min: float = DT_MIN_DEFAULT,
) -> tuple[float, float]:
    """Choose an interaction time for one run from its correction curve.

    Preference order: the weak-horizon time (largest contiguous
    sub-threshold time, maximal signal while the model stays valid),
    then the best dent, then the global minimum of Delta beyond dt_min.
    Returns (time, Delta at that time).
    """
    idx = _time_indices(curve.times, curve.values[None], curve.valid[None], threshold, dt_min)[0]
    return float(curve.times[idx]), float(curve.values[idx])


def sample_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit vectors uniform on the sphere."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def predicted_design_matrix(
    runs: Runs, g_prior: CouplingTensor, locals_: LocalHamiltonians | None = None
) -> np.ndarray:
    """Design matrix a candidate would produce under the prior tensor.

    The final target vectors and axes come from one engine call that
    simulates every run at its own dt.
    """
    r_f, q, _ = run_protocol(runs, g_prior, locals_)
    return build_rows(runs.r_i, r_f, runs.p, q)


def sample_designs(
    seed: int,
    g_prior: CouplingTensor,
    n: int,
    *,
    n_runs: int = 6,
    times: np.ndarray | None = None,
    threshold: float = DENT_THRESHOLD_DEFAULT,
    dt_min: float = DT_MIN_DEFAULT,
    locals_: LocalHamiltonians | None = None,
) -> list[DesignCandidate]:
    """Sample n candidate parameter sets and score them, best first.

    Each candidate holds n_runs (r_i, p, q_tilde) triples drawn uniform
    on the sphere, with interaction times assigned per run from the
    correction curve under the prior tensor (see assign_time).  The
    curves of all candidates' runs come from one stacked engine call,
    and each predicted design matrix is read off them at the assigned
    times, row for row what predicted_design_matrix gives.  The returned
    list is sorted by condition number of that matrix, so rank-deficient
    candidates (condition number infinite) sort last.  Deterministic for
    a fixed seed.
    """
    if n < 1:
        raise ParameterError(f"need at least one candidate, got {n}")
    rng = np.random.default_rng(seed)
    grid = _check_grid(grid_times() if times is None else times, T_MAX_DEFAULT)
    draws = np.concatenate([sample_unit_vectors(rng, 3 * n_runs) for _ in range(n)])
    r_i, p, q = draws[0::3], draws[1::3], draws[2::3]
    values, valid, r_f_grid, q_grid = _model_errors(r_i, p, q, g_prior, locals_, grid)
    at = (np.arange(len(r_i)), _time_indices(grid, values, valid, threshold, dt_min))
    deltas = values[at].reshape(n, n_runs)
    a = build_rows(r_i, r_f_grid[at], p, q_grid[at]).reshape(n, n_runs, 6)
    conditions = np.linalg.cond(a)
    dts = grid[at[1]].reshape(n, n_runs)
    r_i, p, q = (v.reshape(n, n_runs, 3) for v in (r_i, p, q))
    out = [
        DesignCandidate(
            runs=Runs(r_i=r_i[c], p=p[c], q_tilde=q[c], dt=dts[c]),
            max_correction=float(np.max(deltas[c], initial=0.0)),
            condition_number=float(conditions[c]),
        )
        for c in range(n)
    ]
    out.sort(key=lambda c: (not np.isfinite(c.condition_number), c.condition_number))
    return out
