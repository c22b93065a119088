import dataclasses
import os

import numpy as np
import pytest

from weakspin import (
    CouplingTensor,
    LocalHamiltonians,
    Runs,
    correction_curve,
    find_dents,
    grid_times,
    run_protocol_series,
    sample_designs,
    weak_horizon,
)
from weakspin.core import ParameterError
from weakspin import design as design_module
from weakspin.cli import main
from weakspin.design import (
    CorrectionCurve,
    _delta_at,
    _model_errors,
    _time_indices,
    assign_time,
    predicted_design_matrix,
    sample_unit_vectors,
)
from weakspin.estimator import build_rows
from weakspin.protocol import first_order_series
from weakspin.nv import nv_coupling, nv_runs

from _helpers import model_one, one_run, random_coupling, random_unit, run_one


def _rows(runs):
    """(r_i, p, q_tilde, dt) of each run, in order."""
    return list(zip(runs.r_i, runs.p, runs.q_tilde, runs.dt))


def _fixture_curve(values, times=None, valid=None):
    values = np.asarray(values, dtype=float)
    times = (
        np.arange(1, len(values) + 1) * 0.01 if times is None else np.asarray(times)
    )
    valid = np.ones(len(values), dtype=bool) if valid is None else valid
    return CorrectionCurve(times=times, values=values, valid=valid)


def test_default_grid():
    grid = grid_times()
    assert grid[0] > 0.0
    assert grid[-1] == pytest.approx(0.2)
    assert np.allclose(np.diff(grid), 1e-3)


def test_grid_validation():
    g = nv_coupling()
    r_i, p, q = (np.array(v, dtype=float) for v in ((0, 0, 1), (0, 0, 1), (1, 0, 0)))
    with pytest.raises(ParameterError):
        correction_curve(r_i, p, q, g, times=np.array([0.2, 0.1]))
    with pytest.raises(ParameterError):
        correction_curve(r_i, p, q, g, times=np.array([0.1, 0.1, 0.2]))
    with pytest.raises(ParameterError):
        correction_curve(r_i, p, q, g, times=np.array([0.0, 0.1]))
    with pytest.raises(ParameterError):
        correction_curve(r_i, p, q, g, times=np.array([0.1, 0.6]))


def test_correction_curve_zero_coupling_is_zero():
    curve = correction_curve(
        (0, 0, 1), (0, 1, 0), (1, 0, 0), CouplingTensor.zero()
    )
    assert np.all(curve.valid)
    assert np.max(curve.values) < 1e-12


def test_correction_curve_quadratic_small_time():
    rng = np.random.default_rng(60)
    g = random_coupling(rng, max_abs=5.0)
    r_i, p, q = random_unit(rng), random_unit(rng), random_unit(rng)
    h = 5e-4
    curve = correction_curve(r_i, p, q, g, times=np.array([h, 2.0 * h]))
    assert curve.values[1] / curve.values[0] == pytest.approx(4.0, rel=0.1)


def test_correction_curve_deterministic():
    g = nv_coupling()
    r_i, p, q_tilde, _ = _rows(nv_runs())[0]
    a = correction_curve(r_i, p, q_tilde, g)
    b = correction_curve(r_i, p, q_tilde, g)
    assert np.array_equal(a.values, b.values)


def test_correction_curve_matches_single_run_evaluation():
    g = nv_coupling()
    r_i, p, q_tilde, _ = _rows(nv_runs())[2]
    times = np.array([0.03, 0.07])
    curve = correction_curve(r_i, p, q_tilde, g, times=times)
    for k, t in enumerate(times):
        r_f, q, e = run_one(r_i, p, q_tilde, t, g)
        model = model_one(r_i, r_f, p, q, t, g)
        assert curve.values[k] == pytest.approx(abs(e - model), abs=1e-12)


def test_find_dents_monotone_curve_has_none():
    curve = _fixture_curve(np.linspace(0.0, 1.0, 30) ** 2)
    assert find_dents(curve, threshold=10.0) == []


def test_find_dents_single_dip():
    values = np.abs(np.linspace(-1.0, 1.0, 41)) + 0.01
    curve = _fixture_curve(values)
    dents = find_dents(curve, threshold=0.5)
    assert len(dents) == 1
    assert dents[0] == pytest.approx(curve.times[20])


def test_find_dents_respects_threshold_and_dt_min():
    values = np.abs(np.linspace(-1.0, 1.0, 41)) + 0.01
    curve = _fixture_curve(values)
    assert find_dents(curve, threshold=0.005) == []
    # dip sits at t = 0.21; excluded when dt_min moves past it
    assert find_dents(curve, threshold=0.5, dt_min=0.3) == []


def test_find_dents_sorted_by_depth():
    values = np.ones(50)
    values[10] = 0.10  # shallower dip
    values[30] = 0.01  # deeper dip
    curve = _fixture_curve(values)
    dents = find_dents(curve, threshold=0.5)
    assert dents == [pytest.approx(curve.times[30]), pytest.approx(curve.times[10])]


def test_find_dents_local_minimum_definition():
    values = np.ones(30)
    values[4] = values[5] = 0.1  # plateau, not a strict local minimum
    curve = _fixture_curve(values)
    assert find_dents(curve, threshold=0.5, dt_min=0.0) == []


def test_find_dents_skips_invalid_neighbors():
    values = np.ones(30)
    values[10] = 0.1
    valid = np.ones(30, dtype=bool)
    valid[list(range(9, 12))] = False
    curve = _fixture_curve(values, valid=valid)
    assert find_dents(curve, threshold=0.5) == []


def test_weak_horizon_prefix_semantics():
    values = np.array([0.1, 0.2, 0.4, 0.2, 0.1, 0.1])
    curve = _fixture_curve(values)
    assert weak_horizon(curve, threshold=0.3) == pytest.approx(curve.times[1])
    assert weak_horizon(curve, threshold=0.05) is None
    assert weak_horizon(curve, threshold=1.0) == pytest.approx(curve.times[-1])


def test_assign_time_prefers_horizon_then_dent():
    values = np.array([0.1, 0.2, 0.4, 0.2, 0.05, 0.2])
    curve = _fixture_curve(values)
    t, delta = assign_time(curve, threshold=0.3)
    assert t == pytest.approx(curve.times[1])
    assert delta == pytest.approx(0.2)
    # first point above threshold: falls back to the qualifying dent
    t, delta = assign_time(curve, threshold=0.08, dt_min=0.0)
    assert t == pytest.approx(curve.times[4])
    assert delta == pytest.approx(0.05)
    # nothing qualifies anywhere: global minimum beyond dt_min
    t, delta = assign_time(curve, threshold=0.01, dt_min=0.0)
    assert t == pytest.approx(curve.times[4])


def test_sample_designs_deterministic():
    g = nv_coupling()
    times = grid_times((2e-3, 0.1, 2e-3))
    a = sample_designs(7, g, 3, times=times)
    b = sample_designs(7, g, 3, times=times)
    for ca, cb in zip(a, b):
        assert ca.condition_number == cb.condition_number
        assert ca.max_correction == cb.max_correction
        assert np.array_equal(ca.runs.r_i, cb.runs.r_i)
        assert np.array_equal(ca.runs.dt, cb.runs.dt)


def test_sample_designs_sorted_by_conditioning():
    g = nv_coupling()
    times = grid_times((2e-3, 0.1, 2e-3))
    candidates = sample_designs(11, g, 8, times=times)
    conds = [c.condition_number for c in candidates]
    assert conds == sorted(conds)
    assert len(candidates) == 8


def test_sample_designs_candidate_runtime_validity():
    g = nv_coupling()
    times = grid_times((2e-3, 0.1, 2e-3))
    best = sample_designs(13, g, 4, times=times)[0]
    assert len(best.runs) == 6
    assert np.isfinite(best.condition_number)
    for _, _, q_tilde, dt in _rows(best.runs):
        assert dt > 0.0
        assert abs(np.linalg.norm(q_tilde) - 1.0) < 1e-12


@pytest.mark.parametrize("fields", [None, ((0.9, -1.7, 0.4), (-1.2, 0.3, 2.2))],
                         ids=["no-fields", "both-fields"])
def test_sample_designs_scores_match_single_run_functions(fields):
    # candidates are scored from one stacked engine call; their scores
    # must equal, bit for bit, what the one-run public functions give
    g = nv_coupling()
    locals_ = fields and LocalHamiltonians.from_fields(*fields)
    times = grid_times((1e-3, 0.15, 1e-3))
    for cand in sample_designs(17, g, 12, times=times, locals_=locals_):
        a = predicted_design_matrix(cand.runs, g, locals_)
        assert cand.condition_number == np.linalg.cond(a)
        deltas = [
            _delta_at(correction_curve(r_i, p, q_tilde, g, locals_, times), dt)
            for r_i, p, q_tilde, dt in _rows(cand.runs)
        ]
        assert cand.max_correction == max(deltas)


def _dents_by_loop(times, values, valid, threshold, dt_min):
    """find_dents' rule as a loop over grid points, deepest first, earlier on a tie."""
    hits = [
        i
        for i in range(1, len(times) - 1)
        if valid[i - 1] and valid[i] and valid[i + 1] and times[i] >= dt_min
        and values[i] < threshold and values[i] < values[i - 1] and values[i] < values[i + 1]
    ]
    return sorted(hits, key=lambda i: (values[i], times[i]))


def _choice_by_loop(times, values, valid, threshold, dt_min):
    """assign_time's rule as loops: (grid index, branch that chose it)."""
    below = [bool(ok and v <= threshold) for v, ok in zip(values, valid)]
    if below[0]:
        i = 0
        while i + 1 < len(below) and below[i + 1]:
            i += 1
        return i, "horizon"
    dents = _dents_by_loop(times, values, valid, threshold, dt_min)
    if dents:
        return dents[0], "dent"
    pool = [i for i in range(len(times)) if valid[i] and times[i] >= dt_min]
    pool = pool or [i for i in range(len(times)) if valid[i]]
    return min(pool, key=lambda i: (values[i], i)), "minimum"


def _branch_curves():
    """(values, valid) rows that reach each branch of the time choice."""
    t = np.arange(1, 41) * 0.01
    rows = []
    rows.append(0.021 * np.arange(40))  # the horizon ends at index 4 (0.084 < 0.1 < 0.105)
    rows.append(np.full(40, 0.01))  # every point below: horizon is the last point
    v = np.full(40, 0.5)
    v[[2, 12, 30]] = [0.01, 0.05, 0.05]  # dent at 0.03 sits below dt_min; tie goes to 0.13
    rows.append(v)
    v = np.full(40, 0.5)
    v[[12, 30]] = [0.02, 0.05]
    rows.append(v)  # its deeper dent at 0.13 has an invalid neighbour (below)
    v = 0.3 + np.abs(t - 0.25)  # no dent below threshold: least valid point beyond dt_min,
    rows.append(v)  # where the minimum is invalid (below) and its neighbours tie
    v = 0.3 + np.abs(t - 0.02)  # minimum below dt_min, invalid beyond: all valid points compete
    rows.append(v)
    v = np.full(40, 0.01)
    v[[17, 25]] = [0.005, 0.004]
    rows.append(v)  # first point invalid: no horizon, dents still count
    values = np.array(rows)
    valid = np.ones(values.shape, dtype=bool)
    valid[3, 11] = False
    valid[4, [10, 23, 24, 25]] = False
    valid[5, 4:] = False
    valid[6, 0] = False
    values[~valid] = np.nan
    return t, values, valid


def test_vectorized_time_choice_matches_loops_on_every_branch():
    t, values, valid = _branch_curves()
    threshold, dt_min = 0.1, 0.05
    chosen = _time_indices(t, values, valid, threshold, dt_min)
    branches = set()
    for k in range(len(values)):
        idx, branch = _choice_by_loop(t, values[k], valid[k], threshold, dt_min)
        branches.add(branch)
        assert chosen[k] == idx
        curve = _fixture_curve(values[k], times=t, valid=valid[k])
        assert assign_time(curve, threshold, dt_min=dt_min) == (t[idx], values[k, idx])
        dents = _dents_by_loop(t, values[k], valid[k], threshold, dt_min)
        assert find_dents(curve, threshold, dt_min=dt_min) == [t[i] for i in dents]
    assert branches == {"horizon", "dent", "minimum"}


@pytest.mark.parametrize("fields", [None, ((0.9, -1.7, 0.4), (-1.2, 0.3, 2.2))],
                         ids=["no-fields", "both-fields"])
def test_sample_designs_times_match_per_curve_choice(fields):
    # the stacked choice over all candidates picks, run for run, the time
    # that assign_time picks on that run's own correction curve
    g = nv_coupling()
    locals_ = fields and LocalHamiltonians.from_fields(*fields)
    times = grid_times((0.01, 0.3, 1e-3))  # starts late enough for dents to count
    branches = set()
    for cand in sample_designs(19, g, 10, times=times, threshold=1e-2, locals_=locals_):
        for r_i, p, q_tilde, dt in _rows(cand.runs):
            curve = correction_curve(r_i, p, q_tilde, g, locals_, times)
            idx, branch = _choice_by_loop(times, curve.values, curve.valid, 1e-2, 0.02)
            branches.add(branch)
            assert assign_time(curve, 1e-2) == (dt, curve.values[idx])
            assert dt == times[idx]
    assert branches == {"horizon", "dent", "minimum"}


def test_sample_designs_draws_candidates_in_turn():
    # every candidate's vectors are one sample_unit_vectors draw, taken in
    # candidate order from the seeded generator
    rng = np.random.default_rng(23)
    draws = [sample_unit_vectors(rng, 3 * 4) for _ in range(9)]
    candidates = sample_designs(23, nv_coupling(), 9, n_runs=4, times=grid_times((2e-3, 0.1, 2e-3)))
    by_first = {d[0].tobytes(): d for d in draws}
    for cand in candidates:
        d = by_first.pop(cand.runs.r_i[0].tobytes())
        for k, (r_i, p, q_tilde, _) in enumerate(_rows(cand.runs)):
            assert np.array_equal(r_i, d[3 * k])
            assert np.array_equal(p, d[3 * k + 1])
            assert np.array_equal(q_tilde, d[3 * k + 2])
    assert not by_first


GOLDEN_CONFIG = os.path.join(os.path.dirname(__file__), "data", "golden_config.json")


@pytest.mark.parametrize("count", [1, 7])
def test_design_command_makes_one_engine_call(monkeypatch, tmp_path, count):
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return run_protocol_series(*args, **kwargs)

    monkeypatch.setattr(design_module, "run_protocol_series", counted)
    out = tmp_path / "design.json"
    assert main(["design", "--config", GOLDEN_CONFIG, "--count", str(count), "--out", str(out)]) == 0
    assert calls == [(6 * count, 3)]


def test_stacked_curves_with_invalid_points_match_single_curves():
    # a pure probe along x rotates r_i = z about x under g_xx, reaching
    # -r_i at dt = pi / (2 g_xx); those grid points are invalid, and a run
    # that has them sits in the same stack as runs that have none
    g = CouplingTensor(np.array([10.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
    r_i = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.6, 0.8]])
    p = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    q = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    times = grid_times((2e-5, 0.2, 2e-5))
    values, valid, _, _ = _model_errors(r_i, p, q, g, None, times)
    assert not valid[0].all() and not valid[2].all()
    assert valid[1].all()
    for k in range(3):
        # reference: a one-run series, modelled on its valid points only
        r_f, q_f, exact = run_protocol_series(r_i[k], p[k], q[k], g, None, times)
        ok = valid[k]
        model = first_order_series(r_i[k], r_f[ok], p[k], q_f[ok], times[ok], g)
        assert np.array_equal(values[k, ok], np.abs(exact[ok] - model))
        assert np.all(np.isnan(values[k, ~ok]))
        single = correction_curve(r_i[k], p[k], q[k], g, times=times)
        assert np.array_equal(values[k], single.values, equal_nan=True)
        assert np.array_equal(valid[k], single.valid)


def test_rank_deficient_candidate_scores_infinite():
    rng = np.random.default_rng(61)
    g = nv_coupling()
    run = one_run(random_unit(rng), random_unit(rng), random_unit(rng), 0.05)
    six = Runs(*(np.repeat(getattr(run, k), 6, axis=0) for k in ("r_i", "p", "q_tilde", "dt")))
    a = predicted_design_matrix(six, g)
    assert np.linalg.cond(a) > 1e8


def test_predicted_design_matrix_exact_matches_simulation():
    g = nv_coupling()
    runs = nv_runs()
    a = predicted_design_matrix(runs, g)
    rows = []
    for r_i, p, q_tilde, dt in _rows(runs):
        r_f, q, _ = run_one(r_i, p, q_tilde, dt, g, LocalHamiltonians.zero())
        rows.append(build_rows(r_i[None], r_f[None], p[None], q[None])[0])
    assert np.allclose(a, np.array(rows), atol=1e-12)


def test_predicted_design_matrix_first_order_agrees_at_small_dt():
    # to first order in dt the target precesses about the probe's field:
    # r_f ~ r_i + 2 dt (g p) x r_i, with the axis q unchanged
    g = nv_coupling()
    runs = dataclasses.replace(nv_runs(), dt=np.full(6, 1e-4))
    exact = predicted_design_matrix(runs, g)
    r_i, p, q = runs.r_i, runs.p, runs.q_tilde
    approx = build_rows(r_i, r_i + 2e-4 * np.cross(p @ g.matrix, r_i), p, q)
    assert np.max(np.abs(exact - approx)) < 1e-2


def test_first_bundled_time_sits_in_a_neighborhood_dip():
    # the first published interaction time lies below the local
    # neighborhood maximum of its model-error curve
    r_i, p, q_tilde, _ = _rows(nv_runs())[0]
    curve = correction_curve(r_i, p, q_tilde, nv_coupling(), times=grid_times())
    at_listed = curve.values[np.abs(curve.times - 0.091) < 1e-9][0]
    hood = (curve.times >= 0.081) & (curve.times <= 0.101)
    assert at_listed < curve.values[hood].max()


def test_sample_designs_conditioning_near_reference_design():
    # best-of-N random candidates should not be far behind the bundled
    # hand-picked design in conditioning
    g = nv_coupling()
    reference = predicted_design_matrix(nv_runs(), g)
    kappa_ref = np.linalg.cond(reference)
    times = grid_times((1e-3, 0.1, 1e-3))
    best = sample_designs(5, g, 60, times=times)[0]
    assert best.condition_number <= 10.0 * kappa_ref
