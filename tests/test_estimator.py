import numpy as np
import pytest

from weakspin import (
    CouplingTensor,
    LocalHamiltonians,
    Records,
    Runs,
    build_system,
    error_stats,
    estimate_tensor,
    run_protocol,
    solve,
)
from weakspin.core import DimensionMismatchError, InvalidStateError
from weakspin.estimator import (
    IllConditionedDesignError,
    InsufficientDataError,
    InvalidRecordError,
    build_rows,
    simulate_records,
)
from weakspin.fileio import report_doc
from weakspin.nv import NV_REFERENCE_ESTIMATE_MHZ, nv_coupling, nv_runs
from weakspin.protocol import OMEGA

from _helpers import model_one, random_coupling, random_unit, records_of, run_one


def _random_record(rng, g=None, dt=None):
    """Record row whose expectation is synthesized by the response model."""
    g = g if g is not None else random_coupling(rng)
    while True:
        r_i, r_f, p, q = (random_unit(rng) for _ in range(4))
        if 1.0 + r_i @ r_f < 0.2:
            continue
        t = dt if dt is not None else rng.uniform(0.02, 0.1)
        e = model_one(r_i, r_f, p, q, t, g)
        if abs(e) <= 1.0:
            return r_i, r_f, p, q, t, e


def _random_records(rng, n, g=None):
    return records_of([_random_record(rng, g=g) for _ in range(n)])


def _one_record(r_i, r_f, p, q, dt, expectation):
    return records_of([(r_i, r_f, p, q, dt, expectation)])


def _row(records, k):
    """Record k's fields, in the order r_i, r_f, p, q, dt, expectation."""
    return tuple(getattr(records, name)[k] for name in ("r_i", "r_f", "p", "q", "dt", "expectation"))


def test_record_validation():
    with pytest.raises(InvalidRecordError):
        _one_record(r_i=(0, 0, 1), r_f=(0, 0, -1), p=(0, 0, 1), q=(1, 0, 0),
                    dt=0.1, expectation=0.0)
    with pytest.raises(InvalidRecordError):
        _one_record(r_i=(0, 0, 1), r_f=(0, 0, 1), p=(0, 0, 1), q=(1, 0, 0),
                    dt=-0.1, expectation=0.0)
    with pytest.raises(InvalidRecordError):
        _one_record(r_i=(0, 0, 1), r_f=(0, 0, 1), p=(0, 0, 1), q=(1, 0, 0),
                    dt=0.1, expectation=1.5)
    with pytest.raises(InvalidRecordError, match="expectation nan"):
        _one_record(r_i=(0, 0, 1), r_f=(0, 0, 1), p=(0, 0, 1), q=(1, 0, 0),
                    dt=0.1, expectation=float("nan"))
    with pytest.raises(InvalidStateError, match="r_i norm"):
        _one_record(r_i=(0, 0, 1.0 + 1e-9), r_f=(0, 0, 1), p=(0, 0, 1), q=(1, 0, 0),
                    dt=0.1, expectation=0.0)
    with pytest.raises(InvalidStateError, match="p norm"):
        _one_record(r_i=(0, 0, 1), r_f=(0, 0, 1), p=(0, 0, 1.0 + 1e-9), q=(1, 0, 0),
                    dt=0.1, expectation=0.0)
    # a measured r_f is not held to the ball: simulated noise can push it out
    _one_record(r_i=(0, 0, 1), r_f=(0, 0, 1.0 + 1e-6), p=(0, 0, 1), q=(1, 0, 0),
                dt=0.1, expectation=0.0)


def _good_records(n):
    return {
        "r_i": np.tile([0.0, 0.0, 1.0], (n, 1)),
        "r_f": np.tile([0.0, 0.6, 0.8], (n, 1)),
        "p": np.tile([0.0, 0.6, 0.8], (n, 1)),
        "q": np.tile([1.0, 0.0, 0.0], (n, 1)),
        "dt": np.full(n, 0.05),
        "expectation": np.full(n, 0.25),
    }


RECORD_FAULTS = [
    pytest.param("r_i", (0.0, 0.0, 1.0 + 1e-9), InvalidStateError, "r_i norm", id="r_i-norm"),
    pytest.param("p", (0.0, 0.0, 5.0), InvalidStateError, "p norm 5.0 exceeds 1", id="p-norm"),
    pytest.param("r_f", (0.0, 0.0, -1.0), InvalidRecordError,
                 "1 + r_i.r_f = 0.0 is below the orthogonality guard", id="orthogonal"),
    pytest.param("dt", 0.0, InvalidRecordError, "dt must be positive, got 0.0", id="dt-zero"),
    pytest.param("dt", np.nan, InvalidRecordError, "dt must be positive, got nan", id="dt-nan"),
    pytest.param("expectation", 1.5, InvalidRecordError, "expectation 1.5 outside [-1, 1]",
                 id="expectation-range"),
    pytest.param("expectation", np.nan, InvalidRecordError, "expectation nan outside [-1, 1]",
                 id="expectation-nan"),
    pytest.param("r_i", (0.0, np.nan, 0.0), InvalidStateError, "r_i has non-finite components",
                 id="r_i-nan"),
    pytest.param("r_f", (np.inf, 0.0, 0.0), InvalidStateError, "r_f has non-finite components",
                 id="r_f-inf"),
    pytest.param("p", (0.0, 0.0, np.nan), InvalidStateError, "p has non-finite components",
                 id="p-nan"),
    pytest.param("q", (-np.inf, 0.0, 0.0), InvalidStateError, "q has non-finite components",
                 id="q-inf"),
]


@pytest.mark.parametrize("row", [0, 4])
@pytest.mark.parametrize("field,value,error,message", RECORD_FAULTS)
def test_records_name_the_first_bad_row(row, field, value, error, message):
    fields = _good_records(6)
    fields[field][row] = value
    fields[field][5] = value  # a later bad row is not the one named
    with pytest.raises(error) as info:
        Records(**fields)
    assert type(info.value) is error
    assert str(info.value).startswith(f"records[{row}]: {message}")


def test_records_report_a_rows_checks_in_order():
    # a row that fails several checks reports the first of them, in the
    # order r_i, r_f, p, q, orthogonality, dt, expectation
    fields = _good_records(3)
    fields["expectation"][1] = 2.0
    fields["dt"][1] = -1.0
    fields["r_i"][2] = (np.nan, 0.0, 0.0)
    with pytest.raises(InvalidRecordError, match=r"^records\[1\]: dt must be positive, got -1.0$"):
        Records(**fields)


def test_records_are_read_only_copies_of_consistent_shape():
    fields = _good_records(2)
    records = Records(**fields)
    fields["expectation"][0] = 0.5
    assert records.expectation[0] == 0.25 and len(records) == 2
    with pytest.raises(ValueError):
        records.r_f[0, 0] = 0.5
    with pytest.raises(DimensionMismatchError):
        Records(**{**fields, "q": np.zeros((3, 3))})
    with pytest.raises(DimensionMismatchError):
        Records(**{**fields, "expectation": np.zeros((2, 1))})


def test_build_system_equals_record_by_record_assembly():
    # the stacked rows and signals repeat each record's arithmetic, so
    # they agree in every bit with the one-record formulas
    rng = np.random.default_rng(90)
    records = _random_records(rng, 9)
    a, zeta = build_system(records)
    assert a.flags.c_contiguous
    for k in range(len(records)):
        r_i, r_f, p, q, dt, expectation = _row(records, k)
        c = np.outer(np.cross(p, q), r_i + r_f)
        qp = q[0] * p[0] + q[1] * p[1] + q[2] * p[2]
        c += np.outer(q - p * qp, np.cross(r_i, r_f))
        row = [c[i, j] if i == j else c[i, j] + c[j, i] for i, j in OMEGA]
        assert np.array_equal(a[k], row)
        assert np.array_equal(build_rows(r_i[None], r_f[None], p[None], q[None])[0], row)
        denom = 1.0 + (r_i[0] * r_f[0] + r_i[1] * r_f[1] + r_i[2] * r_f[2])
        assert zeta[k] == (expectation - qp) * denom / (2.0 * dt)


def test_build_row_degenerate_geometry_gives_zero_row():
    # parallel p and q plus unchanged target state kill both terms
    rec = _one_record(r_i=(0, 0, 1), r_f=(0, 0, 1), p=(1, 0, 0), q=(1, 0, 0),
                      dt=0.05, expectation=1.0)
    assert np.allclose(build_rows(rec.r_i, rec.r_f, rec.p, rec.q)[0], np.zeros(6), atol=0)


def test_build_row_consistent_with_response_model():
    # row . xi must reproduce the scaled model response for any tensor
    rng = np.random.default_rng(40)
    r_i, r_f, p, q, dt, _ = _random_record(rng)
    row = build_rows(r_i[None], r_f[None], p[None], q[None])[0]
    qp = float(q @ p)
    denom = 1.0 + float(r_i @ r_f)
    for _ in range(100):
        g = random_coupling(rng)
        model = model_one(r_i, r_f, p, q, dt, g)
        zeta = (model - qp) * denom / (2.0 * dt)
        assert row @ g.values == pytest.approx(zeta, abs=1e-10)


def test_build_row_matches_finite_differences():
    rng = np.random.default_rng(41)
    h = 1e-6
    for _ in range(20):
        r_i, r_f, p, q, dt, _ = _random_record(rng)
        row = build_rows(r_i[None], r_f[None], p[None], q[None])[0]
        denom = 1.0 + float(r_i @ r_f)
        base = rng.uniform(-5.0, 5.0, size=6)
        for j in range(6):
            plus, minus = base.copy(), base.copy()
            plus[j] += h
            minus[j] -= h
            df = (
                model_one(r_i, r_f, p, q, dt, CouplingTensor(plus))
                - model_one(r_i, r_f, p, q, dt, CouplingTensor(minus))
            ) / (2.0 * h)
            assert row[j] == pytest.approx(
                df * denom / (2.0 * dt), abs=1e-6
            )


def test_build_system_requires_six_records():
    rng = np.random.default_rng(42)
    records = _random_records(rng, 5)
    with pytest.raises(InsufficientDataError):
        build_system(records)


def test_build_system_scaled_signal():
    rng = np.random.default_rng(43)
    records = _random_records(rng, 6)
    a, zeta = build_system(records)
    assert a.shape == (6, 6)
    for k in range(len(records)):
        r_i, r_f, p, q, dt, expectation = _row(records, k)
        expected = (
            (expectation - q @ p)
            * (1.0 + r_i @ r_f)
            / (2.0 * dt)
        )
        assert zeta[k] == pytest.approx(expected, abs=1e-14)


def test_build_system_from_forward_simulation():
    g = nv_coupling()
    runs = nv_runs()
    r_f, q, expectation = run_protocol(runs, g, LocalHamiltonians.zero())
    records = Records(r_i=runs.r_i, r_f=r_f, p=runs.p, q=q, dt=runs.dt, expectation=expectation)
    a, zeta = build_system(records)
    assert a.shape == (6, 6)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(zeta))


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_simulate_records_matches_per_run_loop(noise):
    # one stacked engine call, each run at its own dt, gives the records
    # of a one-run loop that draws 3 values for r_f and then 1 for the
    # expectation per run
    rng = np.random.default_rng(61)
    g = random_coupling(rng, max_abs=5.0)
    locals_ = LocalHamiltonians.from_fields(rng.normal(size=3), rng.normal(size=3))
    rows = [
        (random_unit(rng), random_unit(rng), random_unit(rng), rng.uniform(0.01, 0.1))
        for _ in range(9)
    ]
    runs = Runs(*(np.array(column) for column in zip(*rows)))
    records = simulate_records(runs, g, locals_, noise, np.random.default_rng(8))
    assert len(records) == len(runs)
    ref_rng = np.random.default_rng(8)
    for k, (r_i, p, q_tilde, dt) in enumerate(rows):
        r_f, q, expectation = run_one(r_i, p, q_tilde, dt, g, locals_)
        if noise > 0.0:
            r_f = r_f + ref_rng.normal(scale=noise, size=3)
            expectation = float(np.clip(expectation + ref_rng.normal(scale=noise), -1.0, 1.0))
        assert np.array_equal(records.r_i[k], r_i) and np.array_equal(records.p[k], p)
        assert np.array_equal(records.r_f[k], r_f) and np.array_equal(records.q[k], q)
        assert records.dt[k] == dt and records.expectation[k] == expectation
    empty = runs.r_i[:0]
    none = simulate_records(Runs(empty, empty, empty, runs.dt[:0]), g, locals_, noise,
                            np.random.default_rng(8))
    assert len(none) == 0 and none.r_f.shape == (0, 3)


def test_solve_identity_system():
    result = solve(np.eye(6), np.arange(1.0, 7.0))
    assert np.allclose(result.g_est.values, np.arange(1.0, 7.0), atol=1e-14)
    assert result.condition_number == pytest.approx(1.0)
    assert result.residual_norm == pytest.approx(0.0, abs=1e-12)


def test_closed_loop_recovery_is_exact():
    rng = np.random.default_rng(44)
    g = random_coupling(rng)
    records = _random_records(rng, 6, g=g)
    result = estimate_tensor(records)
    assert np.abs(result.g_est.values - g.values).max() < 1e-9


def test_overdetermined_duplicates_match_square_solve():
    rng = np.random.default_rng(45)
    g = random_coupling(rng)
    rows = [_random_record(rng, g=g) for _ in range(6)]
    resolved_6 = estimate_tensor(records_of(rows))
    resolved_12 = estimate_tensor(records_of(rows + rows))
    assert np.allclose(
        resolved_6.g_est.values, resolved_12.g_est.values, atol=1e-12
    )


def test_solve_rejects_rank_deficient_design():
    rng = np.random.default_rng(46)
    rec = _random_record(rng)
    records = records_of([rec] * 6)
    with pytest.raises(IllConditionedDesignError) as info:
        estimate_tensor(records)
    assert info.value.condition_number > 1e8


def test_solve_condition_cap_is_configurable():
    rng = np.random.default_rng(47)
    g = random_coupling(rng)
    records = _random_records(rng, 6, g=g)
    a, zeta = build_system(records)
    cond = np.linalg.cond(a)
    with pytest.raises(IllConditionedDesignError):
        solve(a, zeta, kappa_max=cond / 2.0)


def test_error_stats_zero_for_equal_tensors():
    g = nv_coupling()
    assert error_stats(g, g) == (0.0, 0.0)


def test_error_stats_uniform_shift():
    g = nv_coupling()
    shifted = CouplingTensor(g.values + 0.25)
    mean, std = error_stats(g, shifted)
    assert mean == pytest.approx(0.25, abs=1e-14)
    assert std == pytest.approx(0.0, abs=1e-14)


def test_error_stats_of_published_reference():
    # the published evaluation differs from the true tensor by
    # 0.022 +/- 0.063 MHz under exactly this statistic; the reference
    # tensor is printed rounded to 0.01 MHz, which shows up in the
    # third decimal of the recomputed std
    mean, std = error_stats(
        nv_coupling(), CouplingTensor.from_matrix(NV_REFERENCE_ESTIMATE_MHZ)
    )
    assert mean == pytest.approx(0.0216667, abs=1e-6)
    assert std == pytest.approx(0.0643169, abs=1e-6)
    assert mean == pytest.approx(0.022, abs=5e-4)
    assert std == pytest.approx(0.063, abs=2e-3)


def test_estimate_attaches_error_stats():
    # the estimate's report carries the error statistics against a known tensor
    rng = np.random.default_rng(48)
    g = random_coupling(rng)
    records = _random_records(rng, 8, g=g)
    result = estimate_tensor(records)
    doc = report_doc(
        result, per_record_residuals=[], provenance={}, error_stats=error_stats(g, result.g_est)
    )
    assert abs(doc["error_mean_mhz"]) < 1e-9
    assert doc["error_std_mhz"] < 1e-9
    assert "error_mean_mhz" not in report_doc(result, per_record_residuals=[], provenance={})


def test_omega_ordering_matches_symmetric_packing():
    g = CouplingTensor(np.arange(1.0, 7.0))
    m = g.matrix
    for j, (a, b) in enumerate(OMEGA):
        assert m[a, b] == g.values[j]
        assert m[b, a] == g.values[j]
