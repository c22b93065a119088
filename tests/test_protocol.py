import numpy as np
import pytest

from weakspin import (
    CouplingTensor,
    LocalHamiltonians,
    Runs,
    build_interaction,
    run_protocol,
    run_protocol_series,
    tensor_product,
    total_hamiltonian,
    weak_value_sigma,
)
from weakspin.core import (
    DimensionMismatchError,
    InvalidStateError,
    ParameterError,
    bloch_to_density,
)
from weakspin.nv import NV_COUPLING_MHZ, nv_coupling, nv_runs
from weakspin.protocol import (
    SPECTRUM_CACHE_SIZE,
    OrthogonalPostSelectionError,
    _cached_spectrum,
    _spectrum,
    first_order_series,
)

from _helpers import (
    expm_series,
    model_one,
    one_run,
    outcome_by_series,
    random_bloch,
    random_coupling,
    random_unit,
    run_one,
    weak_value_by_spinors,
)


def test_coupling_tensor_round_trip():
    g = nv_coupling()
    assert np.allclose(g.matrix, NV_COUPLING_MHZ, atol=0)
    assert np.allclose(g.column(1), NV_COUPLING_MHZ[:, 1], atol=0)
    assert np.allclose(g.scaled(2.0).matrix, 2.0 * NV_COUPLING_MHZ, atol=0)


def test_coupling_tensor_rejects_asymmetric():
    with pytest.raises(InvalidStateError):
        CouplingTensor.from_matrix([[1, 2, 0], [2.1, 1, 0], [0, 0, 1]])


def test_coupling_tensor_values_are_read_only():
    g = CouplingTensor.zero()
    with pytest.raises(ValueError):
        g.values[0] = 1.0


def test_local_hamiltonians_validation():
    with pytest.raises(InvalidStateError):
        LocalHamiltonians(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    locals_ = LocalHamiltonians.from_fields(target=(1.0, 0.0, 0.0))
    assert not locals_.is_zero
    assert LocalHamiltonians.zero().is_zero


def test_protocol_run_validation():
    with pytest.raises(InvalidStateError):
        one_run(r_i=(0, 0, 1.1), p=(0, 0, 1), q_tilde=(1, 0, 0), dt=0.1)
    with pytest.raises(InvalidStateError):
        one_run(r_i=(0, 0, 1), p=(0, 0, 1), q_tilde=(0.9, 0, 0), dt=0.1)
    with pytest.raises(ParameterError):
        one_run(r_i=(0, 0, 1), p=(0, 0, 1), q_tilde=(1, 0, 0), dt=0.0)


def _good_runs(n):
    return {
        "r_i": np.tile([0.0, 0.0, 1.0], (n, 1)),
        "p": np.tile([0.0, 0.6, 0.8], (n, 1)),
        "q_tilde": np.tile([1.0, 0.0, 0.0], (n, 1)),
        "dt": np.full(n, 0.05),
    }


RUN_FAULTS = [
    pytest.param("r_i", (0.0, 0.0, 1.0 + 1e-9), InvalidStateError, "r_i norm", id="r_i-norm"),
    pytest.param("p", (0.0, 1.5, 0.0), InvalidStateError, "p norm 1.5 exceeds 1", id="p-norm"),
    pytest.param("q_tilde", (0.9, 0.0, 0.0), InvalidStateError, "q_tilde norm 0.9 is not 1",
                 id="q-unit"),
    pytest.param("dt", 0.0, ParameterError, "dt must be positive, got 0.0", id="dt-zero"),
    pytest.param("dt", -0.5, ParameterError, "dt must be positive, got -0.5", id="dt-negative"),
    pytest.param("dt", np.nan, ParameterError, "dt must be positive, got nan", id="dt-nan"),
    pytest.param("r_i", (np.nan, 0.0, 0.0), InvalidStateError, "r_i has non-finite components",
                 id="r_i-nan"),
    pytest.param("p", (0.0, np.inf, 0.0), InvalidStateError, "p has non-finite components",
                 id="p-inf"),
    pytest.param("q_tilde", (1.0, np.nan, 0.0), InvalidStateError,
                 "q_tilde has non-finite components", id="q-nan"),
]


@pytest.mark.parametrize("row", [0, 3])
@pytest.mark.parametrize("field,value,error,message", RUN_FAULTS)
def test_runs_name_the_first_bad_row(row, field, value, error, message):
    fields = _good_runs(5)
    fields[field][row] = value
    fields[field][4] = value  # a later bad row is not the one named
    with pytest.raises(error) as info:
        Runs(**fields)
    assert type(info.value) is error
    assert str(info.value).startswith(f"runs[{row}]: {message}")


def test_runs_report_a_rows_checks_in_order():
    # a row that fails several checks reports the first of them, in the
    # order r_i, p, q_tilde, dt; an earlier row wins over a later one
    fields = _good_runs(3)
    fields["dt"][1] = -1.0
    fields["p"][1] = (0.0, 2.0, 0.0)
    fields["r_i"][2] = (np.nan, 0.0, 0.0)
    with pytest.raises(InvalidStateError, match=r"^runs\[1\]: p norm 2.0 exceeds 1$"):
        Runs(**fields)


def test_runs_are_read_only_copies_of_consistent_shape():
    fields = _good_runs(2)
    runs = Runs(**fields)
    fields["dt"][0] = 7.0
    assert runs.dt[0] == 0.05 and len(runs) == 2
    with pytest.raises(ValueError):
        runs.r_i[0, 0] = 0.5
    with pytest.raises(DimensionMismatchError):
        Runs(**{**fields, "r_i": np.array([0.0, 0.0, 1.0])})
    with pytest.raises(DimensionMismatchError):
        Runs(**{**fields, "dt": np.full(3, 0.05)})


def test_build_interaction_zero_and_zz():
    assert np.array_equal(build_interaction(CouplingTensor.zero()), np.zeros((4, 4)))
    g = CouplingTensor(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(build_interaction(g), np.diag([1.0, -1, -1, 1]), atol=0)


def test_build_interaction_frobenius_identity():
    # Pauli orthogonality: ||H||_F^2 = 4 * sum of squared tensor entries
    g = nv_coupling()
    h = build_interaction(g)
    assert np.isclose(
        np.sum(np.abs(h) ** 2), 4.0 * np.sum(g.matrix**2), atol=1e-9
    )
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    assert abs(np.trace(h)) < 1e-12


def test_build_interaction_linearity():
    rng = np.random.default_rng(20)
    g1 = random_coupling(rng)
    g2 = random_coupling(rng)
    combined = CouplingTensor(2.0 * g1.values - 0.5 * g2.values)
    assert np.allclose(
        build_interaction(combined),
        2.0 * build_interaction(g1) - 0.5 * build_interaction(g2),
        atol=1e-12,
    )


def test_total_hamiltonian_adds_locals():
    locals_ = LocalHamiltonians.from_fields(target=(0, 0, 2.0), probe=(1.0, 0, 0))
    h = total_hamiltonian(CouplingTensor.zero(), locals_)
    expected = tensor_product(locals_.h_target, np.eye(2)) + tensor_product(
        np.eye(2), locals_.h_probe
    )
    assert np.allclose(h, expected, atol=1e-12)


def test_run_protocol_no_interaction_is_identity_on_bloch_data():
    rng = np.random.default_rng(23)
    r_i, p, q_tilde = random_bloch(rng), random_bloch(rng), random_unit(rng)
    r_f, q, e = run_one(r_i, p, q_tilde, 0.08, CouplingTensor.zero(), LocalHamiltonians.zero())
    assert np.allclose(r_f, r_i, atol=1e-12)
    assert np.allclose(q, q_tilde, atol=1e-12)
    assert e == pytest.approx(float(q_tilde @ p), abs=1e-12)


def test_run_protocol_zero_locals_means_raw_axis():
    rng = np.random.default_rng(24)
    r_i, p, q_tilde = random_unit(rng), random_unit(rng), random_unit(rng)
    _, q, _ = run_one(r_i, p, q_tilde, 0.05, random_coupling(rng), LocalHamiltonians.zero())
    assert np.allclose(q, q_tilde, atol=0)


def test_run_protocol_local_correction_undoes_local_rotation():
    # with zero coupling, arbitrary local dynamics must be removed exactly
    rng = np.random.default_rng(25)
    locals_ = LocalHamiltonians.from_fields(
        target=rng.normal(size=3) * 3.0, probe=rng.normal(size=3) * 3.0
    )
    r_i, p, q_tilde = random_bloch(rng), random_bloch(rng), random_unit(rng)
    r_f, q, e = run_one(r_i, p, q_tilde, 0.4, CouplingTensor.zero(), locals_)
    assert np.allclose(r_f, r_i, atol=1e-10)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-10
    assert e == pytest.approx(float(q @ p), abs=1e-10)


def test_run_protocol_series_matches_single_runs():
    rng = np.random.default_rng(26)
    g = random_coupling(rng, max_abs=5.0)
    locals_ = LocalHamiltonians.from_fields(
        target=rng.normal(size=3), probe=rng.normal(size=3)
    )
    r_i, p, q = random_unit(rng), random_bloch(rng), random_unit(rng)
    times = np.array([0.01, 0.05, 0.11])
    r_f_s, q_s, e_s = run_protocol_series(r_i, p, q, g, locals_, times)
    for k, t in enumerate(times):
        r_f, q_k, e = run_one(r_i, p, q, t, g, locals_)
        assert np.array_equal(r_f_s[k], r_f)
        assert np.array_equal(q_s[k], q_k)
        assert e_s[k] == e


SERIES_FIELDS = [
    pytest.param((1.3, -2.7, 0.8), (-2.1, 0.4, 3.0), id="both-fields"),
    pytest.param((0.0, 0.0, 0.0), (2.5, -1.2, 0.7), id="probe-field-only"),
]


@pytest.mark.parametrize("target,probe", SERIES_FIELDS)
def test_run_protocol_series_matches_run_protocol_bit_for_bit(target, probe):
    # a one-row run_protocol is the one-run, one-time case of the series,
    # and each time's arithmetic does not depend on the others, so every
    # output bit agrees with the series and with a single-time series call
    rng = np.random.default_rng(35)
    g = random_coupling(rng, max_abs=5.0)
    locals_ = LocalHamiltonians.from_fields(target=target, probe=probe)
    r_i, p, q = random_unit(rng), random_bloch(rng), random_unit(rng)
    times = np.linspace(0.5 / 600, 0.5, 600)
    r_f_s, q_s, e_s = run_protocol_series(r_i, p, q, g, locals_, times)
    for k, t in enumerate(times):
        r_f, q_k, e = run_one(r_i, p, q, t, g, locals_)
        assert np.array_equal(q_s[k], q_k)
        assert np.array_equal(r_f_s[k], r_f)
        assert e_s[k] == e
        single = run_protocol_series(r_i, p, q, g, locals_, [t])
        assert np.array_equal(single[0][0], r_f_s[k])
        assert np.array_equal(single[1][0], q_s[k])
        assert np.array_equal(single[2][0], e_s[k])


STACK_FIELDS = [
    pytest.param(None, id="no-fields"),
    pytest.param(((1.3, -2.7, 0.8), (-2.1, 0.4, 3.0)), id="both-fields"),
]


def _stacked_runs(rng, n):
    r_i = np.array([random_unit(rng) for _ in range(n)])
    p = np.array([random_bloch(rng) for _ in range(n)])
    q = np.array([random_unit(rng) for _ in range(n)])
    return r_i, p, q


@pytest.mark.parametrize("fields", STACK_FIELDS)
@pytest.mark.parametrize("n", [6, 11])
def test_stacked_series_equals_per_run_calls(fields, n):
    # one stacked call performs each run's arithmetic in the same order
    # as a one-run call, so every output bit agrees
    rng = np.random.default_rng(40 + n)
    g = random_coupling(rng, max_abs=5.0)
    locals_ = fields and LocalHamiltonians.from_fields(*fields)
    r_i, p, q = _stacked_runs(rng, n)
    times = np.linspace(0.5 / 200, 0.5, 200)
    r_f_s, q_s, e_s = run_protocol_series(r_i, p, q, g, locals_, times)
    assert r_f_s.shape == (n, 200, 3) and q_s.shape == (n, 200, 3) and e_s.shape == (n, 200)
    for k in range(n):
        r_f, q_k, e = run_protocol_series(r_i[k], p[k], q[k], g, locals_, times)
        assert r_f.shape == (200, 3) and q_k.shape == (200, 3) and e.shape == (200,)
        assert np.array_equal(r_f_s[k], r_f)
        assert np.array_equal(q_s[k], q_k)
        assert np.array_equal(e_s[k], e)


@pytest.mark.parametrize("fields", STACK_FIELDS)
def test_stack_of_one_equals_unstacked_call(fields):
    rng = np.random.default_rng(47)
    g = random_coupling(rng, max_abs=5.0)
    locals_ = fields and LocalHamiltonians.from_fields(*fields)
    r_i, p, q = _stacked_runs(rng, 1)
    times = np.linspace(0.01, 0.3, 57)
    stacked = run_protocol_series(r_i, p, q, g, locals_, times)
    single = run_protocol_series(r_i[0], p[0], q[0], g, locals_, times)
    for s, one in zip(stacked, single):
        assert s.shape == (1, *one.shape)
        assert np.array_equal(s[0], one)


@pytest.mark.parametrize("fields", STACK_FIELDS)
@pytest.mark.parametrize("n_times", [1, 3])
def test_per_run_times_equal_per_run_calls(fields, n_times):
    # each run evaluated at the times in its own row performs a one-run
    # call's arithmetic, so every output bit agrees
    rng = np.random.default_rng(50 + n_times)
    g = random_coupling(rng, max_abs=5.0)
    locals_ = fields and LocalHamiltonians.from_fields(*fields)
    n = 9
    r_i, p, q = _stacked_runs(rng, n)
    times = rng.uniform(0.001, 0.5, size=(n, n_times))
    r_f_s, q_s, e_s = run_protocol_series(r_i, p, q, g, locals_, times)
    assert r_f_s.shape == (n, n_times, 3) and q_s.shape == (n, n_times, 3)
    assert e_s.shape == (n, n_times)
    for k in range(n):
        r_f, q_k, e = run_protocol_series(r_i[k], p[k], q[k], g, locals_, times[k])
        assert np.array_equal(r_f_s[k], r_f)
        assert np.array_equal(q_s[k], q_k)
        assert np.array_equal(e_s[k], e)
        for j, t in enumerate(times[k]):
            r_f_1, q_1, e_1 = run_one(r_i[k], p[k], q[k], t, g, locals_)
            assert np.array_equal(r_f_1, r_f_s[k, j]) and np.array_equal(q_1, q_s[k, j])
            assert e_1 == e_s[k, j]


def test_per_run_times_match_series_oracle():
    # the independent anchor of the engine with local fields and a
    # non-zero coupling: Kronecker H_tot, Taylor propagators, index-sum
    # partial traces
    rng = np.random.default_rng(53)
    g = random_coupling(rng, max_abs=5.0)
    field_t, field_p = rng.normal(size=3) * 2.0, rng.normal(size=3) * 2.0
    locals_ = LocalHamiltonians.from_fields(field_t, field_p)
    r_i, p, q = _stacked_runs(rng, 8)
    times = rng.uniform(0.005, 0.3, size=(8, 2))
    r_f_s, q_s, e_s = run_protocol_series(r_i, p, q, g, locals_, times)
    for k in range(8):
        for j, t in enumerate(times[k]):
            r_f, q_k, e = outcome_by_series(r_i[k], p[k], q[k], g.matrix, field_t, field_p, t)
            assert np.allclose(r_f_s[k, j], r_f, rtol=0, atol=1e-12)
            assert np.allclose(q_s[k, j], q_k, rtol=0, atol=1e-12)
            assert abs(e_s[k, j] - e) <= 1e-12


ORACLE_FIELDS = [
    pytest.param(None, id="no-fields"),
    pytest.param(((1.3, -2.7, 0.8), (-2.1, 0.4, 3.0)), id="both-fields"),
    pytest.param(((0.0, 0.0, 0.0), (2.5, -1.2, 0.7)), id="probe-field-only"),
]


@pytest.mark.parametrize("fields", ORACLE_FIELDS)
@pytest.mark.parametrize("per_run", [False, True], ids=["shared-times", "per-run-times"])
def test_fourier_engine_matches_series_oracle(fields, per_run):
    # the Fourier sums and the Rodrigues undo against the oracle's
    # Kronecker H_tot, Taylor propagators, index-sum partial traces and
    # series exponentials of each field
    rng = np.random.default_rng(54 + per_run)
    g = random_coupling(rng, max_abs=5.0)
    locals_ = fields and LocalHamiltonians.from_fields(*fields)
    field_t, field_p = np.zeros((2, 3)) if fields is None else np.array(fields)
    n = 7
    r_i, p, q = _stacked_runs(rng, n)
    times = rng.uniform(0.005, 0.3, size=(n, 4)) if per_run else np.linspace(0.01, 0.3, 4)
    r_f_s, q_s, e_s = run_protocol_series(r_i, p, q, g, locals_, times)
    for k in range(n):
        for j, t in enumerate(times[k] if per_run else times):
            r_f, q_k, e = outcome_by_series(r_i[k], p[k], q[k], g.matrix, field_t, field_p, t)
            assert np.allclose(r_f_s[k, j], r_f, rtol=0, atol=1e-12)
            assert np.allclose(q_s[k, j], q_k, rtol=0, atol=1e-12)
            assert abs(e_s[k, j] - e) <= 1e-12


def test_per_run_times_need_one_row_per_run():
    rng = np.random.default_rng(52)
    r_i, p, q = _stacked_runs(rng, 3)
    for shape in [(2, 1), (4, 5), (3, 1, 1), (3, 0)]:
        with pytest.raises(ParameterError):
            run_protocol_series(r_i, p, q, nv_coupling(), None, np.full(shape, 0.01))
    with pytest.raises(ParameterError):
        run_protocol_series(r_i[0], p[0], q[0], nv_coupling(), None, np.full((2, 1), 0.01))


def test_stacked_series_rejects_mismatched_stacks():
    rng = np.random.default_rng(48)
    r_i, p, q = _stacked_runs(rng, 3)
    with pytest.raises(DimensionMismatchError):
        run_protocol_series(r_i, p[:2], q, nv_coupling(), None, [0.01])
    with pytest.raises(DimensionMismatchError):
        run_protocol_series(r_i[:, :2], p, q, nv_coupling(), None, [0.01])


def test_stacked_first_order_series_equals_per_run_calls():
    rng = np.random.default_rng(49)
    g = random_coupling(rng, max_abs=5.0)
    locals_ = LocalHamiltonians.from_fields((0.4, 1.1, -0.6), (-1.5, 0.2, 0.9))
    r_i, p, q = _stacked_runs(rng, 7)
    times = np.linspace(0.002, 0.4, 200)
    r_f, q_f, _ = (np.ascontiguousarray(a) for a in run_protocol_series(r_i, p, q, g, locals_, times))
    stacked = first_order_series(r_i, r_f, p, q_f, times, g)
    assert stacked.shape == (7, 200)
    for k in range(7):
        assert np.array_equal(stacked[k], first_order_series(r_i[k], r_f[k], p[k], q_f[k], times, g))


def test_spectrum_memo_returns_read_only_arrays():
    locals_ = LocalHamiltonians.from_fields(target=(0.0, 1.0, 0.0))
    w, v = _spectrum(nv_coupling(), locals_)
    assert np.array_equal(w, np.linalg.eigh(total_hamiltonian(nv_coupling(), locals_))[0])
    for arr in (w, v):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_spectrum_memo_keys_by_content():
    base = np.array([1.0, 2.0, 3.0, 0.5, -0.5, 0.25])
    nudged = base.copy()
    nudged[5] = np.nextafter(nudged[5], 1.0)
    locals_ = LocalHamiltonians.from_fields(probe=(0.0, 0.0, 1.0))
    cases = [
        (CouplingTensor(base), None),
        (CouplingTensor(nudged), None),
        (CouplingTensor(base), locals_),
    ]
    spectra = [_spectrum(g, loc) for g, loc in cases]
    for (g, loc), (w, v) in zip(cases, spectra):
        w_ref, v_ref = np.linalg.eigh(total_hamiltonian(g, loc))
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert len({id(w) for w, _ in spectra}) == 3
    # equal content hits the memo; zero locals are the same as none
    assert _spectrum(CouplingTensor(base.copy()), None) is spectra[0]
    assert _spectrum(CouplingTensor(base), LocalHamiltonians.zero()) is spectra[0]


def test_spectrum_memo_stays_bounded():
    rng = np.random.default_rng(36)
    for _ in range(3 * SPECTRUM_CACHE_SIZE):
        _spectrum(random_coupling(rng), None)
    assert _cached_spectrum.cache_info().currsize <= SPECTRUM_CACHE_SIZE


def test_weak_value_eigenstate():
    wv = weak_value_sigma((0, 0, 1), (0, 0, 1))
    assert np.allclose(wv, [0, 0, 1], atol=1e-12)


def test_weak_value_orthogonal_components():
    wv = weak_value_sigma((0, 0, 1), (1, 0, 0))
    assert np.allclose(wv, [1.0, 1j, 1.0], atol=1e-12)


def test_weak_value_rejects_orthogonal_postselection():
    with pytest.raises(OrthogonalPostSelectionError):
        weak_value_sigma((0, 0, 1), (0, 0, -1))


def test_weak_value_matches_spinor_oracle():
    rng = np.random.default_rng(27)
    checked = 0
    while checked < 100:
        r_i, r_f = random_unit(rng), random_unit(rng)
        if 1.0 + r_i @ r_f < 1e-3:
            continue
        assert np.allclose(
            weak_value_sigma(r_i, r_f), weak_value_by_spinors(r_i, r_f), atol=1e-10
        )
        checked += 1


def test_weak_value_swap_symmetry():
    rng = np.random.default_rng(28)
    r_i, r_f = random_unit(rng), random_unit(rng)
    a = weak_value_sigma(r_i, r_f)
    b = weak_value_sigma(r_f, r_i)
    assert np.allclose(a.real, b.real, atol=1e-12)
    assert np.allclose(a.imag, -b.imag, atol=1e-12)


def test_first_order_reduces_to_inner_product_at_zero_coupling():
    rng = np.random.default_rng(29)
    r_i, r_f, p, q = (random_unit(rng) for _ in range(4))
    val = model_one(r_i, r_f, p, q, 0.07, CouplingTensor.zero())
    assert val == pytest.approx(float(q @ p), abs=1e-12)


def test_first_order_linear_in_coupling():
    rng = np.random.default_rng(30)
    r_i, r_f, p, q = (random_unit(rng) for _ in range(4))
    g = random_coupling(rng)
    qp = float(q @ p)
    f1 = model_one(r_i, r_f, p, q, 0.03, g) - qp
    f2 = model_one(r_i, r_f, p, q, 0.03, g.scaled(2.0)) - qp
    assert f2 == pytest.approx(2.0 * f1, rel=1e-10)


def _halving_gap_ratio(g, r_i, p, q, dt):
    """Gap(dt)/Gap(dt/2), halving dt until the quadratic regime shows.

    Individual samples can have a near-vanishing quadratic coefficient,
    leaving the cubic term dominant at any fixed dt; shrinking dt always
    recovers the quadratic ratio while the gap stays above round-off.
    """
    for _ in range(12):
        gaps = []
        for t in (dt, dt / 2.0):
            r_f, q_t, e = run_one(r_i, p, q, t, g)
            gaps.append(abs(e - model_one(r_i, r_f, p, q_t, t, g)))
        ratio = gaps[0] / gaps[1]
        if 3.5 <= ratio <= 4.5 or gaps[1] < 1e-13:
            return ratio
        dt /= 2.0
    return ratio


def test_first_order_convergence_order():
    # gap to the exact simulation shrinks ~4x when dt halves
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_coupling(rng)
        r_i, p, q = random_unit(rng), random_unit(rng), random_unit(rng)
        dt = 0.02 / np.abs(g.values).max()
        assert 3.3 <= _halving_gap_ratio(g, r_i, p, q, dt) <= 4.7


def test_first_order_orthogonality_guard():
    with pytest.raises(OrthogonalPostSelectionError):
        model_one((0, 0, 1), (0, 0, -1), (1, 0, 0), (1, 0, 0), 0.05, CouplingTensor.zero())


def test_outcome_invariants_hold_for_random_runs():
    rng = np.random.default_rng(33)
    for _ in range(50):
        g = random_coupling(rng)
        locals_ = LocalHamiltonians.from_fields(
            target=rng.normal(size=3), probe=rng.normal(size=3)
        )
        r_f, q, e = run_one(
            random_bloch(rng), random_bloch(rng), random_unit(rng), rng.uniform(0.01, 0.3),
            g, locals_,
        )
        assert -1.0 - 1e-12 <= e <= 1.0 + 1e-12
        assert abs(np.linalg.norm(q) - 1.0) < 1e-10
        assert np.linalg.norm(r_f) <= 1.0 + 1e-10


def test_run_protocol_is_thread_safe():
    # pure functions on shared immutable inputs: concurrent calls must
    # agree with the sequential results exactly
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(34)
    g = random_coupling(rng)
    runs = [
        one_run(random_unit(rng), random_unit(rng), random_unit(rng), rng.uniform(0.02, 0.1))
        for _ in range(16)
    ]
    sequential = [run_protocol(r, g) for r in runs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda r: run_protocol(r, g), runs))
    for s, p_out in zip(sequential, parallel):
        assert np.array_equal(s[0], p_out[0])
        assert np.array_equal(s[2], p_out[2])
