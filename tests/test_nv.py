import numpy as np
import pytest

from weakspin.nv import (
    NV_COUPLING_MHZ,
    NV_PARAMETER_ROWS,
    NV_REFERENCE_ERROR_MHZ,
    NV_REFERENCE_ESTIMATE_MHZ,
    nv_coupling,
    nv_runs,
    reproduce,
)


def test_bundled_tensor_is_symmetric_and_matches_constants():
    g = nv_coupling()
    assert np.array_equal(g.matrix, g.matrix.T)
    assert np.array_equal(g.matrix, NV_COUPLING_MHZ)
    assert NV_REFERENCE_ERROR_MHZ == (0.022, 0.063)
    assert NV_REFERENCE_ESTIMATE_MHZ.shape == (3, 3)


def test_bundled_runs_are_normalized():
    runs = nv_runs()
    assert len(runs) == 6
    for k, row in enumerate(NV_PARAMETER_ROWS):
        for vec in (runs.r_i[k], runs.p[k], runs.q_tilde[k]):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        # direction preserved from the printed values
        printed = np.asarray(row[0], dtype=float)
        assert np.allclose(runs.r_i[k], printed / np.linalg.norm(printed), atol=1e-14)
        assert runs.dt[k] == row[3]


def test_dt_scale_rescales_times():
    assert nv_runs(0.5).dt.tolist() == pytest.approx(
        [0.5 * row[3] for row in NV_PARAMETER_ROWS]
    )


def test_reproduce_fails_at_published_times():
    outcome = reproduce()
    assert not outcome.passed
    assert outcome.max_component_error > 1.0


def test_reproduce_passes_in_weak_regime():
    outcome = reproduce(dt_scale=0.001)
    assert outcome.passed
    assert abs(outcome.error_mean) <= 0.1
    assert outcome.error_std <= 0.1
    assert outcome.max_component_error <= 0.1


def test_reproduce_error_scales_linearly_in_weak_regime():
    errs = [reproduce(dt_scale=s).max_component_error for s in (0.002, 0.001)]
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)


def test_reproduce_is_deterministic_under_noise():
    a = reproduce(dt_scale=0.01, noise=0.02, seed=7)
    b = reproduce(dt_scale=0.01, noise=0.02, seed=7)
    assert a.error_mean == b.error_mean
    assert a.error_std == b.error_std


def test_two_pi_convention_changes_result():
    plain = reproduce()
    scaled = reproduce(angular_scale=2.0 * np.pi)
    assert plain.error_std != scaled.error_std
