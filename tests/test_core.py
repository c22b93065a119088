import numpy as np
import pytest

from weakspin import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_density,
    density_to_bloch,
    herm_exp,
    partial_trace,
    pauli_dot,
    tensor_product,
)
from weakspin.core import (
    DimensionMismatchError,
    InvalidStateError,
    NonHermitianError,
)

from _helpers import (
    expm_series,
    ptrace_by_index_sum,
    random_bloch,
    random_density,
    random_hermitian,
    random_unit,
)


def test_pauli_dot_z_axis():
    assert np.array_equal(pauli_dot((0, 0, 1)), np.diag([1.0 + 0j, -1.0]))


def test_pauli_dot_zero_vector():
    assert np.array_equal(pauli_dot((0, 0, 0)), np.zeros((2, 2)))


def test_pauli_dot_diagonal_direction_eigenvalues():
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    eigs = np.linalg.eigvalsh(pauli_dot(v))
    assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)


def test_pauli_dot_linear_traceless_hermitian():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        lhs = pauli_dot(2.0 * a - 3.0 * b)
        rhs = 2.0 * pauli_dot(a) - 3.0 * pauli_dot(b)
        assert np.allclose(lhs, rhs, atol=1e-12)
        m = pauli_dot(a)
        assert abs(np.trace(m)) < 1e-12
        assert np.allclose(m, m.conj().T, atol=1e-12)


def test_bloch_to_density_poles():
    assert np.allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(bloch_to_density((0, 0, 0)), IDENTITY_2 / 2.0, atol=1e-15)


def test_bloch_to_density_components_and_purity():
    # published probe vector, unit-normalized before use
    v = np.array([0.0, 0.59, 0.81])
    v = v / np.linalg.norm(v)
    rho = bloch_to_density(v)
    assert np.isclose(np.trace(rho @ SIGMA_Y).real, v[1], atol=1e-12)
    assert np.isclose(np.trace(rho @ SIGMA_Z).real, v[2], atol=1e-12)
    purity = np.trace(rho @ rho).real
    assert np.isclose(purity, (1.0 + v @ v) / 2.0, atol=1e-12)


def test_bloch_to_density_rejects_overlong_vector():
    with pytest.raises(InvalidStateError):
        bloch_to_density((0.0, 0.59, 0.81))  # norm 1.002, not a state


def test_density_to_bloch_known_states():
    assert np.allclose(density_to_bloch(IDENTITY_2 / 2.0), np.zeros(3), atol=1e-15)
    assert np.allclose(density_to_bloch(np.diag([1.0, 0.0])), [0, 0, 1], atol=1e-15)


def test_density_to_bloch_dimension_error():
    with pytest.raises(DimensionMismatchError):
        density_to_bloch(np.eye(4) / 4.0)


def test_bloch_round_trip_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = random_bloch(rng)
        assert np.allclose(density_to_bloch(bloch_to_density(v)), v, atol=1e-12)


def test_tensor_product_identities():
    assert np.array_equal(tensor_product(IDENTITY_2, IDENTITY_2), np.eye(4))
    assert np.array_equal(
        tensor_product(SIGMA_Z, SIGMA_Z), np.diag([1.0 + 0j, -1, -1, 1])
    )


def test_tensor_product_trace_factorizes():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    assert np.isclose(
        np.trace(tensor_product(a, b)), np.trace(a) * np.trace(b), atol=1e-12
    )


def test_tensor_product_pauli_square_trace():
    m = tensor_product(SIGMA_X, SIGMA_Y)
    assert np.isclose(np.trace(m @ m).real, 4.0, atol=1e-12)


def test_tensor_product_dimension_error():
    with pytest.raises(DimensionMismatchError):
        tensor_product(np.eye(4), np.eye(2))


def test_partial_trace_product_state():
    rng = np.random.default_rng(4)
    rho_t = random_density(rng, 2)
    rho_p = random_density(rng, 2)
    pair = np.kron(rho_t, rho_p)
    assert np.allclose(partial_trace(pair, "target"), rho_t, atol=1e-12)
    assert np.allclose(partial_trace(pair, "probe"), rho_p, atol=1e-12)


def test_partial_trace_bell_state():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    for keep in ("target", "probe"):
        assert np.allclose(partial_trace(rho, keep), np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_matches_index_sum():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rho = random_density(rng, 4)
        for keep in ("target", "probe"):
            assert np.allclose(
                partial_trace(rho, keep), ptrace_by_index_sum(rho, keep), atol=1e-12
            )


def test_partial_trace_bad_keep_flag():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4.0, "both")


def test_herm_exp_zero_time_is_identity():
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 4)
    assert np.allclose(herm_exp(h, 0.0), np.eye(4), atol=1e-12)


def test_herm_exp_diagonal_generator():
    u = herm_exp(SIGMA_Z, np.pi / 2.0)
    expected = np.diag([np.exp(-1j * np.pi / 2.0), np.exp(1j * np.pi / 2.0)])
    assert np.allclose(u, expected, atol=1e-12)


def test_herm_exp_matches_series_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = random_hermitian(rng, 4)
        assert np.allclose(herm_exp(h, 0.1), expm_series(h, 0.1), atol=1e-10)


def test_herm_exp_unitarity_and_group_property():
    rng = np.random.default_rng(8)
    for _ in range(25):
        h = random_hermitian(rng, 4)
        t = rng.uniform(-10.0, 10.0)
        s = rng.uniform(-10.0, 10.0)
        u = herm_exp(h, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10
        assert np.allclose(
            herm_exp(h, s + t), herm_exp(h, s) @ herm_exp(h, t), atol=1e-10
        )


def test_herm_exp_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        herm_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_evolution_preserves_spectrum_trace_hermiticity():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 4)
    rho = random_density(rng, 4)
    u = herm_exp(h, 3.7)
    evolved = u @ rho @ u.conj().T
    assert np.isclose(np.trace(evolved), 1.0, atol=1e-10)
    assert np.max(np.abs(evolved - evolved.conj().T)) < 1e-10
    assert np.allclose(
        np.linalg.eigvalsh(evolved), np.linalg.eigvalsh(rho), atol=1e-10
    )


def test_expectation_bloch_inner_product():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_bloch(rng)
        q = random_unit(rng)
        val = np.trace(pauli_dot(q) @ bloch_to_density(p))
        assert val == pytest.approx(float(q @ p), abs=1e-12)
