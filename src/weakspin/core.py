"""Dense linear algebra for one- and two-qubit operators.

Everything in this module works on plain complex numpy arrays: 2x2
matrices for a single spin, 4x4 for a pair in target (x) probe ordering
with the computational basis |0> = spin-up along +z.  States are either
Bloch vectors r (real 3-vectors, |r| <= 1) or density matrices
rho = (I + r.sigma)/2.  Time evolution is generated by Hamiltonians in
rad/us acting over times in us, so exp(-i*H*t) is dimensionless.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12
BLOCH_NORM_ATOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2, PAULIS):
    _m.flags.writeable = False


class DimensionMismatchError(ValueError):
    """Operator or state has the wrong shape for the requested operation."""


class InvalidStateError(ValueError):
    """Input violates a state invariant (finiteness, Bloch norm, symmetry)."""


class NonHermitianError(ValueError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class ParameterError(ValueError):
    """Scalar parameter out of its admissible range."""


def is_hermitian(matrix: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    matrix = np.asarray(matrix)
    return bool(np.max(np.abs(matrix - matrix.conj().T)) <= atol)


def pauli_dot(v) -> np.ndarray:
    """Contract a real 3-vector with the Pauli vector: v.sigma.

    Returns the 2x2 Hermitian traceless matrix v_x*sx + v_y*sy + v_z*sz.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatchError(f"expected a 3-vector, got shape {v.shape}")
    return np.tensordot(v, PAULIS, axes=1)


def bloch_to_density(v) -> np.ndarray:
    """Single-spin density matrix (I + v.sigma)/2 of a Bloch vector.

    Raises InvalidStateError if |v| > 1 beyond tolerance; mixed states
    (|v| < 1) are fine.
    """
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm > 1.0 + BLOCH_NORM_ATOL:
        raise InvalidStateError(f"Bloch vector norm {norm} exceeds 1")
    return (IDENTITY_2 + pauli_dot(v)) / 2.0


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector of a 2x2 density matrix, components Tr(rho sigma_mu)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionMismatchError(f"expected a 2x2 matrix, got shape {rho.shape}")
    return np.einsum("ij,aji->a", rho, PAULIS).real


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b in target (x) probe ordering."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise DimensionMismatchError(
            f"expected two 2x2 matrices, got {a.shape} and {b.shape}"
        )
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduce a two-spin density matrix to one spin.

    keep="target" traces out the probe (second factor), keep="probe"
    traces out the target.  Trace is preserved; for a product state the
    kept factor is returned exactly.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got shape {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "target":
        return np.einsum("ipjp->ij", r)
    if keep == "probe":
        return np.einsum("ipiq->pq", r)
    raise ValueError(f"keep must be 'target' or 'probe', got {keep!r}")


def herm_exp(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i*h*t) of a Hermitian generator via eigendecomposition.

    h is in rad/us and t in us.  Exact unitarity up to eigensolver
    accuracy; no step-size or scaling-and-squaring tuning involved.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise NonHermitianError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T
