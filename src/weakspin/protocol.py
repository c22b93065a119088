"""Forward simulation of the weak spin-coupling measurement protocol.

A target spin prepared in Bloch state r_i and a probe spin prepared in
p interact for a short time dt under

    H_tot = H_t (x) I + I (x) H_p + sum_{mu,nu} g[mu,nu] sigma_mu (x) sigma_nu

with a symmetric coupling tensor g (rad/us, numerically equal to the
coupling strengths in MHz).  After the exact evolution

    Phi2 = exp(-i H_tot dt) Phi1 exp(+i H_tot dt),   Phi1 = rho_t (x) rho_p,

the target's reduced state is read out (ideal tomography) and the probe
is measured along a unit axis q_tilde.  The known single-spin dynamics
is then removed by conjugating the target state and the measurement
axis with exp(+i H_t dt) / exp(+i H_p dt), yielding the corrected pair
(r_f, q) that enters the linear response model.

Phi2 itself is never formed.  Each read-out is Tr(O Phi2(t)) for
O = sigma_mu (x) I (the target's Bloch vector) or I (x) q_tilde.sigma
(the probe expectation), and with H_tot = V diag(w) V^dag and primes
for the eigenbasis it is a finite Fourier sum,

    Tr(O Phi2(t)) = sum_ab c_ab exp(-i (w_a - w_b) t),   c_ab = O'[b, a] Phi1'[a, b]
                  = sum_a c_aa + sum_{a<b} 2 [Re c_ab cos + Im c_ab sin]((w_a - w_b) t),

whose 4 diagonal and 6 pair terms are added elementwise in that fixed
order.  A local Hamiltonian h0 I + f.sigma turns a Bloch vector by
2|f|t about f, so its undo is the closed-form rotation of r_f (target
field) and q_tilde (probe field) by -2|f|t about f (Rodrigues' formula).

To first order in dt the measured probe expectation is

    E(q.sigma_p) ~ q.p + sum_mu 2 dt [ {(q x n_mu).p} (r_i + r_f)_mu
                   + {n_mu.q - (n_mu.p)(q.p)} (r_i x r_f)_mu ] / (1 + r_i.r_f)

where n_mu is the mu-th column of g.  The bracketed combination is the
real/imaginary split of the spin weak value
(r_i + r_f + i r_i x r_f)/(1 + r_i.r_f), which diverges for orthogonal
pre/post-selection; operations guard the denominator with EPS_ORTH.

Runs holds the controlled parameters of N runs as arrays, one run per
row, validated once when built; a fault names its first bad row as
runs[k].  A single run is a one-row stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BLOCH_NORM_ATOL,
    IDENTITY_2,
    PAULIS,
    DimensionMismatchError,
    InvalidStateError,
    ParameterError,
    is_hermitian,
    pauli_dot,
    tensor_product,
)

# Packing order of the six independent components of a symmetric tensor.
OMEGA = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
OMEGA_LABELS = ("xx", "yy", "zz", "xy", "xz", "yz")

# Reject post-selections with 1 + r_i.r_f below this: the response model
# diverges and the corresponding estimator rows blow up.
EPS_ORTH = 1e-6


class OrthogonalPostSelectionError(ValueError):
    """Post-selection too close to orthogonal for the response model."""


def _as_vec3(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatchError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidStateError(f"{name} has non-finite components")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class CouplingTensor:
    """Symmetric 3x3 spin-spin coupling tensor, stored as 6 components.

    values holds (g_xx, g_yy, g_zz, g_xy, g_xz, g_yz) in MHz under the
    convention that the numbers are used directly as angular frequencies
    in rad/us.  The full matrix is materialized on demand.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (6,):
            raise DimensionMismatchError(
                f"expected 6 components {OMEGA_LABELS}, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidStateError("coupling components must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def zero(cls) -> "CouplingTensor":
        return cls(np.zeros(6))

    @classmethod
    def from_matrix(cls, matrix, atol: float = 1e-12) -> "CouplingTensor":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (3, 3):
            raise DimensionMismatchError(f"expected 3x3, got shape {matrix.shape}")
        if np.max(np.abs(matrix - matrix.T)) > atol:
            raise InvalidStateError("coupling matrix is not symmetric")
        return cls(np.array([matrix[a, b] for a, b in OMEGA]))

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros((3, 3))
        for j, (a, b) in enumerate(OMEGA):
            m[a, b] = m[b, a] = self.values[j]
        return m

    def column(self, mu: int) -> np.ndarray:
        """Column n_mu of the tensor (equal to row mu by symmetry)."""
        return self.matrix[:, mu]

    def scaled(self, factor: float) -> "CouplingTensor":
        return CouplingTensor(self.values * factor)


@dataclass(frozen=True, eq=False)
class LocalHamiltonians:
    """Known single-spin Hamiltonians of target and probe, in rad/us."""

    h_target: np.ndarray
    h_probe: np.ndarray

    def __post_init__(self):
        for name in ("h_target", "h_probe"):
            h = np.asarray(getattr(self, name), dtype=complex)
            if h.shape != (2, 2):
                raise DimensionMismatchError(f"{name} must be 2x2, got {h.shape}")
            if not is_hermitian(h):
                raise InvalidStateError(f"{name} is not Hermitian")
            h = h.copy()
            h.flags.writeable = False
            object.__setattr__(self, name, h)

    @classmethod
    def zero(cls) -> "LocalHamiltonians":
        return cls(np.zeros((2, 2)), np.zeros((2, 2)))

    @classmethod
    def from_fields(cls, target=(0.0, 0.0, 0.0), probe=(0.0, 0.0, 0.0)) -> "LocalHamiltonians":
        """Build h.sigma Hamiltonians from effective field 3-vectors."""
        return cls(pauli_dot(target), pauli_dot(probe))

    @property
    def is_zero(self) -> bool:
        return not (np.any(self.h_target) or np.any(self.h_probe))


def _freeze_rows(obj, vectors: tuple[str, ...], scalars: tuple[str, ...]) -> None:
    """Set obj's fields to read-only float copies: vectors (N, 3), scalars (N,)."""
    n = None
    for name in vectors + scalars:
        v = np.array(getattr(obj, name), dtype=float)
        if n is None:
            if v.ndim != 2 or v.shape[1] != 3:
                raise DimensionMismatchError(
                    f"{name} must be an (N, 3) stack, got shape {v.shape}"
                )
            n = len(v)
        want = (n, 3) if name in vectors else (n,)
        if v.shape != want:
            raise DimensionMismatchError(f"{name} must have shape {want}, got {v.shape}")
        v.flags.writeable = False
        object.__setattr__(obj, name, v)


def _state_checks(v: np.ndarray, name: str, *, bloch: bool = False) -> list:
    """Row checks of an (N, 3) stack: finite components and, for a state, norm <= 1."""
    checks = [(~np.isfinite(v).all(axis=1), InvalidStateError,
               lambda k: f"{name} has non-finite components")]
    if bloch:
        norm = np.sqrt(_dot3(v, v))
        checks.append((norm > 1.0 + BLOCH_NORM_ATOL, InvalidStateError,
                       lambda k: f"{name} norm {norm[k]} exceeds 1"))
    return checks


def _check_rows(label: str, checks) -> None:
    """Raise for the first row that fails a check, as "label[k]: ...".

    checks lists (bad, error, message) in the order a one-row validation
    runs them: bad is an (N,) mask, error the exception type and
    message(k) the text for row k.  The first row's first failing check
    is raised.
    """
    bad = np.logical_or.reduce([c[0] for c in checks])
    if bad.any():
        k = int(np.argmax(bad))
        _, error, message = next(c for c in checks if c[0][k])
        raise error(f"{label}[{k}]: {message(k)}")


@dataclass(frozen=True, eq=False)
class Runs:
    """Controlled parameters of N protocol executions, one run per row.

    r_i and p are the target/probe preparation Bloch vectors (norm <= 1)
    and q_tilde the unit measurement axes in the lab frame, each (N, 3);
    dt holds the interaction times in us, (N,).  A single run is a
    one-row stack.
    """

    r_i: np.ndarray
    p: np.ndarray
    q_tilde: np.ndarray
    dt: np.ndarray

    def __post_init__(self):
        _freeze_rows(self, ("r_i", "p", "q_tilde"), ("dt",))
        with np.errstate(invalid="ignore", over="ignore"):
            q_norm = np.sqrt(_dot3(self.q_tilde, self.q_tilde))
            _check_rows("runs", [
                *_state_checks(self.r_i, "r_i", bloch=True),
                *_state_checks(self.p, "p", bloch=True),
                *_state_checks(self.q_tilde, "q_tilde"),
                (np.abs(q_norm - 1.0) > BLOCH_NORM_ATOL, InvalidStateError,
                 lambda k: f"q_tilde norm {q_norm[k]} is not 1"),
                (~(self.dt > 0.0), ParameterError,
                 lambda k: f"dt must be positive, got {self.dt[k]}"),
            ])

    def __len__(self) -> int:
        return len(self.dt)


def build_interaction(g: CouplingTensor) -> np.ndarray:
    """Assemble the 4x4 interaction sum_{mu,nu} g[mu,nu] sigma_mu (x) sigma_nu."""
    m = g.matrix
    h = np.zeros((4, 4), dtype=complex)
    for mu in range(3):
        for nu in range(3):
            if m[mu, nu] != 0.0:
                h += m[mu, nu] * tensor_product(PAULIS[mu], PAULIS[nu])
    return h


def total_hamiltonian(g: CouplingTensor, locals_: LocalHamiltonians | None = None) -> np.ndarray:
    """Two-spin generator: local target + local probe + interaction."""
    h = build_interaction(g)
    if locals_ is not None and not locals_.is_zero:
        h = h + tensor_product(locals_.h_target, IDENTITY_2)
        h = h + tensor_product(IDENTITY_2, locals_.h_probe)
    return h


# H_tot spectra, rebuilt from the key's bytes alone so the key fixes the
# result; a design search reuses one spectrum for every run.
SPECTRUM_CACHE_SIZE = 16


@lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _cached_spectrum(g_bytes: bytes, locals_bytes: tuple[bytes, bytes] | None):
    g = CouplingTensor(np.frombuffer(g_bytes))
    locals_ = locals_bytes and LocalHamiltonians(
        *(np.frombuffer(b, dtype=complex).reshape(2, 2) for b in locals_bytes)
    )
    w, v = np.linalg.eigh(total_hamiltonian(g, locals_))
    w.flags.writeable = v.flags.writeable = False
    return w, v


def _spectrum(g: CouplingTensor, locals_: LocalHamiltonians | None):
    """Read-only eigendecomposition (w, v) of H_tot, memoized by content."""
    has_locals = locals_ is not None and not locals_.is_zero
    locals_bytes = (locals_.h_target.tobytes(), locals_.h_probe.tobytes()) if has_locals else None
    return _cached_spectrum(g.values.tobytes(), locals_bytes)


def run_protocol(
    runs: Runs,
    g: CouplingTensor,
    locals_: LocalHamiltonians | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Execute preparation, entangling evolution, readout and correction.

    Each run is evolved for its own dt.  The probe expectation is
    measured along the lab axis q_tilde; the returned r_f[N,3] and
    q[N,3] are the post-selected target states and measurement axes with
    the known single-spin rotations undone, so they feed the response
    model directly, with expectation[N].  With zero local Hamiltonians
    q == q_tilde and r_f is the raw tomography result.  This is the
    per-run-times case of run_protocol_series, with one time per run.
    """
    r_f, q, exp_vals = run_protocol_series(
        runs.r_i, runs.p, runs.q_tilde, g, locals_, runs.dt[:, None]
    )
    return r_f[:, 0], q[:, 0], exp_vals[:, 0]


def _vec3_rows(v, name: str) -> np.ndarray:
    """A 3-vector or an (N, 3) stack as N rows."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise DimensionMismatchError(
            f"{name} must be a 3-vector or an (N, 3) stack, got shape {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidStateError(f"{name} has non-finite components")
    return v.reshape(-1, 3)


def _pauli_rows(v: np.ndarray) -> np.ndarray:
    """Stacked v.sigma for the rows of v (each entry is one component, exactly)."""
    return (v @ _PAULI_ROWS).reshape(-1, 2, 2)


def _densities(v: np.ndarray, name: str) -> np.ndarray:
    """Stacked (I + v.sigma)/2 for the rows of v."""
    norm = np.sqrt(_dot3(v, v).max(initial=0.0))
    if norm > 1.0 + BLOCH_NORM_ATOL:
        raise InvalidStateError(f"{name} norm {norm} exceeds 1")
    return (IDENTITY_2 + _pauli_rows(v)) / 2.0


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[n] (x) b[n] for stacks of 2x2 matrices."""
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, 4, 4)


def _dot3(x, y) -> np.ndarray:
    """x.y over the last axis, as one fixed-order sum of three products.

    Each entry's bits depend on its own operands only, not on the shape
    or layout of the stack it sits in, as a BLAS product's would.
    """
    out = x[..., 0] * y[..., 0]
    out += x[..., 1] * y[..., 1]
    out += x[..., 2] * y[..., 2]
    return out


def _field_of(h: np.ndarray) -> np.ndarray:
    """Field f of a 2x2 Hamiltonian h = h0 I + f.sigma (h0 only shifts a phase)."""
    return np.einsum("ij,aji->a", h, PAULIS).real / 2.0


def _undo_field(h: np.ndarray, v: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Components (3, ...) of v rotated back through exp(+i h t).

    exp(-i f.sigma t) turns a Bloch vector by 2|f|t about f, so undoing
    it is the turn by -2|f|t, written out by Rodrigues' formula.
    """
    f = _field_of(h)
    norm = np.sqrt(f @ f)
    if norm == 0.0:
        return v
    k = f / norm
    angle = -2.0 * norm * times
    cos, sin = np.cos(angle), np.sin(angle)
    kv = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
    k_x_v = np.array(
        [k[1] * v[2] - k[2] * v[1], k[2] * v[0] - k[0] * v[2], k[0] * v[1] - k[1] * v[0]]
    )
    return v * cos + k_x_v * sin + np.multiply.outer(k, kv * (1.0 - cos))


_PAULI_ROWS = PAULIS.reshape(3, 4)
# sigma_mu (x) I: the target's Pauli operators on the pair
_TARGET_PAULIS = np.array([tensor_product(s, IDENTITY_2) for s in PAULIS])
_TARGET_PAULIS.flags.writeable = False
# eigenvalue pairs (a, b), a < b, in the order their terms are summed
_PAIR_A, _PAIR_B = np.triu_indices(4, k=1)


def _fourier_coefficients(r_i, p, q_tilde, v):
    """Per run, the terms of Tr(O Phi2(t)) for O = sigma_mu (x) I and I (x) q_tilde.sigma.

    In the eigenbasis v of H_tot, Tr(O Phi2(t)) = sum_ab c_ab exp(-i (w_a -
    w_b) t) with c_ab = O[b, a] Phi1[a, b] and Phi1 = rho_t (x) rho_p.
    Returns the sum of the diagonal terms, (4, N), and 2 c_ab for the
    pairs a < b, (4, N, 6): a pair's term plus its conjugate's is
    2 (Re c_ab cos + Im c_ab sin)((w_a - w_b) t).
    """
    n = len(r_i)
    pair = np.empty((n, 2, 4, 4), dtype=complex)
    pair[:, 0] = _kron_rows(_densities(r_i, "r_i"), _densities(p, "p"))
    pair[:, 1] = _kron_rows(IDENTITY_2[None], _pauli_rows(q_tilde))
    vh = v.conj().T
    pair = vh @ pair @ v
    obs_t = np.broadcast_to((vh @ _TARGET_PAULIS @ v)[:, None], (3, n, 4, 4))
    c = np.concatenate([obs_t, pair[None, :, 1]]).swapaxes(-1, -2) * pair[:, 0]
    diag = c[..., 0, 0].real + c[..., 1, 1].real + c[..., 2, 2].real + c[..., 3, 3].real
    return diag, 2.0 * c[..., _PAIR_A, _PAIR_B]


def run_protocol_series(
    r_i,
    p,
    q_tilde,
    g: CouplingTensor,
    locals_: LocalHamiltonians | None,
    times,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized protocol over a stack of runs and a grid of interaction times.

    r_i, p and q_tilde are 3-vectors, or (N, 3) stacks holding one run
    per row.  times is a (T,) grid shared by every run, or an (N, T)
    array holding each run's own times in its row.  One memoized
    eigendecomposition of H_tot serves all runs and times (and every call
    with the same g and locals_); each observable is a Fourier sum over
    its spectrum (see the module docstring), and the local-field undo is
    a closed-form rotation.  Returns (r_f[N,T,3], q[N,T,3],
    expectation[N,T]) for stacked input and (r_f[T,3], q[T,3],
    expectation[T]) for 3-vectors, with run_protocol's correction
    semantics.  Every step is elementwise or per run, so each (run, time)
    entry is bit-for-bit that of a one-run, one-time call.
    """
    stacked = max(np.ndim(r_i), np.ndim(p), np.ndim(q_tilde)) == 2
    r_i = _vec3_rows(r_i, "r_i")
    p = _vec3_rows(p, "p")
    q_tilde = _vec3_rows(q_tilde, "q_tilde")
    n = len(r_i)
    if len(p) != n or len(q_tilde) != n:
        raise DimensionMismatchError("r_i, p and q_tilde must stack the same number of runs")
    times = np.asarray(times, dtype=float)
    if times.ndim not in (1, 2) or times.shape[-1] == 0 or (times.ndim == 2 and len(times) != n):
        raise ParameterError(f"times must be non-empty, (T,) or ({n}, T), got shape {times.shape}")
    if not np.all(times > 0.0):
        raise ParameterError("all times must be positive")

    w, v = _spectrum(g, locals_)
    diag, c_pairs = _fourier_coefficients(r_i, p, q_tilde, v)
    theta = np.multiply.outer(w[_PAIR_A] - w[_PAIR_B], times)
    cos, sin = np.cos(theta), np.sin(theta)
    re, im = c_pairs.real[..., None], c_pairs.imag[..., None]
    values = np.empty((4, n, times.shape[-1]))
    values[...] = diag[..., None]
    term = np.empty_like(values)
    for j in range(len(_PAIR_A)):
        values += np.multiply(re[:, :, j], cos[j], out=term)
        values += np.multiply(im[:, :, j], sin[j], out=term)

    # values[k]: the target's Bloch vector for k < 3, E(q_tilde.sigma_p) for k = 3
    r_f, exp_vals = values[:3], values[3]
    q = np.broadcast_to(q_tilde.T.copy()[:, :, None], r_f.shape)
    if locals_ is not None and not locals_.is_zero:
        r_f = _undo_field(locals_.h_target, r_f, times)
        q = _undo_field(locals_.h_probe, q, times)
    # component-major storage, seen as (N, T, 3); without a probe field q
    # is a read-only view that repeats q_tilde over the times
    r_f, q = r_f.transpose(1, 2, 0), q.transpose(1, 2, 0)
    if stacked:
        return r_f, q, exp_vals
    return r_f[0], q[0], exp_vals[0]


def weak_value_sigma(r_i, r_f) -> np.ndarray:
    """Spin weak value (r_i + r_f + i r_i x r_f)/(1 + r_i.r_f).

    For pure states this equals <f|sigma|i>/<f|i>; the real part is
    symmetric and the imaginary part antisymmetric under swapping the
    pre- and post-selected vectors.
    """
    r_i = _as_vec3(r_i, "r_i")
    r_f = _as_vec3(r_f, "r_f")
    denom = 1.0 + float(np.dot(r_i, r_f))
    if denom < EPS_ORTH:
        raise OrthogonalPostSelectionError(
            f"1 + r_i.r_f = {denom} is below {EPS_ORTH}; post-selection too close"
            " to orthogonal"
        )
    return (r_i + r_f + 1j * np.cross(r_i, r_f)) / denom


def _first_order(r_i, r_f, p, q, times, g: CouplingTensor):
    """first_order_series without its guard: the (N, T) model and 1 + r_i.r_f.

    With u = p x q and v = q - (q.p) p the mu terms of the model sum to

        q.p + 2 dt [(g u).(r_i + r_f) + (g v).(r_i x r_f)] / (1 + r_i.r_f)
      = q.p + 2 dt [r_f.k + r_i.(g u)] / (1 + r_i.r_f),   k = g u + (g v) x r_i,

    where k depends on q and not on r_f, so a q of shape (N, 1, 3) that
    holds for every time is modelled once per run.  Every product is an
    elementwise fixed-order sum.
    """
    r_i = _vec3_rows(r_i, "r_i")[:, None]
    p = _vec3_rows(p, "p")[:, None]
    r_f = np.asarray(r_f, dtype=float).reshape(len(r_i), -1, 3)
    q = np.asarray(q, dtype=float).reshape(len(r_i), -1, 3)
    times = np.asarray(times, dtype=float).reshape(-1)
    m = g.matrix

    def g_dot(u):
        return np.stack([_dot3(m[mu], u) for mu in range(3)], axis=-1)

    qp = _dot3(q, p)
    gu = g_dot(np.cross(p, q))
    k = gu + np.cross(g_dot(q - p * qp[..., None]), r_i)
    denom = 1.0 + _dot3(r_f, r_i)
    # qp + 2 dt (r_f.k + r_i.(g u)) / denom, in place
    model = _dot3(r_f, k)
    model += _dot3(r_i, gu)
    model *= 2.0 * times
    with np.errstate(divide="ignore", invalid="ignore"):  # at invalid points only
        model /= denom
    model += qp
    return model, denom


def first_order_series(r_i, r_f, p, q, times, g: CouplingTensor) -> np.ndarray:
    """Linear response model for the corrected probe expectation.

    Evaluates q.p plus the weak-value correction linear in the coupling
    tensor at per-time (r_f, q); reduces to q.p at g = 0 and matches the
    exact dynamics to first order in dt for pure pre-selected states.
    r_i and p are 3-vectors with r_f and q of shape (T, 3), returning
    (T,); or (N, 3) stacks with r_f and q of shape (N, T, 3), returning
    (N, T).  Each entry is bit-for-bit that of a one-run, one-time call.
    """
    model, denom = _first_order(r_i, r_f, p, q, times, g)
    if np.any(denom < EPS_ORTH):
        raise OrthogonalPostSelectionError(
            "1 + r_i.r_f dropped below the orthogonality guard on the grid"
        )
    return model if np.ndim(r_i) == 2 else model[0]
