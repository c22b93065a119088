"""Independent physics used to check the CLI's outputs.

Nothing here imports weakspin.  The two-spin generator is assembled from
explicit Kronecker products, the propagator is a scaled-and-squared
Taylor series instead of an eigendecomposition, partial traces are
index sums, and the first-order response model and estimator rows are
re-derived from the formulas in the protocol and estimator docstrings.
"""

from __future__ import annotations

import numpy as np

LABELS = ("xx", "yy", "zz", "xy", "xz", "yz")
PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
SIGMA = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
EYE2 = np.eye(2, dtype=complex)
EPS_ORTH = 1e-6
TAYLOR_TERMS = 18


def tensor_matrix(components: dict) -> np.ndarray:
    """Symmetric 3x3 matrix from the six labelled components of a config."""
    m = np.zeros((3, 3))
    for label, (a, b) in zip(LABELS, PAIRS):
        m[a, b] = m[b, a] = float(components[label])
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b written out element by element."""
    out = np.empty((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


def field_op(v) -> np.ndarray:
    return sum(float(v[a]) * SIGMA[a] for a in range(3))


def h_total(g: np.ndarray, field_t, field_p) -> np.ndarray:
    h = kron(field_op(field_t), EYE2) + kron(EYE2, field_op(field_p))
    for mu in range(3):
        for nu in range(3):
            h = h + g[mu, nu] * kron(SIGMA[mu], SIGMA[nu])
    return h


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) by Taylor series on a scaled argument, then squaring."""
    a = -1j * t * np.asarray(h, dtype=complex)
    norm = np.abs(a).sum(axis=0).max()
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    a = a / 2.0**squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = out.copy()
    for k in range(1, TAYLOR_TERMS + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def ptrace(rho: np.ndarray, keep: str) -> np.ndarray:
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == "target":
                    out[i, j] += rho[2 * i + k, 2 * j + k]
                else:
                    out[i, j] += rho[2 * k + i, 2 * k + j]
    return out


def bloch(rho: np.ndarray) -> np.ndarray:
    return np.array([np.trace(rho @ SIGMA[a]).real for a in range(3)])


def density(v) -> np.ndarray:
    return (EYE2 + field_op(v)) / 2.0


def exact_run(g, field_t, field_p, r_i, p, q_tilde, t):
    """Corrected (r_f, q) and raw probe expectation of one run at time t."""
    phi1 = kron(density(r_i), density(p))
    u = propagator(h_total(g, field_t, field_p), t)
    phi2 = u @ phi1 @ u.conj().T
    rho_t, rho_p = ptrace(phi2, "target"), ptrace(phi2, "probe")
    meas = field_op(q_tilde)
    e = float(np.trace(meas @ rho_p).real)
    undo_t = propagator(field_op(field_t), -t)
    undo_p = propagator(field_op(field_p), -t)
    r_f = bloch(undo_t @ rho_t @ undo_t.conj().T)
    q = bloch(undo_p @ meas @ undo_p.conj().T) / 2.0
    return r_f, q, e


def first_order(r_i, r_f, p, q, t, g) -> float:
    """q.p + sum_mu 2t[((q x n_mu).p)(r_i+r_f)_mu + (n_mu.q - (n_mu.p)(q.p))(r_i x r_f)_mu]/D."""
    r_i, r_f, p, q = (np.asarray(x, dtype=float) for x in (r_i, r_f, p, q))
    d = 1.0 + r_i @ r_f
    qp = q @ p
    cross_if = np.cross(r_i, r_f)
    total = qp
    for mu in range(3):
        n = g[:, mu]
        total += (
            2.0 * t
            * (np.cross(q, n) @ p * (r_i[mu] + r_f[mu]) + (n @ q - (n @ p) * qp) * cross_if[mu])
            / d
        )
    return float(total)


def model_error(g, field_t, field_p, r_i, p, q_tilde, t) -> float:
    """Delta(t) = |exact - first-order|, NaN at near-orthogonal post-selection."""
    r_f, q, e = exact_run(g, field_t, field_p, r_i, p, q_tilde, t)
    if 1.0 + np.dot(r_i, r_f) < EPS_ORTH:
        return float("nan")
    return abs(e - first_order(r_i, r_f, p, q, t, g))


def design_row(r_i, r_f, p, q) -> np.ndarray:
    r_i, r_f, p, q = (np.asarray(x, dtype=float) for x in (r_i, r_f, p, q))
    c = np.outer(np.cross(p, q), r_i + r_f)
    c = c + np.outer(q - p * (q @ p), np.cross(r_i, r_f))
    return np.array([c[a, b] if a == b else c[a, b] + c[b, a] for a, b in PAIRS])


def solve_records(records: list[dict]) -> tuple[np.ndarray, float]:
    """Least-squares tensor components and condition number from record dicts."""
    a = np.array([design_row(r["r_i"], r["r_f"], r["p"], r["q"]) for r in records])
    zeta = np.array(
        [
            (r["expectation"] - np.dot(r["q"], r["p"]))
            * (1.0 + np.dot(r["r_i"], r["r_f"]))
            / (2.0 * r["dt"])
            for r in records
        ]
    )
    xi, *_ = np.linalg.lstsq(a, zeta, rcond=None)
    return xi, float(np.linalg.cond(a))
