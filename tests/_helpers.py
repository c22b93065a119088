"""Shared random generators and independent oracles for the test suite.

The oracles deliberately avoid the library's code paths: partial traces
by explicit index summation, matrix exponentials by truncated series,
weak values by explicit spinors, sensitivities by finite differences.
The one-run shorthands at the end do call the library: they are row 0
of its stacked calls.
"""

from __future__ import annotations

import numpy as np

from weakspin import CouplingTensor, Records, Runs, run_protocol
from weakspin.protocol import first_order_series

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_unit(rng, n=None):
    v = rng.normal(size=3 if n is None else (n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_bloch(rng):
    """Uniform in the unit ball."""
    return random_unit(rng) * rng.uniform() ** (1.0 / 3.0)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_coupling(rng, max_abs=10.0):
    m = rng.uniform(-max_abs, max_abs, size=(3, 3))
    return CouplingTensor.from_matrix((m + m.T) / 2.0)


def ptrace_by_index_sum(rho, keep):
    """Partial trace as an explicit double sum over basis indices."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == "target":
                    out[i, j] += rho[2 * i + k, 2 * j + k]
                else:
                    out[i, j] += rho[2 * k + i, 2 * k + j]
    return out


def expm_series(h, t, terms=40):
    """Truncated Taylor series of exp(-i*h*t)."""
    a = -1j * np.asarray(h, dtype=complex) * t
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def spinor_from_bloch(v):
    """Unit spinor with Bloch vector v (|v| = 1)."""
    theta = np.arccos(np.clip(v[2], -1.0, 1.0))
    phi = np.arctan2(v[1], v[0])
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)]
    )


def weak_value_by_spinors(r_i, r_f):
    """<f|sigma|i>/<f|i> with explicit spinors (pure states only)."""
    ket_i = spinor_from_bloch(np.asarray(r_i, dtype=float))
    ket_f = spinor_from_bloch(np.asarray(r_f, dtype=float))
    overlap = ket_f.conj() @ ket_i
    return np.array(
        [ket_f.conj() @ (s @ ket_i) for s in (SX, SY, SZ)]
    ) / overlap


def model_error_by_series(r_i, p, q, g_matrix, times):
    """Delta(t) = |E_exact - E_first_order| without local fields.

    The exact side builds H = sum g[mu,nu] sigma_mu (x) sigma_nu from
    Kronecker products, propagates rho_t (x) rho_p with the truncated
    series and reads r_f and E(q.sigma_p) off index-sum partial traces.
    The model side is q.p + 2t [(p x q).g.Re(w) + (q - (q.p) p).g.Im(w)]
    with the weak value w = (r_i + r_f + i r_i x r_f)/(1 + r_i.r_f).
    """
    r_i, p, q = (np.asarray(v, dtype=float) for v in (r_i, p, q))
    g_matrix = np.asarray(g_matrix, dtype=float)
    paulis = (SX, SY, SZ)
    h = sum(
        g_matrix[mu, nu] * np.kron(paulis[mu], paulis[nu])
        for mu in range(3)
        for nu in range(3)
    )
    eye = np.eye(2, dtype=complex)
    phi1 = np.kron(
        (eye + sum(r_i[a] * paulis[a] for a in range(3))) / 2.0,
        (eye + sum(p[a] * paulis[a] for a in range(3))) / 2.0,
    )
    q_sigma = sum(q[a] * paulis[a] for a in range(3))
    out = np.empty(len(times))
    for k, t in enumerate(times):
        u = expm_series(h, t)
        phi2 = u @ phi1 @ u.conj().T
        rho_t = ptrace_by_index_sum(phi2, "target")
        rho_p = ptrace_by_index_sum(phi2, "probe")
        r_f = np.array([np.trace(rho_t @ s).real for s in paulis])
        exact = np.trace(rho_p @ q_sigma).real
        denom = 1.0 + r_i @ r_f
        w_re = (r_i + r_f) / denom
        w_im = np.cross(r_i, r_f) / denom
        qp = q @ p
        model = qp + 2.0 * t * (
            np.cross(p, q) @ g_matrix @ w_re + (q - qp * p) @ g_matrix @ w_im
        )
        out[k] = abs(exact - model)
    return out


def outcome_by_series(r_i, p, q_tilde, g_matrix, field_t, field_p, t):
    """(r_f, q, E) of one run with local fields, without the library.

    H_tot is assembled from Kronecker products of the coupling and the
    fields f.sigma, rho_t (x) rho_p is propagated with the truncated
    series, r_f and E(q_tilde.sigma_p) are read off index-sum partial
    traces, and the local rotations are undone with series exponentials
    exp(+i f.sigma t) of each spin's field.
    """
    paulis = (SX, SY, SZ)
    eye = np.eye(2, dtype=complex)

    def dot(v):
        return sum(v[a] * paulis[a] for a in range(3))

    h_t, h_p = dot(field_t), dot(field_p)
    h = np.kron(h_t, eye) + np.kron(eye, h_p) + sum(
        g_matrix[mu, nu] * np.kron(paulis[mu], paulis[nu])
        for mu in range(3)
        for nu in range(3)
    )
    phi1 = np.kron((eye + dot(r_i)) / 2.0, (eye + dot(p)) / 2.0)
    u = expm_series(h, t)
    phi2 = u @ phi1 @ u.conj().T
    rho_t = ptrace_by_index_sum(phi2, "target")
    rho_p = ptrace_by_index_sum(phi2, "probe")
    expectation = np.trace(rho_p @ dot(q_tilde)).real
    undo_t, undo_p = expm_series(h_t, -t), expm_series(h_p, -t)
    rho_t = undo_t @ rho_t @ undo_t.conj().T
    q_op = undo_p @ dot(q_tilde) @ undo_p.conj().T
    r_f = np.array([np.trace(rho_t @ s).real for s in paulis])
    q = np.array([np.trace(q_op @ s).real for s in paulis]) / 2.0
    return r_f, q, expectation


def strict_local_minima(times, values, t_min):
    """Grid times at or beyond t_min where values dip below both neighbours."""
    return {
        float(times[i])
        for i in range(1, len(times) - 1)
        if times[i] >= t_min and values[i] < values[i - 1] and values[i] < values[i + 1]
    }


def one_run(r_i, p, q_tilde, dt) -> Runs:
    return Runs(r_i=[r_i], p=[p], q_tilde=[q_tilde], dt=[dt])


def run_one(r_i, p, q_tilde, dt, g, locals_=None):
    """(r_f, q, expectation) of one run at dt: row 0 of run_protocol."""
    r_f, q, expectation = run_protocol(one_run(r_i, p, q_tilde, dt), g, locals_)
    return r_f[0], q[0], float(expectation[0])


def model_one(r_i, r_f, p, q, dt, g) -> float:
    """The first-order model at one (run, time): entry 0 of a one-time series."""
    return float(first_order_series(r_i, [r_f], p, [q], [dt], g)[0])


def records_of(rows) -> Records:
    """Records from (r_i, r_f, p, q, dt, expectation) rows."""
    return Records(*(np.array(column, dtype=float) for column in zip(*rows)))
