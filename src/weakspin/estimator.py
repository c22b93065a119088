"""Linear inversion of measured protocol records into a coupling tensor.

Each record contributes one equation.  With D = 1 + r_i.r_f the scaled
signal

    zeta = (E(q.sigma_p) - q.p) * D / (2 dt)

is, to first order, a linear functional of the six independent tensor
components xi = (g_xx, g_yy, g_zz, g_xy, g_xz, g_yz):

    zeta = sum_j A_j xi_j,
    A via C[a,b] = (p x q)_a (r_i + r_f)_b + {q - p (q.p)}_a (r_i x r_f)_b,

where diagonal components take C[mu,mu] and off-diagonal ones the
symmetrized sum C[mu,nu] + C[nu,mu], because a symmetric tensor feeds
both index placements of the response.  Six independent records give a
square solve; more give least squares.  The row coefficients equal the
partial derivatives of the response model with respect to the stored
tensor components, which the test suite checks by central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidStateError
from .protocol import (
    EPS_ORTH,
    OMEGA,
    CouplingTensor,
    LocalHamiltonians,
    ProtocolRun,
    RunOutcome,
    _as_bloch,
    _as_vec3,
    _dot3,
    run_protocol_series,
)

KAPPA_MAX_DEFAULT = 1e8


class InvalidRecordError(InvalidStateError):
    """Record violates an invariant and must not enter the system."""


class InsufficientDataError(ValueError):
    """Fewer records than unknown tensor components."""


class IllConditionedDesignError(RuntimeError):
    """Design matrix condition number exceeds the configured cap."""

    def __init__(self, condition_number: float, kappa_max: float):
        self.condition_number = condition_number
        self.kappa_max = kappa_max
        super().__init__(
            f"design matrix condition number {condition_number:.3e} exceeds"
            f" cap {kappa_max:.1e}"
        )


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    """One protocol run's controlled parameters and measured outcomes."""

    r_i: np.ndarray
    r_f: np.ndarray
    p: np.ndarray
    q: np.ndarray
    dt: float
    expectation: float

    def __post_init__(self):
        # prepared states must lie in the Bloch ball; a measured r_f is
        # not checked, since simulated noise can push it just outside
        checks = (("r_i", _as_bloch), ("r_f", _as_vec3), ("p", _as_bloch), ("q", _as_vec3))
        for name, check in checks:
            object.__setattr__(self, name, check(getattr(self, name), name))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "expectation", float(self.expectation))
        denom = 1.0 + float(np.dot(self.r_i, self.r_f))
        if denom < EPS_ORTH:
            raise InvalidRecordError(
                f"1 + r_i.r_f = {denom} is below the orthogonality guard"
            )
        if not self.dt > 0.0:
            raise InvalidRecordError(f"dt must be positive, got {self.dt}")
        if not abs(self.expectation) <= 1.0 + 1e-9:  # NaN fails this too
            raise InvalidRecordError(
                f"expectation {self.expectation} outside [-1, 1]"
            )


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Recovered tensor plus diagnostics of the solve."""

    g_est: CouplingTensor
    condition_number: float
    residual_norm: float


def record_from_run(run: ProtocolRun, outcome: RunOutcome) -> ExperimentRecord:
    """Pack a forward-simulated run and its outcome into a record."""
    return ExperimentRecord(
        r_i=run.r_i,
        r_f=outcome.r_f,
        p=run.p,
        q=outcome.q,
        dt=run.dt,
        expectation=outcome.expectation,
    )


def simulate_records(
    runs,
    g: CouplingTensor,
    locals_: LocalHamiltonians | None,
    noise: float,
    rng: np.random.Generator,
) -> list[ExperimentRecord]:
    """Forward-simulate runs into records, optionally with Gaussian noise.

    All runs go through one engine call, each at its own dt.  Noise
    (std = noise) perturbs each r_f and then the expectation, which is
    clipped to [-1, 1]; draws are taken from rng in run order.
    """
    runs = list(runs)
    if not runs:
        return []
    r_i, p, q_tilde, dts = (
        np.array([getattr(run, k) for run in runs]) for k in ("r_i", "p", "q_tilde", "dt")
    )
    r_f, q, exp_vals = run_protocol_series(r_i, p, q_tilde, g, locals_, dts[:, None])
    records = []
    for run, r_f_k, q_k, exp_val in zip(runs, r_f[:, 0], q[:, 0], exp_vals[:, 0]):
        exp_val = float(exp_val)
        if noise > 0.0:
            r_f_k = r_f_k + rng.normal(scale=noise, size=3)
            exp_val = float(np.clip(exp_val + rng.normal(scale=noise), -1.0, 1.0))
        records.append(record_from_run(run, RunOutcome(r_f_k, q_k, exp_val)))
    return records


def build_rows(r_i, r_f, p, q) -> np.ndarray:
    """Sensitivity rows of K records, from (K, 3) stacks of their vectors."""
    c = np.cross(p, q)[:, :, None] * (r_i + r_f)[:, None, :]
    c += (q - p * _dot3(q, p)[:, None])[:, :, None] * np.cross(r_i, r_f)[:, None, :]
    a, b = np.transpose(OMEGA)
    # C order, as row-by-row assembly gave: a product with the matrix
    # sums in an order set by its layout
    return np.ascontiguousarray(np.where(a == b, c[:, a, b], c[:, a, b] + c[:, b, a]))


def build_row(rec: ExperimentRecord) -> np.ndarray:
    """Sensitivity row mapping the six tensor components to zeta."""
    return build_rows(rec.r_i[None], rec.r_f[None], rec.p[None], rec.q[None])[0]


def build_system(records) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the k x 6 design matrix and scaled-signal vector."""
    records = list(records)
    if len(records) < 6:
        raise InsufficientDataError(
            f"need at least 6 records, got {len(records)}"
        )
    r_i, r_f, p, q = (
        np.array([getattr(rec, name) for rec in records]) for name in ("r_i", "r_f", "p", "q")
    )
    dt = np.array([rec.dt for rec in records])
    expectation = np.array([rec.expectation for rec in records])
    denom = 1.0 + np.matmul(r_i[:, None, :], r_f[:, :, None])[:, 0, 0]
    qp = np.matmul(q[:, None, :], p[:, :, None])[:, 0, 0]
    zeta = (expectation - qp) * denom / (2.0 * dt)
    return build_rows(r_i, r_f, p, q), zeta


def solve(
    a: np.ndarray,
    zeta: np.ndarray,
    *,
    kappa_max: float = KAPPA_MAX_DEFAULT,
) -> EstimationResult:
    """Invert the linear system into a symmetric coupling tensor.

    Square systems are solved directly, overdetermined ones by least
    squares (duplicating consistent rows leaves the solution unchanged).
    Raises IllConditionedDesignError instead of silently returning a
    near-singular solve.
    """
    a = np.asarray(a, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if a.ndim != 2 or a.shape[1] != 6 or a.shape[0] != zeta.shape[0]:
        raise ValueError(f"incompatible system shapes {a.shape} and {zeta.shape}")
    condition = float(np.linalg.cond(a))
    if not np.isfinite(condition) or condition > kappa_max:
        raise IllConditionedDesignError(condition, kappa_max)
    if a.shape[0] == 6:
        xi = np.linalg.solve(a, zeta)
    else:
        xi, *_ = np.linalg.lstsq(a, zeta, rcond=None)
    residual = float(np.linalg.norm(a @ xi - zeta))
    return EstimationResult(
        g_est=CouplingTensor(xi), condition_number=condition, residual_norm=residual
    )


def estimate_tensor(records, *, kappa_max: float = KAPPA_MAX_DEFAULT) -> EstimationResult:
    """build_system followed by solve."""
    a, zeta = build_system(records)
    return solve(a, zeta, kappa_max=kappa_max)


def error_stats(g_true: CouplingTensor, g_est: CouplingTensor) -> tuple[float, float]:
    """Mean and sample standard deviation of the six component errors.

    The standard deviation uses divisor 5 (one fewer than the number of
    independent components).
    """
    diff = g_est.values - g_true.values
    mean = float(diff.mean())
    std = float(np.sqrt(((diff - mean) ** 2).sum() / (diff.size - 1)))
    return mean, std
