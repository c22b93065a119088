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

Records holds N records as arrays, one record per row, validated once
when built; a fault names its first bad row as records[k].
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
    Runs,
    _check_rows,
    _dot3,
    _freeze_rows,
    _state_checks,
    run_protocol,
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
class Records:
    """Controlled parameters and measured outcomes of N runs, one per row.

    r_i and p are the preparations, r_f the corrected post-selected
    target vectors and q the corrected measurement axes, each (N, 3);
    dt and the measured probe expectations are (N,).
    """

    r_i: np.ndarray
    r_f: np.ndarray
    p: np.ndarray
    q: np.ndarray
    dt: np.ndarray
    expectation: np.ndarray

    def __post_init__(self):
        _freeze_rows(self, ("r_i", "r_f", "p", "q"), ("dt", "expectation"))
        e = self.expectation
        with np.errstate(invalid="ignore", over="ignore"):
            denom = 1.0 + _dot3(self.r_i, self.r_f)
            # prepared states must lie in the Bloch ball; a measured r_f is
            # not checked, since simulated noise can push it just outside
            _check_rows("records", [
                *_state_checks(self.r_i, "r_i", bloch=True),
                *_state_checks(self.r_f, "r_f"),
                *_state_checks(self.p, "p", bloch=True),
                *_state_checks(self.q, "q"),
                (denom < EPS_ORTH, InvalidRecordError,
                 lambda k: f"1 + r_i.r_f = {denom[k]} is below the orthogonality guard"),
                (~(self.dt > 0.0), InvalidRecordError,
                 lambda k: f"dt must be positive, got {self.dt[k]}"),
                (~(np.abs(e) <= 1.0 + 1e-9), InvalidRecordError,  # NaN fails this too
                 lambda k: f"expectation {e[k]} outside [-1, 1]"),
            ])

    def __len__(self) -> int:
        return len(self.dt)


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Recovered tensor plus diagnostics of the solve."""

    g_est: CouplingTensor
    condition_number: float
    residual_norm: float


def simulate_records(
    runs: Runs,
    g: CouplingTensor,
    locals_: LocalHamiltonians | None,
    noise: float,
    rng: np.random.Generator,
) -> Records:
    """Forward-simulate runs into records, optionally with Gaussian noise.

    All runs go through one engine call, each at its own dt.  Noise
    (std = noise) perturbs each r_f and then the expectation, which is
    clipped to [-1, 1]: one (N, 4) draw from rng whose row k holds run
    k's three r_f draws and then its expectation draw.
    """
    r_f, q, expectation = run_protocol(runs, g, locals_)
    if noise > 0.0:
        draws = rng.normal(scale=noise, size=(len(runs), 4))
        r_f = r_f + draws[:, :3]
        expectation = np.clip(expectation + draws[:, 3], -1.0, 1.0)
    return Records(
        r_i=runs.r_i, r_f=r_f, p=runs.p, q=q, dt=runs.dt, expectation=expectation
    )


def build_rows(r_i, r_f, p, q) -> np.ndarray:
    """Sensitivity rows of K records, from (K, 3) stacks of their vectors."""
    c = np.cross(p, q)[:, :, None] * (r_i + r_f)[:, None, :]
    c += (q - p * _dot3(q, p)[:, None])[:, :, None] * np.cross(r_i, r_f)[:, None, :]
    a, b = np.transpose(OMEGA)
    # C order, as row-by-row assembly gave: a product with the matrix
    # sums in an order set by its layout
    return np.ascontiguousarray(np.where(a == b, c[:, a, b], c[:, a, b] + c[:, b, a]))


def build_system(records: Records) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the k x 6 design matrix and scaled-signal vector."""
    if len(records) < 6:
        raise InsufficientDataError(
            f"need at least 6 records, got {len(records)}"
        )
    r_i, r_f, p, q = records.r_i, records.r_f, records.p, records.q
    # fixed-order dot products: a BLAS product's bits depend on its kernel
    denom = 1.0 + _dot3(r_i, r_f)
    zeta = (records.expectation - _dot3(q, p)) * denom / (2.0 * records.dt)
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
