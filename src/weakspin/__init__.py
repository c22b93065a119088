"""Two-qubit weak-measurement simulation and coupling-tensor estimation.

The package simulates a pre-/post-selected weak measurement protocol on
a target-probe spin pair, models the probe response to first order in
the interaction time, and inverts measured records into the symmetric
3x3 spin-spin coupling tensor.  A bundled NV-center scenario exercises
the full pipeline.
"""

from .core import (
    IDENTITY_2,
    PAULIS,
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
from .design import (
    CorrectionCurve,
    DesignCandidate,
    correction_curve,
    find_dents,
    grid_times,
    sample_designs,
    weak_horizon,
)
from .estimator import (
    EstimationResult,
    Records,
    build_system,
    error_stats,
    estimate_tensor,
    solve,
)
from .protocol import (
    OMEGA,
    OMEGA_LABELS,
    CouplingTensor,
    LocalHamiltonians,
    Runs,
    build_interaction,
    run_protocol,
    run_protocol_series,
    total_hamiltonian,
    weak_value_sigma,
)

__version__ = "0.1.0"
