"""Single- and two-spin algebra: Bloch vectors, composition, reduction.

Walks through the primitive layer the rest of the library is built on:
Pauli contractions, Bloch-vector round trips, tensor products and
partial traces, and unitary evolution generated by a Hermitian matrix.
"""

import numpy as np

from weakspin import (
    SIGMA_X,
    SIGMA_Z,
    bloch_to_density,
    density_to_bloch,
    herm_exp,
    partial_trace,
    pauli_dot,
    tensor_product,
)

np.set_printoptions(precision=4, suppress=True)

# A qubit state is a real 3-vector inside the unit ball.  Pure states
# sit on the surface, the maximally mixed state at the origin.
spin_up = np.array([0.0, 0.0, 1.0])
tilted = np.array([0.6, 0.0, 0.8])

print("density matrix of spin-up:")
print(bloch_to_density(spin_up))
print("density matrix of a tilted pure state:")
print(bloch_to_density(tilted))

# The Bloch components are expectation values of the Pauli operators,
# so the mapping runs both ways.
rho = bloch_to_density(tilted)
print("recovered Bloch vector:", density_to_bloch(rho))
print("x polarization Tr(rho sigma_x):", np.trace(rho @ SIGMA_X).real)

# pauli_dot turns an axis into the observable measuring along it.
axis = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
print("eigenvalues of axis.sigma:", np.linalg.eigvalsh(pauli_dot(axis)))

# Two spins compose with the Kronecker product, target first.
pair = tensor_product(bloch_to_density(spin_up), bloch_to_density(tilted))
print("\ntwo-spin state is 4x4 with unit trace:", pair.shape, np.trace(pair).real)

# Partial traces undo the composition for product states ...
print("reduced target:", density_to_bloch(partial_trace(pair, "target")))
print("reduced probe: ", density_to_bloch(partial_trace(pair, "probe")))

# ... but not after entangling evolution.  Evolve under sigma_x x sigma_x
# for a while and watch the reduced states shrink inward (entanglement
# makes the marginals mixed).
coupling = 2.0  # rad/us
h = coupling * tensor_product(SIGMA_X, SIGMA_X)
for t in (0.0, 0.2, 0.4):
    u = herm_exp(h, t)
    evolved = u @ pair @ u.conj().T
    r_t = density_to_bloch(partial_trace(evolved, "target"))
    print(f"t={t:.1f} us: |target Bloch| = {np.linalg.norm(r_t):.4f}")
