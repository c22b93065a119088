"""One pass through the measurement protocol, step by step.

Prepares a target/probe pair, lets an unknown spin-spin coupling act
for a short time, reads out the target by ideal tomography and the
probe along a chosen axis, and removes the known single-spin dynamics
from the results.  Ends with the spin weak value that links the
corrected data to the linear response model.
"""

import numpy as np

from weakspin import (
    CouplingTensor,
    LocalHamiltonians,
    Runs,
    run_protocol,
    weak_value_sigma,
)

np.set_printoptions(precision=4, suppress=True)

# The unknown interaction we pretend nature hides from us (MHz).
g = CouplingTensor.from_matrix(
    [
        [5.0, -6.3, -2.9],
        [-6.3, 4.2, -2.3],
        [-2.9, -2.3, 8.2],
    ]
)

# One run is a one-row stack; run_protocol returns one row per run.
run = Runs(
    r_i=[(0.0, 0.0, 1.0)],        # target prepared spin-up
    p=[(0.0, 1.0, 0.0)],          # probe prepared along +y
    q_tilde=[(1.0, 0.0, 0.0)],    # probe measured along +x
    dt=[0.05],                    # us
)
r_i, p, q_tilde = run.r_i[0], run.p[0], run.q_tilde[0]

# Without single-spin dynamics the corrected quantities equal the raw
# tomography output and the raw measurement axis.
r_f, q, expectation = (x[0] for x in run_protocol(run, g, LocalHamiltonians.zero()))
print("post-selected target state r_f:", r_f)
print("measurement axis after correction:", q)
print(f"measured probe expectation: {expectation:+.5f}")
print(f"(zero-coupling value would be q.p = {float(q_tilde @ p):+.1f})")

# Now give both spins known local Hamiltonians.  The raw tomography
# output is rotated by them, but the correction winds that rotation
# back out; with g = 0 it recovers the preparation exactly.
locals_ = LocalHamiltonians.from_fields(target=(0.0, 0.0, 3.0), probe=(0.0, 0.0, 2.5))
r_f, q, expectation = (x[0] for x in run_protocol(run, CouplingTensor.zero(), locals_))
print("\nwith local dynamics only (g = 0):")
print("corrected r_f:", r_f, " == r_i up to solver accuracy")
print("corrected axis q:", q, " (rotated away from q_tilde)")
print(f"expectation equals q.p: {expectation:+.6f} vs {float(q @ p):+.6f}")

# With the interaction back on, the corrected pair (r_i, r_f) defines
# the spin weak value; its real part is shared between preparation and
# post-selection, its imaginary part encodes their misalignment.
r_f, _, _ = run_protocol(run, g, locals_)
wv = weak_value_sigma(r_i, r_f[0])
print("\nweak value of the target spin:")
for axis, value in zip("xyz", wv):
    print(f"  sigma_{axis}: {value.real:+.4f} {value.imag:+.4f}i")
