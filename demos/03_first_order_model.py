"""How good is the linear response model, and when does it break?

The estimator relies on the probe expectation being affine in the
coupling tensor with a known coefficient row.  That approximation is
first order in the interaction time: its error falls like dt^2.  This
script measures the error directly against the exact simulation and
tabulates the convergence order.
"""

import numpy as np

from weakspin import CouplingTensor, Runs, run_protocol
from weakspin.protocol import first_order_series

rng = np.random.default_rng(8)

g = CouplingTensor.from_matrix(
    [
        [5.0, -6.3, -2.9],
        [-6.3, 4.2, -2.3],
        [-2.9, -2.3, 8.2],
    ]
)


def unit(v):
    return v / np.linalg.norm(v)


r_i = unit(rng.normal(size=3))
p = unit(rng.normal(size=3))
q = unit(rng.normal(size=3))


def simulate(dt):
    """Exact (r_f, q, expectation) of the run (r_i, p, q) at dt, a one-row stack."""
    r_f, q_f, exact = run_protocol(Runs(r_i=[r_i], p=[p], q_tilde=[q], dt=[dt]), g)
    return r_f[0], q_f[0], exact[0]


def model(r_f, q_f, dt, g):
    """First-order expectation at one time: a one-time series."""
    return float(first_order_series(r_i, [r_f], p, [q_f], [dt], g)[0])


print("dt [us]    exact        model        |gap|      gap/dt^2")
prev_gap = None
for k in range(8):
    dt = 0.02 / 2**k
    r_f, q_f, exact = simulate(dt)
    approx = model(r_f, q_f, dt, g)
    gap = abs(exact - approx)
    note = "" if prev_gap is None else f"   ratio vs previous: {prev_gap / gap:.2f}"
    print(
        f"{dt:8.5f}  {exact:+.6f}  {approx:+.6f}  {gap:.3e}  {gap / dt**2:9.4f}{note}"
    )
    prev_gap = gap

print(
    "\nThe gap/dt^2 column settles to a constant and each halving of dt"
    "\ncuts the gap by ~4x: the model error is second order, so the"
    "\nscaled signal fed to the estimator is exact in the dt -> 0 limit."
)

# The model is also exactly affine in the coupling at fixed data, which
# is what makes the inversion a linear solve.
r_f, q_f, _ = simulate(0.01)
qp = float(q_f @ p)
f1 = model(r_f, q_f, 0.01, g) - qp
f2 = model(r_f, q_f, 0.01, g.scaled(2.0)) - qp
print(f"\nresponse at 2g over response at g: {f2 / f1:.6f} (exactly 2 by linearity)")
