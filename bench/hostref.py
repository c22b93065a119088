"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the neighbours' load slows every instruction this
process runs: on a 2-vCPU cloud VM the same op's wall time moved by
20-30% between 5-second windows of one run and by 1.8x between hours,
with the cycles per op, not the instructions, changing.  A timing of
the program alone therefore measures the host as much as the code.

`reference()` times a fixed piece of work of the same kind as the
program's (Python-level loops over 4x4 complex matrices: Kronecker
products, matrix products, a Hermitian eigendecomposition) that imports
nothing from weakspin, so a change to the program cannot change it.
Timed beside the ops, it tells how much the host slowed them: an op's
adjusted time is its wall time times NOMINAL_S over the reference's
time measured next to it, the wall time it would have taken on a host
that runs the reference in NOMINAL_S.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import oracle

# a fixed scale, near the fastest the reference ran on a 2-vCPU AMD EPYC
# VM (Python 3.11, numpy 2.4, one OpenBLAS thread; 1.1 ms fastest, 1.8 ms
# median of 2,000 calls), so that adjusted figures read as wall times
NOMINAL_S = 1.2e-3

_G = oracle.tensor_matrix({"xx": 1.0, "yy": 2.0, "zz": -3.0, "xy": 0.5, "xz": 0.2, "yz": -0.7})
_FIELDS = ((0.3, 0.1, -0.2), (0.1, 0.2, 0.3))
_H = oracle.h_total(_G, *_FIELDS)
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _work() -> None:
    for t in (0.01, 0.02):
        oracle.model_error(_G, *_FIELDS, *_AXES, t)
    for k in range(60):
        w, v = np.linalg.eigh(_H)
        (v * np.exp(-1j * w * (0.01 * k))) @ v.conj().T


def reference() -> float:
    """Seconds the reference work takes now.

    The collector is off while it runs, so that garbage an op left
    behind is not collected on the reference's clock.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
