"""Correction curves and dents for the bundled NV scenario.

For each of the six published parameter sets, computes the model error
Delta(dt) = |exact - first-order| over a dense time grid, locates its
local minima (the "dents" where a measurement is cheap to model), and
compares them against the published interaction times.  Each curve is
also written as CSV for external plotting.
"""

import os

import numpy as np

from weakspin import correction_curve, find_dents, grid_times
from weakspin.fileio import curve_csv_lines
from weakspin.nv import NV_PARAMETER_ROWS, nv_coupling, nv_runs

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT_DIR, exist_ok=True)

g = nv_coupling()
grid = grid_times()  # 1e-3 us steps over (0, 0.2]

print("run  published dt   local minima (dt/Delta)")
runs = nv_runs()
for idx, row in enumerate(NV_PARAMETER_ROWS):
    curve = correction_curve(runs.r_i[idx], runs.p[idx], runs.q_tilde[idx], g, times=grid)
    minima = find_dents(curve, threshold=np.inf)
    described = ", ".join(
        f"{t:.3f}/{curve.values[np.argmin(np.abs(curve.times - t))]:.1e}"
        for t in sorted(minima)
    )
    print(f"({chr(97 + idx)})  {row[3]:.3f} us       {described}")

    dents = set(find_dents(curve))
    flags = [t in dents for t in curve.times]
    path = os.path.join(OUT_DIR, f"curve_{chr(97 + idx)}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(curve_csv_lines(curve.times, curve.values, flags)) + "\n")

print(f"\nCSV curves written to {OUT_DIR}")
print(
    "\nRuns (b), (c) and (f) sit right on deep dents of the recomputed"
    "\ncurves and run (a) next to a shallow one; the times listed for"
    "\n(d) and (e) do not coincide with any local minimum.  The published"
    "\nvectors are rounded to two decimals, which moves dents by a few"
    "\nthousandths of a microsecond but cannot explain those two rows."
)
