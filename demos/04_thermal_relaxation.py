"""Damped oscillator coupled to a finite-temperature bath.

Propagates the number-basis master equation from the ground state along
a uniform time grid and compares the mean occupation against the
closed-form exponential approach to nbar. The diagonal ends up thermal.
"""

import numpy as np

from ionsim.decoherence import (
    BathParams,
    master_equation_trajectory,
    mean_n_evolution,
)
from ionsim.quantum_core import DensityMatrix

n_max = 24
bath = BathParams(gamma=1.0, nbar=0.5)
t_end, steps = 8.0, 80
shown = {2, 5, 10, 20, 40, 80}            # t = 0.2, 0.5, 1, 2, 4, 8

P0 = np.zeros(n_max + 1)
P0[0] = 1.0
rho = DensityMatrix(np.diag(P0).astype(complex), n_max)

print(" t      <n> numeric   <n> closed    |diff|")
for j, cur in enumerate(master_equation_trajectory(rho, bath, t_end, steps)):
    if j in shown:
        t = j * t_end / steps
        exact = mean_n_evolution(0.0, bath, t)
        print(f"{t:4.1f}   {cur.mean_n():.8f}   {exact:.8f}   "
              f"{abs(cur.mean_n() - exact):.2e}")

pn = np.diag(cur.rho).real
thermal = bath.thermal_populations(n_max)
print(f"\nfinal distance to thermal diagonal: "
      f"{0.5 * np.abs(pn - thermal).sum():.2e}")
print(f"trace preserved to {abs(cur.trace() - 1.0):.2e}")
