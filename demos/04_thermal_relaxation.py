"""Damped oscillator coupled to a finite-temperature bath.

Propagates the number-basis master equation from the ground state and
compares the mean occupation against the closed-form exponential
approach to nbar. The diagonal ends up thermal.
"""

import numpy as np

from ionsim.decoherence import (
    BathParams,
    master_equation_evolve,
    mean_n_evolution,
)
from ionsim.quantum_core import DensityMatrix

n_max = 24
bath = BathParams(gamma=1.0, nbar=0.5)

P0 = np.zeros(n_max + 1)
P0[0] = 1.0
rho = DensityMatrix(np.diag(P0).astype(complex), n_max)

print(" t      <n> numeric   <n> closed    |diff|")
t_now, cur = 0.0, rho
for t in (0.2, 0.5, 1.0, 2.0, 4.0, 8.0):
    cur = master_equation_evolve(cur, bath, t - t_now)
    t_now = t
    exact = mean_n_evolution(0.0, bath, t)
    print(f"{t:4.1f}   {cur.mean_n():.8f}   {exact:.8f}   "
          f"{abs(cur.mean_n() - exact):.2e}")

pn = np.diag(cur.rho).real
ns = np.arange(n_max + 1)
thermal = (bath.nbar / (1 + bath.nbar)) ** ns / (1 + bath.nbar)
print(f"\nfinal distance to thermal diagonal: "
      f"{0.5 * np.abs(pn - thermal).sum():.2e}")
print(f"trace preserved to {abs(cur.trace() - 1.0):.2e}")
