"""Motional-state dependence of the drive strength.

The coupling between internal levels picks up Fock-state dependent
matrix elements of exp(i eta (a + a^dag)). At small eta the familiar
sqrt(n) sideband scaling holds; at larger eta the Laguerre polynomial
structure produces zeros, including choices of eta where two carrier
couplings sit at an exact integer ratio (useful for conditional logic).
"""

import numpy as np

from ionsim.coupling import (
    CouplingParams,
    ModeEnsemble,
    debye_waller_stats,
    ladder,
    magic_eta,
    rabi_frequency,
)

c = CouplingParams(Omega=1.0, eta=0.2)
print("carrier and first sidebands vs n (eta = 0.2):")
print("  n   carrier    red       blue")
car = ladder(0, 6, c)        # Omega_{n,n}, n = 0..5, in one pass
blue = ladder(1, 6, c)       # Omega_{n+1,n}; the red sideband of n is blue[n-1]
for n in range(6):
    red = blue[n - 1] if n > 0 else float("nan")
    print(f"  {n}   {car[n]:8.5f}  {red:8.5f}  {blue[n]:8.5f}")

eta_m = magic_eta(1, 0, 1)[0]
cm = CouplingParams(1.0, eta_m)
r = rabi_frequency(1, 1, cm) / rabi_frequency(0, 0, cm)
print(f"\nmagic eta = {eta_m:.10f} puts Omega(1,1)/Omega(0,0) at {r:.12f}")

# Residual thermal motion in every spectator mode smears the coupling.
# With 100 modes at eta = 0.01 and nbar = 0.1 the rms fractional spread
# is a few 1e-4 and the chance of staying inside 1e-4 is only ~23%.
ens = ModeEnsemble([0.01] * 100, [0.1] * 100)
st = debye_waller_stats(ens)
print(f"\n100 spectator modes: mean factor {st.mean_factor:.5f}, "
      f"rms spread {st.rms_exact:.3e}")
for eps in (1e-4, 3e-4, 1e-3):
    print(f"  Pr(|dOmega/Omega| < {eps:g}) = {st.prob_within(eps):.4f}")
