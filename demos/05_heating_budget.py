"""Error-budget table: how long until one motional quantum arrives.

Three heating channels, one closed form each with its own scaling, plus
background-gas collision rates. Numbers are order-of-magnitude design
tools, not precision predictions.
"""

import math

from scipy.constants import atomic_mass, elementary_charge

from ionsim.trap_model import (
    collision_rates,
    patch_heating_time,
    resistive_heating_time,
    stray_field_heating_time,
)

m = 9.0 * atomic_mass
q = elementary_charge

rows = [
    ("resistive", resistive_heating_time(
        r=0.0415, T=300.0, omega_z=2 * math.pi * 20e6, ell_L=6.0e4)),
    ("stray_field", stray_field_heating_time(
        mass=m, charge=q, omega_z=2 * math.pi * 10e6,
        S_U=1e-18, U0=17.0, E_s=100.0)),
    ("patch", patch_heating_time(
        theta=0.13, D=1e-15, kappa_patch=3.0, r_a=10e-9, a_p=130e-6,
        omega_z=2 * math.pi * 11e6, ell_L=6.2e4)),
]
print("channel        t* (s)")
for channel, t_star in rows:
    print(f"{channel:12s} {t_star:10.3g}")

# room-temperature H2 at 1e-8 Pa
r = collision_rates(polarizability=0.8023e-30, gas_mass=2.0159 * atomic_mass,
                    pressure=1e-8, T=300.0, ion_mass=m)
print("\nbackground H2 at 1e-8 Pa, 300 K:")
print(f"  Langevin rate  {r.gamma_langevin:.4f} /s "
      f"(k = {r.k_langevin:.3e} m^3/s)")
print(f"  elastic rate   {r.gamma_elastic:.4f} /s "
      f"(k = {r.k_elastic:.3e} m^3/s)")
print(f"  thermal speed  {r.v_thermal:.0f} m/s")
