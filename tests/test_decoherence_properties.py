"""Property tests (hypothesis) for the master-equation propagator and the
spectator-leakage integrator.

Oracles used here and nowhere else:

* The closed-form mean occupation nbar + (n0 - nbar) e^(-gamma t), which
  holds for any initial state, not only Fock states.
* The semigroup law of a time-independent generator: evolving for
  t1 + t2 equals evolving for t1, then for t2, and a trajectory's state j
  equals j chained evolutions over one grid step.
* scipy.integrate.solve_ivp (DOP853) on the original, explicitly
  time-dependent three-level equations, for either envelope.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from ionsim.decoherence import (
    BathParams,
    master_equation_evolve,
    master_equation_trajectory,
    mean_n_evolution,
    spectator_leakage,
)
from ionsim.quantum_core import DensityMatrix

# with nbar <= 0.5 and support on levels 0..3 the top level of n_max = 32
# stays below 1e-15, so truncation leaks no measurable trace
ME_N_MAX = 32
ME_SUPPORT = 4

seeds = st.integers(0, 2**32 - 1)
rates = st.floats(0.05, 2.0)
occupations = st.floats(0.0, 0.5)
times = st.floats(0.0, 3.0)


def _random_dm(seed):
    """Random full-rank block with coherences on the lowest Fock levels."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((ME_SUPPORT, ME_SUPPORT))
         + 1j * rng.standard_normal((ME_SUPPORT, ME_SUPPORT)))
    block = a @ a.conj().T
    r = np.zeros((ME_N_MAX + 1, ME_N_MAX + 1), complex)
    r[:ME_SUPPORT, :ME_SUPPORT] = block / np.trace(block).real
    return DensityMatrix(r, ME_N_MAX)


# ---------------------------------------------------------------- master equation


@settings(max_examples=40, deadline=None)
@given(seeds, rates, occupations, times)
def test_master_equation_keeps_a_density_matrix(seed, gamma, nbar, t):
    out = master_equation_evolve(_random_dm(seed), BathParams(gamma, nbar), t)
    r = out.rho
    assert abs(np.trace(r).real - 1.0) <= 1e-12
    assert np.array_equal(r, r.conj().T)
    assert np.linalg.eigvalsh(r)[0] >= -1e-12


@settings(max_examples=40, deadline=None)
@given(seeds, rates, occupations, times, times, st.integers(1, 8))
def test_master_equation_semigroup(seed, gamma, nbar, t1, t2, steps):
    rho, b = _random_dm(seed), BathParams(gamma, nbar)
    once = master_equation_evolve(rho, b, t1 + t2).rho
    twice = master_equation_evolve(master_equation_evolve(rho, b, t1), b, t2).rho
    assert np.abs(once - twice).max() <= 1e-12
    # trajectory state j is j chained one-step evolutions over t1 / steps
    chained, count = rho, 0
    for state in master_equation_trajectory(rho, b, t1, steps):
        assert np.abs(state.rho - chained.rho).max() <= 1e-12
        chained = master_equation_evolve(chained, b, t1 / steps)
        count += 1
    assert count == steps + 1


@settings(max_examples=40, deadline=None)
@given(seeds, rates, occupations, times)
def test_master_equation_mean_n_closed_form(seed, gamma, nbar, t):
    rho, b = _random_dm(seed), BathParams(gamma, nbar)
    out = master_equation_evolve(rho, b, t)
    assert abs(out.mean_n() - mean_n_evolution(rho.mean_n(), b, t)) <= 1e-10


# ---------------------------------------------------------------- spectator leakage

drives = st.floats(0.3, 1.5)
detunings = st.floats(10.0, 40.0)
signs = st.sampled_from((1.0, -1.0))
durations = st.floats(0.5, 3.0)


def _lab_reference(Om, Omp, De, T, g):
    """Integrate the rotating-frame equations exactly as written, from
    the lower qubit level."""

    def rhs(t, y):
        cd, cu, cs = y
        gt = g(t)
        return [-1j * gt * (Om * cu + Omp * np.exp(-1j * De * t) * cs),
                -1j * gt * Om * cd,
                -1j * gt * Omp * np.exp(1j * De * t) * cd]

    sol = solve_ivp(rhs, (0.0, T), np.array([1.0, 0.0, 0.0], complex), method="DOP853",
                    rtol=1e-12, atol=1e-13)
    return sol.y[:, -1]


@settings(max_examples=15, deadline=None)
@given(drives, drives, detunings, signs, durations, st.floats(0.1, 0.5), st.booleans())
def test_spectator_amplitudes_against_lab_frame(Om, Omp, De, sign, T, frac, smooth):
    De *= sign
    tau_r = frac * T
    if smooth:
        out = spectator_leakage(Om, Omp, De, envelope="smooth", duration=T, tau_r=tau_r)

        def g(t):
            edge = min(t, T - t)
            return 0.5 * (1.0 - math.cos(math.pi * edge / tau_r)) if edge < tau_r else 1.0
    else:
        out = spectator_leakage(Om, Omp, De, duration=T)

        def g(_t):
            return 1.0

    ref = _lab_reference(Om, Omp, De, T, g)
    # fixed-step RK4 with at least 400 steps: errors up to about 4e-8 here
    assert np.abs(out["amplitudes"] - ref).max() <= 1e-7
    assert out["C_final"] == abs(out["amplitudes"][0])
    assert out["C_s_final"] == abs(out["amplitudes"][2])

