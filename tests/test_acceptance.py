"""Acceptance gate: the fifteen headline checks, one test per criterion.

Each test reproduces one quantitative claim end to end at its stated
tolerance, using independent oracles (matrix exponentials, Monte Carlo
with fixed seeds, closed forms evaluated from scratch) rather than the
library's own intermediate results wherever a second route exists.
Run with -v to get one pass/fail line per criterion.
"""

import math

import numpy as np
import pytest
from scipy.constants import atomic_mass, elementary_charge
from scipy.linalg import expm
from scipy.optimize import curve_fit
from scipy.special import eval_genlaguerre

from ionsim import cli
from ionsim.coupling import (
    CouplingParams,
    ModeEnsemble,
    debye_waller_stats,
    magic_eta,
    rabi_frequency,
)
from ionsim.decoherence import (
    BathParams,
    RabiSignal,
    fast_amplitude_noise_visibility,
    invert_populations,
    master_equation_evolve,
    mean_n_evolution,
    rabi_decay_signal,
    slow_amplitude_noise_envelope,
    spectator_leakage,
)
from ionsim.pulse_engine import (
    PulseSpec,
    cn_gate_single_pulse,
    cn_gate_three_pulse,
    noisy_sequence_fidelity,
    prepare_max_entangled,
)
from ionsim.quantum_core import DensityMatrix
from ionsim.spectroscopy import ClockParams, clock_lock_analysis
from ionsim.trap_model import (
    axial_normal_modes,
    chain_equilibrium,
    collision_rates,
    critical_anisotropy,
    patch_heating_time,
    resistive_heating_time,
    stray_field_heating_time,
)

M_ION = 9.0 * atomic_mass
Q_ION = elementary_charge
OMEGA_Z = 2.0 * math.pi * 1.0e6


def _modes(L):
    g = chain_equilibrium(L, OMEGA_Z, Q_ION, M_ION)
    return g, axial_normal_modes(g, OMEGA_Z)


def test_criterion_01_axial_mode_spectrum():
    # two ions: ratios {1, sqrt(3)}; three ions add sqrt(29/5)
    _, m2 = _modes(2)
    ratios2 = m2.frequencies / OMEGA_Z
    assert np.allclose(ratios2, [1.0, math.sqrt(3.0)], rtol=1e-6, atol=0.0)
    _, m3 = _modes(3)
    ratios3 = m3.frequencies / OMEGA_Z
    want3 = [1.0, math.sqrt(3.0), math.sqrt(29.0 / 5.0)]
    assert np.allclose(ratios3, want3, rtol=1e-6, atol=0.0)


def test_criterion_02_chain_geometry():
    g2, _ = _modes(2)
    gap2 = g2.positions[1] - g2.positions[0]
    assert gap2 == pytest.approx(2.0 ** (1.0 / 3.0) * g2.scale_s, rel=1e-9)
    g3, _ = _modes(3)
    gaps3 = np.diff(g3.positions)
    assert gaps3[0] == pytest.approx((5.0 / 4.0) ** (1.0 / 3.0) * g3.scale_s, rel=1e-9)
    assert gaps3[1] == pytest.approx(gaps3[0], rel=1e-12)
    g10, _ = _modes(10)
    central = np.diff(g10.positions)[4]
    fit = 2.0 * g10.scale_s * 10.0 ** (-0.56)
    assert abs(central - fit) / fit <= 0.15


def test_criterion_03_radial_confinement_bound():
    out = critical_anisotropy(2, s_c=3.0e-6, charge=Q_ION, mass=M_ION)
    nu_r = out.omega_r_bound / (2.0 * math.pi)
    assert nu_r > 7.8e6 * 0.98
    assert nu_r == pytest.approx(7.8e6, rel=0.02)


def test_criterion_04_matrix_elements_vs_expm():
    # oracle: displacement operator exponentiated in a 40-level space
    dim = 40
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    X = a + a.T
    worst = 0.0
    for eta in (0.05, 0.1, 0.25, 0.5):
        D = expm(1j * eta * X)
        c = CouplingParams(1.0, eta)
        for n_hi in range(11):
            for n_lo in range(11):
                got = abs(rabi_frequency(n_hi, n_lo, c))
                worst = max(worst, abs(abs(D[n_lo, n_hi]) - got))
    assert worst <= 1e-9
    # the carrier pair at the lowest magic coupling sits at exactly 2:1
    eta_m = magic_eta(1, 0, 1)[0]
    pair = CouplingParams(1.0, eta_m)
    ratio = rabi_frequency(1, 1, pair) / rabi_frequency(0, 0, pair)
    assert abs(ratio - 0.5) <= 1e-14


def test_criterion_05_magic_eta_controlled_not():
    eta_m = magic_eta(1, 0, 1)[0]
    assert eta_m == pytest.approx(math.sqrt(0.5), rel=1e-12)
    rep = cn_gate_single_pulse(0, 1, eta_m)
    ideal = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, -1j, 0]],
        dtype=complex,
    )
    assert np.abs(rep.unitary - ideal).max() <= 1e-10
    rep3 = cn_gate_three_pulse(CouplingParams(1.0, 0.25))
    assert rep3.truth_table == {
        "dn0": "dn0", "up0": "up0", "dn1": "up1", "up1": "dn1",
    }
    assert rep3.fidelity_vs_ideal == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("L", [2, 3])
def test_criterion_06_maximally_entangled_overlap(L):
    reg = prepare_max_entangled(L)
    ideal = np.zeros_like(reg.amps)
    ideal[0, 0] = ideal[-1, 0] = math.sqrt(0.5)
    overlap = abs(np.vdot(ideal, reg.amps)) ** 2
    assert overlap >= 1.0 - 1e-9
    assert reg.bus_excited_weight() <= 1e-12


def test_criterion_07_master_equation_thermal_bath():
    n_max = 40
    b = BathParams(gamma=1.0, nbar=1.0)
    dt = 0.95 * 0.01 / (b.gamma * (b.nbar + 1.0) * (n_max + 1))
    P = np.zeros(n_max + 1)
    P[0] = 1.0
    rho = DensityMatrix(np.diag(P).astype(complex), n_max)

    # short-time ground-level drain rate, 4-point one-sided derivative
    d = 1e-3
    r1 = master_equation_evolve(rho, b, d, dt)
    r2 = master_equation_evolve(r1, b, d, dt)
    r3 = master_equation_evolve(r2, b, d, dt)
    p00 = [x.rho[0, 0].real for x in (rho, r1, r2, r3)]
    deriv = (-11 * p00[0] + 18 * p00[1] - 9 * p00[2] + 2 * p00[3]) / (6 * d)
    assert abs(deriv + b.gamma * b.nbar) / (b.gamma * b.nbar) <= 1e-6

    # mean occupation follows the closed-form relaxation
    state, t_now = rho, 0.0
    for t_target in (0.5, 1.0, 2.0, 5.0):
        state = master_equation_evolve(state, b, t_target - t_now, dt)
        t_now = t_target
        want = mean_n_evolution(0.0, b, t_target)
        assert abs(state.mean_n() - want) / want <= 1e-5

    # the diagonal settles onto the thermal distribution
    state = master_equation_evolve(state, b, 20.0 - t_now, dt)
    pn = np.diag(state.rho).real
    ns = np.arange(n_max + 1)
    thermal = (b.nbar / (1 + b.nbar)) ** ns / (1 + b.nbar)
    assert 0.5 * np.abs(pn - thermal).sum() <= 1e-6


def test_criterion_08_heating_and_collision_estimates():
    res = resistive_heating_time(r=0.0415, T=300.0, omega_z=2 * math.pi * 20e6,
                                 ell_L=6.0e4)
    assert res == pytest.approx(4.6, rel=0.05)
    stray = stray_field_heating_time(mass=M_ION, charge=Q_ION,
                                     omega_z=2 * math.pi * 10e6,
                                     S_U=1e-18, U0=17.0, E_s=100.0)
    assert stray == pytest.approx(430.0, rel=0.05)
    patch = patch_heating_time(theta=0.13, D=1e-15, kappa_patch=3.0, r_a=10e-9,
                               a_p=130e-6, omega_z=2 * math.pi * 11e6, ell_L=6.2e4)
    assert patch == pytest.approx(30.0, rel=0.20)
    rates = collision_rates(polarizability=0.8023e-30, gas_mass=2.0159 * atomic_mass,
                            pressure=1e-8, T=300.0, ion_mass=M_ION)
    assert rates.k_langevin == pytest.approx(1.64e-15, rel=0.10)
    assert rates.gamma_langevin == pytest.approx(0.004, rel=0.10)
    assert rates.k_elastic == pytest.approx(1.24e-14, rel=0.10)
    assert rates.gamma_elastic == pytest.approx(0.03, rel=0.10)


def test_criterion_09_coupling_spread_from_spectator_modes():
    eta, nbar, modes = 0.01, 0.1, 100
    st = debye_waller_stats(ModeEnsemble([eta] * modes, [nbar] * modes))
    assert st.prob_within(1e-4) == pytest.approx(0.23, abs=0.01)

    # Monte Carlo oracle: thermal occupations drawn per mode, exact
    # polynomial reduction factors, 1e5 shots
    N = 10**5
    x = eta * eta
    rng = np.random.default_rng(2026)
    ns = rng.geometric(1.0 / (1.0 + nbar), size=(N, modes)) - 1
    factors = np.exp(-modes * x / 2.0) * np.prod(
        eval_genlaguerre(ns, 0, x), axis=1
    )
    se_mean = factors.std(ddof=1) / math.sqrt(N)
    assert abs(factors.mean() - st.mean_factor) <= 3.0 * se_mean
    frac = factors / st.mean_factor - 1.0
    s_mc = frac.std(ddof=1)
    m2 = ((frac - frac.mean()) ** 2).mean()
    m4 = ((frac - frac.mean()) ** 4).mean()
    se_std = math.sqrt(max(m4 - m2 * m2, 0.0) / (4.0 * m2 * N))
    assert abs(s_mc - st.rms_exact) <= 3.0 * se_std


def test_criterion_10_amplitude_noise_envelopes():
    # static per-shot spread: gaussian envelope vs sampled average
    sigma, Omega0 = 0.1, 1.0
    tau = np.array([1.0, 3.0, 6.0, 10.0])
    rng = np.random.default_rng(7)
    draws = rng.normal(0.0, sigma, 2 * 10**5)
    cosm = np.cos(2.0 * np.outer(draws, tau))
    se = cosm.std(axis=0, ddof=1) / math.sqrt(draws.size)
    env_mc = cosm.mean(axis=0)
    signal = slow_amplitude_noise_envelope("gaussian", sigma, tau, Omega0)
    env_lib = (2.0 * signal - 1.0) / np.cos(2.0 * Omega0 * tau)
    assert np.all(np.abs(env_lib - env_mc) <= 3.0 * se)
    assert np.allclose(env_lib, np.exp(-2.0 * (sigma * tau) ** 2), rtol=1e-12)

    # fast sinusoidal ripple at ratio 0.1: second-order form vs exact
    # phase average
    grid = np.linspace(0.0, 80.0, 400)
    out = fast_amplitude_noise_visibility(0.1, 1.0, grid, Omega0)
    assert np.abs(out["closed_form"] - out["phi_average"]).max() <= 1e-3


def test_criterion_11_population_recovery():
    truth = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])
    c = CouplingParams(Omega=1.0, eta=0.1)
    tau = np.linspace(0.0, 360.0, 1200)
    sig = rabi_decay_signal(truth, 0.005, c, tau)
    clean = invert_populations(sig, c, n_cut=5, gamma_model=0.005)
    assert np.abs(clean["P"] - truth).max() <= 0.01

    for seed in range(200):
        rng = np.random.default_rng(seed)
        noisy = np.clip(
            sig.P_down + rng.normal(0.0, 0.02, sig.P_down.size), 0.0, 1.0
        )
        out = invert_populations(
            RabiSignal(tau, noisy), c, n_cut=5, gamma_model=0.005
        )
        assert np.abs(out["P"] - truth).max() <= 0.05, f"seed {seed}"


def test_criterion_12_spectator_level_leakage():
    ratio = 0.05           # drive over detuning
    sq = spectator_leakage(
        Omega=1.0, Omega_prime=1.0, Delta=20.0,
        envelope="square", duration=1.5,
    )
    assert ratio / 2.0 <= sq["C_s_final"] <= 2.0 * ratio
    sm = spectator_leakage(
        Omega=1.0, Omega_prime=1.0, Delta=20.0,
        envelope="smooth", duration=3.0, tau_r=1.0,
    )
    assert sq["C_s_final"] / sm["C_s_final"] >= 20.0


def test_criterion_13_clock_lock_tradeoff():
    def dw(L, n, eps):
        p = ClockParams(L=L, tau=1e3, C=1e-3, n_exp=n, K2=2.0, K3=10.0,
                        epsilon=eps)
        return clock_lock_analysis(p, "constrained_K3")["delta_omega"]

    # white oscillator noise: entanglement buys nothing
    assert dw(100, 0, 1.0) == pytest.approx(dw(100, 0, 0.5), rel=1e-9)
    # drifting oscillator: entangled wins by L^(1/4) at n=1
    gain = dw(100, 1, 0.5) / dw(100, 1, 1.0)
    assert gain == pytest.approx(100.0 ** 0.25, rel=1e-6)
    # the two constrained modes agree when the margin is pinned at 1
    for (L, n) in ((10, 1), (100, 2)):
        p1 = ClockParams(L=L, tau=1e3, C=1e-3, n_exp=n, K2=2.0, K3=10.0)
        k3 = clock_lock_analysis(p1, "constrained_K1")["K3"]
        p2 = ClockParams(L=L, tau=1e3, C=1e-3, n_exp=n, K2=2.0, K3=k3)
        a = clock_lock_analysis(p2, "constrained_K3")
        b = clock_lock_analysis(p1, "constrained_K1")
        assert a["K1"] == pytest.approx(1.0, rel=1e-12)
        assert a["delta_omega"] == pytest.approx(b["delta_omega"], rel=1e-12)
        assert a["T_R"] == pytest.approx(b["T_R"], rel=1e-12)

    # shape-level flop check: a synthesized decaying signal refit with
    # the same ladder model returns the injected decay and drive rates
    g_true, Om_true, eta = 0.02, 1.0, 0.1
    pops = 0.5 ** (np.arange(8) + 1)
    grid = np.linspace(0.0, 300.0, 1500)
    target = rabi_decay_signal(pops, g_true, CouplingParams(Om_true, eta), grid)

    def model(t, g, Om):
        return rabi_decay_signal(pops, g, CouplingParams(Om, eta), t).P_down

    popt, _ = curve_fit(model, grid, target.P_down, p0=[0.03, 0.9])
    assert popt[0] == pytest.approx(g_true, rel=0.01)
    assert popt[1] == pytest.approx(Om_true, rel=0.01)


def test_criterion_14_error_accumulation():
    def seq(M):
        return [PulseSpec("carrier", 0.5 * math.pi, CouplingParams(1.0, 0.0))] * M

    # random per-pulse area errors: mean infidelity linear in length
    Ms = [2, 4, 8, 16]
    infid = [
        1.0 - noisy_sequence_fidelity(
            seq(M), {"zeta_rms": 0.02}, trials=300, base_seed=7
        )["F_mean"]
        for M in Ms
    ]
    slope = float(np.polyfit(np.log(Ms), np.log(infid), 1)[0])
    assert abs(slope - 1.0) <= 0.15

    # identical systematic error on every pulse about one axis: the
    # worst case is exact, F = cos^2(sum of area errors / 2)
    for M, z in ((5, 0.04), (12, 0.01)):
        out = noisy_sequence_fidelity(
            seq(M), {"zeta_rms": z, "systematic": True}, trials=1
        )
        assert out["F_mean"] == pytest.approx(
            math.cos(M * z / 2.0) ** 2, abs=1e-12
        )
        # quadratic in the accumulated error: coefficient 1/4
        assert out["quadratic_fit"]["coefficient"] == pytest.approx(
            0.25, rel=0.01
        )


def test_criterion_15_csv_determinism(tmp_path):
    # a Monte Carlo scenario re-run under the same seed must reproduce
    # its CSV byte for byte
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli.main([
            "run", "gate.error_budget", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
    csv_a = (a / "gate.error_budget.csv").read_bytes()
    csv_b = (b / "gate.error_budget.csv").read_bytes()
    assert csv_a == csv_b
