"""Tests for ionsim.trap_model.

Oracle policy: closed forms are checked against independent numerical
routes (Floquet monodromy integration, direct RK integration of the
driven equations of motion) before any regression value is trusted.
Reference numbers frozen here were computed from the documented formulas
with CODATA constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import epsilon_0, hbar, k as k_B
from scipy.integrate import solve_ivp

from ionsim.errors import ModelInputError, RangeError
from ionsim.trap_model import (
    TrapParams,
    axial_normal_modes,
    chain_equilibrium,
    collision_rates,
    critical_anisotropy,
    mathieu_beta,
    mathieu_trajectory,
    patch_heating_time,
    resistive_heating_time,
    secular_frequencies,
    series_inductance,
    stray_field_heating_time,
)

U_KG = 1.66053906660e-27
E_C = 1.602176634e-19
M_BE = 9.0 * U_KG  # light hydrogen-like test ion, 9 u
TWO_PI = 2.0 * math.pi


def make_params(q_x=0.2, nu_z=1.0e6, nu_rf=100.0e6, R=200e-6, Ur=0.0,
                kappa=None, mass=M_BE, charge=E_C):
    """TrapParams engineered to hit a target q_x and axial frequency."""
    if kappa is None:
        kappa = 1.0 / 0.3e-3**2
    OmegaT = TWO_PI * nu_rf
    V0 = q_x * mass * OmegaT**2 * R**2 / (2.0 * charge)
    U0 = mass * (TWO_PI * nu_z) ** 2 / (2.0 * kappa * charge)  # omega_z^2 = 2 kappa q U0/m
    return TrapParams(V0=V0, Ur=Ur, U0=U0, OmegaT=OmegaT, R=R, kappa=kappa,
                      charge=charge, mass=mass)


# ---------------------------------------------------------------------------
# Floquet oracle for the characteristic exponent


def floquet_beta(a, q):
    """Numerically extracted characteristic exponent over one drive period."""
    def rhs(z, y):
        return [y[1], -(a + 2.0 * q * np.cos(2.0 * z)) * y[0]]

    cols = []
    for y0 in ([1.0, 0.0], [0.0, 1.0]):
        sol = solve_ivp(rhs, (0.0, np.pi), y0, rtol=1e-11, atol=1e-13)
        cols.append(sol.y[:, -1])
    trace = cols[0][0] + cols[1][1]
    return math.acos(min(1.0, max(-1.0, trace / 2.0))) / math.pi


def test_beta_matches_floquet_on_100_random_stable_pairs():
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        q = rng.uniform(0.02, 0.45)
        a = rng.uniform(-0.45 * q * q, 0.95 * q * q)
        beta = mathieu_beta(a, q)
        beta_num = floquet_beta(a, q)
        tol = max(1e-3, 3.0 * q**3)
        assert abs(beta - beta_num) <= tol * beta_num


def test_beta_simple_point_against_floquet():
    # q=0.2, a=0 spot check at tight tolerance
    assert abs(mathieu_beta(0.0, 0.2) - floquet_beta(0.0, 0.2)) < 1e-3 * 0.14


def test_beta_raises_outside_stable_region():
    with pytest.raises(RangeError, match="no real secular frequency"):
        mathieu_beta(-0.1, 0.1)  # a + q^2/2 < 0
    with pytest.raises(RangeError, match="outside lowest stability region"):
        mathieu_beta(0.9, 0.9)  # beta >= 1


# ---------------------------------------------------------------------------
# secular frequencies


def test_secular_frequencies_basic_relations():
    p = make_params(q_x=0.2, nu_z=1e6)
    mc = secular_frequencies(p)
    assert mc.q_x == pytest.approx(0.2, rel=1e-12)
    assert mc.q_y == -mc.q_x
    assert 0 < mc.beta_x < 1 and 0 < mc.beta_y < 1
    assert mc.omega_x == pytest.approx(mc.beta_x * p.OmegaT / 2.0, rel=1e-15)
    assert mc.omega_z == pytest.approx(TWO_PI * 1e6, rel=1e-12)
    # with Ur = 0 both radial a coefficients equal -2 (w_z/W)^2
    assert mc.a_x == pytest.approx(-2.0 * (mc.omega_z / p.OmegaT) ** 2, rel=1e-10)
    assert mc.a_x == pytest.approx(mc.a_y, rel=1e-12)


def test_endcap_voltage_inverse_check():
    # 9 u ion, kappa = (0.3 mm)^-2, 10 MHz axial target: about 17 V, and
    # the trap built on it returns the target axial frequency
    U0 = M_BE * (TWO_PI * 10e6) ** 2 / (2.0 * (1.0 / 0.3e-3**2) * E_C)
    assert U0 == pytest.approx(16.573, rel=1e-3)
    assert abs(U0 / 17.0 - 1.0) < 0.03
    p = make_params(q_x=0.2, nu_z=10e6)
    assert p.U0 == U0
    assert secular_frequencies(p).omega_z == pytest.approx(TWO_PI * 10e6, rel=1e-12)


def test_zero_endcap_gives_pure_radial_confinement():
    p = make_params(q_x=0.2, nu_z=1e6)
    p0 = TrapParams(V0=p.V0, Ur=0.0, U0=0.0, OmegaT=p.OmegaT, R=p.R,
                    kappa=p.kappa, charge=p.charge, mass=p.mass)
    mc = secular_frequencies(p0)
    assert mc.omega_z == 0.0
    assert mc.omega_x > 0 and mc.omega_y > 0
    assert mc.a_x == 0.0


def test_unstable_params_raise():
    with pytest.raises(RangeError, match="stability gate failed"):
        secular_frequencies(make_params(q_x=0.6))  # q gate
    # deep static well makes |a_x| exceed q_x^2
    with pytest.raises(RangeError, match="stability gate failed"):
        secular_frequencies(make_params(q_x=0.05, nu_z=8e6))


# ---------------------------------------------------------------------------
# driven trajectory


def test_trajectory_against_rk_integration():
    p = make_params(q_x=0.1, nu_z=1e6)
    mc = secular_frequencies(p)
    A, phi = 1e-6, 0.3
    n_periods = 10
    t_end = n_periods * TWO_PI / mc.omega_x
    t = np.linspace(0.0, t_end, 4001)
    x_closed = mathieu_trajectory(p, A, phi, t)["x"]

    q, a, W = mc.q_x, mc.a_x, p.OmegaT
    # initial conditions consistent with the closed form
    x0 = A * math.cos(phi) * (1.0 + q / 2.0 + q * q / 32.0)
    v0 = A * math.sin(phi) * (mc.beta_x * (q / 2.0) * W
                              - mc.omega_x * (1.0 + q / 2.0 + q * q / 32.0))

    def rhs(tt, y):
        return [y[1], -(W**2 / 4.0) * (a + 2.0 * q * np.cos(W * tt)) * y[0]]

    sol = solve_ivp(rhs, (0.0, t_end), [x0, v0], t_eval=t, rtol=1e-10, atol=1e-16)
    assert np.max(np.abs(x_closed - sol.y[0])) <= 0.01 * A


def test_trajectory_zero_q_limit_is_pure_cosine():
    # vanishing rf amplitude: no micromotion terms survive
    p = make_params(q_x=1e-9, nu_z=0.0)
    # nu_z = 0 keeps a_x = 0 so the configuration stays (marginally) stable
    t = np.linspace(0.0, 1e-5, 257)
    mc = secular_frequencies(p)
    x = mathieu_trajectory(p, 1.0, 0.0, t)["x"]
    assert np.allclose(x, np.cos(mc.omega_x * t), atol=1e-8)


def test_trajectory_amplitude_at_drive_multiples():
    p = make_params(q_x=0.1, nu_z=1e6)
    mc = secular_frequencies(p)
    k = np.arange(1, 40)
    t_k = TWO_PI * k / p.OmegaT
    x = mathieu_trajectory(p, 2e-6, 0.0, t_k)["x"]
    envelope = x / np.cos(mc.omega_x * t_k)
    expect = 2e-6 * (1.0 + mc.q_x / 2.0 + mc.q_x**2 / 32.0)
    assert np.allclose(envelope, expect, rtol=1e-10)


# ---------------------------------------------------------------------------
# chain equilibrium


def test_two_ion_gap_exact():
    g = chain_equilibrium(2, TWO_PI * 1e6, E_C, M_BE)
    gap = g.positions[1] - g.positions[0]
    assert gap == pytest.approx(2.0 ** (1.0 / 3.0) * g.scale_s, rel=1e-9)


def test_three_ion_gap_exact():
    g = chain_equilibrium(3, TWO_PI * 1e6, E_C, M_BE)
    gaps = np.diff(g.positions)
    assert gaps[0] == pytest.approx((5.0 / 4.0) ** (1.0 / 3.0) * g.scale_s, rel=1e-9)
    assert gaps[1] == pytest.approx(gaps[0], rel=1e-9)
    assert abs(g.positions.sum()) < 1e-9 * g.scale_s


def test_single_ion_at_origin():
    g = chain_equilibrium(1, TWO_PI * 1e6, E_C, M_BE)
    assert g.positions.shape == (1,)
    assert g.positions[0] == 0.0


def test_ten_ion_central_gap_near_fitted_law():
    # 9 u ion at 1 MHz axial: fitted central gap is about 4 um
    g = chain_equilibrium(10, TWO_PI * 1e6, E_C, M_BE)
    gaps = np.diff(g.positions)
    central = gaps[len(gaps) // 2]
    assert central == pytest.approx(np.min(gaps), rel=1e-12)
    assert abs(central / g.s_min - 1.0) < 0.15
    assert abs(central / 4.0e-6 - 1.0) < 0.15


@pytest.mark.parametrize("L", [91, 254, 298, 344, 450])
def test_chain_solve_meets_the_residual_where_bare_solvers_miss(L):
    # without the Newton steps, hybr misses the check at L = 344, and lm
    # at its default tolerances at 91, 254-298 and 450
    from ionsim.trap_model import _chain_gradient, _solve_chain

    u = _solve_chain(L)
    assert np.all(np.diff(u) > 0)
    assert np.max(np.abs(_chain_gradient(u))) <= 1e-12 * max(1.0, np.max(np.abs(u)))


def test_chain_solve_rejects_a_reordered_root(monkeypatch):
    import scipy.optimize
    from ionsim.trap_model import _solve_chain

    def reversed_guess(fun, x0, **kwargs):
        return scipy.optimize.OptimizeResult(x=x0[::-1])

    monkeypatch.setattr(scipy.optimize, "root", reversed_guess)
    with pytest.raises(RangeError, match="out of order"):
        _solve_chain(5)


def test_chain_residual_is_tiny():
    from ionsim.trap_model import _chain_gradient

    g = chain_equilibrium(15, TWO_PI * 2e6, E_C, M_BE)
    u = g.positions / g.scale_s
    assert np.max(np.abs(_chain_gradient(u))) <= 1e-12 * max(1.0, np.max(np.abs(u)))


# ---------------------------------------------------------------------------
# axial normal modes


def test_two_ion_mode_spectrum():
    g = chain_equilibrium(2, TWO_PI * 1e6, E_C, M_BE)
    modes = axial_normal_modes(g, TWO_PI * 1e6)
    ratios = modes.frequencies / (TWO_PI * 1e6)
    assert np.allclose(ratios, [1.0, math.sqrt(3.0)], rtol=1e-9)


def test_three_ion_mode_spectrum():
    # third eigenvalue is exactly 29/5 (from the analytic 3x3 Hessian)
    g = chain_equilibrium(3, TWO_PI * 1e6, E_C, M_BE)
    modes = axial_normal_modes(g, TWO_PI * 1e6)
    ratios = modes.frequencies / (TWO_PI * 1e6)
    assert np.allclose(ratios, [1.0, math.sqrt(3.0), math.sqrt(29.0 / 5.0)],
                       rtol=1e-6)


def test_single_ion_mode():
    g = chain_equilibrium(1, TWO_PI * 3e6, E_C, M_BE)
    modes = axial_normal_modes(g, TWO_PI * 3e6)
    assert modes.frequencies[0] == pytest.approx(TWO_PI * 3e6, rel=1e-12)
    assert np.allclose(modes.vectors, [[1.0]])


def test_mode_matrix_properties():
    for L in (2, 5, 9):
        wz = TWO_PI * 1.7e6
        g = chain_equilibrium(L, wz, E_C, M_BE)
        modes = axial_normal_modes(g, wz)
        V = modes.vectors
        assert np.max(np.abs(V.T @ V - np.eye(L))) <= 1e-10
        # lowest mode is the uniform center-of-mass vector at exactly w_z
        assert modes.frequencies[0] == pytest.approx(wz, rel=1e-9)
        assert np.allclose(V[:, 0], np.full(L, 1.0 / math.sqrt(L)), atol=1e-9)
        # frequency sum rule: sum of squares equals the Hessian trace
        from ionsim.trap_model import _chain_hessian

        lam_sum = np.sum((modes.frequencies / wz) ** 2)
        tr = np.trace(_chain_hessian(g.positions / g.scale_s))
        assert lam_sum == pytest.approx(tr, rel=1e-9)


def test_modes_reject_non_equilibrium_positions():
    from ionsim.trap_model import ChainGeometry

    g = chain_equilibrium(4, TWO_PI * 1e6, E_C, M_BE)
    bad = ChainGeometry(
        L=g.L, positions=g.positions * 1.5, scale_s=g.scale_s, s_min=g.s_min
    )
    with pytest.raises(ModelInputError, match="positions are not an equilibrium"):
        axial_normal_modes(bad, TWO_PI * 1e6)


# ---------------------------------------------------------------------------
# zigzag threshold


def test_critical_anisotropy_two_and_three_ions():
    c2 = critical_anisotropy(2, 3e-6, E_C, M_BE)
    assert c2.ratio_exact == pytest.approx(1.0, abs=1e-9)
    c3 = critical_anisotropy(3, 3e-6, E_C, M_BE)
    assert c3.ratio_exact == pytest.approx(math.sqrt(2.4), rel=1e-9)
    assert abs(c3.ratio_exact - 1.55) < 0.005


def test_critical_anisotropy_fits():
    c = critical_anisotropy(10, 3e-6, E_C, M_BE)
    assert c.fit_a == pytest.approx(0.73 * 10**0.86, rel=1e-12)
    assert c.fit_b == pytest.approx(0.63 * 10**0.865, rel=1e-12)
    assert c.fit_c == pytest.approx(0.59 * 10**0.885, rel=1e-12)
    # the three estimates agree at the tens-of-percent level
    assert max(c.fit_a, c.fit_b, c.fit_c) / min(c.fit_a, c.fit_b, c.fit_c) < 1.3


def test_radial_bound_for_3um_spacing():
    c = critical_anisotropy(2, s_c=3e-6, charge=E_C, mass=M_BE)
    nu = c.omega_r_bound / TWO_PI
    assert abs(nu / 7.8e6 - 1.0) < 0.02


# ---------------------------------------------------------------------------
# heating estimators (regression values from the documented closed forms)


def test_resistive_heating_reference():
    t = resistive_heating_time(r=0.0415, T=300.0, omega_z=TWO_PI * 20e6, ell_L=6.0e4)
    assert t == pytest.approx(4.626, rel=1e-3)
    assert abs(t / 4.6 - 1.0) < 0.05


def test_resistive_inductance_from_geometry():
    # 9 u ion between electrodes 260 um apart, coupling efficiency 0.8
    ell = series_inductance(mass=M_BE, d=260e-6, charge=E_C, alpha=0.8)
    assert ell == pytest.approx(6.149e4, rel=1e-3)
    assert abs(ell / 6.0e4 - 1.0) < 0.03
    assert series_inductance(M_BE, 260e-6, E_C) == ell


def test_quality_factor_form():
    # cold high-Q mechanical mode: t* = hbar Q / (k_B T) with Q = omega ell / r
    Q, r, w = 2e4, 0.0415, TWO_PI * 20e6
    t = resistive_heating_time(r=r, T=4.0, omega_z=w, ell_L=Q * r / w)
    assert t == pytest.approx(3.82e-8, rel=0.01)
    assert t == pytest.approx(hbar * Q / (k_B * 4.0), rel=1e-14)


def test_stray_field_heating_reference():
    t = stray_field_heating_time(mass=M_BE, charge=E_C, omega_z=TWO_PI * 10e6,
                                 S_U=1e-18, U0=17.0, E_s=100.0)
    assert t == pytest.approx(445.9, rel=1e-3)
    assert abs(t / 430.0 - 1.0) < 0.05
    # the endcap potential that gives 10 MHz with kappa = (0.3 mm)^-2
    # lands on the same answer within 11%
    U0 = M_BE * (TWO_PI * 10e6) ** 2 / (2.0 * (1.0 / 0.3e-3**2) * E_C)
    t2 = stray_field_heating_time(mass=M_BE, charge=E_C, omega_z=TWO_PI * 10e6,
                                  S_U=1e-18, U0=U0, E_s=100.0)
    assert abs(t2 / 430.0 - 1.0) < 0.05


def test_patch_model_reference():
    t = patch_heating_time(theta=0.13, D=1e-15, kappa_patch=3.0, r_a=10e-9,
                           a_p=130e-6, omega_z=TWO_PI * 11e6, ell_L=6.2e4)
    assert t == pytest.approx(29.37, rel=1e-3)
    assert abs(t / 30.0 - 1.0) < 0.20
    with pytest.raises(RangeError):
        patch_heating_time(0.13, 1e-15, 3.0, 10e-9, 130e-6, 0.0, 6.2e4)


def test_patch_model_inverse_noise_density():
    # a 1 ms heating time corresponds to a potential noise density of
    # (1.34 nV)^2/Hz on the same oscillator
    w = TWO_PI * 11e6
    S = 4.0 * hbar * w * 6.2e4 / 1e-3
    assert math.sqrt(S) == pytest.approx(1.344e-9, rel=1e-3)
    assert abs(math.sqrt(S) / 1.3e-9 - 1.0) < 0.05


def test_heating_scales_linearly_with_omega():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = rng.uniform(0.5, 5.0)
        a = resistive_heating_time(r=0.04, T=300.0, omega_z=1e7, ell_L=6e4)
        b = resistive_heating_time(r=0.04, T=300.0, omega_z=c * 1e7, ell_L=6e4)
        assert b == pytest.approx(c * a, rel=1e-12)


# each estimator against its closed form written out here term by term;
# every input is a physical scale times a factor drawn from [1e-3, 1e3]
_factor = st.floats(1e-3, 1e3)


def _close(a, b):
    return abs(a - b) <= 1e-14 * abs(b)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[_factor] * 7))
def test_resistive_estimator_matches_its_closed_form(f):
    m, q, d, alpha = M_BE * f[0], E_C * f[1], 260e-6 * f[2], 0.8 * f[3]
    r, T, w = 0.0415 * f[4], 300.0 * f[5], TWO_PI * 20e6 * f[6]
    ell = series_inductance(m, d, q, alpha)
    assert _close(ell, m * d**2 / (alpha * q) ** 2)
    t = resistive_heating_time(r, T, w, ell)
    assert _close(t, hbar * w * ell / (k_B * T * r))
    assert _close(t, hbar * (w * ell / r) / (k_B * T))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[_factor] * 6))
def test_stray_field_estimator_matches_its_closed_form(f):
    m, q, w = M_BE * f[0], E_C * f[1], TWO_PI * 10e6 * f[2]
    S_U, U0, E_s = 1e-18 * f[3], 17.0 * f[4], 100.0 * f[5]
    want = (4.0 * m * hbar * w / (q**2 * S_U)) * (U0 / E_s) ** 2
    assert _close(stray_field_heating_time(m, q, w, S_U, U0, E_s), want)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[_factor] * 7))
def test_patch_estimator_matches_its_closed_form(f):
    theta, D, kappa_p = 0.13 * f[0], 1e-15 * f[1], 3.0 * f[2]
    r_a, a_p, w, ell = 10e-9 * f[3], 130e-6 * f[4], TWO_PI * 11e6 * f[5], 6.2e4 * f[6]
    nu = w / (2.0 * math.pi)
    S = 4.0 * theta * math.sqrt(D) * (kappa_p * r_a) ** 2 / (3.0 * a_p**3) * nu**-1.5
    want = 4.0 * hbar * w * ell / S
    assert _close(patch_heating_time(theta, D, kappa_p, r_a, a_p, w, ell), want)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[_factor] * 6))
def test_collision_rates_match_their_closed_forms(f):
    alpha, m_gas = 0.8023e-30 * f[0], 2.0159 * U_KG * f[1]
    pressure, T, m_ion, q = 1e-8 * f[2], 300.0 * f[3], M_BE * f[4], E_C * f[5]
    got = collision_rates(alpha, m_gas, pressure, T, m_ion, charge=q)
    mu = m_gas * m_ion / (m_gas + m_ion)
    n = pressure / (k_B * T)
    k_lan = q * math.sqrt(math.pi * alpha / (epsilon_0 * mu))
    v_t = math.sqrt(2.0 * k_B * T / mu)
    k_el = 1.23e5 * alpha ** (2.0 / 3.0) * v_t ** (1.0 / 3.0)
    for value, want in ((got.k_langevin, k_lan), (got.gamma_langevin, n * k_lan),
                        (got.k_elastic, k_el), (got.gamma_elastic, n * k_el),
                        (got.v_thermal, v_t)):
        assert _close(value, want)


# ---------------------------------------------------------------------------
# collisions


H2 = dict(polarizability=0.8023e-30, gas_mass=2.0159 * U_KG)


def test_langevin_rate_constant_reference():
    r = collision_rates(**H2, pressure=1e-8, T=300.0, ion_mass=M_BE)
    assert r.k_langevin == pytest.approx(1.634e-15, rel=1e-3)  # m^3/s
    assert abs(r.k_langevin / 1.64e-15 - 1.0) < 0.02


def test_collision_rates_reference():
    r = collision_rates(**H2, pressure=1e-8, T=300.0, ion_mass=M_BE)
    assert abs(r.gamma_langevin / 0.004 - 1.0) < 0.10
    assert abs(r.k_elastic / 1.24e-14 - 1.0) < 0.10
    assert abs(r.gamma_elastic / 0.03 - 1.0) < 0.10
    assert r.v_thermal == pytest.approx(1740.0, rel=1e-3)


def test_zero_pressure_zero_rates():
    r = collision_rates(**H2, pressure=0.0, T=300.0, ion_mass=M_BE)
    assert r.gamma_langevin == 0.0
    assert r.gamma_elastic == 0.0
    assert r.k_langevin > 0.0
