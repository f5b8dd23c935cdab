"""Tests for the spin-motion matrix-element module.

Oracles used here and nowhere else:
  * 40-level matrix exponential of i*eta*(a+a'), checked against the
    closed-form matrix element;
  * brute-force thermal sums (4000 Fock levels) for the reduction
    statistics;
  * Monte Carlo over thermal occupations (1e5 samples, fixed seed);
  * direct numerical integration of the off-resonant two-level problem
    for the addressing phase;
  * grid scan for the emission-ratio minimizer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, poch

from ionsim.coupling import (
    CouplingParams,
    ModeEnsemble,
    debye_waller_stats,
    _laguerre_rows,
    ladder,
    magic_eta,
    rabi_frequency,
    shot_noise_floor,
    spontaneous_emission_ratio,
    standing_wave_coefficients,
    stark_addressing_epsilon,
)
from ionsim.errors import ModelInputError, RangeError


def lowering(nlev):
    return np.diag(np.sqrt(np.arange(1.0, nlev)), 1)


# ---------------------------------------------------------------- Laguerre


def test_laguerre_known_values():
    assert _laguerre_rows(3, 0, 1.0)[2] == pytest.approx(-0.5, abs=1e-15)
    assert _laguerre_rows(4, 2, 2.0)[3] == pytest.approx(-4.0 / 3.0, rel=1e-14)
    for a in (0, 1, 3.5):
        for x in (0.0, 0.3, 2.0):
            assert _laguerre_rows(1, a, x)[0] == 1.0
            assert _laguerre_rows(2, a, x)[1] == pytest.approx(1.0 + a - x, rel=1e-15)


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(0, 31))
        a = float(rng.integers(0, 6))
        x = float(rng.uniform(0.0, 1.5))
        ref = eval_genlaguerre(n, a, x)
        assert _laguerre_rows(n + 1, a, x)[n] == pytest.approx(ref, rel=1e-11, abs=1e-12)


# ---------------------------------------------------- Rabi matrix elements


def test_carrier_elements_closed_form():
    for eta in (0.05, 0.2, 0.5):
        c = CouplingParams(Omega=3.0e5, eta=eta)
        assert rabi_frequency(0, 0, c) == pytest.approx(
            3.0e5 * math.exp(-eta * eta / 2), rel=1e-14
        )
        assert rabi_frequency(1, 1, c) == pytest.approx(
            3.0e5 * math.exp(-eta * eta / 2) * (1 - eta * eta), rel=1e-13
        )


def test_rabi_symmetric_in_levels():
    rng = np.random.default_rng(11)
    for _ in range(60):
        a = int(rng.integers(0, 13))
        b = int(rng.integers(0, 13))
        c = CouplingParams(Omega=1.0, eta=float(rng.uniform(0.01, 0.6)))
        assert rabi_frequency(a, b, c) == rabi_frequency(b, a, c)


def test_lamb_dicke_forms_and_limit():
    # as eta -> 0 the exact element tends to its leading order,
    # Omega * eta^dn * sqrt(n>!/n<!) / dn!, which is Omega for the carrier
    # and Omega * eta * sqrt(n+1) for the first sidebands
    Omega, eta = 2.5, 1e-3
    c = CouplingParams(Omega=Omega, eta=eta)
    for dn in range(4):
        for n in range(6):
            leading = (Omega * eta**dn * math.sqrt(math.factorial(n + dn) / math.factorial(n))
                       / math.factorial(dn))
            ratio = rabi_frequency(n + dn, n, c) / leading
            assert abs(ratio - 1.0) < 1e-5


def test_exact_element_vs_matrix_exponential():
    # displacement operator on a 40-level truncation; moduli must agree
    a_op = lowering(40)
    for eta in (0.1, 0.3, 0.5):
        U = expm(1j * eta * (a_op + a_op.T))
        c = CouplingParams(Omega=1.0, eta=eta)
        for n in range(11):
            for m in range(11):
                assert abs(abs(U[n, m]) - abs(rabi_frequency(n, m, c))) < 1e-9


def test_exact_element_named_pair():
    a_op = lowering(40)
    U = expm(1j * 0.3 * (a_op + a_op.T))
    c = CouplingParams(Omega=1.0, eta=0.3)
    assert rabi_frequency(3, 1, c) == pytest.approx(abs(U[3, 1]), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(1, 250), st.floats(0.0, 1.0), st.floats(0.1, 10.0))
def test_ladder_matches_closed_form(dn, count, eta, Omega):
    # independent closed form: scipy's Laguerre and the Pochhammer symbol
    # (n+1)_dn = (n+dn)!/n!
    n = np.arange(count)
    x = eta * eta
    ref = (Omega * math.exp(-x / 2) * eta**dn / np.sqrt(poch(n + 1.0, dn))
           * eval_genlaguerre(n, dn, x))
    got = ladder(dn, count, CouplingParams(Omega=Omega, eta=eta))
    assert got.shape == (count,)
    # absolute floor for elements near a Laguerre root, where both
    # recurrences carry rounding of the size of the largest terms
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-12 * Omega)


def test_rabi_frequency_is_a_ladder_element():
    rng = np.random.default_rng(5)
    for _ in range(60):
        dn, n = int(rng.integers(0, 5)), int(rng.integers(0, 60))
        c = CouplingParams(Omega=float(rng.uniform(0.1, 5.0)),
                           eta=float(rng.choice([0.0, rng.uniform(0.0, 1.0)])))
        row = ladder(dn, n + 1 + int(rng.integers(0, 20)), c)
        assert rabi_frequency(n + dn, n, c) == pytest.approx(row[n], rel=1e-15, abs=0.0)
        assert rabi_frequency(n, n + dn, c) == rabi_frequency(n + dn, n, c)
    assert ladder(1, 0, CouplingParams(1.0, 0.1)).shape == (0,)
    with pytest.raises(RangeError):
        ladder(-1, 3, CouplingParams(1.0, 0.1))
    with pytest.raises(RangeError):
        ladder(1, -1, CouplingParams(1.0, 0.1))


def test_rabi_zero_eta_and_bad_mode():
    c = CouplingParams(Omega=2.0, eta=0.0)
    assert rabi_frequency(4, 4, c) == 2.0
    assert rabi_frequency(5, 4, c) == 0.0
    with pytest.raises(RangeError):
        rabi_frequency(-1, 0, c)
    with pytest.raises(RangeError):
        CouplingParams(Omega=-1.0, eta=0.1)


# ------------------------------------------------------------- magic eta


def test_magic_eta_level_one():
    (root,) = magic_eta(1, 0, 1)
    assert root == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    (root,) = magic_eta(1, 0, 2)
    assert root == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)


def test_magic_eta_level_two_quartic():
    roots = magic_eta(2, 0, 1)
    # 1 - 2x + x^2/2 = 1/2 has the single in-range solution x = 2 - sqrt(3)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.sqrt(2.0 - math.sqrt(3.0)), rel=1e-10)


def test_magic_eta_ratio_property():
    for level, k, m in [(1, 0, 1), (2, 0, 1), (3, 1, 2), (2, 1, 3), (3, 0, 2)]:
        r = (2 * k + 1) / (2 * m)
        for eta in magic_eta(level, k, m):
            assert 0.0 < eta < 1.0
            assert eval_genlaguerre(level, 0, eta * eta) == pytest.approx(
                r, abs=1e-12
            )


def test_magic_eta_preconditions():
    with pytest.raises(RangeError):
        magic_eta(4, 0, 1)
    with pytest.raises(RangeError):
        magic_eta(1, 1, 1)  # needs m > k
    with pytest.raises(RangeError):
        magic_eta(1, -1, 1)  # needs k >= 0


# ------------------------------------------------- thermal reduction stats


def brute_single_mode(eta, nbar, nmax=4000):
    s = nbar / (1.0 + nbar)
    P = (1.0 - s) * s ** np.arange(nmax)
    f = ladder(0, nmax, CouplingParams(Omega=1.0, eta=eta))   # e^(-x/2) L_n(x)
    mean = float(np.sum(P * f))
    m2 = float(np.sum(P * f * f))
    return mean, math.sqrt(m2 / mean**2 - 1.0)


def test_dw_single_mode_against_brute_sum():
    for eta, nbar in [(0.3, 1.7), (0.15, 0.4), (0.5, 0.9)]:
        st = debye_waller_stats(
            ModeEnsemble(etas=np.array([eta]), nbars=np.array([nbar]))
        )
        mean_b, rms_b = brute_single_mode(eta, nbar)
        assert st.mean_factor == pytest.approx(mean_b, rel=1e-12)
        assert st.rms_exact == pytest.approx(rms_b, rel=1e-10)


def test_dw_ground_state_is_deterministic():
    st = debye_waller_stats(ModeEnsemble(etas=np.array([0.2]), nbars=np.array([0.0])))
    assert st.mean_factor == pytest.approx(math.exp(-0.02), rel=1e-14)
    assert st.rms_exact == 0.0
    assert st.prob_within(1e-9) == 1.0


def test_dw_hundred_mode_probability_anchor():
    ens = ModeEnsemble(etas=np.full(100, 0.01), nbars=np.full(100, 0.1))
    st = debye_waller_stats(ens)
    p = st.prob_within(1e-4)
    assert 0.22 <= p <= 0.24


def mc_reduction_factors(etas, nbars, nsamp, seed, ncap=80):
    rng = np.random.default_rng(seed)
    x = etas**2
    tables = np.empty((len(etas), ncap + 1))
    for j, xv in enumerate(x):
        lm2, lm1 = 1.0, 1.0 - xv
        tables[j, 0], tables[j, 1] = lm2, lm1
        for k in range(2, ncap + 1):
            lm2, lm1 = lm1, ((2 * k - 1 - xv) * lm1 - (k - 1) * lm2) / k
            tables[j, k] = lm1
    tables *= np.exp(-x[:, None] / 2)
    n = rng.geometric((1.0 / (1.0 + nbars))[None, :], size=(nsamp, len(etas))) - 1
    assert n.max() <= ncap
    return np.prod(tables[np.arange(len(etas))[None, :], n], axis=1)


def test_dw_monte_carlo_mean_and_probability():
    ens = ModeEnsemble(etas=np.full(100, 0.01), nbars=np.full(100, 0.1))
    st = debye_waller_stats(ens)
    fac = mc_reduction_factors(ens.etas, ens.nbars, 100_000, seed=0)
    sem = fac.std(ddof=1) / math.sqrt(len(fac))
    assert abs(fac.mean() - st.mean_factor) < 3.0 * sem
    phat = float(np.mean(np.abs(fac / st.mean_factor - 1.0) < 1e-4))
    sp = math.sqrt(phat * (1.0 - phat) / len(fac))
    assert abs(phat - st.prob_within(1e-4)) < 3.0 * sp


def test_dw_many_mode_scaling_law():
    # splitting fixed total coupling over L modes shrinks the rms as 1/sqrt(L)
    eta1, nbar = 0.2, 0.5
    for L in (4, 16, 64):
        st = debye_waller_stats(
            ModeEnsemble(etas=np.full(L, eta1 / math.sqrt(L)), nbars=np.full(L, nbar))
        )
        pred = eta1**2 * math.sqrt(nbar * (nbar + 1.0) / L)
        assert st.rms_exact == pytest.approx(pred, rel=1e-3)
    fac = mc_reduction_factors(np.full(16, eta1 / 4.0), np.full(16, nbar), 100_000, 3)
    mc_rms = float(np.std(fac, ddof=1) / np.mean(fac))
    assert mc_rms == pytest.approx(eta1**2 * math.sqrt(nbar * 1.5 / 16), rel=0.05)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["Omega", "eta"])
def test_coupling_params_reject_non_finite(field, value):
    # nan < 0 is False, so the sign check cannot catch these
    with pytest.raises(RangeError, match=f"CouplingParams.{field} must be finite"):
        CouplingParams(**{"Omega": 1.0, "eta": 0.1, field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["etas", "nbars"])
def test_mode_ensemble_rejects_non_finite(field, value):
    arrays = {"etas": np.array([0.1, 0.2]), "nbars": np.array([0.1, 0.3])}
    arrays[field][1] = value
    with pytest.raises(RangeError, match=f"ModeEnsemble.{field} must be finite"):
        ModeEnsemble(**arrays)


def test_mode_ensemble_validation():
    with pytest.raises(ModelInputError):
        ModeEnsemble(etas=np.array([0.1, 0.2]), nbars=np.array([0.1]))
    with pytest.raises(RangeError):
        ModeEnsemble(etas=np.array([-0.1]), nbars=np.array([0.1]))
    with pytest.raises(RangeError):
        debye_waller_stats(
            ModeEnsemble(etas=np.array([0.1]), nbars=np.array([0.1]))
        ).prob_within(-1.0)


# ------------------------------------------------------- standing waves


def test_sw_single_sine():
    d = standing_wave_coefficients([7.0e6], "sine")
    assert d.coefficients == pytest.approx([1.0])
    assert d.killed_orders == ()
    assert d.suppression_exponent == 2
    assert d.leading_residual_order == 3
    assert d.suppression(0.1) == pytest.approx(0.01)


def test_sw_sine_node_kills_even_transitions():
    # field ~ sin: only odd Fock-level changes couple at the node
    a_op = lowering(40)
    X = 0.3 * (a_op + a_op.T)
    S = (expm(1j * X) - expm(-1j * X)) / 2j
    for n in range(7):
        for m in range(7):
            if (n - m) % 2 == 0:
                assert abs(S[n, m]) < 1e-12


def test_sw_two_wave_sine_ratio():
    d = standing_wave_coefficients([1.0, 2.0], "sine")
    C = d.coefficients
    assert C[1] / C[0] == pytest.approx(-1.0 / 8.0, rel=1e-13)
    assert C[0] * 1.0 + C[1] * 2.0 == pytest.approx(1.0, rel=1e-13)
    assert d.killed_orders == (3,)
    assert d.suppression_exponent == 4


def test_sw_three_wave_cosine_taylor():
    d = standing_wave_coefficients([1.0, 2.0, 3.0], "cosine")
    C = d.coefficients
    rho = np.array([1.0, 2.0, 3.0])
    assert abs(np.sum(C) - 1.0) < 1e-12
    assert abs(np.sum(C * rho**2)) < 1e-12
    assert abs(np.sum(C * rho**4)) < 1e-12
    assert d.killed_orders == (2, 4)
    # surviving residual starts at z^6: halving z divides it by ~64
    f = lambda z: float(np.sum(C * np.cos(rho * z)))
    ratio = (f(0.1) - 1.0) / (f(0.05) - 1.0)
    assert abs(ratio - 64.0) < 1.0


def test_sw_degenerate_wavenumbers():
    with pytest.raises(RangeError, match="wavenumber set is degenerate"):
        standing_wave_coefficients([1.0, 1.0], "sine")
    with pytest.raises(RangeError, match="wavenumber set is degenerate"):
        standing_wave_coefficients([1.0, 2.0, 2.0], "cosine")
    with pytest.raises(ModelInputError):
        standing_wave_coefficients([1.0], "triangle")
    with pytest.raises(RangeError):
        standing_wave_coefficients([1.0, -2.0], "sine")


# ------------------------------------------------------ emission figures


def test_emission_ratio_anchor():
    tp = 2.0 * math.pi
    er = spontaneous_emission_ratio(
        Gamma_s=tp * 25e6, Omega1=tp * 10e6, eta=0.1, Delta=tp * 1e14
    )
    assert er.xi == pytest.approx(2.5e-6, rel=1e-9)
    assert er.kappa_opt == pytest.approx(1e-6, rel=1e-9)
    assert er.kappa_opt / er.xi == pytest.approx(0.4, rel=1e-9)
    assert er.xi_min == pytest.approx(2.5e-6, rel=1e-9)


def test_emission_ratio_scan_matches_optimum():
    tp = 2.0 * math.pi
    kw = dict(Gamma_s=tp * 25e6, Omega1=tp * 10e6, eta=0.1, Delta=tp * 1e14)
    best = min(
        spontaneous_emission_ratio(kappa=float(k), **kw).xi
        for k in np.logspace(-8, -4, 2001)
    )
    xi_min = spontaneous_emission_ratio(**kw).xi_min
    assert abs(best / xi_min - 1.0) < 0.01
    # off-optimum values sit strictly above
    assert spontaneous_emission_ratio(kappa=1e-5, **kw).xi > xi_min


def test_emission_ratio_edge_cases():
    assert (
        spontaneous_emission_ratio(Gamma_s=0.0, Omega1=1.0, eta=0.1, Delta=1e9).xi
        == 0.0
    )
    er = spontaneous_emission_ratio(raman=True, Gamma=2.0e7, Delta_R=2.0e12)
    assert er.xi == pytest.approx(1e-5, rel=1e-12)
    with pytest.raises(ModelInputError):
        spontaneous_emission_ratio(Gamma_s=1.0, Omega1=1.0, eta=0.1)
    with pytest.raises(ModelInputError):
        spontaneous_emission_ratio(raman=True, Gamma=1.0)
    with pytest.raises(RangeError):
        spontaneous_emission_ratio(Gamma_s=1.0, Omega1=1.0, eta=0.1, Delta=1e9, kappa=-1.0)


# ------------------------------------------------------------ addressing


def test_stark_addressing_anchor():
    out = stark_addressing_epsilon(math.pi, 1)
    assert abs(out["epsilon"] - 0.208) <= 0.002
    assert abs(out["xi_phase"] - 1.74 * math.pi) <= 0.02 * math.pi
    # closed forms
    assert out["epsilon"] == pytest.approx((5.0 - math.sqrt(21.0)) / 2.0, rel=1e-12)
    assert out["xi_phase"] == pytest.approx(math.pi * math.sqrt(3.0), rel=1e-12)


def test_stark_addressing_vieta_and_limits():
    for theta, m in [(math.pi, 1), (math.pi / 2, 1), (1.5, 3)]:
        eps = stark_addressing_epsilon(theta, m)["epsilon"]
        b = 1.0 + (2.0 * m * math.pi / theta) ** 2
        other = (b + math.sqrt(b * b - 4.0)) / 2.0
        assert eps * other == pytest.approx(1.0, rel=1e-10)
        assert 0.0 < eps < 1.0
    # neighbor fully detuned as the pulse area shrinks
    eps = stark_addressing_epsilon(1e-3, 1)["epsilon"]
    assert eps == pytest.approx((1e-3 / (2.0 * math.pi)) ** 2, rel=1e-6)
    with pytest.raises(RangeError, match="no epsilon root strictly inside"):
        stark_addressing_epsilon(2.0 * math.pi, 1)
    with pytest.raises(RangeError):
        stark_addressing_epsilon(0.0, 1)
    with pytest.raises(RangeError):
        stark_addressing_epsilon(math.pi, 0)


def test_stark_addressing_dynamics_oracle():
    # integrate the detuned two-level problem at the returned intensity
    # ratio: the neighbor's populations must close and the leftover
    # relative phase must equal xi (sign set by the shift direction)
    out = stark_addressing_epsilon(math.pi, 1)
    eps, xi = out["epsilon"], out["xi_phase"]
    Om = 1.0
    Delta = 2.0 * Om * (1.0 - eps) / math.sqrt(eps)
    T = math.pi / (2.0 * Om)

    def rhs(t, y):
        cdn = y[0] + 1j * y[1]
        cup = y[2] + 1j * y[3]
        ddn = -1j * Om * np.exp(1j * Delta * t) * cup
        dup = -1j * Om * np.exp(-1j * Delta * t) * cdn
        return [ddn.real, ddn.imag, dup.real, dup.imag]

    lo = solve_ivp(rhs, (0.0, T), [1.0, 0.0, 0.0, 0.0], rtol=1e-12, atol=1e-14)
    hi = solve_ivp(rhs, (0.0, T), [0.0, 0.0, 1.0, 0.0], rtol=1e-12, atol=1e-14)
    c_dn = lo.y[0, -1] + 1j * lo.y[1, -1]
    leak = lo.y[2, -1] + 1j * lo.y[3, -1]
    c_up = hi.y[2, -1] + 1j * hi.y[3, -1]
    assert abs(abs(c_dn) - 1.0) < 1e-9
    assert abs(leak) < 1e-9
    rel = c_up / c_dn
    assert abs(rel - np.exp(-1j * xi)) < 1e-6


# ------------------------------------------------------------- shot noise


def test_shot_noise_floor_anchor():
    v = shot_noise_floor(1.0, 1e-6, 313e-9, 0.5, 0.5)
    assert abs(v / 2.3e-6 - 1.0) < 0.05


def test_shot_noise_floor_scalings():
    base = shot_noise_floor(1.0, 1e-6, 313e-9, 0.5, 0.5)
    assert shot_noise_floor(1.0, 1e-6, 313e-9, 1.0, 0.5) == pytest.approx(
        base / math.sqrt(2.0), rel=1e-12
    )
    assert shot_noise_floor(1.0, 1e-4, 313e-9, 0.5, 0.5) == pytest.approx(
        base * 0.1, rel=1e-12
    )
    with pytest.raises(RangeError):
        shot_noise_floor(-1.0, 1e-6, 313e-9, 0.5, 0.5)
    with pytest.raises(RangeError):
        shot_noise_floor(1.0, 1e-6, 313e-9, 0.5, 1.0)
