"""Tests for the spin-motion matrix-element module.

Oracles used here and nowhere else:
  * 40-level matrix exponential of i*eta*(a+a'), checked against the
    closed-form matrix element;
  * brute-force thermal sums (4000 Fock levels) for the reduction
    statistics;
  * Monte Carlo over thermal occupations (1e5 samples, fixed seed).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
