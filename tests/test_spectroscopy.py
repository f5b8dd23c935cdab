"""Tests for Ramsey fringes and clock-stability analytics.

Oracles used here and nowhere else:

* The closed-form fringe (1 - cos(d*T_R + phi2 - phi1))/2 against the
  pulse-composition route, across detuning grids and random phases.
* A seeded binomial Monte Carlo of the fringe-side frequency estimator
  for the projection-noise scaling.
* Hand-derived exponent identities: the two analysis modes must agree
  when the servo margin is pinned at 1, every stability must reproduce
  L^-eps/sqrt(T_R tau) at its own T_R, and the entangled advantage is
  L^(n/(2(n+1))).
"""

import math

import numpy as np
import pytest

from ionsim.errors import ModelInputError, RangeError
from ionsim.spectroscopy import (
    ClockParams,
    clock_lock_analysis,
    ramsey_probability,
)


def _params(**over):
    base = dict(L=100, tau=1e4, C=1e-3, n_exp=1.0, K2=2.0, K3=3.0, epsilon=0.5)
    base.update(over)
    return ClockParams(**base)


# ---------------------------------------------------------------- fringe


def test_fringe_extrema():
    assert ramsey_probability(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert ramsey_probability(math.pi, 1.0) == pytest.approx(0.0, abs=1e-12)
    # same-phase pulses invert the fringe
    assert ramsey_probability(0.0, 1.0, phases=(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_fringe_matches_closed_form_on_grid():
    for dw in np.linspace(-10.0, 10.0, 100):
        got = ramsey_probability(float(dw), 0.7)
        ref = 0.5 * (1.0 - math.cos(dw * 0.7 + math.pi))
        assert abs(got - ref) <= 1e-12


def test_fringe_matches_closed_form_random_phases():
    rng = np.random.default_rng(5)
    for _ in range(25):
        ph = rng.uniform(-math.pi, math.pi, 2)
        dw = float(rng.uniform(-5.0, 5.0))
        got = ramsey_probability(dw, 1.3, phases=(float(ph[0]), float(ph[1])))
        ref = 0.5 * (1.0 - math.cos(dw * 1.3 + ph[1] - ph[0]))
        assert abs(got - ref) <= 1e-12


def test_fringe_validation():
    with pytest.raises(RangeError):
        ramsey_probability(0.0, -1.0)
    for offset in (math.inf, math.nan):
        with pytest.raises(RangeError, match="phase omega_offset\\*T_R must be finite"):
            ramsey_probability(offset, 1.0)
    with pytest.raises(ModelInputError):
        ramsey_probability(0.0, 1.0, phases=(0.0, 1.0, 2.0))


# ---------------------------------------------------------------- projection noise


def test_projection_noise_matches_binomial_monte_carlo():
    # estimate the detuning from the fringe side over tau/T_R fringes,
    # 500 independent runs: the run-to-run spread must sit on the
    # projection-noise law L^-1/2 / sqrt(T_R tau) within 10%
    L, T_R, tau = 100, 1.0, 100.0
    target = L ** -0.5 / math.sqrt(T_R * tau)
    rng = np.random.default_rng(0)
    m = int(tau / T_R)
    estimates = []
    for _ in range(500):
        p_hat = rng.binomial(L, 0.5, m).mean() / L
        estimates.append(math.acos(float(np.clip(2.0 * p_hat - 1.0, -1.0, 1.0))) / T_R)
    spread = float(np.std(estimates, ddof=1))
    assert abs(spread / target - 1.0) <= 0.10


# ---------------------------------------------------------------- clock analysis


def test_clock_params_validation():
    _params()
    with pytest.raises(RangeError):
        _params(L=0)
    with pytest.raises(RangeError):
        _params(tau=0.0)
    with pytest.raises(RangeError):
        _params(C=0.0)
    with pytest.raises(RangeError):
        _params(n_exp=-0.6)
    with pytest.raises(RangeError):
        _params(K2=1.0)
    with pytest.raises(RangeError):
        _params(K3=0.5)
    with pytest.raises(ModelInputError):
        _params(epsilon=0.7)
    with pytest.raises(ModelInputError):
        clock_lock_analysis(_params(), mode="unconstrained")


def test_white_frequency_noise_erases_the_advantage():
    # n_exp = 0: both ensembles land on the same L^(-1/2) stability
    a = clock_lock_analysis(_params(n_exp=0.0, epsilon=0.5))
    b = clock_lock_analysis(_params(n_exp=0.0, epsilon=1.0))
    assert a["delta_omega"] == pytest.approx(b["delta_omega"], rel=1e-12)
    # and the L exponent is exactly -1/2: quadruple L, halve delta_omega
    c = clock_lock_analysis(_params(n_exp=0.0, L=400))
    assert c["delta_omega"] == pytest.approx(0.5 * a["delta_omega"], rel=1e-12)


def test_drifting_oscillator_advantage_ratio():
    # n_exp = 1, L = 100: entangled wins by 100^(1/4)
    a = clock_lock_analysis(_params(epsilon=0.5))
    b = clock_lock_analysis(_params(epsilon=1.0))
    assert a["delta_omega"] / b["delta_omega"] == pytest.approx(100.0 ** 0.25, rel=1e-12)


def test_advantage_ratio_crosses_unity_at_zero_exponent():
    for n, expect in ((0.25, "ent"), (0.0, "equal"), (-0.25, "non")):
        a = clock_lock_analysis(_params(n_exp=n, epsilon=0.5))["delta_omega"]
        b = clock_lock_analysis(_params(n_exp=n, epsilon=1.0))["delta_omega"]
        ratio = a / b
        ref = 100.0 ** (n / (2.0 * (n + 1.0)))
        assert ratio == pytest.approx(ref, rel=1e-12)
        if expect == "ent":
            assert ratio > 1.0
        elif expect == "non":
            assert ratio < 1.0
        else:
            assert ratio == pytest.approx(1.0, rel=1e-14)


def test_stability_reproduces_projection_noise_at_derived_t_r():
    # both modes: delta_omega == L^-eps / sqrt(T_R tau) at their own T_R
    for mode in ("constrained_K3", "constrained_K1"):
        for eps in (0.5, 1.0):
            p = ClockParams(L=37, tau=5e3, C=2e-3, n_exp=0.7, K2=1.7, K3=2.6,
                            epsilon=eps)
            out = clock_lock_analysis(p, mode)
            ident = p.L ** (-eps) / math.sqrt(out["T_R"] * p.tau)
            assert out["delta_omega"] == pytest.approx(ident, rel=1e-12)


def test_modes_agree_when_margin_is_pinned():
    # choosing K3 so that K1 = 1 must land both modes on the same point
    for n in (0.0, 0.5, 1.0, 2.0):
        base = _params(L=50, n_exp=n, K2=2.0)
        k3_star = math.pi * base.K2 ** (n + 0.5) * base.L ** (1.0 - base.epsilon)
        pinned = _params(L=50, n_exp=n, K2=2.0, K3=k3_star)
        via_k3 = clock_lock_analysis(pinned, "constrained_K3")
        via_k1 = clock_lock_analysis(base, "constrained_K1")
        assert via_k3["K1"] == pytest.approx(1.0, rel=1e-12)
        assert via_k3["T_R"] == pytest.approx(via_k1["T_R"], rel=1e-12)
        assert via_k3["delta_omega"] == pytest.approx(via_k1["delta_omega"], rel=1e-12)
        assert via_k1["K3"] == pytest.approx(k3_star, rel=1e-12)


def test_servo_margin_scaling_with_ensemble_size():
    # K1 grows as L^(1-eps): doubling L at eps = 1/2 scales it by sqrt(2)
    a = clock_lock_analysis(_params(L=100))["K1"]
    b = clock_lock_analysis(_params(L=200))["K1"]
    assert b / a == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # and at eps = 1 the margin is L-independent
    c = clock_lock_analysis(_params(L=100, epsilon=1.0))["K1"]
    d = clock_lock_analysis(_params(L=200, epsilon=1.0))["K1"]
    assert c == pytest.approx(d, rel=1e-12)


def test_tau_scaling_is_exact_inverse_square_root():
    a = clock_lock_analysis(_params(tau=1e4))["delta_omega"]
    b = clock_lock_analysis(_params(tau=4e4))["delta_omega"]
    assert a / b == pytest.approx(2.0, rel=1e-12)


def test_boundary_exponent_loses_ensemble_dependence():
    # n_exp = -1/2 in the pinned-margin mode: stability independent of L
    a = clock_lock_analysis(_params(L=1, n_exp=-0.5), "constrained_K1")
    b = clock_lock_analysis(_params(L=1000, n_exp=-0.5), "constrained_K1")
    assert a["delta_omega"] == pytest.approx(b["delta_omega"], rel=1e-12)
