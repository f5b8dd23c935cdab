"""Tests for heated-reservoir evolution and measurement-side diagnostics.

Oracles used here and nowhere else:

* scipy.integrate.solve_ivp (DOP853, rtol 1e-11) integrating the same
  element-wise reservoir equations on an independent code path, for the
  master-equation propagator cross-check and for the three-level
  neighbor leakage check.
* An independently renormalized geometric distribution for the thermal
  fixed point (built from the closed-form ratio, not from make_state).
* Richardson-extrapolated finite differences for the short-time decay
  rates of ground population and of the 0-1 coherence.
* A 2,048-phase trapezoid rule over the drive phase (spectrally
  accurate on the periodic interval) for the exact phase average of the
  fast-modulation signal.
* Monte Carlo sampling (seeded numpy Generator) of slow amplitude-noise
  ensembles and of the fast-modulation phase average.
* Bisection on the analytic envelopes for the half-contrast points,
  against the closed forms sqrt(ln 2 / 2) and 1/sqrt(2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from ionsim.coupling import CouplingParams, rabi_frequency
from ionsim.decoherence import (
    BathParams,
    RabiSignal,
    coherence_tomography,
    fast_amplitude_noise_visibility,
    invert_populations,
    master_equation_evolve,
    master_equation_trajectory,
    mean_n_evolution,
    rabi_decay_signal,
    slow_amplitude_noise_envelope,
    spectator_leakage,
)
from ionsim.errors import (
    DimensionError,
    ModelInputError,
    RangeError,
    TruncationError,
)
from ionsim.quantum_core import DensityMatrix, QuantumState, index_of


def _fock_dm(n, n_max):
    r = np.zeros((n_max + 1, n_max + 1), complex)
    r[n, n] = 1.0
    return DensityMatrix(r, n_max)


def _coherence_dm(n_max):
    # (|0> + |1>)/sqrt(2) as a projector
    r = np.zeros((n_max + 1, n_max + 1), complex)
    r[0, 0] = r[1, 1] = 0.5
    r[0, 1] = r[1, 0] = 0.5
    return DensityMatrix(r, n_max)


def _reservoir_rhs(n_max, gamma, nbar):
    # independent element-wise right-hand side for solve_ivp
    idx = np.arange(n_max + 1)
    m = idx[:, None].astype(float)
    n = idx[None, :].astype(float)
    loss = -0.5 * gamma * (2.0 * nbar * (m + n + 1.0) + (m + n))
    up = gamma * (nbar + 1.0) * np.sqrt((m + 1.0) * (n + 1.0))
    down = gamma * nbar * np.sqrt(m * n)

    def rhs(_t, y):
        r = y.reshape(n_max + 1, n_max + 1)
        d = loss * r
        d[:-1, :-1] += up[:-1, :-1] * r[1:, 1:]
        d[1:, 1:] += down[1:, 1:] * r[:-1, :-1]
        return d.ravel()

    return rhs


# ---------------------------------------------------------------- bath params


def test_bath_params_validation():
    with pytest.raises(RangeError):
        BathParams(gamma=-1.0, nbar=0.5)
    with pytest.raises(RangeError):
        BathParams(gamma=1.0, nbar=-0.1)


# ---------------------------------------------------------------- signal container


def test_rabi_signal_validation():
    tau = np.linspace(0.0, 1.0, 5)
    good = 0.5 * np.ones(5)
    RabiSignal(tau, good)
    with pytest.raises(DimensionError):
        RabiSignal(tau, good[:4])
    with pytest.raises(DimensionError):
        RabiSignal(tau.reshape(1, 5), good.reshape(1, 5))
    with pytest.raises(ModelInputError):
        RabiSignal(tau[::-1].copy(), good)       # decreasing abscissa
    with pytest.raises(ModelInputError):
        RabiSignal(tau - 0.5, good)              # negative times
    with pytest.raises(ModelInputError):
        RabiSignal(tau, good + 0.6)              # leaves [0, 1]
    # tiny numerical excursions are clipped, not rejected
    s = RabiSignal(tau, np.array([0.0, 1.0 + 5e-10, -5e-10, 0.5, 1.0]))
    assert s.P_down.min() >= 0.0 and s.P_down.max() <= 1.0


# ---------------------------------------------------------------- master equation basics


def test_evolution_identity_when_switched_off():
    rho = _coherence_dm(4)
    b = BathParams(gamma=0.0, nbar=5.0)
    out = master_equation_evolve(rho, b, t=3.0, dt=0.1)
    assert np.array_equal(out.rho, rho.rho)
    out0 = master_equation_evolve(rho, BathParams(1.0, 1.0), t=0.0, dt=0.1)
    assert np.array_equal(out0.rho, rho.rho)


def test_evolution_input_validation():
    rho = _fock_dm(0, 4)
    b = BathParams(gamma=1.0, nbar=1.0)
    with pytest.raises(ModelInputError):
        master_equation_evolve(np.eye(5), b, t=1.0, dt=0.01)
    with pytest.raises(RangeError):
        master_equation_evolve(rho, b, t=-1.0, dt=0.01)
    with pytest.raises(RangeError):
        master_equation_evolve(rho, b, t=1.0, dt=0.0)
    with pytest.raises(RangeError):
        next(master_equation_trajectory(rho, b, 1.0, 0))


def test_truncation_guard_fires_on_undersized_basis():
    # start high in a hot bath so population piles onto the top level
    rho = _fock_dm(4, 6)
    b = BathParams(gamma=1.0, nbar=2.0)
    with pytest.raises(TruncationError):
        master_equation_evolve(rho, b, t=2.0, dt=0.01 / (3.0 * 7))


def test_short_time_ground_population_rate():
    # d rho_00 / dt at t=0 from |0><0| is -gamma*nbar (only upward loss)
    n_max = 8
    gamma, nbar = 1.0, 0.5
    rho = _fock_dm(0, n_max)
    b = BathParams(gamma, nbar)

    def p0(t):
        return master_equation_evolve(rho, b, t, dt=t).rho[0, 0].real

    t1, t2 = 1e-6, 2e-6
    s1 = (p0(t1) - 1.0) / t1
    s2 = (p0(t2) - 1.0) / t2
    rate = 2.0 * s1 - s2          # Richardson kills the O(t) term
    assert rate == pytest.approx(-gamma * nbar, rel=1e-6)


def test_short_time_coherence_rate_exact_coefficient():
    # the 0-1 coherence decays at gamma*(2*nbar + 1/2), not 2*nbar*gamma
    n_max = 8
    gamma, nbar = 1.0, 0.5
    rho = _coherence_dm(n_max)
    b = BathParams(gamma, nbar)

    def c01(t):
        return master_equation_evolve(rho, b, t, dt=t).rho[0, 1].real

    t1, t2 = 1e-6, 2e-6
    s1 = (c01(t1) - 0.5) / t1
    s2 = (c01(t2) - 0.5) / t2
    rate = -(2.0 * s1 - s2) / 0.5
    assert rate == pytest.approx(gamma * (2.0 * nbar + 0.5), rel=1e-6)


def test_coherence_rate_approaches_heating_limit_when_hot():
    # for nbar >> 1 the same measurement lands within 1% of 2*nbar*gamma
    n_max = 8
    gamma, nbar = 1.0, 50.0
    rho = _coherence_dm(n_max)
    b = BathParams(gamma, nbar)

    def c01(t):
        return master_equation_evolve(rho, b, t, dt=t).rho[0, 1].real

    t1, t2 = 1e-8, 2e-8
    s1 = (c01(t1) - 0.5) / t1
    s2 = (c01(t2) - 0.5) / t2
    rate = -(2.0 * s1 - s2) / 0.5
    assert rate == pytest.approx(gamma * (2.0 * nbar + 0.5), rel=1e-6)
    assert abs(rate / (2.0 * nbar * gamma) - 1.0) < 0.01


def test_thermal_fixed_point_reached_from_ground():
    # long evolution from |0><0| lands on the geometric thermal state
    n_max = 40
    gamma, nbar = 1.0, 1.0
    rho = _fock_dm(0, n_max)
    b = BathParams(gamma, nbar)
    dt = 0.01 / (gamma * (nbar + 1.0) * (n_max + 1))
    out = master_equation_evolve(rho, b, t=20.0, dt=dt)
    # independent geometric reference, renormalized on the same ladder
    x = nbar / (nbar + 1.0)
    ref = x ** np.arange(n_max + 1)
    ref /= ref.sum()
    diag = np.real(np.diag(out.rho))
    tv = 0.5 * np.abs(diag - ref).sum()
    assert tv <= 1e-6
    assert abs(out.trace() - 1.0) <= 1e-9
    assert np.linalg.eigvalsh(out.rho).min() >= -1e-8
    off = out.rho - np.diag(np.diag(out.rho))
    assert np.abs(off).max() <= 1e-12   # diagonal stays diagonal


def test_fixed_step_matches_adaptive_integrator():
    # random positive block with coherences, against solve_ivp on the
    # same equations coded independently
    n_max = 14
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    block = a @ a.conj().T
    block /= np.trace(block).real
    r0 = np.zeros((n_max + 1, n_max + 1), complex)
    r0[:4, :4] = block
    rho = DensityMatrix(r0, n_max)
    gamma, nbar = 0.7, 0.3
    b = BathParams(gamma, nbar)
    t = 0.8
    dt = 0.01 / (gamma * (nbar + 1.0) * (n_max + 1))
    mine = master_equation_evolve(rho, b, t, dt).rho
    sol = solve_ivp(_reservoir_rhs(n_max, gamma, nbar), (0.0, t), r0.ravel(),
                    method="DOP853", rtol=1e-11, atol=1e-13)
    ref = sol.y[:, -1].reshape(n_max + 1, n_max + 1)
    assert np.abs(mine - ref).max() <= 1e-10


# ---------------------------------------------------------------- mean occupation


def test_mean_n_closed_form_endpoints():
    b = BathParams(gamma=0.5, nbar=2.0)
    assert mean_n_evolution(3.0, b, 0.0) == pytest.approx(3.0, rel=1e-15)
    assert mean_n_evolution(3.0, b, 1e3) == pytest.approx(2.0, rel=1e-12)
    # relaxation is monotone between the endpoints
    ts = np.linspace(0.0, 10.0, 50)
    vals = mean_n_evolution(5.0, b, ts)
    assert np.all(np.diff(vals) < 0.0)
    cold = mean_n_evolution(0.0, b, ts)
    assert np.all(np.diff(cold) > 0.0)
    with pytest.raises(RangeError):
        mean_n_evolution(-1.0, b, 1.0)
    with pytest.raises(RangeError):
        mean_n_evolution(1.0, b, -1.0)


def test_mean_n_tracks_the_integrator():
    n_max = 40
    gamma, nbar = 1.0, 0.5
    rho = _fock_dm(3, n_max)
    b = BathParams(gamma, nbar)
    dt = 0.01 / (gamma * (nbar + 1.0) * (n_max + 1))
    out = master_equation_evolve(rho, b, t=1.0, dt=dt)
    assert out.mean_n() == pytest.approx(mean_n_evolution(3.0, b, 1.0), rel=1e-5)


def test_mean_n_relaxation_rate_fit():
    # log-linear fit of <n>(t) - nbar over checkpoints recovers gamma
    n_max = 40
    gamma, nbar = 1.0, 0.5
    b = BathParams(gamma, nbar)
    dt = 0.01 / (gamma * (nbar + 1.0) * (n_max + 1))
    rho = _fock_dm(3, n_max)
    ts = np.linspace(0.2, 3.0, 8)
    excess = []
    prev_t = 0.0
    cur = rho
    for t in ts:
        cur = master_equation_evolve(cur, b, t - prev_t, dt)
        excess.append(cur.mean_n() - nbar)
        prev_t = t
    slope = np.polyfit(ts, np.log(excess), 1)[0]
    assert -slope == pytest.approx(gamma, rel=1e-4)


# ---------------------------------------------------------------- decaying flops


def test_decay_signal_pure_cosine_without_damping():
    c = CouplingParams(Omega=1.0, eta=0.15)
    tau = np.linspace(0.0, 20.0, 400)
    sig = rabi_decay_signal(np.array([1.0]), 0.0, c, tau)
    f0 = rabi_frequency(1, 0, c)
    ref = 0.5 * (1.0 + np.cos(2.0 * f0 * tau))
    assert np.abs(sig.P_down - ref).max() <= 1e-14


def test_decay_signal_single_level_damped_cosine():
    # one Fock level with decay gives the canonical damped flop curve
    c = CouplingParams(Omega=1.0, eta=0.15)
    tau = np.linspace(0.0, 30.0, 600)
    g0 = 0.05
    sig = rabi_decay_signal(np.array([1.0]), g0, c, tau)
    f0 = rabi_frequency(1, 0, c)
    ref = 0.5 * (1.0 + np.exp(-g0 * tau) * np.cos(2.0 * f0 * tau))
    assert np.abs(sig.P_down - ref).max() <= 1e-14


def test_decay_signal_is_linear_in_populations():
    # thermal weights: the signal is the same weighted sum of per-level
    # signals, term by term
    c = CouplingParams(Omega=1.0, eta=0.12)
    tau = np.linspace(0.0, 15.0, 150)
    nbar = 1.0
    x = nbar / (nbar + 1.0)
    pops = (1.0 - x) * x ** np.arange(6)
    sig = rabi_decay_signal(pops, 0.02, c, tau)
    acc = np.zeros_like(tau)
    for n, p in enumerate(pops):
        unit = np.zeros(6)
        unit[n] = 1.0
        acc += p * (2.0 * rabi_decay_signal(unit, 0.02, c, tau).P_down - 1.0)
    ref = 0.5 * (1.0 + acc)
    assert np.abs(sig.P_down - ref).max() <= 1e-12


def test_decay_signal_rate_model_forms():
    c = CouplingParams(Omega=1.0, eta=0.1)
    tau = np.linspace(0.0, 5.0, 50)
    pops = np.array([0.6, 0.4])
    # level n decays at gamma0 * sqrt(n + 1)
    sig = rabi_decay_signal(pops, 0.1, c, tau)
    ref = 0.5 * (1.0 + sum(
        p * np.exp(-0.1 * math.sqrt(n + 1.0) * tau)
        * np.cos(2.0 * rabi_frequency(n + 1, n, c) * tau)
        for n, p in enumerate(pops)))
    assert np.abs(sig.P_down - ref).max() <= 1e-15
    with pytest.raises(RangeError):
        rabi_decay_signal(pops, -0.1, c, tau)
    with pytest.raises(ModelInputError):
        rabi_decay_signal(np.array([0.8, 0.4]), 0.0, c, tau)   # sum > 1
    with pytest.raises(ModelInputError):
        rabi_decay_signal(np.array([-0.2, 0.5]), 0.0, c, tau)
    with pytest.raises(DimensionError):
        rabi_decay_signal(np.zeros((2, 2)), 0.0, c, tau)


# ---------------------------------------------------------------- population inversion


def _round_trip_signal(pops, g0=0.005):
    c = CouplingParams(Omega=1.0, eta=0.1)
    tau = np.linspace(0.0, 360.0, 901)
    return rabi_decay_signal(np.asarray(pops, float), g0, c, tau), c


def test_inversion_round_trip_noiseless():
    truth = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])
    sig, c = _round_trip_signal(truth)
    out = invert_populations(sig, c, n_cut=5, gamma_model=0.005)
    assert np.abs(out["P"] - truth).max() <= 0.01
    assert out["residual"] <= 1e-8
    # empty bins stay empty
    assert out["P"][3:].max() <= 1e-6


def test_inversion_ground_state_identified():
    sig, c = _round_trip_signal([1.0])
    out = invert_populations(sig, c, n_cut=5, gamma_model=0.005)
    assert out["P"][0] >= 0.999
    assert out["P"][1:].sum() <= 1e-3


def test_inversion_sampling_guards():
    c = CouplingParams(Omega=1.0, eta=0.1)
    # grid too coarse for the fastest ladder frequency
    tau = np.linspace(0.0, 360.0, 40)
    sig = rabi_decay_signal(np.array([1.0]), 0.005, c, tau)
    with pytest.raises(RangeError):
        invert_populations(sig, c, n_cut=5, gamma_model=0.005)
    # span too short to split neighboring ladder lines
    tau2 = np.linspace(0.0, 160.0, 2000)
    sig2 = rabi_decay_signal(np.array([1.0]), 0.005, c, tau2)
    with pytest.raises(RangeError, match="adjacent ladder frequencies separated by"):
        invert_populations(sig2, c, n_cut=5, gamma_model=0.005)
    with pytest.raises(RangeError):
        invert_populations(sig, c, n_cut=-1, gamma_model=0.005)


def test_inversion_under_projection_noise():
    # 2% additive noise: recovered bins stay within 0.05 across seeds
    truth = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])
    sig, c = _round_trip_signal(truth)
    errs = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        noisy = np.clip(sig.P_down + rng.normal(0.0, 0.02, sig.P_down.size), 0.0, 1.0)
        nsig = RabiSignal(sig.tau_grid, noisy)
        out = invert_populations(nsig, c, n_cut=5, gamma_model=0.005)
        assert out["P"].sum() <= 1.0 + 1e-12
        errs.append(np.abs(out["P"] - truth))
    errs = np.concatenate(errs)
    assert np.quantile(errs, 0.95) <= 0.05
    assert errs.max() <= 0.2       # no catastrophic outlier either


def test_inversion_rescales_overdriven_contrast():
    # contrast > 1 baked into the signal: estimate is clamped to a
    # probability vector instead of leaking weight
    c = CouplingParams(Omega=1.0, eta=0.1)
    tau = np.linspace(0.0, 360.0, 901)
    f0 = rabi_frequency(1, 0, c)
    raw = 0.5 * (1.0 + 1.25 * np.exp(-0.005 * tau) * np.cos(2.0 * f0 * tau))
    sig = RabiSignal(tau, np.clip(raw, 0.0, 1.0))
    out = invert_populations(sig, c, n_cut=3, gamma_model=0.005)
    assert out["P"].sum() <= 1.0 + 1e-12
    assert out["P"].min() >= 0.0


# ---------------------------------------------------------------- slow amplitude noise


def test_slow_noise_zero_width_is_bare_cosine():
    tau = np.linspace(0.0, 5.0, 100)
    for dist in ("gaussian", "laplacian"):
        p = slow_amplitude_noise_envelope(dist, 0.0, tau, 1.0)
        assert np.abs(p - 0.5 * (1.0 + np.cos(2.0 * tau))).max() <= 1e-15


def test_slow_noise_envelope_closed_forms():
    tau = np.linspace(0.0, 4.0, 9)
    d = 0.4
    pg = slow_amplitude_noise_envelope("gaussian", d, tau, 1.0)
    pl = slow_amplitude_noise_envelope("laplacian", d, tau, 1.0)
    eg = np.exp(-2.0 * (d * tau) ** 2)
    el = 1.0 / (1.0 + 2.0 * (d * tau) ** 2)
    assert np.abs(2.0 * pg - 1.0 - eg * np.cos(2.0 * tau)).max() <= 1e-14
    assert np.abs(2.0 * pl - 1.0 - el * np.cos(2.0 * tau)).max() <= 1e-14
    with pytest.raises(ModelInputError):
        slow_amplitude_noise_envelope("cauchy", d, tau, 1.0)
    with pytest.raises(RangeError):
        slow_amplitude_noise_envelope("gaussian", -0.1, tau, 1.0)


def test_slow_noise_half_contrast_points():
    # contrast halves near tau ~ 1/width for both shapes; the exact
    # crossings are sqrt(ln2/2)/width and 1/(sqrt(2)*width)
    d = 0.4

    def envelope(dist, tau):
        p = slow_amplitude_noise_envelope(dist, d, np.array([tau]), 1.0)
        return float(2.0 * p[0] - 1.0) / math.cos(2.0 * tau)

    for dist, exact in (("gaussian", math.sqrt(math.log(2.0) / 2.0) / d),
                        ("laplacian", 1.0 / (math.sqrt(2.0) * d))):
        lo, hi = 0.25 / d, 1.2 / d
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if envelope(dist, mid) > 0.5:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        assert crossing == pytest.approx(exact, rel=1e-6)
        assert 0.5 / d <= crossing <= 1.0 / d     # near 1/width


def test_slow_noise_gaussian_matches_monte_carlo():
    rng = np.random.default_rng(0)
    d, w0 = 0.4, 1.0
    tau = np.linspace(0.05, 3.0, 12)
    draws = rng.normal(w0, d, 100_000)
    samples = 0.5 * (1.0 + np.cos(2.0 * np.outer(draws, tau)))
    mc = samples.mean(axis=0)
    se = samples.std(axis=0) / math.sqrt(draws.size)
    p = slow_amplitude_noise_envelope("gaussian", d, tau, w0)
    assert np.abs(p - mc).max() <= 3.0 * se.max()


def test_slow_noise_laplacian_matches_monte_carlo():
    rng = np.random.default_rng(0)
    d, w0 = 0.4, 1.0
    tau = np.linspace(0.05, 3.0, 12)
    draws = rng.laplace(w0, d / math.sqrt(2.0), 100_000)  # scale b = rms/sqrt(2)
    samples = 0.5 * (1.0 + np.cos(2.0 * np.outer(draws, tau)))
    mc = samples.mean(axis=0)
    se = samples.std(axis=0) / math.sqrt(draws.size)
    p = slow_amplitude_noise_envelope("laplacian", d, tau, w0)
    assert np.abs((p - mc) / se).max() <= 3.0


# ---------------------------------------------------------------- fast amplitude noise


def test_fast_noise_zero_modulation():
    tau = np.linspace(0.0, 10.0, 50)
    out = fast_amplitude_noise_visibility(0.0, 5.0, tau, 1.0)
    bare = 0.5 * (1.0 + np.cos(2.0 * tau))
    assert np.abs(out["closed_form"] - bare).max() <= 1e-15
    assert np.abs(out["phi_average"] - bare).max() <= 1e-12
    with pytest.raises(RangeError):
        fast_amplitude_noise_visibility(2.0, 5.0, tau, 1.0)   # ratio > 0.3
    with pytest.raises(RangeError):
        fast_amplitude_noise_visibility(0.1, 0.0, tau, 1.0)


def _phase_trapezoid(dW, wa, tau, w0, phases=2048):
    """<P_down> averaged over uniform drive phases by the trapezoid rule."""
    ph = np.linspace(0.0, 2.0 * math.pi, phases, endpoint=False)
    r = dW / wa
    wt = wa * tau
    # accumulated half-angle: W0 tau + r [cos(ph)(1 - cos wt) + sin(ph) sin wt]
    half = w0 * tau[None, :] + r * (np.cos(ph)[:, None] * (1.0 - np.cos(wt))[None, :]
                                    + np.sin(ph)[:, None] * np.sin(wt)[None, :])
    return 0.5 + 0.5 * np.mean(np.cos(2.0 * half), axis=0)


def test_fast_noise_phase_average_matches_bessel_form():
    # the Bessel form of the phase average must reproduce the quadrature
    # to near machine precision
    dW, wa, w0 = 0.5, 5.0, 1.0
    tau = np.linspace(0.0, 30.0, 301)
    out = fast_amplitude_noise_visibility(dW, wa, tau, w0)
    assert np.abs(out["phi_average"] - _phase_trapezoid(dW, wa, tau, w0)).max() <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.3, 0.3), st.floats(0.1, 10.0), st.floats(0.0, 5.0),
       st.floats(0.0, 10.0))
def test_fast_noise_phase_average_matches_quadrature_anywhere(r, wa, w0, tau_stop):
    tau = np.linspace(0.0, tau_stop, 64)
    out = fast_amplitude_noise_visibility(r * wa, wa, tau, w0)
    assert np.abs(out["phi_average"] - _phase_trapezoid(r * wa, wa, tau, w0)).max() <= 1e-13


def test_fast_noise_closed_form_accuracy_at_small_ratio():
    dW, wa, w0 = 0.5, 5.0, 1.0
    tau = np.linspace(0.0, 30.0, 301)
    out = fast_amplitude_noise_visibility(dW, wa, tau, w0)
    assert np.abs(out["closed_form"] - out["phi_average"]).max() <= 1e-3


def test_fast_noise_visibility_dip_depth():
    # at ratio 0.1 the envelope bracket dips by 2 r^2 = 0.02 when the
    # modulation is a quarter period out of phase
    dW, wa, w0 = 0.5, 5.0, 1.0
    tau_q = (math.pi / 2.0) / wa
    out = fast_amplitude_noise_visibility(dW, wa, np.array([tau_q]), w0)
    r = dW / wa
    bracket = (2.0 * out["closed_form"][0] - 1.0) / math.cos(2.0 * w0 * tau_q)
    assert bracket == pytest.approx(1.0 - 2.0 * r ** 2, abs=1e-12)


def test_fast_noise_phase_average_matches_monte_carlo():
    dW, wa, w0 = 0.5, 5.0, 1.0
    tau = np.linspace(0.1, 12.0, 9)
    out = fast_amplitude_noise_visibility(dW, wa, tau, w0)
    rng = np.random.default_rng(0)
    ph = rng.uniform(0.0, 2.0 * math.pi, 100_000)
    r = dW / wa
    wt = wa * tau
    half = (w0 * tau)[None, :] + r * (np.cos(ph)[:, None] * (1.0 - np.cos(wt))[None, :]
                                      + np.sin(ph)[:, None] * np.sin(wt)[None, :])
    samples = 0.5 + 0.5 * np.cos(2.0 * half)
    mc = samples.mean(axis=0)
    se = samples.std(axis=0) / math.sqrt(ph.size)
    assert np.abs((out["phi_average"] - mc) / np.maximum(se, 1e-300)).max() <= 3.0


# ---------------------------------------------------------------- neighbor leakage


def test_spectator_silent_without_coupling():
    out = spectator_leakage(Omega=1.0, Omega_prime=0.0, Delta=20.0, duration=1.5)
    assert out["C_s_final"] <= 1e-14
    # bare two-level flop survives
    assert out["C_final"] ** 2 + 0.0 == pytest.approx(math.cos(1.5) ** 2, abs=1e-9)


def test_spectator_square_pulse_residue():
    # detuned neighbor picks up population of order (W'/Delta)^2; the
    # amplitude rides near W'/Delta = 0.05 with an oscillating factor
    out = spectator_leakage(Omega=1.0, Omega_prime=1.0, Delta=20.0, duration=1.5)
    assert 0.025 <= out["C_s_final"] <= 0.1
    assert out["norm_defect"] <= 1e-8
    assert out["stark_shift"] == pytest.approx(1.0 / 20.0, rel=1e-12)
    assert out["adiabatic_estimate"] <= 0.05 + 1e-9


def test_spectator_rk4_against_adaptive():
    Om, Omp, De, T = 1.0, 1.0, 20.0, 1.5
    out = spectator_leakage(Omega=Om, Omega_prime=Omp, Delta=De, duration=T)

    def rhs(t, y):
        cd, cu, cs = y
        return [-1j * (Om * cu + Omp * np.exp(-1j * De * t) * cs),
                -1j * Om * cd,
                -1j * Omp * np.exp(1j * De * t) * cd]

    sol = solve_ivp(rhs, (0.0, T), [1.0 + 0j, 0j, 0j],
                    method="DOP853", rtol=1e-11, atol=1e-13)
    ref = np.abs(sol.y[:, -1])
    assert abs(out["C_final"] - ref[0]) <= 1e-7
    assert abs(out["C_s_final"] - ref[2]) <= 1e-7


def test_spectator_smooth_pulse_suppression():
    # raised-cosine edges cut the residue well below the square-pulse
    # level 0.05 for the same W'/Delta
    out = spectator_leakage(Omega=1.0, Omega_prime=1.0, Delta=20.0,
                            envelope="smooth", duration=3.0, tau_r=1.0)
    assert out["C_s_final"] <= 0.05 * 0.05
    assert out["norm_defect"] <= 1e-8


def test_spectator_validation():
    with pytest.raises(ModelInputError):
        spectator_leakage(1.0, 1.0, Delta=0.0)
    with pytest.raises(RangeError):
        spectator_leakage(1.0, 1.0, Delta=10.0, duration=-1.0)
    with pytest.raises(ModelInputError):
        spectator_leakage(1.0, 1.0, Delta=10.0, envelope="triangle")
    with pytest.raises(ModelInputError):
        spectator_leakage(1.0, 1.0, Delta=10.0, envelope="smooth")   # no tau_r
    with pytest.raises(ModelInputError):
        spectator_leakage(1.0, 1.0, Delta=10.0, envelope="smooth",
                          duration=1.0, tau_r=0.8)                   # ramps overlap


# ---------------------------------------------------------------- coherence readout


def _tomo_state(amp0, amp1, n_max=6):
    amps = np.zeros(2 * (n_max + 1), complex)
    amps[index_of(0, 0, n_max)] = amp0
    amps[index_of(0, 1, n_max)] = amp1
    return QuantumState(amps, n_max)


def test_tomography_equal_superposition():
    c = CouplingParams(Omega=1.0, eta=0.1)
    s = _tomo_state(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    out = coherence_tomography(s, c)
    assert out["re"] == pytest.approx(0.5, abs=1e-9)
    assert out["im"] == pytest.approx(0.0, abs=1e-9)


def test_tomography_fock_and_quadrature_states():
    c = CouplingParams(Omega=1.0, eta=0.1)
    ground = _tomo_state(1.0, 0.0)
    out = coherence_tomography(ground, c)
    assert abs(out["re"]) <= 1e-9 and abs(out["im"]) <= 1e-9
    quad = _tomo_state(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    out2 = coherence_tomography(quad, c)
    assert out2["re"] == pytest.approx(0.0, abs=1e-9)
    assert out2["im"] == pytest.approx(0.5, abs=1e-9)


def test_tomography_validation():
    c = CouplingParams(Omega=1.0, eta=0.1)
    n_max = 6
    amps = np.zeros(2 * (n_max + 1), complex)
    amps[index_of(1, 0, n_max)] = 1.0       # upper spin populated
    with pytest.raises(ModelInputError):
        coherence_tomography(QuantumState(amps, n_max), c)
    with pytest.raises(ModelInputError):
        coherence_tomography(np.zeros(14), c)
