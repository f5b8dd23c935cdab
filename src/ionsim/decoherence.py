"""Open-system motional dynamics and decoherence diagnostics.

The first half of the module propagates the thermal-reservoir master
equation for a single trapped mode exactly on a uniform time grid (one
matrix exponential per band of the number-basis equations) and provides
the thermal populations and analytic mean-occupation law it must reproduce.

The second half collects the measurement-side tools: synthesis and
inversion of decaying Rabi flop signals, averaged-signal envelopes for
slow and fast drive-strength noise, Stark-shift phase-noise ratios,
off-resonant spectator-level leakage, qubit-frequency modulation
sidebands, and the two-pulse interference protocol that reads out the
motional 0-1 coherence.

Conventions: rates are angular (rad/s), populations are probabilities,
and every Monte Carlo style check lives in the test suite, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import j0, jv
from scipy.optimize import nnls
from scipy import constants as _const

from .errors import DimensionError, ModelInputError, RangeError, TruncationError
from .quantum_core import DEFAULT_EPS_TRUNC, DensityMatrix, QuantumState
from .coupling import CouplingParams, ladder
from .pulse_engine import PulseSpec, apply_pulse


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class BathParams:
    """Thermal reservoir coupled to one motional mode.

    gamma is the energy relaxation rate (1/s) and nbar the equilibrium
    occupation the mode relaxes toward. The derived t_star is the mean
    time to leave the motional ground state, 1/(nbar*gamma); it is
    infinite for a zero-temperature or decoupled bath.
    """

    gamma: float
    nbar: float

    def __post_init__(self):
        if self.gamma < 0:
            raise RangeError("relaxation rate gamma must be >= 0")
        if self.nbar < 0:
            raise RangeError("equilibrium occupation nbar must be >= 0")

    @property
    def t_star(self) -> float:
        if self.gamma > 0 and self.nbar > 0:
            return 1.0 / (self.nbar * self.gamma)
        return math.inf

    def thermal_populations(self, n_max: int) -> np.ndarray:
        """nbar^n / (1+nbar)^(n+1) for n = 0..n_max, not renormalized over
        the kept levels (make_state("thermal") is)."""
        n = np.arange(n_max + 1)
        return (1.0 / (1.0 + self.nbar)) * (self.nbar / (1.0 + self.nbar)) ** n


@dataclass
class RabiSignal:
    """Sampled lower-state probability versus pulse duration.

    Holds two equal 1-d float arrays of at least two samples: tau_grid,
    strictly increasing and nonnegative, and P_down, validated to lie in
    [0, 1] within 1e-9 and stored clipped.
    """

    tau_grid: np.ndarray
    P_down: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau_grid, dtype=float)
        p = np.asarray(self.P_down, dtype=float)
        if tau.ndim != 1 or p.shape != tau.shape:
            raise DimensionError(
                f"tau grid {tau.shape} and P_down {p.shape} must be equal 1-d shapes"
            )
        if tau.size < 2:
            raise ModelInputError("signal needs at least two samples")
        if tau[0] < 0 or np.any(np.diff(tau) <= 0):
            raise ModelInputError("tau grid must be nonnegative and strictly increasing")
        if np.min(p) < -1e-9 or np.max(p) > 1 + 1e-9:
            raise ModelInputError("P_down outside [0, 1] beyond 1e-9 tolerance")
        self.tau_grid = tau
        self.P_down = np.clip(p, 0.0, 1.0)


# ---------------------------------------------------------------------------
# thermal-reservoir master equation


def _band_generator(k: int, N: int, gamma: float, nbar: float) -> np.ndarray:
    """Real tridiagonal generator of band k, x_j = rho[j+k, j], j = 0..N-k-1.

    The number-basis equations for element (m, n) are
        inflow  gamma*(nbar+1)*sqrt((m+1)(n+1)) * rho[m+1, n+1]
              + gamma*nbar*sqrt(m n)            * rho[m-1, n-1]
        loss   -gamma/2 * [2 nbar (m+n+1) + (m+n)] * rho[m, n]
    and never couple different bands k = m - n. The truncation keeps the
    full loss coefficient at the top level, so any population reaching
    n_max drains trace; the caller guards that population instead of
    renormalizing.
    """
    j = np.arange(N - k, dtype=float)
    A = np.diag(-0.5 * gamma * (2.0 * nbar * (2.0 * j + k + 1.0) + 2.0 * j + k))
    A += np.diag(gamma * (nbar + 1.0) * np.sqrt((j[:-1] + k + 1.0) * (j[:-1] + 1.0)), 1)
    A += np.diag(gamma * nbar * np.sqrt((j[1:] + k) * j[1:]), -1)
    return A


def master_equation_trajectory(rho: DensityMatrix, b: BathParams, t_end: float,
                               steps: int):
    """Relax a density matrix against a thermal reservoir, yielding the
    states at t_j = j * t_end / steps, j = 0..steps, one at a time.

    Band k = m - n of the number-basis equations steps through
    expm(A_k * t_end / steps), computed once per band that starts
    nonzero; the upper band is its conjugate, so every state is exactly
    Hermitian. Memory holds the propagators but does not grow with steps,
    and a single step holds one propagator at a time. TruncationError fires
    when a state's top Fock level holds more than 1e-8 (the truncated
    equations leak trace through it at rate gamma*nbar*(n_max+1)*rho[top])
    or its trace drifts more than 1e-9 from one; raise n_max for either.
    Every yielded matrix re-validates hermiticity and positivity.
    """
    if not isinstance(rho, DensityMatrix):
        raise ModelInputError("the master equation acts on a DensityMatrix")
    if t_end < 0:
        raise RangeError("evolution time must be >= 0")
    if steps < 1:
        raise RangeError("steps must be >= 1")
    yield rho.copy()
    h = t_end / steps
    if h == 0.0 or b.gamma == 0.0:
        for _ in range(steps):
            yield rho.copy()
        return
    n_max = rho.n_max
    N = n_max + 1
    bands = {k: x for k in range(N) if (x := np.diagonal(rho.rho, -k)).any()}
    props = {}                  # kept for later steps, so one step holds one at a time
    lo = np.arange(N)
    for _ in range(steps):
        r = np.zeros((N, N), dtype=complex)
        for k, band in bands.items():
            prop = props.get(k)
            if prop is None:
                prop = expm(_band_generator(k, N, b.gamma, b.nbar) * h)
                if steps > 1:
                    props[k] = prop
            bands[k] = band = prop @ band
            if k == 0:
                r[lo, lo] = band.real
            else:
                r[lo[k:], lo[:-k]] = band
                r[lo[:-k], lo[k:]] = band.conj()
        top = float(r[n_max, n_max].real)
        if top > DEFAULT_EPS_TRUNC:
            raise TruncationError(f"top-level population {top:.2e} exceeds "
                                  f"guard {DEFAULT_EPS_TRUNC:.1e}; raise n_max")
        drift = abs(float(np.trace(r).real) - 1.0)
        if drift > 1e-9:
            raise TruncationError(f"trace drifted by {drift:.2e} (> 1e-9): population "
                                  f"is reaching the truncation edge, raise n_max")
        yield DensityMatrix(r, n_max)


def master_equation_evolve(
    rho: DensityMatrix,
    b: BathParams,
    t: float,
    dt: float | None = None,
) -> DensityMatrix:
    """Relax a motional density matrix against a thermal reservoir for t:
    the one-step view of master_equation_trajectory, with its guards. dt
    is accepted for compatibility and ignored (RangeError if <= 0).
    """
    if dt is not None and dt <= 0:
        raise RangeError("step dt must be > 0")
    *_, out = master_equation_trajectory(rho, b, t, 1)
    return out


def mean_n_evolution(n0: float, b: BathParams, t):
    """Closed-form mean occupation nbar + (n0 - nbar) e^(-gamma t).

    Accepts a scalar or array of times; the steady state is nbar.
    """
    if n0 < 0:
        raise RangeError("initial occupation must be >= 0")
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise RangeError("times must be >= 0")
    out = b.nbar + (n0 - b.nbar) * np.exp(-b.gamma * tt)
    return float(out) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# decaying flop signals


def _decay_rates(gamma0: float, count: int) -> np.ndarray:
    """Per-level decay constants gamma_n = gamma0*sqrt(n+1), n = 0..count-1."""
    if gamma0 < 0:
        raise RangeError("decay constants must be >= 0")
    return float(gamma0) * np.sqrt(np.arange(count) + 1.0)


def rabi_decay_signal(
    populations,
    gamma_model: float,
    coupling: CouplingParams,
    tau_grid,
) -> RabiSignal:
    """Synthesize the first-sideband flop signal of a mixed motional state.

    P_down(tau) = 1/2 * (1 + sum_n P_n e^(-gamma_n tau) cos(2 Omega_{n+1,n} tau))

    with exact matrix elements and phenomenological per-level decay
    constants gamma_n = gamma0*sqrt(n+1), gamma0 = gamma_model.
    """
    P = np.asarray(populations, dtype=float)
    if P.ndim != 1 or P.size == 0:
        raise DimensionError("populations must be a nonempty 1-d sequence")
    if np.min(P) < -1e-12:
        raise ModelInputError("populations must be nonnegative")
    if P.sum() > 1 + 1e-9:
        raise ModelInputError(f"populations sum to {P.sum():.12f} > 1")
    tau = np.asarray(tau_grid, dtype=float)
    rates = _decay_rates(gamma_model, P.size)
    freqs = ladder(1, P.size, coupling)
    comps = P[:, None] * np.exp(-rates[:, None] * tau) * np.cos(
        2.0 * freqs[:, None] * tau
    )
    return RabiSignal(tau, 0.5 * (1.0 + comps.sum(axis=0)))


def invert_populations(
    sig: RabiSignal,
    coupling: CouplingParams,
    n_cut: int,
    gamma_model: float,
) -> dict:
    """Recover Fock populations from a decaying flop signal.

    Nonnegative least squares on the known-frequency basis
    e^(-gamma_n tau) cos(2 Omega_{n+1,n} tau), n = 0..n_cut, with
    gamma_n = gamma0*sqrt(n+1) and gamma0 = gamma_model. The grid
    must sample the fastest component at Nyquist rate or better, and
    adjacent ladder frequencies must be separated by at least
    2*pi / (observation span) or the basis is declared unresolvable
    (RangeError). If the raw solution overshoots unit total
    population it is rescaled onto the simplex boundary.

    Returns {"P": the n_cut + 1 estimated populations, "residual": the
    rms misfit of P_down}.
    """
    if n_cut < 0:
        raise RangeError("n_cut must be >= 0")
    tau = sig.tau_grid
    span = float(tau[-1] - tau[0])
    freqs = ladder(1, n_cut + 1, coupling)
    # fastest signal component oscillates at 2*max(Omega)
    dt_max = float(np.max(np.diff(tau)))
    omega_fast = 2.0 * float(np.max(np.abs(freqs)))
    if omega_fast > 0 and dt_max > math.pi / omega_fast:
        raise RangeError(
            f"tau spacing {dt_max:.3e} undersamples the fastest component "
            f"(limit {math.pi / omega_fast:.3e})"
        )
    if n_cut >= 1:
        min_gap = float(np.min(np.abs(np.diff(freqs))))
        if min_gap < 2.0 * math.pi / span:
            raise RangeError(
                f"adjacent ladder frequencies separated by {min_gap:.3e} "
                f"< 2*pi/span = {2.0 * math.pi / span:.3e}"
            )
    rates = _decay_rates(gamma_model, n_cut + 1)
    basis = np.exp(-np.outer(tau, rates)) * np.cos(2.0 * np.outer(tau, freqs))
    y = 2.0 * sig.P_down - 1.0

    p_hat, _ = nnls(basis, y)
    total = p_hat.sum()
    if total > 1.0:
        p_hat = p_hat / total
    resid = basis @ p_hat - y
    residual = float(np.linalg.norm(resid) / (2.0 * math.sqrt(tau.size)))
    return {"P": p_hat, "residual": residual}


# ---------------------------------------------------------------------------
# drive-strength noise envelopes


def slow_amplitude_noise_envelope(dist: str, dOmega_rms: float, tau_grid, Omega0: float):
    """Ensemble-averaged flop when the drive strength is static per shot.

    The strength is drawn once per experiment from a distribution of rms
    width dOmega_rms around Omega0; dist, exactly "gaussian" or
    "laplacian", selects the averaged cosine returned on tau_grid:

        gaussian:   <P_down> = 1/2 [1 + cos(2 Omega0 tau) e^(-2 (dOmega_rms tau)^2)]
        laplacian:  <P_down> = 1/2 [1 + cos(2 Omega0 tau) / (1 + 2 (dOmega_rms tau)^2)]

    Both envelopes lose half their contrast within a factor of two of
    tau = 1/dOmega_rms (exactly at sqrt(ln 2 / 2) and 1/sqrt(2) times it).
    Any other dist raises ModelInputError.
    """
    if dOmega_rms < 0:
        raise RangeError("dOmega_rms must be >= 0")
    tau = np.asarray(tau_grid, dtype=float)
    if dist == "gaussian":
        env = np.exp(-2.0 * (dOmega_rms * tau) ** 2)
    elif dist == "laplacian":
        env = 1.0 / (1.0 + 2.0 * (dOmega_rms * tau) ** 2)
    else:
        raise ModelInputError(f"unknown distribution {dist!r}")
    return 0.5 * (1.0 + env * np.cos(2.0 * Omega0 * tau))


def fast_amplitude_noise_visibility(
    dOmega: float,
    omega_amp: float,
    tau_grid,
    Omega0: float,
) -> dict:
    """Phase-averaged flop under sinusoidal drive-strength modulation.

    The drive is Omega0 + dOmega sin(omega_amp t + phase) with the phase
    uniform over shots. To second order in the small ratio
    r = dOmega/omega_amp the average is

        <P_down> = 1/2 + 1/2 cos(2 Omega0 tau) [1 - 2 r^2 (1 - cos(omega_amp tau))]

    so the visibility loss is bounded by 4 r^2. Returns the closed form
    together with the exact phase average: a shot's half-angle gains
    2 r |sin(omega_amp tau / 2)| cos(phase - delta), which the Jacobi-Anger
    identity averages to one Bessel term,

        <P_down> = 1/2 + 1/2 cos(2 Omega0 tau) J0(4 |r| |sin(omega_amp tau / 2)|)

    RangeError when |r| > 0.3, where the expansion degrades.
    """
    if omega_amp <= 0:
        raise RangeError("omega_amp must be > 0")
    r = dOmega / omega_amp
    if abs(r) > 0.3:
        raise RangeError(f"|dOmega/omega_amp| = {abs(r):.3f} outside validity (<= 0.3)")
    tau = np.asarray(tau_grid, dtype=float)
    wt = omega_amp * tau
    flop = np.cos(2.0 * Omega0 * tau)
    closed = 0.5 + 0.5 * flop * (1.0 - 2.0 * r * r * (1.0 - np.cos(wt)))
    exact = 0.5 + 0.5 * flop * j0(4.0 * abs(r) * np.abs(np.sin(0.5 * wt)))
    return {"closed_form": closed, "phi_average": exact}


def stark_phase_noise_ratio(
    g1: float,
    g2: float,
    eta: float,
    Delta_R: float,
    correlated: bool = False,
) -> dict:
    """Light-shift phase noise relative to rotation-angle noise.

    Two fields of strengths g1, g2 detuned by Delta_R from their virtual
    level shift the qubit by omega_s = -(g2^2 - g1^2)/Delta_R while
    driving two-photon rotations at rate ~ eta g1 g2 / Delta_R. For
    independent (uncorrelated) fractional strength fluctuations the
    variance ratio of the Stark phase to the rotation angle is

        (g1^4 + g2^4) / (2 eta^2 g1^2 g2^2)

    which is exactly 1/eta^2 at g1 = g2. When both strengths ride the
    same fluctuation (correlated=True) the shifts partially cancel and
    the ratio becomes (g1^2 - g2^2)^2 / (2 eta^2 g1^2 g2^2), vanishing
    at matched strengths. A dead field makes the ratio infinite.
    """
    if Delta_R == 0:
        raise ModelInputError("Delta_R must be nonzero")
    if eta <= 0:
        raise RangeError("eta must be > 0")
    a, b2 = float(g1) ** 2, float(g2) ** 2
    omega_s = -(b2 - a) / Delta_R
    if a == 0.0 or b2 == 0.0:
        return {"omega_s": omega_s, "ratio": math.inf, "correlated": bool(correlated)}
    if correlated:
        ratio = (a - b2) ** 2 / (2.0 * eta * eta * a * b2)
    else:
        ratio = (a * a + b2 * b2) / (2.0 * eta * eta * a * b2)
    return {"omega_s": omega_s, "ratio": ratio, "correlated": bool(correlated)}


# ---------------------------------------------------------------------------
# spectator level leakage


# RK4 steps per period of the fastest rate in the spectator problem, and
# the most steps one pulse may take
_STEPS_PER_CYCLE = 60
_MAX_STEPS = 10**6


def _raised_cosine(t: float, T: float, tau_r: float) -> float:
    if t <= 0.0 or t >= T:
        return 0.0
    if t < tau_r:
        return 0.5 * (1.0 - math.cos(math.pi * t / tau_r))
    if t > T - tau_r:
        return 0.5 * (1.0 - math.cos(math.pi * (T - t) / tau_r))
    return 1.0


def spectator_leakage(
    Omega: float,
    Omega_prime: float,
    Delta: float,
    envelope: str = "square",
    duration: float = 1.0,
    tau_r: float | None = None,
) -> dict:
    """Residual excitation of an off-resonant third level after a pulse.

    The drive couples the qubit pair at strength Omega and also reaches
    a spectator level detuned by Delta at strength Omega_prime. The ion
    starts in the lower qubit level and the drive sits on the bare qubit
    resonance, so the amplitudes (C_dn, C_up, C_s) = (1, 0, 0) at t = 0
    follow the rotating-frame equations

        dC_dn/dt = -i g(t) [Omega C_up + Omega' e^(-i Delta t) C_s]
        dC_up/dt = -i g(t) Omega  C_dn
        dC_s/dt  = -i g(t) Omega' e^(+i Delta t) C_dn

    integrated by fixed-step RK4 under the chosen envelope g(t):
    "square" switches instantly, "smooth" ramps with a raised cosine of
    width tau_r at both ends (duration must cover both ramps). The
    spectator also pulls the lower qubit level down by Omega'^2/Delta;
    that shift is reported as stark_shift, not compensated.

    Returns the final amplitude magnitudes |C_dn| and |C_s| (the full
    complex vector rides along under "amplitudes"), the
    adiabatic-following estimate |Omega' C_dn(T) / Delta| the spectator
    freezes at under a sudden turn-off, the shift itself, and the
    integrator norm defect. A pulse that would take more than 10^6 RK4
    steps raises RangeError.
    """
    if Delta == 0:
        raise ModelInputError("spectator detuning Delta must be nonzero")
    if duration <= 0:
        raise RangeError("duration must be > 0")
    if envelope not in ("square", "smooth"):
        raise ModelInputError(f"unknown envelope {envelope!r}")
    if envelope == "smooth":
        if tau_r is None or tau_r <= 0:
            raise ModelInputError("smooth envelope needs tau_r > 0")
        if duration < 2.0 * tau_r:
            raise ModelInputError("duration must cover both raised-cosine ramps")

    T = float(duration)
    w_max = max(abs(Delta), 2 * abs(Omega), 2 * abs(Omega_prime))
    steps = _STEPS_PER_CYCLE * T * w_max / (2.0 * math.pi)
    if steps > _MAX_STEPS:
        raise RangeError(f"the pulse needs {steps:.4g} RK4 steps, more than {_MAX_STEPS:.0e}")
    n_steps = max(400, int(math.ceil(steps)))
    h = T / n_steps

    if envelope == "square":
        def g(_t: float) -> float:
            return 1.0
    else:
        def g(t: float) -> float:
            return _raised_cosine(t, T, tau_r)

    def rhs(t: float, v: np.ndarray) -> np.ndarray:
        gt = g(t)
        e_s = np.exp(-1j * Delta * t)
        return np.array(
            [
                -1j * gt * (Omega * v[1] + Omega_prime * e_s * v[2]),
                -1j * gt * Omega * v[0],
                -1j * gt * Omega_prime * v[0] / e_s,
            ]
        )

    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, v)
        k2 = rhs(t + 0.5 * h, v + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, v + 0.5 * h * k2)
        k4 = rhs(t + h, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h

    return {
        "C_final": float(abs(v[0])),
        "C_s_final": float(abs(v[2])),
        "adiabatic_estimate": float(abs(Omega_prime * v[0] / Delta)),
        "stark_shift": Omega_prime**2 / Delta,
        "norm_defect": abs(float(np.linalg.norm(v)) - 1.0),
        "amplitudes": v,
    }


# ---------------------------------------------------------------------------
# qubit-frequency modulation


def bfield_modulation(beta0: float, omega_m: float, Omega_nn: float, k_max: int = 10) -> dict:
    """Carrier strength under fast sinusoidal qubit-frequency modulation.

    beta0 is the peak angular-frequency excursion of the qubit splitting
    (carrier frequency times the fractional modulation depth, rad/s) and
    omega_m the modulation frequency. The accumulated phase has
    modulation index eta_m = beta0/omega_m, so the drive splits into
    harmonics weighted by Bessel values J_k(eta_m); when omega_m is fast
    compared to the drive strength everything but the k=0 term averages
    out and the flop proceeds at |Omega| J_0(eta_m).

    The average is only meaningful for omega_m >= 10 |Omega_nn|;
    RangeError otherwise.
    """
    if omega_m <= 0:
        raise RangeError("omega_m must be > 0")
    if beta0 < 0:
        raise RangeError("beta0 must be >= 0")
    if omega_m < 10.0 * abs(Omega_nn):
        raise RangeError(
            f"omega_m = {omega_m:.3e} too slow for averaging "
            f"(needs >= 10*|Omega| = {10.0 * abs(Omega_nn):.3e})"
        )
    eta_m = beta0 / omega_m
    weights = jv(np.arange(k_max + 1), eta_m)
    return {
        "eta_m": eta_m,
        "effective_Rabi_factor": float(j0(eta_m)),
        "sideband_weights": weights,
    }


# ---------------------------------------------------------------------------
# motional coherence readout


_TOMO_PHASES = (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi)


def coherence_tomography(state: QuantumState, coupling: CouplingParams) -> dict:
    """Read out the 0-1 motional coherence of a lower-spin state.

    Protocol: a first-sideband pi pulse (full transfer on the lowest
    ladder rung) followed by a carrier pi/2 pulse, run as one batch at the
    four relative analysis phases 0, pi/2, pi, -pi/2; the lower-state
    probabilities then combine into

        Re rho_01 = 1/2 [P(pi)   - P(0)]
        Im rho_01 = 1/2 [P(pi/2) - P(-pi/2)]

    The relative phase is carried by the sideband pulse with a -pi/2
    reference offset, which is what makes the combinations above land
    on the real and imaginary parts exactly. Coherences between higher
    neighboring levels alias into the estimate unless they vanish or
    average out over repeated preparations.

    Returns {"re", "im"}: the estimated Re and Im rho_01, and "P_down":
    the lower-state probability at each of the four analysis phases.
    """
    if not isinstance(state, QuantumState) or state.amplitudes.ndim != 1:
        raise ModelInputError("coherence_tomography acts on a single QuantumState")
    N = state.n_max + 1
    if np.sum(np.abs(state.amplitudes[N:]) ** 2) > 1e-12:
        raise ModelInputError("prepared state must live in the lower-spin manifold")

    red = PulseSpec("red", math.pi, coupling, phi=np.array(_TOMO_PHASES) - 0.5 * math.pi)
    out = apply_pulse(apply_pulse(state, red), PulseSpec("carrier", 0.5 * math.pi, coupling))
    P = np.sum(np.abs(out.amplitudes[:, :N]) ** 2, axis=-1)
    p_down = {ph: float(P_ph) for ph, P_ph in zip(_TOMO_PHASES, P)}

    re = 0.5 * (p_down[math.pi] - p_down[0.0])
    im = 0.5 * (p_down[0.5 * math.pi] - p_down[-0.5 * math.pi])
    return {"re": re, "im": im, "P_down": p_down}


# ---------------------------------------------------------------------------
# radiative decay


def radiative_decay_rate(transition: str, omega0: float, moment: float | None = None) -> float:
    """Free-space spontaneous decay rate of a two-level transition.

    electric_dipole: omega0^3 |mu|^2 / (3 pi eps0 hbar c^3), default
    moment one Bohr radius of electron charge displacement. The
    magnetic_dipole form carries c^5 in place of c^3 and defaults to one
    Bohr magneton. omega0 is angular (rad/s).
    """
    if omega0 <= 0:
        raise RangeError("omega0 must be > 0")
    if transition == "electric_dipole":
        if moment is None:
            moment = _const.e * _const.physical_constants["Bohr radius"][0]
        c_pow = _const.c**3
    elif transition == "magnetic_dipole":
        if moment is None:
            moment = _const.physical_constants["Bohr magneton"][0]
        c_pow = _const.c**5
    else:
        raise ModelInputError(f"unknown transition type {transition!r}")
    return (
        omega0**3
        * abs(moment) ** 2
        / (3.0 * math.pi * _const.epsilon_0 * _const.hbar * c_pow)
    )
