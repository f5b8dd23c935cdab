"""Open-system motional dynamics and decoherence diagnostics.

The first half of the module propagates the thermal-reservoir master
equation for a single trapped mode exactly on a uniform time grid (one
matrix exponential per band of the number-basis equations) and provides
the thermal populations and analytic mean-occupation law it must reproduce.

The second half collects the measurement-side tools: synthesis and
inversion of decaying Rabi flop signals, averaged-signal envelopes for
slow and fast drive-strength noise, off-resonant spectator-level
leakage, and the two-pulse interference protocol that reads out the
motional 0-1 coherence.

Conventions: rates are angular (rad/s), populations are probabilities,
and every Monte Carlo style check lives in the test suite, not here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import j0
from scipy.optimize import nnls

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
    occupation the mode relaxes toward.
    """

    gamma: float
    nbar: float

    def __post_init__(self):
        if self.gamma < 0:
            raise RangeError("relaxation rate gamma must be >= 0")
        if self.nbar < 0:
            raise RangeError("equilibrium occupation nbar must be >= 0")

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
    RangeError when one step's gamma*(nbar+1)*(n_max+1)*h exceeds 1e10.
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
    if b.gamma * (b.nbar + 1.0) * N * h > 1e10:     # expm breaks down near 1e12
        raise RangeError("one step's gamma*(nbar+1)*(n_max+1)*t_end/steps exceeds 1e10")
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
        if not top <= DEFAULT_EPS_TRUNC:      # a NaN state fails here too
            raise TruncationError(f"top-level population {top:.2e} exceeds "
                                  f"guard {DEFAULT_EPS_TRUNC:.1e}; raise n_max")
        drift = abs(float(np.trace(r).real) - 1.0)
        if not drift <= 1e-9:
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


# ---------------------------------------------------------------------------
# spectator level leakage


# RK4 steps per period of the fastest rate in the spectator problem, the
# most steps one pulse may take, and how many distinct solves are kept
_STEPS_PER_CYCLE = 60
_MAX_STEPS = 10**6
_SPECTATOR_CACHE = 32


def _raised_cosine(t: float, T: float, tau_r: float) -> float:
    if t <= 0.0 or t >= T:
        return 0.0
    if t < tau_r:
        return 0.5 * (1.0 - math.cos(math.pi * t / tau_r))
    if t > T - tau_r:
        return 0.5 * (1.0 - math.cos(math.pi * (T - t) / tau_r))
    return 1.0


def _rk4_steps(Omega: float, Omega_prime: float, Delta: float, T: float) -> float:
    w_max = max(abs(Delta), 2 * abs(Omega), 2 * abs(Omega_prime))
    return _STEPS_PER_CYCLE * T * w_max / (2.0 * math.pi)


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

    The final amplitudes of the last _SPECTATOR_CACHE (32) distinct
    inputs are memoised in the process: a repeated call skips the RK4
    loop and returns the same values bit for bit, in a fresh dict with a
    fresh "amplitudes" array. Every input check runs before the lookup,
    so a repeated bad call raises what its first call raised.
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

    Omega, Omega_prime, Delta = float(Omega), float(Omega_prime), float(Delta)
    T = float(duration)
    tau_r = float(tau_r) if envelope == "smooth" else None
    steps = _rk4_steps(Omega, Omega_prime, Delta, T)
    if steps > _MAX_STEPS:
        raise RangeError(f"the pulse needs {steps:.4g} RK4 steps, more than {_MAX_STEPS:.0e}")

    v = np.array(_spectator_solve(Omega, Omega_prime, Delta, envelope, T, tau_r),
                 dtype=complex)
    return {
        "C_final": float(abs(v[0])),
        "C_s_final": float(abs(v[2])),
        "adiabatic_estimate": float(abs(Omega_prime * v[0] / Delta)),
        "stark_shift": Omega_prime**2 / Delta,
        "norm_defect": abs(float(np.linalg.norm(v)) - 1.0),
        "amplitudes": v,
    }


@functools.lru_cache(maxsize=_SPECTATOR_CACHE)
def _spectator_solve(
    Omega: float,
    Omega_prime: float,
    Delta: float,
    envelope: str,
    T: float,
    tau_r: float | None,
) -> tuple[complex, complex, complex]:
    """Final (C_dn, C_up, C_s) of spectator_leakage's RK4 integration,
    for inputs it has already checked."""
    n_steps = max(400, int(math.ceil(_rk4_steps(Omega, Omega_prime, Delta, T))))
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
    return complex(v[0]), complex(v[1]), complex(v[2])


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
