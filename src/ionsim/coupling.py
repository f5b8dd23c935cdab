"""Matrix-element mathematics for spin-motion coupling.

Everything here is closed-form: generalized Laguerre polynomials, the
exact motional matrix elements and their small-confinement limits, magic
confinement-parameter roots, thermal (Debye-Waller style) reduction
statistics, standing-wave field tailoring, and figure-of-merit formulas
for addressing crosstalk and spontaneous emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, gammaln, i0

from .errors import ModelInputError, RangeError


@dataclass(frozen=True)
class CouplingParams:
    """Base Rabi frequency (rad/s) and Lamb-Dicke parameter of one mode."""

    Omega: float
    eta: float

    def __post_init__(self):
        for name in ("Omega", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise RangeError(f"CouplingParams.{name} must be finite")
        if self.Omega < 0 or self.eta < 0:
            raise RangeError("Omega and eta must be non-negative")


@dataclass(frozen=True)
class ModeEnsemble:
    """Spectator motional modes seen by one ion.

    etas and nbars are per-mode Lamb-Dicke parameters and thermal mean
    occupations.
    """

    etas: np.ndarray
    nbars: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.etas, dtype=float)
        n = np.asarray(self.nbars, dtype=float)
        if e.shape != n.shape or e.ndim != 1:
            raise ModelInputError("etas and nbars must be 1-d arrays of equal length")
        for name, v in (("etas", e), ("nbars", n)):
            if not np.all(np.isfinite(v)):
                raise RangeError(f"ModeEnsemble.{name} must be finite")
        if np.any(e < 0) or np.any(n < 0):
            raise RangeError("mode parameters must be non-negative")
        object.__setattr__(self, "etas", e)
        object.__setattr__(self, "nbars", n)


def _laguerre_rows(count: int, alpha: float, x):
    """L_0^alpha(x), ..., L_{count-1}^alpha(x) stacked on axis 0.

    One upward three-term recurrence in n, stable for the small-argument
    regime this package uses (x = eta^2 <= 1). x is a float or an array;
    the result has shape (count,) + shape(x).
    """
    out = np.empty((count,) + np.shape(x))
    out[:1] = 1.0
    lm2, lm1 = 0.0, 1.0
    for k in range(1, count):
        lm2, lm1 = lm1, ((2 * k - 1 + alpha - x) * lm1 - (k - 1 + alpha) * lm2) / k
        out[k] = lm1
    return out


def ladder(dn: int, count: int, c: CouplingParams) -> np.ndarray:
    """Exact matrix elements Omega_{n+dn,n} for n = 0..count-1, in one pass.

    Omega * exp(-eta^2/2) * sqrt(n!/(n+dn)!) * eta^dn * L_n^dn(eta^2),
    with the sign of the Laguerre factor kept.
    """
    if dn < 0 or count < 0:
        raise RangeError("dn and count must be >= 0")
    if c.eta == 0 and dn > 0:
        return np.zeros(count)
    x = c.eta**2
    n = np.arange(count)
    log_ratio = 0.5 * (gammaln(n + 1) - gammaln(n + dn + 1))
    return (
        c.Omega
        * np.exp(-x / 2.0 + log_ratio + dn * _safe_log(c.eta))
        * _laguerre_rows(count, dn, x)
    )


def rabi_frequency(n_hi: int, n_lo: int, c: CouplingParams) -> float:
    """Spin-motion matrix element between Fock levels n_hi and n_lo.

    Symmetric in its level arguments. With n< = min, n> = max and
    dn = |n_hi - n_lo| it is

        Omega * exp(-eta^2/2) * sqrt(n<!/n>!) * eta^dn * L_{n<}^{dn}(eta^2),

    the n< entry of ladder(dn, n< + 1, c).
    """
    if n_hi < 0 or n_lo < 0:
        raise RangeError("Fock labels must be >= 0")
    n_lt = min(n_hi, n_lo)
    return float(ladder(abs(n_hi - n_lo), n_lt + 1, c)[n_lt])


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0 else 0.0


def magic_eta(level_n: int, k: int, m: int) -> list[float]:
    """Confinement parameters where a carrier pulse flips exactly one Fock level.

    Takes the real roots x = eta^2 in (0,1) of the polynomial L_n(x) - r
    (numpy's Laguerre-series roots), where r = (2k+1)/(2m), m > k >= 0,
    is the target ratio of the (n,n) and (0,0) carrier matrix elements: a
    pulse of m full periods on the (0,0) element is a half-integer number
    of periods on the (n,n) element, flipping |n> and restoring |0>.

    Returns the sorted real roots; each is checked to reproduce the
    target ratio through rabi_frequency to 1e-12.

    Raises RangeError when the polynomial never meets r inside (0,1).
    """
    if level_n not in (1, 2, 3):
        raise RangeError("level_n must be 1, 2 or 3")
    if not (m > k >= 0):
        raise RangeError("magic_eta needs m > k >= 0")
    r = (2 * k + 1) / (2 * m)

    xs = (np.polynomial.Laguerre.basis(level_n) - r).roots()
    roots = sorted(math.sqrt(x) for x in xs[np.isreal(xs)].real if 0.0 < x < 1.0)
    if not roots:
        raise RangeError(
            f"L_{level_n}(eta^2) never reaches {r:.6g} for eta in (0,1)"
        )
    for eta in roots:
        c = CouplingParams(Omega=1.0, eta=eta)
        ratio = rabi_frequency(level_n, level_n, c) / rabi_frequency(0, 0, c)
        if abs(ratio - r) > 1e-12:
            raise RangeError(f"root eta={eta} fails the ratio check ({ratio} vs {r})")
    return roots


@dataclass(frozen=True)
class DebyeWallerStats:
    """Thermal reduction statistics of the coupling strength.

    mean_factor: mean multiplicative reduction, prod exp(-eta^2(nbar+1/2)).
    rms_exact: fractional rms fluctuation from the exact Bessel product
        sqrt(prod I0(2 eta^2 sqrt(nbar(nbar+1))) - 1) (authoritative).
    rms_small_eta: leading-order form sqrt(sum eta^4 nbar(nbar+1)).
    """

    mean_factor: float
    rms_exact: float
    rms_small_eta: float

    def prob_within(self, eps: float) -> float:
        """Probability that the fractional deviation is below eps (Gaussian
        model with standard deviation rms_small_eta)."""
        if eps < 0:
            raise RangeError("eps must be >= 0")
        if self.rms_small_eta == 0.0:
            return 1.0
        return float(erf(eps / (math.sqrt(2.0) * self.rms_small_eta)))


def debye_waller_stats(e: ModeEnsemble) -> DebyeWallerStats:
    """Mean and fluctuation statistics of the thermal coupling reduction.

    Spectator modes in thermal states multiply the coupling by random
    factors; this returns the mean factor, the exact and small-parameter
    fractional rms fluctuations, and (via prob_within) the probability
    that a single shot deviates by less than a given fraction.
    """
    x, nbars = e.etas**2, e.nbars
    mean = float(np.exp(-np.sum(x * (nbars + 0.5))))
    bessel_args = 2.0 * x * np.sqrt(nbars * (nbars + 1.0))
    prod = float(np.prod(i0(bessel_args)))
    rms_exact = math.sqrt(max(prod - 1.0, 0.0))
    return DebyeWallerStats(
        mean_factor=mean,
        rms_exact=rms_exact,
        rms_small_eta=math.sqrt(float(np.sum(x**2 * nbars * (nbars + 1.0)))),
    )


@dataclass(frozen=True)
class StandingWaveDesign:
    """Superposition coefficients for standing-wave field tailoring.

    coefficients: C_m for the M component waves (leading term normalized
    to 1 in units of the first wavenumber). killed_orders lists the
    Taylor powers of the field forced to zero; leading_residual_order is
    the first surviving power beyond them. Residual sideband coupling
    scales as eta**suppression_exponent.
    """

    coefficients: np.ndarray
    parity: str
    killed_orders: tuple
    leading_residual_order: int
    suppression_exponent: int

    def suppression(self, eta: float) -> float:
        if eta < 0:
            raise RangeError("eta must be >= 0")
        return eta**self.suppression_exponent


def standing_wave_coefficients(k_list, parity: str) -> StandingWaveDesign:
    """Coefficients that null the low-order spatial derivatives of a field.

    For M superposed waves of wavenumbers k_list:

    parity="sine"   field sum C_m sin(k_m z): the odd Taylor powers
                    z^3, z^5, ..., z^(2M-1) are cancelled and the
                    gradient term is normalized (sum C_m k_m/k_1 = 1).
    parity="cosine" field sum C_m cos(k_m z): even powers z^2, ...,
                    z^(2M-2) cancelled, constant normalized (sum C_m = 1).

    Raises RangeError for degenerate wavenumber sets.
    """
    k = np.asarray(k_list, dtype=float)
    if k.ndim != 1 or len(k) < 1:
        raise ModelInputError("k_list must be a non-empty 1-d sequence")
    if np.any(k <= 0):
        raise RangeError("wavenumbers must be positive")
    M = len(k)
    rho = k / k[0]
    if parity == "sine":
        killed = tuple(range(3, 2 * M, 2))
        rows = [rho]  # gradient normalization
        leading_residual = 2 * M + 1
    elif parity == "cosine":
        killed = tuple(range(2, 2 * M - 1, 2))
        rows = [np.ones(M)]  # constant-term normalization
        leading_residual = 2 * M
    else:
        raise ModelInputError(f"unknown parity '{parity}'")
    for n in killed:
        rows.append(rho**n)
    A = np.vstack(rows)
    b = np.zeros(M)
    b[0] = 1.0
    if np.linalg.cond(A) > 1e12:
        raise RangeError(
            "wavenumber set is degenerate (condition number above 1e12)"
        )
    C = np.linalg.solve(A, b)
    return StandingWaveDesign(
        coefficients=C,
        parity=parity,
        killed_orders=killed,
        leading_residual_order=leading_residual,
        suppression_exponent=2 * M,
    )


@dataclass(frozen=True)
class EmissionRatio:
    """Spontaneous-emission figure of merit for one gate operation."""

    xi: float
    kappa: float | None
    kappa_opt: float | None
    xi_min: float | None


def spontaneous_emission_ratio(
    Gamma_s: float | None = None,
    Omega1: float | None = None,
    eta: float | None = None,
    Delta: float | None = None,
    kappa: float | None = None,
    raman: bool = False,
    Gamma: float | None = None,
    Delta_R: float | None = None,
) -> EmissionRatio:
    """Ratio of spontaneous-emission rate to gate Rabi frequency.

    Single-photon qubit with a nearby spectator level of linewidth
    Gamma_s detuned by Delta, driven sideband Rabi frequency Omega1,
    confinement parameter eta, and decay-rate ratio kappa between the
    upper qubit level and the spectator:

        xi(kappa) = (Gamma_s / (2 Omega1)) * (kappa + zeta/kappa),
        zeta = Omega1^2 / (eta Delta)^2.

    The optimum kappa is sqrt(zeta) = Omega1/(eta Delta), giving
    xi_min = Gamma_s/(eta Delta).
    With kappa=None the optimum is evaluated. All frequency inputs may be
    given consistently in either angular or ordinary units.

    raman=True switches to the two-photon variant: xi = Gamma/Delta_R,
    independent of intensity.
    """
    if raman:
        if Gamma is None or Delta_R is None:
            raise ModelInputError("raman variant needs Gamma and Delta_R")
        if Delta_R == 0:
            raise RangeError("Delta_R must be nonzero")
        x = Gamma / Delta_R
        return EmissionRatio(xi=x, kappa=None, kappa_opt=None, xi_min=x)
    if Gamma_s is None or Omega1 is None or eta is None or Delta is None:
        raise ModelInputError("need Gamma_s, Omega1, eta and Delta")
    if Omega1 <= 0 or Delta <= 0 or eta <= 0:
        raise RangeError("Omega1, eta and Delta must be positive")
    if Gamma_s == 0:
        return EmissionRatio(xi=0.0, kappa=kappa, kappa_opt=None, xi_min=0.0)
    zeta = Omega1**2 / (eta * Delta) ** 2
    kappa_opt = math.sqrt(zeta)
    xi_min = Gamma_s / (eta * Delta)
    if kappa is None:
        kappa = kappa_opt
    elif kappa <= 0:
        raise RangeError("kappa must be positive")
    xi = (Gamma_s / (2.0 * Omega1)) * (kappa + zeta / kappa)
    return EmissionRatio(xi=xi, kappa=kappa, kappa_opt=kappa_opt, xi_min=xi_min)


def stark_addressing_epsilon(theta: float, m: int) -> dict:
    """Intensity ratio that makes a neighbor close its off-resonant orbit.

    With the target ion driven through pulse area theta on resonance, a
    neighbor receiving relative intensity epsilon and a proportionate
    level shift returns exactly to its initial state after m full
    generalized-Rabi cycles when epsilon solves

        epsilon^2 - [1 + (2 m pi / theta)^2] epsilon + 1 = 0.

    (The integer in the printed quadratic is the cycle count m of the
    same sentence.) The root in (0,1) is returned along with the leftover
    relative phase xi = theta (1-epsilon)/sqrt(epsilon) on the neighbor,
    equal to theta*sqrt((2 m pi/theta)^2 - 1).

    Raises RangeError when the quadratic has no root strictly inside
    (0,1) (the degenerate theta = 2 pi m case).
    """
    if not 0.0 < theta <= 2.0 * math.pi:
        raise RangeError("theta must be in (0, 2*pi]")
    if m < 1:
        raise RangeError("m must be >= 1")
    b = 1.0 + (2.0 * m * math.pi / theta) ** 2
    disc = b * b - 4.0
    if disc <= 0.0:
        raise RangeError("no epsilon root strictly inside (0,1)")
    # rationalized root, stable when b is large (small theta)
    eps = 2.0 / (b + math.sqrt(disc))
    xi = theta * (1.0 - eps) / math.sqrt(eps)
    return {"epsilon": eps, "xi_phase": xi}


def shot_noise_floor(
    P_u: float, tau_op: float, wavelength: float, eta_det: float, eps_split: float
) -> float:
    """Photon shot-noise limit of fractional power stabilization.

    A pickoff fraction eps_split of the beam monitored with quantum
    efficiency eta_det bounds the achievable fractional power noise of a
    pulse of usable power P_u and duration tau_op:

        dP/P >= sqrt(hbar*omega / (P_u tau_op eta_det eps (1-eps))).
    """
    from scipy.constants import c as c_light, hbar

    if P_u <= 0 or tau_op <= 0 or wavelength <= 0:
        raise RangeError("P_u, tau_op and wavelength must be positive")
    if not (0.0 < eta_det <= 1.0) or not (0.0 < eps_split < 1.0):
        raise RangeError("eta_det in (0,1], eps_split in (0,1)")
    omega = 2.0 * math.pi * c_light / wavelength
    return math.sqrt(
        hbar * omega / (P_u * tau_op * eta_det * eps_split * (1.0 - eps_split))
    )
