"""Matrix-element mathematics for spin-motion coupling.

Everything here is closed-form: generalized Laguerre polynomials, the
exact motional matrix elements and their small-confinement limits, magic
confinement-parameter roots, and thermal (Debye-Waller style) reduction
statistics.
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
