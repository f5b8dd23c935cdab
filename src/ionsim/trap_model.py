"""Classical physics of a linear rf trap and of small ion chains.

Covers the closed-form layer of the simulator: secular frequencies from
the Mathieu stability parameters, the lowest-order driven trajectory,
chain equilibrium positions and axial normal modes, the zigzag stability
bound, and the closed-form estimators for background-gas collisions,
static-field cross-mode growth, coupled-oscillator energy exchange and
motional heating. Each heating channel (resistive electrode noise,
stray-field-coupled voltage noise, diffusing patch potentials) is one
function of its physical inputs that returns t*, the time to leave the
motional ground state, in seconds.

Everything is SI. Every name ``omega_*`` is an angular frequency (rad/s);
plain cycle frequencies (Hz) appear only inside the patch estimator,
where a spectral density is sampled, and are labelled ``nu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import epsilon_0, hbar, k as k_B
from scipy.special import j0, zeta

from .errors import ModelInputError, RangeError


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class TrapParams:
    """Electrical and geometric parameters of a linear rf trap.

    Parameters
    ----------
    V0 : float
        Amplitude of the rf potential between rod pairs, volts.
    Ur : float
        Static offset applied with the rf (may be zero or signed), volts.
    U0 : float
        Static endcap potential providing axial confinement, volts.
    OmegaT : float
        rf drive angular frequency, rad/s.
    R : float
        Distance from the trap axis to the rod surface, meters.
    kappa : float
        Geometric factor of the static well, 1/m^2. The axial frequency
        is omega_z = sqrt(2*kappa*charge*U0/mass).
    charge, mass : float
        Ion charge (C) and mass (kg).
    geometry_factor : float
        Order-1 multiplier on the rf quadrupole term for electrodes that
        do not conform to ideal equipotentials. Default 1.
    """

    V0: float
    Ur: float
    U0: float
    OmegaT: float
    R: float
    kappa: float
    charge: float
    mass: float
    geometry_factor: float = 1.0

    def __post_init__(self):
        for name in ("V0", "U0", "OmegaT", "R", "kappa", "charge", "mass"):
            if getattr(self, name) < 0:
                raise RangeError(f"TrapParams.{name} must be non-negative")
        if self.OmegaT == 0 or self.R == 0 or self.mass == 0:
            raise RangeError("OmegaT, R and mass must be positive")


@dataclass(frozen=True)
class MathieuCoeffs:
    """Stability parameters and secular frequencies of one parameter set."""

    a_x: float
    a_y: float
    q_x: float
    q_y: float
    beta_x: float
    beta_y: float
    omega_x: float
    omega_y: float
    omega_z: float


@dataclass(frozen=True)
class ChainGeometry:
    """Equilibrium geometry of an axial ion chain.

    positions are sorted, sum to zero for identical ions, and are given in
    meters. scale_s is the natural length (charge^2/(4 pi eps0 m w_z^2))^(1/3);
    s_min is the fitted minimum-gap law 2*s*L**-0.56 kept for comparison.
    """

    L: int
    positions: np.ndarray
    scale_s: float
    s_min: float


@dataclass(frozen=True)
class AxialModes:
    """Axial normal modes: ascending angular frequencies and an orthonormal
    mode matrix whose columns are the mode vectors (column 0 is the uniform
    center-of-mass vector)."""

    frequencies: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class CriticalAnisotropy:
    """Zigzag stability data for an L-ion chain.

    ratio_exact is the exact critical omega_r/omega_z from the transverse
    Hessian eigenvalue; fit_a/b/c are published power-law estimates
    0.73 L^0.86, 0.63 L^0.865 and 0.59 L^0.885; omega_r_bound (rad/s) is the
    force-balance bound from the central spacing.
    """

    L: int
    ratio_exact: float
    fit_a: float
    fit_b: float
    fit_c: float
    omega_r_bound: float


@dataclass(frozen=True)
class MicromotionFactors:
    """Phase-modulation index and carrier-strength factor from a static
    displacement into the rf field."""

    phi_Omega: float
    j0_factor: float
    displacement: tuple[float, float]


@dataclass(frozen=True)
class CollisionRates:
    """Background-gas rate constants (m^3/s) and rates (1/s)."""

    k_langevin: float
    gamma_langevin: float
    k_elastic: float
    gamma_elastic: float
    v_thermal: float


# ---------------------------------------------------------------------------
# secular motion


def mathieu_beta(a: float, q: float) -> float:
    """Characteristic exponent of u'' + [a + 2 q cos(2 zeta)] u = 0.

    Closed form to second order in q: beta = sqrt((a + q^2/2)/(1 - 3q^2/8)).
    Valid in the lowest stability region with |a| < q^2 << 1.
    """
    denom = 1.0 - 3.0 * q * q / 8.0
    num = a + q * q / 2.0
    if num < 0 or denom <= 0:
        raise RangeError(
            f"no real secular frequency for a={a:.3g}, q={q:.3g}"
        )
    beta = math.sqrt(num / denom)
    if beta >= 1.0:
        raise RangeError(f"beta={beta:.3f} >= 1: outside lowest stability region")
    return beta


def _stability_params(p: TrapParams) -> tuple[float, float, float]:
    """(a_x, a_y, q_x) from trap parameters."""
    g = p.geometry_factor
    scale = 4.0 * p.charge / (p.mass * p.OmegaT**2)
    a_x = scale * (g * p.Ur / p.R**2 - p.kappa * p.U0)
    a_y = -scale * (g * p.Ur / p.R**2 + p.kappa * p.U0)
    q_x = 2.0 * p.charge * g * p.V0 / (p.mass * p.OmegaT**2 * p.R**2)
    return a_x, a_y, q_x


def secular_frequencies(p: TrapParams) -> MathieuCoeffs:
    """Stability parameters, characteristic exponents, and secular frequencies.

    Radial frequencies follow omega_i = beta_i * OmegaT / 2 with beta_i from
    the second-order closed form; the axial frequency is
    omega_z = sqrt(2 kappa q U0 / m).

    Raises
    ------
    RangeError
        If the perturbative stability gate fails (q_x >= 0.5 or
        |a_x| >= q_x^2), or if either radial exponent is not real.
    """
    a_x, a_y, q_x = _stability_params(p)
    if not (q_x < 0.5 and abs(a_x) < q_x * q_x):
        raise RangeError(
            f"stability gate failed: q_x={q_x:.4g}, a_x={a_x:.4g} "
            "(need q_x < 0.5 and |a_x| < q_x^2)"
        )
    beta_x = mathieu_beta(a_x, q_x)
    beta_y = mathieu_beta(a_y, -q_x)
    omega_z = math.sqrt(2.0 * p.kappa * p.charge * p.U0 / p.mass)
    return MathieuCoeffs(
        a_x=a_x,
        a_y=a_y,
        q_x=q_x,
        q_y=-q_x,
        beta_x=beta_x,
        beta_y=beta_y,
        omega_x=beta_x * p.OmegaT / 2.0,
        omega_y=beta_y * p.OmegaT / 2.0,
        omega_z=omega_z,
    )


def mathieu_trajectory(
    p: TrapParams, A: float, phi: float, t_grid: np.ndarray
) -> dict[str, np.ndarray]:
    """Radial trajectories to first order in a and second order in q.

    Each axis follows

        u(t) = A cos(w t + phi) [1 + (q/2) cos(W t) + (q^2/32) cos(2 W t)]
               + A beta (q/2) sin(w t + phi) sin(W t)

    with W the rf drive frequency and w the secular frequency of that axis.

    Returns a dict with keys "x" and "y".
    """
    t = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t)):
        raise RangeError("t_grid must be finite")
    mc = secular_frequencies(p)
    out = {}
    for axis, q_i, beta_i, omega_i in (
        ("x", mc.q_x, mc.beta_x, mc.omega_x),
        ("y", mc.q_y, mc.beta_y, mc.omega_y),
    ):
        sec = np.cos(omega_i * t + phi)
        micro = 1.0 + (q_i / 2.0) * np.cos(p.OmegaT * t) + (q_i**2 / 32.0) * np.cos(
            2.0 * p.OmegaT * t
        )
        cross = beta_i * (q_i / 2.0) * np.sin(omega_i * t + phi) * np.sin(p.OmegaT * t)
        out[axis] = A * (sec * micro + cross)
    return out


# ---------------------------------------------------------------------------
# chain geometry and axial modes


def _chain_gradient(u: np.ndarray) -> np.ndarray:
    du = u[:, None] - u[None, :]
    np.fill_diagonal(du, np.inf)
    return u - np.sum(np.sign(du) / du**2, axis=1)


def _chain_hessian(u: np.ndarray) -> np.ndarray:
    du = u[:, None] - u[None, :]
    np.fill_diagonal(du, np.inf)
    off = -2.0 / np.abs(du) ** 3
    H = off.copy()
    np.fill_diagonal(H, 1.0 - off.sum(axis=1))
    return H


def _solve_chain(L: int) -> np.ndarray:
    """Centred dimensionless equilibrium positions of an L-ion chain.

    scipy's hybrid Powell solver (``root``, method "hybr") finds the zero
    of the force from a uniform guess near the fitted gap, with the exact
    Hessian as Jacobian. At most three full Newton steps follow, each kept
    only if it lowers the largest force: hybr alone stops short of the
    residual check at some lengths (L = 344).

    Raises RangeError if the ions end out of order or the largest
    force stays above 1e-12 * max(1, max|u|).
    """
    if L == 1:
        return np.zeros(1)
    from scipy.optimize import root

    half = 0.5 * (L - 1)
    u0 = (np.arange(L) - half) * 2.0 * L**-0.56  # uniform guess near the fitted gap
    u = root(_chain_gradient, u0, jac=_chain_hessian, method="hybr",
             options={"xtol": 1e-15}).x
    force = float(np.max(np.abs(_chain_gradient(u))))
    for _ in range(3):
        u_new = u - np.linalg.solve(_chain_hessian(u), _chain_gradient(u))
        f_new = float(np.max(np.abs(_chain_gradient(u_new))))
        if not f_new < force:
            break
        u, force = u_new, f_new
    if not np.all(np.diff(u) > 0):
        raise RangeError("chain solve left the ions out of order")
    if not force <= 1e-12 * max(1.0, float(np.max(np.abs(u)))):
        raise RangeError(f"chain equilibrium residual {force:.2e}")
    return u - u.mean()


def length_scale(omega_z: float, charge: float, mass: float) -> float:
    """Natural ion-ion spacing scale (charge^2/(4 pi eps0 m omega_z^2))^(1/3)."""
    if omega_z <= 0 or mass <= 0:
        raise RangeError("omega_z and mass must be positive")
    return (charge**2 / (4.0 * math.pi * epsilon_0 * mass * omega_z**2)) ** (1.0 / 3.0)


def chain_equilibrium(
    L: int, omega_z: float, charge: float, mass: float
) -> ChainGeometry:
    """Equilibrium positions of L identical ions in a harmonic axial well.

    Solves the force balance (harmonic restoring force against mutual
    Coulomb repulsion) on dimensionless positions with scipy's hybrid
    Powell root finder, polished by at most three Newton steps. Exact
    small-chain gaps: 2^(1/3) s for two ions and (5/4)^(1/3) s for three.

    Raises
    ------
    RangeError
        If the ions end out of order or the scaled force residual stays
        above 1e-12.
    """
    if L < 1:
        raise RangeError("L must be >= 1")
    s = length_scale(omega_z, charge, mass)
    u = _solve_chain(L)
    return ChainGeometry(
        L=L, positions=u * s, scale_s=s, s_min=2.0 * s * L**-0.56
    )


def axial_normal_modes(g: ChainGeometry, omega_z: float) -> AxialModes:
    """Axial normal modes of a chain at its equilibrium.

    Diagonalizes the dimensionless axial Hessian; frequencies are
    omega_z * sqrt(eigenvalue), ascending, and the lowest is exactly
    omega_z (uniform center-of-mass motion). Raises ModelInputError when
    the given positions are not an equilibrium.
    """
    u = np.asarray(g.positions, dtype=float) / g.scale_s
    if g.L > 1:
        resid = float(np.max(np.abs(_chain_gradient(u))))
        if resid > 1e-10:
            raise ModelInputError(f"positions are not an equilibrium (residual {resid:.2e})")
        H = _chain_hessian(u)
    else:
        H = np.ones((1, 1))
    lam, vec = np.linalg.eigh(H)
    order = np.argsort(lam)
    lam = lam[order]
    vec = vec[:, order]
    # fix overall signs: mean positive, else first significant entry positive
    for k in range(vec.shape[1]):
        m = vec[:, k].mean()
        pivot = m if abs(m) > 1e-12 else vec[np.argmax(np.abs(vec[:, k])), k]
        if pivot < 0:
            vec[:, k] = -vec[:, k]
    return AxialModes(frequencies=omega_z * np.sqrt(lam), vectors=vec)


def critical_anisotropy(L: int, s_c: float, charge: float, mass: float) -> CriticalAnisotropy:
    """Zigzag stability threshold of an L-ion chain.

    The exact critical omega_r/omega_z is the square root of the largest
    eigenvalue of the transverse Coulomb-softening matrix at equilibrium
    (exactly 1 for two ions and sqrt(12/5) for three). That matrix is
    (H - 1)/2, with H the dimensionless axial Hessian: the Coulomb term
    softens the transverse curvature by half as much as it stiffens the
    axial one. The three published power-law fits are returned alongside,
    with the force-balance radial bound omega_r^2 = (7/(8 pi eps0)) zeta(3)
    q^2/(m s_c^3) of an ion of the given charge and mass at central
    spacing s_c.
    """
    if L < 2:
        raise RangeError("critical anisotropy needs L >= 2")
    u = _solve_chain(L)
    B = 0.5 * (_chain_hessian(u) - np.eye(L))
    ratio = math.sqrt(float(np.linalg.eigvalsh(B)[-1]))
    bound = math.sqrt(
        7.0 / (8.0 * math.pi * epsilon_0) * zeta(3.0) * charge**2 / (mass * s_c**3)
    )
    return CriticalAnisotropy(
        L=L,
        ratio_exact=ratio,
        fit_a=0.73 * L**0.86,
        fit_b=0.63 * L**0.865,
        fit_c=0.59 * L**0.885,
        omega_r_bound=bound,
    )


# ---------------------------------------------------------------------------
# sensitivities and micromotion


def frequency_sensitivities(
    p: TrapParams,
    dV0: float = 0.0,
    dOmegaT: float = 0.0,
    dR: float = 0.0,
    dkappa: float = 0.0,
    dU0: float = 0.0,
) -> dict[str, float]:
    """Linearized fractional frequency shifts from fractional parameter shifts.

    radial: dV0/V0 - dOmegaT/OmegaT - 2 dR/R (pseudopotential limit)
    axial:  (dU0/U0 + dkappa/kappa) / 2

    Raises RangeError if any |delta| >= 0.1 (outside the linear regime).
    """
    secular_frequencies(p)  # validates stability; result unused
    for name, d in (("dV0", dV0), ("dOmegaT", dOmegaT), ("dR", dR),
                    ("dkappa", dkappa), ("dU0", dU0)):
        if abs(d) >= 0.1:
            raise RangeError(f"{name}={d} outside the linear regime (|delta| < 0.1)")
    return {
        "radial": dV0 - dOmegaT - 2.0 * dR,
        "axial": 0.5 * (dU0 + dkappa),
    }


def micromotion_suppression(
    E_stray: np.ndarray, p: TrapParams, k: np.ndarray
) -> MicromotionFactors:
    """Carrier-strength reduction from stray-field-induced micromotion.

    A static field displaces the ion by dx_i = q E_i / (m omega_i^2) into
    the rf gradient, phase-modulating a probe of wavevector k with index
    phi_Omega = (q_x/2)(k_x dx - k_y dy). The carrier matrix element is
    reduced by J0(phi_Omega).
    """
    E = np.asarray(E_stray, dtype=float)
    kv = np.asarray(k, dtype=float)
    mc = secular_frequencies(p)
    dx = p.charge * E[0] / (p.mass * mc.omega_x**2)
    dy = p.charge * E[1] / (p.mass * mc.omega_y**2)
    phi = (mc.q_x / 2.0) * (kv[0] * dx - kv[1] * dy)
    return MicromotionFactors(
        phi_Omega=phi, j0_factor=float(j0(phi)), displacement=(dx, dy)
    )


# ---------------------------------------------------------------------------
# heating-time estimators: t*, the time to leave the motional ground state


def series_inductance(mass: float, d: float, charge: float, alpha: float = 0.8) -> float:
    """Equivalent inductance m d^2 / (alpha q)^2 of one ion oscillating
    between electrodes a distance d apart; alpha is the fraction of the
    electrode field that reaches the ion."""
    return mass * d**2 / (alpha * charge) ** 2


def resistive_heating_time(r: float, T: float, omega_z: float, ell_L: float) -> float:
    """Thermal electrode noise through a series resistance r at temperature
    T: t* = hbar omega_z ell_L / (k_B T r), with ell_L the equivalent
    inductance (see series_inductance). With the quality factor
    Q = omega_z ell_L / r this is t* = hbar Q / (k_B T)."""
    return hbar * omega_z * ell_L / (k_B * T * r)


def stray_field_heating_time(
    mass: float, charge: float, omega_z: float, S_U: float, U0: float, E_s: float
) -> float:
    """A static field E_s converts noise S_U (V^2 s) on the endcap
    potential U0 into field noise: t* = [4 m hbar omega_z/(q^2 S_U)] (U0/E_s)^2."""
    return (4.0 * mass * hbar * omega_z / (charge**2 * S_U)) * (U0 / E_s) ** 2


def patch_heating_time(
    theta: float,
    D: float,
    kappa_patch: float,
    r_a: float,
    a_p: float,
    omega_z: float,
    ell_L: float,
) -> float:
    """Diffusing surface-potential patches, an order-of-magnitude model.

    Patches diffusing with constant D give the potential noise density
    S(nu) = 4 theta sqrt(D) (kappa_patch r_a)^2/(3 a_p^3) nu^(-3/2).
    Sampled at nu = omega_z/(2 pi), it gives t* = 4 hbar omega_z ell_L / S.
    RangeError unless omega_z > 0.
    """
    if omega_z <= 0:
        raise RangeError("patch model needs omega_z > 0")
    nu = omega_z / (2.0 * math.pi)
    S = 4.0 * theta * math.sqrt(D) * (kappa_patch * r_a) ** 2 / (3.0 * a_p**3) * nu**-1.5
    return 4.0 * hbar * omega_z * ell_L / S


# prefactor of the thermally averaged elastic rate constant in SI units;
# equals pi*Gamma(1/3)*(e^2/(16 eps0 hbar))^(2/3) * Gamma(5/3)/Gamma(3/2)
_K_ELASTIC_SI = 1.23e5


def collision_rates(
    polarizability: float,
    gas_mass: float,
    pressure: float,
    T: float,
    ion_mass: float,
    charge: float = 1.602176634e-19,
) -> CollisionRates:
    """Background-gas collision rate constants and rates.

    polarizability is the gas's polarizability volume alpha (m^3) and
    gas_mass its molecular mass (kg). The capture (spiraling) rate
    constant is k = q sqrt(pi alpha / (eps0 mu)) with mu the reduced mass;
    it is velocity independent. The elastic momentum-transfer estimate
    uses the quasi-classical total cross section in an attractive 1/r^4
    potential, thermally averaged: k = 1.23e5 * alpha^(2/3) * v_t^(1/3)
    with v_t = sqrt(2 k_B T / mu). Rates are n*k with n = P/(k_B T).
    """
    if T <= 0:
        raise RangeError("temperature must be positive")
    if pressure < 0:
        raise RangeError("pressure must be non-negative")
    mu = gas_mass * ion_mass / (gas_mass + ion_mass)
    n = pressure / (k_B * T)
    k_lan = charge * math.sqrt(math.pi * polarizability / (epsilon_0 * mu))
    v_t = math.sqrt(2.0 * k_B * T / mu)
    k_el = _K_ELASTIC_SI * polarizability ** (2.0 / 3.0) * v_t ** (1.0 / 3.0)
    return CollisionRates(
        k_langevin=k_lan,
        gamma_langevin=n * k_lan,
        k_elastic=k_el,
        gamma_elastic=n * k_el,
        v_thermal=v_t,
    )


def cross_mode_growth(
    second_gradient: float,
    Q_l: float,
    Q_m: float,
    omega_k: float,
    charge: float,
    mass: float,
    t: float,
) -> float:
    """Resonantly driven amplitude from a static second-order field gradient.

    Two spectator modes with amplitudes Q_l, Q_m beating at the mode-k
    frequency drive mode k through the field curvature; starting from rest
    the amplitude grows linearly:

        |q_k(t)| = |charge * t * Q_l * Q_m * second_gradient / (2 mass omega_k)|

    The caller is responsible for the resonance condition.
    """
    if t < 0:
        raise RangeError("t must be >= 0")
    return abs(charge * t * Q_l * Q_m * second_gradient / (2.0 * mass * omega_k))


def exchange_time(
    q1: float, q2: float, m1: float, m2: float, d: float, omega_z: float
) -> float:
    """Energy-exchange time of two resonant charged oscillators a distance d apart.

    The Coulomb cross-term q1 q2 z1 z2/(2 pi eps0 d^3) splits the normal
    modes by delta_omega = q1 q2/(2 pi eps0 d^3 omega_z sqrt(m1 m2)); full
    energy exchange takes t = pi/delta_omega.
    """
    if d <= 0 or omega_z <= 0:
        raise RangeError("d and omega_z must be positive")
    return (
        2.0 * math.pi**2 * epsilon_0 * d**3 * omega_z * math.sqrt(m1 * m2) / (q1 * q2)
    )
