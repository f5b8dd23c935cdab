"""Resolved-sideband cooling as an incoherent per-cycle rate model.

One cooling cycle is a red-sideband pulse followed by a repump. The pulse
moves population from level n to n-1 with probability sin^2 of the
accumulated pulse area on that transition; the repump resets the internal
state and kicks the moved population back up one quantum with probability
omega_R/omega_z per scattering event, so the moved population is convolved
with the binomial distribution of kicks over a cycle's scatters. The
repump destroys coherence every cycle, so diagonal (population-only)
dynamics are exact here; a coherent single cycle can be composed from
pulse_engine when phase matters.

Pulse durations are tracked as areas on the lowest sideband transition
(area = |Omega_{1,0}| * t, radians), which keeps the model independent of
the absolute Rabi rate: only area ratios between ladder rungs enter the
transfer probabilities. An area of pi/2 empties n=1 completely.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import constants as _const

from .coupling import CouplingParams, ladder, rabi_frequency
from .errors import ModelInputError, RangeError, RegimeWarning, TruncationWarning
from .quantum_core import DensityMatrix

_STRATEGIES = ("fixed", "randomized", "schedule")


@dataclass(frozen=True)
class CoolingConfig:
    """Parameters of a sideband-cooling run.

    eta is the Lamb-Dicke parameter of the cooling transition, omega_z the
    motional frequency, omega_R the photon recoil frequency (both rad/s;
    only their ratio enters the cycle model), gamma_rad the repump
    linewidth used by the closed-form limit. pulse_strategy picks how the
    per-cycle pulse area is chosen:

      fixed       every cycle uses pulse_area (default pi/2)
      randomized  area drawn uniformly from [0.7, 1.3]*pi/2 each cycle
      schedule    areas taken from the schedule list, repeating cyclically

    scatters_per_cycle is the number of repump scattering events applied
    to the population the pulse moved (branching-ratio abstraction).
    """

    eta: float
    omega_z: float
    omega_R: float
    gamma_rad: float
    pulse_strategy: str = "randomized"
    cycles: int = 100
    pulse_area: float | None = None
    schedule: tuple = ()
    scatters_per_cycle: int = 2

    def __post_init__(self):
        if self.eta <= 0:
            raise RangeError("eta must be > 0")
        if self.omega_z <= 0 or self.omega_R < 0:
            raise RangeError("omega_z must be > 0 and omega_R >= 0")
        if self.gamma_rad < 0:
            raise RangeError("gamma_rad must be >= 0")
        if self.cycles < 1:
            raise RangeError("cycles must be >= 1")
        if self.pulse_strategy not in _STRATEGIES:
            raise ModelInputError(
                f"pulse_strategy must be one of {_STRATEGIES}, got {self.pulse_strategy!r}"
            )
        if self.pulse_strategy == "schedule":
            if len(self.schedule) == 0:
                raise ModelInputError("schedule strategy needs a nonempty schedule")
            if any(a <= 0 for a in self.schedule):
                raise RangeError("schedule areas must be > 0")
        if self.pulse_area is not None and self.pulse_area <= 0:
            raise RangeError("pulse_area must be > 0")
        if self.scatters_per_cycle < 0:
            raise RangeError("scatters_per_cycle must be >= 0")

    @property
    def recoil_ratio(self) -> float:
        """Heating probability per repump scattering event."""
        return self.omega_R / self.omega_z


@dataclass
class CoolingResult:
    """Trajectory record of one cooling run.

    populations is the final diagonal, mean_n and p0 have one entry per
    recorded cycle boundary (cycle 0 is the initial state), pulse_areas
    the area actually used in each cycle.
    """

    populations: np.ndarray
    mean_n: np.ndarray
    p0: np.ndarray
    pulse_areas: np.ndarray


def recoil_frequency(wavelength: float, mass: float) -> float:
    """Photon recoil frequency hbar*k^2/(2m) in rad/s.

    wavelength in meters, mass in kg. For a 313 nm photon on a 9.012 u
    ion this lands near 2*pi*230 kHz.
    """
    if wavelength <= 0 or mass <= 0:
        raise RangeError("wavelength and mass must be > 0")
    k = 2.0 * math.pi / wavelength
    return _const.hbar * k * k / (2.0 * mass)


def cooling_limit(gamma_rad: float, omega_z: float) -> float:
    """Closed-form sideband-cooling floor (gamma/(2*omega_z))^2.

    Valid only in the resolved-sideband regime gamma_rad < omega_z;
    RangeError otherwise.
    """
    if gamma_rad < 0 or omega_z <= 0:
        raise RangeError("gamma_rad must be >= 0 and omega_z > 0")
    if gamma_rad >= omega_z:
        raise RangeError(
            f"gamma_rad = {gamma_rad:.3e} not below omega_z = {omega_z:.3e}: "
            "sidebands unresolved, the closed-form limit does not apply"
        )
    return (gamma_rad / (2.0 * omega_z)) ** 2


def _cycle_areas(cfg: CoolingConfig, rng: np.random.Generator) -> np.ndarray:
    base = 0.5 * math.pi
    if cfg.pulse_strategy == "fixed":
        a = cfg.pulse_area if cfg.pulse_area is not None else base
        return np.full(cfg.cycles, a)
    if cfg.pulse_strategy == "schedule":
        sched = np.asarray(cfg.schedule, dtype=float)
        reps = -(-cfg.cycles // sched.size)
        return np.tile(sched, reps)[: cfg.cycles]
    return rng.uniform(0.7 * base, 1.3 * base, cfg.cycles)


def _kick_weights(scatters: int, h: float, top: int) -> np.ndarray:
    """Binomial weights of gaining k = 0..min(scatters, top) quanta over the
    repump scatters, each heating with probability h.

    The weights are formed in log space, so no term overflows. A kick of
    top = n_max + 1 or more quanta moves every level to the top one, so
    the entry at k = top carries all of them.
    """
    if h == 0.0:
        return np.ones(1)
    lh, lq = math.log(h), math.log1p(-h)
    lead = math.lgamma(scatters + 1)
    w = np.array([math.exp(lead - math.lgamma(k + 1) - math.lgamma(scatters - k + 1)
                           + k * lh + (scatters - k) * lq)
                  for k in range(min(scatters, top) + 1)])
    if scatters > top:
        from scipy.special import betainc

        w[-1] = betainc(top, scatters - top + 1, h)     # P(k >= top)
    return w


def sideband_cool(initial: DensityMatrix, cfg: CoolingConfig, seed=None) -> CoolingResult:
    """Run the per-cycle rate model and record the trajectory.

    initial must be diagonal (populations only); off-diagonal weight above
    1e-12 raises ModelInputError since the model has no phase to act on.
    A RegimeWarning fires when eta^2 * <n>_initial exceeds 0.1 (the
    one-quantum recoil picture starts to blur), and a TruncationWarning
    when recoil pushes more than 1e-9 population against the top of the
    ladder in any one cycle, where it is held rather than lost (population
    is conserved exactly; the top level is a reflecting boundary).

    Each cycle moves the population with one convolution: the sideband
    pulse shifts level n to n - 1, and the binomial repump kicks spread
    that shifted population upward.
    """
    if not isinstance(initial, DensityMatrix):
        raise ModelInputError("sideband_cool starts from a DensityMatrix")
    off = initial.rho - np.diag(np.diag(initial.rho))
    if np.abs(off).max() > 1e-12:
        raise ModelInputError("initial state must be diagonal (incoherent)")
    p = np.real(np.diag(initial.rho)).copy()
    n_max = initial.n_max
    levels = np.arange(n_max + 1, dtype=float)

    if cfg.eta ** 2 * float(p @ levels) > 0.1:
        warnings.warn(
            "eta^2 * <n> exceeds 0.1: outside the single-quantum recoil regime",
            RegimeWarning,
            stacklevel=2,
        )

    c = CouplingParams(Omega=1.0, eta=cfg.eta)
    # n <-> n-1 rates for n = 1..n_max relative to the 1<->0 sideband;
    # area pi/2 empties n=1
    ratio = np.abs(ladder(1, n_max, c)) / abs(rabi_frequency(1, 0, c))

    h = cfg.recoil_ratio
    if h >= 1.0:
        raise RangeError("omega_R/omega_z >= 1: recoil dominates, model invalid")
    kick = _kick_weights(cfg.scatters_per_cycle, h, n_max + 1)

    rng = np.random.default_rng(seed)
    areas = _cycle_areas(cfg, rng)

    mean_traj = [float(p @ levels)]
    p0_traj = [float(p[0])]
    clipped = 0.0
    for a in areas:
        # moved[j] leaves level j + 1 for level j, then kick[k] lifts it to j + k
        moved = p[1:] * np.sin(a * ratio) ** 2
        p[1:] -= moved
        kicked = np.convolve(moved, kick)
        p[:n_max] += kicked[:n_max]
        p[n_max] += kicked[n_max:].sum()          # held at the top level
        clipped = max(clipped, float(kicked[n_max + 1:].sum()))
        mean_traj.append(float(p @ levels))
        p0_traj.append(float(p[0]))

    if clipped > 1e-9:
        warnings.warn(
            f"recoil pressed {clipped:.2e} population against the top of the "
            "ladder in one cycle; enlarge n_max for a faithful tail",
            TruncationWarning,
            stacklevel=2,
        )

    return CoolingResult(
        populations=p,
        mean_n=np.asarray(mean_traj),
        p0=np.asarray(p0_traj),
        pulse_areas=areas,
    )
