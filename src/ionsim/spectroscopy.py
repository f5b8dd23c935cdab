"""Ramsey interrogation and clock-stability trade-off analytics.

The fringe itself is composed from pulse_engine rotations so phase
conventions stay consistent with the rest of the package. The stability
analysis is closed form: the optimum interrogation time when a drifting
local oscillator caps how long the atoms may precess before the error
signal is lost, and the projection-noise-limited frequency imprecision
of independent or maximally entangled ensembles at that time.

Conventions: angular frequencies (rad/s) throughout; epsilon = 1/2 tags
the independent ensemble and epsilon = 1 the maximally entangled one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingParams
from .errors import ModelInputError, RangeError
from .pulse_engine import PulseSpec, apply_pulse
from .quantum_core import QuantumState, make_state


def ramsey_probability(
    omega_offset: float,
    T_R: float,
    phases=(0.0, math.pi),
    coupling: CouplingParams | None = None,
) -> float:
    """Two-pulse separated-field fringe, built from actual rotations.

    A pi/2 pulse at phase phases[0], free precession for T_R at detuning
    omega_offset (the upper state accumulates exp(-i*omega_offset*T_R)),
    then a pi/2 pulse at phases[1]. The result equals

        P_down = (1 - cos(omega_offset*T_R + phases[1] - phases[0])) / 2

    so the default opposite-phase pair gives P_down = (1 + cos(d*T_R))/2,
    an extremum on resonance.
    """
    if T_R < 0:
        raise RangeError("T_R must be >= 0")
    if not math.isfinite(omega_offset * T_R):
        raise RangeError("the free-precession phase omega_offset*T_R must be finite")
    if len(phases) != 2:
        raise ModelInputError("phases must hold exactly two pulse phases")
    c = coupling if coupling is not None else CouplingParams(Omega=1.0, eta=0.05)
    # a little motional headroom keeps the edge-population guard quiet
    n_max = 2
    state = apply_pulse(make_state("fock", n_max),
                        PulseSpec("carrier", 0.5 * math.pi, c, phi=phases[0]))
    amps = state.amplitudes.copy()
    amps[n_max + 1:] *= np.exp(-1j * omega_offset * T_R)  # free precession of |up>
    state = apply_pulse(QuantumState(amps, n_max),
                        PulseSpec("carrier", 0.5 * math.pi, c, phi=phases[1]))
    return float(np.sum(np.abs(state.amplitudes[: n_max + 1]) ** 2))


@dataclass(frozen=True)
class ClockParams:
    """Inputs of the locked-oscillator trade-off analysis.

    C and n_exp characterize the free-running local oscillator: its rms
    frequency wander over an averaging time t is C*t^n_exp. K2 is the
    servo time constant in units of T_R, K3 the demanded headroom
    between the atomic linewidth and the oscillator wander at T_R; both
    must exceed 1 for the lock to close. epsilon is 1/2 for L independent
    atoms and 1 for the maximally entangled state. tau is the total
    averaging time.
    """

    L: int
    tau: float
    C: float
    n_exp: float
    K2: float
    K3: float
    epsilon: float = 0.5

    def __post_init__(self):
        if self.L < 1:
            raise RangeError("L must be >= 1")
        if self.tau <= 0:
            raise RangeError("tau must be > 0")
        if self.C <= 0:
            raise RangeError("C must be > 0")
        if self.n_exp < -0.5:
            raise RangeError("n_exp must be >= -1/2")
        if self.K2 <= 1.0 or self.K3 <= 1.0:
            raise RangeError("K2 and K3 must both exceed 1")
        if self.epsilon not in (0.5, 1.0):
            raise ModelInputError("epsilon must be 1/2 or 1")


def clock_lock_analysis(p: ClockParams, mode: str = "constrained_K3") -> dict:
    """Optimum interrogation time and locked stability under a drift cap.

    constrained_K3: the linewidth is held K3 times above the oscillator
    wander at T_R, giving

        T_R        = (pi / (C K3 L^(2 eps - 1)))^(1/(n+1))
        delta_omega = (C K3 / pi)^(1/(2(n+1))) L^(-(n eps + 1/2)/(n+1)) / sqrt(tau)

    and reports the servo margin K1 = pi K2^(n+1/2) L^(1-eps) / K3 this
    choice implies. With epsilon = 1/2, the L exponent of delta_omega is
    -1/2 for every n, so entanglement only pays when n > 0.

    constrained_K1: the margin is pinned at K1 = 1 (the lock barely
    closes), which caps T_R at (L^-eps / (C K2^(n+1/2)))^(1/(n+1)) and
    gives

        delta_omega = (C K2^(n+1/2))^(1/(2(n+1))) L^(-eps(2n+1)/(2n+2)) / sqrt(tau)

    reporting the K3 this forces. The two modes agree whenever K3 is
    chosen to make K1 = 1.

    Both delta_omega forms are the projection-noise law
    L^-eps / sqrt(T_R tau) at the mode's own T_R, so it is computed
    once from that law.
    """
    n = p.n_exp
    eps = p.epsilon
    if mode == "constrained_K3":
        t_r = (math.pi / (p.C * p.K3 * p.L ** (2.0 * eps - 1.0))) ** (1.0 / (n + 1.0))
        margin = {"K1": math.pi * p.K2 ** (n + 0.5) * p.L ** (1.0 - eps) / p.K3}
    elif mode == "constrained_K1":
        t_r = (p.L ** (-eps) / (p.C * p.K2 ** (n + 0.5))) ** (1.0 / (n + 1.0))
        margin = {"K3": math.pi * p.K2 ** (n + 0.5) * p.L ** (1.0 - eps)}
    else:
        raise ModelInputError(f"unknown analysis mode {mode!r}")
    dw = float(p.L) ** (-eps) / math.sqrt(t_r * p.tau)
    return {"T_R": t_r, "delta_omega": dw, **margin}
