"""Numerical toolkit for coherent state manipulation of trapped atomic ions.

Modules
-------
trap_model
    Classical trap physics: secular frequencies, chain geometry, normal
    modes, heating and collision estimators.
quantum_core
    State containers for the (spin x oscillator) Hilbert space and for
    oscillator density matrices.
coupling
    Spin-motion coupling strengths: Laguerre matrix elements, magic
    Lamb-Dicke values, Debye-Waller statistics.
pulse_engine
    Exact pulse propagators, gate constructions, and error accumulation.
decoherence
    Thermal-bath master equation, decaying flop signals, population
    inversion, noise envelopes, spectator leakage.
cooling
    Resolved-sideband cooling rate model and limits.
spectroscopy
    Ramsey fringes, projection-noise stability, clock-lock scaling laws.
cli
    Configuration-driven experiment runner (console script ``ionsim``).
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
