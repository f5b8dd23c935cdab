"""State containers and linear-algebra primitives.

The package works in the product space (two-level spin) x (harmonic
oscillator truncated at n_max). Pure states live in QuantumState;
motional mixtures (thermal states, damped evolutions) in DensityMatrix
over the Fock basis alone. Everything is dense: the physics of interest
involves a few quanta, so n_max rarely needs to exceed a couple hundred.

Spin convention, fixed across the codebase: "up" is the higher-energy
internal level, "down" the lower. Composite amplitudes are indexed
(s, n) -> s*(n_max+1) + n with s = 0 for down, 1 for up.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DimensionError,
    ModelInputError,
    RangeError,
    TruncationError,
    TruncationWarning,
)

SPIN_DOWN = "down"
SPIN_UP = "up"
_SPIN_INDEX = {SPIN_DOWN: 0, SPIN_UP: 1, 0: 0, 1: 1}

DEFAULT_EPS_TRUNC = 1e-8


def index_of(spin, n: int, n_max: int) -> int:
    """Flat index of basis ket (spin, n)."""
    try:
        s = _SPIN_INDEX[spin]
    except KeyError:
        raise ModelInputError(f"unknown spin label {spin!r}")
    if not 0 <= n <= n_max:
        raise RangeError(f"n={n} outside 0..{n_max}")
    return s * (n_max + 1) + n


class QuantumState:
    """Pure state on the spin (x) truncated-oscillator space, or a batch.

    Parameters
    ----------
    amplitudes : array_like, complex, shape (..., 2*(n_max+1))
        Basis ordering: all spin-down Fock amplitudes first, then spin-up.
        Leading axes index a batch of states, such as Monte Carlo trials;
        norm is per state, and amplitude and apply_unitary take one state.
    n_max : int
        Highest retained Fock level.

    The state is value-semantic: operations return new instances.
    """

    __slots__ = ("amplitudes", "n_max")

    def __init__(self, amplitudes, n_max: int):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim < 1 or amps.shape[-1] != 2 * (n_max + 1):
            raise DimensionError(
                f"amplitude array has shape {amps.shape}, expected (..., {2*(n_max+1)})"
            )
        self.amplitudes = amps
        self.n_max = int(n_max)

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)

    def norm(self):
        return np.linalg.norm(self.amplitudes, axis=-1)

    def amplitude(self, spin, n: int) -> complex:
        return complex(self.amplitudes[index_of(spin, n, self.n_max)])

    def truncation_tail(self) -> float:
        """Population in the top two Fock levels, summed over spin (largest in a batch)."""
        N = self.n_max + 1
        idx = [N - 2, N - 1, 2 * N - 2, 2 * N - 1] if N >= 2 else [N - 1, 2 * N - 1]
        return float((np.abs(self.amplitudes[..., idx]) ** 2).sum(axis=-1).max())

    def copy(self) -> "QuantumState":
        return QuantumState(self.amplitudes.copy(), self.n_max)


class DensityMatrix:
    """Hermitian unit-trace operator on the Fock basis 0..n_max.

    Construction validates hermiticity (1e-12), trace (1e-9) and
    positivity (eigenvalues >= -1e-9); pass validate=False only for
    intermediate algebra that re-validates afterwards.
    """

    __slots__ = ("rho", "n_max")

    def __init__(self, rho, n_max: int, validate: bool = True):
        r = np.asarray(rho, dtype=complex)
        if r.shape != (n_max + 1, n_max + 1):
            raise DimensionError(
                f"density matrix has shape {r.shape}, expected {(n_max+1, n_max+1)}"
            )
        if validate:
            if np.max(np.abs(r - r.conj().T)) > 1e-12:
                raise ModelInputError("density matrix is not Hermitian to 1e-12")
            tr = float(np.trace(r).real)
            if abs(tr - 1.0) > 1e-9:
                raise ModelInputError(f"density matrix trace {tr} is not 1 within 1e-9")
            if float(np.linalg.eigvalsh(r)[0]) < -1e-9:
                raise ModelInputError("density matrix has an eigenvalue below -1e-9")
        self.rho = r
        self.n_max = int(n_max)

    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def mean_n(self) -> float:
        return float(np.sum(np.arange(self.n_max + 1) * np.diag(self.rho).real))

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.rho.copy(), self.n_max, validate=False)


def make_state(kind: str, n_max: int, spin=SPIN_DOWN, n: int = 0,
               nbar: float | None = None):
    """Construct a standard initial state.

    kind = "fock"
        QuantumState |spin, n>. Requires n <= n_max.
    kind = "thermal"
        Diagonal DensityMatrix with populations proportional to
        nbar^n/(1+nbar)^(n+1), renormalized over the kept levels. The
        omitted geometric tail must stay below DEFAULT_EPS_TRUNC or
        TruncationError is raised.
    """
    if n_max < 1:
        raise RangeError("n_max must be >= 1")
    N = n_max + 1

    if kind == "fock":
        amps = np.zeros(2 * N, dtype=complex)
        amps[index_of(spin, n, n_max)] = 1.0
        return QuantumState(amps, n_max)

    if kind == "thermal":
        if nbar is None:
            raise ModelInputError("thermal state needs nbar")
        if nbar < 0:
            raise RangeError("nbar must be >= 0")
        if nbar == 0:
            p = np.zeros(N)
            p[0] = 1.0
        else:
            x = nbar / (1.0 + nbar)
            tail = x**N
            if tail >= DEFAULT_EPS_TRUNC:
                raise TruncationError(
                    f"thermal tail {tail:.2e} beyond n_max={n_max} "
                    f"exceeds {DEFAULT_EPS_TRUNC:.1e}"
                )
            p = (1.0 - x) * x ** np.arange(N)
            p = p / p.sum()
        return DensityMatrix(np.diag(p.astype(complex)), n_max)

    raise ModelInputError(f"unknown state kind '{kind}'")


def apply_unitary(state: QuantumState, U: np.ndarray) -> QuantumState:
    """Apply a unitary to one QuantumState and return U psi.

    The matrix must be unitary to 1e-10 (checked under __debug__). After
    the product, population in the top two Fock levels above
    DEFAULT_EPS_TRUNC raises TruncationWarning.
    """
    if not isinstance(state, QuantumState):
        raise ModelInputError(f"cannot apply a unitary to {type(state).__name__}")
    if state.amplitudes.ndim != 1:
        raise DimensionError("apply_unitary acts on one state, not a batch")
    U = np.asarray(U, dtype=complex)
    if U.shape != (state.dim, state.dim):
        raise DimensionError(
            f"operator shape {U.shape} does not match dimension {state.dim}"
        )
    require_unitary(U)
    out = QuantumState(U @ state.amplitudes, state.n_max)
    if abs(out.norm() - 1.0) > 1e-12 and abs(state.norm() - 1.0) <= 1e-12:
        raise ModelInputError("unitary application failed to preserve the norm")
    truncation_guard(out.truncation_tail())
    return out


def require_unitary(U: np.ndarray) -> None:
    """ModelInputError unless U, one matrix or a stack of them, is unitary
    to 1e-10 in every entry of U+ U - 1 (checked under __debug__); a NaN
    entry fails."""
    if __debug__:
        defect = np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(U.shape[-1])))
        if not defect <= 1e-10:
            raise ModelInputError(f"matrix is not unitary (defect {defect:.2e})")


def truncation_guard(tail: float) -> None:
    """TruncationWarning if the top two Fock levels hold more than
    DEFAULT_EPS_TRUNC; a warnings filter set to "error" raises it."""
    if tail > DEFAULT_EPS_TRUNC:
        warnings.warn(
            f"population {tail:.2e} in the top two Fock levels "
            f"(guard {DEFAULT_EPS_TRUNC:.1e})",
            TruncationWarning,
        )


def overlap(a: QuantumState, b: QuantumState):
    """Inner product <a|b> of a single state a; an array of them if b is a batch."""
    if not isinstance(a, QuantumState) or not isinstance(b, QuantumState):
        raise ModelInputError("overlap takes two QuantumState objects")
    if a.amplitudes.ndim != 1:
        raise DimensionError("overlap takes a single state as a, not a batch")
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch {a.dim} vs {b.dim}")
    ov = b.amplitudes @ a.amplitudes.conj()
    return complex(ov) if ov.ndim == 0 else ov

