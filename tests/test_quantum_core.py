"""Tests for ionsim.quantum_core."""

import math
import re
import warnings

import numpy as np
import pytest

from ionsim.errors import (
    DimensionError,
    ModelInputError,
    RangeError,
    TruncationError,
    TruncationWarning,
)
from ionsim.quantum_core import (
    DensityMatrix,
    QuantumState,
    SPIN_DOWN,
    SPIN_UP,
    apply_unitary,
    index_of,
    make_state,
    overlap,
    require_unitary,
)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_blocks(shape, seed):
    """A stack of random 2x2 unitaries e^{i g} [[a, b], [-b*, a*]], |a|^2 + |b|^2 = 1."""
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
    ab /= np.linalg.norm(ab, axis=-1, keepdims=True)
    a, b = ab[..., 0], ab[..., 1]
    U = np.stack([np.stack([a, b], -1), np.stack([-b.conj(), a.conj()], -1)], -2)
    return U * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, shape))[..., None, None]


def dense_defect(U):
    """max |U+ U - 1| over a stack, by matrix products."""
    return float(np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(U.shape[-1]))))


def random_state(n_max, seed):
    """A random normalized state with its top two Fock levels empty."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(2, n_max + 1)) + 1j * rng.normal(size=(2, n_max + 1))
    amps[:, -2:] = 0.0
    return QuantumState(amps.ravel() / np.linalg.norm(amps), n_max)


# ---------------------------------------------------------------------------
# constructors


def test_fock_ground_state():
    st = make_state("fock", n_max=5)
    assert st.amplitude(SPIN_DOWN, 0) == 1.0
    assert st.norm() == pytest.approx(1.0, abs=1e-15)
    assert st.amplitude(SPIN_UP, 0) == 0.0


def test_fock_indexing_convention():
    # down block first, then up; n runs fastest
    assert index_of(SPIN_DOWN, 3, 5) == 3
    assert index_of(SPIN_UP, 0, 5) == 6
    assert index_of(1, 2, 5) == 8
    with pytest.raises(RangeError):
        index_of(SPIN_DOWN, 6, 5)
    with pytest.raises(ModelInputError):
        index_of("sideways", 0, 5)


def test_thermal_ground_population():
    dm = make_state("thermal", n_max=60, nbar=0.1)
    assert isinstance(dm, DensityMatrix)
    p = np.diag(dm.rho).real
    assert p[0] == pytest.approx(1.0 / 1.1, rel=1e-9)
    assert dm.trace() == pytest.approx(1.0, abs=1e-12)


def test_thermal_mean_occupation():
    for nbar in (0.1, 0.5, 1.0, 2.0):
        dm = make_state("thermal", n_max=60, nbar=nbar)
        assert abs(dm.mean_n() / nbar - 1.0) <= 1e-9


def test_thermal_tail_guard_and_zero():
    with pytest.raises(TruncationError):
        make_state("thermal", n_max=10, nbar=5.0)
    dm = make_state("thermal", n_max=5, nbar=0.0)
    assert np.diag(dm.rho).real[0] == 1.0


def test_unknown_kind():
    for kind in ("squeezed", "coherent"):
        with pytest.raises(ModelInputError):
            make_state(kind, n_max=5)


# ---------------------------------------------------------------------------
# unitary application


def test_identity_leaves_state_unchanged():
    st = random_state(20, seed=1)
    out = apply_unitary(st, np.eye(st.dim))
    assert np.allclose(out.amplitudes, st.amplitudes, atol=0)


def test_random_unitary_preserves_norm_and_populations_sum():
    st = make_state("fock", n_max=8, n=2)
    # keep the action away from the truncation edge
    U = np.eye(st.dim, dtype=complex)
    blk = random_unitary(6, seed=3)
    U[:6, :6] = blk
    out = apply_unitary(st, U)
    assert abs(out.norm() - 1.0) <= 1e-12
    assert abs((np.abs(out.amplitudes) ** 2).sum() - 1.0) <= 1e-12


def test_truncation_warning_and_strict_error():
    st = make_state("fock", n_max=5)
    N = st.n_max + 1
    P = np.eye(st.dim)
    # swap (down,0) with (down,n_max)
    P[[0, N - 1]] = P[[N - 1, 0]]
    with pytest.warns(TruncationWarning):
        apply_unitary(st, P)
    # a warnings filter set to "error" (as --strict installs) raises it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationWarning):
            apply_unitary(st, P)


def test_non_unitary_rejected():
    st = make_state("fock", n_max=3)
    with pytest.raises(ModelInputError):
        apply_unitary(st, 0.5 * np.eye(st.dim))


def test_shape_mismatch_rejected():
    st = make_state("fock", n_max=3)
    with pytest.raises(DimensionError):
        apply_unitary(st, np.eye(5))


def test_batched_state_rejected_by_apply_unitary():
    # trials == dim: U @ amps would act on the trial axis without an error
    n_max = 3
    dim = 2 * (n_max + 1)
    batch = QuantumState(np.eye(dim), n_max)
    with pytest.raises(DimensionError):
        apply_unitary(batch, random_unitary(dim, seed=5))


def test_unitary_on_density_matrix():
    # apply_unitary acts on pure states only; a mixture is refused
    dm = make_state("thermal", n_max=20, nbar=0.5)
    with pytest.raises(ModelInputError, match="DensityMatrix"):
        apply_unitary(dm, np.eye(21))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [0.9, 0.99, 1.01, 1.1])
def test_block_stack_defect_matches_dense_formula(seed, scale):
    # perturb unitary blocks until the dense defect sits just under or
    # just over the 1e-10 guard; the in-place 2x2 path must decide as the
    # dense formula does and print the same defect
    V = random_blocks((300, 9), seed)
    E = np.random.default_rng(seed + 100).normal(size=V.shape + (2,)) @ [1.0, 1j]
    slope = dense_defect(V + 1e-10 * E) / 1e-10
    U = V + (scale * 1e-10 / slope) * E
    defect = dense_defect(U)
    assert (defect > 1e-10) == (scale > 1.0)
    if defect > 1e-10:
        with pytest.raises(ModelInputError, match=re.escape(f"(defect {defect:.2e})")):
            require_unitary(U)
    else:
        require_unitary(U)


@pytest.mark.parametrize("bad", [
    0.5 * np.eye(2),                         # column norms only
    np.array([[1.0, 1e-9], [0.0, 1.0]]),    # overlap of the columns only
    # overlapping columns of squared norm 1 + 2.5e-19, orthogonal rows: U+ U - 1
    # is off-diagonal, U U+ - 1 diagonal
    np.array([[1.0, 1.0], [1.0, -1.0]]) @ [[1.0, 5e-10], [5e-10, 1.0]] / math.sqrt(2.0),
])
def test_one_non_unitary_block_in_a_stack_is_refused(bad):
    U = random_blocks((300, 9), seed=7)
    require_unitary(U)
    U[123, 4] = bad
    with pytest.raises(ModelInputError, match="not unitary"):
        require_unitary(U)


def _with_nan(U, *index):
    U = U.astype(complex)
    U[index] = np.nan
    return U


@pytest.mark.parametrize("U", [
    np.full((4, 4), np.nan),
    _with_nan(random_unitary(4, seed=3), 2, 1),
    _with_nan(random_blocks((300, 9), seed=7), 123, 4, 1, 0),
    np.array([[np.nan]]),
])
def test_non_finite_matrix_is_not_unitary(U):
    with pytest.raises(ModelInputError, match="not unitary"):
        require_unitary(U)


# ---------------------------------------------------------------------------
# overlaps and populations


def test_overlap_properties():
    a = random_state(25, seed=2)
    b = random_state(25, seed=3)
    assert overlap(a, a) == pytest.approx(1.0, abs=1e-12)
    assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)), abs=1e-14)
    # <a|b> conjugates the bra
    expect = np.sum(a.amplitudes.conj() * b.amplitudes)
    assert overlap(a, b) == pytest.approx(expect, rel=1e-12)


def test_overlap_dimension_mismatch():
    a = make_state("fock", n_max=3)
    b = make_state("fock", n_max=4)
    with pytest.raises(DimensionError):
        overlap(a, b)


# ---------------------------------------------------------------------------
# DensityMatrix validation


def test_density_matrix_validation():
    with pytest.raises(ModelInputError):
        DensityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]]), 1)  # not Hermitian
    with pytest.raises(ModelInputError):
        DensityMatrix(np.diag([0.6, 0.6]), 1)  # trace 1.2
    with pytest.raises(ModelInputError):
        DensityMatrix(np.diag([1.5, -0.5]), 1)  # negative eigenvalue
    with pytest.raises(DimensionError):
        DensityMatrix(np.eye(3), 1)
