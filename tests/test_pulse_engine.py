"""Tests for pulse propagators, gates, registers, and error accumulation.

Oracles used here and nowhere else:
  * direct ODE integration of the resonantly driven two-level pair
    (carrier and sideband phase index, either sign of the matrix element)
    against the closed-form propagator;
  * hand-built flop matrices from the two carrier matrix elements for
    the magic-value gate;
  * closed-form worst-case fidelities cos^2(zeta/2), cos^2(M zeta/2),
    cos^2(sum zeta/2) for area-error accumulation;
  * exact symbolic maps for the register and three-pulse gates (the red
    pi map-in and map-out, the bus-controlled flip, the rotation matrix
    and the 6x6 auxiliary-level composite), against the pulse sequences
    that now build those gates.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from ionsim.coupling import CouplingParams, rabi_frequency
from ionsim import pulse_engine
from ionsim.errors import (
    ModelInputError,
    RangeError,
    TruncationError,
    TruncationWarning,
)
from ionsim.pulse_engine import (
    PulseSpec,
    RegisterState,
    TRANSITIONS,
    _drive,
    _pulse_entries,
    apply_cn_between_ions,
    apply_pulse,
    cn_gate_single_pulse,
    cn_gate_three_pulse,
    gate_fidelity,
    noisy_sequence_fidelity,
    prepare_max_entangled,
    pulse_unitary,
    register_ground,
    register_rotation,
)
from ionsim.quantum_core import (
    SPIN_DOWN,
    SPIN_UP,
    QuantumState,
    apply_unitary,
    index_of,
    make_state,
    overlap,
)


def unitary_defect(U):
    """Largest entry of U+ U - 1, over a stack of matrices too."""
    return float(np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(U.shape[-1]))))


def pair_blocks(p, n_max):
    """Each coupled pair's 2x2 propagator, in (upper, lower) order, built
    from the closed-form entries: shape batch + (pairs, 2, 2)."""
    _, _, c, b_ul, b_lu = _pulse_entries(p, n_max)
    return np.stack([np.stack([c, b_ul], -1), np.stack([b_lu, c], -1)], -2)


def random_state(rng, n_max, top_empty=0):
    amps = rng.normal(size=2 * (n_max + 1)) + 1j * rng.normal(size=2 * (n_max + 1))
    if top_empty:
        N = n_max + 1
        for n in range(n_max - top_empty + 1, n_max + 1):
            amps[n] = 0.0
            amps[N + n] = 0.0
    amps /= np.linalg.norm(amps)
    return QuantumState(amps, n_max)


# ------------------------------------------------------ two-level rotation
# a pulse of area theta runs for t = theta / (2 |Omega_ref|), so its
# reference pair (pair 0 by default) turns through |Omega_ref| t = theta/2


def test_rotation_pi_is_not_gate():
    U = pair_blocks(PulseSpec("carrier", math.pi, CouplingParams(1.0, 0.0)), n_max=1)[0]
    # |lo> -> -i|up>, |up> -> -i|lo>
    assert np.allclose(U, np.array([[0, -1j], [-1j, 0]]), atol=1e-15)


def test_rotation_zero_area_identity():
    assert np.all(pair_blocks(PulseSpec("carrier", 0.0, CouplingParams(1.0, 0.0)), 1) == np.eye(2))
    for tr in TRANSITIONS:
        blocks = pair_blocks(PulseSpec(tr, 0.0, CouplingParams(3.0, 0.1), phi=1.0), 4)
        assert np.all(blocks == np.eye(2))


def test_rotation_resonant_form():
    theta, phi = 1.3, 0.4
    for tr, dn in (("carrier", 0), ("blue", 1), ("red", 1)):
        U = pair_blocks(PulseSpec(tr, theta, CouplingParams(2.0, 0.1), phi=phi), n_max=3)[0]
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        ph = phi + 0.5 * math.pi * dn
        expected = np.array(
            [
                [c, -1j * np.exp(1j * ph) * s],
                [-1j * np.exp(-1j * ph) * s, c],
            ]
        )
        assert np.max(np.abs(U - expected)) < 1e-14


def _ode_propagator(Omega, phi, dn, t_end):
    """Integrate the resonant interaction-picture pair equations column by
    column."""

    def rhs(t, y):
        cu, cl = y[0] + 1j * y[1], y[2] + 1j * y[3]
        du = -(1j ** (1 + dn)) * np.exp(1j * phi) * Omega * cl
        dl = -(1j ** (1 - dn)) * np.exp(-1j * phi) * Omega * cu
        return [du.real, du.imag, dl.real, dl.imag]

    cols = []
    for init in ([1, 0, 0, 0], [0, 0, 1, 0]):
        sol = solve_ivp(rhs, (0.0, t_end), init, rtol=1e-12, atol=1e-14)
        y = sol.y[:, -1]
        cols.append([y[0] + 1j * y[1], y[2] + 1j * y[3]])
    return np.array(cols).T


def test_rotation_matches_ode_detuned():
    # on resonance, carrier and sideband phase index, and a matrix element
    # of either sign: L_1(1.44) and L_1^1(2.56) turn pair 1 negative
    for tr, c, theta, phi, negative in [
            ("carrier", CouplingParams(1.7, 0.0), 2.2, 0.0, False),
            ("blue", CouplingParams(1.7, 0.3), 1.1, 0.6, False),
            ("carrier", CouplingParams(0.9, 1.2), 3.9, -1.2, True),
            ("red", CouplingParams(0.9, 1.6), 5.0, 2.5, True)]:
        dn = 0 if tr == "carrier" else 1
        Omegas = [rabi_frequency(n + dn, n, c) for n in (0, 1)]
        assert (Omegas[1] < 0) == negative
        t_end = theta / (2 * abs(Omegas[0]))
        U = pair_blocks(PulseSpec(tr, theta, c, phi=phi), n_max=2)
        for n, Omega in enumerate(Omegas):
            V = _ode_propagator(Omega, phi, dn, t_end)
            assert np.max(np.abs(U[n] - V)) < 1e-9
        assert unitary_defect(U) < 1e-12


def test_rotation_unitary_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = PulseSpec(TRANSITIONS[rng.integers(0, 3)], rng.uniform(0, 4 * math.pi),
                      CouplingParams(rng.uniform(0.1, 5.0), rng.uniform(0.01, 1.0)),
                      phi=rng.uniform(-math.pi, math.pi))
        assert unitary_defect(pair_blocks(p, int(rng.integers(1, 7)))) < 1e-12


# ------------------------------------------------------------- pulse specs


def test_pulse_spec_validation():
    c = CouplingParams(1.0, 0.1)
    with pytest.raises(ModelInputError):
        PulseSpec("purple", 1.0, c)
    with pytest.raises(RangeError):
        PulseSpec("carrier", -1.0, c)
    with pytest.raises(ModelInputError):
        PulseSpec("blue", 1.0, c, reference_pair=(2, 0))
    with pytest.raises(ModelInputError):
        PulseSpec("carrier", 1.0, c, reference_pair=(1, 0))
    with pytest.raises(ModelInputError):
        PulseSpec("red", 1.0, c, reference_pair=(-1, 0))
    # good ones construct
    PulseSpec("blue", 1.0, c, reference_pair=(2, 1))
    PulseSpec("red", 1.0, c, reference_pair=(0, 1))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.array([0.1, math.nan])])
@pytest.mark.parametrize("field", ["theta", "phi", "zeta", "phi_err"])
def test_pulse_spec_rejects_non_finite_inputs(field, value):
    with pytest.raises(RangeError, match=f"pulse {field} must be finite"):
        PulseSpec("carrier", **{"theta": 1.0, field: value},
                  coupling=CouplingParams(1.0, 0.1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("transition, coupling, theta", [
    ("carrier", CouplingParams(1e-10, 0.0), 1e308),   # the duration overflows
    ("blue", CouplingParams(1e-10, 0.1), 1e308),
    ("carrier", CouplingParams(math.nan, 0.1), 1.0),  # nan < 0 passes its check
    ("red", CouplingParams(math.inf, 0.1), 1.0),       # |Omega| t = inf * 0
])
def test_pulse_with_non_finite_entries_is_refused(transition, coupling, theta):
    p = PulseSpec(transition, theta, coupling)
    with pytest.raises(ModelInputError, match="not unitary"):
        apply_pulse(make_state("fock", n_max=3), p)
    with pytest.raises(ModelInputError, match="not unitary"):
        pulse_unitary(p, n_max=3)


# ------------------------------------------------------------- apply_pulse


def test_carrier_pi_flips_spin_exactly():
    st = make_state("fock", n_max=3)
    p = PulseSpec("carrier", math.pi, CouplingParams(1.0, 0.0))
    out = apply_pulse(st, p)
    assert abs(out.amplitude(SPIN_UP, 0) - (-1j)) < 1e-15
    assert abs(out.amplitude(SPIN_DOWN, 0)) < 1e-15


def test_blue_sideband_flopping_curve():
    # P_down(t) = cos^2(Omega_10 t) from the motional ground state
    c = CouplingParams(2.0 * math.pi * 50e3, 0.1)
    Om10 = rabi_frequency(1, 0, c)
    for theta in np.linspace(0.0, 3 * math.pi, 13):
        st = make_state("fock", n_max=4)
        out = apply_pulse(st, PulseSpec("blue", theta, c))
        t = theta / (2 * Om10)
        P_dn = abs(out.amplitude(SPIN_DOWN, 0)) ** 2
        assert P_dn == pytest.approx(math.cos(Om10 * t) ** 2, abs=1e-12)
        # all population stays in the driven pair
        other = 1.0 - P_dn - abs(out.amplitude(SPIN_UP, 1)) ** 2
        assert abs(other) < 1e-12


def test_pulse_unitary_support_pattern():
    # blue couples only (dn,n) <-> (up,n+1)
    n_max = 5
    c = CouplingParams(1.0, 0.2)
    U = pulse_unitary(PulseSpec("blue", 1.1, c), n_max)
    allowed = set()
    for n in range(n_max + 1):
        allowed.add((index_of(SPIN_DOWN, n, n_max), index_of(SPIN_DOWN, n, n_max)))
        allowed.add((index_of(SPIN_UP, n, n_max), index_of(SPIN_UP, n, n_max)))
    for n in range(n_max):
        iu = index_of(SPIN_UP, n + 1, n_max)
        il = index_of(SPIN_DOWN, n, n_max)
        allowed.update({(iu, il), (il, iu)})
    nz = np.argwhere(np.abs(U) > 1e-14)
    for i, j in nz:
        assert (int(i), int(j)) in allowed


def test_invalid_transitions_guarded():
    c = CouplingParams(1.0, 0.1)
    top = make_state("fock", n_max=3, n=3)  # |dn,3>
    with pytest.raises(TruncationError, match=r"blue sideband from \(down,3\)"):
        apply_pulse(top, PulseSpec("blue", math.pi, c))
    top_up = make_state("fock", n_max=3, spin=SPIN_UP, n=3)
    with pytest.raises(TruncationError, match=r"red sideband from \(up,3\)"):
        apply_pulse(top_up, PulseSpec("red", math.pi, c))
    # the kernel refuses it too, on a batch with the bus capped at n = 1,
    # as register pulses drive it
    amps = np.zeros((3, 2, 4), dtype=complex)
    amps[..., 0] = 1.0
    amps[2, 1, :] = [0.0, 0.0, 0.6, 0.8]              # |up,1> populated
    with pytest.raises(TruncationError, match=r"n_max=1"):
        _drive(amps, PulseSpec("red", math.pi, c))
    # unpopulated edge levels are fine
    safe = make_state("fock", n_max=5, n=1)
    apply_pulse(safe, PulseSpec("blue", math.pi, c))


def test_blue_pi_near_edge_warns_on_tail():
    c = CouplingParams(1.0, 0.1)
    st = make_state("fock", n_max=4, n=3)
    with pytest.warns(TruncationWarning):
        apply_pulse(st, PulseSpec("blue", math.pi, c))


def test_reference_pair_changes_duration():
    c = CouplingParams(1.0, 0.15)
    st = make_state("fock", n_max=4)
    out_default = apply_pulse(st, PulseSpec("blue", math.pi, c))  # ref (1,0)
    assert abs(out_default.amplitude(SPIN_UP, 1)) ** 2 == pytest.approx(1.0, abs=1e-12)
    out_other = apply_pulse(st, PulseSpec("blue", math.pi, c, reference_pair=(2, 1)))
    # same nominal area on a different pair no longer inverts (1,0)
    assert abs(out_other.amplitude(SPIN_UP, 1)) ** 2 < 1.0 - 1e-3


def test_reference_pair_validation_against_truncation():
    c = CouplingParams(1.0, 0.15)
    with pytest.raises(ModelInputError):
        pulse_unitary(PulseSpec("blue", 1.0, c, reference_pair=(4, 3)), n_max=2)
    with pytest.raises(RangeError):
        # eta=0 kills every sideband element
        pulse_unitary(PulseSpec("blue", 1.0, CouplingParams(1.0, 0.0)), n_max=2)


def test_magic_eta_carrier_flips_only_n1():
    # equal superposition of n=0,1; carrier area pi referenced to (1,1)
    eta = 1.0 / math.sqrt(2.0)
    c = CouplingParams(1.0, eta)
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[1] = 1.0 / math.sqrt(2.0)
    st = QuantumState(amps, 3)
    out = apply_pulse(st, PulseSpec("carrier", math.pi, c, reference_pair=(1, 1)))
    assert abs(out.amplitude(SPIN_DOWN, 0)) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out.amplitude(SPIN_UP, 1)) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out.amplitude(SPIN_DOWN, 1)) ** 2 < 1e-24
    # n=0 picks up the cos(m*pi) = -1 factor, n=1 the -i e^{i phi} (-1)^k
    assert abs(out.amplitude(SPIN_DOWN, 0) - (-1.0 / math.sqrt(2))) < 1e-12
    assert abs(out.amplitude(SPIN_UP, 1) - (-1j / math.sqrt(2))) < 1e-12


def test_carrier_at_eta_one_idles_the_dark_pair():
    # L_1(1) = 0, so the (1,1) carrier element vanishes exactly at eta = 1
    c = CouplingParams(1.0, 1.0)
    assert rabi_frequency(1, 1, c) == 0.0
    p = PulseSpec("carrier", math.pi, c, phi=0.4)
    U = pulse_unitary(p, n_max=4)
    pair = [1, 5 + 1]                       # |down,1>, |up,1>
    assert np.array_equal(U[np.ix_(pair, pair)], np.eye(2))
    assert unitary_defect(U) < 1e-13
    st = make_state("fock", n_max=4, n=1)
    assert np.array_equal(apply_pulse(st, p).amplitudes, st.amplitudes)
    # as a reference pair it cannot set a duration
    with pytest.raises(RangeError):
        pulse_unitary(PulseSpec("carrier", math.pi, c, reference_pair=(1, 1)), n_max=4)


def test_apply_pulse_norm_conservation_property():
    rng = np.random.default_rng(23)
    transitions = ["carrier", "red", "blue"]
    for _ in range(60):
        n_max = int(rng.integers(3, 8))
        st = random_state(rng, n_max, top_empty=2)
        tr = transitions[rng.integers(0, 3)]
        p = PulseSpec(
            tr,
            float(rng.uniform(0, 4 * math.pi)),
            CouplingParams(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.01, 0.3))),
            phi=float(rng.uniform(-math.pi, math.pi)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            out = apply_pulse(st, p)
        assert abs(out.norm() - 1.0) < 1e-12
        assert unitary_defect(pulse_unitary(p, n_max)) < 1e-10



def test_apply_pulse_matches_full_space_unitary():
    # apply_pulse acts pair by pair; the dense pulse_unitary is the reference
    rng = np.random.default_rng(31)
    for n_max in (1, 4, 60):
        for tr in TRANSITIONS:
            st = random_state(rng, n_max, top_empty=1)
            p = PulseSpec(tr, float(rng.uniform(-1.0, 4 * math.pi)),
                          CouplingParams(float(rng.uniform(0.5, 2.0)), 0.2),
                          phi=float(rng.uniform(-math.pi, math.pi)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                got = apply_pulse(st, p)
                want = apply_unitary(st, pulse_unitary(p, n_max))
            assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-13
    # a warnings filter set to "error" (as --strict installs) raises it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationWarning):
            apply_pulse(make_state("fock", n_max=4, n=3), PulseSpec("blue", math.pi,
                        CouplingParams(1.0, 0.1)))


def test_apply_pulse_batch_matches_row_by_row_calls():
    rng = np.random.default_rng(41)
    n_max, trials = 6, 5
    c = CouplingParams(1.2, 0.15)
    rows = np.array([random_state(rng, n_max, top_empty=2).amplitudes for _ in range(trials)])
    batch = QuantumState(rows, n_max)
    for tr in TRANSITIONS:
        zeta = rng.normal(0.0, 1.0, trials)     # some areas turn negative
        phi_err = rng.normal(0.0, 0.3, trials)
        p = PulseSpec(tr, 0.7, c, phi=0.3, zeta=zeta, phi_err=phi_err)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            got = apply_pulse(batch, p)
            want = [apply_pulse(QuantumState(r, n_max), replace(p, zeta=z, phi_err=f))
                    for r, z, f in zip(rows, zeta, phi_err)]
            # a batch of one, of states or of pulses, is the single state
            one = replace(p, zeta=zeta[0], phi_err=phi_err[0])
            single = apply_pulse(QuantumState(rows[0], n_max), one).amplitudes
            of_states = apply_pulse(QuantumState(rows[:1], n_max), one).amplitudes
            of_pulses = apply_pulse(QuantumState(rows[0], n_max),
                                    replace(p, zeta=zeta[:1], phi_err=phi_err[:1])).amplitudes
        assert np.array_equal(got.amplitudes, [w.amplitudes for w in want])
        assert got.norm().shape == (trials,)
        assert np.max(np.abs(got.norm() - 1.0)) < 1e-12
        assert of_states.shape == of_pulses.shape == (1, 2 * (n_max + 1))
        assert np.array_equal(of_states[0], single)
        assert np.array_equal(of_pulses[0], single)
        ov = overlap(QuantumState(rows[0], n_max), got)
        assert ov.shape == (trials,)
        rowwise = [overlap(QuantumState(rows[0], n_max), w) for w in want]
        assert np.max(np.abs(ov - rowwise)) <= 1e-15
    # a stranded edge level in any one state of the batch refuses the pulse
    rows[3, n_max] = 1e-3
    with pytest.raises(TruncationError, match=rf"\(down,{n_max}\)"):
        apply_pulse(QuantumState(rows, n_max), PulseSpec("blue", 0.7, c))


# -------------------------------------------------- three-pulse controlled-not


def test_three_pulse_truth_table():
    rep = cn_gate_three_pulse(CouplingParams(1.0, 0.1))
    assert rep.truth_table == {
        "dn0": "dn0",
        "up0": "up0",
        "dn1": "up1",
        "up1": "dn1",
    }
    assert rep.fidelity_vs_ideal == pytest.approx(1.0, abs=1e-12)
    assert unitary_defect(rep.unitary) < 1e-12


def test_three_pulse_permutation_up_to_phases():
    # |U| is the controlled-not permutation for any Ramsey phase
    perm = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    for phi_a in (0.0, 0.3, -1.1, math.pi / 2):
        rep = cn_gate_three_pulse(CouplingParams(1.0, 0.1), phi_a=phi_a)
        assert np.max(np.abs(np.abs(rep.unitary) - perm)) < 1e-12
    # at phi_a = -pi/2 the composite is exactly the permutation
    rep = cn_gate_three_pulse(CouplingParams(1.0, 0.1), phi_a=-math.pi / 2)
    assert np.max(np.abs(rep.unitary - perm)) < 1e-12


def test_three_pulse_linearity_on_superposition():
    rep = cn_gate_three_pulse(CouplingParams(1.0, 0.1))
    vec = np.zeros(4, dtype=complex)
    vec[2] = vec[3] = 1.0 / math.sqrt(2.0)  # (|dn>+|up>) x |1>
    out = rep.unitary @ vec
    expected = (rep.unitary[:, 2] + rep.unitary[:, 3]) / math.sqrt(2.0)
    assert np.max(np.abs(out - expected)) < 1e-15
    # populations swap between dn1 and up1
    assert abs(out[2]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out[3]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_three_pulse_rejects_dead_sideband():
    with pytest.raises(RangeError):
        cn_gate_three_pulse(CouplingParams(0.0, 0.1))


# -------------------------------------------------- single-pulse controlled-not


def test_single_pulse_printed_form_k0_m1():
    rep = cn_gate_single_pulse(0, 1, 1.0 / math.sqrt(2.0))
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, -1j],
            [0, 0, -1j, 0],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(rep.unitary - expected)) < 1e-10
    assert rep.basis == ("dn0", "up0", "dn1", "up1")
    assert rep.truth_table["dn1"] == "up1"
    assert rep.truth_table["up1"] == "dn1"
    assert rep.truth_table["dn0"] == "dn0"
    assert rep.fidelity_vs_ideal == pytest.approx(1.0, abs=1e-10)


def test_single_pulse_phase_convention():
    # off-diagonal carries i e^{+-i phi} (-1)^{k-m}
    phi = 0.7
    for (k, m) in [(0, 1), (1, 2), (0, 2)]:
        eta = math.sqrt(1.0 - (2 * k + 1) / (2 * m))
        rep = cn_gate_single_pulse(k, m, eta, phi=phi)
        sign = (-1.0) ** (k - m)
        assert abs(rep.unitary[2, 3] - 1j * np.exp(1j * phi) * sign) < 1e-10
        assert abs(rep.unitary[3, 2] - 1j * np.exp(-1j * phi) * sign) < 1e-10
        assert abs(rep.unitary[0, 0] - 1.0) < 1e-10
        assert abs(rep.unitary[1, 1] - 1.0) < 1e-10


def test_single_pulse_magic_guard():
    with pytest.raises(RangeError, match="is not the magic value"):
        cn_gate_single_pulse(0, 1, 1.0 / math.sqrt(2.0) + 1e-6)
    with pytest.raises(RangeError):
        cn_gate_single_pulse(-1, 1, 0.5)
    with pytest.raises(RangeError):
        cn_gate_single_pulse(1, 1, 0.5)
    with pytest.raises(ModelInputError):
        cn_gate_single_pulse(0.0, 1, 0.5)


def test_single_vs_three_pulse_cp_equivalence():
    # same permutation action; per-column overlaps all unit modulus
    rep1 = cn_gate_single_pulse(0, 1, 1.0 / math.sqrt(2.0))
    rep3 = cn_gate_three_pulse(CouplingParams(1.0, 0.1), phi_a=0.4)
    assert rep1.truth_table == rep3.truth_table
    for j in range(4):
        ov = abs(np.vdot(rep3.unitary[:, j], rep1.unitary[:, j]))
        assert ov == pytest.approx(1.0, abs=1e-10)


def test_single_pulse_detuned_eta_quadratic_infidelity():
    # build the same drive off the magic point; infidelity ~ (delta_eta)^2
    k, m = 0, 1
    eta0 = math.sqrt(1.0 - (2 * k + 1) / (2 * m))
    ideal = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    deltas = np.logspace(-4, -2, 7)
    infids = []
    for d in deltas:
        p = PulseSpec(
            "carrier",
            (2 * k + 1) * math.pi,
            CouplingParams(1.0, eta0 + d),
            phi=-math.pi,
            reference_pair=(1, 1),
        )
        U = pulse_unitary(p, n_max=1)
        perm = [0, 2, 1, 3]
        infids.append(1.0 - gate_fidelity(U[np.ix_(perm, perm)], ideal))
    slope = np.polyfit(np.log(deltas), np.log(infids), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


# --------------------------------------------------------------- registers


def test_register_ground_validation():
    with pytest.raises(RangeError):
        register_ground(0)
    with pytest.raises(RangeError, match="exceeds the cap of 12"):
        register_ground(13)
    reg = register_ground(3)
    assert reg.amps.shape == (8, 2)
    assert reg.norm() == pytest.approx(1.0)


def test_register_rotation_half_pi_plus_sign():
    reg = register_ground(1)
    reg = register_rotation(reg, 0, math.pi / 2, -math.pi / 2)
    assert abs(reg.amps[0, 0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(reg.amps[1, 0] - 1 / math.sqrt(2)) < 1e-15


def test_register_rotation_norm_and_bounds():
    rng = np.random.default_rng(5)
    reg = register_ground(3)
    a = rng.normal(size=reg.amps.shape) + 1j * rng.normal(size=reg.amps.shape)
    a /= np.linalg.norm(a)
    reg = RegisterState(3, a)
    out = register_rotation(reg, 2, 1.1, 0.3)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(RangeError):
        register_rotation(reg, 3, 1.0, 0.0)


def test_apply_cn_register_basis_actions():
    for (sc, st_), (ec, et) in [
        ((0, 0), (0, 0)),
        ((0, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((1, 1), (1, 0)),
    ]:
        reg = register_ground(2)
        amps = np.zeros((4, 2), dtype=complex)
        amps[sc + 2 * st_, 0] = 1.0
        reg = RegisterState(2, amps)
        out = apply_cn_between_ions(reg, 0, 1)
        assert abs(out.amps[ec + 2 * et, 0] - 1.0) < 1e-12
        assert out.bus_excited_weight() < 1e-10


def test_apply_cn_guards():
    reg = register_ground(2)
    bad = reg.copy()
    bad.amps[0, 0] = 0.0
    bad.amps[1, 1] = 1.0
    with pytest.raises(ModelInputError, match=r"outside \|0>"):
        apply_cn_between_ions(bad, 0, 1)
    with pytest.raises(ModelInputError):
        apply_cn_between_ions(reg, 0, 0)
    with pytest.raises(RangeError):
        apply_cn_between_ions(reg, 0, 5)


def test_apply_cn_bell_and_involution():
    reg = register_ground(2)
    reg = register_rotation(reg, 0, math.pi / 2, -math.pi / 2)
    bell = apply_cn_between_ions(reg, 0, 1)
    target = np.zeros((4, 2), dtype=complex)
    target[0, 0] = target[3, 0] = 1 / math.sqrt(2)
    assert abs(np.vdot(target, bell.amps)) ** 2 > 1.0 - 1e-12
    again = apply_cn_between_ions(bell, 0, 1)
    assert abs(np.vdot(reg.amps, again.amps)) ** 2 > 1.0 - 1e-9


def test_prepare_max_entangled_family():
    for L in (2, 3, 5):
        reg = prepare_max_entangled(L)
        target = np.zeros((2**L, 2), dtype=complex)
        target[0, 0] = target[2**L - 1, 0] = 1 / math.sqrt(2)
        assert abs(np.vdot(target, reg.amps)) ** 2 >= 1.0 - 1e-9
        for j in range(L):
            assert reg.reduced_spin_purity(j) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(RangeError):
        prepare_max_entangled(1)
    with pytest.raises(RangeError, match="exceeds the cap of 12"):
        prepare_max_entangled(13)


# ------------------------------------------------ symbolic gate oracles
# The exact maps that composed the register and three-pulse gates before
# they became pulse sequences, kept as their oracle. Registers hold bus
# levels 0 and 1; bit j of the row index is ion j's spin.


def _rows(L, j):
    """Register rows with ion j down, and the same rows with it up."""
    b = np.arange(2**L)
    lo = b[(b >> j) & 1 == 0]
    return lo, lo | (1 << j)


def _red_pi_map_in(amps, lo, hi):
    """Red-sideband pi pulse on one ion at phase 0: |up,n> -> -|dn,n+1>."""
    out = np.zeros_like(amps)
    out[lo, 0] = amps[lo, 0]  # (dn,0) has no partner
    out[hi, :-1] = amps[lo, 1:]
    out[lo, 1:] = -amps[hi, :-1]
    out[hi, -1] = amps[hi, -1]  # partner above the bus cap
    return out


def _red_pi_map_out(amps, lo, hi):
    """Exact inverse of _red_pi_map_in."""
    out = np.zeros_like(amps)
    out[lo, 0] = amps[lo, 0]
    out[lo, 1:] = amps[hi, :-1]
    out[hi, :-1] = -amps[lo, 1:]
    out[hi, -1] = amps[hi, -1]
    return out


def _bus_cn_on_spin(amps, t_lo, t_hi):
    """Flip spin t on the bus n=1 column; higher bus levels idle."""
    out = amps.copy()
    out[t_lo, 1] = amps[t_hi, 1]
    out[t_hi, 1] = amps[t_lo, 1]
    return out


def _symbolic_cn(amps, L, c, t):
    c_lo, c_hi = _rows(L, c)
    a = _bus_cn_on_spin(_red_pi_map_in(amps, c_lo, c_hi), *_rows(L, t))
    return _red_pi_map_out(a, c_lo, c_hi)


def _symbolic_rotation(amps, L, j, theta, phi):
    """The Bloch rotation matrix of register_rotation's docstring on ion j."""
    lo, hi = _rows(L, j)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    out = amps.copy()
    out[lo] = c * amps[lo] - 1j * np.exp(1j * phi) * s * amps[hi]
    out[hi] = -1j * np.exp(-1j * phi) * s * amps[lo] + c * amps[hi]
    return out


def _symbolic_three_pulse(phi_a):
    """Carrier pi/2 pulses around an exact sign flip of |up,1> and |aux,0>,
    on internal levels (dn, up, aux) x bus {0, 1}, index level*2 + n;
    returned on the basis dn0, up0, dn1, up1."""
    def carrier(phi):                   # pi/2 on (dn, up), both bus levels
        h = math.sqrt(0.5)
        blk = np.array([[h, -1j * np.exp(-1j * phi) * h],
                        [-1j * np.exp(1j * phi) * h, h]])
        M = np.eye(6, dtype=complex)
        M[:4, :4] = np.kron(blk, np.eye(2))
        return M

    sign_flip = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, 1.0]).astype(complex)
    U6 = carrier(phi_a + math.pi) @ sign_flip @ carrier(phi_a)
    assert np.max(np.abs(U6[4:, :4])) == 0.0          # the auxiliary level ends empty
    comp = [0, 2, 1, 3]
    return U6[np.ix_(comp, comp)]


def _random_register(rng, L, bus_levels=1):
    a = np.zeros((2**L, 2), dtype=complex)
    a[:, :bus_levels] = (rng.normal(size=(2**L, bus_levels))
                         + 1j * rng.normal(size=(2**L, bus_levels)))
    return a / np.linalg.norm(a)


def test_register_gates_match_symbolic_maps():
    rng = np.random.default_rng(61)

    def bus_flip(x):
        return pulse_engine._bus_flip(x, pulse_engine._BUS, -0.5 * math.pi)

    for L in (2, 3, 4):
        for c in range(L):
            for t in range(L):
                if c == t:
                    continue
                a = _random_register(rng, L)
                got = apply_cn_between_ions(RegisterState(L, a), c, t).amps
                assert np.max(np.abs(got - _symbolic_cn(a, L, c, t))) <= 1e-15
                # the middle of the gate flips t on bus n = 1 alone, from any state
                a = _random_register(rng, L, bus_levels=2)
                got = pulse_engine._on_ion(RegisterState(L, a), t, bus_flip).amps
                assert np.max(np.abs(got - _bus_cn_on_spin(a, *_rows(L, t)))) <= 1e-15
        for j in range(L):
            a = _random_register(rng, L, bus_levels=2)
            theta, phi = rng.uniform(-2 * math.pi, 4 * math.pi), rng.uniform(-math.pi, math.pi)
            got = register_rotation(RegisterState(L, a), j, theta, phi).amps
            assert np.max(np.abs(got - _symbolic_rotation(a, L, j, theta, phi))) <= 1e-15


def test_three_pulse_matches_symbolic_composite():
    for aux_eta in (0.05, 0.25, 0.7):
        for phi_a in (0.0, 0.4, -math.pi / 2, 2.9):
            rep = cn_gate_three_pulse(CouplingParams(1.3, aux_eta), phi_a=phi_a)
            assert np.max(np.abs(rep.unitary - _symbolic_three_pulse(phi_a))) <= 1e-15


def test_entangling_chain_is_5L_minus_4_pulses(monkeypatch):
    drive, pulses = pulse_engine._drive, []

    def counted(amps, p):
        pulses.append(p.transition)
        return drive(amps, p)

    monkeypatch.setattr(pulse_engine, "_drive", counted)
    for L in (2, 3, 6):
        pulses.clear()
        prepare_max_entangled(L)
        # one rotation, then per controlled-not two red pi pulses around
        # two carrier pi/2 pulses and one blue 2*pi pulse
        assert len(pulses) == 5 * L - 4
        assert [pulses.count(tr) for tr in TRANSITIONS] == [2 * L - 1, 2 * L - 2, L - 1]


def test_entangling_chain_at_the_register_cap_stays_small():
    # pulses act on the register viewed as a batch of single ions; blocks
    # tiled over its 4,096 rows would take hundreds of MiB
    tracemalloc.start()
    try:
        reg = prepare_max_entangled(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert abs(reg.amps[0, 0]) ** 2 + abs(reg.amps[-1, 0]) ** 2 >= 1.0 - 1e-12


# ------------------------------------------------------- noisy sequences


def test_worst_case_single_pi():
    seq = [PulseSpec("carrier", math.pi, CouplingParams(1.0, 0.0))]
    for z in (0.1, 0.31, 0.7):
        out = noisy_sequence_fidelity(seq, {"zeta_rms": z, "systematic": True}, trials=2)
        assert out["F_mean"] == pytest.approx(math.cos(z / 2) ** 2, abs=1e-12)
        assert out["F_std"] == 0.0


def test_worst_case_linear_accumulation():
    c = CouplingParams(1.0, 0.0)
    z = 0.04
    for M in (2, 5, 9):
        seq = [PulseSpec("carrier", math.pi, c)] * M
        out = noisy_sequence_fidelity(seq, {"zeta_rms": z, "systematic": True}, trials=1)
        assert out["F_mean"] == pytest.approx(math.cos(M * z / 2) ** 2, abs=1e-12)
        fit = out["quadratic_fit"]
        assert fit["against"] == "(sum_zeta)^2"
        # 1 - cos^2(S/2) = S^2/4 + O(S^4)
        assert fit["coefficient"] == pytest.approx(0.25, rel=0.02)


def test_worst_case_per_pulse_sum():
    # distinct built-in area errors, no model noise: F = cos^2(sum zeta / 2)
    c = CouplingParams(1.0, 0.0)
    zetas = [0.05, -0.02, 0.11, 0.04]
    seq = [PulseSpec("carrier", math.pi, c, zeta=z) for z in zetas]
    out = noisy_sequence_fidelity(seq, {}, trials=1)
    S = sum(zetas)
    assert out["F_mean"] == pytest.approx(math.cos(S / 2) ** 2, abs=1e-12)


def test_phase_error_on_second_ramsey_pulse():
    c = CouplingParams(1.0, 0.0)
    delta = 0.37
    seq = [
        PulseSpec("carrier", math.pi / 2, c),
        PulseSpec("carrier", math.pi / 2, c, phi_err=delta),
    ]
    out = noisy_sequence_fidelity(seq, {}, trials=1)
    assert out["F_mean"] == pytest.approx(math.cos(delta / 2) ** 2, abs=1e-12)


def test_random_error_scaling_slope():
    # 1 - F grows linearly with M at fixed zeta_rms
    rng = np.random.default_rng(17)
    c = CouplingParams(1.0, 0.0)
    z = 1e-3
    Ms = [12, 25, 50, 100]
    one_minus = []
    for M in Ms:
        seq = [
            PulseSpec("carrier", math.pi, c, phi=float(rng.uniform(0, 2 * math.pi)))
            for _ in range(M)
        ]
        out = noisy_sequence_fidelity(
            seq, {"zeta_rms": z}, trials=64, base_seed=100, n_max=2
        )
        one_minus.append(1.0 - out["F_mean"])
        assert out["quadratic_fit"]["against"] == "M*zeta_rms^2"
        assert out["quadratic_fit"]["coefficient"] < 1.1
    slope = np.polyfit(np.log(Ms), np.log(one_minus), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.15)


def test_negative_area_is_signed_rotation():
    # theta + zeta < 0 runs as area |theta + zeta| at phase phi + pi, which
    # on resonance is the rotation at the signed area
    n_max, theta, zeta, phi = 3, 0.2, -0.7, 0.4
    c, s = math.cos((theta + zeta) / 2), math.sin((theta + zeta) / 2)
    for transition, dn, (nu, nl) in (("carrier", 0, (0, 0)), ("blue", 1, (1, 0))):
        spec = PulseSpec(transition, theta, CouplingParams(1.0, 0.1), phi=phi, zeta=zeta)
        U = pulse_unitary(spec, n_max)
        idx = [index_of(SPIN_UP, nu, n_max), index_of(SPIN_DOWN, nl, n_max)]
        ph = phi + 0.5 * math.pi * dn
        expected = np.array(
            [
                [c, -1j * np.exp(1j * ph) * s],
                [-1j * np.exp(-1j * ph) * s, c],
            ]
        )
        assert np.max(np.abs(U[np.ix_(idx, idx)] - expected)) < 1e-14


def _per_trial_fidelities(seq, zeta_rms, phi_rms, systematic, trials, base_seed,
                          n_max=8):
    """The per-trial loop as a reference: one single state per trial, one
    apply_pulse call per pulse, and trial k's M area then M phase errors
    drawn from default_rng(base_seed + k)."""
    def run(pulses):
        psi = make_state("fock", n_max=n_max)
        for p in pulses:
            psi = apply_pulse(psi, p)
        return psi

    ideal = run([replace(p, zeta=0.0, phi_err=0.0) for p in seq])
    M = len(seq)
    fids = []
    for k in range(trials):
        rng = np.random.default_rng(base_seed + k)
        if systematic:
            dz, df = np.full(M, zeta_rms), np.full(M, phi_rms)
        else:
            dz = rng.normal(0.0, zeta_rms, M) if zeta_rms > 0 else np.zeros(M)
            df = rng.normal(0.0, phi_rms, M) if phi_rms > 0 else np.zeros(M)
        noisy = run([replace(p, zeta=p.zeta + float(dz[i]), phi_err=p.phi_err + float(df[i]))
                     for i, p in enumerate(seq)])
        fids.append(abs(np.vdot(ideal.amplitudes, noisy.amplitudes)) ** 2)
    return np.array(fids)


def _nested_prefix_fidelities(seq, zeta_rms, phi_rms, trials, base_seed, lengths,
                              n_max=8):
    """Per-trial fidelities after each requested prefix of one longest run:
    trial k draws M = max(lengths) area then M phase errors from
    default_rng(base_seed + k), and its single state passes through
    seq[:M] one apply_pulse call per pulse."""
    M = max(lengths)
    fids = {m: [] for m in lengths}
    for k in range(trials):
        rng = np.random.default_rng(base_seed + k)
        dz, df = rng.normal(0.0, zeta_rms, M), rng.normal(0.0, phi_rms, M)
        ideal = noisy = make_state("fock", n_max=n_max)
        for i, p in enumerate(seq[:M]):
            ideal = apply_pulse(ideal, replace(p, zeta=0.0, phi_err=0.0))
            noisy = apply_pulse(noisy, replace(p, zeta=p.zeta + float(dz[i]),
                                               phi_err=p.phi_err + float(df[i])))
            if i + 1 in fids:
                fids[i + 1].append(abs(np.vdot(ideal.amplitudes, noisy.amplitudes)) ** 2)
    return {m: np.array(f) for m, f in fids.items()}


_PULSES = st.lists(st.tuples(st.sampled_from(TRANSITIONS), st.floats(0.0, 2 * math.pi),
                             st.floats(-math.pi, math.pi)), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), _PULSES, st.booleans(), st.floats(0.0, 0.5),
       st.floats(1e-3, 0.5), st.integers(0, 2**31),
       st.lists(st.integers(0, 5), min_size=1, max_size=4))
@example(8, [("carrier", 0.01, 0.0)] * 4, False, 0.5, 0.1, 0, [3, 1, 3])   # negative areas
@example(3, [("blue", 1.0, 0.2), ("carrier", 2.0, 0.0)] * 2, False, 0.0, 0.3, 5, [1, 3])
def test_batched_trials_match_per_trial_loop(trials, pulses, systematic, zeta_rms,
                                             phi_rms, base_seed, picks):
    c = CouplingParams(1.0, 0.1)
    seq = [PulseSpec(tr, theta, c, phi=phi) for tr, theta, phi in pulses]
    fids = _per_trial_fidelities(seq, zeta_rms, phi_rms, systematic, trials, base_seed)
    model = {"zeta_rms": zeta_rms, "phi_rms": phi_rms, "systematic": systematic}
    out = noisy_sequence_fidelity(seq, model, trials=trials, base_seed=base_seed)
    assert abs(out["F_mean"] - np.mean(fids)) <= 1e-15
    assert abs(out["F_std"] - (np.std(fids, ddof=1) if trials > 1 else 0.0)) <= 1e-15

    # a sweep over prefix lengths, unsorted and possibly repeated
    lengths = [1 + x % len(seq) for x in picks]
    sweep = noisy_sequence_fidelity(seq, model, trials=trials, base_seed=base_seed,
                                    lengths=lengths)
    assert len(sweep) == len(lengths)
    if systematic or zeta_rms == 0.0:
        # the draws of seq[:m] are a prefix of the longest run's: exact
        np.testing.assert_equal(sweep, [
            noisy_sequence_fidelity(seq[:m], model, trials=trials, base_seed=base_seed)
            for m in lengths])
        return
    nested = _nested_prefix_fidelities(seq, zeta_rms, phi_rms, trials, base_seed,
                                       lengths)
    for m, res in zip(lengths, sweep):
        f = nested[m]
        assert abs(res["F_mean"] - np.mean(f)) <= 1e-15
        assert abs(res["F_std"] - (np.std(f, ddof=1) if trials > 1 else 0.0)) <= 1e-15


def test_noisy_sequence_survives_negative_area_draws():
    # zeta_rms far above theta: most draws drive the area below zero
    seq = [PulseSpec("carrier", 0.01, CouplingParams(1.0, 0.0))] * 4
    out = noisy_sequence_fidelity(seq, {"zeta_rms": 0.5}, trials=8, base_seed=0)
    assert 0.0 <= out["F_mean"] <= 1.0


def test_noisy_sequence_validation_and_determinism():
    c = CouplingParams(1.0, 0.0)
    seq = [PulseSpec("carrier", math.pi, c)]
    with pytest.raises(ModelInputError):
        noisy_sequence_fidelity([], {}, trials=1)
    with pytest.raises(RangeError):
        noisy_sequence_fidelity(seq, {}, trials=0)
    with pytest.raises(ModelInputError):
        noisy_sequence_fidelity(seq, {"sigma": 1.0}, trials=1)
    with pytest.raises(RangeError):
        noisy_sequence_fidelity(seq, {"zeta_rms": -1.0}, trials=1)
    for lengths in ([], [0], [2], [1.0]):
        with pytest.raises(RangeError):
            noisy_sequence_fidelity(seq, {}, trials=1, lengths=lengths)
    a = noisy_sequence_fidelity(seq, {"zeta_rms": 0.05}, trials=8, base_seed=3)
    b = noisy_sequence_fidelity(seq, {"zeta_rms": 0.05}, trials=8, base_seed=3)
    assert a["F_mean"] == b["F_mean"]
    d = noisy_sequence_fidelity(seq, {"zeta_rms": 0.05}, trials=8, base_seed=4)
    assert d["F_mean"] != a["F_mean"]


# ------------------------------------------------------------ gate reports


def test_gate_fidelity_validation():
    with pytest.raises(ModelInputError):
        gate_fidelity(np.eye(2), np.eye(3))
    assert gate_fidelity(1j * np.eye(4), np.eye(4)) == pytest.approx(1.0)
