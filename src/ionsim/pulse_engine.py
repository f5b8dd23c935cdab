"""Exact pulse propagators, gate constructions, and error accumulation.

Two layers share this module. The physical layer acts on a single ion's
(spin x oscillator) state: each pulse is a block-diagonal unitary built
from the exact resonant two-level propagator, one block per coupled
|down,n> <-> |up,n'> pair, each at its own matrix element. The symbolic
layer treats a register of L ions as qubits sharing one bus oscillator
mode and composes idealized gates (controlled-not between ions, register
rotations, maximally entangled state preparation) in that reduced space.

Phase conventions. The resonant propagator carries the -i e^{+-i(phi +
pi*dn/2)} factors of the interaction-picture solution; a pi carrier pulse
at phi=0 maps |down> to -i|up>. The symbolic rotation matrix uses the
mirrored field-phase sign that is conventional for Bloch rotations, so
the two layers differ by phi -> -phi in their off-diagonal phases. Global
phases are never stripped silently; fidelities compare |<a|b>|^2 so the
convention cannot leak into reported numbers.

Pulse areas. Because the matrix element depends on the Fock level, "a pi
pulse" is only meaningful against a named reference pair. PulseSpec.theta
is the pulse area accumulated on that pair (twice the Rabi angle); the
amplitude error zeta adds to the area and phi_err to the field phase. An
error that drives the area below zero is applied as the area |theta+zeta|
at phase phi+pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import CouplingParams, ladder, rabi_frequency
from .errors import (
    BusNotGroundError,
    InvalidTransitionError,
    MagicEtaError,
    ModelInputError,
    RangeError,
    RegisterSizeError,
)
from .quantum_core import (
    SPIN_DOWN,
    SPIN_UP,
    QuantumState,
    index_of,
    make_state,
    overlap,
    require_unitary,
    truncation_guard,
)

TRANSITIONS = ("carrier", "red", "blue")

DEFAULT_REGISTER_CAP = 12


# ---------------------------------------------------------------------------
# pulse description


@dataclass(frozen=True)
class PulseSpec:
    """One rectangular pulse on the spin-motion ladder.

    Parameters
    ----------
    transition : {"carrier", "red", "blue"}
        Resonance class; the first sidebands change the Fock level by one.
    theta : float
        Pulse area in rad on the reference pair (twice the Rabi angle,
        so theta=pi inverts that pair).
    coupling : CouplingParams
        Base rate and Lamb-Dicke parameter of the driven mode.
    phi : float or array
        Field phase in rad, or one phase per entry of a batch.
    zeta, phi_err : float or array
        Injected amplitude (area) and phase errors, or one per trial.
    reference_pair : (int, int), optional
        Fock levels (upper-spin n, lower-spin n) whose matrix element
        converts area to duration. Defaults: (0,0) carrier, (1,0)
        sidebands.
    """

    transition: str
    theta: float
    coupling: CouplingParams
    phi: float = 0.0
    zeta: float = 0.0
    phi_err: float = 0.0
    reference_pair: tuple | None = None

    def __post_init__(self):
        if self.transition not in TRANSITIONS:
            raise ModelInputError(
                f"unknown transition {self.transition!r}; expected one of {TRANSITIONS}"
            )
        if self.theta < 0:
            raise RangeError("pulse area theta must be >= 0")
        if self.reference_pair is not None:
            a, b = self.reference_pair
            if a < 0 or b < 0:
                raise ModelInputError("reference pair levels must be >= 0")
            if abs(a - b) != (0 if self.transition == "carrier" else 1):
                raise ModelInputError(
                    f"reference pair {self.reference_pair} does not match a "
                    f"{self.transition} transition"
                )


# ---------------------------------------------------------------------------
# two-level building block


def _rotation_block(Omega, t: float, phi: float, dn: int) -> np.ndarray:
    """Resonant propagators of driven (upper, lower) pairs, interaction picture.

    Omega, t and phi may be arrays; the result stacks one 2x2 block per
    entry of their broadcast, shape broadcast(Omega, t, phi) + (2, 2):
    cos(Omega t) on the diagonal and -i sin(Omega t) e^{+-i(phi + pi*dn/2)}
    off it, the upper sign above the diagonal.
    """
    Omega = np.asarray(Omega, dtype=float)
    half = np.abs(Omega) * t
    c = np.cos(half)
    off = -1j * np.sign(Omega) * np.sin(half)
    chi = -phi - 0.5 * math.pi * dn
    U = np.empty(np.broadcast(off, chi).shape + (2, 2), dtype=complex)
    U[..., 0, 0] = c
    U[..., 0, 1] = off * np.exp(-1j * chi)
    U[..., 1, 0] = off * np.exp(1j * chi)
    U[..., 1, 1] = c
    return U


# ---------------------------------------------------------------------------
# pulses on a physical ion


def _pulse_blocks(p: PulseSpec, n_max: int):
    """Flat indices of |up, nu> and |down, nl> for each coupled pair, and
    the stacked 2x2 propagators, shape batch + (pairs, 2, 2), each checked
    unitary."""
    theta_eff = p.theta + np.asarray(p.zeta, dtype=float)
    # a negative area is the same pulse with its phase shifted by pi
    phi_tot = np.where(theta_eff < 0, p.phi + p.phi_err + math.pi, p.phi + p.phi_err)
    theta_eff = np.abs(theta_eff)
    dn = 0 if p.transition == "carrier" else 1

    ref = p.reference_pair
    if ref is None:
        ref = (dn, 0)
    if max(ref) > n_max:
        raise ModelInputError(f"reference pair {ref} exceeds n_max={n_max}")
    # pair n couples Fock levels n and n + dn; blue raises the upper spin's
    # level, red the lower spin's, and both run at Omega_{n+dn,n}, so the
    # reference pair is one of them
    n = np.arange(n_max - dn + 1)
    Omegas = ladder(dn, n.size, p.coupling)
    Omega_ref = Omegas[min(ref)]
    if Omega_ref == 0.0:
        raise RangeError(f"reference pair {ref} has a vanishing matrix element")
    t = theta_eff / (2.0 * abs(Omega_ref))
    nu, nl = (n, n + dn) if p.transition == "red" else (n + dn, n)
    blocks = _rotation_block(Omegas, t[..., None], phi_tot[..., None], dn)
    require_unitary(blocks)
    return n_max + 1 + nu, nl, blocks


def pulse_unitary(p: PulseSpec, n_max: int) -> np.ndarray:
    """Full-space unitary of one pulse on the (spin x Fock) truncation.

    Takes the pulse and the Fock cutoff n_max and returns the dense
    2(n_max+1) x 2(n_max+1) matrix in the quantum_core basis ordering,
    with the field phase p.phi + p.phi_err. Every coupled pair evolves for
    the same duration at its own exact matrix element; uncoupled edge
    levels are left untouched. The caller is responsible for checking
    that those edge levels are unpopulated (apply_pulse does this).
    """
    iu, il, blk = _pulse_blocks(p, n_max)
    U = np.eye(2 * (n_max + 1), dtype=complex)
    U[iu, iu] = blk[:, 0, 0]
    U[iu, il] = blk[:, 0, 1]
    U[il, iu] = blk[:, 1, 0]
    U[il, il] = blk[:, 1, 1]
    return U


def apply_pulse(state: QuantumState, p: PulseSpec) -> QuantumState:
    """Apply one pulse to a state, or a batch of states, and return the result.

    The field phase is p.phi + p.phi_err; a pulse with one zeta, phi or
    phi_err per trial broadcasts against the state's batch axis. A
    sideband pulse is refused (InvalidTransitionError) whenever the edge
    level whose partner would sit above the Fock truncation carries
    population above 1e-12 in any state. The pulse acts pair by pair; no
    full-space matrix is built. Population in the top two Fock levels
    above DEFAULT_EPS_TRUNC raises TruncationWarning.
    """
    if not isinstance(state, QuantumState):
        raise ModelInputError("apply_pulse acts on a QuantumState")
    n_max = state.n_max
    amps = state.amplitudes
    if p.transition != "carrier":
        # the edge level whose partner lies above the truncation
        spin = SPIN_DOWN if p.transition == "blue" else SPIN_UP
        if np.any(np.abs(amps[..., index_of(spin, n_max, n_max)]) ** 2 > 1e-12):
            raise InvalidTransitionError(
                f"{p.transition} sideband from ({spin},{n_max}) "
                f"would leave the truncation n_max={n_max}"
            )
    iu, il, blk = _pulse_blocks(p, n_max)
    up, lo = amps[..., iu], amps[..., il]
    up, lo = (blk[..., 0, 0] * up + blk[..., 0, 1] * lo,
              blk[..., 1, 0] * up + blk[..., 1, 1] * lo)
    amps = np.broadcast_to(amps, up.shape[:-1] + amps.shape[-1:]).copy()
    amps[..., iu], amps[..., il] = up, lo
    out = QuantumState(amps, n_max)
    truncation_guard(out.truncation_tail())
    return out


# ---------------------------------------------------------------------------
# gate reports


def gate_fidelity(U: np.ndarray, ideal: np.ndarray) -> float:
    """Mean squared overlap of gate outputs over basis inputs.

    Phase-insensitive per input state: each column pair contributes
    |<ideal e_j, U e_j>|^2, so a global or per-output phase never lowers
    the score of a permutation-class gate.
    """
    U = np.asarray(U, dtype=complex)
    V = np.asarray(ideal, dtype=complex)
    if U.shape != V.shape or U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ModelInputError("gate_fidelity needs two square matrices of equal size")
    vals = [abs(np.vdot(V[:, j], U[:, j])) ** 2 for j in range(U.shape[0])]
    return float(np.mean(vals))


@dataclass
class GateReport:
    """Constructed gate, its action on basis states, and a fidelity score."""

    unitary: np.ndarray
    truth_table: dict
    fidelity_vs_ideal: float
    basis: tuple


def _truth_table(U: np.ndarray, basis) -> dict:
    table = {}
    for j in range(U.shape[0]):
        col = U[:, j]
        k = int(np.argmax(np.abs(col)))
        table[basis[j]] = basis[k] if abs(col[k]) ** 2 >= 1.0 - 1e-9 else "superposition"
    return table


# ---------------------------------------------------------------------------
# controlled-not between the bus mode and a spin


_CN_BASIS = ("dn0", "up0", "dn1", "up1")
_CN_IDEAL = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def cn_gate_three_pulse(aux_coupling: CouplingParams, phi_a: float = 0.0) -> GateReport:
    """Controlled-not (bus occupation controls the spin) via an auxiliary level.

    Composite of three pulses: a carrier pi/2 at phase phi_a, a 2*pi pulse
    on the blue sideband joining the auxiliary level to |up> (which flips
    the sign of |up,1> through its partner |aux,0>), and a second carrier
    pi/2 at phase phi_a + pi. Internally the space is three internal
    levels x bus {0,1}; the auxiliary level is never populated at the end
    (checked to 1e-12) and the report is restricted to the computational
    basis dn0, up0, dn1, up1.

    Each carrier is the resonant _rotation_block of the physical layer,
    identical on both bus levels. The pair (aux,1) <-> (up,2) sits above
    the bus cap and idles; it is never reached from the computational
    subspace.
    """
    if rabi_frequency(1, 0, aux_coupling) == 0.0:
        raise RangeError("auxiliary sideband matrix element vanishes")

    # internal levels: 0 = dn, 1 = up, 2 = aux; index = level*2 + bus n
    def carrier(phi):
        blk = _rotation_block(1.0, 0.25 * math.pi, phi, 0)  # pi/2 pulse
        M = np.eye(6, dtype=complex)
        M[:4, :4] = np.kron(blk[::-1, ::-1], np.eye(2))  # (up, dn) -> (dn, up)
        return M

    sign_flip = np.eye(6, dtype=complex)
    sign_flip[1 * 2 + 1, 1 * 2 + 1] = -1.0  # up,1
    sign_flip[2 * 2 + 0, 2 * 2 + 0] = -1.0  # aux,0

    U6 = carrier(phi_a + math.pi) @ sign_flip @ carrier(phi_a)
    comp = [0, 2, 1, 3]  # dn0, up0, dn1, up1
    leak = float(np.max(np.abs(U6[np.ix_([4, 5], comp)])))
    if leak > 1e-12:
        raise ModelInputError(f"auxiliary level retains amplitude {leak:.2e}")
    U = U6[np.ix_(comp, comp)]
    require_unitary(U)
    return GateReport(
        unitary=U,
        truth_table=_truth_table(U, _CN_BASIS),
        fidelity_vs_ideal=gate_fidelity(U, _CN_IDEAL),
        basis=_CN_BASIS,
    )


def cn_gate_single_pulse(k: int, m: int, eta: float, phi: float = 0.0) -> GateReport:
    """Controlled-not via one carrier pulse at a magic Lamb-Dicke value.

    At eta^2 = 1 - (2k+1)/(2m) the n=0 and n=1 carrier elements satisfy
    Omega_00 t = m*pi while Omega_11 t = (k+1/2)*pi, so one pulse inverts
    only the n=1 pair. The physical propagator carries a factor (-1)^m on
    the whole driven subspace; the report strips that global phase so the
    n=0 block reads as the identity, and drives the field at phase
    -phi - pi so the remaining n=1 block carries i e^{+-i phi} (-1)^{k-m}
    on its off-diagonal.
    """
    if not (isinstance(k, int) and isinstance(m, int)):
        raise ModelInputError("k and m must be integers")
    if k < 0 or m < k + 1:
        raise RangeError("need k >= 0 and m >= k+1")
    target = math.sqrt(1.0 - (2 * k + 1) / (2 * m))
    if abs(eta - target) > 1e-10:
        raise MagicEtaError(
            f"eta={eta!r} is not the magic value {target!r} for (k={k}, m={m})"
        )
    p = PulseSpec(
        transition="carrier",
        theta=(2 * k + 1) * math.pi,
        coupling=CouplingParams(1.0, eta),
        phi=-phi - math.pi,
        reference_pair=(1, 1),
    )
    U_full = pulse_unitary(p, n_max=1)
    # quantum_core ordering dn0,dn1,up0,up1 -> report ordering dn0,up0,dn1,up1
    perm = [0, 2, 1, 3]
    U = (-1.0) ** m * U_full[np.ix_(perm, perm)]
    require_unitary(U)
    return GateReport(
        unitary=U,
        truth_table=_truth_table(U, _CN_BASIS),
        fidelity_vs_ideal=gate_fidelity(U, _CN_IDEAL),
        basis=_CN_BASIS,
    )


# ---------------------------------------------------------------------------
# symbolic register of L qubits sharing one bus mode


@dataclass
class RegisterState:
    """L spins plus one shared bus oscillator, amplitudes (2^L, n_bus+1).

    Bit j of the first index is the spin of ion j (0 = down). The register
    layer is symbolic: gates act as exact maps, there is no per-ion
    motional space.
    """

    L: int
    n_bus: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def bus_excited_weight(self) -> float:
        return float(np.sum(np.abs(self.amps[:, 1:]) ** 2))

    def reduced_spin_purity(self, j: int) -> float:
        """Purity of ion j's reduced density matrix."""
        lo, hi = _ion_rows(self, j)
        A0 = self.amps[lo, :].ravel()
        A1 = self.amps[hi, :].ravel()
        r00 = np.vdot(A0, A0)
        r11 = np.vdot(A1, A1)
        r01 = np.vdot(A1, A0)
        return float(abs(r00) ** 2 + abs(r11) ** 2 + 2 * abs(r01) ** 2)

    def copy(self) -> "RegisterState":
        return RegisterState(self.L, self.n_bus, self.amps.copy())


def _ion_rows(reg: RegisterState, j: int):
    """Register rows with ion j down, and the same rows with it up."""
    if not 0 <= j < reg.L:
        raise RangeError(f"ion index {j} outside register of {reg.L}")
    b = np.arange(2**reg.L)
    lo = b[(b >> j) & 1 == 0]
    return lo, lo | (1 << j)


def register_ground(L: int, n_bus: int = 1) -> RegisterState:
    """All spins down, bus in |0>."""
    if L < 1:
        raise RangeError("register needs at least one ion")
    if L > DEFAULT_REGISTER_CAP:
        raise RegisterSizeError(f"register of {L} ions exceeds the cap of {DEFAULT_REGISTER_CAP}")
    if n_bus < 1:
        raise RangeError("bus mode needs n_bus >= 1")
    amps = np.zeros((2**L, n_bus + 1), dtype=complex)
    amps[0, 0] = 1.0
    return RegisterState(L, n_bus, amps)


def register_rotation(reg: RegisterState, ion: int, theta: float, phi: float) -> RegisterState:
    """Bloch rotation of one ion's spin, leaving the bus untouched.

    Matrix convention (basis down, up):
        [[cos(theta/2),            -i e^{+i phi} sin(theta/2)],
         [-i e^{-i phi} sin(theta/2), cos(theta/2)          ]]
    This is the resonant _rotation_block at field phase -phi, read in the
    (down, up) order: the register mirrors the physical layer's phi sign.
    """
    lo, hi = _ion_rows(reg, ion)
    U = _rotation_block(1.0, 0.5 * theta, -phi, 0)[::-1, ::-1]
    out = reg.amps.copy()
    a_lo = reg.amps[lo, :]
    a_hi = reg.amps[hi, :]
    out[lo, :] = U[0, 0] * a_lo + U[0, 1] * a_hi
    out[hi, :] = U[1, 0] * a_lo + U[1, 1] * a_hi
    return RegisterState(reg.L, reg.n_bus, out)


def _red_pi_map_in(amps: np.ndarray, lo, hi) -> np.ndarray:
    """Red-sideband pi pulse on one ion at phase 0: |up,n> -> -|dn,n+1>."""
    out = np.zeros_like(amps)
    out[lo, 0] = amps[lo, 0]  # (dn,0) has no partner
    out[hi, :-1] = amps[lo, 1:]
    out[lo, 1:] = -amps[hi, :-1]
    out[hi, -1] = amps[hi, -1]  # partner above the bus cap
    return out


def _red_pi_map_out(amps: np.ndarray, lo, hi) -> np.ndarray:
    """Exact inverse of _red_pi_map_in."""
    out = np.zeros_like(amps)
    out[lo, 0] = amps[lo, 0]
    out[lo, 1:] = amps[hi, :-1]
    out[hi, :-1] = -amps[lo, 1:]
    out[hi, -1] = amps[hi, -1]
    return out


def _bus_cn_on_spin(amps: np.ndarray, t_lo, t_hi) -> np.ndarray:
    """Flip spin t on the bus n=1 column; higher bus levels idle."""
    out = amps.copy()
    out[t_lo, 1] = amps[t_hi, 1]
    out[t_hi, 1] = amps[t_lo, 1]
    return out


def apply_cn_between_ions(reg: RegisterState, c: int, t: int) -> RegisterState:
    """Controlled-not of ion c onto ion t through the bus mode.

    Map-in: red-sideband pi pulse writes c's spin onto the bus (and must
    find the bus in |0>, else BusNotGroundError). Middle: the exact
    bus-controlled flip of t (the three-pulse composite at phase -pi/2,
    where it reduces to a pure permutation). Map-out: the exact inverse
    of the map-in. The composite is the textbook controlled-not with no
    residual phases and restores the bus to |0>.
    """
    c_lo, c_hi = _ion_rows(reg, c)
    t_lo, t_hi = _ion_rows(reg, t)
    if c == t:
        raise ModelInputError("control and target must differ")
    w = reg.bus_excited_weight()
    if w > 1e-12:
        raise BusNotGroundError(f"bus mode carries weight {w:.2e} outside |0>")
    a = _red_pi_map_in(reg.amps, c_lo, c_hi)
    a = _bus_cn_on_spin(a, t_lo, t_hi)
    a = _red_pi_map_out(a, c_lo, c_hi)
    return RegisterState(reg.L, reg.n_bus, a)


def prepare_max_entangled(L: int, n_bus: int = 1) -> RegisterState:
    """Drive the register to (|dn...dn> + |up...up>)/sqrt(2) x |0>.

    A pi/2 rotation on ion 0 (field phase -pi/2, which in the rotation
    convention gives the real, plus-signed superposition) followed by a
    chain of controlled-nots from ion 0 onto each other ion.
    """
    if L < 2:
        raise RangeError("need at least two ions to entangle")
    reg = register_ground(L, n_bus=n_bus)
    reg = register_rotation(reg, 0, 0.5 * math.pi, -0.5 * math.pi)
    for i in range(1, L):
        reg = apply_cn_between_ions(reg, 0, i)
    return reg


# ---------------------------------------------------------------------------
# error-injected sequences


def noisy_sequence_fidelity(
    seq,
    error_model: dict,
    trials: int,
    base_seed: int = 0,
    n_max: int = 8,
    lengths=None,
) -> dict | list[dict]:
    """Monte Carlo fidelity of a pulse sequence under area and phase errors.

    error_model keys: zeta_rms and phi_rms (standard deviations of the
    per-pulse area and phase errors), systematic (bool; when set every
    pulse gets exactly zeta_rms and phi_rms instead of fresh draws, so all
    trials coincide). Per-pulse injections already present in the specs
    are kept and the drawn errors add to them. With M the longest length
    read, trial k seeds default_rng(base_seed + k) once and draws M area,
    then M phase errors (a zero rms draws none); one ideal run and all
    trials, as one batch, then pass through seq[:M].

    lengths (prefix lengths in 1..len(seq), any order, repeats allowed)
    returns one result per entry, each read after its first m pulses;
    without it the call returns the result of the whole sequence. A
    prefix equals the call on seq[:m] bit for bit unless both errors are
    random: then its phase errors are draws M..M+m-1, not m..2m-1, so the
    prefixes are nested views of one set of runs.

    A result holds F_mean, F_std and a quadratic_fit dict whose
    coefficient is (1 - F_mean) divided by m*zeta_rms^2 (random model) or
    by the squared total systematic area error (systematic model).
    """
    seq = list(seq)
    if not seq:
        raise ModelInputError("empty pulse sequence")
    if not isinstance(trials, int) or trials < 1:
        raise RangeError("trials must be a positive integer")
    want = [len(seq)] if lengths is None else list(lengths)
    if not want or not all(isinstance(m, int) and 1 <= m <= len(seq) for m in want):
        raise RangeError(f"lengths must be a nonempty list of integers in 1..{len(seq)}")
    unknown = set(error_model) - {"zeta_rms", "phi_rms", "systematic"}
    if unknown:
        raise ModelInputError(f"unknown error_model keys: {sorted(unknown)}")
    zeta_rms = float(error_model.get("zeta_rms", 0.0))
    phi_rms = float(error_model.get("phi_rms", 0.0))
    systematic = bool(error_model.get("systematic", False))
    if zeta_rms < 0 or phi_rms < 0:
        raise RangeError("error magnitudes must be >= 0")

    M = max(want)
    drawn = [s > 0 and not systematic for s in (zeta_rms, phi_rms)]
    draws = np.empty((trials, M * sum(drawn)))     # row k: trial k's draws
    for k in range(trials if draws.size else 0):
        np.random.default_rng(base_seed + k).standard_normal(out=draws[k])

    def errors(rms, col):       # one error per trial, from draw column col
        return rms * draws[:, col] if rms > 0 and not systematic else np.full(trials, rms)

    ideal = noisy = make_state("fock", n_max=n_max)
    zeta_sum, found = 0, dict.fromkeys(want)
    for i, p in enumerate(seq[:M]):
        ideal = apply_pulse(ideal, replace(p, zeta=0.0, phi_err=0.0))
        noisy = apply_pulse(noisy, replace(p, zeta=p.zeta + errors(zeta_rms, i),
                                           phi_err=p.phi_err + errors(phi_rms, M * drawn[0] + i)))
        zeta_sum += p.zeta
        m = i + 1
        if m not in found:
            continue
        fids = np.abs(overlap(ideal, noisy)) ** 2
        F_mean = float(np.mean(fids))
        if systematic or zeta_rms == 0.0:
            S = zeta_sum + (m * zeta_rms if systematic else 0.0)
            denom, against = S * S, "(sum_zeta)^2"
        else:
            denom, against = m * zeta_rms**2, "M*zeta_rms^2"
        found[m] = {
            "F_mean": F_mean,
            "F_std": float(np.std(fids, ddof=1)) if trials > 1 else 0.0,
            "quadratic_fit": {"coefficient": (1.0 - F_mean) / denom if denom > 0 else math.nan,
                              "against": against},
        }
    return [found[m] for m in want] if lengths is not None else found[M]
