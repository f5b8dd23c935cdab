"""Exact pulse propagators, gate constructions, and error accumulation.

Every pulse goes through one kernel, _drive, which acts on amplitudes in
the quantum_core layout (spin x Fock levels 0..n_max, after any batch
axes). A pulse is block-diagonal: one exact resonant two-level propagator
per coupled |down,n> <-> |up,n'> pair, each at its own matrix element.
_pulse_entries gives the two contiguous slices of coupled levels and the
closed-form entries of every pair's propagator. _drive mixes the slices
with them; pulse_unitary scatters them into the dense reference matrix.

The gates are sequences of such pulses. A register of L ions shares one
bus mode capped at n = 1: from the bus ground state the Cirac-Zoller
sequence reaches no higher level. An operation on ion j views the
register as a batch of single-ion states whose batch axes are the other
ions' spins. A rotation is one carrier pulse. A controlled-not is a
red-sideband pi pulse on the control, the bus-controlled flip of the
target (carrier pi/2, blue 2*pi pulse through an auxiliary level, carrier
pi/2: the same three pulses as cn_gate_three_pulse), and a red pi pulse
back.

Phase conventions. The resonant propagator carries the -i e^{+-i(phi +
pi*dn/2)} factors of the interaction-picture solution; a pi carrier pulse
at phi=0 maps |down> to -i|up>. register_rotation takes the mirrored
field-phase sign that is conventional for Bloch rotations and drives its
carrier at field phase -phi. Global phases are never stripped silently;
fidelities compare |<a|b>|^2 so the convention cannot leak into reported
numbers.

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

from .coupling import CouplingParams, ladder
from .errors import ModelInputError, RangeError, TruncationError
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
        for name in ("theta", "phi", "zeta", "phi_err"):
            if not np.isfinite(getattr(self, name)).all():
                raise RangeError(f"pulse {name} must be finite")
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
# pulses on a physical ion


def _pulse_entries(p: PulseSpec, n_max: int):
    """The two slices of coupled levels and each pair's propagator entries.

    Pair n couples |up, nu> and |down, nl> (nu = n + dn on the blue
    sideband, nl = n + dn on the red); over the pairs each runs through a
    contiguous range of the quantum_core layout. The pair's resonant
    propagator, in (upper, lower) order, is [[c, b], [b', c]] with
    c = cos(|Omega_n| t), b, b' = -i sgn(Omega_n) sin(|Omega_n| t) e^{-+i chi}
    and chi = -(phi + pi*dn/2); c, b and b' have shape batch + (pairs,).
    Its U+ U - 1 is diag(c^2 + s^2 - 1) with s = sin(|Omega_n| t): the
    off-diagonal c b + conj(b') c is zero by construction. So the whole
    unitarity check is max|c^2 + s^2 - 1| <= 1e-10 (under __debug__).
    """
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
    # blue and red pairs both run at Omega_{n+dn,n}, so the reference pair
    # is one of them
    pairs = n_max - dn + 1
    Omegas = ladder(dn, pairs, p.coupling)
    Omega_ref = Omegas[min(ref)]
    if Omega_ref == 0.0:
        raise RangeError(f"reference pair {ref} has a vanishing matrix element")
    half = np.abs(Omegas) * (theta_eff / (2.0 * abs(Omega_ref)))[..., None]
    c, s = np.cos(half), np.sin(half)
    if __debug__:
        defect = np.max(np.abs(c * c + s * s - 1.0))
        if not defect <= 1e-10:
            raise ModelInputError(f"pulse propagator is not unitary (defect {defect:.2e})")
    off = -1j * np.sign(Omegas) * s
    chi = -phi_tot[..., None] - 0.5 * math.pi * dn
    nu, nl = (0, dn) if p.transition == "red" else (dn, 0)
    up = n_max + 1 + nu
    return (slice(up, up + pairs), slice(nl, nl + pairs),
            c, off * np.exp(-1j * chi), off * np.exp(1j * chi))


def pulse_unitary(p: PulseSpec, n_max: int) -> np.ndarray:
    """Full-space unitary of one pulse on the (spin x Fock) truncation.

    Takes the pulse and the Fock cutoff n_max and returns the dense
    2(n_max+1) x 2(n_max+1) matrix in the quantum_core basis ordering,
    with the field phase p.phi + p.phi_err: _pulse_entries scattered into
    the identity. Every coupled pair evolves for the same duration at its
    own exact matrix element; uncoupled edge levels are left untouched.
    The caller is responsible for checking that those edge levels are
    unpopulated (_drive does this).
    """
    up, lo, c, b_ul, b_lu = _pulse_entries(p, n_max)
    U = np.eye(2 * (n_max + 1), dtype=complex)
    k = np.arange(U.shape[0])
    iu, il = k[up], k[lo]
    U[iu, iu], U[iu, il], U[il, iu], U[il, il] = c, b_ul, b_lu, c
    return U


def _drive(amps: np.ndarray, p: PulseSpec) -> np.ndarray:
    """One pulse on amplitudes of shape batch + (2(n_max+1),), in the
    quantum_core layout; returns new amplitudes.

    The field phase is p.phi + p.phi_err; a pulse with one zeta, phi or
    phi_err per trial broadcasts against the batch axes. A sideband pulse
    is refused (TruncationError) whenever the edge level whose partner
    would sit above the Fock truncation carries population above 1e-12 in
    any state. The pulse mixes the two slices of coupled levels with
    _pulse_entries' closed-form entries; no matrix is built.
    """
    n_max = amps.shape[-1] // 2 - 1
    if p.transition != "carrier":
        # the edge level whose partner lies above the truncation
        spin = SPIN_DOWN if p.transition == "blue" else SPIN_UP
        if np.any(np.abs(amps[..., index_of(spin, n_max, n_max)]) ** 2 > 1e-12):
            raise TruncationError(
                f"{p.transition} sideband from ({spin},{n_max}) "
                f"would leave the truncation n_max={n_max}"
            )
    up, lo, c, b_ul, b_lu = _pulse_entries(p, n_max)
    a_up, a_lo = amps[..., up], amps[..., lo]
    a_up, a_lo = c * a_up + b_ul * a_lo, b_lu * a_up + c * a_lo
    amps = np.broadcast_to(amps, a_up.shape[:-1] + amps.shape[-1:]).copy()
    amps[..., up], amps[..., lo] = a_up, a_lo
    return amps


def apply_pulse(state: QuantumState, p: PulseSpec) -> QuantumState:
    """Apply one pulse to a state, or a batch of states, and return the result.

    The pulse is _drive's, on the state's amplitudes. Population in the
    top two Fock levels above DEFAULT_EPS_TRUNC raises TruncationWarning.
    """
    if not isinstance(state, QuantumState):
        raise ModelInputError("apply_pulse acts on a QuantumState")
    out = QuantumState(_drive(state.amplitudes, p), state.n_max)
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
_CN_ORDER = [0, 2, 1, 3]  # quantum_core dn0, dn1, up0, up1 -> _CN_BASIS
_CN_IDEAL = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


# Couplings of the register pulses. A pulse is exact on its reference
# pair, the only sideband pair below the bus cap, so no result depends on
# _BUS; _CARRIER drives every bus level alike.
_BUS = CouplingParams(1.0, 0.1)
_CARRIER = CouplingParams(1.0, 0.0)


def _bus_flip(amps: np.ndarray, blue: CouplingParams, phi_a: float) -> np.ndarray:
    """Flip the spin of the states whose bus mode holds one quantum.

    Acts on amplitudes batch + (4,): one ion's spin x bus levels {0, 1}
    in the quantum_core layout. A carrier pi/2 at phase phi_a, a blue
    2*pi pulse at coupling blue, and a carrier pi/2 at phase phi_a + pi.
    The blue pulse drives an auxiliary level, the lower spin of a second
    two-level array whose upper spin holds |up>. Its one pair below the
    bus cap, |aux,0> <-> |up,1>, is the reference pair, so the pulse flips
    the sign of |up,1> and leaves |up,0> alone. The auxiliary level must
    end empty (checked to 1e-12).
    """
    amps = _drive(amps, PulseSpec("carrier", 0.5 * math.pi, _CARRIER, phi=phi_a))
    up = amps[..., 2:]
    aux = _drive(np.concatenate([np.zeros_like(up), up], axis=-1),
                 PulseSpec("blue", 2.0 * math.pi, blue))
    leak = float(np.max(np.abs(aux[..., :2])))
    if leak > 1e-12:
        raise ModelInputError(f"auxiliary level retains amplitude {leak:.2e}")
    amps = np.concatenate([amps[..., :2], aux[..., 2:]], axis=-1)
    return _drive(amps, PulseSpec("carrier", 0.5 * math.pi, _CARRIER, phi=phi_a + math.pi))


def cn_gate_three_pulse(aux_coupling: CouplingParams, phi_a: float = 0.0) -> GateReport:
    """Controlled-not (bus occupation controls the spin) via an auxiliary level.

    The three pulses of _bus_flip on one ion with its bus mode capped at
    n = 1: a carrier pi/2 at phase phi_a, a 2*pi pulse at aux_coupling on
    the blue sideband joining the auxiliary level to |up> (which flips the
    sign of |up,1> through its partner |aux,0>), and a second carrier pi/2
    at phase phi_a + pi. The report is restricted to the computational
    basis dn0, up0, dn1, up1.
    """
    U = _bus_flip(np.eye(4, dtype=complex), aux_coupling, phi_a).T[np.ix_(_CN_ORDER, _CN_ORDER)]
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
        raise RangeError(
            f"eta={eta!r} is not the magic value {target!r} for (k={k}, m={m})"
        )
    p = PulseSpec(
        transition="carrier",
        theta=(2 * k + 1) * math.pi,
        coupling=CouplingParams(1.0, eta),
        phi=-phi - math.pi,
        reference_pair=(1, 1),
    )
    U = (-1.0) ** m * pulse_unitary(p, n_max=1)[np.ix_(_CN_ORDER, _CN_ORDER)]
    require_unitary(U)
    return GateReport(
        unitary=U,
        truth_table=_truth_table(U, _CN_BASIS),
        fidelity_vs_ideal=gate_fidelity(U, _CN_IDEAL),
        basis=_CN_BASIS,
    )


# ---------------------------------------------------------------------------
# register of L ions sharing one bus mode


@dataclass
class RegisterState:
    """L spins plus one shared bus mode capped at n = 1, amplitudes (2^L, 2).

    Bit j of the first index is the spin of ion j (0 = down); the second
    index is the bus level.
    """

    L: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def bus_excited_weight(self) -> float:
        return float(np.sum(np.abs(self.amps[:, 1]) ** 2))

    def reduced_spin_purity(self, j: int) -> float:
        """Purity of ion j's reduced density matrix."""
        a = _split_ion(self, j)
        A0 = a[:, 0].ravel()
        A1 = a[:, 1].ravel()
        r00 = np.vdot(A0, A0)
        r11 = np.vdot(A1, A1)
        r01 = np.vdot(A1, A0)
        return float(abs(r00) ** 2 + abs(r11) ** 2 + 2 * abs(r01) ** 2)

    def copy(self) -> "RegisterState":
        return RegisterState(self.L, self.amps.copy())


def _split_ion(reg: RegisterState, j: int) -> np.ndarray:
    """The amplitudes as (2^(L-1-j), 2, 2^j, 2): ion j's spin on axis 1."""
    if not 0 <= j < reg.L:
        raise RangeError(f"ion index {j} outside register of {reg.L}")
    return reg.amps.reshape(2 ** (reg.L - 1 - j), 2, 2**j, 2)


def _on_ion(reg: RegisterState, j: int, op) -> RegisterState:
    """Apply op to ion j of the register.

    op maps single-ion amplitudes, (2^(L-1-j), 2^j, 4) in the quantum_core
    layout with the bus as the Fock mode: the other ions' spins are batch
    axes.
    """
    a = _split_ion(reg, j)
    hi, lo = a.shape[0], a.shape[2]
    out = op(np.moveaxis(a, 1, 2).reshape(hi, lo, 4))
    return RegisterState(reg.L, np.moveaxis(out.reshape(hi, lo, 2, 2), 2, 1).reshape(-1, 2))


def register_ground(L: int) -> RegisterState:
    """All spins down, bus in |0>."""
    if L < 1:
        raise RangeError("register needs at least one ion")
    if L > DEFAULT_REGISTER_CAP:
        raise RangeError(f"register of {L} ions exceeds the cap of {DEFAULT_REGISTER_CAP}")
    amps = np.zeros((2**L, 2), dtype=complex)
    amps[0, 0] = 1.0
    return RegisterState(L, amps)


def register_rotation(reg: RegisterState, ion: int, theta: float, phi: float) -> RegisterState:
    """Bloch rotation of one ion's spin, leaving the bus untouched.

    Matrix convention (basis down, up):
        [[cos(theta/2),            -i e^{+i phi} sin(theta/2)],
         [-i e^{-i phi} sin(theta/2), cos(theta/2)          ]]
    This is a carrier pulse of area theta at field phase -phi: the
    register mirrors the pulses' phi sign. A negative theta is the
    rotation by |theta| at phase phi + pi.
    """
    p = PulseSpec("carrier", abs(theta), _CARRIER, phi=-phi + math.pi * (theta < 0))
    return _on_ion(reg, ion, lambda a: _drive(a, p))


def apply_cn_between_ions(reg: RegisterState, c: int, t: int) -> RegisterState:
    """Controlled-not of ion c onto ion t through the bus mode.

    Map-in: a red-sideband pi pulse on c writes its spin onto the bus (and
    must find the bus in |0>, else ModelInputError). Middle: _bus_flip on
    t at phase -pi/2, where the three-pulse composite flips t exactly when
    the bus holds a quantum. Map-out: a red pi pulse on c at phase pi, the
    inverse of the map-in. The composite is the textbook controlled-not
    with no residual phases and restores the bus to |0>.
    """
    if c == t:
        raise ModelInputError("control and target must differ")
    w = reg.bus_excited_weight()
    if w > 1e-12:
        raise ModelInputError(f"bus mode carries weight {w:.2e} outside |0>")
    reg = _on_ion(reg, c, lambda a: _drive(a, PulseSpec("red", math.pi, _BUS)))
    reg = _on_ion(reg, t, lambda a: _bus_flip(a, _BUS, -0.5 * math.pi))
    return _on_ion(reg, c, lambda a: _drive(a, PulseSpec("red", math.pi, _BUS, phi=math.pi)))


def prepare_max_entangled(L: int) -> RegisterState:
    """Drive the register to (|dn...dn> + |up...up>)/sqrt(2) x |0>.

    A pi/2 rotation on ion 0 (field phase -pi/2, which in the rotation
    convention gives the real, plus-signed superposition) followed by a
    chain of controlled-nots from ion 0 onto each other ion: 5L - 4
    pulses.
    """
    if L < 2:
        raise RangeError("need at least two ions to entangle")
    reg = register_ground(L)
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
    then M phase errors (a zero rms draws none). One batch then passes
    through seq[:M], one apply_pulse call per pulse: row 0 is the ideal
    run, with zero zeta and phi_err, and row k + 1 is trial k.

    lengths (prefix lengths in 1..len(seq), any order, repeats allowed)
    returns one result per entry, each read after its first m pulses;
    without it the call returns the result of the whole sequence. A
    prefix equals the call on seq[:m] bit for bit unless both errors are
    random: then its phase errors are draws M..M+m-1, not m..2m-1, so the
    prefixes are nested views of one set of runs.

    A result holds F_mean, F_std and a quadratic_fit dict whose
    coefficient is (1 - F_mean) divided by m*zeta_rms^2 (random model) or
    by the squared total systematic area error (systematic model), its
    trial mean when the specs carry one zeta per trial.
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

    state = make_state("fock", n_max=n_max)
    zeta_sum, found = 0, dict.fromkeys(want)
    for i, p in enumerate(seq[:M]):
        state = apply_pulse(state, replace(
            p, zeta=np.append(0.0, p.zeta + errors(zeta_rms, i)),
            phi_err=np.append(0.0, p.phi_err + errors(phi_rms, M * drawn[0] + i))))
        zeta_sum += p.zeta
        m = i + 1
        if m not in found:
            continue
        a = state.amplitudes
        fids = np.abs(overlap(QuantumState(a[0], n_max), QuantumState(a[1:], n_max))) ** 2
        F_mean = float(np.mean(fids))
        if systematic or zeta_rms == 0.0:
            S = zeta_sum + (m * zeta_rms if systematic else 0.0)
            denom, against = float(np.mean(S * S)), "(sum_zeta)^2"
        else:
            denom, against = m * zeta_rms**2, "M*zeta_rms^2"
        found[m] = {
            "F_mean": F_mean,
            "F_std": float(np.std(fids, ddof=1)) if trials > 1 else 0.0,
            "quadratic_fit": {"coefficient": (1.0 - F_mean) / denom if denom > 0 else math.nan,
                              "against": against},
        }
    return [found[m] for m in want] if lengths is not None else found[M]
