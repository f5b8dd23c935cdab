"""The ``kernel_sweep`` workload: direct calls into the ionsim library API.

Each warm pass draws fresh parameters from ``default_rng([seed, pass])``,
so no two calls in a run share parameters and a cache keyed on them
misses. The parameters that set the amount of work (truncations, step
counts, sequence lengths, trial counts) are fixed, so every pass does the
same work. Every operation has a check computed apart from the program;
the formulas are written out here and tested in ``selftest.py``.

One operation fails on every pass because of a known fault and is counted
as failed: ``noisy_sequence_fidelity`` with theta = 0.01 and
zeta_rms = 0.5, whose Gaussian draws make a pulse area negative, so
``pulse_unitary`` raises ``RangeError`` and the whole run aborts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_genlaguerre

from ionsim import coupling as C
from ionsim import decoherence as D
from ionsim import pulse_engine as P
from ionsim import quantum_core as Q
from ionsim import trap_model as TM
from ionsim.errors import RangeError

ME_N_MAX = 30
ME_WORK = 1.0                 # gamma * t * (nbar + 1), which fixes the RK4 step count
PULSE_N_MAX = (10, 50, 200)
SPECTATOR_DELTA_T = 800.0     # Delta * duration, which fixes the RK4 step count
NOISY_N_MAX = 40
NOISY_PULSES = 8
NOISY_TRIALS = 3
CHAIN_L = 40
INVERT_N_CUT = 14
INVERT_POINTS = 1200

ELEMENTARY_CHARGE = 1.602176634e-19
ATOMIC_MASS = 1.66053906660e-27

# tolerances of the checks; the README gives the reason for each
TOL_MEAN_N = 1e-9
TOL_TRACE = 1e-9
TOL_EIG = -1e-12
TOL_POP = 1e-10
TOL_NORM = 1e-10
TOL_SPECTATOR = 1e-7
TOL_FIDELITY = 1e-10
TOL_FORCE = 1e-9
TOL_CHAIN = 1e-9
TOL_INVERT = 1e-8

# the failing operation: fixed inputs, independent of the seed
FAILING_SEQ = dict(theta=0.01, zeta_rms=0.5, pulses=4, trials=8, base_seed=0)


# ---------------------------------------------------------------------------
# reference formulas


def mean_n_closed(n0: float, nbar: float, gamma: float, t: float) -> float:
    """Mean occupation under thermal relaxation: nbar + (n0 - nbar) e^(-gamma t)."""
    return nbar + (n0 - nbar) * math.exp(-gamma * t)


def first_sideband_rates(Omega: float, eta: float, n: np.ndarray) -> np.ndarray:
    """Omega_{n+1,n} = Omega e^(-eta^2/2) eta L_n^1(eta^2) / sqrt(n+1)."""
    n = np.asarray(n)
    return (Omega * math.exp(-0.5 * eta * eta) * eta
            * eval_genlaguerre(n, 1, eta * eta) / np.sqrt(n + 1.0))


def spectator_hamiltonian(Omega: float, Omega_p: float, Delta: float, g: float) -> np.ndarray:
    """3-level generator in the frame co-rotating with the spectator.

    Basis (C_dn, C_up, C_s e^(-i Delta t)); i d/dt v = H v. The spectator
    magnitude is unchanged by the frame.
    """
    return np.array([[0.0, g * Omega, g * Omega_p],
                     [g * Omega, 0.0, 0.0],
                     [g * Omega_p, 0.0, Delta]], dtype=complex)


def raised_cosine(t: float, T: float, tau_r: float) -> float:
    if t <= 0.0 or t >= T:
        return 0.0
    if t < tau_r:
        return 0.5 * (1.0 - math.cos(math.pi * t / tau_r))
    if t > T - tau_r:
        return 0.5 * (1.0 - math.cos(math.pi * (T - t) / tau_r))
    return 1.0


def chain_forces(u: np.ndarray) -> np.ndarray:
    """Dimensionless axial force on each ion: -u_i + sum_j sign(u_i-u_j)/(u_i-u_j)^2."""
    du = u[:, None] - u[None, :]
    np.fill_diagonal(du, np.inf)
    return -u + np.sum(np.sign(du) / du**2, axis=1)


def flop_signal(P_n, Omega, eta, gamma0, tau) -> np.ndarray:
    """P_down(tau) = (1 + sum_n P_n e^(-gamma0 sqrt(n+1) tau) cos(2 Omega_{n+1,n} tau)) / 2."""
    n = np.arange(len(P_n))
    f = first_sideband_rates(Omega, eta, n)
    decay = np.exp(-gamma0 * np.sqrt(n + 1.0)[:, None] * tau)
    return 0.5 * (1.0 + np.sum(np.asarray(P_n)[:, None] * decay
                               * np.cos(2.0 * f[:, None] * tau), axis=0))


# ---------------------------------------------------------------------------
# operations: run(p) calls the library; check(p, out) returns failure messages


def _run_master(p):
    return D.master_equation_evolve(p["rho"], D.BathParams(gamma=p["gamma"], nbar=p["nbar"]),
                                    p["t"], p["dt"])


def _check_master(p, rho):
    errs = []
    want = mean_n_closed(p["n0"], p["nbar"], p["gamma"], p["t"])
    if not abs(rho.mean_n() - want) <= TOL_MEAN_N:
        errs.append(f"mean n {rho.mean_n()!r} vs closed form {want!r}")
    if not abs(rho.trace() - 1.0) <= TOL_TRACE:
        errs.append(f"trace {rho.trace()!r}")
    lo = float(np.linalg.eigvalsh(rho.rho)[0])
    if not lo >= TOL_EIG:
        errs.append(f"eigenvalue {lo!r} below {TOL_EIG}")
    return errs


def _run_pulses(p):
    states = [p["psi"]]
    for spec in p["seq"]:
        states.append(P.apply_pulse(states[-1], spec))
    return states


def _check_pulses(p, states):
    errs = [f"norm {s.norm()!r} after pulse {i}" for i, s in enumerate(states[1:])
            if not abs(s.norm() - 1.0) <= TOL_NORM]
    N, k = p["n_max"] + 1, p["support"]
    c = p["psi"].amplitudes[:k]
    spec = p["seq"][0]
    rates = first_sideband_rates(spec.coupling.Omega, spec.coupling.eta, np.arange(k))
    t = spec.theta / (2.0 * abs(rates[0]))    # reference pair (1, 0)
    p_up = np.abs(c) ** 2 * np.sin(rates * t) ** 2
    got = np.abs(states[1].amplitudes[N + 1:N + 1 + k]) ** 2    # |up, n+1>
    err = float(np.max(np.abs(got - p_up)))
    if not err <= TOL_POP:
        errs.append(f"blue pi-pulse populations off by {err:.3e} at n_max={p['n_max']}")
    return errs


def _run_spectator(p):
    return D.spectator_leakage(p["Omega"], p["Omega_p"], p["Delta"], envelope=p["envelope"],
                               duration=p["T"], tau_r=p["tau_r"])


def spectator_reference(p) -> np.ndarray:
    """Final (C_dn, C_up, spectator) amplitudes, up to frame phases."""
    v0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    if p["envelope"] == "square":
        from scipy.linalg import expm
        H = spectator_hamiltonian(p["Omega"], p["Omega_p"], p["Delta"], 1.0)
        return expm(-1j * H * p["T"]) @ v0
    from scipy.integrate import solve_ivp
    A = spectator_hamiltonian(p["Omega"], p["Omega_p"], 0.0, 1.0)
    Dg = spectator_hamiltonian(0.0, 0.0, p["Delta"], 0.0)

    def rhs(t, v):
        return -1j * ((raised_cosine(t, p["T"], p["tau_r"]) * A + Dg) @ v)

    sol = solve_ivp(rhs, (0.0, p["T"]), v0, method="DOP853", rtol=1e-12, atol=1e-12)
    return sol.y[:, -1]


def _check_spectator(p, out):
    ref = spectator_reference(p)
    errs = []
    for key, want in (("C_final", abs(ref[0])), ("C_s_final", abs(ref[2]))):
        if not abs(out[key] - want) <= TOL_SPECTATOR:
            errs.append(f"{p['envelope']} {key} {out[key]!r} vs reference {want!r}")
    return errs


def _run_noisy(p):
    return P.noisy_sequence_fidelity(p["seq"], p["model"], trials=p["trials"],
                                     base_seed=p["base_seed"], n_max=p["n_max"])


def _check_noisy_systematic(p, out):
    S = len(p["seq"]) * p["model"]["zeta_rms"]
    want = math.cos(0.5 * S) ** 2
    if not abs(out["F_mean"] - want) <= TOL_FIDELITY:
        return [f"systematic F_mean {out['F_mean']!r} vs cos^2(S/2) {want!r}"]
    return []


def _check_noisy_random(p, out):
    if not 0.0 <= out["F_mean"] <= 1.0 + TOL_FIDELITY:
        return [f"F_mean {out['F_mean']!r} outside [0, 1]"]
    again = _run_noisy(p)["F_mean"]
    if again != out["F_mean"]:
        return [f"F_mean {out['F_mean']!r} then {again!r} for the same seed"]
    return []


def _check_failing(p, out):
    # reached only once the fault is fixed and the call returns
    if not 0.0 <= out["F_mean"] <= 1.0 + TOL_FIDELITY:
        return [f"F_mean {out['F_mean']!r} outside [0, 1]"]
    return []


def _run_chain(p):
    g = TM.chain_equilibrium(p["L"], p["omega_z"], p["charge"], p["mass"])
    return g, TM.axial_normal_modes(g, p["omega_z"])


def _check_chain(p, out):
    g, modes = out
    u = np.asarray(g.positions) / g.scale_s
    errs = []
    F = chain_forces(u)
    if not float(np.max(np.abs(F))) <= TOL_FORCE:
        errs.append(f"L={p['L']}: net force {float(np.max(np.abs(F))):.3e} at equilibrium")
    if not abs(float(F.sum())) <= TOL_FORCE:
        errs.append(f"L={p['L']}: forces sum to {float(F.sum()):.3e}")
    ratios = np.asarray(modes.frequencies) / p["omega_z"]
    want = [1.0, math.sqrt(3.0)] + ([math.sqrt(29.0 / 5.0)] if p["L"] == 3 else [])
    if not np.allclose(ratios[:len(want)], want, rtol=0.0, atol=TOL_CHAIN):
        errs.append(f"L={p['L']}: mode ratios {ratios[:len(want)]} vs {want}")
    if p["L"] == 3:
        x = (5.0 / 4.0) ** (1.0 / 3.0)
        if not np.allclose(u, [-x, 0.0, x], rtol=0.0, atol=TOL_CHAIN):
            errs.append(f"L=3 positions {u} vs +-(5/4)^(1/3)")
    return errs


def _run_invert(p):
    return D.invert_populations(D.RabiSignal(p["tau"], p["signal"]),
                                C.CouplingParams(Omega=p["Omega"], eta=p["eta"]),
                                INVERT_N_CUT, gamma_model=p["gamma0"])


def _check_invert(p, out):
    err = float(np.max(np.abs(out["P"] - p["P"])))
    return [] if err <= TOL_INVERT else [f"recovered populations off by {err:.3e}"]


# ---------------------------------------------------------------------------
# inputs


def _fock_rho(n0: int, n_max: int) -> Q.DensityMatrix:
    r = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    r[n0, n0] = 1.0
    return Q.DensityMatrix(r, n_max)


def _master_params(rng):
    gamma, nbar = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
    n0 = int(rng.integers(0, 4))
    rate = gamma * (nbar + 1.0)
    return {"gamma": gamma, "nbar": nbar, "n0": n0, "rho": _fock_rho(n0, ME_N_MAX),
            "t": ME_WORK / rate, "dt": 0.9 * 0.01 / (rate * (ME_N_MAX + 1))}


def _pulse_params(rng, n_max):
    c = C.CouplingParams(Omega=rng.uniform(0.5, 2.0), eta=rng.uniform(0.05, 0.15))
    # spin-down support low enough that no pulse of the sequence reaches
    # the top two Fock levels
    k = n_max - 4
    z = rng.normal(size=k) + 1j * rng.normal(size=k)
    amps = np.zeros(2 * (n_max + 1), dtype=complex)
    amps[:k] = z / np.linalg.norm(z)
    phases = rng.uniform(0.0, 2.0 * math.pi, 4)
    areas = rng.uniform(0.3 * math.pi, 1.7 * math.pi, 3)
    seq = [P.PulseSpec("blue", math.pi, c, phi=phases[0]),
           P.PulseSpec("red", areas[0], c, phi=phases[1]),
           P.PulseSpec("carrier", areas[1], c, phi=phases[2]),
           P.PulseSpec("blue", areas[2], c, phi=phases[3])]
    return {"n_max": n_max, "support": k, "psi": Q.QuantumState(amps, n_max), "seq": seq}


def _spectator_params(rng, envelope):
    Delta = rng.uniform(40.0, 80.0)
    T = SPECTATOR_DELTA_T / Delta
    return {"Omega": rng.uniform(0.5, 1.5), "Omega_p": rng.uniform(0.5, 1.5), "Delta": Delta,
            "envelope": envelope, "T": T, "tau_r": T / 4.0 if envelope == "smooth" else None}


def _noisy_params(rng, systematic):
    c = C.CouplingParams(Omega=1.0, eta=rng.uniform(0.05, 0.15))
    spec = P.PulseSpec("blue", rng.uniform(0.3 * math.pi, 1.7 * math.pi), c,
                       phi=rng.uniform(0.0, 2.0 * math.pi))
    model = {"zeta_rms": rng.uniform(0.02, 0.1), "systematic": systematic}
    if not systematic:
        model["phi_rms"] = rng.uniform(0.01, 0.05)
    return {"seq": [spec] * NOISY_PULSES, "model": model, "trials": NOISY_TRIALS,
            "base_seed": int(rng.integers(0, 2**31)), "n_max": NOISY_N_MAX}


def _chain_params(rng, L):
    return {"L": L, "omega_z": 2.0 * math.pi * rng.uniform(0.5, 5.0) * 1e6,
            "charge": ELEMENTARY_CHARGE, "mass": rng.uniform(9.0, 200.0) * ATOMIC_MASS}


def _invert_params(rng):
    Omega, eta = rng.uniform(0.5, 2.0), rng.uniform(0.08, 0.12)
    nbar = rng.uniform(1.0, 2.5)
    P_n = (nbar / (1.0 + nbar)) ** np.arange(INVERT_N_CUT + 1)
    P_n /= P_n.sum()
    f = first_sideband_rates(Omega, eta, np.arange(INVERT_N_CUT + 1))
    span = 1.5 * 2.0 * math.pi / float(np.min(np.abs(np.diff(f))))
    tau = np.linspace(0.0, span, INVERT_POINTS)
    if tau[1] > 0.5 * math.pi / (2.0 * float(np.max(np.abs(f)))):
        raise ValueError("invert_populations grid undersamples its own signal")
    gamma0 = rng.uniform(0.2, 1.0) / span
    return {"Omega": Omega, "eta": eta, "gamma0": gamma0, "P": P_n, "tau": tau,
            "signal": flop_signal(P_n, Omega, eta, gamma0, tau)}


def _failing_params():
    f = FAILING_SEQ
    spec = P.PulseSpec("carrier", f["theta"], C.CouplingParams(Omega=1.0, eta=0.0))
    return {"seq": [spec] * f["pulses"], "model": {"zeta_rms": f["zeta_rms"]},
            "trials": f["trials"], "base_seed": f["base_seed"], "n_max": 8}


def build_pass(seed: int, index: int) -> list[tuple]:
    """The operations of one pass: (name, run, check, params), fixed order."""
    rng = np.random.default_rng([seed, index])
    ops = [(f"master_equation_evolve.{j}", _run_master, _check_master, _master_params(rng))
           for j in range(3)]
    ops += [(f"apply_pulse.n{n}", _run_pulses, _check_pulses, _pulse_params(rng, n))
            for n in PULSE_N_MAX]
    ops += [(f"spectator_leakage.{e}", _run_spectator, _check_spectator,
             _spectator_params(rng, e)) for e in ("square", "smooth")]
    ops += [("noisy_sequence_fidelity.systematic", _run_noisy, _check_noisy_systematic,
             _noisy_params(rng, True)),
            ("noisy_sequence_fidelity.random", _run_noisy, _check_noisy_random,
             _noisy_params(rng, False)),
            ("chain.L3", _run_chain, _check_chain, _chain_params(rng, 3)),
            (f"chain.L{CHAIN_L}", _run_chain, _check_chain, _chain_params(rng, CHAIN_L)),
            ("invert_populations", _run_invert, _check_invert, _invert_params(rng)),
            ("noisy_sequence_fidelity.negative_area", _run_noisy, _check_failing,
             _failing_params())]
    return ops


def is_known_failure(name: str, err: BaseException) -> bool:
    """The one fault the workload keeps: a negative injected pulse area."""
    return (name == "noisy_sequence_fidelity.negative_area" and isinstance(err, RangeError)
            and "negative" in str(err))
