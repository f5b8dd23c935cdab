"""Configuration-driven experiment runner.

``ionsim run <config>`` loads a JSON experiment file (or the name of a
bundled scenario), dispatches to the library, and writes a CSV table, an
optional SVG plot per ``plot`` block, and a manifest recording inputs,
versions, and pass/fail against the file's declared expectations.
``ionsim list`` enumerates the bundled scenarios. Each kind's schema
declares every key, unit and integer bound, and which choice of its op,
type, strategy or mode reads a key; its handler only maps the validated
params to library calls and the results to a table of named columns and
metrics.

Exit codes: 0 success, 2 configuration error (the message names the
offending key), 3 physics-model error raised by the library or failed
arithmetic (overflow, division by zero, a math domain error). A failed
expectation is recorded in the manifest but is not an error, and a
non-finite metric fails every expectation on it (``--json`` writes it as
null, so the summary stays strict JSON); pass
--strict to escalate model warnings (truncation, regime stretch) to
exit 3.

Unit conventions in config files: keys holding oscillation or drive
frequencies (omega_*, Omega*, drive_frequency, slow_rms, gamma_rad) are
cyclic Hz and are multiplied by 2*pi on the way in; keys holding decay
or relaxation rates (gamma, gamma0) are direct 1/s. Seeds make every
run reproducible: the same config and seed produce byte-identical CSV.

The argument parser and the bundled-scenario directory are built once,
at import. ``main`` may be called any number of times in one process
(the tests and ``perfbench`` do so): each call parses into a fresh
namespace, and one call leaves nothing behind that the next one reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field as dc_field
from importlib import resources

import numpy as np

from . import __version__
from ._config import ExperimentConfig, Field, parse_config_text, validate_block
from ._svg import line_plot
from .cooling import CoolingConfig, cooling_limit, sideband_cool
from .coupling import CouplingParams, ModeEnsemble, debye_waller_stats, ladder, magic_eta
from .decoherence import (
    BathParams,
    RabiSignal,
    coherence_tomography,
    fast_amplitude_noise_visibility,
    invert_populations,
    master_equation_trajectory,
    mean_n_evolution,
    rabi_decay_signal,
    slow_amplitude_noise_envelope,
    spectator_leakage,
)
from .errors import ConfigError, IonsimError
from .pulse_engine import (
    DEFAULT_REGISTER_CAP,
    PulseSpec,
    cn_gate_single_pulse,
    cn_gate_three_pulse,
    noisy_sequence_fidelity,
    prepare_max_entangled,
)
from .quantum_core import DensityMatrix, QuantumState, make_state
from .spectroscopy import ClockParams, clock_lock_analysis
from .trap_model import (
    TrapParams,
    axial_normal_modes,
    chain_equilibrium,
    collision_rates,
    critical_anisotropy,
    mathieu_trajectory,
    patch_heating_time,
    resistive_heating_time,
    secular_frequencies,
    series_inductance,
    stray_field_heating_time,
)

TWO_PI = 2.0 * math.pi

# Most numbers in one array that a config field sizes (32 MiB of float64);
# each hi below divides it by what else sizes that field's largest array.
_MAX_CELLS = 2**22

# Longest ion chain: every length up to it solves to the 1e-12 force
# residual. Above it float64 round-off decides: a few lengths from 451 to
# 499 miss, and from 500 on nearly all do.
_MAX_CHAIN = 450


@dataclass
class RunResult:
    """One experiment's table, scalar metrics, and extra metadata lines.

    The table maps each CSV header ("tau [s]", "P_down") to its column's
    values, in column order: the library's arrays as returned, or lists.
    """

    table: dict
    metrics: dict
    meta: dict = dc_field(default_factory=dict)


def _table(header, rows) -> dict:
    """The table of records built row by row, one header per field."""
    return {h: [r[i] for r in rows] for i, h in enumerate(header)}


def _require(params: dict, keys, op: str) -> None:
    for k in keys:
        if params.get(k) is None:
            raise ConfigError(f"params.{k}: required for op '{op}'")


def _require_positive(block: dict, keys, path: str) -> None:
    for k in keys:
        if block[k] is not None and block[k] <= 0:
            raise ConfigError(f"{path}.{k}: must be > 0")


def _diag_density(init: dict) -> DensityMatrix:
    n_max = init["n_max"]
    if init["type"] == "thermal":
        return make_state("thermal", n_max=n_max, nbar=init["nbar"])
    n = init["n"]
    if n > n_max:
        raise ConfigError("params.initial.n: must be within 0..n_max")
    r = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    r[n, n] = 1.0
    return DensityMatrix(r, n_max)


# ---------------------------------------------------------------------------
# per-kind schemas and handlers


_TAU_SCHEMA = {
    "stop": Field("quantity", unit="s", required=True),
    # tomography's inversion basis is points x (n_cut + 1): each side gets the root
    "points": Field("int", default=600, lo=2, hi=math.isqrt(_MAX_CELLS)),
}


def _tau_grid(block: dict, path: str) -> np.ndarray:
    if block["stop"] <= 0:
        raise ConfigError(f"{path}.stop: must be > 0")
    return np.linspace(0.0, block["stop"], block["points"])


_TRAP_SCHEMA = {
    "V0": Field("quantity", unit="V", required=True),
    "U0": Field("quantity", unit="V", required=True),
    "Ur": Field("quantity", unit="V", default=0.0),
    "drive_frequency": Field("quantity", unit="Hz", angular=True, required=True),
    "R": Field("quantity", unit="m", required=True),
    "kappa": Field("number", required=True),        # endcap geometry, 1/m^2
    "charge": Field("quantity", unit="C", required=True),
    "mass": Field("quantity", unit="kg", required=True),
    "geometry_factor": Field("number", default=1.0),
    "trajectory": Field("block", schema={
        "amplitude": Field("quantity", unit="m", required=True),
        "phase": Field("number", default=0.0),
        "t_end": Field("quantity", unit="s", required=True),
        "points": Field("int", default=400, lo=2, hi=_MAX_CELLS // 3),
    }),
    "chain": Field("block", schema={
        "L": Field("int", required=True, lo=2, hi=_MAX_CHAIN),
        "s_c": Field("quantity", unit="m", required=True),
    }),
}


def _run_trap(p: dict, seed: int) -> RunResult:
    tp = TrapParams(
        V0=p["V0"], Ur=p["Ur"], U0=p["U0"], OmegaT=p["drive_frequency"],
        R=p["R"], kappa=p["kappa"], charge=p["charge"], mass=p["mass"],
        geometry_factor=p["geometry_factor"],
    )
    mc = secular_frequencies(tp)
    metrics = {
        "a_x": mc.a_x, "q_x": mc.q_x,
        "beta_x": mc.beta_x, "beta_y": mc.beta_y,
        "omega_x_Hz": mc.omega_x / TWO_PI,
        "omega_y_Hz": mc.omega_y / TWO_PI,
        "omega_z_Hz": mc.omega_z / TWO_PI,
    }
    if p["chain"] is not None:
        ch = p["chain"]
        ca = critical_anisotropy(ch["L"], s_c=ch["s_c"],
                                 charge=p["charge"], mass=p["mass"])
        metrics["critical_ratio"] = ca.ratio_exact
        metrics["omega_r_bound_Hz"] = ca.omega_r_bound / TWO_PI
    if p["trajectory"] is not None:
        tj = p["trajectory"]
        t = np.linspace(0.0, tj["t_end"], tj["points"])
        traj = mathieu_trajectory(tp, tj["amplitude"], tj["phase"], t)
        table = {"t [s]": t, "x [m]": traj["x"], "y [m]": traj["y"]}
    else:
        table = {"quantity": list(metrics), "value": list(metrics.values()),
                 "unit": ["Hz" if k.endswith("_Hz") else "" for k in metrics]}
    return RunResult(table, metrics)


_MODES_SCHEMA = {
    "L_values": Field("int_list", required=True, lo=1, hi=_MAX_CHAIN),
    "omega_z": Field("quantity", unit="Hz", angular=True, required=True),
    "charge": Field("quantity", unit="C", required=True),
    "mass": Field("quantity", unit="kg", required=True),
}


def _run_modes(p: dict, seed: int) -> RunResult:
    rows, metrics = [], {}
    for L in p["L_values"]:
        g = chain_equilibrium(L, p["omega_z"], p["charge"], p["mass"])
        am = axial_normal_modes(g, p["omega_z"])
        for k, w in enumerate(am.frequencies, start=1):
            ratio = w / p["omega_z"]
            rows.append((L, k, ratio, w / TWO_PI))
            metrics[f"L{L}.ratio{k}"] = float(ratio)
        metrics[f"L{L}.scale_s_m"] = g.scale_s
        if L >= 2:
            gaps = np.diff(g.positions)
            metrics[f"L{L}.min_gap_m"] = float(gaps.min())
            metrics[f"L{L}.central_gap_over_s"] = float(
                gaps[(L - 1) // 2] / g.scale_s
            )
            metrics[f"L{L}.min_gap_over_fit"] = float(gaps.min() / g.s_min)
    header = ("L", "mode", "ratio_to_axial", "frequency [Hz]")
    return RunResult(_table(header, rows), metrics)


_RABI_SCHEMA = {
    "op": Field("str", required=True, choices={
        "ladder": ("n_top",), "decay": ("populations", "gamma0", "tau")}),
    "Omega": Field("quantity", unit="Hz", angular=True, required=True),
    "eta": Field("number", required=True),
    "n_top": Field("int", default=10, lo=0, hi=_MAX_CELLS // 4 - 1),
    "populations": Field("number_list", required=True),
    "gamma0": Field("quantity", unit="Hz", required=True),   # base decay rate, 1/s
    "tau": Field("block", required=True, schema=_TAU_SCHEMA),
}


def _run_rabi(p: dict, seed: int) -> RunResult:
    c = CouplingParams(Omega=p["Omega"], eta=p["eta"])
    if p["op"] == "ladder":
        if p["Omega"] <= 0:
            raise ConfigError("params.Omega: must be > 0 for op 'ladder'")
        count = p["n_top"] + 1
        carrier = np.abs(ladder(0, count, c)) / TWO_PI
        blue = np.abs(ladder(1, count, c)) / TWO_PI   # n -> n+1
        red = np.concatenate(([0.0], blue[:-1]))      # n -> n-1
        table = {"n": np.arange(count), "carrier [Hz]": carrier,
                 "red_sideband [Hz]": red, "blue_sideband [Hz]": blue}
        metrics = {
            "carrier0_Hz": float(carrier[0]),
            "blue0_Hz": float(blue[0]),
            "blue0_over_carrier0": float(blue[0] / carrier[0]),
        }
        return RunResult(table, metrics)
    tau = _tau_grid(p["tau"], "params.tau")
    sig = rabi_decay_signal(p["populations"], p["gamma0"], c, tau)
    metrics = {
        "P_down_t0": float(sig.P_down[0]),
        "P_down_final": float(sig.P_down[-1]),
        "P_down_min": float(np.min(sig.P_down)),
    }
    return RunResult({"tau [s]": sig.tau_grid, "P_down": sig.P_down}, metrics)


_GATE_SCHEMA = {
    "op": Field("str", required=True, choices={
        "cn_single": ("k", "m", "eta", "phi"),
        "cn_three_pulse": ("aux_eta", "phi_a"),
        "entangle": ("L",),
        "noisy_sequence": ("M_values", "theta", "zeta_rms", "phi_rms",
                           "systematic", "trials")}),
    "k": Field("int", default=0),
    "m": Field("int", default=1),
    "eta": Field("number"),              # default: solved magic value
    "phi": Field("number", default=0.0),
    "aux_eta": Field("number", default=0.2),
    "phi_a": Field("number", default=0.0),
    # register amplitudes: 2**L rows
    "L": Field("int", default=2, lo=2, hi=DEFAULT_REGISTER_CAP),
    "M_values": Field("int_list", default=(2, 4, 8, 16), lo=1, hi=_MAX_CELLS),
    "theta": Field("number", default=math.pi / 2),
    "zeta_rms": Field("number", default=0.01),
    "phi_rms": Field("number", default=0.0),
    "systematic": Field("bool", default=False),
    # one batch: (trials, 9 pairs, 2, 2) blocks at the library's n_max = 8
    "trials": Field("int", default=200, lo=1, hi=_MAX_CELLS // 36),
}


def _run_gate(p: dict, seed: int) -> RunResult:
    op = p["op"]
    if op in ("cn_single", "cn_three_pulse"):
        if op == "cn_single":
            eta = p["eta"]
            if eta is None:
                eta = magic_eta(1, p["k"], p["m"])[0]
            report = cn_gate_single_pulse(p["k"], p["m"], eta, phi=p["phi"])
            extra = {"eta_used": float(eta)}
        else:
            report = cn_gate_three_pulse(
                CouplingParams(Omega=1.0, eta=p["aux_eta"]), phi_a=p["phi_a"]
            )
            extra = {}
        meta = {"basis": " ".join(report.basis)}
        for k, v in report.truth_table.items():
            meta[f"truth {k}"] = v
        U = report.unitary
        row, col = np.indices(U.shape).reshape(2, -1)
        table = {"row": row, "col": col, "re": U.real.ravel(), "im": U.imag.ravel()}
        metrics = {"fidelity_vs_ideal": report.fidelity_vs_ideal, **extra}
        return RunResult(table, metrics, meta)
    if op == "entangle":
        reg = prepare_max_entangled(p["L"])
        ideal = np.zeros_like(reg.amps)
        ideal[0, 0] = ideal[-1, 0] = 1.0 / math.sqrt(2.0)
        spins, bus_n = np.indices(reg.amps.shape).reshape(2, -1)
        table = {"spins": [format(i, f"0{p['L']}b") for i in spins.tolist()],
                 "bus_n": bus_n, "re": reg.amps.real.ravel(),
                 "im": reg.amps.imag.ravel()}
        metrics = {
            "overlap_ideal": float(abs(np.vdot(ideal, reg.amps)) ** 2),
            "bus_excited_weight": reg.bus_excited_weight(),
            "purity_ion0": reg.reduced_spin_purity(0),
        }
        return RunResult(table, metrics)
    # noisy_sequence: one sweep over M_top pulses reads every M on the way.
    # Its largest array holds the normal draws, trials x M_top for each
    # random error (area, phase); everything else is one trial batch.
    M_top = max(p["M_values"])
    if M_top * p["trials"] > _MAX_CELLS:
        raise ConfigError(f"params.trials: must be <= {_MAX_CELLS // M_top} "
                          f"with M_values up to {M_top}")
    base = PulseSpec("carrier", p["theta"], CouplingParams(Omega=1.0, eta=0.0))
    model = {"zeta_rms": p["zeta_rms"], "phi_rms": p["phi_rms"],
             "systematic": p["systematic"]}
    sweep = noisy_sequence_fidelity([base] * M_top, model, trials=p["trials"],
                                    base_seed=seed, lengths=p["M_values"])
    F = np.array([r["F_mean"] for r in sweep])
    infid = 1.0 - F
    coeff = [r["quadratic_fit"]["coefficient"] for r in sweep]
    table = {"M": p["M_values"], "F_mean": F, "F_std": [r["F_std"] for r in sweep],
             "infidelity": infid, "quad_coeff": coeff}
    top = p["M_values"].index(M_top)
    metrics = {"infidelity_at_max_M": float(infid[top]), "quad_coeff_at_max_M": coeff[top]}
    logs = [(math.log(M), math.log(i)) for M, i in zip(p["M_values"], infid) if i > 0]
    if len(logs) >= 2:
        logM, logI = zip(*logs)
        metrics["infidelity_slope_vs_M"] = float(np.polyfit(logM, logI, 1)[0])
    return RunResult(table, metrics)


_INITIAL_SCHEMA = {
    "type": Field("str", required=True,
                  choices={"thermal": ("nbar",), "fock": ("n",)}),
    "nbar": Field("number", required=True),
    "n": Field("int", default=0, lo=0),
    # (n_max + 1) x (n_max + 1) density matrix
    "n_max": Field("int", required=True, lo=1, hi=math.isqrt(_MAX_CELLS) - 1),
}

_COOL_SCHEMA = {
    "eta": Field("number", required=True),
    "omega_z": Field("quantity", unit="Hz", angular=True, required=True),
    "omega_R": Field("quantity", unit="Hz", angular=True, required=True),
    "gamma_rad": Field("quantity", unit="Hz", angular=True, required=True),
    "strategy": Field("str", default="randomized", choices={
        "fixed": ("pulse_area",), "randomized": (), "schedule": ("schedule",)}),
    "cycles": Field("int", default=50, hi=_MAX_CELLS // 3 - 1),
    "pulse_area": Field("number"),
    "schedule": Field("number_list", required=True),
    "scatters_per_cycle": Field("int", default=2, hi=_MAX_CELLS - 1),
    "initial": Field("block", required=True, schema=_INITIAL_SCHEMA),
}


def _run_cool(p: dict, seed: int) -> RunResult:
    dm = _diag_density(p["initial"])
    cfg = CoolingConfig(
        eta=p["eta"], omega_z=p["omega_z"], omega_R=p["omega_R"],
        gamma_rad=p["gamma_rad"], pulse_strategy=p["strategy"],
        cycles=p["cycles"], pulse_area=p["pulse_area"],
        schedule=tuple(p["schedule"] or ()),
        scatters_per_cycle=p["scatters_per_cycle"],
    )
    res = sideband_cool(dm, cfg, seed=seed)
    table = {"cycle": np.arange(res.mean_n.size), "mean_n": res.mean_n, "P0": res.p0}
    metrics = {
        "final_mean_n": float(res.mean_n[-1]),
        "final_P0": float(res.p0[-1]),
        "limit_nbar": cooling_limit(cfg.gamma_rad, cfg.omega_z),
        "recoil_ratio": cfg.recoil_ratio,
    }
    return RunResult(table, metrics)


_HEAT_SCHEMA = {
    "op": Field("str", required=True, choices={
        "master_equation": ("gamma", "nbar", "initial", "t_end", "points"),
        "estimators": ("mass", "charge", "resistive", "stray_field", "patch",
                       "collisions")}),
    "gamma": Field("quantity", unit="Hz", required=True),   # relaxation rate, 1/s
    "nbar": Field("number", required=True),
    "initial": Field("block", required=True, schema=_INITIAL_SCHEMA),
    "t_end": Field("quantity", unit="s", required=True),
    "points": Field("int", default=60, lo=2, hi=_MAX_CELLS // 5),
    # ion properties shared by the estimator blocks
    "mass": Field("quantity", unit="kg"),
    "charge": Field("quantity", unit="C"),
    "resistive": Field("block", schema={
        "r": Field("quantity", unit="Ohm", required=True),
        "T": Field("quantity", unit="K", required=True),
        "omega_z": Field("quantity", unit="Hz", angular=True, required=True),
        "ell_L": Field("number"),                   # equivalent inductance, H
        "d": Field("quantity", unit="m"),
        "alpha": Field("number"),
    }),
    "stray_field": Field("block", schema={
        "omega_z": Field("quantity", unit="Hz", angular=True, required=True),
        "S_U": Field("number", required=True),      # voltage noise, V^2 s
        "U0": Field("quantity", unit="V", required=True),
        "E_s": Field("number", required=True),      # static field, V/m
    }),
    "patch": Field("block", schema={
        "theta": Field("number", required=True),
        "D": Field("number", required=True),
        "kappa_patch": Field("number", required=True),
        "r_a": Field("quantity", unit="m", required=True),
        "a_p": Field("quantity", unit="m", required=True),
        "omega_z": Field("quantity", unit="Hz", angular=True, required=True),
        "ell_L": Field("number", required=True),
    }),
    "collisions": Field("block", schema={
        "polarizability": Field("number", required=True),   # volume, m^3
        "gas_mass": Field("quantity", unit="kg", required=True),
        "pressure": Field("quantity", unit="Pa", required=True),
        "T": Field("quantity", unit="K", required=True),
    }),
}


def _run_heat(p: dict, seed: int) -> RunResult:
    if p["op"] == "master_equation":
        b = BathParams(gamma=p["gamma"], nbar=p["nbar"])
        grid = np.linspace(0.0, p["t_end"], p["points"])
        states = master_equation_trajectory(_diag_density(p["initial"]), b,
                                            p["t_end"], p["points"] - 1)
        rows = []
        for t, rho in zip(grid, states):
            d = np.real(np.diag(rho.rho))
            rows.append((t, rho.mean_n(), d[0], d[1], d[2] if rho.n_max >= 2 else 0.0))
        table = _table(("t [s]", "mean_n", "P0", "P1", "P2"), rows)
        mean_n = table["mean_n"]
        p_th = b.thermal_populations(rho.n_max)
        closed = mean_n_evolution(mean_n[0], b, p["t_end"])
        metrics = {
            "final_mean_n": mean_n[-1],
            "final_tv_vs_thermal": float(0.5 * np.sum(np.abs(d - p_th))),
            "mean_n_closed_abs_err": abs(mean_n[-1] - closed),
            "trace_defect": abs(rho.trace() - 1.0),
        }
        return RunResult(table, metrics)
    # estimators
    rows, metrics = [], {}
    if p["resistive"] is not None:
        rs = p["resistive"]
        _require_positive(rs, ("ell_L", "d"), "params.resistive")
        if rs["ell_L"] is not None:
            for k in ("d", "alpha"):
                if rs[k] is not None:
                    raise ConfigError(f"params.resistive.{k}: conflicts with ell_L")
            ell_L = rs["ell_L"]
        elif rs["d"] is not None:
            _require(p, ("mass", "charge"), "estimators (resistive geometry)")
            alpha = {} if rs["alpha"] is None else {"alpha": rs["alpha"]}
            ell_L = series_inductance(p["mass"], rs["d"], p["charge"], **alpha)
        else:
            raise ConfigError("params.resistive: needs ell_L or d")
        t = resistive_heating_time(rs["r"], rs["T"], rs["omega_z"], ell_L)
        rows.append(("resistive_t_star", t, "s"))
        metrics["resistive_t_star_s"] = t
    if p["stray_field"] is not None:
        sf = p["stray_field"]
        _require(p, ("mass", "charge"), "estimators (stray_field)")
        t = stray_field_heating_time(p["mass"], p["charge"], sf["omega_z"],
                                     sf["S_U"], sf["U0"], sf["E_s"])
        rows.append(("stray_field_t_star", t, "s"))
        metrics["stray_field_t_star_s"] = t
    if p["patch"] is not None:
        pa = p["patch"]
        _require_positive(pa, ("ell_L",), "params.patch")
        t = patch_heating_time(pa["theta"], pa["D"], pa["kappa_patch"],
                               pa["r_a"], pa["a_p"], pa["omega_z"], pa["ell_L"])
        rows.append(("patch_t_star", t, "s"))
        metrics["patch_t_star_s"] = t
    if p["collisions"] is not None:
        co = p["collisions"]
        _require(p, ("mass", "charge"), "estimators (collisions)")
        cr = collision_rates(co["polarizability"], co["gas_mass"], co["pressure"],
                             co["T"], p["mass"], charge=p["charge"])
        for k, unit, tag in (("k_langevin", "m^3/s", "m3_per_s"),
                             ("gamma_langevin", "1/s", "per_s"),
                             ("k_elastic", "m^3/s", "m3_per_s"),
                             ("gamma_elastic", "1/s", "per_s"),
                             ("v_thermal", "m/s", "m_per_s")):
            rows.append((k, getattr(cr, k), unit))
            metrics[f"{k}_{tag}"] = getattr(cr, k)
    if not rows:
        raise ConfigError(
            "params: estimators op needs at least one of "
            "resistive/stray_field/patch/collisions"
        )
    d = p["resistive"]["d"] if p["resistive"] is not None else None
    if p["stray_field"] is None and p["collisions"] is None and d is None:
        for k in ("mass", "charge"):
            if p[k] is not None:
                raise ConfigError(f"params.{k}: read only by stray_field, "
                                  "collisions or a resistive block with d")
    return RunResult(_table(("estimate", "value", "unit"), rows), metrics)


_NOISE_SCHEMA = {
    "op": Field("str", required=True, choices={
        "debye_waller": ("mode_count", "eta", "nbar", "epsilon",
                         "epsilon_values"),
        "envelopes": ("Omega", "slow_rms", "fast_ratio", "omega_amp", "tau"),
        "spectator": ("Omega", "Omega_prime", "Delta", "duration",
                      "smooth_duration", "ramp_width")}),
    "mode_count": Field("int", required=True, lo=1, hi=_MAX_CELLS),
    "eta": Field("number", required=True),
    "nbar": Field("number", required=True),
    "epsilon": Field("number", required=True),
    "epsilon_values": Field("number_list"),
    "Omega": Field("quantity", unit="Hz", angular=True, required=True),
    "slow_rms": Field("quantity", unit="Hz", angular=True, required=True),
    "fast_ratio": Field("number", required=True),
    "omega_amp": Field("quantity", unit="Hz", angular=True, required=True),
    "tau": Field("block", required=True, schema=_TAU_SCHEMA),
    "Omega_prime": Field("quantity", unit="Hz", angular=True, required=True),
    "Delta": Field("quantity", unit="Hz", angular=True, required=True),
    "duration": Field("quantity", unit="s", required=True),
    "smooth_duration": Field("quantity", unit="s"),   # default: same as duration
    "ramp_width": Field("quantity", unit="s"),
}


def _run_noise(p: dict, seed: int) -> RunResult:
    op = p["op"]
    if op == "debye_waller":
        ens = ModeEnsemble(etas=[p["eta"]] * p["mode_count"],
                           nbars=[p["nbar"]] * p["mode_count"])
        st = debye_waller_stats(ens)
        eps_list = p["epsilon_values"] or [
            p["epsilon"] * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        table = {"epsilon": eps_list, "prob_within": [st.prob_within(e) for e in eps_list]}
        metrics = {
            "mean_factor": st.mean_factor,
            "rms_exact": st.rms_exact,
            "rms_small_eta": st.rms_small_eta,
            "prob_within": float(st.prob_within(p["epsilon"])),
        }
        return RunResult(table, metrics)
    if op == "envelopes":
        tau = _tau_grid(p["tau"], "params.tau")
        gauss, lap = (slow_amplitude_noise_envelope(shape, p["slow_rms"], tau, p["Omega"])
                      for shape in ("gaussian", "laplacian"))
        fast = fast_amplitude_noise_visibility(
            p["fast_ratio"] * p["omega_amp"], p["omega_amp"], tau, p["Omega"]
        )
        table = {"tau [s]": tau, "slow_gaussian": gauss, "slow_laplacian": lap,
                 "fast_closed": fast["closed_form"], "fast_exact": fast["phi_average"]}
        rms = p["slow_rms"]       # without slow noise the contrast never halves
        metrics = {
            "gauss_half_contrast_s": (math.sqrt(math.log(2.0) / 2.0) / rms
                                      if rms > 0 else math.inf),
            "laplace_half_contrast_s": (1.0 / (math.sqrt(2.0) * rms)
                                        if rms > 0 else math.inf),
            "fast_max_closed_err": float(
                np.max(np.abs(fast["closed_form"] - fast["phi_average"]))
            ),
        }
        return RunResult(table, metrics)
    # spectator
    smooth_T = (p["smooth_duration"] if p["smooth_duration"] is not None
                else p["duration"])
    tau_r = p["ramp_width"] if p["ramp_width"] is not None else smooth_T / 4.0
    sq = spectator_leakage(p["Omega"], p["Omega_prime"], p["Delta"],
                           envelope="square", duration=p["duration"])
    sm = spectator_leakage(p["Omega"], p["Omega_prime"], p["Delta"],
                           envelope="smooth", duration=smooth_T,
                           tau_r=tau_r)
    table = {"envelope": ["square", "smooth"],
             **{k: [sq[k], sm[k]] for k in ("C_s_final", "adiabatic_estimate", "norm_defect")}}
    metrics = {
        "square_C_s": sq["C_s_final"],
        "smooth_C_s": sm["C_s_final"],
        "suppression_ratio": (sq["C_s_final"] / sm["C_s_final"]
                              if sm["C_s_final"] > 0 else math.inf),
        "drive_ratio": p["Omega_prime"] / p["Delta"],
    }
    return RunResult(table, metrics)


_CLOCK_SCHEMA = {
    "mode": Field("str", default="constrained_K3",
                  choices={"constrained_K3": ("K3",), "constrained_K1": ()}),
    "L_values": Field("int_list", required=True),
    "n_values": Field("number_list", required=True),
    "epsilon_values": Field("number_list", default=(0.5, 1.0)),
    "C": Field("number", required=True),
    "K2": Field("number", default=2.0),
    "K3": Field("number", default=10.0),
    "tau": Field("quantity", unit="s", required=True),
}


def _run_clock(p: dict, seed: int) -> RunResult:
    rows, metrics = [], {}
    for L in p["L_values"]:
        for n in p["n_values"]:
            dw = {}
            for eps in p["epsilon_values"]:
                cp = ClockParams(L=L, tau=p["tau"], C=p["C"], n_exp=n,
                                 K2=p["K2"], K3=p["K3"], epsilon=eps)
                out = clock_lock_analysis(cp, mode=p["mode"])
                margin = out.get("K1", out.get("K3"))
                rows.append((L, n, eps, out["T_R"], out["delta_omega"], margin))
                dw[eps] = out["delta_omega"]
            if 0.5 in dw and 1.0 in dw:
                metrics[f"gain.L{L}.n{n:g}"] = dw[0.5] / dw[1.0]
    header = ("L", "n_exp", "epsilon", "T_R [s]", "delta_omega [rad/s]", "margin")
    return RunResult(_table(header, rows), metrics)


_TOMO_SCHEMA = {
    "op": Field("str", required=True, choices={
        "populations": ("populations", "gamma0", "tau", "n_cut", "noise_sigma"),
        "coherence": ("state",)}),
    "populations": Field("number_list", required=True),
    "Omega": Field("quantity", unit="Hz", angular=True, required=True),
    "eta": Field("number", required=True),
    "gamma0": Field("quantity", unit="Hz", required=True),   # base decay rate, 1/s
    "tau": Field("block", required=True, schema=_TAU_SCHEMA),
    # inversion basis: tau.points x (n_cut + 1)
    "n_cut": Field("int", required=True, hi=_MAX_CELLS // _TAU_SCHEMA["points"].hi - 1),
    "noise_sigma": Field("number", default=0.0),
    "state": Field("str", required=True, choices=("plus", "fock0", "plus_i")),
}

_TOMO_STATES = {
    "plus": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "fock0": (1.0, 0.0),
    "plus_i": (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)),
}


def _run_tomography(p: dict, seed: int) -> RunResult:
    if p["op"] == "populations":
        c = CouplingParams(Omega=p["Omega"], eta=p["eta"])
        tau = _tau_grid(p["tau"], "params.tau")
        sig = rabi_decay_signal(p["populations"], p["gamma0"], c, tau)
        if p["noise_sigma"] > 0:
            rng = np.random.default_rng(seed)
            noisy = np.clip(
                sig.P_down + rng.normal(0.0, p["noise_sigma"], tau.size),
                0.0, 1.0,
            )
            sig = RabiSignal(tau, noisy)
        est = invert_populations(sig, c, p["n_cut"], gamma_model=p["gamma0"])
        truth = np.zeros(p["n_cut"] + 1)
        src = p["populations"][: truth.size]
        truth[: len(src)] = src
        abs_err = np.abs(est["P"] - truth)
        table = {"n": np.arange(truth.size), "P_true": truth,
                 "P_recovered": est["P"], "abs_err": abs_err}
        metrics = {
            "max_abs_error": float(np.max(abs_err)),
            "residual": float(est["residual"]),
            "sum_P_recovered": float(np.sum(est["P"])),
        }
        return RunResult(table, metrics)
    # coherence
    c = CouplingParams(Omega=p["Omega"], eta=p["eta"])
    c0, c1 = _TOMO_STATES[p["state"]]
    n_max = 4
    amps = np.zeros(2 * (n_max + 1), dtype=complex)
    amps[0], amps[1] = c0, c1
    out = coherence_tomography(QuantumState(amps, n_max), c)
    phase, p_down = zip(*sorted(out["P_down"].items()))
    metrics = {"re_rho01": out["re"], "im_rho01": out["im"]}
    return RunResult({"analysis_phase [rad]": phase, "P_down": p_down}, metrics)


_HANDLERS = {
    "trap": (_TRAP_SCHEMA, _run_trap),
    "modes": (_MODES_SCHEMA, _run_modes),
    "rabi": (_RABI_SCHEMA, _run_rabi),
    "gate": (_GATE_SCHEMA, _run_gate),
    "cool": (_COOL_SCHEMA, _run_cool),
    "heat": (_HEAT_SCHEMA, _run_heat),
    "noise": (_NOISE_SCHEMA, _run_noise),
    "clock": (_CLOCK_SCHEMA, _run_clock),
    "tomography": (_TOMO_SCHEMA, _run_tomography),
}


# ---------------------------------------------------------------------------
# output rendering


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):     # most cells
        return repr(float(v))
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def render_csv(name: str, cfg: ExperimentConfig, seed: int,
               result: RunResult) -> str:
    lines = [
        f"# ionsim {__version__}",
        f"# scenario: {name}",
        f"# kind: {cfg.kind}",
        f"# seed: {seed}",
    ]
    if cfg.description:
        lines.append(f"# description: {cfg.description}")
    for k, v in result.meta.items():
        lines.append(f"# {k}: {v}")
    for k, v in result.metrics.items():
        lines.append(f"# metric {k} = {_cell(v)}")
    lines.append(",".join(result.table))
    cells = [list(map(_cell, v)) for v in result.table.values()]
    if len({len(c) for c in cells}) > 1:
        raise ValueError("table columns differ in length: "
                         + ", ".join(f"{h} {len(c)}" for h, c in zip(result.table, cells)))
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def evaluate_expectations(expect: list, metrics: dict) -> list[dict]:
    out = []
    for e in expect:
        name = e["metric"]
        if name not in metrics:
            out.append({"metric": name, "status": "FAIL",
                        "detail": "metric not produced by this run"})
            continue
        v = float(metrics[name])
        if not math.isfinite(v):
            out.append({"metric": name, "status": "FAIL",
                        "detail": f"value {v!r} is not finite"})
            continue
        if e["value"] is not None:
            target = e["value"]
            rtol = e["rtol"] or 0.0
            atol = e["atol"] or 0.0
            if rtol == 0.0 and atol == 0.0:
                rtol = 1e-9
            ok = abs(v - target) <= atol + rtol * abs(target)
            detail = (f"value {v!r} vs {target!r} "
                      f"(rtol={rtol:g}, atol={atol:g})")
        elif e["min"] is not None:
            ok = v >= e["min"]
            detail = f"value {v!r} >= {e['min']!r}"
        else:
            ok = v <= e["max"]
            detail = f"value {v!r} <= {e['max']!r}"
        out.append({"metric": name, "status": "PASS" if ok else "FAIL",
                    "detail": detail})
    return out


def render_manifest(name: str, origin: str, sha: str,
                    cfg: ExperimentConfig, seed: int, strict: bool,
                    outputs: list[str], checks: list[dict],
                    metrics: dict) -> str:
    failed = sum(1 for c in checks if c["status"] == "FAIL")
    lines = [
        "ionsim run manifest",
        f"version: ionsim {__version__}",
        f"python: {sys.version.split()[0]}",
        f"numpy: {np.__version__}",
        f"scipy: {__import__('scipy').__version__}",
        f"config: {origin}",
        f"config_sha256: {sha}",
        f"scenario: {name}",
        f"kind: {cfg.kind}",
        f"seed: {seed}",
        f"strict: {strict}",
        "outputs:",
    ]
    lines.extend(f"  {o}" for o in outputs)
    lines.append("metrics:")
    lines.extend(f"  {k} = {_cell(v)}" for k, v in metrics.items())
    lines.append("expectations:")
    if checks:
        lines.extend(f"  {c['status']} {c['metric']}: {c['detail']}"
                     for c in checks)
        lines.append(
            f"result: {'PASS' if failed == 0 else 'FAIL'} "
            f"({len(checks) - failed}/{len(checks)} expectations)"
        )
    else:
        lines.append("  (none declared)")
        lines.append("result: PASS (no expectations declared)")
    return "\n".join(lines) + "\n"


def _plot_files(name: str, cfg: ExperimentConfig, result: RunResult) -> list:
    """(filename, svg text) per plot block; columns named without their unit."""
    out = []
    headers = {h.split(" [")[0]: h for h in result.table}

    def numeric_column(label: str, key: str) -> np.ndarray:
        if label not in headers:
            raise ConfigError(f"{key}: no column named {label!r}")
        try:
            return np.asarray(result.table[headers[label]], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: column {label!r} is not numeric") from None

    for i, pl in enumerate(cfg.plots):
        x = numeric_column(pl["x"], f"plot[{i}].x")
        series = [(yname, numeric_column(yname, f"plot[{i}].y"))
                  for yname in pl["y"]]
        svg = line_plot(x, series, title=pl["title"], xlabel=headers[pl["x"]],
                        ylabel=pl["y"][0] if len(pl["y"]) == 1 else "")
        default = f"{name}.svg" if len(cfg.plots) == 1 else f"{name}_{i}.svg"
        out.append((pl["file"] or default, svg))
    return out


# ---------------------------------------------------------------------------
# scenario discovery


_SCENARIO_DIR = resources.files("ionsim").joinpath("scenarios")


def list_scenarios() -> list[dict]:
    """Bundled scenario descriptors in stable (sorted) order."""
    out = []
    for entry in sorted(_SCENARIO_DIR.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        cfg = parse_config_text(entry.read_text(encoding="utf-8"),
                                origin=entry.name)
        out.append({
            "name": entry.name[: -len(".json")],
            "kind": cfg.kind,
            "description": cfg.description,
            "expectations": len(cfg.expect),
        })
    return out


def _resolve_config(arg: str) -> tuple[str, str, str]:
    """(origin label, text, default output name) for a path or bundled name."""
    base = os.path.basename(arg)
    if os.path.isfile(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"{arg}: cannot read config ({err})") from err
        return arg, text, os.path.splitext(base)[0] if arg.endswith(".json") else base
    entry = _SCENARIO_DIR.joinpath(arg + ".json")
    if entry.is_file():
        return f"bundled:{arg}", entry.read_text(encoding="utf-8"), base
    raise ConfigError(
        f"{arg}: no such config file or bundled scenario "
        "(try 'ionsim list')"
    )


# ---------------------------------------------------------------------------
# commands


def _cmd_run(args) -> int:
    origin, text, default_name = _resolve_config(args.config)
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    cfg = parse_config_text(text, origin=origin)
    seed = args.seed if args.seed is not None else cfg.seed
    strict = bool(args.strict or cfg.strict)
    name = cfg.output or default_name

    schema, handler = _HANDLERS[cfg.kind]
    params = validate_block(cfg.params, schema, "params")
    if strict:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = handler(params, seed)
    else:
        result = handler(params, seed)

    out_dir = args.out or "."
    files = [(os.path.join(out_dir, fname), body) for fname, body in
             [(f"{name}.csv", render_csv(name, cfg, seed, result)),
              *_plot_files(name, cfg, result)]]
    outputs = [path for path, _ in files]
    checks = evaluate_expectations(cfg.expect, result.metrics)
    manifest_path = os.path.join(out_dir, f"{name}.manifest.txt")
    files.append((manifest_path, render_manifest(
        name, origin, sha, cfg, seed, strict, outputs, checks, result.metrics)))
    outputs.append(manifest_path)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out: cannot make output directory ({err})") from err
    for path, body in files:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(body)
        except OSError as err:
            raise ConfigError(f"{path}: cannot write output ({err})") from err

    failed = sum(1 for c in checks if c["status"] == "FAIL")
    if args.json:
        print(json.dumps({
            "scenario": name,
            "kind": cfg.kind,
            "seed": seed,
            "metrics": {k: float(v) if math.isfinite(v) else None
                        for k, v in result.metrics.items()},
            "expectations": checks,
            "outputs": outputs,
            "result": "PASS" if failed == 0 else "FAIL",
        }, indent=1, sort_keys=True, allow_nan=False))
    else:
        print(f"scenario {name} (kind {cfg.kind}, seed {seed})")
        for o in outputs:
            print(f"wrote {o}")
        for c in checks:
            print(f"{c['status']} {c['metric']}: {c['detail']}")
        if checks:
            print(f"result: {'PASS' if failed == 0 else 'FAIL'} "
                  f"({len(checks) - failed}/{len(checks)} expectations)")
    return 0


def _cmd_list(args) -> int:
    scenarios = list_scenarios()
    if args.json:
        print(json.dumps(scenarios, indent=1, sort_keys=True))
        return 0
    width = max((len(s["name"]) for s in scenarios), default=4)
    print(f"{'name'.ljust(width)}  {'kind'.ljust(10)}  description")
    for s in scenarios:
        print(f"{s['name'].ljust(width)}  {s['kind'].ljust(10)}  "
              f"{s['description']}")
    return 0


def _seed_arg(text: str) -> int:
    """--seed's type: an int within the config seed's bound (>= 0)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionsim",
        description="Trapped-ion coherent-control simulator: run experiment "
                    "configs, emit CSV/SVG/manifest outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config",
                       help="path to a JSON config, or a bundled scenario name")
    run_p.add_argument("--strict", action="store_true",
                       help="escalate model warnings to errors (exit 3)")
    run_p.add_argument("--seed", type=_seed_arg, default=None,
                       help="override the config seed")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--json", action="store_true",
                       help="print a JSON run summary")
    list_p = sub.add_parser("list", help="list bundled scenarios")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable listing")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    """Run the ``ionsim`` command line on argv (default ``sys.argv[1:]``).

    Returns the exit code; argparse exits 2 itself on a malformed command
    line. The parser is built once, at import, so calling ``main`` again
    in the same process only parses: every call gets a fresh namespace,
    and nothing one call sets is read by the next.
    """
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_list(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Warning as warn:
        print(f"strict: {type(warn).__name__}: {warn}", file=sys.stderr)
        return 3
    except (IonsimError, ArithmeticError, ValueError) as err:
        # arithmetic that overflows, divides by zero or leaves a math domain
        # (numpy's LinAlgError is a ValueError) is a physics error as well
        print(f"physics error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
