"""Tests for the per-cycle sideband-cooling rate model.

Oracles used here and nowhere else:

* An independently coded per-cycle stochastic matrix (explicit transfer
  plus binomial recoil stencil), replaying the recorded pulse areas, for
  the dual-route population check.
* scipy.constants re-evaluation of hbar*k^2/(2m) for the recoil helper.
* Closed forms asserted directly: the (gamma/(2*omega_z))^2 floor and
  exact dark/trapped fixed points of the cycle map.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import constants as const

from ionsim.cooling import (
    CoolingConfig,
    _kick_weights,
    cooling_limit,
    recoil_frequency,
    sideband_cool,
)
from ionsim.coupling import CouplingParams, rabi_frequency
from ionsim.errors import (
    ModelInputError,
    RangeError,
    RegimeWarning,
    TruncationWarning,
)
from ionsim.quantum_core import DensityMatrix, make_state


def _fock_diag(n, n_max):
    d = np.zeros(n_max + 1)
    d[n] = 1.0
    return DensityMatrix(np.diag(d).astype(complex), n_max)


def _std_cfg(**over):
    base = dict(
        eta=0.2,
        omega_z=2 * math.pi * 10e6,
        omega_R=2 * math.pi * 20e3,
        gamma_rad=2 * math.pi * 20e3,
        pulse_strategy="randomized",
        cycles=50,
    )
    base.update(over)
    return CoolingConfig(**base)


def _replay_oracle(p0v, cfg, areas):
    # same physics, independent construction: explicit column-stochastic
    # matrix per cycle applied to the population vector
    n_max = p0v.size - 1
    c = CouplingParams(Omega=1.0, eta=cfg.eta)
    r10 = abs(rabi_frequency(1, 0, c))
    h = cfg.omega_R / cfg.omega_z
    s = cfg.scatters_per_cycle
    kick = [math.comb(s, k) * h ** k * (1 - h) ** (s - k) for k in range(s + 1)]
    p = p0v.copy()
    for a in areas:
        m = np.zeros((n_max + 1, n_max + 1))
        m[0, 0] = 1.0
        for n in range(1, n_max + 1):
            t = math.sin(a * abs(rabi_frequency(n, n - 1, c)) / r10) ** 2
            m[n, n] += 1.0 - t
            for k, w in enumerate(kick):
                dest = min(n - 1 + k, n_max)
                m[dest, n] += t * w
        p = m @ p
    return p


# ---------------------------------------------------------------- config


def test_config_validation():
    _std_cfg()
    with pytest.raises(RangeError):
        _std_cfg(eta=0.0)
    with pytest.raises(RangeError):
        _std_cfg(cycles=0)
    with pytest.raises(RangeError):
        _std_cfg(omega_z=0.0)
    with pytest.raises(RangeError):
        _std_cfg(omega_R=-1.0)
    with pytest.raises(RangeError):
        _std_cfg(gamma_rad=-1.0)
    with pytest.raises(ModelInputError):
        _std_cfg(pulse_strategy="adaptive")
    with pytest.raises(ModelInputError):
        _std_cfg(pulse_strategy="schedule")          # schedule list missing
    with pytest.raises(RangeError):
        _std_cfg(pulse_strategy="schedule", schedule=(0.5, -1.0))
    with pytest.raises(RangeError):
        _std_cfg(pulse_area=0.0)
    with pytest.raises(RangeError):
        _std_cfg(scatters_per_cycle=-1)
    assert _std_cfg().recoil_ratio == pytest.approx(0.002, rel=1e-12)


def test_initial_state_must_be_diagonal():
    cfg = _std_cfg()
    r = np.zeros((5, 5), complex)
    r[0, 0] = r[1, 1] = 0.5
    r[0, 1] = r[1, 0] = 0.5
    with pytest.raises(ModelInputError):
        sideband_cool(DensityMatrix(r, 4), cfg)
    with pytest.raises(ModelInputError):
        sideband_cool(np.eye(5), cfg)


def test_recoil_dominated_bath_rejected():
    cfg = _std_cfg(omega_R=2 * math.pi * 10e6)       # ratio 1: model invalid
    with pytest.raises(RangeError, match="recoil dominates"):
        sideband_cool(_fock_diag(1, 5), cfg)


# ---------------------------------------------------------------- analytics


def test_recoil_frequency_beryllium():
    u = const.value("atomic mass constant")
    wr = recoil_frequency(313e-9, 9.012 * u)
    assert wr / (2 * math.pi) == pytest.approx(230e3, rel=0.05)
    ref = const.hbar * (2 * math.pi / 313e-9) ** 2 / (2 * 9.012 * u)
    assert wr == pytest.approx(ref, rel=1e-12)
    with pytest.raises(RangeError):
        recoil_frequency(0.0, 1.0)
    with pytest.raises(RangeError):
        recoil_frequency(313e-9, -1.0)


def test_cooling_limit_value_and_regime():
    got = cooling_limit(2 * math.pi * 20e3, 2 * math.pi * 10e6)
    assert got == pytest.approx(1e-6, rel=1e-12)
    with pytest.raises(RangeError, match="sidebands unresolved"):
        cooling_limit(1.0, 1.0)                      # boundary included
    with pytest.raises(RangeError, match="sidebands unresolved"):
        cooling_limit(2.0, 1.0)
    with pytest.raises(RangeError):
        cooling_limit(-1.0, 1.0)
    with pytest.raises(RangeError):
        cooling_limit(1.0, 0.0)


# ---------------------------------------------------------------- fixed points


def test_ground_state_is_dark():
    res = sideband_cool(_fock_diag(0, 8), _std_cfg(cycles=100), seed=0)
    assert res.populations[0] == 1.0
    assert np.all(res.mean_n == 0.0)
    assert np.all(res.p0 == 1.0)


def test_fixed_area_traps_a_level():
    # pulse area tuned so the 3->2 transition sees an exact multiple of
    # pi: that level becomes a fixed point of the cycle map
    c = CouplingParams(Omega=1.0, eta=0.2)
    area = math.pi * abs(rabi_frequency(1, 0, c)) / abs(rabi_frequency(3, 2, c))
    cfg = _std_cfg(pulse_strategy="fixed", pulse_area=area, cycles=50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)   # eta^2*<n> = 0.12
        res = sideband_cool(_fock_diag(3, 12), cfg)
    assert abs(res.populations[3] - 1.0) <= 1e-3
    assert abs(res.mean_n[-1] - 3.0) <= 1e-3


def test_randomized_strategy_untraps():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        res = sideband_cool(_fock_diag(3, 12), _std_cfg(cycles=100), seed=2)
    assert res.p0[-1] >= 0.99


# ---------------------------------------------------------------- cooldown runs


def test_thermal_cooldown_reaches_ground():
    init = make_state("thermal", nbar=2.0, n_max=45)
    res = sideband_cool(init, _std_cfg(), seed=1)
    assert res.p0[-1] >= 0.9
    assert res.mean_n[-1] <= 0.01
    # conservation and monotonicity cycle by cycle
    assert abs(res.populations.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(res.mean_n) <= 1e-15)
    assert res.mean_n.size == res.p0.size == 51      # initial point + 50 cycles


def test_matches_independent_matrix_replay():
    init = make_state("thermal", nbar=2.0, n_max=45)
    res = sideband_cool(init, _std_cfg(), seed=1)
    ref = _replay_oracle(np.real(np.diag(init.rho)), _std_cfg(), res.pulse_areas)
    assert np.abs(ref - res.populations).max() <= 1e-12


def test_randomized_reaches_ground_across_regimes():
    # P0 >= 0.99 within 200 cycles from nbar = 2 across the Lamb-Dicke
    # range and a 2% recoil ratio, for any seed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for eta in (0.05, 0.1, 0.2, 0.3):
            for seed in (0, 1, 2):
                cfg = CoolingConfig(eta=eta, omega_z=1.0, omega_R=0.02,
                                    gamma_rad=0.001, pulse_strategy="randomized",
                                    cycles=200)
                res = sideband_cool(make_state("thermal", nbar=2.0, n_max=45),
                                    cfg, seed=seed)
                assert res.p0[-1] >= 0.99, (eta, seed)


def test_seed_reproducibility():
    init = make_state("thermal", nbar=1.0, n_max=30)
    cfg = _std_cfg(cycles=20)
    a = sideband_cool(init, cfg, seed=7)
    b = sideband_cool(init, cfg, seed=7)
    d = sideband_cool(init, cfg, seed=8)
    assert np.array_equal(a.pulse_areas, b.pulse_areas)
    assert np.array_equal(a.populations, b.populations)
    assert not np.array_equal(a.pulse_areas, d.pulse_areas)


def test_schedule_strategy_cycles_through_list():
    cfg = _std_cfg(pulse_strategy="schedule", schedule=(0.5, 1.0), cycles=5)
    res = sideband_cool(make_state("thermal", nbar=1.0, n_max=30), cfg)
    assert np.array_equal(res.pulse_areas, [0.5, 1.0, 0.5, 1.0, 0.5])


# ---------------------------------------------------------------- warnings


def test_regime_warning_outside_lamb_dicke_budget():
    # eta^2 * <n> = 0.18 here
    cfg = CoolingConfig(eta=0.3, omega_z=1.0, omega_R=0.02, gamma_rad=0.001,
                        pulse_strategy="randomized", cycles=1)
    with pytest.warns(RegimeWarning):
        sideband_cool(make_state("thermal", nbar=2.0, n_max=45), cfg, seed=0)


def test_truncation_warning_when_recoil_hits_ceiling():
    # heavy recoil on a 4-level ladder starting at the top
    cfg = CoolingConfig(eta=0.1, omega_z=1.0, omega_R=0.4, gamma_rad=0.001,
                        pulse_strategy="randomized", cycles=30)
    with pytest.warns(TruncationWarning):
        res = sideband_cool(_fock_diag(3, 3), cfg, seed=0)
    assert abs(res.populations.sum() - 1.0) <= 1e-12   # held, not lost


@pytest.mark.parametrize("scatters", [1030, 4_194_303])
def test_kick_weights_fold_the_top_and_sum_to_one(scatters):
    # n_max = 45: kicks of 46 or more quanta share the last weight
    w = _kick_weights(scatters, 0.002, 46)
    assert w.size == 47
    assert abs(w.sum() - 1.0) <= 1e-12


def test_no_recoil_puts_every_kick_at_zero():
    assert np.array_equal(_kick_weights(4_194_303, 0.0, 46), [1.0])


def test_folded_kicks_match_the_matrix_replay():
    # 40 scatters on a 12-level ladder: the kicks above the top are folded
    cfg = CoolingConfig(eta=0.1, omega_z=1.0, omega_R=0.05, gamma_rad=0.001,
                        pulse_strategy="randomized", cycles=20,
                        scatters_per_cycle=40)
    # nbar = 1 on 12 levels leaves a 2^-12 tail: the geometric weights
    # renormalized over the kept levels, heavy at the top
    p = 0.5 ** np.arange(12)
    init = DensityMatrix(np.diag(p / p.sum()).astype(complex), 11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        res = sideband_cool(init, cfg, seed=3)
    ref = _replay_oracle(np.real(np.diag(init.rho)), cfg, res.pulse_areas)
    assert np.abs(ref - res.populations).max() <= 1e-12
