"""Fast tests of the benchmark's own logic (no timing).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
it imports ionsim from ``src/`` of this checkout.
"""

from __future__ import annotations

import math
import os
import sys
import types

import numpy as np
import pytest
from scipy.linalg import expm

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import catalog  # noqa: E402
import kernels  # noqa: E402
from run import import_times_ms  # noqa: E402
from spans import Tracer, layer_totals, self_times, span_calls  # noqa: E402
from worker import strict_json  # noqa: E402


# --- span arithmetic -------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1],
             ["b", 1.0, 3.0, 0],
             ["c", 4.0, 8.0, 0],
             ["d", 5.0, 6.0, 2]]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_layer_totals_scenario_and_io_and_unaccounted():
    spans = [["scenario.x", 0.000, 0.010, -1],
             ["cli.handler", 0.001, 0.007, 0],
             ["config.validate", 0.0075, 0.0095, 0],
             ["config.validate", 0.008, 0.009, 2],
             ["scenario.y", 0.011, 0.012, -1]]
    out = layer_totals(spans, pass_wall_s=0.015)
    assert out["scenario.x_ms"] == pytest.approx(10.0)
    assert out["scenario.y_ms"] == pytest.approx(1.0)
    assert out["cli.io_ms"] == pytest.approx(10.0 - 6.0 - 2.0 + 1.0)
    assert out["cli.handler_ms"] == pytest.approx(6.0)
    # recursion: both levels' self times add to the outer call's duration
    assert out["config.validate_ms"] == pytest.approx(2.0)
    assert out["bench.unaccounted_ms"] == pytest.approx(15.0 - 11.0)
    assert span_calls(spans) == {"scenario.x": 1, "cli.handler": 1,
                                 "config.validate": 2, "scenario.y": 1}


def test_tracer_wraps_every_binding_and_restores():
    fake = types.ModuleType("ionsim._bench_selftest_a")
    user = types.ModuleType("ionsim._bench_selftest_b")

    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * 2

    def scalar(x):
        return x

    fake.inner, fake.outer, fake.scalar = inner, outer, scalar
    user.inner = inner                  # as after "from .a import inner"
    handlers = {"k": ("schema", outer)}
    sys.modules[fake.__name__], sys.modules[user.__name__] = fake, user
    try:
        tr = Tracer()
        tr.install([("a.outer", outer), ("a.inner", inner)], [("a.scalar_calls", scalar)],
                   handlers)
        assert fake.outer(1) == 4 and user.inner(1) == 2
        assert handlers["k"][1](0) == 2
        fake.scalar(0), fake.scalar(0)
        tr.uninstall()
        assert fake.inner is inner and user.inner is inner and fake.outer is outer
        assert handlers["k"] == ("schema", outer)
        names = [s[0] for s in tr.spans]
        assert names == ["a.outer", "a.inner", "a.inner", "cli.handler", "a.inner"]
        assert tr.spans[1][3] == 0 and tr.spans[4][3] == 3   # parent links
        assert tr.take_counts() == {"a.scalar_calls": 2}
        assert tr.counts == {}
    finally:
        del sys.modules[fake.__name__], sys.modules[user.__name__]


def test_import_times_parse_cumulative_ms():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        340 |   scipy.constants\n"
            "import time:        50 |       2500 | ionsim._config\n"
            "UserWarning: unrelated\n")
    assert import_times_ms(text) == {"scipy.constants": 0.34, "ionsim._config": 2.5}


def test_strict_json_rejects_nan_and_infinity():
    assert strict_json('{"a": 1.5}') == {"a": 1.5}
    for bad in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            strict_json(bad)


def test_benchmark_json_names_only_producible_layer_figures():
    import json
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["per_layer"]} <= catalog.layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)


def test_first_passes_are_spread_over_the_fresh_processes():
    for w in catalog.WORKLOADS:
        chosen = [i for i in range(catalog.FRESH_PROCESSES[w]) if catalog.runs_first_pass(w, i)]
        assert len(chosen) == catalog.FIRST_PASSES[w] and chosen[0] == 0
    assert [i for i in range(5) if catalog.runs_first_pass("cli_heavy", i)] == [0, 2, 4]


# --- reference formulas ----------------------------------------------------


def test_mean_n_closed_limits():
    assert kernels.mean_n_closed(3.0, 0.5, 2.0, 0.0) == 3.0
    assert kernels.mean_n_closed(3.0, 0.5, 2.0, 50.0) == pytest.approx(0.5)


def test_first_sideband_rates_match_displacement_matrix_elements():
    # <n+1| exp(i eta (a + a^dagger)) |n> in a large truncation
    dim, eta = 80, 0.2
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    D = expm(1j * eta * (a + a.T))
    n = np.arange(10)
    brute = np.abs(D[n + 1, n])
    assert np.allclose(np.abs(kernels.first_sideband_rates(1.0, eta, n)), brute, atol=1e-12)


def test_spectator_reference_without_spectator_is_rabi_flopping():
    Omega, T, tau_r = 0.7, 9.0, 2.0
    square = {"Omega": Omega, "Omega_p": 0.0, "Delta": 50.0, "envelope": "square",
              "T": T, "tau_r": None}
    v = kernels.spectator_reference(square)
    assert abs(v[0]) == pytest.approx(abs(math.cos(Omega * T)), abs=1e-12)
    assert abs(v[2]) == pytest.approx(0.0, abs=1e-12)
    # raised-cosine ramps each carry half their width of pulse area
    smooth = dict(square, envelope="smooth", tau_r=tau_r)
    v = kernels.spectator_reference(smooth)
    assert abs(v[0]) == pytest.approx(abs(math.cos(Omega * (T - tau_r))), abs=1e-9)


def test_chain_forces_vanish_at_known_equilibria():
    x2 = 4.0 ** (-1.0 / 3.0)
    x3 = (5.0 / 4.0) ** (1.0 / 3.0)
    assert np.allclose(kernels.chain_forces(np.array([-x2, x2])), 0.0, atol=1e-14)
    assert np.allclose(kernels.chain_forces(np.array([-x3, 0.0, x3])), 0.0, atol=1e-14)


def test_flop_signal_starts_in_the_lower_state():
    P = np.array([0.5, 0.3, 0.2])
    sig = kernels.flop_signal(P, 1.0, 0.1, 0.01, np.array([0.0, 1.0]))
    assert sig[0] == pytest.approx(1.0)
    assert 0.0 <= sig[1] <= 1.0


# --- kernel_sweep inputs ----------------------------------------------------


def test_pass_inputs_depend_on_seed_and_pass_only():
    a, b = kernels.build_pass(5, 2), kernels.build_pass(5, 2)
    c = kernels.build_pass(5, 3)
    assert [op[0] for op in a] == [op[0] for op in c]
    assert a[0][3]["gamma"] == b[0][3]["gamma"] != c[0][3]["gamma"]
    # the work-setting parameters are the same in every pass
    for p, q in zip(a, c):
        if p[0].startswith("master_equation_evolve"):
            assert math.ceil(p[3]["t"] / p[3]["dt"]) == math.ceil(q[3]["t"] / q[3]["dt"])
        if p[0].startswith("spectator_leakage"):
            assert p[3]["Delta"] * p[3]["T"] == pytest.approx(q[3]["Delta"] * q[3]["T"])


def test_known_failure_is_only_the_negative_area_case():
    from ionsim.errors import ModelInputError, RangeError
    err = RangeError("injected area error drives the pulse area negative")
    assert kernels.is_known_failure("noisy_sequence_fidelity.negative_area", err)
    assert not kernels.is_known_failure("noisy_sequence_fidelity.random", err)
    assert not kernels.is_known_failure("noisy_sequence_fidelity.negative_area",
                                        ModelInputError("other"))
