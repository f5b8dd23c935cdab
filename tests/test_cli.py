"""CLI surface: unit grammar, schema validation, exit codes, artifacts.

Runs the command-line entry point in-process through main(argv) so exit
codes and stderr text are checked exactly as a shell would see them; one
subprocess test confirms the module is runnable as `python -m ionsim.cli`.
"""

import argparse
import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ionsim import cli
from ionsim._config import (
    Field,
    parse_config_text,
    parse_quantity,
    validate_block,
)
from ionsim._svg import line_plot
from ionsim.errors import ConfigError, TruncationWarning
from ionsim.trap_model import series_inductance

from golden.make_golden import LEDGER, mismatches, parse_csv


# ---------------------------------------------------------------------------
# unit grammar

QUANTITY_CASES = [
    ("10 MHz", "Hz", 1.0e7),
    ("1.5e3 Hz", "Hz", 1.5e3),
    ("-7 kHz", "Hz", -7.0e3),
    ("17 V", "V", 17.0),
    ("165.7 mV", "V", 0.1657),
    ("200 um", "m", 200e-6),
    ("10 nm", "m", 10e-9),
    ("100 us", "s", 100e-6),
    ("1.146 ms", "s", 1.146e-3),
    ("300 K", "K", 300.0),
    ("10 nPa", "Pa", 10e-9),
    ("41.5 mOhm", "Ohm", 41.5e-3),
]


@pytest.mark.parametrize("text,dim,si", QUANTITY_CASES)
def test_parse_quantity_values(text, dim, si):
    assert parse_quantity(text, dim, "p") == pytest.approx(si, rel=1e-12)


def test_mass_and_charge_units_convert_to_si():
    from scipy.constants import atomic_mass, elementary_charge

    assert parse_quantity("9.0 u", "kg", "p") == pytest.approx(9.0 * atomic_mass)
    assert parse_quantity("2 e", "C", "p") == pytest.approx(2.0 * elementary_charge)


def test_exact_base_match_beats_prefix_split():
    # "u" alone is the mass unit, never micro-<something>
    from scipy.constants import atomic_mass

    assert parse_quantity("1 u", "kg", "p") == pytest.approx(atomic_mass)
    # "um" still resolves as micrometers
    assert parse_quantity("1 um", "m", "p") == pytest.approx(1e-6)


@pytest.mark.parametrize("bad", ["10 MHZz", "10 xyz", "3 uu"])
def test_unknown_unit_rejected_with_path(bad):
    with pytest.raises(ConfigError, match=r"params\.Omega"):
        parse_quantity(bad, "Hz", "params.Omega")


def test_bare_number_rejected_for_quantity():
    with pytest.raises(ConfigError, match="unit suffix"):
        parse_quantity(10000.0, "Hz", "params.Omega")


def test_wrong_dimension_rejected():
    with pytest.raises(ConfigError, match="expected a quantity in Hz"):
        parse_quantity("10 V", "Hz", "params.Omega")


def test_unparseable_quantity_string():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_quantity("fast", "Hz", "p")


@pytest.mark.parametrize("bad", ["1e400 MHz", "1e300 THz", "-1e400 Hz"])
def test_overflowing_quantity_rejected_with_path(bad):
    with pytest.raises(ConfigError, match=r"params\.Omega: .* not a finite number"):
        parse_quantity(bad, "Hz", "params.Omega")


# ---------------------------------------------------------------------------
# schema validation

DEMO_SCHEMA = {
    "omega": Field("quantity", unit="Hz", angular=True, required=True),
    "gamma": Field("quantity", unit="Hz"),
    "eta": Field("number", default=0.1),
    "cycles": Field("int", default=3),
    "mode": Field("str", choices=("fast", "slow"), default="fast"),
    "inner": Field("block", schema={"nbar": Field("number", required=True)}),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_validate_block_rejects_non_finite_numbers(bad):
    with pytest.raises(ConfigError, match=r"params\.eta: .* not a finite number"):
        validate_block({"omega": "1 Hz", "eta": bad}, DEMO_SCHEMA, "params")


def test_validate_block_rejects_angular_overflow():
    # finite in Hz, infinite once multiplied by 2*pi
    with pytest.raises(ConfigError, match=r"params\.omega: .* not a finite number"):
        validate_block({"omega": "1e308 Hz"}, DEMO_SCHEMA, "params")


def test_envelope_overlong_integer_is_config_error():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config_text('{"kind": "rabi", "seed": ' + "9" * 5000 + "}")


def test_validate_block_converts_and_defaults():
    out = validate_block({"omega": "1 MHz", "gamma": "2 kHz"}, DEMO_SCHEMA, "params")
    assert out["omega"] == pytest.approx(2.0 * math.pi * 1e6)
    assert out["gamma"] == pytest.approx(2e3)      # rate field, no 2*pi
    assert out["eta"] == 0.1
    assert out["cycles"] == 3
    assert out["inner"] is None


def test_validate_block_unknown_key_dotted_path():
    with pytest.raises(ConfigError, match=r"params\.Omge: unknown key"):
        validate_block({"omega": "1 MHz", "Omge": 1}, DEMO_SCHEMA, "params")


def test_validate_block_missing_required():
    with pytest.raises(ConfigError, match=r"params\.omega: required"):
        validate_block({}, DEMO_SCHEMA, "params")


def test_validate_block_nested_path_in_error():
    blk = {"omega": "1 MHz", "inner": {"nbar": "two"}}
    with pytest.raises(ConfigError, match=r"params\.inner\.nbar"):
        validate_block(blk, DEMO_SCHEMA, "params")


def test_validate_block_choice_enforced():
    with pytest.raises(ConfigError, match=r"params\.mode"):
        validate_block({"omega": "1 MHz", "mode": "warp"}, DEMO_SCHEMA, "params")


def test_validate_block_bool_not_int():
    with pytest.raises(ConfigError, match=r"params\.cycles"):
        validate_block({"omega": "1 MHz", "cycles": True}, DEMO_SCHEMA, "params")


# ---------------------------------------------------------------------------
# config envelope

def test_envelope_unknown_top_key():
    with pytest.raises(ConfigError, match="plots: unknown key"):
        parse_config_text('{"kind": "rabi", "params": {}, "plots": []}')


def test_envelope_bad_kind():
    with pytest.raises(ConfigError, match="kind: must be one of"):
        parse_config_text('{"kind": "warp", "params": {}}')


def test_envelope_bad_json_names_origin():
    with pytest.raises(ConfigError, match="my.json: not valid JSON"):
        parse_config_text("{nope", origin="my.json")


def test_expect_needs_exactly_one_mode():
    base = {"kind": "rabi", "params": {}}
    base["expect"] = [{"metric": "x", "value": 1.0, "min": 0.5}]
    with pytest.raises(ConfigError, match="exactly one of value/min/max"):
        parse_config_text(json.dumps(base))
    base["expect"] = [{"metric": "x"}]
    with pytest.raises(ConfigError, match="exactly one of value/min/max"):
        parse_config_text(json.dumps(base))


def test_expect_rtol_only_with_value():
    cfg = {"kind": "rabi", "params": {},
           "expect": [{"metric": "x", "min": 0.5, "rtol": 0.1}]}
    with pytest.raises(ConfigError, match="rtol/atol only combine with value"):
        parse_config_text(json.dumps(cfg))


def test_plot_block_normalizes_y_to_list():
    cfg = parse_config_text(json.dumps(
        {"kind": "rabi", "params": {},
         "plot": {"x": "tau", "y": "P_down", "title": "t"}}))
    assert cfg.plots == [{"x": "tau", "y": ["P_down"], "title": "t", "file": None}]


# ---------------------------------------------------------------------------
# exit codes through main(argv)

def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


ENVELOPE_ERRORS = [
    ({"seed": -1}, "seed"),
    ({"strict": "yes"}, "strict"),
    ({"output": ""}, "output"),
    ({"description": 3}, "description"),
    ({"expect": {"metric": "x", "value": 1.0}}, "expect"),
    ({"expect": [{"value": 1.0}]}, "expect[0].metric"),
    ({"expect": [{"metric": "x", "value": math.nan}]}, "expect[0].value"),
    ({"plot": [{"x": "tau", "y": []}]}, "plot[0].y"),
    ({"plot": [{"x": "tau", "y": "P_down", "title": 3}]}, "plot[0].title"),
    ({"params": [1]}, "params"),
]


@pytest.mark.parametrize("change,key", ENVELOPE_ERRORS,
                         ids=[key for _, key in ENVELOPE_ERRORS])
def test_envelope_error_exits_2_naming_its_key(change, key, tmp_path, capsys):
    body = {"kind": "rabi", "params": {}, **change}
    rc = cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


def test_run_malformed_unit_exits_2_with_key_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "kind": "rabi",
        "params": {"op": "ladder", "Omega": "10 MHZz", "eta": 0.15},
    })
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "params.Omega" in err
    assert "MHZz" in err


def test_run_unknown_param_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "kind": "rabi",
        "params": {"op": "ladder", "Omega": "10 kHz", "eta": 0.15, "Omeg": 1},
    })
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "params.Omeg" in capsys.readouterr().err


def test_run_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "no.such.scenario", "--out", str(tmp_path)])
    assert rc == 2
    assert "no such config file or bundled scenario" in capsys.readouterr().err


def _bundled(name):
    return json.loads(cli._SCENARIO_DIR.joinpath(name + ".json").read_text())


@pytest.mark.parametrize("name", ["gate.error_budget", "heat.estimators"])
def test_negative_seed_flag_exits_2_naming_it(name, tmp_path, capsys):
    # --seed keeps the config seed's bound (>= 0), checked as it is parsed
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", name, "--seed", "-5", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _blocked_out(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    return blocker


def _blocked_output(tmp_path):
    out = tmp_path / "out"
    (out / "rabi.ladder.csv").mkdir(parents=True)
    return out


@pytest.mark.parametrize("make_out, blamed", [
    (_blocked_out, "--out: cannot make output directory ("),
    (_blocked_output, "{out}/rabi.ladder.csv: cannot write output ("),
], ids=["out_is_a_file", "output_is_a_directory"])
def test_unwritable_out_exits_2_naming_it(make_out, blamed, tmp_path, capsys):
    out = make_out(tmp_path)
    rc = cli.main(["run", "rabi.ladder", "--json", "--out", str(out)])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.err.startswith("config error: " + blamed.format(out=out))
    assert "Traceback" not in cap.err and cap.out == ""


def test_run_nan_eta_exits_2_naming_key(tmp_path, capsys):
    body = _bundled("rabi.ladder")
    body["params"]["eta"] = math.nan
    cfg = write_cfg(tmp_path, body)
    rc = cli.main(["run", cfg, "--json", "--out", str(tmp_path / "out")])
    cap = capsys.readouterr()
    assert rc == 2
    assert "params.eta" in cap.err and "not a finite number" in cap.err
    assert cap.out == ""


def test_heat_without_relaxation_keeps_exit_contract(tmp_path, capsys):
    body = _bundled("heat.master_equation")
    body["params"]["gamma"] = "0 Hz"
    cfg = write_cfg(tmp_path, body)
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("scenario,key,value", [
    ("rabi.ladder", "Omega", "0 Hz"),
    ("noise.envelopes", "slow_rms", "0 Hz"),
], ids=["rabi.ladder", "noise.envelopes"])
def test_zero_rate_keeps_exit_contract(scenario, key, value, tmp_path, capsys):
    body = _bundled(scenario)
    body["params"][key] = value
    cfg = write_cfg(tmp_path, body)
    rc = cli.main(["run", cfg, "--json", "--out", str(tmp_path / "out")])
    cap = capsys.readouterr()
    assert rc in (0, 2, 3)
    assert "Traceback" not in cap.err
    if scenario == "rabi.ladder":
        # the ladder's metrics are ratios to the carrier, which needs a drive
        assert rc == 2
        assert "params.Omega" in cap.err
        return

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    # noiseless envelopes never lose half their contrast
    doc = json.loads(cap.out, parse_constant=reject)
    assert doc["metrics"]["gauss_half_contrast_s"] is None
    assert doc["metrics"]["laplace_half_contrast_s"] is None
    gauss = [e for e in doc["expectations"] if e["metric"] == "gauss_half_contrast_s"]
    assert gauss and all(e["status"] == "FAIL" for e in gauss)


def test_json_non_finite_metric_is_null_and_fails(tmp_path, capsys):
    # no spectator coupling: both residues vanish and their ratio is inf
    body = _bundled("noise.spectator")
    body["params"]["Omega_prime"] = "0 Hz"
    body["expect"] = [{"metric": "suppression_ratio", "min": 20.0}]
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    rc = cli.main(["run", cfg, "--json", "--out", str(out)])
    assert rc == 0

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    printed = capsys.readouterr().out
    # --json prints the manifest itself
    assert (out / "cfg.manifest.json").read_bytes() == printed.encode("utf-8")
    doc = json.loads(printed, parse_constant=reject)
    assert doc["metrics"]["suppression_ratio"] is None
    assert doc["expectations"][0]["status"] == "FAIL"
    assert "not finite" in doc["expectations"][0]["detail"]
    assert doc["result"] == "FAIL"


# ---------------------------------------------------------------------------
# edge values: one number of one bundled scenario at a time

EDGE_INTS = (0, -1, 10**400)
EDGE_NUMBERS = (0, -1, 1e308, 1e-308)
EDGE_QUANTITIES = ("0", "-1", "1e300", "1e-300")
UNIT_TOKEN = {"kg": "u", "C": "e"}      # config spelling of an SI dimension


def _edges(f):
    if f.kind in ("int", "int_list"):
        return EDGE_INTS
    if f.kind in ("number", "number_list"):
        return EDGE_NUMBERS
    if f.kind == "quantity":
        unit = UNIT_TOKEN.get(f.unit, f.unit)
        return tuple(f"{v} {unit}" for v in EDGE_QUANTITIES)
    return ()


def _edge_cases(block, schema, path=()):
    """(path to one number of the params, edge value) pairs; a list entry's
    path ends in its index."""
    for key, v in block.items():
        f = schema[key]
        if f.kind == "block":
            yield from _edge_cases(v, f.schema, path + (key,))
            continue
        slots = ([path + (key, i) for i in range(len(v))] if isinstance(v, list)
                 else [path + (key,)])
        for slot in slots:
            for edge in _edges(f):
                yield slot, edge


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("name", [s["name"] for s in cli.list_scenarios()])
def test_edge_values_keep_exit_contract(name, tmp_path, capsys):
    base = _bundled(name)
    broken = []
    for slot, edge in _edge_cases(base["params"], cli._HANDLERS[base["kind"]][0]):
        body = copy.deepcopy(base)
        block = body["params"]
        for k in slot[:-1]:
            block = block[k]
        block[slot[-1]] = edge
        where = f"params.{'.'.join(map(str, slot))} = {repr(edge)[:24]}"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = cli.main(["run", write_cfg(tmp_path, body), "--json",
                               "--out", str(tmp_path / "out")])
            out = capsys.readouterr().out
            if rc == 0:
                _strict_json(out)
            elif rc not in (2, 3):
                broken.append(f"{where}: exit {rc}")
        except Exception as err:
            broken.append(f"{where}: {type(err).__name__}: {err}")
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("scatters", [1030, 4_194_303])
def test_cooling_with_many_repump_scatters_exits_0(scatters, tmp_path, capsys,
                                                   recwarn):
    body = _bundled("cool.sideband")
    body["params"]["scatters_per_cycle"] = scatters
    rc = cli.main(["run", write_cfg(tmp_path, body), "--json",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    _strict_json(capsys.readouterr().out)
    # the clipped mass is reported per cycle, so it is a share of the whole
    clipped = [float(re.search(r"pressed (\S+) population", str(w.message))[1])
               for w in recwarn if issubclass(w.category, TruncationWarning)]
    assert all(0.0 < m <= 1.0 for m in clipped)


def test_spectator_over_step_cap_exits_3(tmp_path, capsys):
    # 1 s of a 100 kHz detuning is 1e5 periods at 60 RK4 steps each
    body = _bundled("noise.spectator")
    body["params"]["duration"] = "1 s"
    rc = cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("physics error: RangeError:")
    assert "6e+06 RK4 steps" in err


@pytest.mark.parametrize("scenario,key,value,cause", [
    ("trap.stability_be", "V0", "400 V", "stability"),          # q_x near 0.54
    ("cool.sideband", "omega_R", "10 MHz", "recoil dominates"),  # omega_R = omega_z
], ids=["trap.stability_be", "cool.sideband"])
def test_model_failure_exits_3_naming_its_cause(scenario, key, value, cause, tmp_path,
                                                capsys):
    body = _bundled(scenario)
    body["params"][key] = value
    rc = cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("physics error: RangeError:")
    assert cause in err


def _bounded_fields(schema, prefix=""):
    """(dotted path, field) for every int or int_list field with a bound."""
    for key, f in schema.items():
        if f.kind == "block":
            yield from _bounded_fields(f.schema, f"{prefix}{key}.")
        elif f.lo is not None or f.hi is not None:
            yield f"{prefix}{key}", f


# every integer that sizes an array, so that dropping its cap fails a case
CAPPED = {
    ("trap", "trajectory.points"), ("trap", "chain.L"), ("modes", "L_values"),
    ("rabi", "n_top"), ("rabi", "tau.points"), ("gate", "L"),
    ("gate", "M_values"), ("gate", "trials"), ("cool", "cycles"),
    ("cool", "scatters_per_cycle"), ("cool", "initial.n_max"),
    ("heat", "initial.n_max"), ("heat", "points"), ("noise", "mode_count"),
    ("noise", "tau.points"), ("tomography", "tau.points"),
    ("tomography", "n_cut"),
}
BOUND_CASES = sorted(
    {(kind, path, side)
     for kind, (schema, _) in cli._HANDLERS.items()
     for path, f in _bounded_fields(schema)
     for side in ("lo", "hi") if getattr(f, side) is not None}
    | {(kind, path, "hi") for kind, path in CAPPED}
)


def _schema_at(kind, blocks):
    schema = cli._HANDLERS[kind][0]
    for b in blocks:
        schema = schema[b].schema
    return schema


def _field(kind, path):
    *blocks, key = path.split(".")
    return _schema_at(kind, blocks)[key]


def _scope(schema, key):
    """The choice field of schema whose choices list key, and those choices."""
    for name, f in schema.items():
        if isinstance(f.choices, dict):
            readers = [c for c, keys in f.choices.items() if key in keys]
            if readers:
                return name, readers
    return None, []


def _sample(f):
    """A value that field f's own checks accept."""
    low = max(f.lo or 1, 1)
    return {"quantity": f"1 {UNIT_TOKEN.get(f.unit, f.unit)}", "number": 1.0,
            "int": low, "int_list": [low], "number_list": [1.0], "bool": True,
            "str": next(iter(f.choices), ""), "block": {}}[f.kind]


# optional blocks that no bundled scenario holds, with their required keys
EXTRA_BLOCKS = {"trap": {"trajectory": {"amplitude": "1 um", "t_end": "1 us"}}}


def _body_at(kind, blocks, name=None, readers=()):
    """A bundled scenario of this kind whose params hold the nested blocks,
    and the innermost of them, with its choice field name at one of
    readers. A scenario already at one comes first; otherwise the first
    one is switched to the first of readers, keeping only the keys that
    choice reads and filling in those it requires."""
    schema = _schema_at(kind, blocks)
    held = None
    for s in cli.list_scenarios():
        if s["kind"] != kind:
            continue
        body = _bundled(s["name"])
        body["params"] = block = {**copy.deepcopy(EXTRA_BLOCKS.get(kind, {})),
                                  **body["params"]}
        for b in blocks:
            block = block.get(b)
            if not isinstance(block, dict):
                break
        else:
            if name is None or block.get(name, schema[name].default) in readers:
                return body, block
            held = held or (body, block)
    if held is None:
        pytest.fail(f"no bundled {kind} scenario holds params.{'.'.join(blocks)}")
    body, block = held
    choices = schema[name].choices
    reads = choices[readers[0]]
    for keys in choices.values():
        for k in set(keys) - set(reads):
            block.pop(k, None)
    block[name] = readers[0]
    block.update({k: _sample(schema[k]) for k in reads
                  if schema[k].required and k not in block})
    return body, block


@pytest.mark.parametrize("kind,path,side", BOUND_CASES,
                         ids=[":".join(case) for case in BOUND_CASES])
def test_integer_bound_exits_2_before_allocating(kind, path, side, tmp_path,
                                                 capsys):
    f = _field(kind, path)
    bound = getattr(f, side)
    assert bound is not None, f"params.{path} of {kind} has no {side} bound"
    *blocks, key = path.split(".")
    body, block = _body_at(kind, blocks, *_scope(_schema_at(kind, blocks), key))
    value = bound + 1 if side == "hi" else bound - 1
    is_list = f.kind == "int_list"
    block[key] = [value] if is_list else value
    cfg = write_cfg(tmp_path, body)
    tracemalloc.start()
    try:
        rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert f"params.{path}{'[0]' if is_list else ''}: must be" in err
    assert peak < 2**20          # a capped field's arrays start at tens of MiB
    assert not (tmp_path / "out").exists()


def test_noise_envelopes_at_the_points_cap_stay_small(tmp_path, capsys):
    # the fast-noise phase average is one Bessel term per point, so no
    # (phases x points) grid is built at any tau.points
    body = _bundled("noise.envelopes")
    body["params"]["tau"]["points"] = cli._TAU_SCHEMA["points"].hi
    cfg = write_cfg(tmp_path, body)
    tracemalloc.start()
    try:
        rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 2 * 2**20


def test_trial_draws_over_the_cap_exit_2_before_drawing(tmp_path, capsys):
    # each field is inside its own cap, but M_values x trials draws are not
    M = 64
    body = _bundled("gate.error_budget")
    body["params"].update(M_values=[4, M], trials=cli._MAX_CELLS // M + 1)
    cfg = write_cfg(tmp_path, body)
    tracemalloc.start()
    try:
        rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert f"params.trials: must be <= {cli._MAX_CELLS // M}" in err
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


def _schemas(schema, prefix=""):
    """(dotted prefix, schema) for a schema and every block schema in it."""
    yield prefix, schema
    for key, f in schema.items():
        if f.kind == "block":
            yield from _schemas(f.schema, f"{prefix}{key}.")


def _choice_pairs(schema):
    """(dotted choice field, choice, key) for each key that some choice of
    the field reads and this choice does not."""
    for prefix, s in _schemas(schema):
        for name, f in s.items():
            if isinstance(f.choices, dict):
                listed = {k for keys in f.choices.values() for k in keys}
                for choice, keys in f.choices.items():
                    for key in sorted(listed - set(keys)):
                        yield f"{prefix}{name}", choice, key


CHOICE_PAIRS = [(kind, *pair) for kind, (schema, _) in cli._HANDLERS.items()
                for pair in _choice_pairs(schema)]


def test_choice_fields_scope_later_keys_of_their_schema():
    for kind, (schema, _) in cli._HANDLERS.items():
        for prefix, s in _schemas(schema):
            order = list(s)
            for name, f in s.items():
                if not isinstance(f.choices, dict):
                    continue
                where = f"{kind} params.{prefix}{name}"
                assert f.required or f.default in f.choices, where
                for key in {k for keys in f.choices.values() for k in keys}:
                    assert key in s, f"{where} lists unknown key {key}"
                    assert order.index(key) > order.index(name), \
                        f"{where} comes after the key {key} it scopes"
    # the (choice, key) pairs the schemas reject; scoping a key moves it
    assert len(CHOICE_PAIRS) == 98


@pytest.mark.parametrize("kind,field,choice,key", CHOICE_PAIRS,
                         ids=[":".join(pair) for pair in CHOICE_PAIRS])
def test_key_of_another_choice_exits_2(kind, field, choice, key, tmp_path,
                                       capsys):
    *blocks, name = field.split(".")
    body, block = _body_at(kind, blocks, name, [choice])
    block[key] = _sample(_schema_at(kind, blocks)[key])
    rc = cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    path = ".".join(blocks + [key])
    assert f"params.{path}: not a parameter of {name} {choice!r}" in err


def test_schedule_strategy_without_schedule_exits_2(tmp_path, capsys):
    body = _bundled("cool.sideband")
    body["params"]["strategy"] = "schedule"
    rc = cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "params.schedule: required key missing" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("d", "10 um"), ("alpha", 0.8)])
def test_resistive_geometry_with_ell_L_exits_2(key, value, tmp_path, capsys):
    body = _bundled("heat.estimators")
    body["params"]["resistive"][key] = value
    rc = cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"params.resistive.{key}: conflicts with ell_L" in capsys.readouterr().err


@pytest.mark.parametrize("block,key,value", [
    ("resistive", "ell_L", -60000.0),
    ("resistive", "ell_L", 0),
    ("patch", "ell_L", 0.0),
    ("patch", "ell_L", -62000.0),
    ("resistive", "d", "0 um"),
    ("resistive", "d", "-260 um"),
], ids=["resistive_ell_L_negative", "resistive_ell_L_zero", "patch_ell_L_zero",
        "patch_ell_L_negative", "resistive_d_zero", "resistive_d_negative"])
def test_estimator_length_not_positive_exits_2(block, key, value, tmp_path, capsys):
    body = _bundled("heat.estimators")
    if key == "d":
        del body["params"]["resistive"]["ell_L"]
    body["params"][block][key] = value
    rc = cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"params.{block}.{key}: must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [{"alpha": 0.8}, {}], ids=["alpha_0.8", "alpha_absent"])
def test_resistive_geometry_matches_ell_L_path(alpha, tmp_path, capsys):
    # a 9 u ion between electrodes 260 um apart: the inductance is about
    # 6.149e4 H, and the default coupling efficiency is 0.8
    def t_star(ion, resistive, out):
        body = {"kind": "heat",
                "params": {"op": "estimators", **ion, "resistive": resistive}}
        rc = cli.main(["run", write_cfg(tmp_path, body), "--json",
                       "--out", str(tmp_path / out)])
        assert rc == 0
        return json.loads(capsys.readouterr().out)["metrics"]["resistive_t_star_s"]

    given = _bundled("heat.estimators")["params"]["resistive"]
    del given["ell_L"]
    ion = {"mass": "9.0 u", "charge": "1 e"}
    ell_L = series_inductance(parse_quantity(ion["mass"], "kg", "p"),
                              parse_quantity("260 um", "m", "p"),
                              parse_quantity(ion["charge"], "C", "p"))
    assert ell_L == pytest.approx(6.149e4, rel=1e-3)
    geometry = t_star(ion, {**given, "d": "260 um", **alpha}, "d")
    assert geometry == t_star({}, {**given, "ell_L": ell_L}, "ell_L")


@pytest.mark.parametrize("extra,block,key", [
    ({"mass": "1e6 u", "charge": "50 e"}, "patch", "mass"),
    ({"mass": "9.0 u"}, "resistive", "mass"),
    ({"charge": "1 e"}, "patch", "charge"),
], ids=["mass_and_charge_beside_patch", "mass_beside_resistive_ell_L",
        "charge_beside_patch"])
def test_estimators_ion_key_without_a_reader_exits_2(extra, block, key,
                                                     tmp_path, capsys):
    # only stray_field, collisions and a resistive block with d read them
    given = _bundled("heat.estimators")["params"][block]
    body = {"kind": "heat", "params": {"op": "estimators", **extra, block: given}}
    rc = cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"params.{key}: read only by stray_field, collisions or a "
            "resistive block with d") in capsys.readouterr().err


def test_run_physics_error_exits_3(tmp_path, capsys):
    # ladder truncated far too low for this bath: trace guard must trip
    cfg = write_cfg(tmp_path, {
        "kind": "heat",
        "params": {"op": "master_equation", "gamma": "1 Hz", "nbar": 2.0,
                   "initial": {"type": "fock", "n": 0, "n_max": 5},
                   "t_end": "5 s", "points": 20},
    })
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("physics error:")


WARN_COOL = {
    "kind": "cool",
    "params": {"eta": 0.4, "omega_z": "10 MHz", "omega_R": "20 kHz",
               "gamma_rad": "20 kHz", "strategy": "fixed", "cycles": 3,
               "initial": {"type": "thermal", "nbar": 2.0, "n_max": 45}},
}


def test_strict_escalates_regime_warning(tmp_path, capsys):
    cfg = write_cfg(tmp_path, WARN_COOL)
    rc = cli.main(["run", cfg, "--strict", "--out", str(tmp_path / "a")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "strict: RegimeWarning" in err


def test_lenient_run_survives_regime_warning(tmp_path):
    cfg = write_cfg(tmp_path, WARN_COOL)
    with pytest.warns(Warning):
        rc = cli.main(["run", cfg, "--out", str(tmp_path / "b")])
    assert rc == 0


def test_strict_flag_in_config_file(tmp_path, capsys):
    body = dict(WARN_COOL)
    body["strict"] = True
    cfg = write_cfg(tmp_path, body)
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "c")])
    assert rc == 3
    assert "strict:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# artifacts

LADDER = {
    "kind": "rabi",
    "description": "coupling ladder",
    "params": {"op": "ladder", "Omega": "50 kHz", "eta": 0.15, "n_top": 6},
    "expect": [{"metric": "blue0_over_carrier0", "value": 0.15}],
    "plot": {"x": "n", "y": ["carrier", "blue_sideband"], "title": "ladder"},
}


def test_run_writes_csv_svg_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LADDER)
    out = tmp_path / "out"
    rc = cli.main(["run", cfg, "--out", str(out)])
    assert rc == 0
    csv = (out / "cfg.csv").read_text()
    assert csv.startswith("# ionsim ")
    assert "# kind: rabi" in csv
    assert "# metric blue0_over_carrier0 = 0.15" in csv
    header = [ln for ln in csv.splitlines() if not ln.startswith("#")][0]
    assert header.startswith("n,")
    svg = (out / "cfg.svg").read_text()
    assert svg.startswith("<svg ") and "polyline" in svg
    man = json.loads((out / "cfg.manifest.json").read_text())
    assert [(c["status"], c["metric"]) for c in man["expectations"]] == \
        [("PASS", "blue0_over_carrier0")]
    assert man["result"] == "PASS"
    assert re.fullmatch(r"[0-9a-f]{64}", man["config_sha256"])


def test_output_key_renames_artifacts(tmp_path):
    body = dict(LADDER)
    body["output"] = "ladder_run"
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "ladder_run.csv").exists()
    assert (out / "ladder_run.svg").exists()
    assert (out / "ladder_run.manifest.json").exists()


@pytest.mark.parametrize("change,key", [
    ({"output": "../x"}, "output"),
    ({"output": "sub/x"}, "output"),
    ({"output": "/abs/x"}, "output"),
    ({"output": ".."}, "output"),
    ({"plot": {"x": "n", "y": "carrier", "file": "../p.svg"}}, "plot[0].file"),
], ids=["parent", "subdir", "absolute", "dotdot", "plot_file"])
def test_output_name_with_a_path_exits_2_writing_nothing(change, key, tmp_path, capsys):
    # outputs stay inside --out: output names are bare file names
    work = tmp_path / "work"
    work.mkdir()
    cfg = write_cfg(work, {**LADDER, **change})
    rc = cli.main(["run", cfg, "--out", str(work / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: expected a bare file name")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "work"]


def test_failed_expectation_recorded_but_exit_0(tmp_path, capsys):
    body = dict(LADDER)
    body["expect"] = [{"metric": "blue0_over_carrier0", "value": 0.9}]
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    rc = cli.main(["run", cfg, "--out", str(out)])
    assert rc == 0
    man = json.loads((out / "cfg.manifest.json").read_text())
    assert [(c["status"], c["metric"]) for c in man["expectations"]] == \
        [("FAIL", "blue0_over_carrier0")]
    assert man["result"] == "FAIL"


def test_missing_metric_expectation_fails(tmp_path):
    body = dict(LADDER)
    body["expect"] = [{"metric": "nope", "min": 0.0}]
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    man = json.loads((out / "cfg.manifest.json").read_text())
    assert "metric not produced" in man["expectations"][0]["detail"]


def test_plot_against_missing_column_exits_2(tmp_path, capsys):
    body = dict(LADDER)
    body["plot"] = {"x": "n", "y": "no_such_column"}
    cfg = write_cfg(tmp_path, body)
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "no column named" in capsys.readouterr().err


def test_plot_column_error_names_its_plot(tmp_path, capsys):
    body = dict(LADDER)
    body["plot"] = [{"x": "n", "y": "n"}, {"x": "n", "y": "no_such_column"}]
    rc = cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: plot[1].y: no column named 'no_such_column'")


def test_run_json_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LADDER)
    rc = cli.main(["run", cfg, "--json", "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "rabi"
    assert doc["metrics"]["blue0_over_carrier0"] == pytest.approx(0.15)
    assert doc["expectations"][0]["status"] == "PASS"


def test_svg_writer_escapes_and_breaks_gaps():
    out = line_plot([0.0, 1.0, 2.0, 3.0],
                    [("a<b", [0.0, float("nan"), 1.0, 2.0])],
                    title="x & y", xlabel="t", ylabel="v")
    assert "a&lt;b" in out and "x &amp; y" in out
    # the NaN splits the trace into two segments
    assert out.count("<polyline") + out.count("<circle") >= 2


def test_svg_writer_rejects_all_nan():
    with pytest.raises(ValueError, match="nothing finite"):
        line_plot([0.0, 1.0], [("s", [float("nan")] * 2)])


def test_svg_writer_draws_lone_points_and_splits_runs_on_arrays():
    # NaN and inf gaps end a run of finite points, and a run of one point
    # is a dot: here two dots, then a two-point polyline
    y = np.array([0.0, math.nan, 2.0, math.nan, math.inf, 5.0, 6.0])
    out = line_plot(np.arange(7.0), [("s", y)])
    shapes = [ln.split()[0] for ln in out.splitlines()
              if ln.startswith(("<polyline", "<circle"))]
    assert shapes == ["<circle", "<circle", "<polyline"]
    polyline = next(ln for ln in out.splitlines() if ln.startswith("<polyline"))
    assert polyline.split('"')[1].count(",") == 2


# ---------------------------------------------------------------------------
# the CSV cell formatter against a copy of its earlier form, which checked
# bool and int before float: the reordered branches must print the same bytes


def _oracle_cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


CELLS = st.one_of(
    st.floats(),                              # nan, +-inf, -0.0, subnormals
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(),
)


@settings(max_examples=300, deadline=None)
@given(CELLS)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(np.float64(-0.0))
@example(np.float32(1e-45))
@example(np.bool_(True))
def test_cell_matches_its_oracle(v):
    assert cli._cell(v) == _oracle_cell(v)


TABLE_CFG = argparse.Namespace(kind="rabi", description="")
EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])


def _column(n):
    return st.one_of(
        arrays(np.float64, n, elements=st.floats() | EDGE_FLOATS),
        arrays(np.int64, n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.integers(), min_size=n, max_size=n),
        st.lists(st.text(st.characters(exclude_characters="\n")), min_size=n, max_size=n),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda n: st.lists(_column(n), min_size=1, max_size=5)))
def test_csv_columns_render_as_their_cells(columns):
    table = {f"c{i}": col for i, col in enumerate(columns)}
    text = cli.render_csv("t", TABLE_CFG, 0, cli.RunResult(table, {}))
    lines = text.split("\n")[4:-1]       # after the four comment lines
    assert lines[0] == ",".join(table)
    assert lines[1:] == [",".join(map(_oracle_cell, row)) for row in zip(*columns)]


@pytest.mark.parametrize("table", [
    {"a": np.zeros(3), "b": [1, 2]},
    {"a": ["x"], "b": np.arange(2)},
    {"a": [1.0, 2.0], "b": [True, False], "c": []},
])
def test_csv_refuses_columns_of_unequal_length(table):
    with pytest.raises(ValueError, match="differ in length"):
        cli.render_csv("t", TABLE_CFG, 0, cli.RunResult(table, {}))


# ---------------------------------------------------------------------------
# determinism

NOISY = {
    "kind": "gate",
    "seed": 5,
    "params": {"op": "noisy_sequence", "M_values": [2, 4],
               "zeta_rms": 0.02, "trials": 40},
}


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_same_seed_byte_identical_csv(seed, other):
    # a seed fixes every CSV byte, and the run record up to where it was
    # written; another seed draws other numbers
    assume(seed != other)

    def run(name, s, out):
        assert cli.main(["run", name, "--seed", str(s), "--out", out]) == 0
        with open(os.path.join(out, f"{name}.csv"), "rb") as fh:
            csv = fh.read()
        with open(os.path.join(out, f"{name}.manifest.json"), encoding="utf-8") as fh:
            return csv, _strict_json(fh.read())

    def drop_seed(csv):
        return [ln for ln in csv.splitlines() if not ln.startswith(b"# seed:")]

    with tempfile.TemporaryDirectory() as tmp:
        for name in ("cool.sideband", "gate.error_budget"):
            csv_a, rec_a = run(name, seed, os.path.join(tmp, "a"))
            csv_b, rec_b = run(name, seed, os.path.join(tmp, "b"))
            csv_c, _ = run(name, other, os.path.join(tmp, "c"))
            assert csv_a == csv_b
            outs_a, outs_b = rec_a.pop("outputs"), rec_b.pop("outputs")
            assert rec_a == rec_b
            assert list(map(os.path.basename, outs_a)) == \
                list(map(os.path.basename, outs_b))
            # beyond its own "# seed:" line, the other seed's CSV differs
            assert drop_seed(csv_c) != drop_seed(csv_a)


def test_main_reuses_one_parser_and_keeps_no_state(tmp_path, capsys,
                                                   monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    name = "rabi.ladder"
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", name, "--seed", "7", "--strict", "--json",
                     "--out", str(a)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    assert cli.main(["run", name, "--json", "--out", str(b)]) == 0
    own_seed = _bundled(name).get("seed", 0)
    assert own_seed != 7
    assert json.loads(capsys.readouterr().out)["seed"] == own_seed
    man = json.loads((b / f"{name}.manifest.json").read_text())
    assert man["seed"] == own_seed and man["strict"] is False
    assert built == []


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg = write_cfg(tmp_path, NOISY)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg, "--out", str(a)]) == 0
    assert cli.main(["run", cfg, "--seed", "99", "--out", str(b)]) == 0
    assert (a / "cfg.csv").read_bytes() != (b / "cfg.csv").read_bytes()
    assert json.loads((b / "cfg.manifest.json").read_text())["seed"] == 99


# ---------------------------------------------------------------------------
# bundled scenarios

def test_at_least_twelve_bundled_scenarios():
    names = [s["name"] for s in cli.list_scenarios()]
    assert len(names) >= 12
    assert names == sorted(names)
    assert "rabi.example" in names and "gate.cn_single" in names


def test_every_scenario_has_description_and_expectations():
    for s in cli.list_scenarios():
        assert s["description"], s["name"]
        assert s["expectations"] >= 1, s["name"]


def test_list_json_roundtrip(capsys):
    assert cli.main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {d["name"] for d in doc} >= {"rabi.example", "clock.tradeoff"}
    for d in doc:
        assert set(d) == {"name", "kind", "description", "expectations"}


def test_list_plain_table(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rabi.example" in out and "tomography.coherence" in out


with open(LEDGER, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("name", [s["name"] for s in cli.list_scenarios()])
def test_bundled_scenario_passes(name, tmp_path, recwarn):
    out = tmp_path / name
    rc = cli.main(["run", name, "--out", str(out)])
    assert rc == 0
    man = _strict_json((out / f"{name}.manifest.json").read_text())
    assert man["result"] == "PASS"
    assert all(c["status"] == "PASS" for c in man["expectations"])
    # the run writes exactly the files its record lists, the CSV first
    assert sorted(p.name for p in out.iterdir()) == \
        sorted(os.path.basename(o) for o in man["outputs"])
    assert man["outputs"][0] == str(out / f"{name}.csv")
    # the golden ledger: every metric, meta line and cell of the bundled run
    assert name in GOLDEN, "scenario missing from tests/golden/scenarios.json"
    csv = parse_csv((out / f"{name}.csv").read_text())
    diff = mismatches(GOLDEN[name], csv)
    assert not diff, "\n".join(diff)
    # plots find a column by its header cut at " [", so each cut names one
    headers = csv["header"].split(",")
    bare = [h.split(" [")[0] for h in headers]
    assert len(set(bare)) == len(bare)
    assert all(h.count(" [") <= 1 for h in headers)


def test_bundled_heat_run_makes_one_expm_call(tmp_path, monkeypatch):
    # the Fock initial state fills one band, and a uniform grid needs that
    # band's propagator once
    from ionsim import decoherence

    real_expm, shapes = decoherence.expm, []

    def counting_expm(a):
        shapes.append(a.shape)
        return real_expm(a)

    monkeypatch.setattr(decoherence, "expm", counting_expm)
    assert cli.main(["run", "heat.master_equation", "--out", str(tmp_path)]) == 0
    assert shapes == [(19, 19)]


def test_bundled_gate_sweep_seeds_each_trial_once(tmp_path, monkeypatch):
    # one sweep to the longest M = 16: one stream per trial, and one batch
    # (the ideal run in row 0, then the trials) passes through 16 pulses
    from ionsim import pulse_engine

    real_rng, real_apply = np.random.default_rng, pulse_engine.apply_pulse
    seeds, pulses = [], []

    def counting_rng(seed):
        seeds.append(seed)
        return real_rng(seed)

    def counting_apply(state, p):
        pulses.append(p)
        return real_apply(state, p)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(pulse_engine, "apply_pulse", counting_apply)
    assert cli.main(["run", "gate.error_budget", "--out", str(tmp_path)]) == 0
    assert seeds == list(range(7, 7 + 300))
    assert len(pulses) == 16


def test_gate_sweep_rows_follow_config_order(tmp_path, capsys):
    # with one random error every row equals the single call at its M
    body = _bundled("gate.error_budget")
    body["params"].update(M_values=[8, 2, 8, 4], trials=40)
    assert cli.main(["run", write_cfg(tmp_path, body), "--out", str(tmp_path)]) == 0
    table = [ln for ln in (tmp_path / "cfg.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert [ln.split(",")[0] for ln in table[1:]] == ["8", "2", "8", "4"]
    schema, handler = cli._HANDLERS["gate"]
    p = validate_block(body["params"], schema, "params")
    base = cli.PulseSpec("carrier", p["theta"], cli.CouplingParams(Omega=1.0, eta=0.0))
    model = {"zeta_rms": p["zeta_rms"], "phi_rms": 0.0, "systematic": False}
    expected = []
    for M in p["M_values"]:
        r = cli.noisy_sequence_fidelity([base] * M, model, trials=40, base_seed=body["seed"])
        expected.append((M, r["F_mean"], r["F_std"], 1.0 - r["F_mean"],
                         r["quadratic_fit"]["coefficient"]))
    assert list(zip(*handler(p, body["seed"]).table.values())) == expected


def test_gate_sweep_metrics_read_the_largest_M():
    body = _bundled("gate.error_budget")
    body["params"].update(M_values=[16, 2, 8, 4], trials=40)
    schema, handler = cli._HANDLERS["gate"]
    res = handler(validate_block(body["params"], schema, "params"), body["seed"])
    assert res.metrics["infidelity_at_max_M"] == res.table["infidelity"][0]
    assert res.metrics["quad_coeff_at_max_M"] == res.table["quad_coeff"][0]


def test_module_runnable_as_script(tmp_path):
    # the child imports the package under test, whatever PYTHONPATH says
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run(
        [sys.executable, "-m", "ionsim.cli", "run", "gate.cn_single",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert res.returncode == 0
    assert "result: PASS" in res.stdout
