"""The names the benchmark resolves in every worker process exist.

perfbench/worker.py resolves each "module:function" of perfbench/catalog.py
on its ionsim module when a worker starts, runs the catalog's bundled
scenarios by name, and builds the kernel operations of a pass. A deleted
or renamed function or scenario stops every benchmark run as run_failed
before it records a metric. The catalog imports neither ionsim nor numpy,
so it loads on its own here.
"""

import importlib
import importlib.util
from pathlib import Path

from ionsim import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_functions_resolve_on_their_modules():
    catalog = _load("catalog")
    refs = [ref for _, ref in catalog.SPANNED + catalog.COUNTED]
    assert refs
    for ref in refs:
        mod, attr = ref.split(":")
        assert callable(getattr(importlib.import_module(f"ionsim.{mod}"), attr, None)), ref


def test_catalog_scenarios_are_bundled():
    catalog = _load("catalog")
    bundled = {s["name"] for s in cli.list_scenarios()}
    assert set(catalog.CLI_LIGHT + catalog.CLI_HEAVY) <= bundled


def test_kernel_pass_builds():
    ops = _load("kernels").build_pass(1, 0)
    assert ops
    for name, run, check, _params in ops:
        assert callable(run) and callable(check), name


def test_kernel_pass_outputs_pass_their_checks():
    # the benchmark reports outputs_incorrect when a check returns a message
    kernels = _load("kernels")
    for name, run, check, params in kernels.build_pass(1, 0):
        try:
            out = run(params)
        except Exception as err:
            assert kernels.is_known_failure(name, err), f"{name}: {type(err).__name__}: {err}"
            continue
        assert not list(check(params, out)), name
