"""Every public function and class of ionsim has a caller outside the tests.

The scan parses the package, the demos and the benchmark with ast. A
public name counts as used where it is loaded as a bare name in the module
that defines it or in a file that imports it from ionsim, where it is read
as an attribute off an ionsim module, or where the benchmark names it in
one of its "module:function" strings. A parameter or local variable that
shares a public name therefore does not count. What is left is reached
only from the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ionsim"
TREES = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

# closed-form paper analytics that the tests check against published
# numbers but no scenario runs yet; each one is to be exposed through
# `ionsim run` or deleted, and then dropped from this list
TEST_ONLY = {
    "bfield_modulation", "cross_mode_growth", "exchange_time",
    "frequency_sensitivities", "micromotion_suppression",
    "projection_noise_stability", "radiative_decay_rate",
    "ramsey_probability", "recoil_frequency", "shot_noise_floor",
    "spontaneous_emission_ratio", "standing_wave_coefficients",
    "stark_addressing_epsilon", "stark_phase_noise_ratio",
}

_REF = re.compile(r"^\w+:(\w+)$")      # perfbench's "module:function"
_MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _public_definitions(tree) -> set:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _from_ionsim(tree):
    """(local name -> ionsim name, local names bound to ionsim modules)."""
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("ionsim.") and a.asname:
                    modules.add(a.asname)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ionsim"):
            package = node.module in (None, "ionsim")
            for a in node.names:
                if package and a.name in _MODULES:
                    modules.add(a.asname or a.name)
                else:
                    names[a.asname or a.name] = a.name
    return names, modules


def _used_names() -> set:
    used = set()
    for tree in TREES:
        for path in tree.rglob("*.py"):
            parsed = ast.parse(path.read_text(encoding="utf-8"))
            names, modules = _from_ionsim(parsed)
            if path.parent == PACKAGE:
                names.update((n, n) for n in _public_definitions(parsed))
            for node in ast.walk(parsed):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in names:
                        used.add(names[node.id])
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.value, ast.Name) and node.value.id in modules:
                        used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    m = _REF.match(node.value)
                    if m:
                        used.add(m.group(1))
    return used


def test_every_public_name_outside_the_list_has_a_caller():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined |= _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    assert defined - _used_names() == TEST_ONLY
