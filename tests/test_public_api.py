"""Every public function and class of ionsim has a caller outside the tests.

The scan parses the package, the demos and the benchmark with ast. A
public name counts as used when it is loaded anywhere in those trees, as
a bare name or an attribute, or when the benchmark names it in one of its
"module:function" strings. What is left is reached only from the tests.
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
    "beam_crosstalk", "bfield_modulation", "cross_mode_growth",
    "detection_false_negative", "displacement_drive", "exchange_time",
    "frequency_sensitivities", "micromotion_suppression",
    "projection_noise_stability", "radiative_decay_rate",
    "ramsey_probability", "recoil_frequency", "shot_noise_floor",
    "spontaneous_emission_ratio", "standing_wave_coefficients",
    "stark_addressing_epsilon", "stark_phase_noise_ratio",
}

_REF = re.compile(r"^\w+:(\w+)$")      # perfbench's "module:function"


def _public_definitions() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.add(node.name)
    return names


def _used_names() -> set:
    used = set()
    for tree in TREES:
        for path in tree.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    m = _REF.match(node.value)
                    if m:
                        used.add(m.group(1))
    return used


def test_every_public_name_outside_the_list_has_a_caller():
    assert _public_definitions() - _used_names() == TEST_ONLY
