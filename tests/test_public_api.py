"""Every public function and class of ionsim has a caller outside the tests,
and every defaulted parameter of one has a caller that sets it.

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

from ionsim import errors

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ionsim"
TREES = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

# closed-form paper analytics that the tests check against published
# numbers but no scenario runs yet; each one is to be exposed through
# `ionsim run` or deleted, and then dropped from this list
TEST_ONLY = {
    "bfield_modulation", "cross_mode_growth", "exchange_time",
    "frequency_sensitivities", "micromotion_suppression",
    "radiative_decay_rate",
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


# defaulted parameters ("function.parameter" or "Dataclass.field") that no
# caller outside the tests sets; an option belongs here only while it waits
# on a scenario or demo that sets it
TEST_ONLY_OPTIONS = set()


def _is_dataclass(node) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
    return False


def _defaulted_options(tree) -> dict:
    """(owner, parameter) -> positional index, or None when keyword-only,
    for each defaulted parameter of a public function or dataclass."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            a = node.args
            pos = a.posonlyargs + a.args
            for i in range(len(pos) - len(a.defaults), len(pos)):
                out[node.name, pos[i].arg] = i
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out[node.name, arg.arg] = None
        elif (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
              and _is_dataclass(node)):
            fields = [s for s in node.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            for i, s in enumerate(fields):
                if s.value is not None:
                    out[node.name, s.target.id] = i
    return out


def _ionsim_name(node, names, modules):
    """The ionsim name an expression refers to, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return node.attr
    return None


def _set_options() -> set:
    """What the calls outside the tests set: (owner, keyword), (owner,
    positional index), (owner, None) for a * or ** argument that may set
    any parameter, and ("replace", field) for dataclasses.replace."""
    found = set()
    for tree in TREES:
        for path in tree.rglob("*.py"):
            parsed = ast.parse(path.read_text(encoding="utf-8"))
            names, modules = _from_ionsim(parsed)
            if path.parent == PACKAGE:
                names.update((n, n) for n in _public_definitions(parsed))
            replace = {a.asname or a.name for node in ast.walk(parsed)
                       if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                       for a in node.names if a.name == "replace"}
            for node in ast.walk(parsed):
                # a local name bound to an ionsim function, not to its result
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    called = {id(c.func) for c in ast.walk(node.value)
                              if isinstance(c, ast.Call)}
                    for ref in ast.walk(node.value):
                        owner = None if id(ref) in called else _ionsim_name(ref, names, modules)
                        if owner:
                            names[node.targets[0].id] = owner
            for node in ast.walk(parsed):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name) and f.id in replace:
                    owner = "replace"
                else:
                    owner = _ionsim_name(f, names, modules)
                    if owner is None:
                        continue
                found |= {(owner, k.arg) for k in node.keywords}
                found |= {(owner, None if isinstance(a, ast.Starred) else i)
                          for i, a in enumerate(node.args)}
    return found


def test_every_option_outside_the_list_is_set_by_a_caller():
    options = {}
    for path in PACKAGE.glob("*.py"):
        options.update(_defaulted_options(ast.parse(path.read_text(encoding="utf-8"))))
    found = _set_options()
    unset = {f"{owner}.{name}" for (owner, name), i in options.items()
             if owner not in TEST_ONLY
             and not {(owner, name), (owner, i), (owner, None), ("replace", name)} & found}
    assert unset == TEST_ONLY_OPTIONS


# the exception and warning classes a caller can catch; a new one must
# mean something that none of these does, and is added here by name
ERROR_CLASSES = {
    "IonsimError", "ConfigError", "DimensionError", "ModelInputError",
    "RangeError", "TruncationError", "RegimeWarning", "TruncationWarning",
}


def test_error_classes_are_pinned():
    found = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, Exception)}
    assert found == ERROR_CLASSES
    # and no other module of the package defines one
    for path in PACKAGE.glob("*.py"):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert not [node.name for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef) and node.bases
                        and any(getattr(b, "id", "").endswith(("Error", "Warning",
                                                               "Exception"))
                                for b in node.bases)], path.name
