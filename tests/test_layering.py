"""Every rule has one owning module: no module of the package imports or
reads another module's private names. A module-local alias of a public name
(``_decode = decode``) is the module's own business and stays allowed. A
rule's refusal message is written only in the module that owns the rule."""

import ast
from pathlib import Path

import pytest

import multiswap

PACKAGE = Path(multiswap.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {path.stem for path in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list[str]:
    """``from .mod import _name`` and ``mod._name`` for a sibling ``mod``
    bound by ``from . import mod``; the package imports only relatively."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in SIBLINGS:
                    bound.add(alias.asname or alias.name)
                elif node.module is not None and _private(alias.name):
                    found.append(f"from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path.read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("from .builder import _check_table, decode\n", ["from .builder import _check_table"]),
    ("from . import sim\nsim._check_size(30)\n", ["sim._check_size"]),
    ("from . import sim as s\ns._BLOCK\n", ["s._BLOCK"]),
    ("from .builder import decode\n_decode = decode\n", []),
    ("from . import sim\nsim.check_size(30)\nsim.__doc__\n", []),
    ("import numpy as np\nnp._NoValue\n", []),
])
def test_the_guard_sees_both_forms_of_private_use(source, found):
    assert private_uses(source) == found


def test_the_final_variant_rule_has_one_owner():
    # builder.check_final_variant states it; every other module calls it
    owners = [path.stem for path in MODULES if "unknown final variant" in path.read_text()]
    assert owners == ["builder"]
    assert (PACKAGE / "builder.py").read_text().count("unknown final variant") == 1


def test_the_oracle_variant_rule_has_one_owner():
    # estimation.decide refuses the plans the oracle cannot draw; the oracle
    # itself takes only decided runs and restates nothing
    rule = "draws standard-variant verdicts only"
    assert [path.stem for path in MODULES if rule in path.read_text()] == ["estimation"]
    source = (PACKAGE / "estimation.py").read_text()
    assert source.count(rule) == 1
    decide = next(node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name == "decide")
    assert rule in ast.get_source_segment(source, decide)
