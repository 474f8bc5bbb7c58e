"""Every rule has one owning module: no module of the package imports or
reads another module's private names. A module-local alias of a public name
(``_decode = decode``) is the module's own business and stays allowed. A
rule's refusal message is written only in the module that owns the rule,
and the shard workers of ``estimation`` load no public function."""

import ast
import inspect
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


def test_the_float_range_rules_have_one_owner():
    # analytics bounds max_k and shots for its own float arithmetic; the
    # analyze command only calls it
    owners = [path.stem for path in MODULES if "float_info" in path.read_text()]
    assert owners == ["analytics"]


def public_calls_in(source: str, names) -> dict[str, list[str]]:
    """The public names of ``multiswap`` functions that each named function
    of ``source`` (the text of ``multiswap.estimation``) loads: a bare name
    bound to one in that module, or ``mod.name`` for a bound ``multiswap``
    module. These are the names a tracer rebinds; a private alias of the
    same function is not."""
    from multiswap import estimation

    def public_function(namespace, name) -> bool:
        value = getattr(namespace, name, None)
        return (
            not _private(name)
            and inspect.isfunction(value)
            and value.__module__.startswith("multiswap.")
        )

    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name not in names:
            continue
        loads = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if public_function(estimation, sub.id):
                    loads.append(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                module = getattr(estimation, sub.value.id, None)
                if inspect.ismodule(module) and module.__name__.startswith("multiswap."):
                    if public_function(module, sub.attr):
                        loads.append(f"{sub.value.id}.{sub.attr}")
        found[node.name] = loads
    return found


def test_shard_workers_load_no_public_function():
    # benchmarks/traced.py rebinds every public function to a recorder with
    # one span stack, which threads would corrupt; the functions _in_shards
    # runs (the targets of estimation's partials) may load only private names
    source = (PACKAGE / "estimation.py").read_text()
    workers = {
        node.args[0].id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "partial"
    }
    assert workers == {"_oracle_rows"}
    assert public_calls_in(source, workers) == {name: [] for name in workers}


def test_the_worker_guard_sees_both_forms_of_public_use():
    source = (
        "def _w(plan, lo, hi):\n"
        "    sim.draw_stream(0)\n    pairs = pair_table(plan, 0)\n"
        "    _draw_stream(0)\n    np.sort(lo)\n    _VERDICT_BLOCK\n"
    )
    assert public_calls_in(source, {"_w"}) == {"_w": ["sim.draw_stream", "pair_table"]}


def numpy_loads(source: str, name: str) -> list[str]:
    """Where ``source`` loads ``np.<name>``, once per load: the enclosing
    top-level function, ``Class.method`` for a method, or ``<module>``."""
    scopes = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{sub.name}" if isinstance(sub, ast.FunctionDef)
                        else node.name, sub) for sub in node.body]
        else:
            scopes.append((getattr(node, "name", "<module>"), node))
    return [
        scope
        for scope, node in scopes
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == name
        and isinstance(sub.value, ast.Name) and sub.value.id == "np"
    ]


def matrix_reads(source: str) -> list[str]:
    """Subscripts of an ``.overlaps`` attribute with two or more indices,
    as ``x.overlaps[i, j]`` or ``x.overlaps[i][j]``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Subscript):
            continue
        indices, base = 0, node
        while isinstance(base, ast.Subscript):
            index = base.slice
            indices += len(index.elts) if isinstance(index, ast.Tuple) else 1
            base = base.value
        if indices > 1 and isinstance(base, ast.Attribute) and base.attr == "overlaps":
            found.append(ast.unparse(node))
    return found


def test_the_upper_triangle_has_one_owner():
    # StateEnsemble.overlaps keeps each row block's entries j > i and builds
    # no triangle mask; _pair_rows builds the label columns from numpy's own
    # triangle; nothing else takes a triangle or reads the overlaps as a
    # matrix
    names = ("tri", "triu", "tril", "triu_indices", "tril_indices",
             "triu_indices_from", "tril_indices_from")
    found = {name: [] for name in names}
    for path in MODULES:
        source = path.read_text()
        for name in names:
            found[name] += [f"{path.stem}.{scope}" for scope in numpy_loads(source, name)]
        assert matrix_reads(source) == [], path.stem
    assert found == {
        **{name: [] for name in names},
        "triu_indices": ["estimation._pair_rows"],
    }


@pytest.mark.parametrize("source, loads, reads", [
    ("def oracle_sample(run):\n    run.ensemble.overlaps[np.triu_indices(8, 1)]\n",
     ["oracle_sample"], []),
    ("class E:\n    def f(self):\n        return np.triu_indices(4)\n", ["E.f"], []),
    ("i, j = np.triu_indices(4)\ne.overlaps[i, j]\n", ["<module>"], ["e.overlaps[i, j]"]),
    ("def f(e):\n    return e.overlaps[0][1] + e.overlaps[rows]\n", [], ["e.overlaps[0][1]"]),
    ("def f(overlaps):\n    return overlaps[0, 1] + np.triu(overlaps)\n", [], []),
])
def test_the_triangle_guard_sees_every_form(source, loads, reads):
    assert numpy_loads(source, "triu_indices") == loads
    assert matrix_reads(source) == reads
