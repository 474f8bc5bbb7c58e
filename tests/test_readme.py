"""Every ``python`` block of the README runs against the current package, so
the documented API cannot name a function that no longer exists, and its
module table names exactly the package's modules."""

import re
from pathlib import Path

import pytest

import multiswap

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_module_table_names_every_module_once():
    section = README.read_text().split("## What's inside", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    named = re.findall(r"`multiswap\.(\w+)`", "".join(rows))
    modules = {p.stem for p in Path(multiswap.__file__).parent.glob("*.py")} - {"__init__"}
    assert sorted(named) == sorted(modules)
