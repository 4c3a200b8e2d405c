"""Every name that a module of the package imports is used in that module.

`__init__.py` is left out: its imports are the package's re-exports.  So is
`from __future__ import annotations`, which binds no name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dcluster"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source):
    """The names bound by the import statements of `source`, anywhere in
    it, that no name expression of it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_module_is_checked():
    assert {"cli.py", "complex.py", "mutation.py", "verify.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imported_names_are_used(module):
    assert _unused_imports((SRC / module).read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from typing import Dict, Iterable, NamedTuple\n"
              "from .quiver import coxeter_data as cox, parse_quiver\n"
              "def f(x: Dict) -> None:\n"
              "    from . import linalg\n"
              "    return json.dumps(parse_quiver(x)), os.sep, linalg.rank_mod\n")
    assert _unused_imports(source) == ["Iterable", "NamedTuple", "cox"]
