"""Every name that a module of the package imports is used in that module,
and every function, class and method it defines is used outside the tests.

`__init__.py` is left out of the first check: its imports are the package's
re-exports.  So is `from __future__ import annotations`, which binds no name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dcluster"
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


# Names that only the tests read (tests/module_oracle.py, and test_orbit for
# OrbitCategory.scale): the array and CMorphism edge that is to move into
# that oracle, which will then define them itself.  Nothing else may be
# defined in the package for the tests alone.
ORACLE_EDGE = {"inv_mod", "pushforward_coords", "is_zero", "morph_coords", "identity",
               "ext_basis", "scale"}

# a string that names an attribute path, as the benchmark tracer's targets do
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree):
    """The identifiers that `tree` reads: names, attributes and imported
    names.  Words in docstrings and comments never count."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def _dotted_strings(tree):
    """The parts of every dotted-name string of `tree` that is not a
    docstring."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, _SCOPES) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
    out = Counter()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docs and _DOTTED.match(node.value)):
            out.update(node.value.split("."))
    return out


def _unread_definitions(package, users):
    """The names of the functions, classes and methods defined in the
    sources `package` that nothing reads outside its own definition, in the
    package or in `users`, a list of (source, count dotted strings) pairs.
    The users' reads of a name that a user defines do not count, since they
    may be of that homonym (the benchmark's SpeedSampler.scale is not
    OrbitCategory.scale); their dotted strings do.  Dunder names are left
    out: the language calls them."""
    trees = [ast.parse(source) for source in package]
    read = sum((_reads(tree) for tree in trees), Counter())
    users = [(ast.parse(source), strings) for source, strings in users]
    own = {node.name for tree, _ in users for node in ast.walk(tree)
           if isinstance(node, _DEFINITIONS)}
    for tree, strings in users:
        read.update({name: k for name, k in _reads(tree).items() if name not in own})
        if strings:
            read += _dotted_strings(tree)
    unread = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) \
                        and read[name] <= _reads(node)[name]:
                    unread.add(name)
    return sorted(unread)


def _package_and_users():
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    # the benchmark names its tracer targets as strings
    users = [(path.read_text(), False) for path in sorted((ROOT / "demos").glob("*.py"))]
    users += [(path.read_text(), True) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return package, users


def test_no_definition_is_kept_for_the_tests_alone():
    package, users = _package_and_users()
    assert _unread_definitions(package, users) == sorted(ORACLE_EDGE)


def test_a_definition_only_a_test_reads_is_found():
    package, users = _package_and_users()
    planted = ('def only_tested(x):\n'
               '    """Called by only_tested in a docstring, and by itself."""\n'
               '    return only_tested(x - 1) if x else "only_tested"\n'
               'class Planted:\n'
               '    def __len__(self):\n'
               '        return 0\n'
               '    def tested_method(self):\n'
               '        return 1\n')
    got = _unread_definitions(package + [planted], users)
    assert got == sorted(ORACLE_EDGE | {"only_tested", "Planted", "tested_method"})
    # a user that calls a homonym of its own does not read it
    homonym = ("class Sampler:\n    def tested_method(self):\n        return 2\n"
               "def only_tested():\n    return Sampler().tested_method()\n"
               "only_tested()\n", True)
    assert _unread_definitions(package + [planted], users + [homonym]) == got
    # a caller in the package, a demo, or a tracer target string reads it
    for source, strings in (("only_tested(1)\nPlanted().tested_method()\n", False),
                            ('TARGETS = [("x", "dcluster.planted", "only_tested"), '
                             '("y", "dcluster.planted", "Planted.tested_method")]\n', True)):
        assert _unread_definitions(package + [planted], users + [(source, strings)]) == \
            sorted(ORACLE_EDGE)
