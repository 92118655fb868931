"""Every module-level import in the package's modules and in the test
files (helpers included) is used.  Read with the standard library's
`ast`, so no import runs; the package's `__init__.py` is skipped, since
its imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "thickgen"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(p.name for p in TESTS.glob("*.py"))


def unused_imports(source):
    """Names bound by a module-level import that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    # an attribute chain a.b.c reads its root as a Name
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os\nfrom math import gcd, lcm\nimport a.b\n\nx = gcd(a.b.c, 2)\n"
    assert unused_imports(source) == [(1, "os"), (2, "lcm")]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", TEST_FILES)
def test_test_file_has_no_unused_import(name):
    assert unused_imports((TESTS / name).read_text(encoding="utf-8")) == []
