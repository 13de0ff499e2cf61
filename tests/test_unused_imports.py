"""Every name a library or test module imports is used in that module.

A stdlib ``ast`` scan, so no lint tool is needed: it lists the names
each import statement binds and fails on any that the module never
references (a name listed in ``__all__`` counts as referenced).
``from __future__`` imports, the package's own re-exports in
``__init__.py`` and imports on a line marked ``# noqa: F401`` (kept for
their side effect) are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "inputdp"


def unused_imports(source: str, *, reexports_exempt: bool = False) -> list[tuple[int, str]]:
    """(line, name) of every imported name that ``source`` never references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports_exempt and node.level > 0):
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from typing import Iterable, Sequence\n"
        "from .core import Dataset\n"
        "__all__ = ['Dataset']\n"
        "def f(x: Sequence[int]):\n"
        "    return np.asarray(x), sys.argv\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Iterable")]
    assert unused_imports("from .core import Dataset\n", reexports_exempt=True) == []
    assert unused_imports("from .core import Dataset\n") == [(1, "Dataset")]
    assert unused_imports("import os  # noqa: F401\nimport sys\n") == [(2, "sys")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_module_has_no_unused_imports(path):
    unused = unused_imports(path.read_text(), reexports_exempt=path.name == "__init__.py")
    assert unused == [], f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_test_module_has_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert unused == [], f"{path.name}: unused imports {unused}"
