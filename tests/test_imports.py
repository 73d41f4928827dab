"""Every module of ``graphld`` and of the test suite uses each name it
imports.

A stdlib ``ast`` scan, so the check needs no linter.  The package's
``__init__.py`` is skipped: its imports are the package's re-exports, which
must be exactly ``graphld.__all__``.
"""

import ast
from pathlib import Path
from typing import List

import pytest

import graphld

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "graphld"
#: Package modules by file name, then test modules as ``tests/<file name>``.
MODULES = {path.name: path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
MODULES.update({f"tests/{path.name}": path for path in sorted(TESTS.glob("*.py"))})


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> List[str]:
    """Names bound by the imports of ``source`` that nothing else reads.
    Quoted annotations count as uses of the names they hold."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    trees = [tree] + [
        ast.parse(quoted.value, mode="eval")
        for annotation in _annotations(tree) for quoted in ast.walk(annotation)
        if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str)
    ]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []


def test_the_scan_sees_unused_and_quoted_names():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from typing import Dict, List\n"
        "from .graphs import Edge\n"
        "def f(x: 'Dict[str, int]') -> int:\n"
        "    return np.size(x)\n"
    )
    assert unused_imports(source) == ["os", "List", "Edge"]


def test_all_is_exactly_what_the_package_imports():
    """A name dropped from a module cannot linger in ``__all__``, nor an
    import of ``__init__.py`` go unexported."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(graphld.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    assert [name for name in graphld.__all__ if not hasattr(graphld, name)] == []
