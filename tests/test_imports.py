"""Every module of ``graphld`` and of the test suite uses each name it
imports.

A stdlib ``ast`` scan, so the check needs no linter.  The package's
``__init__.py`` is skipped: its imports are the package's re-exports, which
must be exactly ``graphld.__all__``.  A fresh interpreter checks what
importing the command line loads.
"""

import ast
import json
import os
import subprocess
import sys
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


def _scipy_after(*argvs: List[str]):
    """In one fresh interpreter: import ``graphld.cli``, run ``main`` on each
    argv in turn, and return the exit codes and the sorted ``scipy`` modules
    then loaded."""
    probe = ("import json, sys, graphld.cli\n"
             "codes = [graphld.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy')]))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], capture_output=True,
                          text=True, check=True, env=env)
    return json.loads(done.stdout)


def _config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_the_command_line_loads_highs_only_for_the_lp():
    """Importing ``graphld.cli`` loads no ``scipy`` module: ``scipy.special``
    is bound by ``rate`` at the first Poisson evaluation, and
    ``scipy.optimize`` (HiGHS) is imported by the phase-1 LP on first use."""
    assert _scipy_after() == [[], []]


def test_commands_without_a_poisson_evaluation_load_no_scipy(tmp_path):
    """``sample``, ``measure``, ``enumerate``, ``lldp`` and both forms of
    ``rate`` (the reference law is read through ``math.lgamma``) run in one
    interpreter without loading scipy."""
    spec = _config(tmp_path / "spec.json", {"spec": {"n": 4, "eta": {"a": 0.5, "b": 0.5},
                                                     "pi": {"a,b": 0.5, "b,a": 0.5}}})
    graph = str(tmp_path / "graph.txt")
    configs = {
        "measure": {"graph": graph},
        "lldp": {"family": "binary-cross", "n_list": [4, 6]},
        "degree": {"c": 2.0, "p": {"2": 1.0}},
        "typed": {"eta": {"a": 0.5, "b": 0.5}, "pi": {"a,b": 1.0, "b,a": 1.0}, "p": {"a|b:2": 1.0}},
    }
    paths = {name: _config(tmp_path / f"{name}.json", config) for name, config in configs.items()}
    out = ["--out", str(tmp_path / "out")]
    assert _scipy_after(["sample", "--config", spec, "--seed", "7", "--out", graph],
                        ["measure", "--config", paths["measure"], *out],
                        ["enumerate", "--config", spec, *out],
                        ["lldp", "--config", paths["lldp"], *out],
                        ["rate", "--config", paths["degree"], *out],
                        ["rate", "--config", paths["typed"], *out]) == [[0] * 6, []]


@pytest.mark.parametrize("bound, loaded", [(0.1, ["scipy.special"]),
                                           (0.4, ["scipy.optimize", "scipy.special"])],
                         ids=["met", "binding"])
def test_optimize_loads_highs_only_for_a_binding_event(tmp_path, bound, loaded):
    """Poisson(2) has p(0) = 0.135: it meets {p(0) >= 0.1}, so ``optimize``
    evaluates the reference law (``scipy.special``) and solves no LP; on
    {p(0) >= 0.4} the phase-1 LP loads ``scipy.optimize`` too."""
    event = {"c": 2.0, "constraints": {"K": 30, "ge": [{"f": "pmf@0", "r": bound}]}}
    codes, modules = _scipy_after(["optimize", "--config", _config(tmp_path / "event.json", event),
                                   "--out", str(tmp_path / "out.json")])
    assert codes == [0]
    assert [name for name in ("scipy.optimize", "scipy.special") if name in modules] == loaded
