"""Every name a package module imports is used by that module, every name a
package module defines is read somewhere in the repository, and importing the
package loads no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "summertime"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_sees_an_unused_name():
    source = "from typing import Any, Sequence\nimport numpy as np\nx: Any = np.e\n"
    assert unused_imports(source) == ["line 1: Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_imported_name(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if not n.startswith("__")]


def read_names(tree: ast.Module) -> set[str]:
    """Names a module loads, attributes it reads and names it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_defined_name_is_read_somewhere():
    sources = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    read = set().union(*(read_names(ast.parse(p.read_text(encoding="utf-8")))
                         for p in sources))
    unread = [f"{path.stem}.{name}" for path in MODULES
              for name in defined_names(ast.parse(path.read_text(encoding="utf-8")))
              if name not in read]
    assert unread == []


def test_importing_the_package_loads_no_scipy():
    """scipy is a test-only dependency: the package and its command line
    import none of it."""
    probe = ("import sys, summertime, summertime.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"
