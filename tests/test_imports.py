"""Every module-level import in ``src/repro`` is used by its module.

No linter ships with the toolchain, so this is the check: an import
(also one under ``if TYPE_CHECKING:``) whose bound name never appears
again in its module fails.  ``__init__.py`` and ``api.py`` exist to
re-export, and ``from __future__`` imports bind nothing, so both are
exempt.  A name counts as used when the module's AST names it, directly
or inside a string annotation such as ``"Fabric"`` or
``"Optional[Event]"``.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
EXEMPT = {"__init__.py", "api.py"}


def _module_imports(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """(line, bound name) of each top-level import, TYPE_CHECKING too."""
    body: List[ast.stmt] = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            body.extend(node.body)
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _names_used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(root: pathlib.Path) -> List[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name in EXEMPT:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _names_used(tree)
        for lineno, name in _module_imports(tree):
            if name not in used:
                found.append(f"{path.relative_to(root.parent)}:{lineno}  {name}")
    return found


def test_no_unused_module_level_imports():
    assert unused_imports(SRC) == []


def test_the_check_sees_an_unused_import(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("import os\n")
    (pkg / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from x import Fabric, Event\n"
        "def f(a: \"Fabric\") -> Optional[int]:\n"
        "    return None\n"
    )
    assert unused_imports(pkg) == ["repro/mod.py:2  json", "repro/mod.py:5  Event"]
