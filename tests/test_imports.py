"""Every module-level import in ``src/repro`` is used by its module, and
a process that runs cells imports no more than it needs.

No linter ships with the toolchain, so this is the check: an import
(also one under ``if TYPE_CHECKING:``) whose bound name never appears
again in its module fails.  ``__init__.py`` and ``api.py`` exist to
re-export, and ``from __future__`` imports bind nothing, so both are
exempt.  A name counts as used when the module's AST names it, directly
or inside a string annotation such as ``"Fabric"`` or
``"Optional[Event]"``.

Every figure cell and benchmark cell runs in a fresh process, so what
``import repro.api`` drags in is paid per cell: the service's HTTP
front, its client's sockets and the process pool must load only where
they are used.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys
from typing import Iterator, List, Set, Tuple

from tests.conftest import child_env

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


#: Modules a cell run must not load: the service's HTTP server and
#: client stacks and the process pool.
SERVICE_AND_POOL_MODULES = (
    "http.client",
    "http.server",
    "socketserver",
    "ssl",
    "email.parser",
    "concurrent.futures",
    "multiprocessing",
)

_PRINT_MODULES = "print('\\n'.join(sorted(sys.modules)))"


def _modules_loaded_by(code: str) -> Set[str]:
    """Modules a fresh interpreter holds after ``code``, less those a
    bare one holds already (``site`` hooks differ between installs)."""

    def loaded(source: str) -> Set[str]:
        out = subprocess.run(
            [sys.executable, "-c", f"import sys\n{source}\n{_PRINT_MODULES}"],
            capture_output=True, text=True, env=child_env(), check=True,
            timeout=120,
        ).stdout
        return set(out.split())

    return loaded(code) - loaded("")


def test_a_cell_run_loads_no_service_or_pool_module():
    loaded = _modules_loaded_by(
        "from repro.api import ExperimentConfig, bench_topology, "
        "run_experiment\n"
        "run_experiment(ExperimentConfig(topology=bench_topology(), "
        "n_flows=5, size_scale=0.05, time_scale=0.05))"
    )
    assert "repro.sim.engine" in loaded  # the probe ran a cell
    assert sorted(loaded.intersection(SERVICE_AND_POOL_MODULES)) == []


def test_the_result_cache_loads_no_process_pool():
    loaded = _modules_loaded_by(
        "from repro.experiments.parallel import ResultCache, code_version, "
        "config_key"
    )
    assert "repro.experiments.parallel" in loaded
    pool = {"repro.experiments.pool", "concurrent.futures", "multiprocessing"}
    assert sorted(loaded & pool) == []
