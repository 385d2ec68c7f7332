"""The module maps in DESIGN.md and README.md match ``src/repro``.

DESIGN §7 names every module file (``__init__.py`` files are implied);
README's Architecture block names every top-level subpackage.  A change that adds, deletes or moves
a module without updating the maps fails here.
"""

from __future__ import annotations

import pathlib
import re
from typing import List, Set

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _fenced_block_after(doc: str, heading: str) -> List[str]:
    text = (ROOT / doc).read_text()
    after = text[text.index(heading):]
    start = after.index("```\n") + len("```\n")
    return after[start:after.index("```", start)].splitlines()


def _source_modules() -> Set[str]:
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }


def _design_module_map() -> Set[str]:
    named, package = set(), ""
    for line in _fenced_block_after("DESIGN.md", "## 7. Module map")[1:]:
        match = re.match(r"  (\w+)/\s", line)
        if match:
            package, line = match.group(1) + "/", line[match.end():]
        elif not line.startswith("   "):
            package = ""  # a top-level row of files
        for token in re.findall(r"\w+\.py|\w+/", line):
            named.add(package + token)
    return named


def test_design_module_map_names_every_module():
    assert _design_module_map() == _source_modules()


def test_readme_architecture_names_every_subpackage():
    block = _fenced_block_after("README.md", "## Architecture")
    named = {m.group(1) for m in map(re.compile(r"repro\.(\w+)").match, block) if m}
    packages = {p.parent.name for p in SRC.glob("*/__init__.py")}
    assert named == packages
