"""The docs match the code they describe.

DESIGN §7 names every module file (``__init__.py`` files are implied);
README's Architecture block names every top-level subpackage.  A change that adds, deletes or moves
a module without updating the maps fails here.  Every ``python -m repro``
command in a fenced block of README.md or the verify skill parses with
the real CLI parser, so a doc that shows a flag its command does not
read fails too.
"""

from __future__ import annotations

import pathlib
import re
import shlex
from typing import List, Set, Tuple

import pytest

from repro.cli import build_parser

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


#: Docs whose fenced ``python -m repro …`` commands must parse.
COMMAND_DOCS = ("README.md", ".claude/skills/verify/SKILL.md")

_FENCED = re.compile(r"^[ \t]*```[^\n]*\n(.*?)^[ \t]*```", re.S | re.M)
#: What a shell line may carry around the command: a ``$ `` prompt, env
#: assignments, a ``# …`` comment, a trailing ``&``.
_PREFIX = re.compile(r"^(?:\$ )?(?:(?:PYTHONPATH|REPRO_\w+)=(?:\$\([^)]*\)|\S+)\s+)*")
_SUFFIX = re.compile(r"(?:\s#.*)?$")
_COMMAND = "python -m repro "


def _documented_commands() -> List[Tuple[str, str]]:
    """``(doc, command line)`` for every ``python -m repro`` line in a
    fenced block, ``\\`` continuations joined and shell decoration
    stripped."""
    found = []
    for doc in COMMAND_DOCS:
        for block in _FENCED.findall((ROOT / doc).read_text()):
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                line = _SUFFIX.sub("", _PREFIX.sub("", line.strip()))
                line = line.rstrip().rstrip("&").rstrip()
                if line.startswith(_COMMAND):
                    found.append((doc, line))
    return found


def test_docs_show_repro_commands():
    docs = {doc for doc, _ in _documented_commands()}
    assert docs == set(COMMAND_DOCS)


@pytest.mark.parametrize("doc, line", _documented_commands())
def test_documented_command_parses(doc, line, capsys):
    try:
        build_parser().parse_args(shlex.split(line[len(_COMMAND):]))
    except SystemExit:
        pytest.fail(f"{doc}: `{line}` does not parse:\n{capsys.readouterr().err}")
