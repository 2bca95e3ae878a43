"""Every public module-level function and class in ``src/repro`` has a
caller outside the test suite.

A public name that only tests call is API nothing runs.  It gets a
production caller, or it goes, or it sits on :data:`ALLOWLIST` with the
reason it stays.  The check is a whole-word search over ``src/``,
``benchmarks/``, ``examples/`` and ``e2ebench/``; module-level names
are distinctive enough for that to be precise.  It skips the name's own
definition, and package ``__init__`` files, which only re-export names.
Methods are out of scope: their names (``run``, ``render``...) are too
common for a word search to tell callers apart.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples", "e2ebench")

# name -> why it stays although only tests call it.
ALLOWLIST: Dict[str, str] = {
    "add_second_speaker": "tests drive the guard over a mixed Echo + Google home "
                          "(one guard, per-speaker IP keying; paper Section V)",
    "offline_outage": "tests build the home-wide outage plan the golden "
                      "outage trace pins with it",
}


def public_definitions() -> List[Tuple[str, pathlib.Path, int, int]]:
    """(name, file, first line, last line) of each public module-level
    function and class in the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found.append((node.name, path, node.lineno, node.end_lineno))
    return found


@functools.lru_cache(maxsize=None)
def word_index() -> Dict[str, List[Tuple[pathlib.Path, int]]]:
    """Every identifier-like word in the searched trees, with where it
    occurs."""
    index: Dict[str, List[Tuple[pathlib.Path, int]]] = {}
    for tree in SEARCHED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), 1):
                for word in set(re.findall(r"\w+", line)):
                    index.setdefault(word, []).append((path, number))
    return index


def is_referenced(name: str, own: pathlib.Path, first: int, last: int,
                  index: Dict[str, List[Tuple[pathlib.Path, int]]]) -> bool:
    return any(not (path == own and first <= number <= last)
               for path, number in index.get(name, ()))


def test_every_public_name_has_a_caller_outside_tests():
    index = word_index()
    unused = sorted(
        f"{name} ({path.relative_to(ROOT)}:{first})"
        for name, path, first, last in public_definitions()
        if name not in ALLOWLIST and not is_referenced(name, path, first, last, index)
    )
    assert not unused, (
        "public names with no caller outside tests (add a caller, delete "
        "them, or allowlist them with a reason): " + ", ".join(unused)
    )


def test_allowlist_is_current():
    """An allowlisted name that is gone, or has gained a caller, leaves
    the list."""
    index = word_index()
    definitions = {name: (path, first, last)
                   for name, path, first, last in public_definitions()}
    stale = sorted(
        name for name in ALLOWLIST
        if name not in definitions or is_referenced(name, *definitions[name], index)
    )
    assert not stale, f"stale allowlist entries: {stale}"
