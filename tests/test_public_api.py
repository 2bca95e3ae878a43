"""Every public module-level function and class in ``src/repro`` has a
caller outside the test suite, and every scalar draw has one spelling.

A public name that only tests call is API nothing runs.  It gets a
production caller, or it goes, or it sits on :data:`ALLOWLIST` with the
reason it stays.  The check is a whole-word search over ``src/``,
``benchmarks/``, ``examples/`` and ``e2ebench/``; module-level names
are distinctive enough for that to be precise.  It skips the name's own
definition, and package ``__init__`` files, which only re-export names.
Methods are out of scope: their names (``run``, ``render``...) are too
common for a word search to tell callers apart.

Scalar ``uniform``/``choice`` draws and seeded generators go through
:mod:`repro.sim.random`'s helpers, which spell each numpy call at its
generator cost; :func:`test_scalar_draws_use_the_random_helpers` keeps
the slow spellings from coming back.
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


# Each call spelled through a helper in repro.sim.random, with the
# positional index of its ``size`` argument (a sized call is a vector
# draw and stays as numpy spells it).
SLOW_DRAWS = {"uniform": 2, "choice": 1}
RANDOM_HELPERS = PACKAGE / "sim" / "random.py"


def slow_draws(tree: ast.AST) -> List[Tuple[int, str]]:
    """(line, call) of each ``default_rng(...)`` call and each unsized
    ``.uniform(...)``/``.choice(...)`` call in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "default_rng":
            found.append((node.lineno, "default_rng(...)"))
        elif isinstance(func, ast.Attribute) and name in SLOW_DRAWS:
            sized = (len(node.args) > SLOW_DRAWS[name]
                     or any(kw.arg == "size" for kw in node.keywords))
            if not sized:
                found.append((node.lineno, f".{name}(...) without size"))
    return sorted(found)


def test_slow_draw_check_finds_each_spelling():
    tree = ast.parse("np.random.default_rng(1)\ndefault_rng(2)\nrng.uniform(0, 1)\n"
                     "rng.choice(seq)\nrng.uniform(0, 1, size=3)\nrng.uniform(0, 1, 3)\n"
                     "rng.choice(seq, 2)\nrng.random()\n")
    assert slow_draws(tree) == [
        (1, "default_rng(...)"), (2, "default_rng(...)"),
        (3, ".uniform(...) without size"), (4, ".choice(...) without size"),
    ]


def test_scalar_draws_use_the_random_helpers():
    sites = [
        f"{path.relative_to(ROOT)}:{line} {call}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != RANDOM_HELPERS
        for line, call in slow_draws(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not sites, (
        "spell these through repro.sim.random's uniform/pick/generator: "
        + ", ".join(sites))
