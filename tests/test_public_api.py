"""Every ``src/repro`` module is imported from an entry point, every
public module-level function and class has a caller outside the test
suite, and every scalar draw has one spelling.

A module that no entry point reaches is code only tests run.  The walk
starts at ``repro.__main__`` and the ``e2ebench/`` scripts and follows
their imports, at any depth of the file: ``import a.b`` reaches module
``a.b``, ``from a import b`` reaches ``a.b`` when that is a module and
module ``a`` otherwise.  Package ``__init__`` bodies are not followed,
so a re-export is not a caller.  A module it misses gets an entry-point
caller, or it goes, or it sits on :data:`REACH_ALLOWLIST` with the
reason it stays.

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
import importlib
import inspect
import pathlib
import re
from typing import Dict, List, Sequence, Set, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SEARCHED = ("src", "benchmarks", "examples", "e2ebench")
ENTRY_POINTS = [PACKAGE / "__main__.py"] + [
    path for path in sorted((ROOT / "e2ebench").glob("*.py"))
    if not path.name.startswith("test_")
]

# module -> why it stays although no entry point imports it.
REACH_ALLOWLIST: Dict[str, str] = {
    "repro.analysis.export": "its CSVs, written by the benchmarks/ paper-artifact "
                             "scripts, are the only committed record of the Table "
                             "II-IV accuracy confidence intervals until a claim "
                             "ledger carries them",
}

# name -> why it stays although only tests call it.
ALLOWLIST: Dict[str, str] = {
    "add_second_speaker": "tests drive the guard over a mixed Echo + Google home "
                          "(one guard, per-speaker IP keying; paper Section V)",
    "offline_outage": "tests build the home-wide outage plan the golden "
                      "outage trace pins with it",
}


def module_files(src: pathlib.Path, package: str) -> Dict[str, pathlib.Path]:
    """Dotted name -> file of each module under ``src/package``, package
    ``__init__`` files left out."""
    return {
        ".".join(path.relative_to(src).with_suffix("").parts): path
        for path in sorted((src / package).rglob("*.py"))
        if path.name != "__init__.py"
    }


def imported_modules(path: pathlib.Path, modules: Dict[str, pathlib.Path]) -> Set[str]:
    """The names in ``modules`` that ``path`` imports anywhere in its body."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names & modules.keys()


def unreached(src: pathlib.Path, package: str,
              entry_points: Sequence[pathlib.Path]) -> List[str]:
    """Modules under ``src/package`` that no import chain from
    ``entry_points`` reaches."""
    modules = module_files(src, package)
    reached = {name for name, path in modules.items() if path in entry_points}
    frontier = list(entry_points)
    while frontier:
        found = imported_modules(frontier.pop(), modules) - reached
        reached |= found
        frontier.extend(modules[name] for name in found)
    return sorted(modules.keys() - reached)


def test_every_module_is_reached_from_an_entry_point():
    missing = [name for name in unreached(SRC, "repro", ENTRY_POINTS)
               if name not in REACH_ALLOWLIST]
    assert not missing, (
        "modules no entry point imports (import them from an entry point, "
        "delete them, or add them to REACH_ALLOWLIST with a reason): "
        + ", ".join(missing))


def test_reach_allowlist_is_current():
    """An allowlisted module that is gone, or that an entry point now
    reaches, leaves the list."""
    left = unreached(SRC, "repro", ENTRY_POINTS)
    stale = sorted(name for name in REACH_ALLOWLIST if name not in left)
    assert not stale, f"stale REACH_ALLOWLIST entries: {stale}"


def test_walk_flags_a_planted_module(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    files = {
        # The package re-exports the planted module: not a caller.
        "__init__.py": "from pkg.planted import helper\n",
        "__main__.py": "from pkg import used\n",
        "used.py": "def run():\n    import pkg.deep\n",
        "deep.py": "from pkg import helper\n",
        "planted.py": "def helper():\n    pass\n",
    }
    for name, text in files.items():
        (package / name).write_text(text, encoding="utf-8")
    assert unreached(tmp_path, "pkg", [package / "__main__.py"]) == ["pkg.planted"]


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


# "module:qualname" -> parameter names of each experiment entry point
# whose every parameter has a caller that sets it.  The sweep runners'
# names are also the CLI flags the one sweep handler passes them.
RUNNER_PARAMETERS: Dict[str, List[str]] = {
    "repro.experiments.rssi_tables:run_rssi_table": ["testbed", "seed", "scale", "workers"],
    "repro.experiments.runner:run_rssi_experiment": [
        "testbed_name", "speaker_kind", "deployment", "seed", "legit_count",
        "malicious_count", "config", "with_floor_tracking", "fault_plan"],
    "repro.experiments.workload:SevenDayWorkload.run": [
        "self", "legit_count", "malicious_count"],
    "repro.experiments.table1:run_table1": ["seed"],
    "repro.experiments.fig10:run_fig10": ["seed", "test_reps"],
    "repro.experiments.resilience:run_resilience": ["seed", "scale", "testbed", "workers"],
    "repro.experiments.loadtest:run_loadtest": ["seed", "smoke", "utterances", "workers"],
    "repro.experiments.loadtest:run_loadtest_cell": [
        "speakers", "rate", "mode", "seed", "utterances"],
    "repro.experiments.recognition_robustness:run_recognition_robustness": [
        "seed", "smoke", "workers"],
    "repro.experiments.campaign:run_campaign": ["homes", "seed", "workers"],
    "repro.experiments.hold_endurance:run_hold_endurance": ["holds", "seed", "workers"],
    "repro.experiments.ablation:run_defense_matrix": [
        "seed", "trials_per_attack", "legit_trials"],
    "repro.experiments.ablation:run_floor_ablation": ["seed", "legit", "malicious"],
    "repro.experiments.ablation:run_signature_ablation": ["seed", "commands"],
    "repro.experiments.ablation:run_firewall_comparison": ["seed", "commands"],
}


@pytest.mark.parametrize("target", sorted(RUNNER_PARAMETERS))
def test_runner_parameters_are_pinned(target):
    module, qualname = target.split(":")
    runner = importlib.import_module(module)
    for part in qualname.split("."):
        runner = getattr(runner, part)
    assert list(inspect.signature(runner).parameters) == RUNNER_PARAMETERS[target]
