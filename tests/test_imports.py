"""Every ``repro`` import in the shipped code resolves.

Walks the AST of every ``.py`` file under ``src/``, ``benchmarks/`` and
``examples/`` -- including imports inside function bodies, which only run
when the function does -- and checks that each ``import repro...`` names a
module and each ``from repro... import name`` names an attribute or
submodule.  A deleted module or export then fails here, not at the first
call of a rarely run code path.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples")


def _absolute_module(path: pathlib.Path, node: ast.ImportFrom):
    """The absolute module an ``ImportFrom`` names (relative ones only under src/)."""
    if node.level == 0:
        return node.module
    rel = path.relative_to(ROOT)
    if rel.parts[0] != "src":
        return None
    package = list(rel.with_suffix("").parts[1:-1])
    if node.level > 1:
        package = package[:1 - node.level]
    return ".".join(package + ([node.module] if node.module else []))


@functools.lru_cache(maxsize=1)
def _repro_imports():
    """(location, module, name-or-None) for every repro import in the scanned trees."""
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                where = f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Import):
                    found.extend((where, alias.name, None) for alias in node.names
                                 if alias.name.split(".")[0] == "repro")
                elif isinstance(node, ast.ImportFrom):
                    module = _absolute_module(path, node)
                    if module and module.split(".")[0] == "repro":
                        found.extend((where, module, alias.name) for alias in node.names)
    return tuple(found)


def _unresolved(module: str, name):
    try:
        target = importlib.import_module(module)
    except ImportError as exc:
        return f"module {module}: {exc}"
    if name is None or name == "*" or hasattr(target, name):
        return None
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return f"{module} has no {name!r}"
    return None


def test_scan_finds_the_package_imports():
    assert len(_repro_imports()) > 500


@pytest.mark.parametrize("top", SCANNED)
def test_every_repro_import_resolves(top):
    problems = []
    for where, module, name in _repro_imports():
        if not where.startswith(top + "/"):
            continue
        problem = _unresolved(module, name)
        if problem is not None:
            problems.append(f"{where}: {problem}")
    assert not problems, "\n".join(problems)
