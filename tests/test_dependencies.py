"""The package imports only the standard library and its declared dependencies.

Every ``import`` in every module under ``src/repro`` -- lazy imports inside
functions included -- must name a standard-library module, ``repro``
itself, or a distribution listed in ``pyproject.toml``'s
``[project].dependencies``; and every listed dependency must be imported
somewhere.  An undeclared import fails a clean install, and a declared but
unused one makes every install pull a package the code never loads.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_ROOT / "src" / "repro"


def _declared_dependencies() -> set[str]:
    """Import names of ``[project].dependencies``, read with a line scan
    (``tomllib`` is Python 3.11+)."""
    names: set[str] = set()
    table = None
    in_list = False
    for line in (REPO_ROOT / "pyproject.toml").read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and not in_list:
            table = stripped
            continue
        if table == "[project]" and re.match(r"dependencies\s*=\s*\[", stripped):
            in_list = True
        if in_list:
            for requirement in re.findall(r"\"([^\"]+)\"", stripped):
                name = re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0]
                names.add(name.lower().replace("-", "_"))
            if "]" in stripped.split("#", 1)[0]:
                in_list = False
    return names


def _imported_top_level_names() -> dict[str, str]:
    """Each top-level module any package module imports, with one module
    that imports it."""
    imported: dict[str, str] = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # A relative import stays inside the package.
                modules = ["repro"] if node.level else [node.module or ""]
            else:
                continue
            for module in modules:
                imported.setdefault(module.split(".")[0], str(path.relative_to(REPO_ROOT)))
    return imported


def test_package_imports_only_the_stdlib_and_its_declared_dependencies():
    declared = _declared_dependencies()
    assert declared, "no [project].dependencies found in pyproject.toml"
    imported = _imported_top_level_names()
    undeclared = {
        name: where
        for name, where in imported.items()
        if name != "repro" and name not in sys.stdlib_module_names and name not in declared
    }
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"
    unused = declared - set(imported)
    assert not unused, f"in [project].dependencies but never imported: {sorted(unused)}"
