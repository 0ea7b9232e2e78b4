"""Every third-party module ``repro`` imports is a declared dependency.

An undeclared import installs cleanly and then fails at ``import repro``
on a machine without it, so the check is static: parse each module under
``src/repro``, collect its top-level imports, drop the standard library
and ``repro`` itself, and require the rest in ``pyproject.toml``'s
``[project].dependencies``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "repro"


def top_level_imports(path: Path):
    """Root package names of the module's top-level import statements."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        names.add(re.sub(r"[-_.]+", "_", name).lower())
    return names


def test_third_party_imports_are_declared():
    stdlib = set(sys.stdlib_module_names) | {"__future__"}
    declared = declared_dependencies()
    undeclared = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted(SOURCES.rglob("*.py"))
        for name in top_level_imports(path)
        if name not in stdlib and name != "repro" and name.lower() not in declared
    }
    assert not undeclared, (
        "imported at module level but not in [project].dependencies: "
        + ", ".join(sorted(undeclared))
    )


def test_the_scan_sees_numpy():
    # Guards the scan itself: the engines import numpy at module level.
    assert "numpy" in set(top_level_imports(SOURCES / "sim" / "compile.py"))
