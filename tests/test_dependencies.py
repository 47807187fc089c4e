from __future__ import annotations

import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

from mindpipe import __version__

ROOT = Path(__file__).resolve().parents[1]


def _normalized(name: str) -> str:
    """A distribution name in its PEP 503 normal form."""
    return re.sub(r"[-_.]+", "-", name).lower()


def _top_level_imports(package: Path) -> set[str]:
    names: set[str] = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        _normalized(re.match(r"[A-Za-z0-9._-]+", spec).group())
        for spec in project["dependencies"]
    }
    third_party = _top_level_imports(ROOT / "src" / "mindpipe") - set(sys.stdlib_module_names)
    third_party.discard("mindpipe")
    # an import no installed distribution provides is undeclared under its own name
    provided_by = importlib.metadata.packages_distributions()
    used = {
        _normalized(distribution)
        for module in third_party
        for distribution in provided_by.get(module, [module])
    }
    assert used == declared


def test_the_project_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["version"] == __version__
