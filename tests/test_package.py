"""The package's public surface and its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

import trajkit

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in trajkit.__all__ if not hasattr(trajkit, name)]
    assert missing == []
    assert len(set(trajkit.__all__)) == len(trajkit.__all__)


def _third_party_imports(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports, but for the standard library's
    and relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def _declared() -> set[str]:
    """The import names of ``pyproject.toml``'s runtime dependencies."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower().replace("-", "_") for dep in project["dependencies"]}


def test_every_third_party_import_is_a_declared_dependency():
    imports = set().union(*(_third_party_imports(path.read_text())
                            for path in (ROOT / "src" / "trajkit").glob("*.py")))
    assert imports - _declared() == set()
    assert {"numpy", "scipy", "orjson"} <= imports  # the walk finds the imports it checks


def test_an_undeclared_import_is_caught():
    source = "from __future__ import annotations\nimport json\nimport orjson\nfrom .io import x\n"
    assert _third_party_imports(source) - (_declared() - {"orjson"}) == {"orjson"}
