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


def _unused_private_defs(sources: list[str]) -> set[str]:
    """The private functions of ``sources``, at module level or methods in a class body, that no
    code in them names outside the function's own body."""
    defs, used = set(), set()
    for source in sources:
        for top in ast.parse(source).body:
            if isinstance(top, ast.ClassDef):  # each method apart; the rest of the class as one node
                nodes = [*top.decorator_list, *top.bases, *top.keywords, *top.body]
            else:
                nodes = [top]
            for node in nodes:
                own = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
                if own and own.startswith("_") and not own.startswith("__"):
                    defs.add(own)
                # a Name's id or an Attribute's attr
                used |= {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)} - {own}
    return defs - used


def test_every_private_function_has_a_caller():
    # a helper that only its own recursion or the tests call is code no run reads
    sources = [path.read_text() for path in (ROOT / "src" / "trajkit").glob("*.py")]
    assert _unused_private_defs(sources) == set()
    # the walk sees the helpers and the private methods it checks
    assert len(re.findall(r"^def _", "".join(sources), re.M)) > 20
    assert len(re.findall(r"^    def _(?!_)", "".join(sources), re.M)) >= 5


def test_an_uncalled_private_function_is_caught():
    source = ("def public():\n    return _kept\n\n\ndef _kept(x):\n    return x\n\n\n"
              "def _dead(x):\n    return _dead(x) if x else _kept(x)\n")
    assert _unused_private_defs([source, "import m\nm._other()\n"]) == {"_dead"}


def test_an_uncalled_private_method_is_caught():
    source = ("class Store:\n    def get(self):\n        return self._kept()\n\n"
              "    def _kept(self):\n        return 1\n\n"
              "    def _dead(self, x):\n        return self._dead(x - 1) if x else self._kept()\n")
    assert _unused_private_defs([source]) == {"_dead"}
