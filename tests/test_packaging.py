"""The package metadata declares what the test suite imports, so that
``pip install .[test]`` is enough to collect it."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

ROOT = Path(__file__).resolve().parents[1]
# the package itself and the helper modules that live beside the tests
LOCAL = {"varpert", "polyexp_helpers", "domain_draws"}


def _imported_packages(path):
    """Top-level names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_test_import_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    requirements = (project["dependencies"]
                    + project["optional-dependencies"]["test"])
    declared = {re.match(r"[A-Za-z0-9_.-]+", r)[0].lower().replace("-", "_")
                for r in requirements}
    missing = {
        (name, path.name)
        for path in sorted((ROOT / "tests").glob("*.py"))
        for name in _imported_packages(path)
        if name not in sys.stdlib_module_names and name not in LOCAL
        and name.lower() not in declared}
    assert not missing, f"undeclared imports (package, file): {sorted(missing)}"
