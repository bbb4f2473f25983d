"""The package's declared runtime dependencies are the third-party
modules it imports.

Every import in `src/eqspike` counts, a function's own imports included,
so a lazy import that brings in a dependency shows here.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 on

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eqspike"
# the import name of each declared distribution whose name differs from it
IMPORT_NAMES = {"pyyaml": "yaml"}


def _imported_top_levels():
    """The top-level module of every absolute import in the package."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_declared_dependencies_are_the_imported_modules():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[\w.-]+", d).group().lower() for d in declared}
    third_party = _imported_top_levels() - set(sys.stdlib_module_names) \
        - {"eqspike"}
    assert third_party == {IMPORT_NAMES.get(n, n) for n in names}
