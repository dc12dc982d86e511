"""Source hygiene: no module imports a name it never uses.

The repository configures no linter, so this standard-library AST scan
stands in for the unused-import rule. It covers the package modules
(except ``__init__.py``, whose imports are re-exports) and the test
modules. A name counts as used when it is read anywhere in the module
or listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(
    p for p in [*(ROOT / "src" / "boundedkv").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\n\nloads(os.sep)\n"
    assert unused_imports(source) == [(1, "math"), (3, "d")]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
