"""Every name a pathcert module imports from a sibling module is used there,
so deleting a helper cannot leave its import behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathcert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_sibling_imports_are_used(path):
    """A relative import is kept only if the module reads the name, or if
    its line says ``# noqa: F401`` (a name bound for outside callers)."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level >= 1):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [alias.asname or alias.name for alias in node.names
                   if (alias.asname or alias.name) not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"
