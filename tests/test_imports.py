"""Every name a pathcert module imports from a sibling module is used there,
so deleting a helper cannot leave its import behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathcert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def is_noqa(node, lines) -> bool:
    return any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


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
        if is_noqa(node, lines):
            continue
        unused += [alias.asname or alias.name for alias in node.names
                   if (alias.asname or alias.name) not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


def bench_bindings() -> set[tuple[str, str]]:
    """The (module, attribute) sites of ``LAYERS`` in bench/tracing.py, read
    from its source: each layer is (span name, probe, sites)."""
    tree = ast.parse((PACKAGE.parents[1] / "bench" / "tracing.py").read_text())
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) == "LAYERS" for target in node.targets))
    return {site for layer in layers.elts for site in ast.literal_eval(layer.elts[2])}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_noqa_imports_are_bench_bindings(path):
    """A ``# noqa: F401`` import is kept only for the benchmark's tracer,
    so each name it binds must be a (module, attribute) site in LAYERS:
    once a binding goes, the import it kept alive fails here."""
    text = path.read_text()
    lines = text.splitlines()
    bound = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level >= 1 and is_noqa(node, lines):
            bound |= {(path.stem, alias.asname or alias.name) for alias in node.names}
    assert not bound - bench_bindings(), f"{path.name} keeps imports no bench binding reads"
