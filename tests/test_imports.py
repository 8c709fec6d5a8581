"""Every name a pathcert module imports is used there, so deleting a helper
cannot leave its import behind; no module imports a sibling's private name;
and no source line is wider than 100 columns."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathcert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MAX_COLUMNS = 100


def is_noqa(node, lines) -> bool:
    return any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])


def unused_imports(path, pick) -> list[str]:
    """The names bound by the import nodes ``pick(tree)`` yields that the
    module never reads, skipping lines that say ``# noqa: F401`` (a name
    bound for outside callers).  ``import a.b`` binds ``a``."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for node in pick(tree) if not is_noqa(node, lines)
            for name in (alias.asname or alias.name.partition(".")[0] for alias in node.names)
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_sibling_imports_are_used(path):
    """A relative import, at any depth, is kept only if the module reads
    the name."""
    unused = unused_imports(path, lambda tree: (
        node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level >= 1))
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_imports_are_used(path):
    """Every module-level import, standard library included, is kept only
    if the module reads the name; ``from __future__`` imports bind none."""
    unused = unused_imports(path, lambda tree: (
        node for node in tree.body if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"))
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_sibling_imports(path):
    """A name with a leading underscore stays in its module: a relative
    import of one means the name has a second owner and belongs there."""
    private = [f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level >= 1
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names {private}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_source_lines_fit_the_width(path):
    wide = [i for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not wide, f"{path.name} has lines wider than {MAX_COLUMNS} columns: {wide}"


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


def public_definitions(path):
    """(name, first line, last line) of each public top-level function and
    class of a module, and of each public method of its public classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                yield from ((item.name, item.lineno, item.end_lineno) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def names_read(path) -> list[tuple[str, int]]:
    """(name, line) of each name a file reads, as a variable, an attribute,
    an imported name or a string equal to it (the tracer binds by string)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def test_public_names_have_a_caller_outside_the_tests():
    """Each public function, class and method of the package is named
    outside its own definition: elsewhere in the package (the re-exports of
    ``__init__`` included) or in bench/*.py.  A name only the tests read
    belongs in tests/conftest.py."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parents[1] / "bench").glob("*.py"))
    reads = {path: names_read(path) for path in sources}
    unread = [f"{path.stem}.{name}" for path in MODULES
              for name, first, last in public_definitions(path)
              if not any(read == name and (where != path or not first <= line <= last)
                         for where, names in reads.items() for read, line in names)]
    assert not unread, f"only the tests name {unread}"


def test_int_byte_conversions_pass_their_byte_order():
    """``int.to_bytes`` and ``int.from_bytes`` take the byte order as their
    second argument, which has no default before Python 3.11; pyproject
    declares 3.10, so every call in the package passes it."""
    calls = [(path.name, node) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("to_bytes", "from_bytes")]
    assert {name for name, _ in calls} >= {"formats.py", "rng.py"}
    bare = [f"{name}:{node.lineno}" for name, node in calls
            if len(node.args) < 2 and "byteorder" not in {kw.arg for kw in node.keywords}]
    assert not bare, f"int byte conversions without a byte order: {bare}"
