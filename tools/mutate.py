"""Mutation scan of the verifiers and the producers in ``src/pathcert``.

Each mutant changes one operator of one module:

  compare   a comparison operator swapped for its neighbour
            (< and <=, > and >=, == and !=, is and is not, in and not in);
  boolop    ``and`` and ``or`` swapped;
  reject    the test of an ``if`` whose body returns a rejection
            (``Verdict(False, ...)`` or a verdict held in a name) made False;
  bitop     ``&`` and ``|`` swapped (``&=`` and ``|=`` too);
  bound     an int literal or attribute operand of an ordering or
            (in)equality comparison shifted by +1 and by -1 (``0`` -> ``1``,
            ``g.n`` -> ``(g.n - 1)``); comparisons with a string are skipped;
  early     the test of an ``if`` whose body ends in ``return``,
            ``continue``, ``break`` or ``raise`` made False, and a
            conditional expression ``a if c else b`` replaced by ``(b)``.

The verifiers (``witnesses.py``) get the first five operators, the
producers (``graph.py``, ``extractor.py``, ``homogeneous.py`` and
``pipeline.py``) get ``early``: a surviving producer mutant is either a
missing test or a shortcut whose gain on some benchmark workload's traffic
has to be shown.  ``graph.py`` also gets ``compare`` and ``bitop``: its
component sweep, in both modes, and its row and mask helpers are
comparisons and bit operations on masks.  ``cographs.py`` gets every
operator but ``reject`` (it returns no verdicts), since its cotree loop
decides each part by comparisons and bit operations on degree-table masks.
``formats.py`` gets ``compare``, ``bound`` and ``early``: the parser's
range, size and switch point checks are comparisons.  ``cli.py`` gets ``early`` too, for its
exit-status decisions.  Only the operator's, the bound's or the test's own
characters are rewritten (a conditional expression keeps its else branch's
text), so every other line of the module keeps its text.

The mutants run in a temporary copy of the repository, which must first
pass the full suite and each scanned module's test file unmutated; those
runs are timed.  Each mutant runs the module's own test file
(``tests/test_<module>.py``) and, if it survives that, the full suite
but ``tests/test_mutate.py``, the scan's own guard.  A run that fails or
times out kills the mutant: a mutant can loop forever, so a test file's
run gets three times its unmutated run (at least ``FLOOR`` seconds) and a
full-suite run ten times the unmutated suite's.  The output is one
Markdown table row per mutant and, per module, the number that survive the
full suite.  On a 2-core x86 host the scan of ``extractor.py`` alone (15
mutants, none reaching the full suite) takes about 80 s, most of it the
unmutated full suite, and that of ``graph.py`` (57 mutants, six reaching
the full suite) about 14 minutes.

It needs the standard library and pytest only.  Name modules to scan
just those (each must be a key of ``TARGETS``); with none, every module is
scanned::

    python tools/mutate.py [module ...]
    python tools/mutate.py graph homogeneous
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFIER = ("compare", "boolop", "reject", "bitop", "bound")
PRODUCER = ("early",)
# Module -> the operators it is scanned with.
TARGETS = {"witnesses": VERIFIER, "graph": ("compare", "bitop", "early"), "extractor": PRODUCER,
           "cographs": ("compare", "boolop", "bitop", "bound", "early"),
           "homogeneous": PRODUCER, "pipeline": PRODUCER,
           "formats": ("compare", "bound", "early"), "cli": PRODUCER}
# The least timeout, in seconds, of a run of a module's test file: a file
# that runs in a second or two would otherwise give a slow start-up a kill.
FLOOR = 10.0
# The full-suite runs on mutants leave out the scan's own guard: it builds
# the mutants of each source, and a mutated source's ``if False`` has none
# that differs from it.
FULL_SUITE = ["--ignore=tests/test_mutate.py"]

NEIGHBOUR = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=",
             ast.NotEq: "==", ast.Is: "is not", ast.IsNot: "is", ast.In: "not in",
             ast.NotIn: "in"}
SPELLING = {ast.Lt: r"<(?!=)", ast.LtE: r"<=", ast.Gt: r">(?!=)", ast.GtE: r">=",
            ast.Eq: r"==", ast.NotEq: r"!=", ast.Is: r"\bis\b(?!\s+not\b)",
            ast.IsNot: r"\bis\s+not\b", ast.In: r"(?<!not )\bin\b", ast.NotIn: r"\bnot\s+in\b"}


@dataclass(frozen=True)
class Mutant:
    kind: str
    line: int
    edits: tuple[tuple[int, int, str], ...]  # (start, end, text) as byte offsets
    change: str


def source_path(module: str) -> Path:
    return Path("src") / "pathcert" / f"{module}.py"


def _offset(starts: list[int], line: int, col: int) -> int:
    return starts[line - 1] + col


def _span(starts, node: ast.AST) -> tuple[int, int]:
    return (_offset(starts, node.lineno, node.col_offset),
            _offset(starts, node.end_lineno, node.end_col_offset))


def _gap_edit(source: bytes, starts, before: ast.AST, after: ast.AST,
              pattern: str, text: str) -> tuple[int, int, str]:
    """The edit that rewrites the operator matching ``pattern`` between the
    end of ``before`` and the start of ``after`` (only brackets and blanks
    are there besides it)."""
    lo = _offset(starts, before.end_lineno, before.end_col_offset)
    hi = _offset(starts, after.lineno, after.col_offset)
    found = re.search(pattern.encode(), source[lo:hi])
    assert found, (before.lineno, source[lo:hi])
    return lo + found.start(), lo + found.end(), text


def _bounds(source: bytes, starts, node: ast.Compare) -> list[Mutant]:
    """The two range-bound mutants of each int literal and attribute operand
    of ``node``, unless it compares strings or uses is / in."""
    operands = [node.left, *node.comparators]
    if (any(isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)) for op in node.ops)
            or any(isinstance(x, ast.Constant) and isinstance(x.value, str) for x in operands)):
        return []
    found = []
    for x in operands:
        literal = isinstance(x, ast.Constant) and type(x.value) is int
        if not literal and not isinstance(x, ast.Attribute):
            continue
        start, end = _span(starts, x)
        old = source[start:end].decode()
        for shift in (1, -1):
            new = str(x.value + shift) if literal else f"({old} {'+-'[shift < 0]} 1)"
            found.append(Mutant("bound", node.lineno, ((start, end, new),), f"`{old}` -> `{new}`"))
    return found


def _rejects(stmt: ast.stmt) -> bool:
    if not isinstance(stmt, ast.Return) or stmt.value is None:
        return False
    value = stmt.value
    if isinstance(value, ast.Name):
        return value.id != "ACCEPT"
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "Verdict" and bool(value.args)
            and isinstance(value.args[0], ast.Constant) and value.args[0].value is False)


def _if_false(source: bytes, starts, node: ast.If, kind: str) -> Mutant:
    start, end = _span(starts, node.test)
    old = " ".join(source[start:end].decode().split())
    return Mutant(kind, node.lineno, ((start, end, "False"),), f"`if {old}` -> `if False`")


def mutants(source: bytes, operators: tuple[str, ...]) -> list[Mutant]:
    """Every mutant of ``source`` by ``operators``, in the order of their
    positions."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    hints = {id(sub) for node in ast.walk(tree)  # type hints are not run
             for hint in (getattr(node, "annotation", None), getattr(node, "returns", None))
             if hint is not None for sub in ast.walk(hint)}
    found = []
    for node in ast.walk(tree):
        if id(node) in hints:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                new = NEIGHBOUR[type(op)]
                edit = _gap_edit(source, starts, operands[i], operands[i + 1],
                                 SPELLING[type(op)], new)
                old = source[edit[0]:edit[1]].decode()
                found.append(Mutant("compare", node.lineno, (edit,), f"`{old}` -> `{new}`"))
            found.extend(_bounds(source, starts, node))
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            edits = tuple(_gap_edit(source, starts, a, b, rf"\b{old}\b", new)
                          for a, b in zip(node.values, node.values[1:]))
            found.append(Mutant("boolop", node.lineno, edits, f"`{old}` -> `{new}`"))
        elif isinstance(node, ast.If):
            if any(map(_rejects, node.body)):
                found.append(_if_false(source, starts, node, "reject"))
            if isinstance(node.body[-1], (ast.Return, ast.Continue, ast.Break, ast.Raise)):
                found.append(_if_false(source, starts, node, "early"))
        elif isinstance(node, ast.IfExp):  # the else branch, bracketed, is kept
            lo, hi = _span(starts, node)
            start, end = _span(starts, node.orelse)
            test = " ".join(source[slice(*_span(starts, node.test))].decode().split())
            found.append(Mutant("early", node.lineno, ((lo, start, "("), (end, hi, ")")),
                                f"`... if {test} else b` -> `(b)`"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
            old, new = ("&", "|") if isinstance(node.op, ast.BitAnd) else ("|", "&")
            edit = _gap_edit(source, starts, node.left, node.right, re.escape(old), new)
            found.append(Mutant("bitop", node.lineno, (edit,), f"`{old}` -> `{new}`"))
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.op, (ast.BitAnd, ast.BitOr))):
            old, new = ("&=", "|=") if isinstance(node.op, ast.BitAnd) else ("|=", "&=")
            edit = _gap_edit(source, starts, node.target, node.value, re.escape(old), new)
            found.append(Mutant("bitop", node.lineno, (edit,), f"`{old}` -> `{new}`"))
    found = [m for m in found if m.kind in operators]
    found.sort(key=lambda m: m.edits[0][0])
    return found


def apply(source: bytes, mutant: Mutant) -> bytes:
    for start, end, text in sorted(mutant.edits, reverse=True):
        source = source[:start] + text.encode() + source[end:]
    return source


def run_tests(work: Path, args: list[str], timeout: float | None) -> str:
    """``"pass"``, ``"fail"`` or ``"timeout"`` for one pytest run in ``work``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode between mutants
    env.pop("PYTHONPATH", None)  # the copy's pyproject puts its own src on the path
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *args], cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def _timed(work: Path, args: list[str]) -> float:
    """Seconds of one pytest run in ``work`` on the unmutated sources; a
    failing run ends the scan."""
    start = time.monotonic()
    if run_tests(work, args, None) != "pass":
        sys.exit(f"the unmutated copy fails {' '.join(args) or 'the full suite'}")
    return time.monotonic() - start


def _run(found: list[tuple[str, bytes, Mutant]]) -> list[str]:
    """Each (module, source, mutant)'s result: the module's test file on
    all, the full suite on survivors."""
    results = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_work"))
        full_timeout = 10 * _timed(work, [])
        timeout = {module: max(FLOOR, 3 * _timed(work, [f"tests/test_{module}.py"]))
                   for module in dict.fromkeys(module for module, _, _ in found)}
        for i, (module, source, mutant) in enumerate(found):
            (work / source_path(module)).write_bytes(apply(source, mutant))
            results.append(run_tests(work, [f"tests/test_{module}.py"], timeout[module]))
            (work / source_path(module)).write_bytes(source)
            print(f"mutant {i + 1}: {results[i]}", file=sys.stderr, flush=True)
        for i, result in enumerate(results):
            if result != "pass":
                continue
            module, source, mutant = found[i]
            (work / source_path(module)).write_bytes(apply(source, mutant))
            results[i] = "full " + run_tests(work, FULL_SUITE, full_timeout)
            (work / source_path(module)).write_bytes(source)
            print(f"mutant {i + 1}: {results[i]}", file=sys.stderr, flush=True)
    words = {"fail": "killed by test_{}.py", "timeout": "killed by test_{}.py (timeout)",
             "full pass": "survives the full suite", "full fail": "killed by the full suite",
             "full timeout": "killed by the full suite (timeout)"}
    return [words[result].format(module) for (module, _, _), result in zip(found, results)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Mutation scan of src/pathcert.")
    parser.add_argument("modules", nargs="*", metavar="module",
                        help=f"a module to scan, one of {', '.join(TARGETS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = [module for module in args.modules if module not in TARGETS]
    if unknown:  # argparse's choices reject an empty list for nargs="*"
        parser.error(f"unknown module {unknown[0]!r} (choose from {', '.join(TARGETS)})")
    modules = list(dict.fromkeys(args.modules)) or list(TARGETS)
    found = []
    for module in modules:
        source = (ROOT / source_path(module)).read_bytes()
        for mutant in mutants(source, TARGETS[module]):
            ast.parse(apply(source, mutant))  # every mutant must still parse
            found.append((module, source, mutant))
    results = _run(found)
    print("| # | module | line | operator | change | result |")
    print("|---|--------|------|----------|--------|--------|")
    for i, ((module, _, m), result) in enumerate(zip(found, results), 1):
        change = m.change.replace("|", "\\|")  # a bare | would end the table cell
        print(f"| {i} | {module} | {m.line} | {m.kind} | {change} | {result} |")
    print()
    for module in modules:
        mine = [result for (name, _, _), result in zip(found, results) if name == module]
        print(f"{module}.py: {len(mine)} mutants, "
              f"{mine.count('survives the full suite')} survive the full suite")
    return 0


if __name__ == "__main__":
    sys.exit(main())
