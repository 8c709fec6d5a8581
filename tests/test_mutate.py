"""The mutation scan's text edits still fit the modules it scans: every
mutant that ``tools/mutate.py`` builds parses and differs from its source.
No mutant is run here; the scan itself runs outside the suite."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutate(monkeypatch):
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # @dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def test_every_mutant_parses_and_differs_from_its_source(monkeypatch):
    mutate = load_mutate(monkeypatch)
    for module, operators in mutate.TARGETS.items():
        source = (ROOT / mutate.source_path(module)).read_bytes()
        found = mutate.mutants(source, operators)
        assert found, module
        for mutant in found:
            mutated = mutate.apply(source, mutant)
            assert mutated != source, (module, mutant)
            ast.parse(mutated)
