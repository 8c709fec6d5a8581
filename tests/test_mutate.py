"""The mutation scan's text edits still fit the modules it scans: every
mutant that ``tools/mutate.py`` builds parses and differs from its source.
No mutant is run here; the scan itself runs outside the suite."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_an_unknown_module_is_a_usage_error(monkeypatch, capsys):
    mutate = load_mutate(monkeypatch)
    monkeypatch.setattr(mutate, "_run", lambda found: pytest.fail("a mutant was run"))
    for argv in (["nope"], ["graph", "graph.py"], ["test_mutate"]):
        with pytest.raises(SystemExit) as exit_:
            mutate.main(argv)
        assert exit_.value.code == 2, argv
        assert "unknown module" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["graph"], ["graph", "homogeneous", "graph"], []],
                         ids=["one", "two", "all"])
def test_named_modules_build_only_their_own_mutants(argv, monkeypatch, capsys):
    mutate = load_mutate(monkeypatch)
    ran = []

    def run(found):  # records the mutants in place of running them
        ran.extend(found)
        return ["survives the full suite"] * len(found)

    def no_pytest(*args):
        pytest.fail("a test run was started")

    monkeypatch.setattr(mutate, "_run", run)
    monkeypatch.setattr(mutate, "run_tests", no_pytest)
    assert mutate.main(argv) == 0
    modules = list(dict.fromkeys(argv)) or list(mutate.TARGETS)
    want = []
    for module in modules:
        source = (ROOT / mutate.source_path(module)).read_bytes()
        want += [(module, source, m) for m in mutate.mutants(source, mutate.TARGETS[module])]
    assert ran == want
    out = capsys.readouterr().out
    summary = [line for line in out.splitlines() if line.endswith("survive the full suite")]
    assert [line.split(".py:")[0] for line in summary] == modules
    assert out.count("| survives the full suite |") == len(ran)
