"""The benchmark's witnesses stay byte-identical: each workload's seed-1
corpus, run through the CLI as ``bench/run.py`` runs it, hashes to the
digest that ``bench/run.py`` prints for it.  And each answer file of those
runs passes ``pathcert verify``."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from pathcert import cli, formats

from conftest import check_answer_file

BENCH = Path(__file__).resolve().parents[1] / "bench"

DIGESTS = {
    "dense-peel": "82610cb523cbf02cc91620f0a916087e6a6dc07f117cb4623388db093de42823",
    "deep-path": "35c4a61a35aac5cdb71ec32980c2aa401f2e1a6ace2a025af74191f309332a84",
    "eh-cograph": "7d38d107839a92f1a6da516354c204a1c43f3c146748e1c800d8344504dacdb4",
}


@pytest.fixture(scope="module")
def run():
    """bench/run.py as a module, loaded unchanged: its hostspeed and tracing
    imports need bench/ on the path, and its dataclasses need the module
    registered before it runs."""
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def answers(run, tmp_path_factory):
    """name -> each instance of that workload's seed-1 corpus with its
    --out file, None where the request failed: one run of each corpus
    through the CLI, shared by the tests below."""
    @functools.cache
    def answers_of(name):
        workload = run.WORKLOADS[name]
        folder = tmp_path_factory.mktemp(name)
        found = []
        for i, inst in enumerate(run.write_corpus(workload, 1, folder)):
            out = folder / f"{i:03d}.json"
            argv = [workload.command, "--input", str(inst.path), "--format", "edges",
                    "--k", str(workload.k), "--out", str(out)]
            found.append((inst, out if cli.main(argv) == 0 else None))
        return found
    return answers_of


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bench_witness_digest(run, answers, name):
    for inst, out in answers(name):
        if out is not None:
            inst.witness_json = run.check_output(run.WORKLOADS[name], inst, out)[0]
    assert run.witness_digest([inst for inst, _ in answers(name)]) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bench_answer_files_pass_verify(answers, name):
    """Every request succeeds, and its --out file passes ``pathcert verify``
    against the request's graph, and fails it once its witness is tampered.
    verify reads the graph as graph6: the cographs' edge lists take about
    seven times as long to parse."""
    for inst, out in answers(name):
        assert out is not None
        graph = inst.path.with_suffix(".g6")
        graph.write_text(formats.encode_graph6(inst.graph))
        assert check_answer_file(str(graph), "graph6", inst.graph.n, out) == 1
