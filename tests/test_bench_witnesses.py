"""The benchmark's witnesses stay byte-identical: each workload's seed-1
corpus, run through the CLI as ``bench/run.py`` runs it, hashes to the
digest that ``bench/run.py`` prints for it."""

import importlib.util
import sys
from pathlib import Path

import pytest

from pathcert import cli

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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bench_witness_digest(run, name, tmp_path):
    workload = run.WORKLOADS[name]
    instances = run.write_corpus(workload, 1, tmp_path)
    out = tmp_path / "out.json"
    for inst in instances:
        out.unlink(missing_ok=True)
        argv = [workload.command, "--input", str(inst.path), "--format", "edges",
                "--k", str(workload.k), "--out", str(out)]
        if cli.main(argv) == 0:
            inst.witness_json = run.check_output(workload, inst, out)[0]
    assert run.witness_digest(instances) == DIGESTS[name]
