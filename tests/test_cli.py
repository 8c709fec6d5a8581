import argparse
import hashlib
import importlib.util
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pathcert.cli
from pathcert.cli import build_parser, main
from pathcert.cographs import OracleError
from pathcert.formats import encode_graph6
from pathcert.generators import FAMILIES
from pathcert.graph import complete_bipartite_graph, complete_graph, cycle_graph, path_graph
from pathcert.patterns import PatternQueryResult
from pathcert.pipeline import choose_constants
from pathcert.witnesses import InducedPathWitness, PatternEmbedding

from conftest import (check_answer_file, reference_component_masks, small_graphs,
                      threshold_graph, witness_to_json)


def write_g6(tmp_path, g, name="g.g6"):
    p = tmp_path / name
    p.write_text(encode_graph6(g) + "\n")
    return str(p)


def test_gen_writes_deterministic_graph6(tmp_path, capsys):
    out = tmp_path / "a.g6"
    assert main(["gen", "--family", "gnp", "--n", "12", "--p", "1/2",
                 "--seed", "5", "--out", str(out)]) == 0
    first = out.read_text()
    assert main(["gen", "--family", "gnp", "--n", "12", "--p", "1/2",
                 "--seed", "5", "--out", str(out)]) == 0
    assert out.read_text() == first


def test_gen_ck_family_is_certified(tmp_path, capsys):
    # Index i draws from substreams i * budget on: index 0 keeps the
    # sampler's own draws, and the indices of one batch share none.
    from pathcert.formats import parse_edge_list
    from pathcert.generators import rejection_sample_ck
    from pathcert.patterns import is_pk_copk_free
    graphs = []
    for index in range(4):
        out = tmp_path / f"ck{index}.edges"
        assert main(["gen", "--family", "ck", "--n", "8", "--p", "1/2", "--k", "5",
                     "--seed", "3", "--budget", "5000", "--index", str(index),
                     "--format", "edges", "--out", str(out)]) == 0
        graphs.append(parse_edge_list(out.read_text()))
    assert all(g.n == 8 and is_pk_copk_free(g, 5) is None for g in graphs)
    assert graphs[0] == rejection_sample_ck(8, 5, Fraction(1, 2), seed=3, budget=5000)
    assert len(set(graphs)) > 1


GEN_OPTIONS = {"p": ["--p", "1/2"], "k": ["--k", "4"], "budget": ["--budget", "50"]}


@pytest.mark.parametrize("family", FAMILIES)
def test_gen_rejects_each_option_its_family_does_not_read(tmp_path, capsys, family):
    """``gen`` exits 2 with the option's name when an option the family reads
    is left out, or one it does not read is given."""
    reads = FAMILIES[family][0]
    argv = ["gen", "--family", family, "--n", "5", "--out", str(tmp_path / "g.g6")]
    assert main(argv + [arg for name in reads for arg in GEN_OPTIONS[name]]) == 0
    for name in GEN_OPTIONS:
        given = [arg for other in GEN_OPTIONS if (other in reads) != (other == name)
                 for arg in GEN_OPTIONS[other]]
        assert main(argv + given) == 2, name
        verb = "needs" if name in reads else "takes no"
        assert capsys.readouterr().err == f"error: {family} {verb} {name}\n"


def test_check_pk_free(tmp_path, capsys):
    path = write_g6(tmp_path, cycle_graph(5))
    assert main(["check", "--input", path, "--pk-free", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["free"] is True and "verified" not in data


def test_check_induced_path(tmp_path, capsys):
    path = write_g6(tmp_path, cycle_graph(6))
    assert main(["check", "--input", path, "--induced-path", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is True and data["witness"]["type"] == "embedding"
    assert data["verified"] is True
    assert main(["check", "--input", path, "--induced-path", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is False and "verified" not in data


def test_check_induced_path_longer_than_the_recursion_limit(tmp_path, capsys):
    path = write_g6(tmp_path, path_graph(1200))
    assert main(["check", "--input", path, "--induced-path", "1200"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["found"] is True and data["nodes_explored"] == 1200
    assert data["witness"]["map"] == list(range(1200))


def test_check_pk_free_longer_than_the_recursion_limit(tmp_path, capsys):
    path = write_g6(tmp_path, path_graph(1200))
    assert main(["check", "--input", path, "--pk-free", "1100"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["free"] is False
    assert data["witness"]["pattern"] == "P1100"
    assert data["witness"]["map"] == list(range(1100))


def test_edges_format_roundtrip(tmp_path, capsys):
    from pathcert.formats import write_edge_list
    g = cycle_graph(5)
    p = tmp_path / "g.edges"
    p.write_text(write_edge_list(g))
    assert main(["check", "--input", str(p), "--format", "edges",
                 "--pk-free", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["free"] is True


def test_extract_cograph_obstruction(tmp_path, capsys):
    path = write_g6(tmp_path, path_graph(4))
    assert main(["extract", "cograph-ramsey", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cograph"] is False
    assert data["witness"]["pattern"] == "P4"


def test_extract_path_or_bipartite(tmp_path, capsys):
    path = write_g6(tmp_path, path_graph(7))
    assert main(["extract", "path-or-bipartite", "--input", path,
                 "--start", "0", "--T", "1", "--D", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["witness"] == {"type": "path", "vertices": [0, 1, 2]}
    assert data["guaranteed_path_vertices"] == 1


def test_extract_path_or_bipartite_defaults_D_to_the_largest_closed_degree(tmp_path, capsys):
    # A 30-cycle has closed degree 3 everywhere, so the default D is 3 and
    # the guarantee is ceil(30 / (2 (1 + 3))) = 4 path vertices.
    path = write_g6(tmp_path, cycle_graph(30))
    assert main(["extract", "path-or-bipartite", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"] is True and data["witness"]["type"] == "path"
    assert data["guaranteed_path_vertices"] == 4
    assert len(data["witness"]["vertices"]) >= 4


def test_extract_path_or_bipartite_on_a_disconnected_graph_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "g.edges"
    p.write_text("5 3\n0 1\n2 3\n3 4\n")
    assert main(["extract", "path-or-bipartite", "--input", str(p), "--format", "edges"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input graph is disconnected\n" and captured.out == ""


@pytest.mark.parametrize("option", [["--start", "99"], ["--T", "0"], ["--D", "0"],
                                    ["--T", "0", "--D", "0", "--start", "99"]],
                         ids=["start", "T", "D", "all"])
def test_extract_cograph_ramsey_rejects_the_walks_options(tmp_path, capsys, option):
    # The walk's options belong to the path-or-bipartite parser alone.
    path = write_g6(tmp_path, complete_bipartite_graph(4, 4))
    with pytest.raises(SystemExit) as err:
        main(["extract", "cograph-ramsey", "--input", path, *option])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(option)}" in captured.err
    assert captured.out == ""


def test_extract_p4free_and_cograph(tmp_path, capsys):
    # ``extract p4free`` printed a set with no certificate; it is no longer
    # a mode.  cograph-ramsey prints K_{4,4}'s exact sets, verified.
    path = write_g6(tmp_path, complete_bipartite_graph(4, 4))
    with pytest.raises(SystemExit) as err:
        main(["extract", "p4free", "--input", path])
    assert err.value.code == 2
    assert main(["extract", "cograph-ramsey", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha"] == 4 and data["omega"] == 2 and data["verified"] is True


def test_extract_cograph_ramsey_on_deep_cotree(tmp_path, capsys):
    # A threshold graph's cotree has depth n - 1 = 1999; the command used to
    # crash with RecursionError (exit 3) from about n = 500.
    from pathcert.formats import write_edge_list
    path = tmp_path / "threshold.edges"
    path.write_text(write_edge_list(threshold_graph(2000)))
    assert main(["extract", "cograph-ramsey", "--input", str(path), "--format", "edges"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cograph"] is True
    assert (data["alpha"], data["omega"]) == (1000, 1001)
    stable, clique = data["witnesses"]
    assert (stable["kind"], clique["kind"]) == ("stable", "clique")
    assert stable["S"] == list(range(0, 2000, 2))
    assert clique["S"] == [0, *range(1, 2000, 2)]


def test_extract_cograph_ramsey_on_deep_cotree_at_n5000(tmp_path, capsys):
    # Depth 4999; sweeping the remaining part at every level made this take
    # about 16 s, splitting the chain from the degree table takes well
    # under one.  graph6 keeps the 6.2M-edge input quick to read.
    path = write_g6(tmp_path, threshold_graph(5000))
    assert main(["extract", "cograph-ramsey", "--input", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cograph"] is True
    assert (data["alpha"], data["omega"]) == (2500, 2501)
    stable, clique = data["witnesses"]
    assert (stable["kind"], clique["kind"]) == ("stable", "clique")
    assert stable["S"] == list(range(0, 5000, 2))
    assert clique["S"] == [0, *range(1, 5000, 2)]


def test_eh_command_reports_its_route(tmp_path, capsys):
    for g, route in ((threshold_graph(30), "cotree"), (cycle_graph(9), "doubling")):
        assert main(["eh", "--input", write_g6(tmp_path, g), "--k", "6"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["route"] == route and data["verified"] is True
        if route == "cotree":
            assert data["extracted_size"] == g.n
        else:
            assert g.n > data["extracted_size"] >= data["achieved"]


def test_pipeline_command(tmp_path, capsys):
    path = write_g6(tmp_path, complete_graph(10))
    out = tmp_path / "report.json"
    assert main(["pipeline", "--input", path, "--k", "5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["outcome"] == "bipartite-witness"
    assert data["verified"] is True
    assert data["witness"]["kind"] == "complete"


def test_verify_accepts_then_rejects_tampered(tmp_path, capsys):
    g = cycle_graph(5)
    gpath = write_g6(tmp_path, g)
    wfile = tmp_path / "w.json"
    wfile.write_text(witness_to_json(InducedPathWitness((0, 1, 2, 3))))
    assert main(["verify", "--graph", gpath, "--witness", str(wfile)]) == 0
    assert "OK" in capsys.readouterr().out
    wfile.write_text(witness_to_json(InducedPathWitness((0, 1, 2, 3, 4))))
    assert main(["verify", "--graph", gpath, "--witness", str(wfile)]) == 1
    assert capsys.readouterr().out == "REJECTED: forbidden-edge (chord (0,4))\n"


# Every command that can write a witness, with the options of the round trip.
ANSWER_COMMANDS = [["check", "--induced-path", "3"], ["check", "--pk-free", "4"],
                   ["extract", "path-or-bipartite"], ["extract", "cograph-ramsey"],
                   ["pipeline", "--k", "4"], ["eh", "--k", "4"]]


def test_verify_reads_every_answer_file_on_every_small_graph(tmp_path, capsys):
    """On every graph with at most 5 vertices, each command's --out file
    passes ``pathcert verify`` (exit 0), fails it once one vertex id of any
    one witness is out of range (exit 1), and is a usage error (exit 2) if
    it holds no witness.  The usage errors: ``extract path-or-bipartite``
    on a disconnected graph, ``pipeline`` on one vertex."""
    gpath, answer = tmp_path / "g.g6", tmp_path / "answer.json"
    witnesses = {" ".join(argv): 0 for argv in ANSWER_COMMANDS}
    for g in small_graphs(5):
        gpath.write_text(encode_graph6(g) + "\n")
        connected = len(reference_component_masks(g.adj, g.full_mask)) == 1
        for argv in ANSWER_COMMANDS:
            code = main([*argv, "--input", str(gpath), "--out", str(answer)])
            if (argv[1], connected) == ("path-or-bipartite", False) or (argv[0], g.n) == (
                    "pipeline", 1):
                assert code == 2
                continue
            assert code == 0
            witnesses[" ".join(argv)] += check_answer_file(str(gpath), "graph6", g.n, answer)
        capsys.readouterr()
    # Graphs with an induced P3 (all but the 75 unions of cliques), with a
    # P4 (all but the 535 cographs), connected, two sets per cograph, ...
    assert witnesses == {"check --induced-path 3": 1024, "check --pk-free 4": 564,
                         "extract path-or-bipartite": 772, "extract cograph-ramsey": 1634,
                         "pipeline --k 4": 1098, "eh --k 4": 1099}


@pytest.mark.parametrize("g, argv", [(cycle_graph(6), ["check", "--induced-path", "6"]),
                                     (cycle_graph(5), ["check", "--pk-free", "5"])],
                         ids=["found-false", "free-true"])
def test_verify_on_an_answer_with_no_witness_is_a_usage_error(tmp_path, capsys, g, argv):
    gpath, answer = write_g6(tmp_path, g), tmp_path / "answer.json"
    assert main([*argv, "--input", gpath, "--out", str(answer)]) == 0
    assert main(["verify", "--graph", gpath, "--witness", str(answer)]) == 2
    assert capsys.readouterr().err == ('error: the file holds no witness (an answer such as '
                                       '"found": false or "free": true certifies nothing)\n')


def test_verify_checks_every_witness_of_an_answer(tmp_path, capsys):
    """Each witness of an answer gets its own line, in file order; one
    rejection makes the exit status 1."""
    gpath, answer = write_g6(tmp_path, complete_bipartite_graph(2, 3)), tmp_path / "a.json"
    assert main(["extract", "cograph-ramsey", "--input", gpath, "--out", str(answer)]) == 0
    argv = ["verify", "--graph", gpath, "--witness", str(answer)]
    assert main(argv) == 0 and capsys.readouterr().out == "OK\nOK\n"
    data = json.loads(answer.read_text())
    data["witnesses"][1]["S"] = [0, 1]  # two vertices of one side: no edge
    answer.write_text(json.dumps(data))
    assert main(argv) == 1
    assert capsys.readouterr().out == "OK\nREJECTED: edge-count-mismatch (stored 1, recounted 0)\n"


def swapped(vertices, n: int):
    """``vertices`` (a tuple or a frozenset) with its largest vertex replaced
    by the smallest vertex of 0..n-1 that it leaves out."""
    top, out = max(vertices), min(set(range(n)) - set(vertices))
    if isinstance(vertices, frozenset):
        return vertices - {top} | {out}
    return tuple(out if v == top else v for v in vertices)


def corrupted(answer, n: int):
    """A producer's answer with one vertex of its witness swapped; of a
    (stable, clique) pair, the stable set's."""
    if isinstance(answer, PatternQueryResult):
        return replace(answer, embedding=corrupted(answer.embedding, n))
    if isinstance(answer, PatternEmbedding):
        return replace(answer, mapping=swapped(answer.mapping, n))
    if isinstance(answer, InducedPathWitness):
        return replace(answer, vertices=swapped(answer.vertices, n))
    stable, clique = answer
    return swapped(stable, n), clique


@pytest.mark.parametrize("producer, g, argv", [
    ("path_or_empty_bipartite", path_graph(7),
     ["extract", "path-or-bipartite", "--T", "1", "--D", "3"]),
    ("cograph_alpha_omega", complete_bipartite_graph(4, 4), ["extract", "cograph-ramsey"]),
    ("cograph_alpha_omega", path_graph(6), ["extract", "cograph-ramsey"]),
    ("find_induced_path", cycle_graph(6), ["check", "--induced-path", "5"]),
    ("is_pk_copk_free", path_graph(6), ["check", "--pk-free", "4"]),
], ids=["path-or-bipartite", "cograph-ramsey-sets", "cograph-ramsey-p4", "induced-path",
        "pk-free"])
def test_witness_commands_verify_what_they_print(tmp_path, capsys, monkeypatch,
                                                 producer, g, argv):
    """Every command that prints a witness prints ``"verified"``: true and
    exit 0 on the producer's answer, false and exit 1 once the producer
    returns it with one vertex swapped."""
    path = write_g6(tmp_path, g)
    assert main([*argv, "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    honest = getattr(pathcert.cli, producer)
    monkeypatch.setattr(pathcert.cli, producer, lambda *args: corrupted(honest(*args), g.n))
    assert main([*argv, "--input", path]) == 1
    assert json.loads(capsys.readouterr().out)["verified"] is False


def test_constants_output(capsys):
    assert main(["constants", "--k", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["epsilon"] == "1/30"
    assert data["path_bound"] == "5/1"
    assert "log2(30)" in data["delta"]
    assert data["n_min"] == "2^1817 + 1"


@pytest.mark.parametrize("module", ["pathcert", "pathcert.cli"])
def test_cli_runs_as_a_module(module, capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", module, "constants", "--k", "5"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert main(["constants", "--k", "5"]) == 0
    assert done.stdout == capsys.readouterr().out


def test_constants_at_large_k(capsys):
    # n_min = 2^E + 1 is written by its exponent, which has eight digits here
    assert main(["constants", "--k", "10000"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_min"] == f"2^{choose_constants(10000).n_min_exponent} + 1"


@pytest.mark.parametrize("k", [20, 64])
def test_pipeline_at_large_k(tmp_path, capsys, k):
    path = write_g6(tmp_path, cycle_graph(12))
    assert main(["pipeline", "--input", path, "--k", str(k)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"] is True
    assert data["constants"]["n_min"] == f"2^{choose_constants(k).n_min_exponent} + 1"
    assert main(["constants", "--k", str(k)]) == 0
    assert json.loads(capsys.readouterr().out) == data["constants"]


# sha256 of the whole ``constants --k K`` output: the floats, the delta text
# and n_min must keep every byte when the constants' arithmetic
# (``pipeline.choose_constants``) or text (``formats.constants_to_dict``) is
# reworked.
CONSTANTS_PINS = [
    (2, "39e820ea9d4c35e6e36a4e00350f81c29cd55b00de838af31afd62fcdebfb58f"),
    (3, "fd5b40c1fb9d5d9d1af9376652d89eb7b3a46c1b9a97010b0a9735e8d2eac23d"),
    (4, "53f9f2205b6b9b3861cdc0c7e215d87ed7fe34cec4a5680144b292fb341e8c88"),
    (5, "87d5421e24d343e935f51028858cb75a02a5dc6a682caece3427636e9382423e"),
    (6, "337608a92307ed51750103aefc219f33a605184b4293c7875399aeb340a786b7"),
    (7, "fe0fdd24ffbbd5c3c4fafc8bfc406c015b1f14829b583a60146cfbaab98279f8"),
    (8, "aefa3bf9b038fe96a47d5d3d325cbca62ede8af82ea4c96956bed32121457ea3"),
    (9, "31c403a7860ea5c0f31392462cc5822737c280ddf0586295f3ae4911d79995ee"),
    (20, "399c49f799f91b8b4cb35e08a69d5e88abab5dcef61765fa64ae2a9f93f31bb1"),
    (64, "e2835f16543b7988591e4ea5e72cec871c1782e25aca4594e42999120e7d1c4f"),
    (10 ** 4, "1ac844ba6dc5caf9753324297358c2b48c8f1121431c5eb9379ef61abd982c03"),
    (10 ** 200, "7eefd86a0882144d4c68d94283b317a7a98e88f8222c4d7d85bb94ac78c2ab84"),
]


@pytest.mark.parametrize("k, digest", CONSTANTS_PINS,
                         ids=[f"k10^{len(str(k)) - 1}" if k > 64 else f"k{k}"
                              for k, _ in CONSTANTS_PINS])
def test_constants_output_pinned(capsys, k, digest):
    assert main(["constants", "--k", str(k)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def strict_json(text: str):
    """``text`` parsed as JSON proper: Infinity, -Infinity and NaN raise."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


def test_constants_near_the_largest_k_are_finite(capsys):
    """At k = 10^301 the delta exponent (about -1.5e308) is still a float."""
    assert main(["constants", "--k", str(10 ** 301)]) == 0
    data = strict_json(capsys.readouterr().out)
    assert -math.inf < data["delta_exponent_float"] <= data["c_k_log2"] < 0 < data["c_prime"]


TOO_LARGE = "error: k is too large: the delta exponent -15 k log2(6k)^2 overflows a float\n"


@pytest.mark.parametrize("k", [10 ** 302, 10 ** 400], ids=["k10^302", "k10^400"])
def test_a_k_whose_constants_overflow_is_a_usage_error(tmp_path, capsys, k):
    """At k = 10^302 the delta exponent overflows to -inf, and 10^400 does
    not fit in a float at all: every command exits 2 and prints no JSON."""
    triangle = write_g6(tmp_path, complete_graph(3), "triangle.g6")
    cograph = write_g6(tmp_path, complete_graph(5), "k5.g6")
    non_cograph = write_g6(tmp_path, path_graph(6), "p6.g6")
    for argv in (["constants"], ["pipeline", "--input", triangle],
                 ["eh", "--input", cograph], ["eh", "--input", non_cograph]):
        assert main([*argv, "--k", str(k)]) == 2
        assert capsys.readouterr() == ("", TOO_LARGE)


def test_eh_command(tmp_path, capsys):
    path = write_g6(tmp_path, complete_graph(8))
    assert main(["eh", "--input", path, "--k", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["witness"]["kind"] == "clique" and len(data["witness"]["S"]) == 8


def test_usage_error_exit_code():
    # an unknown flag, or the removed ``check --universal``
    for argv in (["pipeline", "--mystery-flag"],
                 ["check", "--input", "g.g6", "--universal", "2"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_the_cached_parser_gives_every_call_the_same_answer(tmp_path, capsys):
    # main parses with one parser per process; neither a request nor a usage
    # error (exit 2) between two requests changes what the next one gets.
    assert build_parser() is build_parser()
    argv = ["pipeline", "--input", write_g6(tmp_path, cycle_graph(9)), "--k", "4"]
    assert main(argv) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["pipeline", "--input", argv[2], "--k", "x", "--mystery-flag"])
    assert err.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr() == first and json.loads(first.out)["verified"] is True


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_a_graph6_file_of_two_graphs_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_text("Cr\nCr\n")
    assert main(["check", "--input", str(path), "--pk-free", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the input holds 2 lines, and pathcert reads one graph per"
                            " file (byte offset 2)\n")


def test_bad_input_is_a_clean_usage_error(tmp_path, capsys):
    path = write_g6(tmp_path, path_graph(7))
    # D below the max closed degree: precondition rejection, not a traceback
    code = main(["extract", "path-or-bipartite", "--input", path,
                 "--start", "0", "--T", "1", "--D", "1"])
    assert code == 2
    assert "closed degree" in capsys.readouterr().err
    code = main(["check", "--input", str(tmp_path / "missing.g6"), "--pk-free", "4"])
    assert code == 2


def test_budget_failure_exit_code(tmp_path, capsys):
    code = main(["gen", "--family", "ck", "--n", "10", "--p", "1/2", "--k", "5",
                 "--seed", "1", "--budget", "1"])
    assert code == 1
    assert "draws" in capsys.readouterr().err


def test_oracle_failure_exit_code(tmp_path, capsys, monkeypatch):
    # An oracle that gives out is a failed run (exit 1), not a crash.
    def producer(*args, **kwargs):
        raise OracleError("oracle returned NoneType")

    monkeypatch.setattr("pathcert.cli.eh_homogeneous", producer)
    assert main(["eh", "--input", write_g6(tmp_path, path_graph(6)), "--k", "4"]) == 1
    assert capsys.readouterr().err == "failed: oracle returned NoneType\n"


@pytest.mark.parametrize("crash", [RecursionError("maximum recursion depth exceeded"),
                                   KeyError(7), NotImplementedError("not yet"),
                                   RuntimeError("dictionary changed size during iteration")])
def test_internal_error_exit_code(tmp_path, capsys, monkeypatch, crash):
    def producer(*args, **kwargs):
        raise crash

    monkeypatch.setattr("pathcert.cli.extract_linear_bipartite", producer)
    path = write_g6(tmp_path, cycle_graph(6))
    assert main(["pipeline", "--input", path, "--k", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {type(crash).__name__}")


@pytest.mark.parametrize("text", ['{"type": "homogeneous", "kind": "stable", "epsilon": "0"}',
                                  '{"type": "path", "vertices": 5}', '[1, 2]',
                                  # vertex fields that are not lists of ints
                                  '{"type": "bipartite", "kind": "empty", "X": "ab", "Y": [3]}',
                                  '{"type": "path", "vertices": [0, 1.5, 2]}',
                                  '{"type": "embedding", "pattern": "P3", "map": "012"}',
                                  '{"type": "path", "vertices": [true, 2]}',
                                  # an edge count that is not an int, an epsilon
                                  # that is not a fraction string
                                  '{"type": "homogeneous", "kind": "stable", "S": [0], '
                                  '"epsilon": "0", "edge_count": "0"}',
                                  '{"type": "homogeneous", "kind": "stable", "S": [0, 1], '
                                  '"epsilon": "0", "edge_count": true}',
                                  '{"type": "homogeneous", "kind": "stable", "S": [0], '
                                  '"epsilon": false, "edge_count": 0}',
                                  '{"type": "homogeneous", "kind": "stable", "S": [0], '
                                  '"epsilon": 0.0, "edge_count": 0}',
                                  # a pattern name and a map that disagree on the size
                                  '{"type": "embedding", "pattern": "P4", "map": [0, 1, 2]}',
                                  # a kind that is not a string
                                  '{"type": "bipartite", "kind": 5, "X": [0], "Y": [2]}',
                                  '{"type": "bipartite", "kind": null, "X": [0], "Y": [2]}',
                                  '{"type": "homogeneous", "kind": 5, "S": [0], '
                                  '"epsilon": "0", "edge_count": 0}',
                                  '{"type": "homogeneous", "kind": null, "S": [0], '
                                  '"epsilon": "0", "edge_count": 0}'])
def test_malformed_witness_is_a_usage_error(tmp_path, capsys, text):
    wpath = tmp_path / "w.json"
    wpath.write_text(text)
    code = main(["verify", "--graph", write_g6(tmp_path, cycle_graph(5)), "--witness", str(wpath)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: malformed witness")


@pytest.mark.parametrize("text", [
    '{"witnesses": 5}', '{"witnesses": []}', '{"witnesses": [[0, 1]]}', '{"witness": null}',
    '{"witnesses": [{"type": "path", "vertices": [0]}, {"type": "path"}]}'])
def test_malformed_answer_file_is_a_usage_error(tmp_path, capsys, text):
    """An answer's witnesses are one JSON object under "witness" or a
    non-empty list of them under "witnesses", each a whole witness."""
    wpath = tmp_path / "w.json"
    wpath.write_text(text)
    code = main(["verify", "--graph", write_g6(tmp_path, cycle_graph(5)), "--witness", str(wpath)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: malformed witness")


def test_a_witness_file_that_is_not_json_is_malformed(tmp_path, capsys):
    """Text the JSON parser rejects reads as a malformed witness, like every
    other fault of the file, and not as the parser's bare message."""
    wpath = tmp_path / "w.json"
    wpath.write_text("not json")
    code = main(["verify", "--graph", write_g6(tmp_path, cycle_graph(5)), "--witness", str(wpath)])
    assert code == 2
    assert capsys.readouterr().err == ("error: malformed witness: JSONDecodeError: "
                                       "Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("field, text", [
    ("X", '{"type": "bipartite", "kind": "empty", "X": [0, 0, 0, 0, 0], "Y": [2]}'),
    ("Y", '{"type": "bipartite", "kind": "empty", "X": [0], "Y": [2, 3, 2]}'),
    ("S", '{"type": "homogeneous", "kind": "stable", "S": [0, 0, 0, 0, 0], "epsilon": "0", '
          '"edge_count": 0}')], ids=["X", "Y", "S"])
def test_a_repeated_vertex_id_is_a_usage_error(tmp_path, capsys, field, text):
    """A vertex set that lists an id twice is malformed: read into a set,
    the file's five vertices would be checked as one."""
    wpath = tmp_path / "w.json"
    wpath.write_text(text)
    code = main(["verify", "--graph", write_g6(tmp_path, cycle_graph(5)), "--witness", str(wpath)])
    assert code == 2
    assert capsys.readouterr().err == f"error: malformed witness: {field!r} repeats a vertex id\n"


@pytest.mark.parametrize("text", ["[" * 200000,
                                  '{"type": "path", "vertices": ' + "[" * 200000 + "]" * 200000
                                  + "}"], ids=["array", "vertices"])
def test_deeply_nested_witness_json_is_a_usage_error(tmp_path, capsys, text):
    """JSON nested deeper than the parser can go is a malformed file (exit
    2), not an internal error."""
    wpath = tmp_path / "w.json"
    wpath.write_text(text)
    code = main(["verify", "--graph", write_g6(tmp_path, cycle_graph(5)), "--witness", str(wpath)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: malformed witness: RecursionError")


def run_in_512_mb(*argv):
    """The CLI in a fresh interpreter under a 512 MB address space limit:
    (the finished process, its wall time in seconds)."""
    limit = 512 * 2 ** 20
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from pathcert.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    return done, time.perf_counter() - start


def test_huge_pattern_name_is_rejected_before_it_is_built(tmp_path):
    """A pattern name is compared with the map's length before the pattern
    graph is built, so a huge name costs no memory: under a 512 MB address
    space limit, building P99999999 (about n^2/8 bytes) would fail."""
    wpath = tmp_path / "w.json"
    wpath.write_text('{"type": "embedding", "pattern": "P99999999", "map": []}')
    done, _ = run_in_512_mb("verify", "--graph", write_g6(tmp_path, path_graph(6)),
                            "--witness", str(wpath))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: malformed witness")


def test_exponent_fractions_are_usage_errors_before_any_power_is_built(tmp_path):
    """Fraction text from outside (a witness epsilon, gen --p) is
    digits[/digits] or digits.digits: "1e999999999" would make Fraction
    build a power of ten of ~415 MB, so it exits 2 at once."""
    wpath = tmp_path / "w.json"
    wpath.write_text('{"type": "homogeneous", "kind": "stable", "S": [0], '
                     '"epsilon": "1e999999999", "edge_count": 0}')
    gpath = write_g6(tmp_path, path_graph(6))
    for argv in (["verify", "--graph", gpath, "--witness", str(wpath)],
                 ["gen", "--family", "gnp", "--n", "5", "--p", "1e999999999"],
                 ["gen", "--family", "gnp", "--n", "5", "--p", "1E999999999"]):
        done, seconds = run_in_512_mb(*argv)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: not a fraction") and seconds < 1


def test_zero_denominators_are_usage_errors(tmp_path, capsys):
    """A zero denominator in a witness epsilon or gen --p exits 2, not with
    Fraction's ZeroDivisionError as a crash (3)."""
    wpath = tmp_path / "w.json"
    wpath.write_text('{"type": "homogeneous", "kind": "stable", "S": [0], '
                     '"epsilon": "1/0", "edge_count": 0}')
    gpath = write_g6(tmp_path, path_graph(6))
    for argv in (["verify", "--graph", gpath, "--witness", str(wpath)],
                 ["gen", "--family", "gnp", "--n", "5", "--p", "1/0"],
                 ["gen", "--family", "gnp", "--n", "5", "--p=-3/000"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: not a fraction")


def test_eh_at_huge_k_builds_no_power_of_two(tmp_path):
    """The doubling declares its oracle constant as 1/(n + 1), not from 2^E
    (E ~ 15 k log2(6k)^2 bits), so eh at k = 10^8 on a non-cograph is quick
    and small."""
    done, seconds = run_in_512_mb("eh", "--input", write_g6(tmp_path, path_graph(40)),
                                  "--k", "100000000")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["route"] == "doubling" and seconds < 1


JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
                    max_leaves=12)


def mostly(valid):
    """``valid`` seven times in eight, any JSON value otherwise."""
    return st.integers(0, 7).flatmap(lambda r: JSON if r == 0 else valid)


VERTICES = st.lists(st.integers(-1, 7), max_size=9) | st.lists(st.integers(), max_size=3)
PATTERN_NAMES = st.builds("{}{}".format, st.sampled_from(["P", "co-P", "p", "P-", ""]),
                          st.integers(0, 9) | st.integers(0, 10 ** 40)) | st.text(max_size=9)
WITNESS_FIELDS = {
    "path": {"vertices": VERTICES},
    "bipartite": {"kind": st.sampled_from(["empty", "complete", "clique"]),
                  "X": VERTICES, "Y": VERTICES},
    "homogeneous": {"kind": st.sampled_from(["stable", "clique", "empty"]), "S": VERTICES,
                    "epsilon": st.from_regex(
                        r"\A-?[0-9]{1,3}(/[0-9]{0,3}|\.[0-9]{1,3}|[eE][+-]?[0-9]{1,10})?\Z")
                    | st.from_regex(r"\A-?[0-9]{1,3}/0{1,3}\Z"),  # zero denominators
                    "edge_count": st.integers(-1, 25)},
    "embedding": {"pattern": PATTERN_NAMES, "map": VERTICES},
}
# Embeddings whose pattern size matches the map, so the verifier runs.
SIZED_EMBEDDINGS = st.integers(1, 8).flatmap(lambda k: st.fixed_dictionaries({
    "type": st.just("embedding"), "pattern": st.sampled_from([f"P{k}", f"co-P{k}"]),
    "map": mostly(st.lists(st.integers(-1, 7), min_size=k, max_size=k))}))
BARE_WITNESSES = (JSON | SIZED_EMBEDDINGS | st.sampled_from(sorted(WITNESS_FIELDS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"type": st.just(kind)},
        optional={key: mostly(values) for key, values in WITNESS_FIELDS[kind].items()}
        | {"extra": JSON})))
# A bare witness, or answer files that hold such documents.
WITNESS_DOCUMENTS = (BARE_WITNESSES | st.fixed_dictionaries({"witness": BARE_WITNESSES})
                     | st.fixed_dictionaries({"witnesses": st.lists(BARE_WITNESSES, max_size=3)}))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(WITNESS_DOCUMENTS)
def test_verify_on_any_json_document_exits_0_1_or_2(tmp_path_factory, document):
    """Whatever JSON a witness or answer file holds (any types, huge
    pattern names, nested values), verify gives a verdict (0 or 1) or a
    usage error (2): never an internal error (3) and never an exception."""
    folder = tmp_path_factory.getbasetemp()
    gpath = folder / "any-json.g6"
    if not gpath.exists():
        gpath.write_text(encode_graph6(cycle_graph(7)) + "\n")
    wpath = folder / "any-json.json"
    wpath.write_text(json.dumps(document))
    assert main(["verify", "--graph", str(gpath), "--witness", str(wpath)]) in (0, 1, 2)


def load_bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_bindings_and_probes(tmp_path):
    """The benchmark's traced run rebinds every layer by module attribute
    and reads report fields in its probes; a binding or field the library
    lost fails here, not only in a traced benchmark run."""
    import pathcert.cli
    from pathcert.formats import write_edge_list
    from pathcert.generators import GeneratorSpec, generate

    tracing = load_bench_tracing()
    tracer = tracing.Tracer()  # resolves every binding
    traced_main = tracer.wrap(tracing.ROOT_SPAN, pathcert.cli.main)
    # eh folds a cograph over its cotree at once, so its request gets a
    # G(60, 1/2) graph, which is not one and runs the doubling.
    inputs = {"pipeline": GeneratorSpec("cograph", 60, seed=3),
              "eh": GeneratorSpec("gnp", 60, p=Fraction(1, 2), seed=3)}
    for request, (command, k) in enumerate((("pipeline", "5"), ("eh", "4"))):
        src = tmp_path / f"{command}.edges"
        src.write_text(write_edge_list(generate(inputs[command])))
        with tracer.installed(request):
            assert traced_main([command, "--input", str(src), "--format", "edges",
                                "--k", k, "--out", str(tmp_path / f"{command}.json")]) == 0
    assert json.loads((tmp_path / "eh.json").read_text())["route"] == "doubling"
    for module, attr, original, _ in tracer._bindings:
        assert getattr(module, attr) is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "formats.read_graph", "homogeneous.find_epsilon_homogeneous",
            "pipeline.extract_linear_bipartite", "pipeline.eh_homogeneous",
            "cographs.p4free_extract", "cographs.cograph_alpha_omega", "cographs.cotree",
            "witnesses.verify_bipartite_pair"} <= names
    end = max(span[2] for span in tracer.spans)
    start = min(span[1] for span in tracer.spans)
    metrics = tracer.layer_metrics(2, end - start)
    assert metrics["cographs.oracle_calls"] > 0


def readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no ## CLI code block"
    lines = [line.split("#", 1)[0].replace("[", "").replace("]", "").strip()
             for line in block.group(1).splitlines()]
    return [line for line in lines if line.startswith("pathcert ")]


def test_readme_cli_lines_parse():
    """Every documented ``pathcert`` line names a subcommand and flags that
    the parser still accepts, and every subcommand, ``extract`` mode and
    ``check`` query has a line."""
    lines = readme_cli_lines()
    assert len(lines) >= 10
    parsed = [build_parser().parse_args(shlex.split(line)[1:]) for line in lines]
    assert {args.command for args in parsed} == {"gen", "check", "extract", "pipeline", "eh",
                                                 "verify", "constants"}
    subparsers = next(action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    modes = next(action.choices for action in subparsers["extract"]._actions
                 if action.dest == "what")
    assert {args.what for args in parsed if args.command == "extract"} == set(modes)
    queries = {action.dest for group in subparsers["check"]._mutually_exclusive_groups
               for action in group._group_actions}
    assert {dest for args in parsed if args.command == "check" for dest in queries
            if getattr(args, dest) is not None} == queries


def test_readme_dotted_names_resolve():
    """Every backticked dotted name in README.md that is rooted in pathcert
    resolves by getattr.  The root is the package, one of its modules
    (``__main__`` is not imported: that runs the CLI), a public attribute of
    one, or any capitalised name, since README cites no outside class that
    way; other names (``fractions.Fraction``, the JSON key
    ``trace.extractor``) are skipped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {info.name: importlib.import_module(f"pathcert.{info.name}")
               for info in pkgutil.iter_modules(pathcert.__path__) if info.name != "__main__"}
    roots = {"pathcert": pathcert, **modules}
    for module in modules.values():
        for attr, value in vars(module).items():
            if not attr.startswith("_"):
                roots.setdefault(attr, value)
    checked = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme):
        first, *rest = name.split(".")
        if first not in roots and not first[0].isupper():
            continue
        assert first in roots, f"README cites {name}, but pathcert has no {first}"
        obj = roots[first]
        for part in rest:
            assert hasattr(obj, part), f"README cites {name}, which does not resolve"
            obj = getattr(obj, part)
        checked.append(name)
    assert checked
