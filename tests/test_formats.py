from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcert.formats import (Graph6Error, decode_graph6, encode_graph6,
                              parse_edge_list, parse_fraction, pattern_by_name,
                              report_to_dict, witness_from_dict, witness_from_json,
                              witness_to_dict, witness_to_json, write_edge_list)
from pathcert.generators import gnp
from pathcert.graph import build_graph, complete_graph, empty_graph, path_graph
from pathcert.pipeline import extract_linear_bipartite
from pathcert.rng import stream
from pathcert.witnesses import (BipartitePairWitness, HomogeneousSetWitness,
                                InducedPathWitness, PatternEmbedding)


def test_known_strings():
    assert encode_graph6(empty_graph(1)) == "@"
    assert encode_graph6(path_graph(2)) == "A_"
    assert decode_graph6("@") == empty_graph(1)
    assert decode_graph6("A_") == path_graph(2)
    assert decode_graph6("A?") == empty_graph(2)


def test_roundtrip_seeded():
    for seed in range(300):
        n = 1 + stream(0xE0, seed).below(62)
        g = gnp(n, Fraction(1, 2), stream(0xE1, seed))
        assert decode_graph6(encode_graph6(g)) == g


def test_header_prefix_accepted():
    assert decode_graph6(">>graph6<<A_") == path_graph(2)


def _reference_graph6(g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    return nx.to_graph6_bytes(ref, header=False).decode().strip()


def test_matches_reference_encoder():
    for seed in range(100):
        n = 1 + stream(0xE2, seed).below(40)
        g = gnp(n, Fraction(1, 3), stream(0xE3, seed))
        assert encode_graph6(g) == _reference_graph6(g)


def test_decode_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        decode_graph6("~~~")
    assert err.value.offset == 0
    with pytest.raises(Graph6Error):
        decode_graph6("")
    with pytest.raises(Graph6Error) as err:
        decode_graph6("A" + chr(200))
    assert err.value.offset == 1
    with pytest.raises(Graph6Error):
        decode_graph6("A_X")  # extra data byte


def test_encode_guard_above_long_form():
    assert encode_graph6(empty_graph(63)).startswith("~??~")
    with pytest.raises(ValueError, match="n <= 258047"):
        encode_graph6(empty_graph(258048))


@pytest.mark.parametrize("n, m", [(63, 1000), (200, 6000), (1500, 20000)])
def test_long_size_form_matches_reference(n, m):
    rng = stream(0xE6, n)
    pairs = ((rng.below(n), rng.below(n)) for _ in range(m))
    g = build_graph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
    text = encode_graph6(g)
    assert text == _reference_graph6(g)
    assert text[0] == "~" and len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
    assert decode_graph6(text) == g


def test_long_size_form_roundtrip():
    for seed in range(40):
        n = 63 + stream(0xE7, seed).below(140)
        g = gnp(n, Fraction(stream(0xE8, seed).randint(0, 10), 10), stream(0xE9, seed))
        assert decode_graph6(encode_graph6(g)) == g
    assert decode_graph6(">>graph6<<" + encode_graph6(path_graph(64))) == path_graph(64)


def test_long_size_form_errors_carry_offsets():
    with pytest.raises(Graph6Error, match="8-byte size form") as err:
        decode_graph6("~~??????" + "?" * 10)
    assert err.value.offset == 0
    with pytest.raises(Graph6Error, match="truncated size") as err:
        decode_graph6("~??")
    assert err.value.offset == 3
    with pytest.raises(Graph6Error, match="invalid size byte") as err:
        decode_graph6("~?" + chr(200) + "?")
    assert err.value.offset == 2
    text = encode_graph6(path_graph(70))
    with pytest.raises(Graph6Error, match="expected 403 data bytes") as err:
        decode_graph6(text[:-1])
    with pytest.raises(Graph6Error, match="invalid data byte") as err:
        decode_graph6(text[:9] + " " + text[10:])
    assert err.value.offset == 9
    with pytest.raises(Graph6Error, match="padding") as err:
        decode_graph6(text[:-1] + "~")
    assert err.value.offset == len(text) - 1


def test_edge_list_roundtrip():
    g = gnp(80, Fraction(1, 5), stream(0xE4))
    assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_header_validation():
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")


# (input, message): each is rejected with exactly this ValueError.
EDGE_LIST_ERRORS = [
    ("3 1\n0\n", "bad edge line '0'"),
    ("3 1\n0 1 2\n", "bad edge line '0 1 2'"),
    ("3 1\n0 x\n", "invalid literal for int() with base 10: 'x'"),
    ("x 1\n0 1\n", "invalid literal for int() with base 10: 'x'"),
    ("3 1\n0 3\n", "edge (0,3) has an endpoint outside 0..2"),
    ("3 1\n0 -1\n", "edge (0,-1) has an endpoint outside 0..2"),
    ("3 1\n1 1\n", "self-loop (1,1) is not allowed"),
    ("0 0\n", "graphs have at least one vertex"),
    ("", "empty edge-list input"),
    ("# only a comment\n\n", "empty edge-list input"),
]


@pytest.mark.parametrize("text, message", EDGE_LIST_ERRORS,
                         ids=["one-token", "three-tokens", "non-integer", "non-integer-header",
                              "endpoint-n", "endpoint-negative", "self-loop", "n0", "empty",
                              "comments-only"])
def test_edge_list_errors_pinned(text, message):
    with pytest.raises(ValueError) as err:
        parse_edge_list(text)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_edge_list_lenient_layout():
    # Comments, blank lines, tabs, padding and CRLF line ends; the header
    # counts edge lines, and a repeated edge collapses into one.
    text = "# triangle minus an edge\r\n3 3\r\n\r\n0\t1\r\n# again\n1 0\n  1   2  \n"
    assert parse_edge_list(text) == path_graph(3)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2 ** 32))
def test_roundtrip_property(n, seed):
    g = gnp(n, Fraction(1, 2), stream(seed))
    assert decode_graph6(encode_graph6(g)) == g


def witness_examples():
    return [
        InducedPathWitness((0, 1, 2)),
        BipartitePairWitness("empty", frozenset({0, 2}), frozenset({5, 6})),
        HomogeneousSetWitness("stable", frozenset({1, 3}), Fraction(1, 10), 0),
        PatternEmbedding("co-P5", pattern_by_name("co-P5"), (4, 2, 0, 1, 3)),
    ]


def test_witness_json_roundtrip():
    for w in witness_examples():
        again = witness_from_json(witness_to_json(w))
        assert again == w


def test_witness_dict_schema():
    d = witness_to_dict(witness_examples()[1])
    assert d == {"type": "bipartite", "kind": "empty", "X": [0, 2], "Y": [5, 6]}
    d = witness_to_dict(witness_examples()[2])
    assert d["epsilon"] == "1/10"
    d = witness_to_dict(witness_examples()[3])
    assert d == {"type": "embedding", "pattern": "co-P5", "map": [4, 2, 0, 1, 3]}


def test_witness_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        witness_from_dict({"type": "mystery"})
    with pytest.raises(ValueError):
        pattern_by_name("Q7")


def test_fraction_parsing():
    assert parse_fraction("1/30") == Fraction(1, 30)
    assert parse_fraction("0.5") == Fraction(1, 2)


def test_report_serialization():
    g = complete_graph(8)
    r = extract_linear_bipartite(g, 4, "greedy")
    data = report_to_dict(r)
    assert data["outcome"] == r.outcome
    assert data["constants"]["epsilon"] == "1/24"
    assert "guarantee_tier" in data["trace"]
    import json
    json.dumps(data)  # JSON-safe end to end


def test_report_writes_extractor_summary():
    # The report keeps one dict per walk level; its JSON keeps a fixed-size
    # summary in the same place, and the rest of the trace as it is.
    r = extract_linear_bipartite(path_graph(120), 5)
    levels = r.trace["extractor"]
    assert len(levels) == 100 and levels[-1] == {"n": 21, "case": "base"}
    data = report_to_dict(r)
    assert data["trace"]["extractor"] == {"levels": 100, "cases": {"grow": 99, "base": 1},
                                          "last": {"n": 21, "case": "base"}}
    assert list(data["trace"]) == list(r.trace)
    assert {key: value for key, value in data["trace"].items() if key != "extractor"} == {
        key: value for key, value in r.trace.items() if key != "extractor"}
    assert r.trace["extractor"] is levels
