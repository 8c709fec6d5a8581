import json
import tracemalloc
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcert import formats
from pathcert.formats import (Graph6Error, decode_graph6, encode_graph6,
                              parse_edge_list, parse_fraction,
                              report_to_dict, witness_from_dict, witnesses_from_json,
                              witness_to_dict, write_edge_list)
from pathcert.generators import gnp, random_cograph
from pathcert.graph import build_graph, complete_graph, cycle_graph, empty_graph, path_graph
from pathcert.patterns import path_certificate
from pathcert.pipeline import choose_constants, extract_linear_bipartite
from pathcert.rng import stream
from pathcert.witnesses import (BipartitePairWitness, HomogeneousSetWitness,
                                InducedPathWitness)

from conftest import (graph_edges, half_density_graph, oracle_decode_graph6, oracle_parse_edge_list,
                      oracle_write_edge_list, randint, threshold_graph, witness_to_json)


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
    ref.add_edges_from(graph_edges(g))
    return nx.to_graph6_bytes(ref, header=False).decode().strip()


def test_matches_reference_encoder():
    graphs = [gnp(1 + stream(0xE2, seed).below(40), Fraction(1, 3), stream(0xE3, seed))
              for seed in range(100)]
    # n = 1..130 crosses the one-byte size form (n <= 62), and the bit count
    # n(n-1)/2 meets every residue mod 24 it can take (16 of the 24): the
    # encoder pads to whole base64 groups of 24 bits, the decoder to 4 digits.
    graphs += [gnp(n, Fraction(1, 2), stream(0xE4, n)) for n in range(1, 131)]
    for g in graphs:
        ref = _reference_graph6(g)
        assert encode_graph6(g) == ref and decode_graph6(ref) == g


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
    # Size bytes just outside 63..125 (one byte) and 63..126 (the long
    # form), and the size byte of n = 0, which is in range.
    for text, offset in ((">", 0), ("~>??", 1), ("~?\x7f?", 2)):
        with pytest.raises(Graph6Error, match="invalid size byte") as err:
            decode_graph6(text)
        assert err.value.offset == offset
    with pytest.raises(Graph6Error, match="at least one vertex"):
        decode_graph6("?")


def test_a_graph6_text_of_several_lines_is_rejected_as_such():
    # Graphs one per line, as geng writes them: the message counts the lines
    # and is not the first graph's length check.
    for text, lines, offset in (("Cr\nCr\n", 2, 2), ("Cr\r\nCr", 2, 2), ("Cr\n\nCr\n", 3, 2),
                                (">>graph6<<A_\nCr", 2, 2), ("  @\n@\n@  ", 3, 1)):
        with pytest.raises(Graph6Error) as err:
            decode_graph6(text)
        assert str(err.value) == (f"the input holds {lines} lines, and pathcert reads one graph"
                                  f" per file (byte offset {offset})")
    assert decode_graph6("Cr\n") == decode_graph6("\r\nCr\r\n")


def test_encode_guard_above_long_form():
    assert encode_graph6(empty_graph(63)).startswith("~??~")
    assert formats._graph6_size(formats.GRAPH6_MAX_N) == "~}~~"
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
        g = gnp(n, Fraction(randint(stream(0xE8, seed), 0, 10), 10), stream(0xE9, seed))
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


# Inputs with several faults.  The parser reads the text in chunks, and in
# each chunk checks every line's token count before it reads the tokens:
# the header's integers and n >= 1 come next, then each edge in order (its
# integers, range and self-loop), and the edge count against the header
# last.  (input, message before chunked parsing, message now)
EDGE_LIST_PRECEDENCE = [
    ("3 5\n0 1\n1 1\n", "header promises 5 edges, found 2", "self-loop (1,1) is not allowed"),
    ("3 2\n0 1 2\n", "header promises 2 edges, found 1", "bad edge line '0 1 2'"),
    ("x 1\n0 1 2\n", "invalid literal for int() with base 10: 'x'", "bad edge line '0 1 2'"),
    ("0 1\n0 x\n", "invalid literal for int() with base 10: 'x'",
     "graphs have at least one vertex"),
    ("3 2\n0 3\n0 x\n", "invalid literal for int() with base 10: 'x'",
     "invalid literal for int() with base 10: 'x'"),
]


@pytest.mark.parametrize("text, before, now", EDGE_LIST_PRECEDENCE)
def test_edge_list_error_precedence(text, before, now):
    with pytest.raises(ValueError) as err:
        oracle_parse_edge_list(text)
    assert str(err.value) == before
    with pytest.raises(ValueError) as err:
        parse_edge_list(text)
    assert str(err.value) == now


def test_edge_list_error_precedence_follows_chunks(monkeypatch):
    # One chunk: the three-token line is found before any edge is read.
    # One line per chunk: edge (0,3) is read before that line is reached.
    text = "3 2\n0 3\n0 1 2\n"
    with pytest.raises(ValueError, match="bad edge line '0 1 2'"):
        parse_edge_list(text)
    monkeypatch.setattr(formats, "_CHUNK", 1)
    with pytest.raises(ValueError, match=r"edge \(0,3\) has an endpoint outside 0\.\.2"):
        parse_edge_list(text)


# Layout pieces: every splitlines() boundary, and whitespace that only
# str.split() treats as a separator.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
SEPARATORS = [" ", "\t", "  ", " \t ", "\xa0", "\x1f", "\u3000"]
FULLWIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14"
                          "\uff15\uff16\uff17\uff18\uff19")


def _spelling(v: int, rng) -> str:
    """v as int() reads it: plain, "+v", zero-padded, with an underscore
    or in full-width digits."""
    pick = rng.below(8)
    if pick == 0:
        return f"+{v}"
    if pick == 1:
        return "0" * (1 + rng.below(2)) + str(v)
    if pick == 2 and v >= 10:
        return f"{str(v)[0]}_{str(v)[1:]}"
    if pick == 3:
        return str(v).translate(FULLWIDTH)
    return str(v)


def _pad(rng) -> str:
    return rng.below(3) * SEPARATORS[rng.below(len(SEPARATORS))]


def _layout(rng, header: list[str], edges: list[list[str]]) -> str:
    """Header and edge lines (token lists) in a random layout: padding,
    mixed separators and line breaks, blank and comment lines."""
    lines = []
    for tokens in [header] + edges:
        while rng.below(4) == 0:
            lines.append(_pad(rng) if rng.below(2) else _pad(rng) + "# note 0 1 2")
        sep = SEPARATORS[rng.below(len(SEPARATORS))]
        lines.append(_pad(rng) + sep.join(tokens) + _pad(rng))
    ends = [LINE_BREAKS[rng.below(len(LINE_BREAKS))] for _ in lines]
    if rng.below(3) == 0:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _random_input(seed: int):
    """(graph, header tokens, edge-line tokens): each edge once or twice,
    either way round, in a shuffled order."""
    rng = stream(0xE10, seed)
    n = 1 + rng.below(30)
    g = gnp(n, Fraction(randint(rng, 0, 10), 10), rng)
    pairs = [(v, u) if rng.below(2) else (u, v) for u, v in graph_edges(g)]
    pairs += [pairs[rng.below(len(pairs))] for _ in range(rng.below(3))] if pairs else []
    for i in range(len(pairs) - 1, 0, -1):
        j = rng.below(i + 1)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    edges = [[_spelling(u, rng), _spelling(v, rng)] for u, v in pairs]
    return g, rng, [str(n), str(len(edges))], edges


def both_paths(monkeypatch):
    """Force parse_edge_list's dense-path gate each way in turn: while the
    loop body runs, every input is built run by run, then edge by edge."""
    for runs in (True, False):
        monkeypatch.setattr(formats, "_runs_pay", lambda n, m, length: runs)
        yield runs


@pytest.mark.parametrize("chunk", [None, 1, 5, 40])
def test_edge_list_matches_oracle_on_random_layouts(chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(formats, "_CHUNK", chunk)
    for seed in range(150):
        g, rng, header, edges = _random_input(seed)
        text = _layout(rng, header, edges)
        assert oracle_parse_edge_list(text) == g
        for _ in both_paths(monkeypatch):
            assert parse_edge_list(text) == g


def _faulty(seed: int):
    """(rng, header tokens, edge-line tokens) of a random input with
    exactly one fault."""
    g, rng, header, edges = _random_input(seed)
    n = g.n
    fault = rng.below(8) if edges else rng.below(3)
    if fault == 0:
        header[rng.below(2)] = "x"
    elif fault == 1:
        header[1] = str(len(edges) + (1 if rng.below(2) else -1))
    elif fault == 2:
        header[1:] = ["9", "9"] if rng.below(2) else []
    else:
        i = rng.below(len(edges))
        if fault == 3:
            edges[i][rng.below(2)] = ["x", "1.5", "0x1", "--1"][rng.below(4)]
        elif fault == 4:
            edges[i][rng.below(2)] = str([n, -1, n + 7][rng.below(3)])
        elif fault == 5:
            edges[i][1] = edges[i][0]
        elif fault == 6:
            edges[i] = edges[i][:1]
        else:
            edges[i].append("0")
    return rng, header, edges


@pytest.mark.parametrize("chunk", [None, 1, 40])
def test_edge_list_single_fault_messages_match_oracle(chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(formats, "_CHUNK", chunk)
    for seed in range(200):
        rng, header, edges = _faulty(seed)
        text = _layout(rng, header, edges)
        with pytest.raises(ValueError) as expected:
            oracle_parse_edge_list(text)
        for runs in both_paths(monkeypatch):
            with pytest.raises(ValueError) as err:
                parse_edge_list(text)
            assert type(err.value) is ValueError
            assert str(err.value) == str(expected.value), (runs, text)


def test_edge_list_spans_many_chunks():
    g = half_density_graph(300, 1)
    text = write_edge_list(g)
    assert len(text) > 8 * formats._CHUNK
    lines = text.splitlines()
    variants = [
        text,
        text.replace("\n", "\r\n"),
        text.replace(" ", "\t"),
        "\n".join(line if i % 500 else "# comment\n" + line for i, line in enumerate(lines)),
        "\n" * (3 * formats._CHUNK) + text,
        "# " + "c" * (3 * formats._CHUNK) + "\n" + text,
    ]
    for variant in variants:
        assert parse_edge_list(variant) == oracle_parse_edge_list(variant) == g
    last = text.rindex("\n", 0, -1) + 1
    faults = [text[:-1] + " 2\n", text[:last] + "7 7\n", text[:last] + "0 x\n", text[:-1] + "0\n",
              "\n" * (3 * formats._CHUNK) + "300\n" + text[text.index("\n"):],
              text[:last] + "\n"]
    for fault in faults:
        with pytest.raises(ValueError) as expected:
            oracle_parse_edge_list(fault)
        with pytest.raises(ValueError) as err:
            parse_edge_list(fault)
        assert str(err.value) == str(expected.value)


def _dense_text(n: int, seed: int):
    """(graph, edge-list lines) of a G(n, 1/2) sample, its edges either way
    round, some twice (the same way or reversed), in a shuffled order."""
    g = half_density_graph(n, seed)
    rng = stream(0xE16, seed)
    pairs = []
    for u, v in graph_edges(g):
        pairs.append((v, u) if rng.below(2) else (u, v))
        if rng.below(8) == 0:
            pairs.append((u, v) if rng.below(2) else (v, u))
    for i in range(len(pairs) - 1, 0, -1):
        j = rng.below(i + 1)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return g, [f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]


@pytest.mark.parametrize("n", [2, 40, 300])
def test_dense_edge_list_matches_oracle(n):
    # Shuffled, in the writer's order, and with every id zero-padded (no
    # token is in the table, so each chunk is read through int() and ORed
    # in through build_graph).
    g, lines = _dense_text(n, n)
    ordered = write_edge_list(g)
    padded = ordered.split("\n", 1)[0] + "".join(
        f"\n0{u} 00{v}" for u, v in (line.split() for line in ordered.splitlines()[1:])) + "\n"
    for text in ("\n".join(lines) + "\n", ordered, padded):
        assert formats._runs_pay(n, int(text.split()[1]), len(text))
        assert parse_edge_list(text) == oracle_parse_edge_list(text) == g


@pytest.mark.parametrize("n, m, directed_after", [
    (9, 5, 16), (9, 6, 16), (9, 8, 16), (9, 9, 16), (9, 10, 16), (64, 64, 16), (64, 65, 16),
    (64, 256, 16), (64, 257, 16), (4096, 4096, 16), (4096, 4097, 16), (4097, 4097, 16),
    (4097, 4098, 16), (4096, 4097, 4096), (4096, 6000, 4096), (4096, 12000, 4096)])
def test_edge_list_around_the_switch_points(n, m, directed_after, monkeypatch):
    # build_graph reads a table past m = n (n <= 4096), and the parser builds
    # rows run by run plus one transpose past m = n * n // _DIRECTED_AFTER
    # (n <= 4096); n = 4096 needs a million edges to get there, so a lower
    # switch point takes it there too, with runs of one edge each.
    monkeypatch.setattr(formats, "_DIRECTED_AFTER", directed_after)
    by_runs, graph_by_runs = [], formats._graph_by_runs
    monkeypatch.setattr(formats, "_graph_by_runs",
                        lambda *args: by_runs.append(n) or graph_by_runs(*args))
    rng = stream(0xE17, n + m)
    pairs = [(v, (v + 1 + rng.below(n - 1)) % n) for v in range(n)]
    while len(pairs) < m:
        u, v = rng.below(n), rng.below(n)
        if u != v:
            pairs.append((u, v))
    pairs = pairs[:m]
    text = f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    rows = [0] * n
    for u, v in pairs:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    assert parse_edge_list(text).adj == oracle_parse_edge_list(text).adj == tuple(rows)
    assert by_runs == ([n] if n <= 4096 and m * directed_after > n * n else [])


def test_edge_list_header_lies_match_oracle(monkeypatch):
    # The header alone opens the run path, and only when the text is long
    # enough to hold its m edge lines: a short text claiming millions of
    # edges never reaches the O(n^2) transpose.
    g, lines = _dense_text(300, 5)
    body = "".join(line + "\n" for line in lines[1:])
    sparse = "".join(f"{v} {v + 1}\n" for v in range(299))
    comment = "# " + "c" * 30000 + "\n"
    cases = [("4096 99999999\n0 1\n", False), ("300 30000\n" + sparse, False),
             ("300 6000\n" + comment + sparse, True), ("300 10\n" + body, False),
             (f"300 {len(lines) - 2}\n" + body, True), (f"300 {len(lines)}\n" + body, True),
             ("9 6\n0 1\n0 2\n0 3\n0 4\n0 5\n", True)]  # 4 characters an edge, exactly
    for text, runs in cases:
        head = text.split(None, 2)
        assert formats._runs_pay(int(head[0]), int(head[1]), len(text)) is runs
        with pytest.raises(ValueError) as expected:
            oracle_parse_edge_list(text)
        with pytest.raises(ValueError) as err:
            parse_edge_list(text)
        assert str(err.value) == str(expected.value), text[:40]
    monkeypatch.setattr(formats, "symmetrised", None)  # no transpose runs below
    with pytest.raises(ValueError, match="header promises 99999999 edges, found 1"):
        parse_edge_list("4096 99999999\n0 1\n")


@pytest.mark.parametrize("n", [5, 40, 300])
def test_dense_edge_list_reports_the_first_bad_edge(n, monkeypatch):
    # A bad edge line, then a self-loop line, at several places in a text the
    # dense path takes, shuffled (runs of about one line) or in the writer's
    # layout (long runs): the chunk that holds it is read again as on the
    # sparse path, and the message is the oracle's, for the first bad edge.
    monkeypatch.setattr(formats, "_CHUNK", 200)
    g, shuffled = _dense_text(n, n + 1)
    for lines in (shuffled, write_edge_list(g).splitlines()):
        _first_bad_edge_in(n, lines)


def _first_bad_edge_in(n, lines):
    m = len(lines) - 1
    bad = [f"0 {n}", "-1 2", f"2 {-n - 1}", f"{n} {n}", "2 2", "02 2", "+2 3"]
    for edge in bad:
        for at in sorted({1, n, n + 1, m // 2 + 1, m + 1}):
            body = lines[1:at] + [edge, "3 3"] + lines[at:]
            text = "\n".join([f"{n} {m + 2}"] + body) + "\n"
            assert formats._runs_pay(n, m + 2, len(text))
            with pytest.raises(ValueError) as expected:
                oracle_parse_edge_list(text)
            with pytest.raises(ValueError) as err:
                parse_edge_list(text)
            assert str(err.value) == str(expected.value), (edge, at)


@pytest.mark.parametrize("line, kind", [("7 7", "self-loop"), ("0 300", "out of range"),
                                        ("-1 4", "negative"), ("+1 5", "plus sign"),
                                        ("007 3", "leading zeros"), ("3 1_2", "underscore"),
                                        ("3 x", "not an integer"), ("3 4 5", "three tokens")])
def test_fault_deep_in_a_dense_chunk_matches_oracle(line, kind, monkeypatch):
    # The line goes in the middle of a chunk of lines "u v", past the first
    # n * n / 16 edges of a text the gate sends down the dense path, in a
    # shuffled order (runs of about one line) and in the writer's order
    # (long runs).
    g, shuffled = _dense_text(300, 7)
    runs_pay = formats._runs_pay
    for lines in (shuffled, write_edge_list(g).splitlines()):
        _fault_deep_in(lines, line, kind, runs_pay, monkeypatch)


def _fault_deep_in(lines, line, kind, runs_pay, monkeypatch):
    at = len(lines) // 2
    assert at > 300 * 300 // 16 and formats._CHUNK < len(lines[0]) + sum(map(len, lines[1:at]))
    for tail in (lines[at:], lines[at + 1:]):  # the line added, or replacing one
        header = f"300 {at + len(tail)}"
        text = "\n".join([header] + lines[1:at] + [line] + tail) + "\n"
        assert runs_pay(300, at + len(tail), len(text))
        try:
            expected = oracle_parse_edge_list(text)
        except ValueError as err:
            for runs in both_paths(monkeypatch):
                with pytest.raises(ValueError) as got:
                    parse_edge_list(text)
                assert type(got.value) is ValueError and str(got.value) == str(err), (kind, runs)
        else:
            for runs in both_paths(monkeypatch):
                assert parse_edge_list(text) == expected, (kind, runs)


# Lines that a check of the digits alone (no token count) would pass for
# "u v", and layouts the usual-layout check must hand to the line-by-line one.
SHAPE_INPUTS = ["3 1\n 5\n", "3 1\n5 \n", "3 3\n0 1\n 5\n1 2\n", "3 1\n1  2\n",
                "3 1\n1 2 \n", "3 2\n0 1 \n1 2\n", "3 1\n\u0661 \u0662\n",
                "3 1\n\uff11 \uff12\n", "3 1\n1 2", "3 2\n0 1\n1 2", "3 2\n0 1\n12\n",
                "3 1\n12\n\n", "3 1\n 1 2\n", "3 1\n1\t2\n", "3 1\n1 2\r\n",
                "3 0\n\n\n", "3 1\n1 2\n\n", "3 2\n0 1 2\n1\n"]


@pytest.mark.parametrize("text", SHAPE_INPUTS)
def test_edge_list_shape_check_matches_oracle(text):
    try:
        expected = oracle_parse_edge_list(text)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            parse_edge_list(text)
        assert str(got.value) == str(err)
    else:
        assert parse_edge_list(text) == expected
    chunk = text[text.index("\n") + 1:]
    two = all(len(line.split()) in (0, 2) for line in chunk.splitlines())
    assert formats._two_per_line(chunk, chunk.split()) == two


def test_every_small_graph_matches_the_oracles():
    # All 2^15 + 2^10 + ... graphs on n <= 6 vertices; bit i of code is the
    # i-th pair in graph6 (column-major) order.
    for n in range(1, 7):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for code in range(1 << len(pairs)):
            g = build_graph(n, [pair for i, pair in enumerate(pairs) if code >> i & 1])
            text = write_edge_list(g)
            assert text == oracle_write_edge_list(g)
            assert parse_edge_list(text) == g
            assert decode_graph6(encode_graph6(g)) == g


@pytest.mark.parametrize("n", [62, 63, 200, 1500])
def test_graph6_rows_match_oracle(n):
    for g in (half_density_graph(n, n), threshold_graph(n)):
        text = encode_graph6(g)
        assert decode_graph6(text) == oracle_decode_graph6(text) == g
    rng = stream(0xE11, n)
    pairs = ((rng.below(n), rng.below(n)) for _ in range(2 * n))
    sparse = build_graph(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
    text = encode_graph6(sparse)
    assert text == _reference_graph6(sparse)
    assert decode_graph6(text) == oracle_decode_graph6(text) == sparse


def test_write_edge_list_matches_oracle():
    graphs = [empty_graph(1), empty_graph(9), path_graph(2), complete_graph(40), cycle_graph(300),
              path_graph(5000), threshold_graph(301), half_density_graph(200, 3)]
    graphs += [gnp(1 + stream(0xE12, s).below(80), Fraction(s % 11, 10), stream(0xE13, s))
               for s in range(40)]
    graphs += [random_cograph(1 + stream(0xE14, s).below(120), stream(0xE15, s))
               for s in range(20)]
    for g in graphs:
        text = write_edge_list(g)
        # m comes from the rows the writer walks: writing g builds no degree
        # table, which would be kept with every graph written.
        assert "degrees" not in vars(g)
        assert text == oracle_write_edge_list(g)


def test_edge_list_parse_memory_is_bounded():
    # Beside the rows, the dense path holds its table of 1 << v (n ints),
    # one chunk of tokens at a time, not a tuple per edge, and one block of
    # the transpose, here the whole n * n byte matrix (2.25 MB): about
    # 3.7 MiB traced for this 4.8 MB input (the per-line parser peaked near
    # 98 MiB).
    g = half_density_graph(1500, 0)
    text = write_edge_list(g)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        parsed = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert parsed == g
    assert peak <= 6 * 2 ** 20


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
        path_certificate(5, (4, 2, 0, 1, 3), complemented=True),
    ]


def test_witness_json_roundtrip():
    for w in witness_examples():
        assert witnesses_from_json(witness_to_json(w)) == [w]


def test_witnesses_from_json_reads_bare_witnesses_and_answers():
    one, two = witness_examples()[:2]
    bare, pair = witness_to_dict(one), [witness_to_dict(one), witness_to_dict(two)]
    assert witnesses_from_json(json.dumps(bare)) == [one]
    assert witnesses_from_json(json.dumps({"k": 4, "witness": bare, "verified": True})) == [one]
    assert witnesses_from_json(json.dumps({"witnesses": pair, "verified": False})) == [one, two]
    with pytest.raises(ValueError, match="the file holds no witness"):
        witnesses_from_json('{"found": false, "nodes_explored": 3}')


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
    with pytest.raises(ValueError, match="unknown pattern name"):
        witness_from_dict({"type": "embedding", "pattern": "Q7", "map": []})


def test_fraction_parsing():
    assert parse_fraction("1/30") == Fraction(1, 30)
    assert parse_fraction("0.5") == Fraction(1, 2)
    assert parse_fraction("-0/7") == 0 and parse_fraction("3/010") == Fraction(3, 10)
    for zero_denominator in ("1/0", "-3/000", "+0/0"):
        with pytest.raises(ValueError, match="not a fraction"):
            parse_fraction(zero_denominator)


def test_report_serialization():
    g = complete_graph(8)
    r = extract_linear_bipartite(g, 4)
    data = report_to_dict(r)
    assert data["outcome"] == r.outcome
    assert data["constants"]["epsilon"] == "1/24"
    assert data["trace"]["sides"] == sorted(r.witness.side_sizes)
    json.dumps(data)  # JSON-safe end to end


def test_report_json_at_every_k_up_to_64():
    # the constants of k stay small in JSON: n_min is written by its exponent
    g = cycle_graph(9)
    for k in range(2, 65):
        data = report_to_dict(extract_linear_bipartite(g, k))
        assert data["constants"]["n_min"] == f"2^{choose_constants(k).n_min_exponent} + 1"
        json.dumps(data)


def test_report_writes_the_trace_as_it_is():
    # The pipeline's walk stops at its k-th path vertex, so the report's JSON
    # keeps the walk's levels as they are and the whole trace reads back
    # equal: a stopped walk on a path, a walk that splits at the centre of
    # a spider with four legs of 25, and a run that never walks.
    spider = build_graph(101, [(0, 1 + 25 * i) for i in range(4)]
                         + [(v, v + 1) for v in range(1, 101) if v % 25])
    cases = []
    for g in (path_graph(120), spider, complete_graph(10)):
        r = extract_linear_bipartite(g, 5)
        assert json.loads(json.dumps(report_to_dict(r)))["trace"] == r.trace
        cases.append([level["case"] for level in r.trace.get("extractor", ())])
    assert cases == [["grow"] * 4 + ["stop"], ["middle-split"], []]
