"""Serialization: graph6, edge-list text, and witness/report JSON.

graph6 follows the published format for n <= 258047: the size is byte 63+n
for n <= 62, else "~" and three bytes holding n in 18 bits, six to a byte,
most significant first, each offset by 63; then come the upper-triangle bits
column-major ((0,1), (0,2), (1,2), (0,3), ...), packed big-endian six to a
byte, each offset by 63: base64 with the digits 63..126, so both directions
go through the standard library's codec.  The 8-byte size form (n > 258047)
is rejected, and so is a text of more than one line: a file holds one graph.
Decoding lays the columns out n characters apart and reads each
adjacency row as one column plus one strided slice: O(n) string operations
of O(n) characters each, and no Python work per edge.

The edge-list text format is a header line "n m" followed by m lines "u v"
with 0-based endpoints.  Blank lines and lines whose first non-blank
character is "#" are skipped, any whitespace separates the two tokens of a
line, and any ``str.splitlines`` boundary ends a line; a repeated edge
counts once in the graph.  Parsing reads the text in chunks of about
16 Ki characters, each cut just after a "\\n" (a text with no "\\n" is one
chunk).  Per chunk, a few C-level passes check every line's token count
(for lines "u v" of ASCII digits: the token count against the line count,
and the chunk without its digits against " \\n" per line) and split the
tokens.  Then one of two builders takes the chunk, chosen once by the
header "n m" in ``_runs_pay``: the dense path when 1 <= n <= 4096, m is
past n * n / 16 and the text holds at least 4 characters per promised
edge, the sparse path otherwise.

Each builder has one id reader.  The sparse path reads a chunk's tokens
through ``int()``, the whole chunk before any of its edges is checked, and
``graph.build_graph`` checks each edge and ORs it into both rows.  The
dense path is the only builder of dense rows: it ORs each edge into its
first endpoint's row only, and ``graph.symmetrised`` adds the other side of
every edge at the end.  It reads every token in a table of 1 << v: for each
run of lines with the same first token it ORs the run's second endpoints'
bits into the row of the first's bit by a C-level reduce, with no Python
statement per edge.  A chunk with a token the table does not hold, or with
a self-loop, is read as on the sparse path, so a bad edge raises through
``build_graph``'s checks and faults read the same on both paths.  Nothing
but the rows outlives its chunk; the dense path also holds its table (n
ints) and one block of the transpose (the n * n byte matrix up to
n = 2048, 2.25 MB at n = 1500).  Beyond the text and the graph, parsing
memory is bounded by the chunk plus those.

An edge-list input with one fault is rejected with the same message
whatever its layout.  With several faults the first one met is reported,
in this order for each chunk in turn: the lines' token counts, then (in
the header's chunk) the header's integers and n >= 1, then the chunk's
tokens as integers, then each edge's range and self-loop; the edge count
against the header comes last.
"""

from __future__ import annotations

import base64
import json
import re
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, groupby
from operator import or_
from typing import Iterator

from .graph import Graph, build_graph, member_selectors, symmetrised
from .patterns import path_certificate
from .pipeline import ExtractionReport, PipelineConstants
from .witnesses import (BipartitePairWitness, HomogeneousSetWitness, InducedPathWitness,
                        PatternEmbedding, Witness)

GRAPH6_MAX_N = 258047  # the largest n of the 4-byte size form

_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64_DIGITS)  # graph6 byte 63+v -> digit v
_FROM_BASE64 = bytes.maketrans(_BASE64_DIGITS, bytes(range(63, 127)))


class Graph6Error(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _graph6_size(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= GRAPH6_MAX_N:
        return "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    raise ValueError(f"graph6 covers n <= {GRAPH6_MAX_N}, got {n}")


def encode_graph6(g: Graph) -> str:
    size = _graph6_size(g.n)
    # column j lists rows 0..j-1, row 0 first: the low j bits of adj[j], reversed
    bitstr = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                     for j in range(1, g.n))
    pad = -len(bitstr) % 24  # zeros to whole base64 groups, so no "=" is written
    raw = (int(bitstr or "0", 2) << pad).to_bytes((len(bitstr) + pad) // 8, "big")
    digits = base64.b64encode(raw)[:(len(bitstr) + 5) // 6]  # the digits the bits fill
    return size + digits.translate(_FROM_BASE64).decode("ascii")


def _decode_graph6_size(s: str) -> tuple[int, int]:
    """(n, length of the size field) of graph6 text ``s``."""
    if s[0] != "~":
        if not 63 <= ord(s[0]) < 126:
            raise Graph6Error(f"invalid size byte {s[0]!r}", 0)
        return ord(s[0]) - 63, 1
    if s[1:2] == "~":
        raise Graph6Error(f"the 8-byte size form (n > {GRAPH6_MAX_N}) is not supported", 0)
    if len(s) < 4:
        raise Graph6Error("truncated size field", len(s))
    n = 0
    for offset in (1, 2, 3):
        val = ord(s[offset]) - 63
        if not 0 <= val < 64:
            raise Graph6Error(f"invalid size byte {s[offset]!r}", offset)
        n = n << 6 | val
    return n, 4


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty input", 0)
    brk = re.search(r"[\r\n]", s)
    if brk:
        raise Graph6Error(f"the input holds {len(s.splitlines())} lines, and pathcert reads one"
                          " graph per file", brk.start())
    n, head = _decode_graph6_size(s)
    if n < 1:
        raise Graph6Error("graphs have at least one vertex", 0)
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(s) - head != need:
        raise Graph6Error(f"expected {need} data bytes for n={n}, got {len(s) - head}",
                          min(len(s), need + head))
    bad = re.search(r"[^?-~]", s[head:])
    if bad:
        raise Graph6Error(f"invalid data byte {bad.group()!r}", head + bad.start())
    digits = s[head:].encode("ascii").translate(_TO_BASE64)
    raw = base64.b64decode(digits + b"A" * (-len(digits) % 4))  # "A": zero bits to whole groups
    bitstr = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    if "1" in bitstr[total:]:
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    # Column j (pairs (0, j) .. (j - 1, j)) padded with zeros to n characters,
    # so pad[j*n + i] is pair (i, j) for i < j.  Row v, indexed by vertex, is
    # column v, then 0 for v itself, then pad[u*n + v] for u > v: the
    # strided slice pad[v + n*(v + 1)::n].
    pad = "".join(bitstr[j * (j - 1) // 2:j * (j + 1) // 2].ljust(n, "0") for j in range(n))
    return Graph(n, tuple(int((pad[v * n:v * n + v] + "0" + pad[v + n * (v + 1)::n])[::-1], 2)
                          for v in range(n)))


def write_edge_list(g: Graph) -> str:
    """Header "n m", then one line "u v" per edge, u < v, lexicographic.
    m is counted from the upper rows the loop walks, so writing g builds
    no degree table."""
    names = [str(v) for v in range(g.n)]
    out = [""]  # the header, once m is known
    m = 0
    for u, row in enumerate(g.adj):
        upper = row >> (u + 1)  # bit i: the edge (u, u + 1 + i)
        if not upper:
            continue
        m += upper.bit_count()
        head = f"\n{u} "
        if upper & (upper - 1) == 0:
            out.append(head + names[u + upper.bit_length()])
        else:
            chosen = member_selectors(upper)
            out.append(head + head.join(compress(names[u + 1:u + 1 + len(chosen)], chosen)))
    out[0] = f"{g.n} {m}"
    out.append("\n")
    return "".join(out)


# Characters per tokenizing step: beyond the graph itself, parsing holds one
# chunk's text, tokens and ids, whatever the size of the input.
_CHUNK = 1 << 14


def _chunks(text: str) -> Iterator[str]:
    """``text`` in slices of about _CHUNK characters, each cut just after a
    "\\n" (always a line boundary) or at the end."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


_ASCII_DIGITS = str.maketrans("", "", "0123456789")


def _two_per_line(chunk: str, tokens: list[str]) -> bool:
    """Whether every line of ``chunk`` holds no token or exactly two."""
    # The layout write_edge_list emits (lines "u v\n" of ASCII digits) is
    # checked by two C-level passes: with two tokens per "\n", deleting the
    # digits leaves " \n" per line only if each line is digits, one space,
    # digits.  Any other layout is checked line by line.
    lines = chunk.count("\n")
    return (len(tokens) == 2 * lines and chunk.translate(_ASCII_DIGITS) == " \n" * lines
            or set(map(len, map(str.split, chunk.splitlines()))) <= {0, 2})


def _shape_error(chunk: str, header: bool) -> ValueError:
    """The error for the first line of ``chunk`` holding neither zero nor
    two tokens; ``header``: no content line came before the chunk."""
    for line in chunk.splitlines():
        count = len(line.split())
        if count not in (0, 2):
            break
        header = header and count == 0
    return ValueError('edge-list header must be "n m"' if header
                      else f"bad edge line {line.strip()!r}")


def _line_tokens(text: str) -> Iterator[list[str]]:
    """The tokens of each chunk's content lines (neither blank nor a "#"
    comment), header first; a content line without exactly two tokens
    raises when its chunk is reached."""
    header = True
    for chunk in _chunks(text):
        if "#" in chunk:
            chunk = "\n".join(line for line in chunk.splitlines()
                              if not line.lstrip().startswith("#"))
        tokens = chunk.split()
        if not tokens:
            continue
        if not _two_per_line(chunk, tokens):
            raise _shape_error(chunk, header)
        header = False
        yield tokens


# The largest n whose edge-list text may take the run path, which keeps a
# table of 1 << v: n ints of up to n bits, at most n * n / 8 bytes (2 MiB here).
_BIT_TABLE_MAX_N = 4096

# Past n * n // _DIRECTED_AFTER edges (n <= _BIT_TABLE_MAX_N), parse_edge_list
# builds the rows run by run and transposes once.  On write_edge_list's
# layout the run path breaks even with build_graph near n * n / 11 edges at
# n = 300 and n * n / 27 at n = 1000 (paired medians on a 2-core x86 host):
# the transpose and the table cost O(n^2) whatever the density.
_DIRECTED_AFTER = 16


def _runs_pay(n: int, m: int, length: int) -> bool:
    """Whether the header "n m" of an edge-list text of ``length``
    characters takes the run path: n has a table of 1 << v, the graph is
    dense, and the text has the 4 characters an edge line needs per
    promised edge, so a short text cannot force the O(n^2) transpose."""
    return 1 <= n <= _BIT_TABLE_MAX_N and _DIRECTED_AFTER * m > n * n and 4 * m <= length


def _or_directed(rows: list[int], tokens: list[str], bit: dict[str, int]) -> bool:
    """OR each edge of the chunk ``tokens`` into its first endpoint's row,
    each run of equal first endpoints by one C-level reduce of its second
    endpoints' ``bit[v]``; the run's head ``bit[u]`` is the row's one bit,
    so its bit length less one is the row's index.  False, with the rows
    partly ORed, at a token the table does not hold or at a self-loop."""
    us, vs = tokens[0::2], tokens[1::2]
    try:
        i = 0
        for u, run in groupby(us):
            j = i + len(list(run))
            row = reduce(or_, map(bit.__getitem__, vs[i:j]))
            i, head = j, bit[u]
            if row & head:
                return False
            rows[head.bit_length() - 1] |= row
    except KeyError:
        return False
    return True


def _graph_by_runs(n: int, bodies: Iterator[list[str]]) -> Graph:
    """The graph of the chunks' edge tokens ``bodies`` on n vertices: each
    edge ORed into its first endpoint's row, symmetrised at the end.  A
    chunk _or_directed cannot take is read as on the sparse path, so
    build_graph raises at its first bad edge, or else ORs its edges in
    (ORing a chunk's edges twice is harmless)."""
    rows = [0] * n
    bit = {str(v): 1 << v for v in range(n)}
    for tokens in bodies:
        if not _or_directed(rows, tokens, bit):
            flat = iter(list(map(int, tokens)))
            rows = list(map(or_, rows, build_graph(n, zip(flat, flat)).adj))
    return Graph(n, symmetrised(rows))


def parse_edge_list(text: str) -> Graph:
    """Graph of edge-list text (see the module docstring)."""
    chunks = _line_tokens(text)
    head = next(chunks, None)
    if head is None:
        raise ValueError("empty edge-list input")
    n, m = int(head[0]), int(head[1])
    found = 0

    def bodies() -> Iterator[list[str]]:
        nonlocal found
        for tokens in chain((head[2:],), chunks):
            found += len(tokens) // 2
            yield tokens

    if _runs_pay(n, m, len(text)):
        g = _graph_by_runs(n, bodies())
    else:
        # Each chunk's tokens become ints whole before build_graph checks
        # any of its edges: a token int() refuses is reported first.
        flat = chain.from_iterable(list(map(int, tokens)) for tokens in bodies())
        g = build_graph(n, zip(flat, flat))
    if found != m:
        raise ValueError(f"header promises {m} edges, found {found}")
    return g


def read_graph(text: str, fmt: str) -> Graph:
    if fmt == "graph6":
        return decode_graph6(text)
    if fmt == "edges":
        return parse_edge_list(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def write_graph(g: Graph, fmt: str) -> str:
    if fmt == "graph6":
        return encode_graph6(g) + "\n"
    if fmt == "edges":
        return write_edge_list(g)
    raise ValueError(f"unknown graph format {fmt!r}")


def fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


_FRACTION = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*|\.[0-9]+)?")


def parse_fraction(text: str) -> Fraction:
    """A Fraction from outside text, [+-]digits[/digits] or [+-]digits.digits:
    never an exponent, for which Fraction would first build the power of ten,
    nor a zero denominator, for which it would raise ZeroDivisionError."""
    if not _FRACTION.fullmatch(text):
        raise ValueError(f"not a fraction (digits[/digits] or digits.digits): {text[:40]!r}")
    return Fraction(text)


_PATTERN_NAME = re.compile(r"^(co-)?P(\d+)$")


def _parse_pattern_name(name: str) -> tuple[bool, int]:
    """(complemented, vertex count) of a pattern name "P<k>" or "co-P<k>"."""
    m = _PATTERN_NAME.match(name)
    if not m:
        raise ValueError(f"unknown pattern name {name!r}")
    return bool(m.group(1)), int(m.group(2))


def witness_to_dict(w: Witness) -> dict:
    if isinstance(w, InducedPathWitness):
        return {"type": "path", "vertices": list(w.vertices)}
    if isinstance(w, BipartitePairWitness):
        return {"type": "bipartite", "kind": w.kind,
                "X": sorted(w.X), "Y": sorted(w.Y)}
    if isinstance(w, HomogeneousSetWitness):
        return {"type": "homogeneous", "kind": w.kind, "S": sorted(w.S),
                "epsilon": fraction_to_str(w.epsilon), "edge_count": w.edge_count}
    if isinstance(w, PatternEmbedding):
        return {"type": "embedding", "pattern": w.pattern_name, "map": list(w.mapping)}
    raise TypeError(f"not a witness: {type(w).__name__}")


def witness_from_dict(data: dict) -> Witness:
    for key in ("vertices", "X", "Y", "S", "map"):  # lists of ints, booleans excluded
        if key in data and (not isinstance(data[key], list)
                            or any(type(v) is not int for v in data[key])):
            raise TypeError(f"{key!r} must be a list of integer vertex ids")
    for key in ("X", "Y", "S"):  # sets: a repeat would vanish into the frozenset unchecked
        if key in data and len(set(data[key])) != len(data[key]):
            raise ValueError(f"malformed witness: {key!r} repeats a vertex id")
    kind = data.get("type")
    if kind in ("bipartite", "homogeneous") and not isinstance(data["kind"], str):
        raise TypeError("'kind' must be a string")
    if kind == "path":
        return InducedPathWitness(tuple(data["vertices"]))
    if kind == "bipartite":
        return BipartitePairWitness(data["kind"], frozenset(data["X"]), frozenset(data["Y"]))
    if kind == "homogeneous":
        epsilon, edge_count = data["epsilon"], data["edge_count"]
        if not isinstance(epsilon, str) or type(edge_count) is not int:
            raise TypeError("'epsilon' must be a fraction string and 'edge_count' an integer")
        return HomogeneousSetWitness(data["kind"], frozenset(data["S"]),
                                     parse_fraction(epsilon), edge_count)
    if kind == "embedding":
        # The name fixes the pattern's size; compare it with the map before
        # building the pattern, so a huge name costs nothing.
        name, mapping = data["pattern"], tuple(data["map"])
        complemented, size = _parse_pattern_name(name)
        if size != len(mapping):
            raise ValueError(f"malformed witness: pattern {name} has {size} vertices, "
                             f"map has {len(mapping)}")
        return path_certificate(size, mapping, complemented)
    raise ValueError(f"unknown witness type {kind!r}")


def witnesses_from_json(text: str) -> list[Witness]:
    """The witnesses of a file: a bare witness (it has ``"type"``), or an
    answer that holds one under ``"witness"`` or several under
    ``"witnesses"``.  The text comes from outside the program, so every
    fault is a ValueError: malformed JSON, JSON nested too deeply to parse,
    a missing or mistyped field, or an answer that holds no witness."""
    try:
        data = json.loads(text)
        found = ([data] if not isinstance(data, dict) or "type" in data
                 else [data["witness"]] if "witness" in data else data.get("witnesses"))
        if found is None:
            raise ValueError('the file holds no witness (an answer such as "found": false '
                             'or "free": true certifies nothing)')
        if not (isinstance(found, list) and found and all(isinstance(w, dict) for w in found)):
            raise ValueError("malformed witness: not a JSON object")
        return [witness_from_dict(w) for w in found]
    except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as err:
        raise ValueError(f"malformed witness: {type(err).__name__}: {err}") from err


def constants_to_dict(c: PipelineConstants) -> dict:
    """The constants of k; delta by its formula, held symbolically since
    log2(6k) is irrational, and n_min as the string "2^E + 1", so the size
    of the report does not grow with 2^E."""
    return {
        "k": c.k,
        "epsilon": fraction_to_str(c.epsilon),
        "c": fraction_to_str(c.c),
        "path_bound": fraction_to_str(c.path_bound),
        "delta": f"2^(-15*{c.k}*log2({6 * c.k})^2) (exponent ~ {c.delta_exponent_float:.4f})",
        "delta_exponent_float": c.delta_exponent_float,
        "c_k_log2": c.c_k_log2,
        "c_prime": c.c_prime_theory,
        "n_min": f"2^{c.n_min_exponent} + 1",
    }


def report_to_dict(r: ExtractionReport) -> dict:
    """JSON-safe report; the trace is written as it is."""
    return {
        "outcome": r.outcome,
        "witness": witness_to_dict(r.witness),
        "complemented": r.complemented,
        "constants": constants_to_dict(r.constants),
        "trace": r.trace,
    }
