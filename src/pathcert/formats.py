"""Serialization: graph6, edge-list text, and witness/report JSON.

graph6 follows the published format for n <= 258047: the size is byte 63+n
for n <= 62, else "~" and three bytes holding n in 18 bits, six to a byte,
most significant first, each offset by 63; then come the upper-triangle bits
column-major ((0,1), (0,2), (1,2), (0,3), ...), packed big-endian six to a
byte, each byte offset by 63.  The 8-byte size form (n > 258047) is
rejected.  The edge-list text format is a header line "n m" followed by m
lines "u v" with 0-based endpoints.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .graph import Graph, bits, build_graph, complement, path_graph
from .pipeline import ExtractionReport, PipelineConstants
from .witnesses import (BipartitePairWitness, HomogeneousSetWitness, InducedPathWitness,
                        PatternEmbedding, Witness)

GRAPH6_MAX_N = 258047  # the largest n of the 4-byte size form

# graph6 data byte -> its six bits, most significant first.
_SIX_BITS = {63 + v: format(v, "06b") for v in range(64)}


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
    bitstr += "0" * (-len(bitstr) % 6)
    return size + "".join(chr(63 + int(bitstr[i:i + 6], 2)) for i in range(0, len(bitstr), 6))


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
    bitstr = s[head:].translate(_SIX_BITS)
    if "1" in bitstr[total:]:
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    edges = []
    start = 0
    for j in range(1, n):
        column = bitstr[start:start + j]
        start += j
        if "1" in column:
            edges.extend((i, j) for i in bits(int(column[::-1], 2)))
    return build_graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    rows = [ln for ln in (line.strip() for line in text.splitlines())
            if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError('edge-list header must be "n m"')
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


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


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)


_PATTERN_NAME = re.compile(r"^(co-)?P(\d+)$")


def pattern_by_name(name: str) -> Graph:
    m = _PATTERN_NAME.match(name)
    if not m:
        raise ValueError(f"unknown pattern name {name!r}")
    k = int(m.group(2))
    base = path_graph(k)
    return complement(base) if m.group(1) else base


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
    kind = data.get("type")
    if kind == "path":
        return InducedPathWitness(tuple(data["vertices"]))
    if kind == "bipartite":
        return BipartitePairWitness(data["kind"], frozenset(data["X"]), frozenset(data["Y"]))
    if kind == "homogeneous":
        return HomogeneousSetWitness(data["kind"], frozenset(data["S"]),
                                     parse_fraction(data["epsilon"]), data["edge_count"])
    if kind == "embedding":
        return PatternEmbedding(data["pattern"], pattern_by_name(data["pattern"]),
                                tuple(data["map"]))
    raise ValueError(f"unknown witness type {kind!r}")


def witness_to_json(w: Witness) -> str:
    return json.dumps(witness_to_dict(w), indent=2) + "\n"


def witness_from_json(text: str) -> Witness:
    """Parse a witness file; a missing or mistyped field is a ValueError, like
    malformed JSON, because the text comes from outside the program."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("malformed witness: not a JSON object")
    try:
        return witness_from_dict(data)
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed witness: {type(err).__name__}: {err}") from err


def constants_to_dict(c: PipelineConstants) -> dict:
    return {
        "k": c.k,
        "epsilon": fraction_to_str(c.epsilon),
        "c": fraction_to_str(c.c),
        "path_bound": fraction_to_str(c.path_bound),
        "delta": c.delta.describe(),
        "delta_exponent_float": c.delta.exponent_float,
        "c_k_log2": c.c_k_log2,
        "c_prime": c.c_prime_theory,
        "n_min": str(c.n_min),
        "n_min_exact": c.n_min_exact,
        "T": c.T,
        "D": c.D,
    }


def _extractor_summary(levels: list[dict]) -> dict:
    """The extractor's per-level trace in a fixed size: the level count, the
    count of each case in first-seen order, and the last level's dict."""
    cases: dict[str, int] = {}
    for level in levels:
        cases[level["case"]] = cases.get(level["case"], 0) + 1
    return {"levels": len(levels), "cases": cases, "last": levels[-1]}


def report_to_dict(r: ExtractionReport) -> dict:
    """JSON-safe report.  The extractor's per-level list (one dict per walk
    level, thousands on long paths) is written as ``_extractor_summary``."""
    trace = dict(r.trace)
    if "extractor" in trace:
        trace["extractor"] = _extractor_summary(trace["extractor"])
    return {
        "outcome": r.outcome,
        "witness": witness_to_dict(r.witness),
        "complemented": r.complemented,
        "constants": constants_to_dict(r.constants),
        "trace": trace,
    }


def report_to_json(r: ExtractionReport) -> str:
    return json.dumps(report_to_dict(r), indent=2) + "\n"
