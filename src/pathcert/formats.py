"""Serialization: graph6, edge-list text, and witness/report JSON.

graph6 follows the published format for the short (single size byte) form,
n <= 62: byte 63+n, then the upper-triangle bits column-major ((0,1), (0,2),
(1,2), (0,3), ...), packed big-endian six to a byte, each byte offset by 63.
Larger graphs use the edge-list text format: a header line "n m" followed by
m lines "u v" with 0-based endpoints.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .graph import Graph, build_graph, complement, path_graph
from .pipeline import ExtractionReport, PipelineConstants
from .witnesses import (BipartitePairWitness, HomogeneousSetWitness, InducedPathWitness,
                        PatternEmbedding, Witness)

GRAPH6_MAX_N = 62


class Graph6Error(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def encode_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"short graph6 form covers n <= {GRAPH6_MAX_N}, got {g.n}")
    out = [chr(63 + g.n)]
    bit_buffer = 0
    bit_count = 0
    for j in range(1, g.n):
        for i in range(j):
            bit_buffer = (bit_buffer << 1) | (1 if g.has_edge(i, j) else 0)
            bit_count += 1
            if bit_count == 6:
                out.append(chr(63 + bit_buffer))
                bit_buffer, bit_count = 0, 0
    if bit_count:
        out.append(chr(63 + (bit_buffer << (6 - bit_count))))
    return "".join(out)


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty input", 0)
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("multi-byte size forms are not supported", 0)
    if not 63 <= first <= 63 + GRAPH6_MAX_N:
        raise Graph6Error(f"invalid size byte {s[0]!r}", 0)
    n = first - 63
    if n < 1:
        raise Graph6Error("graphs have at least one vertex", 0)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) - 1 != need:
        raise Graph6Error(f"expected {need} data bytes for n={n}, got {len(s) - 1}",
                          min(len(s), need + 1))
    edges = []
    bit_index = 0
    for offset, ch in enumerate(s[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6Error(f"invalid data byte {ch!r}", offset)
        for b in range(5, -1, -1):
            if bit_index >= n * (n - 1) // 2:
                if (val >> b) & 1:
                    raise Graph6Error("nonzero padding bits", offset)
                continue
            if (val >> b) & 1:
                edges.append(_pair_at(bit_index))
            bit_index += 1
    return build_graph(n, edges)


def _pair_at(bit_index: int) -> tuple[int, int]:
    # column-major upper triangle: column j holds bits for rows 0..j-1
    j = 1
    while j * (j - 1) // 2 + j <= bit_index:
        j += 1
    i = bit_index - j * (j - 1) // 2
    return i, j


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


def report_to_dict(r: ExtractionReport) -> dict:
    return {
        "outcome": r.outcome,
        "witness": witness_to_dict(r.witness),
        "complemented": r.complemented,
        "constants": constants_to_dict(r.constants),
        "trace": r.trace,
    }


def report_to_json(r: ExtractionReport) -> str:
    return json.dumps(report_to_dict(r), indent=2) + "\n"
