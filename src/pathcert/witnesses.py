"""Witness types and their independent verifiers.

Every algorithm in this package that claims to have found a structure
returns one of these witness objects, and every witness can be re-checked
here against the caller's graph using nothing but adjacency queries.  The
verifiers never trust producer-side bookkeeping: counts are recomputed,
thresholds are compared in exact rational arithmetic, and the first violated
condition is named in a fixed order (range, distinctness, adjacency, count)
so failures are deterministic.

Vertex ids inside witnesses are the ids of the graph the producer was
handed: producers run on that graph plus a vertex mask and never relabel,
so callers verify witnesses against the graph they started from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .graph import Graph, VertexSet, bits, mask_of


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


ACCEPT = Verdict(True)


@dataclass(frozen=True)
class InducedPathWitness:
    """An induced path, listed in path order; the walk starts at vertices[0]."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class BipartitePairWitness:
    """Disjoint sides X, Y with all cross edges (complete) or none (empty).

    No condition is placed on edges inside X or inside Y.
    """

    kind: str  # "empty" | "complete"
    X: VertexSet
    Y: VertexSet

    @property
    def side_sizes(self) -> tuple[int, int]:
        return len(self.X), len(self.Y)


@dataclass(frozen=True)
class HomogeneousSetWitness:
    """A vertex set that is sparse (stable kind) or dense (clique kind).

    stable: at most epsilon * C(|S|, 2) edges inside S.
    clique: at most epsilon * C(|S|, 2) NON-edges inside S.
    epsilon = 0 degenerates to an exact stable set / clique.
    """

    kind: str  # "stable" | "clique"
    S: VertexSet
    epsilon: Fraction
    edge_count: int

    @property
    def size(self) -> int:
        return len(self.S)


@dataclass(frozen=True)
class PatternEmbedding:
    """Induced embedding of a small named pattern into a host graph.

    mapping[i] is the host vertex for pattern vertex i; both adjacency and
    non-adjacency of the pattern are preserved.
    """

    pattern_name: str
    pattern: Graph
    mapping: tuple[int, ...]


Witness = Union[InducedPathWitness, BipartitePairWitness, HomogeneousSetWitness, PatternEmbedding]


def count_edges_within(g: Graph, s: VertexSet) -> int:
    mask = mask_of(s)
    return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2


def _range_check(g: Graph, vs) -> Verdict | None:
    for v in vs:
        if not 0 <= v < g.n:
            return Verdict(False, "vertex-out-of-range", f"vertex {v} not in 0..{g.n - 1}")
    return None


def verify_induced_path(g: Graph, w: InducedPathWitness) -> Verdict:
    vs = w.vertices
    if len(vs) == 0:
        return Verdict(False, "empty-sequence")
    bad = _range_check(g, vs)
    if bad is not None:
        return bad
    if len(set(vs)) != len(vs):
        return Verdict(False, "repeated-vertex")
    for i in range(len(vs) - 1):
        if not g.has_edge(vs[i], vs[i + 1]):
            return Verdict(False, "missing-edge", f"({vs[i]},{vs[i + 1]}) must be an edge")
    # One AND per vertex against the vertices two or more places later; the
    # first i with a hit and its chord of smallest position give the first
    # chord in (i, j) order.
    later = mask_of(vs[2:])
    for i in range(len(vs) - 2):
        chords = g.adj[vs[i]] & later
        if chords:
            position = {v: j for j, v in enumerate(vs)}
            j = min(position[v] for v in bits(chords))
            return Verdict(False, "forbidden-edge", f"chord ({vs[i]},{vs[j]})")
        later ^= 1 << vs[i + 2]
    return ACCEPT


def verify_bipartite_pair(g: Graph, w: BipartitePairWitness) -> Verdict:
    if w.kind not in ("empty", "complete"):
        return Verdict(False, "unknown-kind", w.kind)
    bad = _range_check(g, w.X)
    if bad is None:
        bad = _range_check(g, w.Y)
    if bad is not None:
        return bad
    if not w.X or not w.Y:
        return Verdict(False, "empty-side")
    if w.X & w.Y:
        return Verdict(False, "overlapping-sides", f"{sorted(w.X & w.Y)}")
    sizes = f"sides {len(w.X)},{len(w.Y)}"
    ymask = mask_of(w.Y)
    for x in sorted(w.X):
        if w.kind == "complete":
            missing = ymask & ~g.adj[x]
            if missing:
                y = (missing & -missing).bit_length() - 1
                return Verdict(False, "missing-edge", f"({x},{y}) must be an edge; {sizes}")
        else:
            present = ymask & g.adj[x]
            if present:
                y = (present & -present).bit_length() - 1
                return Verdict(False, "forbidden-edge", f"({x},{y}) must not be an edge; {sizes}")
    return Verdict(True, None, sizes)


def verify_homogeneous(g: Graph, w: HomogeneousSetWitness) -> Verdict:
    if w.kind not in ("stable", "clique"):
        return Verdict(False, "unknown-kind", w.kind)
    bad = _range_check(g, w.S)
    if bad is not None:
        return bad
    if not w.S:
        return Verdict(False, "empty-set")
    if not 0 <= w.epsilon <= 1:
        return Verdict(False, "epsilon-out-of-range", str(w.epsilon))
    s = len(w.S)
    pairs = s * (s - 1) // 2
    edges = count_edges_within(g, w.S)
    if edges != w.edge_count:
        return Verdict(False, "edge-count-mismatch", f"stored {w.edge_count}, recounted {edges}")
    budget = w.epsilon * pairs  # exact rational threshold
    if w.kind == "stable":
        if edges > budget:
            return Verdict(False, "too-many-edges", f"{edges} > {budget}")
    else:
        missing = pairs - edges
        if missing > budget:
            return Verdict(False, "too-many-missing-edges", f"{missing} > {budget}")
    return ACCEPT


def verify_embedding(g: Graph, w: PatternEmbedding) -> Verdict:
    bad = _range_check(g, w.mapping)
    if bad is not None:
        return bad
    if len(set(w.mapping)) != len(w.mapping):
        return Verdict(False, "repeated-vertex")
    if len(w.mapping) != w.pattern.n:
        return Verdict(False, "size-mismatch",
                       f"pattern has {w.pattern.n} vertices, mapping has {len(w.mapping)}")
    # One AND per vertex; row i maps its later edges, or non-edges if fewer: O(1) on P_k, co-P_k.
    m = w.mapping
    later = mask_of(m)
    for i, v in enumerate(m):
        later ^= 1 << v
        row = w.pattern.adj[i] >> (i + 1)  # bit t: position i + 1 + t
        gaps = ~row & (1 << (len(m) - i - 1)) - 1
        flip = row.bit_count() > gaps.bit_count()
        image = mask_of(m[i + 1 + t] for t in bits(gaps if flip else row))
        wrong = (g.adj[v] & later) ^ (later & ~image if flip else image)
        if wrong:
            j = next(j for j in range(i + 1, len(m)) if wrong >> m[j] & 1)
            return Verdict(False, "adjacency-mismatch",
                           f"pattern pair ({i},{j}) vs host pair ({v},{m[j]})")
    return ACCEPT


def verify(g: Graph, w: Witness) -> Verdict:
    """Dispatch to the verifier matching the witness type."""
    if isinstance(w, InducedPathWitness):
        return verify_induced_path(g, w)
    if isinstance(w, BipartitePairWitness):
        return verify_bipartite_pair(g, w)
    if isinstance(w, HomogeneousSetWitness):
        return verify_homogeneous(g, w)
    if isinstance(w, PatternEmbedding):
        return verify_embedding(g, w)
    raise TypeError(f"not a witness: {type(w).__name__}")
