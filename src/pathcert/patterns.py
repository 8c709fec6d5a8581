"""Brute-force induced-subgraph oracles.

These searches are exhaustive and deterministic (candidates are tried in
ascending vertex id), so they double as ground truth for everything else in
the package.  They are meant for small patterns on desk-scale hosts, not for
general subgraph-isomorphism workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, build_graph, complement, path_graph
from .witnesses import PatternEmbedding

MAX_PATTERN_SIZE = 10
MAX_UNIVERSALITY_K = 5


@dataclass(frozen=True)
class PatternQueryResult:
    found: bool
    embedding: PatternEmbedding | None
    nodes_explored: int


def find_induced_path(g: Graph, k: int) -> PatternQueryResult:
    """Search for an induced path on exactly k vertices.

    Backtracking over partial paths: a partial path may be extended by a
    neighbor of its last vertex that is adjacent to no earlier path vertex.
    Returns the lexicographically first such path (by start vertex, then by
    each extension choice).  ``nodes_explored`` counts the partial paths
    visited.  The search keeps an explicit stack, so k is not bounded by the
    interpreter's recursion limit.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    explored = 0
    if k > g.n:
        return PatternQueryResult(False, None, explored)

    adj, full = g.adj, g.full_mask
    for start in range(g.n):
        # path[i] is followed by an untried extension from untried[i]; seen[i]
        # is the union of the closed neighborhoods of path[:i + 1].
        path = [start]
        seen = [adj[start] | 1 << start]
        untried = [adj[start] & full & ~(1 << start)]
        explored += 1
        while untried and len(path) < k:
            rest = untried[-1]
            if not rest:
                untried.pop()
                seen.pop()
                path.pop()
                continue
            low = rest & -rest
            untried[-1] = rest ^ low
            v = low.bit_length() - 1
            path.append(v)
            untried.append(adj[v] & full & ~seen[-1])
            seen.append(seen[-1] | adj[v] | low)
            explored += 1
        if len(path) == k:
            emb = PatternEmbedding("P%d" % k, path_graph(k), tuple(path))
            return PatternQueryResult(True, emb, explored)
    return PatternQueryResult(False, None, explored)


def contains_induced(g: Graph, h: Graph) -> PatternQueryResult:
    """Does some injective map embed h into g preserving adjacency AND
    non-adjacency?  A found embedding is named "pattern".

    Pattern vertices are assigned in id order; the only pruning is that a
    host candidate must have degree at least the pattern vertex's degree.
    """
    if h.n > MAX_PATTERN_SIZE:
        raise ValueError(f"pattern too large: {h.n} > {MAX_PATTERN_SIZE}")
    explored = 0
    if h.n > g.n:
        return PatternQueryResult(False, None, explored)

    full = g.full_mask
    hdeg = [h.degree(i) for i in range(h.n)]
    assigned: list[int] = []
    found: tuple[int, ...] | None = None

    def place(i: int, used: int) -> bool:
        nonlocal explored, found
        explored += 1
        if i == h.n:
            found = tuple(assigned)
            return True
        cand = full & ~used
        for j in range(i):
            if h.has_edge(i, j):
                cand &= g.adj[assigned[j]]
            else:
                cand &= ~g.adj[assigned[j]]
        for v in bits(cand):
            if g.degree(v) < hdeg[i]:
                continue
            assigned.append(v)
            if place(i + 1, used | (1 << v)):
                return True
            assigned.pop()
        return False

    place(0, 0)
    if found is None:
        return PatternQueryResult(False, None, explored)
    emb = PatternEmbedding("pattern", h, found)
    return PatternQueryResult(True, emb, explored)


def is_pk_copk_free(g: Graph, k: int) -> PatternEmbedding | None:
    """None iff g induces neither the k-vertex path nor its complement.

    Otherwise returns the first certificate found; the path is searched
    before its complement.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    res = find_induced_path(g, k)
    if res.found:
        return res.embedding
    res = find_induced_path(complement(g), k)
    if res.found:
        assert res.embedding is not None
        return PatternEmbedding("co-P%d" % k, complement(path_graph(k)), res.embedding.mapping)
    return None


def labeled_graph(k: int, code: int) -> Graph:
    """The labeled k-vertex graph whose upper-triangle bits (pairs (i, j),
    i < j, lexicographic) spell ``code``."""
    edges = []
    bit = 0
    for i in range(k):
        for j in range(i + 1, k):
            if (code >> bit) & 1:
                edges.append((i, j))
            bit += 1
    return build_graph(k, edges)


def universality_check(g: Graph, k: int) -> Graph | None:
    """None if every labeled k-vertex graph embeds induced into g; otherwise
    the first missing pattern (patterns enumerated by upper-triangle code).

    Labeled patterns are enumerated directly, without isomorphism reduction;
    at k <= 5 that is at most 1024 of them.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_UNIVERSALITY_K:
        raise ValueError(f"k too large: {k} > {MAX_UNIVERSALITY_K}")
    for code in range(1 << (k * (k - 1) // 2)):
        h = labeled_graph(k, code)
        if not contains_induced(g, h).found:
            return h
    return None
