"""Brute-force induced-path search: ground truth for P_k and co-P_k
certificates.

The search is exhaustive and deterministic (candidates are tried in
ascending vertex id), so it doubles as ground truth for the rest of the
package; ``is_pk_copk_free`` also certifies the ``ck`` generator's samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, complement, path_graph
from .witnesses import PatternEmbedding


@dataclass(frozen=True)
class PatternQueryResult:
    found: bool
    embedding: PatternEmbedding | None
    nodes_explored: int


def path_certificate(k: int, mapping: tuple[int, ...],
                     complemented: bool = False) -> PatternEmbedding:
    """The embedding named "P<k>" of the k-vertex path, or "co-P<k>" of its
    complement, with host vertex ``mapping[i]`` for pattern vertex i."""
    if complemented:
        return PatternEmbedding("co-P%d" % k, complement(path_graph(k)), mapping)
    return PatternEmbedding("P%d" % k, path_graph(k), mapping)


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
            return PatternQueryResult(True, path_certificate(k, tuple(path)), explored)
    return PatternQueryResult(False, None, explored)


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
        return path_certificate(k, res.embedding.mapping, complemented=True)
    return None
