"""Immutable simple graphs over bit-mask adjacency rows.

Vertices are the ints 0..n-1.  Row ``adj[v]`` is an int whose bit ``u`` is
set iff ``uv`` is an edge; the diagonal is always zero and rows are
symmetric.  Set intersections, neighborhoods and component sweeps are all
single big-int operations, which is what the search-heavy callers need at
the scales this package targets (n up to a few thousand).  Per-vertex counts
can be kept bit-sliced the same way (one int per bit of the count), as the
greedy peel in :mod:`pathcert.homogeneous` does for degrees.

An induced subgraph is a vertex bit mask over the same rows: the producers
take ``(g, mask)`` and report vertex sets in g's own ids, so nothing is
relabelled or translated back.  :func:`complement` restricted to a mask
fills rows for the mask's members only, and :func:`induced` builds a
relabelled copy for callers that need a standalone graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

VertexSet = frozenset[int]


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def closed_degree(self, v: int) -> int:
        return self.adj[v].bit_count() + 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield u, u + 1 + v


# The largest n for which build_graph keeps a table of 1 << v: it holds
# n * n / 16 bytes (1 MiB here).
_BIT_TABLE_MAX_N = 4096


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Simple undirected graph on n >= 1 vertices.

    Self-loops are rejected, duplicate edges collapse, endpoints must be
    valid vertex ids; ``edges`` is consumed once, in order, and the first
    bad edge raises.
    """
    if n < 1:
        raise ValueError("graphs have at least one vertex")
    rows = [0] * n
    edges = iter(edges)
    # The first n edges (all of them when n is past the table's limit) shift
    # 1 << v; only a graph with more edges than vertices pays for the table.
    for u, v in islice(edges, n if n <= _BIT_TABLE_MAX_N else None):
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise _edge_error(u, v, n)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    more = next(edges, None)
    if more is not None:
        bit = [1 << v for v in range(n)]
        for u, v in chain((more,), edges):
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise _edge_error(u, v, n)
            rows[u] |= bit[v]
            rows[v] |= bit[u]
    return Graph(n, tuple(rows))


def _edge_error(u: int, v: int, n: int) -> ValueError:
    if not (0 <= u < n and 0 <= v < n):
        return ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
    return ValueError(f"self-loop ({u},{u}) is not allowed")


def complement(g: Graph, mask: int | None = None) -> Graph:
    """The complement of g[mask] (default: all of g) in g's vertex ids.

    Row v holds v's non-neighbours inside ``mask`` when v is in ``mask``
    and is 0 otherwise; only the members' rows are computed.
    """
    if mask is None:
        mask = g.full_mask
    rows = [0] * g.n
    for v in bits(mask):
        rows[v] = mask & ~(g.adj[v] | 1 << v)
    return Graph(g.n, tuple(rows))


def induced(g: Graph, s: Iterable[int]) -> Graph:
    """Induced subgraph on s, vertices relabelled 0..|s|-1 in ascending order."""
    vs = sorted(set(s))
    if not vs:
        raise ValueError("induced subgraph needs a nonempty vertex set")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValueError("vertex id out of range")
    index = {v: i for i, v in enumerate(vs)}
    keep = mask_of(vs)
    rows = []
    for v in vs:
        row = 0
        for u in bits(g.adj[v] & keep):
            row |= 1 << index[u]
        rows.append(row)
    return Graph(len(vs), tuple(rows))


def component_masks(adj: Sequence[int], mask: int) -> list[int]:
    """Connected components of the subgraph on ``mask``, as bit masks.

    Ordered by size descending, then by smallest member id ascending."""
    comps = []
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grown = 0
            for v in bits(frontier):
                grown |= adj[v]
            frontier = grown & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    comps.sort(key=by_size)
    return comps


def co_component_masks(adj: Sequence[int], mask: int) -> list[int]:
    """Connected components of the complement of the subgraph on ``mask``,
    as bit masks, in the order of :func:`component_masks`.

    No complement rows are built: the vertices a frontier misses are those
    outside the AND of its rows, and the AND stops once it has emptied
    what is left to reach (on a dense graph, after a few rows)."""
    comps = []
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            todo = rest & ~comp
            common = todo
            for v in bits(frontier):
                common &= adj[v]
                if not common:
                    break
            frontier = todo & ~common
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    comps.sort(key=by_size)
    return comps


def by_size(part: int) -> tuple[int, int]:
    """Sort key for vertex masks: larger first, then smallest member first."""
    return -part.bit_count(), (part & -part).bit_length()


def components(g: Graph) -> list[VertexSet]:
    return [frozenset(bits(m)) for m in component_masks(g.adj, g.full_mask)]


# Named families.

def path_graph(k: int) -> Graph:
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def friendship_graph(t: int) -> Graph:
    """t triangles sharing one hub vertex (vertex 0); n = 2t + 1."""
    if t < 1:
        raise ValueError("need at least one triangle")
    edges = []
    for i in range(t):
        u, v = 2 * i + 1, 2 * i + 2
        edges += [(0, u), (0, v), (u, v)]
    return build_graph(2 * t + 1, edges)
