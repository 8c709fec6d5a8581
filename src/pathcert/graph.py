"""Immutable simple graphs over bit-mask adjacency rows.

Vertices are the ints 0..n-1.  Row ``adj[v]`` is an int whose bit ``u`` is
set iff ``uv`` is an edge; the diagonal is always zero and rows are
symmetric.  Set intersections, neighborhoods and component sweeps are all
single big-int operations, which is what the search-heavy callers need at
the scales this package targets (n up to a few thousand).  Per-vertex counts
can be kept bit-sliced the same way (one int per bit of the count), as the
greedy peel in :mod:`pathcert.homogeneous` does for degrees.

:func:`component_masks` is the one unseeded component sweep, of g[mask]
or, with ``co``, of its complement, which the cotree's unions and joins
need in turn.  A plain frontier step is the union of the frontier's rows
(:func:`neighbours`), row lookups alone for one or two vertices; a
complement step is what no sweep has reached outside the AND of the
frontier's rows, so no complement rows are built.

An induced subgraph is a vertex bit mask over the same rows: the producers
take ``(g, mask)`` and report vertex sets in g's own ids, so nothing is
relabelled or translated back.  :func:`complement` restricted to a mask
fills rows for the mask's members only, and :func:`induced` builds a
relabelled copy for callers that need a standalone graph.

Each graph counts its rows once: :attr:`Graph.degrees`, built on first read
and kept, is every row's bit count.  It is the producers' one degree table:
:func:`inner_degrees` returns it on the full mask, so the stage-1 peels, the
prune, the walk's degree check and the cotree share one count of g's rows,
and the CLI's default ``--D`` reads it too.  It is a tuple, so no caller can
change it, and it is no field: ``==`` and ``hash`` read ``n`` and ``adj``
alone.  A complement or induced graph is a new graph with its own table.

:func:`build_graph` builds rows from an edge list in one loop that checks
each edge and ORs it into both endpoints' rows.  It is the sparse builder:
a dense edge-list text (more than n * n / 16 edges, n <= 4096, at least
4 characters per edge) is built by :func:`pathcert.formats.parse_edge_list`
itself, which ORs each edge into its first endpoint's row only, a whole run
of a row's lines at a time, and adds the other side by :func:`symmetrised`,
a transpose of the directed rows as an n x n digit matrix read column by
column in strided slices.  The seeded G(n, p) of :mod:`pathcert.generators`
draws the upper rows directly and symmetrises them the same way; these two
are the transpose's only callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from operator import lshift, or_
from typing import Iterable, Iterator, Sequence

VertexSet = frozenset[int]


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, ascending.  When at least one digit in
    16 is set (the break-even at n = 400 on a 2-core x86 host) this is one
    C-level scan of the binary digits, else one low-bit step per member."""
    if mask.bit_count() * 16 < mask.bit_length():
        return _low_bits(mask)
    return compress(count(), member_selectors(mask))


def _low_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_SELECTORS = bytes.maketrans(b"01", b"\0\1")  # '0'/'1' -> the bytes 0/1


def member_selectors(mask: int) -> bytes:
    """Byte v is 1 iff v is in ``mask``, v < mask.bit_length(): selectors for compress."""
    return bin(mask)[:1:-1].encode().translate(_SELECTORS)


def inner_degrees(g: Graph, mask: int) -> Sequence[int]:
    """Degrees inside ``mask`` of its members, in ascending vertex order.
    On g's full mask this is g's own table, :attr:`Graph.degrees`, counted
    once per graph; any other mask is counted member by member."""
    if mask == g.full_mask:
        return g.degrees
    adj = g.adj
    return [(adj[v] & mask).bit_count() for v in bits(mask)]


def neighbours(adj: Sequence[int], mask: int) -> int:
    """The union of the rows of the vertices in ``mask``.  A mask of at most
    two members costs its row lookups alone (a cycle's sweep frontier holds
    two); a larger one is listed by :func:`bits` and ORed row by row."""
    rest = mask & (mask - 1)  # mask without its lowest member
    if not rest:
        return adj[mask.bit_length() - 1] if mask else 0
    if rest & (rest - 1) == 0:
        return adj[(mask ^ rest).bit_length() - 1] | adj[rest.bit_length() - 1]
    grown = 0
    for v in bits(mask):
        grown |= adj[v]
    return grown


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Each row's bit count, vertex by vertex; built on first read."""
        return tuple(map(int.bit_count, self.adj))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Simple undirected graph on n >= 1 vertices.

    Self-loops are rejected, duplicate edges collapse, endpoints must be
    valid vertex ids; ``edges`` is consumed once, in order, and the first
    bad edge raises.  Each edge is checked and ORed into both endpoints'
    rows.  Dense edge lists do not come here: see the module docstring.
    """
    if n < 1:
        raise ValueError("graphs have at least one vertex")
    rows = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise _edge_error(u, v, n)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# symmetrised reads at most this many digits of the row matrix at a time.
_TRANSPOSE_BYTES = 1 << 22


def symmetrised(rows: Sequence[int]) -> tuple[int, ...]:
    """Row u ORed with column u: row u of the symmetric closure of the
    directed rows ``rows`` (bit v of row u an arc u -> v).

    The rows are read as an n x n digit matrix in blocks of at most
    _TRANSPOSE_BYTES digits (one block up to n = 2048): in a block of rows
    lo.., row u is n digits, most significant first, so bit v of row u is
    ``matrix[(u - lo) * n + n - 1 - v]``.  Column v read last row first is
    bit v of every row in the block, and as a base-2 numeral shifted by lo
    it is the block's rows that hold v.
    """
    n = len(rows)
    out = list(rows)
    digits = f"0{n}b"
    height = max(1, _TRANSPOSE_BYTES // n)
    for lo in range(0, n, height):
        block = rows[lo:lo + height]
        width = len(block) * n
        matrix = bytearray(width)
        for i, row in enumerate(block):
            matrix[i * n:i * n + n] = format(row, digits).encode()
        columns = map(int, (matrix[width - 1 - v::-n] for v in range(n)), repeat(2))
        out = list(map(or_, out, map(lshift, columns, repeat(lo))))
    return tuple(out)


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
    return Graph(len(vs), tuple(mask_of(index[u] for u in bits(g.adj[v] & keep)) for v in vs))


def component_masks(adj: Sequence[int], mask: int, *, co: bool = False) -> list[int]:
    """Connected components of the subgraph on ``mask``, or with ``co`` of
    its complement, as bit masks.

    Ordered by size descending, then by smallest member id ascending.  No
    complement rows are built: with ``co`` a frontier reaches the vertices
    outside the AND of its rows, else the union of its rows."""
    # rest is what no sweep has reached: a round takes its frontier out of
    # rest, so a component is what rest lost while its sweep ran.
    comps = []
    rest = mask
    while rest:
        before = rest
        frontier = rest & -rest
        rest ^= frontier
        while frontier:
            if co:
                common = rest
                for v in bits(frontier):
                    common &= adj[v]
                frontier = rest ^ common
            else:
                frontier = rest & (adj[frontier.bit_length() - 1] if frontier & (frontier - 1) == 0
                                   else neighbours(adj, frontier))
            rest ^= frontier
        comps.append(before ^ rest)
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
    if n < 1:
        raise ValueError("graphs have at least one vertex")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    left, right = (1 << a) - 1, ((1 << b) - 1) << a
    return Graph(a + b, (right,) * a + (left,) * b)


def friendship_graph(t: int) -> Graph:
    """t triangles sharing one hub vertex (vertex 0); n = 2t + 1."""
    if t < 1:
        raise ValueError("need at least one triangle")
    edges = []
    for i in range(t):
        u, v = 2 * i + 1, 2 * i + 2
        edges += [(0, u), (0, v), (u, v)]
    return build_graph(2 * t + 1, edges)
