"""P4-free machinery: doubling extraction, cotrees, and exact clique/stable sets.

``p4free_extract`` turns any oracle, a plain callable ``oracle(g, mask)``
returning an empty or complete bipartite pair inside the mask, into a
vertex set whose induced subgraph is P4-free: recursing into both sides of
each pair and taking the union keeps every cross pair homogeneous, and an
induced P4 can never straddle a homogeneous cut.  The verifier already
rejects an empty side, so every pair splits its part and sides of 1 are
all the doubling itself needs.

P4-free graphs (cographs) decompose recursively into disjoint unions and
joins whose kinds alternate down the tree: a union's children are
connected and a join's co-connected (Corneil, Lerchs and Stewart
Burlingham, Discrete Applied Math. 1981).  ``cotree`` returns that
decomposition flat, as its pre-order of ``(kind, value)`` entries, and one
backward pass over it folds exact maximum stable sets and cliques; since
cographs are perfect, alpha * omega >= n, so the larger of the two has at
least ceil(sqrt(n)) vertices.

``cotree`` tries a part below the root only as the kind its parent is
not, and splits its isolated or universal vertices off by a lookup in a
table of degrees, so a chain-shaped cotree (a threshold graph's has depth
n - 1) costs O(1) big-int operations per level rather than a component
sweep.  When a part is connected and co-connected, ``find_p4`` returns an
induced P4 in it from O(|part|) big-int operations (Seinsche 1974
guarantees one exists; Corneil, Perl and Stewart, SIAM J. Comput. 1985,
give a linear-time certifying recognizer).  That makes the cotree a cheap
first attempt for ``pipeline.eh_homogeneous``: on a cograph the fold is
the exact answer and no doubling runs.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .graph import Graph, VertexSet, bits, component_masks, inner_degrees, mask_of
# Unused here since the obstruction search runs on vertex masks, but
# bench/tracing.py binds cographs.induced; drop it with that binding.
from .graph import induced  # noqa: F401
from .patterns import path_certificate
from .witnesses import BipartitePairWitness, PatternEmbedding, verify_bipartite_pair


def find_p4(g: Graph, part: int) -> tuple[int, int, int, int]:
    """An induced P4 of the subgraph on ``part``, as its four vertices in
    path order, when that subgraph is connected and co-connected (on at
    least two vertices it then induces a P4, Seinsche 1974).

    With v the smallest vertex of the part, N its neighbours there and M
    its non-neighbours:

    1. if some x in N sees some but not all of a component C of G[M],
       then v-x-y-z is a P4 for an edge y-z of C with y seen by x, z not;
    2. else if some y in M sees some but not all of a component D of the
       complement of G[N], then a-v-b-y is a P4 for a non-edge a-b of D
       with a missed by y, b seen;
    3. else every C and every D is a module, so the graph with one vertex
       per C and per D, plus v, is a split graph that is connected and
       co-connected: two of the C's have incomparable neighbourhoods in
       N, and c-x-x'-c' is a P4 for x seen by c only and x' by c' only.

    The cost is O(|part|) big-int operations plus one sort.  The answer
    need not be the lexicographically first P4.  Raises ValueError when the
    part is not connected and co-connected.
    """
    adj = g.adj
    v = (part & -part).bit_length() - 1
    near = adj[v] & part
    far = part & ~near & ~(1 << v)
    firsts = []  # the smallest vertex of each component of G[M]
    for comp in component_masks(adj, far):
        x = _splitter(adj, comp, near)
        if x is not None:
            row = adj[x]
            for y in bits(comp & row):
                z = adj[y] & comp & ~row
                if z:
                    return v, x, y, (z & -z).bit_length() - 1
        firsts.append((comp & -comp).bit_length() - 1)
    for comp in component_masks(adj, near, co=True):
        y = _splitter(adj, comp, far)
        if y is not None:
            row = adj[y]
            for a in bits(comp & ~row):
                b = comp & row & ~adj[a]
                if b:
                    return a, v, (b & -b).bit_length() - 1, y
    seen = sorted(((adj[c] & near, c) for c in firsts), key=lambda rc: rc[0].bit_count())
    for (row, c), (row2, c2) in zip(seen, seen[1:]):
        only = row & ~row2
        if only:
            only2 = row2 & ~row
            return (c, (only & -only).bit_length() - 1,
                    (only2 & -only2).bit_length() - 1, c2)
    raise ValueError("the part is not connected and co-connected")


def _splitter(adj: Sequence[int], comp: int, side: int) -> int | None:
    """A vertex of ``side`` that sees some but not all of ``comp``, or None:
    the smallest one shown by the shortest ascending prefix of ``comp``."""
    some, every = 0, -1
    for c in bits(comp):
        row = adj[c]
        some |= row
        every &= row
        split = side & some & ~every
        if split:
            return (split & -split).bit_length() - 1
    return None


def cotree(g: Graph, mask: int | None = None):
    """The cotree of the subgraph on ``mask`` (default: all of g) in
    pre-order, or a PatternEmbedding of an induced P4, both in g's vertex
    ids.

    The cotree is a tuple of ``(kind, value)`` pairs: ``("leaf", v)`` for a
    vertex, ``("union", count)`` for a node whose children are the
    components of its vertex set, ``("join", count)`` for one whose children
    are the complement's.  A node's entry is followed by its children's
    subtrees, left to right: larger parts first, then the one holding the
    smallest vertex.  Raises ValueError on an empty mask.

    A graph is a cograph iff every induced subgraph on >= 2 vertices is
    disconnected or has a disconnected complement, so whenever a part is
    neither a union nor a join an induced P4 must exist; the first such
    part in pre-order (it may be nested) gives the obstruction, found by
    :func:`find_p4`.  The parts are walked with an explicit stack, so a
    deep cotree (a threshold graph has depth n - 1) needs no recursion.

    The kinds alternate, so a part below the root is tried only as the kind
    its parent is not; the root is tried as a union, then as a join.  The
    vertices are grouped by their degree inside ``mask`` once per call, and
    a part carries the offset that turns those degrees into degrees inside
    the part.  One lookup there gives a union's isolated vertices or a
    join's universal ones, which split off as leaves.  The rest is one
    child when one of its vertices sees all of it (union: it is connected)
    or none of it (join: co-connected), is otherwise swept once for
    components or co-components, and is not swept when empty.  A part that
    no try splits holds the P4.  So a part below the root is swept at most
    once and a chain-shaped cotree costs O(1) big-int operations per level.
    No sort is needed: a child of the rest has two or more vertices (else
    it would be isolated or universal), the sweeps list those larger first,
    and the leaves, ascending, go last.
    """
    if mask is None:
        mask = g.full_mask
    if not mask:
        raise ValueError("mask must be nonempty")
    adj = g.adj
    # A vertex's degree inside a part is its degree inside ``mask`` less the
    # part's offset: a union keeps the offset, a join adds the size of the
    # siblings, which every member of the child sees.
    by_degree: dict[int, int] = {}
    for v, d in zip(bits(mask), inner_degrees(g, mask)):
        by_degree[d] = by_degree.get(d, 0) | 1 << v

    # Pre-order over the parts, children left to right, so the first connected
    # and co-connected part found is the one a depth-first recursion meets first.
    order: list[tuple[str, int]] = []  # (kind, vertex for a leaf / child count)
    stack = [(mask, 0, ("union", "join"))]
    while stack:
        part, offset, kinds = stack.pop()
        if part & (part - 1) == 0:
            order.append(("leaf", part.bit_length() - 1))
            continue
        size = part.bit_count()
        for kind in kinds:
            union = kind == "union"
            single = by_degree.get(offset if union else offset + size - 1, 0) & part
            rest = part ^ single
            keeper = offset + (rest.bit_count() - 1 if union else single.bit_count())
            if not rest:
                parts = []
            elif by_degree.get(keeper, 0) & rest:
                parts = [rest]
            else:
                parts = component_masks(adj, rest, co=not union)
            if single or len(parts) > 1:
                parts += [1 << u for u in bits(single)]
                break
        else:
            return path_certificate(4, find_p4(g, part))
        order.append((kind, len(parts)))
        if union:
            stack.extend((child, offset, ("join",)) for child in reversed(parts))
        else:
            stack.extend((child, offset + size - child.bit_count(), ("union",))
                         for child in reversed(parts))
    return tuple(order)


def _larger(a: int, b: int) -> int:
    """The larger of two vertex masks; between equal sizes the one holding
    the smallest vertex of a ^ b, i.e. the lexicographically smaller
    vertex list."""
    size_a, size_b = a.bit_count(), b.bit_count()
    if size_a != size_b:
        return a if size_a > size_b else b
    diff = a ^ b
    return a if a & diff & -diff else b


def cograph_alpha_omega(g: Graph, mask: int | None = None):
    """(maximum stable set, maximum clique) of the subgraph on ``mask``
    (default: all of g) when it is a cograph, else the P4 obstruction as a
    PatternEmbedding.

    Both sets are exact maxima; ties are broken toward the lexicographically
    smallest vertex list.  Returned sets use g's vertex ids.  The fold is
    one pass over the cotree's pre-order, backwards, on vertex masks (a
    union of sets is one OR), so a chain-shaped cotree folds in O(n) big-int
    operations.  Raises ValueError on an empty mask.
    """
    order = cotree(g, mask)
    if isinstance(order, PatternEmbedding):
        return order

    # Backwards, every subtree is folded before its parent's entry comes
    # up, with its (stable, clique) masks on ``done``: a node's children
    # are the top ``value`` entries, the leftmost on top.  ``_larger`` is a
    # total order, so the order they are folded in does not matter.
    done: list[tuple[int, int]] = []
    for kind, value in reversed(order):
        if kind == "leaf":
            single = 1 << value
            done.append((single, single))
            continue
        stable, clique = done.pop()
        for _ in range(value - 1):
            s, c = done.pop()
            if kind == "union":
                stable, clique = stable | s, _larger(clique, c)
            else:
                stable, clique = _larger(stable, s), clique | c
        done.append((stable, clique))
    stable, clique = done[0]
    return frozenset(bits(stable)), frozenset(bits(clique))


class OracleError(RuntimeError):
    """The bipartite oracle returned something unusable; the offending
    witness (if any) is attached."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def p4free_extract(g: Graph,
                   oracle: Callable[[Graph, int], BipartitePairWitness]) -> VertexSet:
    """A vertex set S with G[S] P4-free, grown by recursing into both sides
    of oracle pairs and taking the union.

    With an oracle whose pairs have both sides at least c times the size of
    the part it is handed, all the way down, |S| is at least n^c' / 2 for
    c' = log 2 / log(1/c).  Every oracle answer is re-verified against g; a
    bad one raises OracleError with the witness attached, a pair unless the
    answer was not one.  The oracle is called as ``oracle(g, mask)`` on
    every part of two or more vertices; a single vertex is kept.
    """
    # Depth-first with an explicit stack, X before Y: the oracle sees the
    # parts in the order a recursion would hand them over, so the same set
    # comes out and the same first OracleError is raised, at any depth.
    kept = 0
    stack = [g.full_mask]
    while stack:
        mask = stack.pop()
        if mask.bit_count() == 1:
            kept |= mask
            continue
        w = oracle(g, mask)
        if not isinstance(w, BipartitePairWitness):
            raise OracleError(f"oracle returned {type(w).__name__}", witness=w)
        verdict = verify_bipartite_pair(g, w)
        if not verdict:
            raise OracleError(f"oracle witness rejected: {verdict.reason}", witness=w)
        if mask_of(w.X | w.Y) & ~mask:
            raise OracleError("oracle witness leaves the current subgraph", witness=w)
        stack += (mask_of(w.Y), mask_of(w.X))
    return frozenset(bits(kept))
