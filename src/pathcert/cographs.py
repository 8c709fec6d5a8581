"""P4-free machinery: doubling extraction, cotrees, and exact clique/stable sets.

``p4free_extract`` turns any oracle producing empty-or-complete bipartite
pairs into a vertex set whose induced subgraph is P4-free: recursing into
both sides of each pair and taking the union keeps every cross pair
homogeneous, and an induced P4 can never straddle a homogeneous cut.

P4-free graphs (cographs) decompose recursively into disjoint unions and
joins; that cotree yields exact maximum stable sets and cliques by a linear
fold, and since cographs are perfect, alpha * omega >= n, so the larger of
the two has at least ceil(sqrt(n)) vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .graph import Graph, VertexSet, bits, complement, component_masks, induced, mask_of
from .patterns import find_induced_path
from .witnesses import BipartitePairWitness, PatternEmbedding, verify_bipartite_pair


@dataclass(frozen=True)
class CographDecomposition:
    """Cotree node: a leaf holds one vertex; a union node's children are the
    connected components; a join node's children are the complement's."""

    kind: str  # "leaf" | "union" | "join"
    children: tuple["CographDecomposition", ...] = ()
    vertex: int | None = None

    def leaves(self) -> list[int]:
        """The leaf vertices, left to right."""
        out: list[int] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.kind == "leaf":
                out.append(node.vertex)  # type: ignore[arg-type]
            else:
                stack.extend(reversed(node.children))
        return out


def cotree(g: Graph, mask: int | None = None):
    """CographDecomposition of the subgraph on ``mask`` (default: all of g),
    or a PatternEmbedding of an induced P4, both in g's vertex ids.

    A graph is a cograph iff every induced subgraph on >= 2 vertices is
    disconnected or has a disconnected complement, so whenever a part has
    neither split an induced P4 must exist; the first such part in pre-order
    (it may be nested) gives the obstruction.  The parts are walked with an
    explicit stack, so a deep cotree (a threshold graph has depth n - 1)
    needs no recursion.
    """
    if mask is None:
        mask = g.full_mask
    adj = g.adj
    co_adj = complement(g, mask).adj

    # Pre-order over the parts, children left to right, so the first
    # connected and co-connected part found is the one a depth-first
    # recursion would meet first; then the nodes are assembled bottom-up.
    order: list[tuple[str, int]] = []  # (kind, vertex for a leaf / child count)
    stack = [mask]
    while stack:
        part = stack.pop()
        if part & (part - 1) == 0:
            order.append(("leaf", part.bit_length() - 1))
            continue
        kind, parts = "union", component_masks(adj, part)
        if len(parts) == 1:
            kind, parts = "join", component_masks(co_adj, part)
        if len(parts) == 1:
            members = list(bits(part))
            res = find_induced_path(induced(g, members), 4)
            assert res.found, "a connected, co-connected graph on >= 2 vertices induces a P4"
            emb = res.embedding
            return PatternEmbedding(emb.pattern_name, emb.pattern,
                                    tuple(members[v] for v in emb.mapping))
        order.append((kind, len(parts)))
        stack.extend(reversed(parts))
    built: list[CographDecomposition] = []  # finished subtrees, the leftmost on top
    for kind, value in reversed(order):
        if kind == "leaf":
            built.append(CographDecomposition("leaf", vertex=value))
        else:
            children = tuple(built[:-value - 1:-1])
            del built[-value:]
            built.append(CographDecomposition(kind, children))
    return built[0]


def _set_key(vs: frozenset) -> tuple:
    return (-len(vs), tuple(sorted(vs)))


def cograph_alpha_omega(g: Graph, mask: int | None = None):
    """(maximum stable set, maximum clique) of the subgraph on ``mask``
    (default: all of g) when it is a cograph, else the P4 obstruction as a
    PatternEmbedding.

    Both sets are exact maxima; ties are broken toward the lexicographically
    smallest vertex list.  Returned sets use g's vertex ids.
    """
    tree = cotree(g, mask)
    if isinstance(tree, PatternEmbedding):
        return tree

    # Post-order: a node's (stable, clique) pair is made once every child's
    # pair is on ``done``, the leftmost child's on top.
    done: list[tuple[frozenset, frozenset]] = []
    stack: list[tuple[CographDecomposition, bool]] = [(tree, False)]
    while stack:
        node, ready = stack.pop()
        if node.kind == "leaf":
            single = frozenset([node.vertex])
            done.append((single, single))
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        parts = done[:-len(node.children) - 1:-1]
        del done[-len(node.children):]
        if node.kind == "union":
            stable = frozenset().union(*(p[0] for p in parts))
            clique = min((p[1] for p in parts), key=_set_key)
        else:
            stable = min((p[0] for p in parts), key=_set_key)
            clique = frozenset().union(*(p[1] for p in parts))
        done.append((stable, clique))
    return done[0]


class OracleError(RuntimeError):
    """The bipartite oracle returned something unusable; the offending
    witness (if any) is attached."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class BipartiteOracle:
    """Produces, for the subgraph of g on the vertex mask it is handed, an
    empty or complete bipartite pair with both sides >= ceil(c * n), where n
    is the mask's size, in g's vertex ids.

    ``cutoff`` is the smallest subgraph the extraction recursion still hands
    to the oracle; below it a single vertex is taken.  By default it is
    max(2, ceil(1/c)), the point where the side guarantee ceil(c * n) stops
    being meaningful; callers may lower it to 2 to keep recursing on sides
    smaller than 1/c.
    """

    c: Fraction
    fn: Callable[[Graph, int], BipartitePairWitness]
    cutoff: int | None = None

    def __post_init__(self):
        self.c = Fraction(self.c)
        if not 0 < self.c < 1:
            raise ValueError("c must be in (0, 1)")

    @property
    def effective_cutoff(self) -> int:
        if self.cutoff is not None:
            return max(2, self.cutoff)
        return max(2, math.ceil(1 / self.c))

    def required_side(self, n: int) -> int:
        return max(1, math.ceil(self.c * n))


EXACT_ORACLE_MAX_N = 32


def _find_pair_masks(g: Graph, side: int, kind: str,
                     mask: int | None = None) -> tuple[int, int] | None:
    """First (X, Y) inside ``mask`` (default: all of g) with |X| = |Y| = side
    and the cross relation all-edges (complete) or no-edges (empty); complete
    backtracking over vertex assignments in id order, so absence of a result
    is a proof."""
    if mask is None:
        mask = g.full_mask
    if 2 * side > mask.bit_count():
        return None
    compat = complement(g, mask).adj if kind == "empty" else g.adj

    def dfs(x: int, y: int, avail_x: int, avail_y: int):
        nx, ny = x.bit_count(), y.bit_count()
        if nx == side and ny == side:
            return x, y
        if nx + (avail_x.bit_count() if nx < side else 0) < side:
            return None
        if ny + (avail_y.bit_count() if ny < side else 0) < side:
            return None
        pool = avail_x | avail_y
        if not pool:
            return None
        v = (pool & -pool).bit_length() - 1
        vb = 1 << v
        if nx < side and avail_x & vb:
            hit = dfs(x | vb, y, avail_x & ~vb, avail_y & compat[v] & ~vb)
            if hit:
                return hit
        if ny < side and avail_y & vb and x:  # first vertex always goes to X
            hit = dfs(x, y | vb, avail_x & compat[v] & ~vb, avail_y & ~vb)
            if hit:
                return hit
        return dfs(x, y, avail_x & ~vb, avail_y & ~vb)

    return dfs(0, 0, mask, mask)


def exact_bipartite_oracle(c: Fraction, cutoff: int | None = None) -> BipartiteOracle:
    """Complete desk-scale oracle (n <= 32): exhaustive search for an empty,
    then a complete, pair with sides exactly ceil(c * n)."""
    c = Fraction(c)

    def fn(g: Graph, mask: int | None = None) -> BipartitePairWitness:
        if mask is None:
            mask = g.full_mask
        n = mask.bit_count()
        if n > EXACT_ORACLE_MAX_N:
            raise ValueError(f"exact oracle limited to n <= {EXACT_ORACLE_MAX_N}, got {n}")
        side = max(1, math.ceil(c * n))
        for kind in ("empty", "complete"):
            hit = _find_pair_masks(g, side, kind, mask)
            if hit:
                xs, ys = hit
                return BipartitePairWitness(kind, frozenset(bits(xs)), frozenset(bits(ys)))
        raise OracleError(f"no empty or complete pair with sides {side} exists (n={n})")

    return BipartiteOracle(c, fn, cutoff)


def p4free_extract(g: Graph, oracle: BipartiteOracle) -> VertexSet:
    """A vertex set S with G[S] P4-free, grown by recursing into both sides
    of oracle pairs and taking the union.

    With an oracle honoring its side guarantee all the way down, |S| is at
    least n^c' / 2 for c' = log 2 / log(1/c).  Every oracle answer is
    re-verified against g; a bad one raises OracleError with the witness
    attached.  The oracle is called as ``oracle.fn(g, mask)`` on the members
    of the current part.
    """
    cutoff = oracle.effective_cutoff

    def recurse(mask: int) -> frozenset:
        size = mask.bit_count()
        if size < cutoff:
            return frozenset([(mask & -mask).bit_length() - 1])
        w = oracle.fn(g, mask)
        if not isinstance(w, BipartitePairWitness):
            raise OracleError(f"oracle returned {type(w).__name__}", witness=w)
        verdict = verify_bipartite_pair(g, w)
        if not verdict:
            raise OracleError(f"oracle witness rejected: {verdict.reason}", witness=w)
        if mask_of(w.X | w.Y) & ~mask:
            raise OracleError("oracle witness leaves the current subgraph", witness=w)
        need = oracle.required_side(size)
        if min(len(w.X), len(w.Y)) < need:
            raise OracleError(
                f"oracle sides {len(w.X)},{len(w.Y)} below the promised {need}", witness=w)
        return recurse(mask_of(w.X)) | recurse(mask_of(w.Y))

    return recurse(g.full_mask)
