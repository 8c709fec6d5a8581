"""Finding sparse/dense vertex sets: the stage-1 peel and the degree prune.

A set S is an eps-stable set if it spans at most eps * C(|S|, 2) edges and an
eps-clique if it misses at most that many.  One finder serves stage 1 of
the pipeline: a greedy peel, which keeps the larger of a sparse and a dense
survivor.  The paper asks stage 1 for ceil(delta n) vertices, which is 1 at
every n that fits in memory (``pipeline.stage1_target`` certifies it), so
any survivor will do and a complete subset search would buy nothing.

The peel keeps every vertex degree bit-sliced across O(log n) big-int
planes, so finding and deleting the next vertex costs O(log n) big-int
operations, and the dense peel runs on the graph's own rows rather than on a
complement graph.  The planes are built on the first deletion.  The sparse
peel runs first, and the dense peel stops once it is down to the sparse
survivor count: a tie goes to the sparse set, so past that point the dense
peel could not win.  On a long path or cycle the sparse peel keeps every
vertex, so it deletes nothing and builds no plane, and the dense peel does
not run.  Both peels and the prune count degrees by
:func:`pathcert.graph.inner_degrees`, so on g's full mask they read g's one
degree table rather than count the rows again.

All thresholds are exact rationals, compared as integers (numerator times
the other side's denominator); floats never decide anything here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .graph import Graph, bits, inner_degrees, mask_of
# Unused here since the dense peel stopped building a complement graph, but
# bench/tracing.py binds homogeneous.complement; drop it with that binding.
from .graph import complement  # noqa: F401
from .witnesses import HomogeneousSetWitness


def _degree_planes(mask: int, degrees: Sequence[int]) -> list[int]:
    """``degrees`` of the members of ``mask`` (ascending), bit-sliced: bit v of
    ``planes[b]`` is bit b of member v's degree; one plane per bit of |mask| - 1."""
    planes = [0] * max(1, (mask.bit_count() - 1).bit_length())
    for v, d in zip(bits(mask), degrees):
        for b in range(d.bit_length()):
            if d >> b & 1:
                planes[b] |= 1 << v
    return planes


def _peel(g: Graph, mask: int, epsilon: Fraction, dense: bool,
          _floor: int = 1) -> tuple[int, int]:
    """Greedy peel of the subgraph of g on ``mask``: returns (mask, edges)
    for the survivors.

    Sparse mode deletes a vertex of maximum degree, dense mode one of maximum
    co-degree (that is, minimum degree), ties to the smallest id, until the
    survivors span at most epsilon * C(size, 2) edges (sparse) or miss at
    most that many (dense), or are down to ``_floor`` vertices.  ``edges``
    counts the edges inside the returned mask in both modes.

    Degrees are bit-sliced (:func:`_degree_planes`, built on the first
    deletion).  Narrowing the survivors plane by plane, top down, finds the
    vertex to delete; deleting it subtracts its surviving neighbours with a
    ripple borrow.  Each step is O(log n) big-int operations, and the dense
    mode needs no complement graph.
    """
    adj = g.adj
    size = mask.bit_count()
    degrees = inner_degrees(g, mask)
    edges = sum(degrees) // 2
    planes: list[int] = []  # built on the first deletion
    num, den = epsilon.numerator, epsilon.denominator
    while size > _floor:
        pairs = size * (size - 1) // 2
        slack = pairs - edges if dense else edges
        if slack * den <= num * pairs:
            break
        planes = planes or _degree_planes(mask, degrees)
        cand = mask
        for plane in reversed(planes):
            narrowed = cand & ~plane if dense else cand & plane
            if narrowed:
                cand = narrowed
        w = cand & -cand
        mask ^= w
        borrow = adj[w.bit_length() - 1] & mask
        edges -= borrow.bit_count()
        size -= 1
        for b, plane in enumerate(planes):
            if not borrow:
                break
            planes[b] = plane ^ borrow
            borrow &= ~plane
    return mask, edges


def find_epsilon_homogeneous(g: Graph, epsilon: Fraction, *,
                             mask: int | None = None) -> HomogeneousSetWitness:
    """A sparse or dense set inside ``mask`` (default: all of g), which must
    be nonempty.

    Peels by maximum degree (sparse) and by minimum degree, that is maximum
    co-degree (dense), and keeps the larger survivor, which has at least one
    vertex; O(log n) big-int operations per deleted vertex, no complement
    graph.
    """
    if mask is None:
        mask = g.full_mask
    epsilon = Fraction(epsilon)
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must be in [0, 1]")
    if not mask:
        raise ValueError("mask must be nonempty")
    kind = "stable"
    found, edges = _peel(g, mask, epsilon, dense=False)
    # A tie goes to the sparse set, so the dense peel can only win while it
    # keeps more vertices: it stops at the sparse peel's size, and it does
    # not start when the sparse peel kept every vertex.
    if found != mask:
        dense, dense_edges = _peel(g, mask, epsilon, dense=True,
                                   _floor=found.bit_count())
        if dense.bit_count() > found.bit_count():
            kind, found, edges = "clique", dense, dense_edges
    return HomogeneousSetWitness(kind, frozenset(bits(found)), epsilon, edges)


def prune_high_degree(g: Graph, mask: int, epsilon: Fraction) -> int:
    """One pass: drop the vertices of the set S on ``mask`` whose degree
    inside S strictly exceeds 2 * epsilon * |S| (threshold fixed by the
    ORIGINAL size); returns the survivors' mask.

    When the input is an eps-stable set, an averaging argument shows at most
    half of S is deleted, and every survivor keeps degree at most the
    threshold inside the output.
    """
    if not mask:
        raise ValueError("S must be nonempty")
    epsilon = Fraction(epsilon)
    # degree <= 2 * epsilon * |S|, in integers
    limit = 2 * epsilon.numerator * mask.bit_count() // epsilon.denominator
    degrees = inner_degrees(g, mask)
    if max(degrees) <= limit:
        return mask
    drop = [v for v, d in zip(bits(mask), degrees) if d > limit]
    return mask & ~mask_of(drop)
