"""Total dichotomy: a guaranteed-length induced path or an empty bipartite pair.

Given a connected graph whose every closed neighborhood has at most D
vertices, and an absolute side target T, ``path_or_empty_bipartite`` returns
either an induced path starting at the requested vertex with at least
ceil(n / (2 (T + D))) vertices, or two disjoint vertex sets of size >= T each
with no edges between them.  The construction grows the path into the
largest component that survives deleting the start's closed neighborhood;
when that component is not large enough to continue into, the leftover
components themselves form the empty pair.  The walk is a loop over
(vertex mask, start) in the input graph's own ids, so its depth is not
bounded by the interpreter's recursion limit.  Given k, it stops once its
path holds k vertices: every prefix of an induced path is induced.

Level 1 is the entry sweep: the walk's one ``component_masks`` call sweeps
what lies beyond the start's closed neighbourhood, and that is both the
connectivity check and the first level's parts.  A part of the start's
component holds a seed, a neighbour of one of the start's neighbours, so a
part without one is a whole component of the input.  The seeded search
serves levels 2 and on, after the search of Even and Shiloach ("An on-line
edge-deletion problem", J. ACM 1981): one breadth-first search per seed
advances a layer per round, a search that meets one before it in the round
is dropped, and the level stops as soon as at most one search is still
open: that one is whatever the closed ones leave.  Such a level takes as
many rounds as the parts other than the largest need to close, and the
largest part is not swept to its end.  A full sweep per level would make a
walk of L levels cost L sweeps of the graph.

Thresholds are absolute counts, so they pass through every level
unchanged; with T = ceil(c n) and D = ceil(eps n) the path guarantee
specializes to 1 / (2 (eps + c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, bits, by_size, component_masks, inner_degrees, neighbours
from .witnesses import BipartitePairWitness, InducedPathWitness


@dataclass(frozen=True)
class ExtractorParams:
    T: int  # required size of each side of an empty pair
    D: int  # bound on every closed degree of the input graph

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be at least 1")
        if self.D < 1:
            raise ValueError("D must be at least 1")


class DisconnectedError(ValueError):
    """The walk's vertex set is not connected; ``parts`` is its
    ``component_masks``, read off the entry sweep (level 1's parts) that
    found it out: the start's component and the parts without a seed."""

    def __init__(self, parts: list[int]):
        super().__init__("input graph is disconnected")
        self.parts = parts


def path_guarantee(n: int, params: ExtractorParams) -> int:
    """Minimum number of path vertices promised for an n-vertex input."""
    denom = 2 * (params.T + params.D)
    return -(-n // denom)


def split_small_components(comps: Sequence[int], target: int) -> tuple[int, int]:
    """Greedily pack whole components (bit masks), in the given order, into
    side A until |A| >= target; the rest is side B.  Returns (A, B) as masks.

    Raises when the packing cannot give both sides >= target (e.g. the total
    is below 3 * target, or one component dominates).  Under the intended
    contract - every component at most target, total at least 3 * target -
    the result additionally satisfies |A| < 2 * target.
    """
    if target < 1:
        raise ValueError("target must be at least 1")
    a = 0
    cut = 0
    for comp in comps:
        if a.bit_count() >= target:
            break
        a |= comp
        cut += 1
    b = sum(comps[cut:])  # disjoint masks: the sum is the union
    if a.bit_count() < target or b.bit_count() < target:
        raise ValueError(f"cannot split component sizes {[c.bit_count() for c in comps]}"
                         f" into two sides of {target}")
    return a, b


def _components_from_seeds(adj, u: int, seeds: int) -> list[int]:
    """``component_masks(adj, u)`` (same masks, same order) when every
    component of the subgraph on ``u`` contains a vertex of ``seeds``.

    One breadth-first search per seed advances a layer per round.  A search
    whose frontier runs dry holds a whole component, and once at most one
    search is open, the rest of ``u`` is a single component and is never
    swept.  A search whose reach meets what an earlier search of the same
    round reached is dropped:

    - a reach stays inside its search's component, so the two share one;
    - the first search of each component in a round is never dropped, so
      every component that is not closed keeps an open search;
    - hence, once at most one search is open, ``left`` is one component.
    """
    searches = [(1 << v, 1 << v) for v in bits(seeds)]  # (seen, frontier)
    parts = []
    left = u  # what the closed parts leave
    while len(searches) > 1:
        kept, touched = [], 0
        for seen, frontier in searches:
            reach = seen | neighbours(adj, frontier) & u
            if not reach & touched:  # else a search met earlier holds its component
                if reach == seen:
                    parts.append(seen)
                    left ^= seen
                else:
                    kept.append((reach, reach ^ seen))
            touched |= reach
        searches = kept
    if left:
        parts.append(left)
    parts.sort(key=by_size)
    return parts


def path_or_empty_bipartite(g: Graph, x: int, params: ExtractorParams,
                            trace: list | None = None, mask: int | None = None, *,
                            k: int | None = None):
    """Either an induced path starting at x with >= ceil(n / (2(T+D)))
    vertices, or an empty bipartite pair with both sides >= T, in the
    subgraph on ``mask`` (default: all of g; n is its size).

    Given ``k`` (at least 1), the walk stops at the top of the first level
    whose path, start included, holds k vertices, records a ``"stop"``
    level and returns those k.  Each prefix of the walk's induced path is
    induced, so the answer is a path of >= min(k, ceil(n / (2(T+D))))
    vertices or the pair the full walk would give.

    Preconditions: the subgraph is connected, x is in it, and every closed
    degree inside it is <= D; a breach raises ValueError, and a disconnected
    subgraph raises its subclass DisconnectedError, whose ``parts`` are the
    subgraph's ``component_masks``.  The witness uses g's vertex ids.
    ``trace``, if given, collects one dict per level; a grow level's ``via``
    is the next start, in g's ids.
    """
    if mask is None:
        mask = g.full_mask
    if k is not None and k < 1:
        raise ValueError("k must be at least 1")
    if not (0 <= x < g.n and mask >> x & 1):
        raise ValueError(f"start vertex {x} is not in the vertex set")
    adj = g.adj
    degrees = inner_degrees(g, mask)
    if max(degrees) >= params.D:  # name the first vertex above D
        v, d = next((v, d) for v, d in zip(bits(mask), degrees) if d >= params.D)
        raise ValueError(f"closed degree of vertex {v} is {d + 1}, above the bound D={params.D}")
    # Level 1's parts are the entry check's one sweep, of the mask beyond the
    # start's closed neighbourhood.  Every part that touches the start's
    # component holds a seed, so a seedless part is a whole component.
    nb = adj[x] & mask
    u = mask ^ nb ^ 1 << x
    comps = component_masks(adj, u)
    seeds = neighbours(adj, nb) & u
    cut_off = [part for part in comps if not part & seeds]
    if cut_off:
        raise DisconnectedError(sorted([mask ^ sum(cut_off), *cut_off], key=by_size))

    T, D = params.T, params.D
    levels = [] if trace is None else trace

    # Each grow level moves the start one step along the path and shrinks the
    # mask to the start plus the largest component beyond it; any other case
    # ends the walk.
    path: list[int] = []
    start = x
    while True:
        m = mask.bit_count()
        if k is not None and len(path) + 1 == k:
            levels.append({"n": m, "case": "stop"})
            return InducedPathWitness(tuple(path + [start]))
        nb = adj[start] & mask
        if 3 * T + D >= m:
            levels.append({"n": m, "case": "base"})
            if m == 1:
                return InducedPathWitness(tuple(path + [start]))
            assert nb, "connected subgraph of size >= 2 must give the start a neighbor"
            return InducedPathWitness(tuple(path + [start, (nb & -nb).bit_length() - 1]))
        if comps is None:  # a level after the first: the seeded search
            u = mask ^ nb ^ 1 << start
            comps = _components_from_seeds(adj, u, neighbours(adj, nb) & u)
        c1 = comps[0]
        c1_size = c1.bit_count()
        if c1_size >= m - D - T:
            # Some neighbour of the start reaches c1, since the mask is connected.
            y = next(v for v in bits(nb) if adj[v] & c1)
            levels.append({"n": m, "case": "grow", "c1": c1_size, "via": y})
            path.append(start)
            start, mask, comps = y, c1 | 1 << y, None
            continue
        # The parts partition u.  |c1| >= T stops the packing after c1, and
        # then |u - c1| > T, since |u| >= m - D and |c1| < m - D - T.
        a, b = split_small_components(comps, T)
        levels.append({"n": m, "case": "middle-split" if c1_size >= T else "small-split",
                       "c1": c1_size})
        return BipartitePairWitness("empty", frozenset(bits(a)), frozenset(bits(b)))
