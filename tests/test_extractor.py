from fractions import Fraction

import pytest

from pathcert.extractor import (DisconnectedError, ExtractorParams, _components_from_seeds,
                                path_guarantee, path_or_empty_bipartite, split_small_components)
from pathcert.graph import (bits, build_graph, component_masks, cycle_graph, empty_graph,
                            friendship_graph, mask_of, path_graph)
from pathcert.rng import stream
from pathcert.witnesses import (BipartitePairWitness, InducedPathWitness, verify)

from conftest import (caterpillar_graph, closed_degree, masked_corpus, reference_component_masks,
                      seeded_connected_graph, small_graphs, sweep_walk)


def spider():
    # x = 0 with two legs of length 2 hanging off its neighbors
    return build_graph(7, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 5), (5, 6)])


def bridged_triangles():
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def test_single_vertex_path():
    w = path_or_empty_bipartite(empty_graph(1), 0, ExtractorParams(1, 1))
    assert w == InducedPathWitness((0,))
    assert path_guarantee(1, ExtractorParams(1, 1)) == 1


def test_base_case_two_vertex_path():
    # 3T + D = 7 >= n = 6: the start and its smallest neighbor
    g = bridged_triangles()
    w = path_or_empty_bipartite(g, 0, ExtractorParams(1, 4))
    assert w == InducedPathWitness((0, 1))
    assert len(w) >= path_guarantee(6, ExtractorParams(1, 4))


def test_degree_precondition_names_offender():
    with pytest.raises(ValueError, match="vertex 2"):
        path_or_empty_bipartite(bridged_triangles(), 0, ExtractorParams(1, 3))
    with pytest.raises(ValueError, match="vertex 0"):
        path_or_empty_bipartite(friendship_graph(3), 1, ExtractorParams(1, 3))


def test_disconnected_rejected():
    # The error is still a ValueError with the same message, and carries the
    # components that the entry check swept, for the pipeline's stage 3.
    g = build_graph(5, [(0, 1), (2, 3), (3, 4)])
    mask = 0b11011
    with pytest.raises(DisconnectedError) as err:
        path_or_empty_bipartite(g, 0, ExtractorParams(1, 3), mask=mask)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == "input graph is disconnected"
    assert err.value.parts == component_masks(g.adj, mask) == [0b00011, 0b11000]


def test_entry_sweep_finds_every_disconnected_mask_and_its_components():
    # The entry check sweeps only what lies beyond the start's closed
    # neighbourhood; on every mask of every graph on at most 5 vertices,
    # from every start in it, it still raises exactly on the disconnected
    # masks, with all of the mask's components in the sweep's order.  With
    # D = n + 1 the degree check never fires.
    for g in small_graphs(5):
        params = ExtractorParams(1, g.n + 1)
        for mask in range(1, 1 << g.n):
            comps = reference_component_masks(g.adj, mask)
            for x in bits(mask):
                try:
                    path_or_empty_bipartite(g, x, params, mask=mask)
                except DisconnectedError as err:
                    assert err.parts == comps, (g.adj, mask, x)
                else:
                    assert len(comps) == 1, (g.adj, mask, x)


def test_middle_case_spider_pair():
    trace: list = []
    w = path_or_empty_bipartite(spider(), 0, ExtractorParams(1, 3), trace=trace)
    assert w == BipartitePairWitness("empty", frozenset({3, 4}), frozenset({5, 6}))
    assert trace[0]["case"] == "middle-split"


def test_grow_case_path_graph():
    trace: list = []
    w = path_or_empty_bipartite(path_graph(7), 0, ExtractorParams(1, 3), trace=trace)
    assert w == InducedPathWitness((0, 1, 2))
    assert [t["case"] for t in trace] == ["grow", "base"]
    assert len(w) >= path_guarantee(7, ExtractorParams(1, 3))


def test_small_split_case():
    # hub 0 over seven pendant edges; deleting N[0] leaves seven isolated
    # leaves, each smaller than T, so they are packed greedily
    edges = [(0, i) for i in range(1, 8)] + [(i, i + 7) for i in range(1, 8)]
    g = build_graph(15, edges)
    trace: list = []
    w = path_or_empty_bipartite(g, 0, ExtractorParams(2, 8), trace=trace)
    assert trace[0]["case"] == "small-split"
    assert w == BipartitePairWitness("empty", frozenset({8, 9}),
                                     frozenset({10, 11, 12, 13, 14}))


def test_split_small_components_examples():
    comps = [mask_of({0, 1}), mask_of({2, 3}), mask_of({4, 5})]
    a, b = split_small_components(comps, 2)
    assert a == mask_of({0, 1}) and b == mask_of({2, 3, 4, 5})
    a, b = split_small_components([mask_of({0}), mask_of({1}), mask_of({2})], 1)
    assert a == mask_of({0}) and b == mask_of({1, 2})
    with pytest.raises(ValueError, match="cannot split"):
        split_small_components([mask_of({0, 1, 2})], 2)


def test_split_respects_given_order_and_bounds():
    comps = [mask_of({6, 7}), mask_of({0, 1}), mask_of({2}), mask_of({3}),
             mask_of({4, 8}), mask_of({5, 9, 10})]
    a, b = split_small_components(comps, 3)
    assert a == mask_of({6, 7, 0, 1})
    assert b == mask_of({2, 3, 4, 8, 5, 9, 10})
    assert a.bit_count() < 2 * 3 and b.bit_count() >= 3


def _witness_is_sound(g, x, params, w):
    assert verify(g, w)
    if isinstance(w, InducedPathWitness):
        assert w.vertices[0] == x
        assert len(w) >= path_guarantee(g.n, params)
    else:
        assert w.kind == "empty"
        assert min(w.side_sizes) >= params.T


def test_dichotomy_fuzz_totality():
    rng = stream(0xD1C0)
    for trial in range(150):
        g = seeded_connected_graph(trial, max_n=48)
        dmax = max(closed_degree(g, v) for v in range(g.n))
        params = ExtractorParams(T=1 + trial % 5, D=dmax + rng.below(3))
        x = rng.below(g.n)
        w = path_or_empty_bipartite(g, x, params)
        _witness_is_sound(g, x, params, w)


def test_determinism():
    g = seeded_connected_graph(99, max_n=40)
    params = ExtractorParams(2, max(closed_degree(g, v) for v in range(g.n)))
    assert (path_or_empty_bipartite(g, 0, params)
            == path_or_empty_bipartite(g, 0, params))


def test_pair_sides_avoid_start_neighborhood():
    # when no recursion happened, both sides live outside N[x]
    for trial in range(60):
        g = seeded_connected_graph(1000 + trial, max_n=30)
        dmax = max(closed_degree(g, v) for v in range(g.n))
        trace: list = []
        w = path_or_empty_bipartite(g, 0, ExtractorParams(3, dmax), trace=trace)
        if isinstance(w, BipartitePairWitness) and len(trace) == 1:
            closed = {0} | {v for v in range(g.n) if g.has_edge(0, v)}
            assert not ((w.X | w.Y) & closed)


def test_rational_threshold_instantiation():
    # T = ceil(c n), D = ceil(eps n) specializes the guarantee to 1/(2(eps+c))
    g = seeded_connected_graph(7, max_n=40)
    n = g.n
    c = Fraction(1, 10)
    dmax = max(closed_degree(g, v) for v in range(g.n))
    eps = max(Fraction(dmax, n), Fraction(1, 10))
    params = ExtractorParams(T=-(-c.numerator * n // c.denominator),
                             D=-(-eps.numerator * n // eps.denominator))
    w = path_or_empty_bipartite(g, 0, params)
    _witness_is_sound(g, 0, params, w)


def hub():
    # hub 0 over seven pendant edges (the small-split case at T = 2)
    return build_graph(15, [(0, i) for i in range(1, 8)] + [(i, i + 7) for i in range(1, 8)])


def hairy_path(spine: int, seed: int):
    """A caterpillar tree: the path 0..spine-1 with a pendant leaf on a
    seeded half of its vertices.  A walk from 0 along the spine meets one
    neighbour at every level after the first, and two seeds beyond it
    exactly where the next spine vertex has a leaf."""
    rng = stream(0xCA75, seed)
    legs = [v for v in range(spine) if rng.below(2)]
    return build_graph(spine + len(legs), [(i, i + 1) for i in range(spine - 1)]
                       + [(v, spine + j) for j, v in enumerate(legs)])


def broom(handle: int, bristles: int):
    """The path 0..handle-1 with ``bristles`` leaves on its last vertex.
    From a bristle the first level has one neighbour and many seeds, and
    every later level one of each."""
    return build_graph(handle + bristles, [(i, i + 1) for i in range(handle - 1)]
                       + [(handle - 1, handle + j) for j in range(bristles)])


def walk_cases():
    """(graph, connected mask, start) over the corpus, paths, cycles,
    threshold graphs, caterpillar trees, brooms and the hand-made cases,
    with seeded random starts."""
    rng = stream(0xE5EE)
    masked = [*masked_corpus(0xE5E0, 80, 120),
              *((g, g.full_mask & ~(1 << rng.below(g.n))) for g in
                (caterpillar_graph(n, seed) for seed, n in enumerate((2, 9, 40, 120))))]
    for g, mask in masked:
        for part in component_masks(g.adj, mask)[:2]:
            members = list(bits(part))
            yield g, part, members[rng.below(len(members))]
    for seed, spine in enumerate((3, 8, 40, 150, 151)):
        g = hairy_path(spine, seed)
        for x in (0, spine - 1, rng.below(spine), g.n - 1):
            yield g, g.full_mask, x
        yield g, mask_of(range(spine)), rng.below(spine)
    for handle, bristles in ((1, 3), (5, 2), (40, 6), (120, 3)):
        g = broom(handle, bristles)
        for x in (0, handle - 1, handle, g.n - 1, rng.below(g.n)):
            yield g, g.full_mask, x
    for n in (1, 2, 5, 40, 131):
        g = path_graph(n)
        yield g, g.full_mask, rng.below(n)
        lo = rng.below(n)
        yield g, mask_of(range(lo, n)), lo + rng.below(n - lo)
    for n in (3, 7, 40, 130):
        g = cycle_graph(n)
        yield g, g.full_mask, rng.below(n)
    legs = build_graph(25, [(0, i) for i in range(1, 9)]
                       + [(i, i + 8) for i in range(1, 9)] + [(i, i + 8) for i in range(9, 17)])
    for g in (spider(), hub(), legs, friendship_graph(6), bridged_triangles()):
        for x in range(g.n):
            yield g, g.full_mask, x


def test_walk_matches_full_sweep_oracle():
    # Grow levels that keep all but the start and its neighbour (c1 = n - 2)
    # and grow levels that leave more behind, both counted: on caterpillar
    # trees and brooms the two kinds follow each other in one walk.
    rng = stream(0xE5EF)
    checked = 0
    grows = {True: 0, False: 0}
    for g, mask, x in walk_cases():
        dmax = max((g.adj[v] & mask).bit_count() for v in bits(mask)) + 1
        for big_t in (1, 2, 3, 5):
            params = ExtractorParams(big_t, dmax + rng.below(3))
            trace: list = []
            w = path_or_empty_bipartite(g, x, params, trace, mask)
            assert (w, trace) == sweep_walk(g, x, params, mask), (g.n, mask, x, params)
            checked += 1
            for level in trace:
                if level["case"] == "grow":
                    grows[level["c1"] == level["n"] - 2] += 1
    assert checked > 1000
    assert min(grows.values()) > 500, grows


def test_walk_stopped_at_k_is_a_prefix_of_the_full_walk():
    # At the top of level j - 1 the path, start included, holds j vertices:
    # the start and the first j - 1 grow levels' next starts.  A walk that
    # never gets there (it ends first, in a path or a pair) is unchanged.
    rng = stream(0xE5F0)
    stopped = {True: 0, False: 0}  # by whether the full walk ends in a pair
    for g, mask, x in walk_cases():
        dmax = max((g.adj[v] & mask).bit_count() for v in bits(mask)) + 1
        params = ExtractorParams(1 + rng.below(5), dmax + rng.below(3))
        full: list = []
        w = path_or_empty_bipartite(g, x, params, full, mask)
        for j in range(2, 7):
            trace: list = []
            got = path_or_empty_bipartite(g, x, params, trace, mask, k=j)
            if len(full) >= j:
                path = (x, *(level["via"] for level in full[:j - 1]))
                assert got == InducedPathWitness(path), (g.n, mask, x, params, j)
                assert trace == full[:j - 1] + [{"n": full[j - 1]["n"], "case": "stop"}]
                assert verify(g, got)
                stopped[isinstance(w, BipartitePairWitness)] += 1
            else:
                assert (got, trace) == (w, full), (g.n, mask, x, params, j)
    assert min(stopped.values()) > 50, stopped


def test_bounds_below_1_and_a_start_outside_the_mask_are_rejected():
    for t, d in ((0, 3), (1, 0)):
        with pytest.raises(ValueError, match="must be at least 1"):
            ExtractorParams(t, d)
    with pytest.raises(ValueError, match="target must be at least 1"):
        split_small_components([0b1, 0b10], 0)
    g, params = path_graph(6), ExtractorParams(1, 3)
    for x, mask in ((6, None), (-1, None), (0, 0b111110)):
        with pytest.raises(ValueError, match=f"start vertex {x} is not in the vertex set"):
            path_or_empty_bipartite(g, x, params, mask=mask)


def test_walk_rejects_a_k_below_1():
    # A k below 1 is not "no k": unchecked, it would walk all 26 vertices.
    g, params = path_graph(30), ExtractorParams(1, 3)
    for k in (0, -3):
        with pytest.raises(ValueError, match="k must be at least 1"):
            path_or_empty_bipartite(g, 0, params, k=k)
    trace: list = []
    assert path_or_empty_bipartite(g, 0, params, trace, k=1) == InducedPathWitness((0,))
    assert trace == [{"n": 30, "case": "stop"}]


def test_seeded_components_equal_full_sweep_at_every_start():
    # Seeds as the walk forms them: the neighbours of the start's neighbours
    # beyond its closed neighbourhood, inside a connected mask.  Besides, the
    # one-seed and no-seed cases the search answers without searching: each
    # connected part from one of its vertices, and the empty mask.
    checked = 0
    assert _components_from_seeds((), 0, 0) == [] == reference_component_masks((), 0)
    for g, mask in masked_corpus(0xE5E1, 80, 50):
        for part in component_masks(g.adj, mask):
            for seed in (part & -part, 1 << part.bit_length() - 1):
                assert _components_from_seeds(g.adj, part, seed) == [part]
            for x in bits(part):
                closed = (g.adj[x] | 1 << x) & part
                u = part & ~closed
                seeds = 0
                for w in bits(closed & ~(1 << x)):
                    seeds |= g.adj[w]
                assert (_components_from_seeds(g.adj, u, seeds & u)
                        == reference_component_masks(g.adj, u))
                checked += 1
    assert checked > 3000
    # Any seed set that meets every component: one to three seeds in each,
    # plus about one vertex in eight.  A component with two or more seeds
    # holds searches that meet, and all but one of them are dropped.
    rng = stream(0xE5E3)
    crowded = 0
    for g, mask in masked_corpus(0xE5E2, 1500, 40):
        parts = reference_component_masks(g.adj, mask)
        seeds = sum(1 << v for v in bits(mask) if not rng.below(8))
        for part in parts:
            members = list(bits(part))
            for _ in range(1 + rng.below(3)):
                seeds |= 1 << members[rng.below(len(members))]
        assert _components_from_seeds(g.adj, mask, seeds) == parts, (g, mask, seeds)
        crowded += any((seeds & part).bit_count() > 1 for part in parts)
    assert crowded > 2000


def test_closed_degree_error_names_the_smallest_vertex_above_d():
    # a path 0..9 with leaves: closed degrees 4, 5 and 4 at vertices 2, 5, 8
    g = build_graph(14, [(i, i + 1) for i in range(9)] + [(2, 10), (5, 11), (5, 12), (8, 13)])
    with pytest.raises(ValueError) as err:
        path_or_empty_bipartite(g, 0, ExtractorParams(1, 3))
    assert str(err.value) == "closed degree of vertex 2 is 4, above the bound D=3"
    # without vertex 10, vertex 2 is within the bound inside the mask
    with pytest.raises(ValueError) as err:
        path_or_empty_bipartite(g, 0, ExtractorParams(1, 3), mask=g.full_mask & ~(1 << 10))
    assert str(err.value) == "closed degree of vertex 5 is 5, above the bound D=3"
