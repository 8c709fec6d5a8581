import dataclasses
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcert.graph import (build_graph, complement, complete_bipartite_graph, components,
                            complete_graph, cycle_graph, empty_graph, friendship_graph, induced,
                            path_graph)
from pathcert import cographs, graph
from pathcert.generators import gnp
from pathcert.rng import stream

from conftest import (caterpillar_graph, degree, graph_edges, masked_corpus, randint,
                      reference_bits, reference_component_masks, small_graphs, threshold_graph)


def edge_set(g):
    return set(graph_edges(g))


def test_build_p3_degree_sequence():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert [degree(g, v) for v in range(3)] == [1, 2, 1]


def test_build_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1 and sum(g.degrees) // 2 == 0


def test_build_rejects_self_loop():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])


def test_build_rejects_empty():
    with pytest.raises(ValueError):
        build_graph(0, [])


def test_build_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert sum(g.degrees) // 2 == 1


@pytest.mark.parametrize("n", [5, 40, 4096, 5000])
def test_build_reports_the_first_bad_edge(n):
    # Each edge is checked before it is ORed in, so the first bad edge
    # raises wherever it stands: first, among the first n edges, past them,
    # or last, at sizes either side of the parser's dense-path limit (4096).
    # (The edge-list parser's dense path is tested in test_formats.py.)
    good = [(v, v + 1) for v in range(n - 1)] * 3
    bad = [((0, n), f"edge (0,{n}) has an endpoint outside 0..{n - 1}"),
           ((-1, 2), f"edge (-1,2) has an endpoint outside 0..{n - 1}"),
           ((2, -n - 1), f"edge (2,{-n - 1}) has an endpoint outside 0..{n - 1}"),
           ((n, n), f"edge ({n},{n}) has an endpoint outside 0..{n - 1}"),
           ((n, 0), f"edge ({n},0) has an endpoint outside 0..{n - 1}"),
           ((2, 2), "self-loop (2,2) is not allowed"),
           ((0, 0), "self-loop (0,0) is not allowed")]
    for edge, message in bad:
        for at in (0, n - 1, n, n * n // 16, len(good)):
            with pytest.raises(ValueError) as err:
                build_graph(n, good[:at] + [edge, (3, 3)] + good[at:])
            assert str(err.value) == message


def test_build_passes_on_an_index_error_of_its_input():
    # An IndexError raised by the edge iterable itself is not a bad edge:
    # it propagates as it was raised, past more edges than vertices.
    def edges():
        yield from [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]
        raise IndexError("from the input")
    with pytest.raises(IndexError, match="from the input"):
        build_graph(4, edges())


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (7, 6), (7, 7), (7, 8), (60, 900),
                                  (64, 64), (64, 65), (64, 256), (64, 257),
                                  (4096, 4096), (4096, 4097), (4097, 4097), (4097, 4098),
                                  (4097, 5000), (5000, 9000)])
def test_build_matches_plain_shifts(n, m):
    # build_graph sets the same two bits as a plain shift per edge, with m
    # either side of n and n either side of the parser's dense-path limit
    # (4096), at any density.  Each edge comes either way round, some twice
    # (the same way or reversed), in no order.
    rng = stream(0xB1, n + m)
    edges = []
    while len(edges) < m:
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges.append((u, v))
            if rng.below(4) == 0 and len(edges) < m:
                edges.append((v, u) if rng.below(2) else (u, v))
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    assert build_graph(n, edges).adj == tuple(rows)
    assert build_graph(n, iter(edges)).adj == tuple(rows)


@pytest.mark.parametrize("n, m", [(4096, 4097), (4096, 12000)])
def test_build_transposes_at_the_table_limit(n, m):
    # The edge-list parser's dense path builds one row per first endpoint and
    # symmetrises once; at the table's limit (n = 4096) the transpose runs in
    # four blocks of 1024 rows, and must agree with build_graph.
    rng = stream(0xB2, m)
    edges = []
    while len(edges) < m:
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges.append((u, v))
    directed, rows = [0] * n, [0] * n
    for u, v in edges:
        directed[u] |= 1 << v
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    assert graph.symmetrised(directed) == build_graph(n, edges).adj == tuple(rows)


@pytest.mark.parametrize("n, budget", [(1, 1), (2, 1), (9, 9), (9, 20), (9, 81), (70, 1),
                                       (70, 210), (70, 690), (70, 1 << 22)])
def test_symmetrised_matches_per_arc_shifts_in_any_block_height(n, budget, monkeypatch):
    # The transpose reads budget // n rows at a time (at least one), so the
    # blocks here are 1, 2, 3 or 9 rows high, or all the rows at once.
    monkeypatch.setattr(graph, "_TRANSPOSE_BYTES", budget)
    rng = stream(0xB3, n * budget)
    directed = [sum(1 << v for v in range(n) if v != u and rng.below(3) == 0) for u in range(n)]
    rows = list(directed)
    for u in range(n):
        for v in reference_bits(directed[u]):
            rows[v] |= 1 << u
    assert graph.symmetrised(directed) == tuple(rows)


def test_complement_k3_is_empty():
    assert edge_set(complement(complete_graph(3))) == set()


def test_complement_p4_is_p4():
    # complement of the path 0-1-2-3 is the path 2-0-3-1 (checked by hand)
    co = complement(path_graph(4))
    assert edge_set(co) == {(0, 2), (0, 3), (1, 3)}
    assert co.has_edge(2, 0) and co.has_edge(0, 3) and co.has_edge(3, 1)
    assert not co.has_edge(2, 3) and not co.has_edge(0, 1) and not co.has_edge(2, 1)


def test_complement_involution_seeded():
    for seed in range(20):
        g = gnp(14, Fraction(1, 3), stream(7, seed))
        assert complement(complement(g)) == g


def test_degree_split_between_graph_and_complement():
    for seed in range(10):
        g = gnp(17, Fraction(2, 5), stream(8, seed))
        co = complement(g)
        for v in range(g.n):
            assert degree(g, v) + degree(co, v) == g.n - 1


def test_induced_consecutive_c5_is_p3():
    sub = induced(cycle_graph(5), {0, 1, 2})
    assert sub.n == 3
    assert edge_set(sub) == {(0, 1), (1, 2)}


def test_induced_full_is_same_graph():
    g = gnp(9, Fraction(1, 2), stream(9, 0))
    sub = induced(g, range(9))
    assert sub.n == g.n and sub.adj == g.adj


def test_induced_rejects_empty():
    with pytest.raises(ValueError):
        induced(path_graph(3), [])


@pytest.mark.parametrize("make, message", [
    (lambda: cycle_graph(2), "at least 3 vertices"),
    (lambda: friendship_graph(0), "at least one triangle"),
    (lambda: induced(path_graph(3), [-1, 0]), "out of range"),
    (lambda: induced(path_graph(3), [0, 3]), "out of range")],
    ids=["cycle", "friendship", "induced-negative", "induced-beyond-n"])
def test_families_and_induced_reject_bad_arguments(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_nested_induced_equals_direct():
    g = gnp(12, Fraction(1, 2), stream(10, 0))
    inner = induced(g, [1, 3, 5, 7, 9, 11])
    innermost = induced(inner, [0, 2, 4])
    # local 0,2,4 of inner are 1,5,9 of g
    direct = induced(g, [1, 5, 9])
    assert innermost.adj == direct.adj


def test_components_c5():
    assert components(cycle_graph(5)) == [frozenset(range(5))]


def test_components_two_disjoint_edges():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert components(g) == [frozenset({0, 1}), frozenset({2, 3})]


def test_components_p3_plus_isolated():
    g = build_graph(4, [(0, 1), (1, 2)])
    comps = components(g)
    assert [len(c) for c in comps] == [3, 1]


def test_components_order_ties_by_smallest_member():
    g = build_graph(6, [(4, 5), (0, 1)])  # sizes 2,2,1,1
    comps = components(g)
    assert comps[0] == frozenset({0, 1})
    assert comps[1] == frozenset({4, 5})
    assert comps[2] == frozenset({2})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_components_partition_properties(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = data.draw(st.lists(st.sampled_from(pairs), max_size=24, unique=True)) if pairs else []
    g = build_graph(n, picked)
    comps = components(g)
    seen = set()
    for comp in comps:
        assert not (comp & seen)
        seen |= comp
        # internally connected
        assert components(induced(g, comp)) == [frozenset(range(len(comp)))]
    assert seen == set(range(n))
    # no edges between different components
    for u, v in graph_edges(g):
        assert any(u in c and v in c for c in comps)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 90), st.integers(0, 2 ** 32),
       st.sampled_from(["none", "one", "few", "many"]), st.data())
def test_neighbours_and_member_passes_equal_per_bit_loops(n, seed, shape, data):
    """neighbours is the OR of the rows one member at a time, on masks of
    0, 1, a few (the per-bit branch of bits) and many vertices; bits,
    member_selectors and inner_degrees list the members, their selectors
    and their degrees inside the mask, ascending."""
    g = gnp(n, Fraction(seed % 10, 9), stream(0x7E16, seed))
    if shape == "none":
        mask = 0
    elif shape == "one":
        mask = 1 << data.draw(st.integers(0, n - 1))
    elif shape == "few":
        mask = graph.mask_of(data.draw(st.lists(st.integers(0, n - 1), max_size=5)))
    else:
        mask = data.draw(st.integers(0, g.full_mask))
    members = [v for v in range(n) if mask >> v & 1]
    assert list(graph.bits(mask)) == members
    union = 0
    for v in members:
        union |= g.adj[v]
    assert graph.neighbours(g.adj, mask) == union
    assert graph.neighbours(list(g.adj), mask) == union
    width = max(1, mask.bit_length())
    assert list(graph.member_selectors(mask)) == [int(v in members) for v in range(width)]
    degrees = [(g.adj[v] & mask).bit_count() for v in members]
    assert list(graph.inner_degrees(g, mask)) == degrees
    assert graph.mask_of(members + members[::-1]) == mask


def test_component_masks_match_the_reference_sweep():
    # The corpus's masked gnp graphs and cographs, paths and cycles up to
    # n = 2000 on their full mask and with a seeded tenth of the vertices
    # dropped, and the empty mask.
    rng = stream(0xC0A5)
    cases = [((), 0), (path_graph(3).adj, 0)]
    cases += [(g.adj, mask) for g, mask in masked_corpus(0xC0A6, 60, 90)]
    for n in (1, 2, 3, 4, 17, 64, 301, 1000, 1999, 2000):
        for g in [path_graph(n)] + ([cycle_graph(n)] if n >= 3 else []):
            cases.append((g.adj, g.full_mask))
            cases.append((g.adj, graph.mask_of(v for v in range(n) if rng.below(10))))
    for adj, mask in cases:
        assert graph.component_masks(adj, mask) == reference_component_masks(adj, mask)


def test_component_masks_match_the_reference_on_g_and_its_complement():
    # Both modes of the one sweep: co=False against the reference sweep of
    # g's rows, co=True against the reference sweep of the complement's rows
    # restricted to the mask.  Every nonempty mask of every graph on at most
    # five vertices, then seeded gnp graphs and cographs, threshold graphs
    # and caterpillars (chains of isolated and universal vertices).
    cases = [(g, mask) for g in small_graphs(5) for mask in range(1, 1 << g.n)]
    cases += masked_corpus(0xC0A7, 60, 90)
    for n in (2, 33, 90):
        for g in (threshold_graph(n), caterpillar_graph(n, n)):
            cases += [(g, g.full_mask), (g, graph.mask_of(range(0, n, 2)))]
    assert len(cases) > 30000
    for g, mask in cases:
        for co, rows in ((False, g.adj), (True, graph.complement(g, mask).adj)):
            assert (graph.component_masks(g.adj, mask, co=co)
                    == reference_component_masks(rows, mask)), (g.adj, mask, co)


def test_neighbours_of_up_to_three_vertices_is_the_per_bit_or():
    # The empty mask, one vertex, two vertices (adjacent bits, bit 0 with the
    # top bit, two far-apart bits) and one mask of three, on graphs whose
    # rows differ, so a row read for the wrong member shows.
    rng = stream(0x2B17)
    for g in (gnp(70, Fraction(1, 2), rng), gnp(300, Fraction(1, 20), rng), cycle_graph(97),
              path_graph(2)):
        top = g.n - 1
        masks = [0, 1, 1 << top, 1 << g.n // 2, 0b11, 0b11 << top - 1, 1 | 1 << top,
                 1 << 1 | 1 << top - 1, 1 << g.n // 3 | 1 << top - g.n // 5,
                 1 | 1 << g.n // 2 | 1 << top]
        for mask in masks:
            want = 0
            for v in reference_bits(mask):
                want |= g.adj[v]
            assert graph.neighbours(g.adj, mask) == want, (g.n, mask)


def test_cycle_sweep_lists_no_frontier(monkeypatch):
    # Sweeping a cycle from its lowest vertex, every frontier after the first
    # holds two vertices; neither size goes through bits.
    calls = []

    def counted_bits(mask):
        calls.append(mask)
        return reference_bits(mask)

    monkeypatch.setattr(graph, "bits", counted_bits)
    g = cycle_graph(1233)
    assert graph.component_masks(g.adj, g.full_mask) == [g.full_mask]
    assert calls == []


def test_inner_degrees_on_the_full_mask_equal_the_member_loop():
    # Full masks take the rows' bit counts, other masks the loop over
    # members: both equal the loop, on the rows of g and of its complements
    # (whose rows outside the complemented mask are 0).
    rng = stream(0x1DE6)
    graphs = [path_graph(1), empty_graph(1), path_graph(2), complete_graph(5), cycle_graph(40)]
    graphs += [gnp(n, Fraction(randint(rng, 0, 8), 8), rng) for n in (3, 30, 200)]
    cases = [(graph.Graph(0, ()), 0)]
    for g in graphs:
        part = graph.mask_of(v for v in range(g.n) if rng.below(3)) or 1
        for h in (g, complement(g), complement(g, part)):
            cases += [(h, g.full_mask), (h, part), (h, g.full_mask ^ 1), (h, 0)]
    for h, mask in cases:
        want = [(h.adj[v] & mask).bit_count() for v in reference_bits(mask)]
        assert list(graph.inner_degrees(h, mask)) == want, (h.n, mask)


def reference_inner_degrees(g, mask):
    """Each member's neighbours inside ``mask``, one edge test at a time."""
    members = list(reference_bits(mask))
    return [sum(g.has_edge(v, u) for u in members) for v in members]


def assert_degree_table_matches_rows(g, masks):
    assert "degrees" not in vars(g)  # built on first read
    table = g.degrees
    assert type(table) is tuple and g.degrees is table
    assert list(table) == reference_inner_degrees(g, g.full_mask)
    assert graph.inner_degrees(g, g.full_mask) is table
    for mask in masks:
        assert list(graph.inner_degrees(g, mask)) == reference_inner_degrees(g, mask), (g, mask)
    assert sum(table) // 2 == len(list(graph_edges(g)))


def test_degree_table_and_inner_degrees_on_every_small_graph_and_mask():
    for g in small_graphs(5):
        assert_degree_table_matches_rows(g, range(1 << g.n))


def test_degree_table_and_inner_degrees_on_seeded_gnp():
    # Every mask up to n = 9, else the full mask less each of a few
    # vertices, seeded masks and the empty one.
    rng = stream(0xDE67)
    for n in (6, 7, 9, 40, 200):
        g = gnp(n, Fraction(randint(rng, 0, 10), 10), rng)
        if n <= 9:
            masks = range(1 << n)
        else:
            masks = [0, 1 << n - 1, *(g.full_mask ^ 1 << v for v in (0, n // 2, n - 1))]
            masks += [graph.mask_of(v for v in range(n) if rng.below(3)) for _ in range(5)]
        assert_degree_table_matches_rows(g, masks)


def test_complement_and_induced_build_their_own_degree_tables():
    rng = stream(0xDE68)
    for g in (gnp(60, Fraction(1, 3), rng), cycle_graph(30), complete_graph(7)):
        before = g.degrees
        part = graph.mask_of(v for v in range(g.n) if rng.below(2)) or 1
        for h in (complement(g), complement(g, part), induced(g, graph.bits(part))):
            assert_degree_table_matches_rows(h, [0, part & h.full_mask, h.full_mask ^ 1])
        assert g.degrees is before
        assert list(before) == reference_inner_degrees(g, g.full_mask)


def test_graph_equality_and_hash_ignore_the_degree_table():
    rng = stream(0xDE69)
    for n in (1, 5, 80):
        g = gnp(n, Fraction(1, 2), rng)
        read, unread = graph.Graph(g.n, g.adj), graph.Graph(g.n, g.adj)
        read.degrees
        assert "degrees" in vars(read) and "degrees" not in vars(unread)
        assert read == unread and hash(read) == hash(unread)
        assert len({read, unread}) == 1
        assert [f.name for f in dataclasses.fields(read)] == ["n", "adj"]


def test_members_lists_sparse_and_dense_masks():
    # both branches of bits: a per-bit walk below one member in 16 digits,
    # else a scan
    for mask in (0, 1, 1 | 1 << 40, 1 << 17 | 1 << 300, 0b1011 << 64, (1 << 300) - 1,
                 (1 << 300) - 1 ^ 1 << 7):
        want = [v for v in range(mask.bit_length()) if mask >> v & 1]
        assert list(graph.bits(mask)) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5000), st.sampled_from(["empty", "one", "sparse", "one-in-16", "full"]),
       st.integers(0, 2 ** 32))
def test_bits_equals_the_low_bit_loop(width, shape, seed):
    """bits lists what the low-bit loop lists on masks up to 5000 bits wide,
    on both sides of its switch: sparse masks have fewer than one digit in
    16 set, and a mask with exactly one in 16 is the sparsest one scanned."""
    rng = stream(0xB175, seed)
    top = 1 << width - 1
    if shape == "empty":
        mask = 0
    elif shape == "one":
        mask = top
    elif shape == "sparse":
        mask = top | graph.mask_of(rng.below(width) for _ in range((width - 1) // 16 - 1))
        assert width <= 16 or mask.bit_count() * 16 < width
    elif shape == "one-in-16":
        # one bit in each block of 16 digits, the last block's on top
        blocks = max(1, width // 16)
        mask = graph.mask_of(16 * b + rng.below(16) for b in range(blocks - 1))
        mask |= 1 << 16 * blocks - 1
        assert mask.bit_count() * 16 == mask.bit_length()
    else:
        mask = (1 << width) - 1
    assert list(graph.bits(mask)) == list(reference_bits(mask))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 160), st.integers(0, 2 ** 32), st.sampled_from(["full", "half", "sparse"]))
def test_early_stopping_bits_consumers_match_the_low_bit_loop(n, seed, shape):
    """The loops over a bits listing that read rows (the AND of rows in
    the complement sweep, cographs._splitter, which stops partway) and the
    cotree built on them give the same answers as with the low-bit loop as
    lister."""
    rng = stream(0xB176, seed)
    g = gnp(n, Fraction(randint(rng, 0, 8), 8), rng)
    if shape == "full":
        mask = g.full_mask
    else:
        keep = 2 if shape == "half" else 9
        mask = graph.mask_of(v for v in range(n) if rng.below(keep) == 0) or 1

    def answers():
        comps = graph.component_masks(g.adj, mask, co=True)
        splits = [cographs._splitter(g.adj, part, mask & ~part)
                  for part in comps + graph.component_masks(g.adj, mask)]
        return comps, splits, cographs.cotree(g, mask)

    want = answers()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "bits", reference_bits)
        patch.setattr(cographs, "bits", reference_bits)
        assert want == answers()


def test_friendship_graph_shape():
    g = friendship_graph(3)
    assert g.n == 7
    assert degree(g, 0) == 6
    assert all(degree(g, v) == 2 for v in range(1, 7))
    assert friendship_graph(1) == complete_graph(3)


def test_empty_and_complete_edge_counts():
    assert sum(empty_graph(6).degrees) // 2 == 0
    assert sum(complete_graph(6).degrees) // 2 == 15


def test_complete_families_match_their_edge_lists():
    for n in range(1, 41):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert complete_graph(n) == build_graph(n, pairs)
    for a in range(1, 7):
        for b in range(1, 8):
            pairs = [(i, a + j) for i in range(a) for j in range(b)]
            assert complete_bipartite_graph(a, b) == build_graph(a + b, pairs)
    for bad in (lambda: complete_graph(0), lambda: complete_bipartite_graph(0, 3)):
        with pytest.raises(ValueError):
            bad()


def test_complete_families_hold_their_rows_only():
    # The rows are filled directly: K_3000 is 3000 rows of 3000 bits, about
    # 1.2 MiB, and K_{3000,3000} two distinct rows (the pairs of K_3000 as an
    # edge list peaked near 465 MB of RSS).
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        k = complete_graph(3000)
        kab = complete_bipartite_graph(3000, 3000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    assert sum(k.degrees) // 2 == 3000 * 2999 // 2 and sum(kab.degrees) // 2 == 3000 * 3000
    assert k.adj[7] == k.full_mask ^ 1 << 7 and kab.adj[2999] == kab.full_mask ^ (1 << 3000) - 1
