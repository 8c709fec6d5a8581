from fractions import Fraction

import pytest

from itertools import combinations

from pathcert.graph import (bits, build_graph, complement, complete_bipartite_graph,
                            complete_graph, cycle_graph, empty_graph, mask_of, path_graph)
from pathcert.generators import gnp, random_cograph
from pathcert import homogeneous
from pathcert.homogeneous import _peel, find_epsilon_homogeneous, prune_high_degree
from pathcert.pipeline import log2_bounds
from pathcert.rng import stream
from pathcert.witnesses import verify_homogeneous

from conftest import (best_homogeneous_sizes, brute_peel, planted_sparse_graph, randint,
                      reference_degree_planes)


def test_exact_empty_graph_full_stable():
    w = find_epsilon_homogeneous(empty_graph(10), Fraction(0))
    assert w.kind == "stable" and w.size == 10
    assert verify_homogeneous(empty_graph(10), w)


def test_exact_complete_graph_full_clique():
    w = find_epsilon_homogeneous(complete_graph(10), Fraction(0))
    assert w.kind == "clique" and w.size == 10


def test_exact_c5_stable_pair():
    # the sparse peel deletes 0, then 2, then 3 (max degree, smallest id)
    w = find_epsilon_homogeneous(cycle_graph(5), Fraction(0))
    assert w.kind == "stable" and w.S == frozenset({1, 4})


def test_greedy_is_bounded_by_enumeration():
    """The peel's set verifies and is no larger than the largest set of its
    kind found by full subset enumeration."""
    for seed in range(12):
        g = gnp(8, Fraction(seed % 5 + 1, 6), stream(0x5151, seed))
        for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            best_stable, best_clique = best_homogeneous_sizes(g, eps)
            w = find_epsilon_homogeneous(g, eps)
            assert verify_homogeneous(g, w)
            assert w.size <= (best_stable if w.kind == "stable" else best_clique)


def test_greedy_always_returns_a_witness_that_verifies():
    for seed in range(40):
        g = gnp(30, Fraction(1, 3), stream(0x5252, seed))
        w = find_epsilon_homogeneous(g, Fraction(1, 10))
        assert w.size >= 1
        assert verify_homogeneous(g, w)


def test_greedy_peel_is_deterministic():
    g = gnp(25, Fraction(1, 2), stream(0x5353))
    a = find_epsilon_homogeneous(g, Fraction(1, 8))
    b = find_epsilon_homogeneous(g, Fraction(1, 8))
    assert a == b


PEEL_EPSILONS = (Fraction(0), Fraction(1, 24), Fraction(1, 30), Fraction(1, 3), Fraction(1))


def uncapped_greedy(g, eps):
    """(kind, mask, edges) of the greedy finder with both peels run to the end,
    as before the dense peel stopped at the sparse survivor count."""
    sparse = _peel(g, g.full_mask, eps, dense=False)
    dense = _peel(g, g.full_mask, eps, dense=True)
    if sparse[0].bit_count() >= dense[0].bit_count():
        return ("stable",) + sparse
    return ("clique",) + dense


def assert_greedy_is_uncapped(g, eps):
    w = find_epsilon_homogeneous(g, eps)
    assert (w.kind, mask_of(w.S), w.edge_count) == uncapped_greedy(g, eps)


def assert_peel_matches_brute(g):
    co = complement(g)
    for eps in PEEL_EPSILONS:
        assert _peel(g, g.full_mask, eps, dense=False) == brute_peel(g.adj, g.n, eps)
        mask, missing = brute_peel(co.adj, g.n, eps)
        size = mask.bit_count()
        assert _peel(g, g.full_mask, eps, dense=True) == (mask, size * (size - 1) // 2 - missing)
        assert_greedy_is_uncapped(g, eps)


def test_peel_matches_brute_on_every_graph_up_to_5_vertices():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            assert_peel_matches_brute(build_graph(n, [e for i, e in enumerate(pairs) if code >> i & 1]))


def test_peel_matches_brute_on_seeded_gnp_and_cographs():
    for seed in range(40):
        rng = stream(0x9EE1, seed)
        n = randint(rng, 6, 60)
        assert_peel_matches_brute(gnp(n, Fraction(randint(rng, 0, 10), 10), rng))
        assert_peel_matches_brute(random_cograph(n, rng))


def test_peel_matches_brute_on_all_ties_inputs():
    graphs = [empty_graph(1), empty_graph(2), complete_graph(2), path_graph(2)]
    for n in (3, 7, 16, 40):
        graphs += [empty_graph(n), complete_graph(n), cycle_graph(n), path_graph(n)]
    graphs += [path_graph(300), cycle_graph(300)]
    graphs += [complete_bipartite_graph(a, a) for a in (1, 2, 5, 12)]
    for g in graphs:
        assert_peel_matches_brute(g)


# greedy witnesses as the plain rescanning peel produced them; the
# bit-sliced peel must reproduce them byte for byte.  S is pinned as its mask.
PINNED_GREEDY_WITNESSES = [
    pytest.param(lambda: gnp(300, Fraction(9, 10), stream(0x91E, 0)), Fraction(1, 30),
                 "clique", 3452,
                 0x2010471003c400023020d44862084609a983223541ab81150f0152b241630099200143a0000,
                 id="gnp-9/10"),
    pytest.param(lambda: gnp(300, Fraction(1, 2), stream(0x91E, 0)), Fraction(1, 30),
                 "stable", 1,
                 0x81002080000000000008000009000100000000010000000000000000000000000000000000,
                 id="gnp-1/2"),
    pytest.param(lambda: random_cograph(300, stream(0x91E, 1)), Fraction(1, 30),
                 "stable", 914,
                 0xfffffe03fffffffffffffffffffc0000000000007ffffffffffffffefffffffff3d8fffffff,
                 id="cograph"),
    pytest.param(lambda: cycle_graph(150), Fraction(1, 100),
                 "stable", 48, 0x3fffffffffffeaaaaaaaaaaaaaaaaaaaaaaaaa,
                 id="cycle"),
]


@pytest.mark.parametrize("build, eps, kind, edge_count, mask", PINNED_GREEDY_WITNESSES)
def test_greedy_peel_pinned_witnesses(build, eps, kind, edge_count, mask):
    g = build()
    w = find_epsilon_homogeneous(g, eps)
    assert (w.kind, w.edge_count, mask_of(w.S)) == (kind, edge_count, mask)
    assert verify_homogeneous(g, w)
    assert_greedy_is_uncapped(g, eps)


@pytest.mark.parametrize("n", [48, 400, 960])
def test_dense_peel_deletes_nothing_on_paths(n):
    # The sparse peel keeps the whole path, so the dense peel starts at its
    # floor; uncapped, it would delete all but a few vertices.
    g = path_graph(n)
    eps = Fraction(1, 24)
    assert _peel(g, g.full_mask, eps, dense=False) == (g.full_mask, n - 1)
    assert _peel(g, g.full_mask, eps, dense=True, _floor=n) == (g.full_mask, n - 1)
    assert _peel(g, g.full_mask, eps, dense=True)[0].bit_count() < n // 2
    w = find_epsilon_homogeneous(g, eps)
    assert (w.kind, w.S, w.edge_count) == ("stable", frozenset(range(n)), n - 1)


def test_peel_matches_brute_when_one_mode_deletes_and_the_other_does_not():
    """Paths, cycles and stars: at some epsilon one peel keeps every vertex
    (and builds no planes) while the other deletes; both match the plain
    peel either way."""
    graphs = [path_graph(n) for n in (3, 9, 61, 200)] + [cycle_graph(n) for n in (4, 9, 61, 200)]
    graphs += [complete_bipartite_graph(1, s) for s in (2, 5, 10, 40)]
    shapes = set()
    for g in graphs:
        for eps in PEEL_EPSILONS + (Fraction(1, 5), Fraction(2, 3)):
            co = complement(g)
            sparse = _peel(g, g.full_mask, eps, dense=False)
            assert sparse == brute_peel(g.adj, g.n, eps)
            mask, missing = brute_peel(co.adj, g.n, eps)
            size = mask.bit_count()
            dense = _peel(g, g.full_mask, eps, dense=True)
            assert dense == (mask, size * (size - 1) // 2 - missing)
            assert_greedy_is_uncapped(g, eps)
            shapes.add((sparse[0] == g.full_mask, dense[0] == g.full_mask))
    assert {(True, False), (False, True)} <= shapes


def test_degree_planes_are_built_once_at_the_first_deletion(monkeypatch):
    """On seeded gnp graphs and cographs, under a mask or not, a peel that
    deletes builds its planes once, from the mask it was given, equal to the
    one-vertex-at-a-time reference; a peel that deletes nothing builds none."""
    built = []
    build = homogeneous._degree_planes

    def recording(mask, degrees):
        planes = build(mask, degrees)
        built.append((mask, list(planes)))
        return planes

    monkeypatch.setattr(homogeneous, "_degree_planes", recording)
    deleting = 0
    for seed in range(40):
        rng = stream(0x9EE3, seed)
        n = randint(rng, 2, 70)
        for g in (gnp(n, Fraction(randint(rng, 0, 10), 10), rng), random_cograph(n, rng)):
            for mask in (g.full_mask, sum(1 << v for v in range(n) if rng.below(4)) or 1):
                for eps in (Fraction(0), Fraction(1, 30), Fraction(1, 3)):
                    for dense in (False, True):
                        built.clear()
                        out, _ = _peel(g, mask, eps, dense)
                        if out == mask:
                            assert built == []
                        else:
                            assert built == [(mask, reference_degree_planes(g.adj, mask))]
                            deleting += 1
    assert deleting > 500


def test_find_epsilon_validates_inputs():
    with pytest.raises(ValueError, match="epsilon"):
        find_epsilon_homogeneous(cycle_graph(5), Fraction(3, 2))
    with pytest.raises(ValueError, match="mask must be nonempty"):
        find_epsilon_homogeneous(cycle_graph(5), Fraction(0), mask=0)
    # The mask is keyword-only, so a stray positional argument cannot pass for one.
    with pytest.raises(TypeError):
        find_epsilon_homogeneous(cycle_graph(5), Fraction(0), 1)


def test_prune_rejects_an_empty_set():
    with pytest.raises(ValueError, match="S must be nonempty"):
        prune_high_degree(cycle_graph(5), 0, Fraction(1, 30))


def triangle_plus_isolated():
    return build_graph(10, [(0, 1), (0, 2), (1, 2)])


def test_prune_triangle_plus_isolated_unchanged():
    # threshold 2 * (1/10) * 10 = 2, all degrees <= 2
    g = triangle_plus_isolated()
    out = prune_high_degree(g, g.full_mask, Fraction(1, 10))
    assert out == g.full_mask


def test_prune_star_removes_center():
    g = build_graph(10, [(0, v) for v in range(1, 10)])
    out = prune_high_degree(g, g.full_mask, Fraction(1, 10))
    assert out == g.full_mask ^ 1


def test_prune_epsilon_half_no_op():
    g = complete_graph(8)
    out = prune_high_degree(g, g.full_mask, Fraction(1, 2))
    assert out == g.full_mask


def test_prune_half_guarantee_on_planted_sparse_sets():
    rng = stream(0x6060)
    for trial in range(120):
        eps = Fraction(1, 10) if trial % 2 == 0 else Fraction(1, 30)
        s = randint(rng, 2, 120)
        g = planted_sparse_graph(s, eps, rng)
        out = prune_high_degree(g, g.full_mask, eps)
        assert out.bit_count() >= -(-s // 2)
        bound = 2 * eps * s
        for v in bits(out):
            assert (g.adj[v] & out).bit_count() <= bound


def test_prune_matches_the_rational_threshold():
    for seed in range(60):
        rng = stream(0x6161, seed)
        n = randint(rng, 1, 50)
        g = gnp(n, Fraction(randint(rng, 0, 10), 10), rng)
        s = [v for v in range(n) if rng.below(3)] or [0]
        eps = Fraction(randint(rng, 0, 12), randint(rng, 1, 40))
        mask = mask_of(s)
        expected = mask_of(v for v in s
                           if (g.adj[v] & mask).bit_count() <= 2 * eps * len(s))
        assert prune_high_degree(g, mask, eps) == expected


@pytest.mark.parametrize("q", [Fraction(1), Fraction(2), Fraction(3), Fraction(12), Fraction(30),
                               Fraction(48), Fraction(7, 3), Fraction(1025, 1024),
                               Fraction(10 ** 30 + 1, 7)])
def test_log2_bounds_bracket_log2(q):
    """lo < log2(q) < hi, checked in integers: 2^(64 lo) < q^64 < 2^(64 hi),
    and the bracket is at most 2/64 wide."""
    lo, hi = log2_bounds(q)
    num, den = q.numerator ** 64, q.denominator ** 64
    assert (64 * lo).denominator == 1 and (64 * hi).denominator == 1
    a, b = int(64 * lo), int(64 * hi)
    assert (2 ** a * den < num) if a >= 0 else (den < num * 2 ** -a)
    assert num < 2 ** b * den
    assert hi - lo <= Fraction(2, 64)


def test_log2_bounds_rejects_below_one():
    with pytest.raises(ValueError):
        log2_bounds(Fraction(1, 2))
