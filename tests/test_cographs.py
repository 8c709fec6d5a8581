import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from pathcert import cographs
from pathcert.cographs import OracleError, cograph_alpha_omega, cotree, find_p4, p4free_extract
from pathcert.graph import (bits, build_graph, complement, complete_bipartite_graph,
                            complete_graph, component_masks, cycle_graph, empty_graph, induced,
                            mask_of, path_graph)
from pathcert.generators import gnp, random_cograph
from pathcert.patterns import find_induced_path
from pathcert.rng import stream
from pathcert.witnesses import BipartitePairWitness, PatternEmbedding, verify

from conftest import (balanced_cograph, brute_has_induced_p4, brute_max_clique_size,
                      brute_max_stable_size, caterpillar_graph, check_cotree, contains_induced,
                      exact_bipartite_oracle, find_pair_masks, graph_edges,
                      oracle_cograph_alpha_omega, oracle_cotree, oracle_p4free_extract, randint,
                      small_graphs, stack_depth, threshold_graph)


def is_p4_free(g) -> bool:
    return not contains_induced(g, path_graph(4)).found


def test_cotree_leaf_and_kinds():
    assert cotree(complete_bipartite_graph(2, 2)) == (
        ("join", 2), ("union", 2), ("leaf", 0), ("leaf", 1),
        ("union", 2), ("leaf", 2), ("leaf", 3))
    assert cotree(empty_graph(3)) == (("union", 3), ("leaf", 0), ("leaf", 1), ("leaf", 2))
    assert cotree(empty_graph(3), 0b100) == (("leaf", 2),)


def test_cograph_layer_rejects_an_empty_mask():
    g = path_graph(3)
    for fn in (cotree, cograph_alpha_omega):
        with pytest.raises(ValueError, match="mask must be nonempty"):
            fn(g, 0)


def test_cotree_p4_obstruction():
    obs = cotree(path_graph(4))
    assert isinstance(obs, PatternEmbedding)


def test_cotree_obstruction_inside_a_component():
    # the P4 sits inside one part of a disconnected graph
    g = build_graph(5, [(0, 1), (1, 2), (2, 3)])
    obs = cograph_alpha_omega(g)
    assert isinstance(obs, PatternEmbedding)
    assert obs.mapping == (0, 1, 2, 3)
    g2 = build_graph(6, [(5, 0), (0, 1), (1, 2), (2, 3)])  # inside a bigger comp
    obs2 = cograph_alpha_omega(g2)
    assert isinstance(obs2, PatternEmbedding)


def test_cotree_union_children_are_components():
    g = build_graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    tree = cotree(g)
    # the larger component {2, 3, 4} first
    assert tree == (("union", 2), ("join", 3), ("leaf", 2), ("leaf", 3), ("leaf", 4),
                    ("join", 2), ("leaf", 0), ("leaf", 1))
    assert check_cotree(g, g.full_mask, tree) == 2


def test_alpha_omega_k33():
    stable, clique = cograph_alpha_omega(complete_bipartite_graph(3, 3))
    assert stable == frozenset({0, 1, 2})
    assert clique == frozenset({0, 3})


def test_alpha_omega_k5():
    stable, clique = cograph_alpha_omega(complete_graph(5))
    assert len(stable) == 1 and clique == frozenset(range(5))


def test_alpha_omega_p4_obstruction():
    obs = cograph_alpha_omega(path_graph(4))
    assert isinstance(obs, PatternEmbedding)
    assert obs.mapping == (0, 1, 2, 3)


def test_alpha_omega_matches_exhaustive_small():
    for seed in range(150):
        n = 1 + stream(0x70, seed).below(16)
        g = random_cograph(n, stream(0x71, seed))
        stable, clique = cograph_alpha_omega(g)
        assert len(stable) == brute_max_stable_size(g)
        assert len(clique) == brute_max_clique_size(g)


def test_alpha_omega_product_bound_seeded():
    for seed in range(100):
        n = 1 + stream(0x72, seed).below(200)
        g = random_cograph(n, stream(0x73, seed))
        stable, clique = cograph_alpha_omega(g)
        assert len(stable) * len(clique) >= n
        assert max(len(stable), len(clique)) >= math.isqrt(n - 1) + 1


def test_alpha_omega_duality():
    for seed in range(40):
        g = random_cograph(30, stream(0x74, seed))
        stable, clique = cograph_alpha_omega(g)
        co_stable, co_clique = cograph_alpha_omega(complement(g))
        assert stable == co_clique and clique == co_stable


def test_p4free_extract_k44_all_vertices():
    s = p4free_extract(complete_bipartite_graph(4, 4),
                       exact_bipartite_oracle(Fraction(1, 2)))
    assert s == frozenset(range(8))
    assert is_p4_free(complete_bipartite_graph(4, 4))


def test_p4free_extract_single_vertex():
    s = p4free_extract(empty_graph(1), exact_bipartite_oracle(Fraction(1, 2)))
    assert s == frozenset({0})


def test_p4free_extract_p4_two_vertices():
    # the first empty 1-pair is the non-edge {0},{2}; its sides are single
    # vertices, so the oracle is called only at the top
    s = p4free_extract(path_graph(4), exact_bipartite_oracle(Fraction(1, 4)))
    assert s == frozenset({0, 2})


def test_p4free_extract_output_p4_free_and_sized():
    for seed in range(30):
        n = 2 + stream(0x75, seed).below(31)
        g = random_cograph(n, stream(0x76, seed))
        c = Fraction(1, 4)
        s = p4free_extract(g, exact_bipartite_oracle(c))
        assert not brute_has_induced_p4(induced(g, s))
        # |S| >= n^(1/2) / 2, integer form
        assert (2 * len(s)) ** 2 >= n


def test_p4free_rejects_bad_oracle_witness():
    def lying(g, mask):
        return BipartitePairWitness("empty", frozenset({0}), frozenset({1}))

    with pytest.raises(OracleError, match="oracle witness rejected"):
        p4free_extract(complete_graph(4), lying)

    def straying(g, mask):  # a pair of g, but outside the part {0, 1} on the second call
        if mask == g.full_mask:
            return BipartitePairWitness("empty", frozenset({0, 1}), frozenset({2, 3}))
        return BipartitePairWitness("empty", frozenset({2}), frozenset({3}))

    with pytest.raises(OracleError, match="leaves the current subgraph") as err:
        p4free_extract(empty_graph(4), straying)
    assert err.value.witness.X == frozenset({2})


def test_pair_search_matches_subset_enumeration():
    """The pruned backtracking in the exact oracle is a complete search:
    presence/absence agrees with brute enumeration of all (X, Y) pairs."""
    from itertools import combinations

    def brute(g, side, kind):
        want = kind == "complete"
        for xs in combinations(range(g.n), side):
            rest = [v for v in range(g.n) if v not in xs]
            for ys in combinations(rest, side):
                if all(g.has_edge(x, y) == want for x in xs for y in ys):
                    return True
        return False

    for trial in range(120):
        rng = stream(0x77, trial)
        n = randint(rng, 2, 9)
        g = gnp(n, Fraction(randint(rng, 0, 10), 10), rng)
        for side in range(1, n // 2 + 1):
            for kind in ("empty", "complete"):
                assert (find_pair_masks(g, side, kind) is not None) == brute(g, side, kind)


def test_exact_oracle_no_pair_raises():
    # C5 has no empty or complete pair with sides 2 (checked by hand: the
    # complement is C5 again and C5 has no 4-cycle subgraph)
    oracle = exact_bipartite_oracle(Fraction(1, 4))
    with pytest.raises(OracleError, match="no empty or complete pair"):
        oracle(cycle_graph(5))


def test_exact_oracle_guard():
    oracle = exact_bipartite_oracle(Fraction(1, 2))
    with pytest.raises(ValueError, match="n <= 32"):
        oracle(empty_graph(33))


def test_oracle_cutoff_default():
    # There is no cutoff: at any c the oracle gets every part of two or
    # more vertices, and only single vertices are kept without a call.
    for c in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 5)):
        exact = exact_bipartite_oracle(c)
        calls = []

        def counted(g, mask):
            calls.append(mask)
            return exact(g, mask)

        s = p4free_extract(empty_graph(8), counted)
        side = max(1, math.ceil(c * 8))
        assert s == frozenset(range(2 * side))
        assert all(mask.bit_count() >= 2 for mask in calls)
        assert len(calls) == 2 * side - 1


def _assert_threshold_answer(g, stable, clique):
    n = g.n
    assert stable == frozenset(range(0, n, 2))
    assert clique == frozenset([0, *range(1, n, 2)])
    assert all(g.adj[v] & mask_of(stable) == 0 for v in stable)
    assert all(mask_of(clique) & ~g.adj[v] == 1 << v for v in clique)


def test_threshold_graph_exact_alpha_omega_at_n2000():
    # The cotree is a chain of 1999 joins and unions; recursing on it
    # overflowed the default stack from about n = 500.  In pre-order the
    # chain's 1999 two-child entries come first, alternating, then its
    # 2000 leaves.
    g = threshold_graph(2000)
    tree = cotree(g)
    kinds = ["union" if m % 2 else "join" for m in range(2000, 1, -1)]
    assert tree[:1999] == tuple((kind, 2) for kind in kinds)
    assert tree[1999:] == tuple(("leaf", v) for v in range(2000))
    stable, clique = cograph_alpha_omega(g)
    _assert_threshold_answer(g, stable, clique)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_threshold_graph_answer_matches_brute_force(n):
    g = threshold_graph(n)
    stable, clique = cograph_alpha_omega(g)
    _assert_threshold_answer(g, stable, clique)
    assert len(stable) == brute_max_stable_size(g) and len(clique) == brute_max_clique_size(g)


def test_cograph_layer_needs_no_recursion():
    # With the stack capped 150 frames above this one, one frame per cotree
    # level (399 here) would overflow in cotree or fold, or in comparing,
    # printing or hashing the cotree.
    g = threshold_graph(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 150)
    try:
        tree = cotree(g)
        same = tree == cotree(g)
        text = repr(tree)
        hash(tree)
        stable, clique = cograph_alpha_omega(g)
    finally:
        sys.setrecursionlimit(limit)
    assert same and text.startswith("(('join', 2), ('union', 2)")
    assert [v for kind, v in tree if kind == "leaf"] == list(range(400))
    _assert_threshold_answer(g, stable, clique)


def test_threshold_graph_exact_alpha_omega_at_n5000():
    # The chain is split one vertex per level from the degree table, with
    # no component sweep; sweeping every level took about 13 s here.
    g = threshold_graph(5000)
    stable, clique = cograph_alpha_omega(g)
    _assert_threshold_answer(g, stable, clique)


def test_chain_cotrees_sweep_nothing(monkeypatch):
    # Each level of a threshold or caterpillar chain splits one vertex off
    # and keeps the rest whole by the keeper test, and the empty rest at the
    # last two-vertex part is not swept.  A sweep per level is what made the
    # n = 5000 chain take about 13 s.
    swept = []
    monkeypatch.setattr(cographs, "component_masks",
                        lambda adj, mask, *, co=False: swept.append((co, mask))
                        or component_masks(adj, mask, co=co))
    for g in (threshold_graph(2000), threshold_graph(5000),
              *(caterpillar_graph(700, seed) for seed in range(4))):
        swept.clear()
        assert isinstance(cotree(g), tuple)
        assert swept == []


def _sweeps_allowed(g, mask) -> Counter:
    """The sweeps ``cotree`` may make on the subgraph on ``mask``, as a
    multiset of (``co``, swept mask).  A part below the root is a union or
    a join by its parent's kind, so it gets one: the part less its isolated
    vertices by the plain sweep if it is a child of a join, less its
    universal ones by the complement sweep (``co=True``) if of a union.
    The root gets both.  Empty masks are never allowed.  The parts are
    walked in pre-order up to the first connected, co-connected one."""
    rows = {"union": g.adj, "join": complement(g, mask).adj}
    sweep = {"union": False, "join": True}
    allowed = Counter()
    stack = [(mask, ("union", "join"))]
    while stack:
        part, kinds = stack.pop()
        if part & (part - 1) == 0:
            continue
        for kind in kinds:
            rest = part & ~mask_of(v for v in bits(part) if not rows[kind][v] & part)
            if rest:
                allowed[sweep[kind], rest] += 1
        for kind, other in (("union", "join"), ("join", "union")):
            parts = component_masks(rows[kind], part)
            if len(parts) > 1:
                stack.extend((child, (other,)) for child in reversed(parts))
                break
        else:
            break
    return allowed


def _graphs_for_sweep_counts():
    yield from small_graphs(5)
    for seed in range(40):
        rng = stream(0x5E, seed)
        n = randint(rng, 2, 80)
        yield random_cograph(n, rng)
        yield balanced_cograph(n, rng)
    yield from (caterpillar_graph(n, seed) for seed in range(4) for n in (2, 3, 60))


def test_each_part_below_the_root_is_swept_at_most_once(monkeypatch):
    # Counted against ``_sweeps_allowed``: each part below the root is swept
    # at most once, for its parent's other kind, and the root at most twice.
    # Sweeping a join below the root for components first (the 4-cycle in a
    # 4-cycle plus an isolated vertex) or sweeping an empty rest fails here.
    # Only the calls made by ``cotree`` itself count, not ``find_p4``'s.
    swept = Counter()

    def counted(adj, mask, *, co=False):
        if sys._getframe(1).f_code is cotree.__code__:
            swept[co, mask] += 1
        return component_masks(adj, mask, co=co)

    monkeypatch.setattr(cographs, "component_masks", counted)
    graphs = 0
    for g in _graphs_for_sweep_counts():
        swept.clear()
        cotree(g)
        assert not swept - _sweeps_allowed(g, g.full_mask), g.adj
        graphs += 1
    assert graphs > 1100


def _prime(g, mask) -> bool:
    """Connected and co-connected on at least two vertices (plain sweeps
    over g's rows and over complement rows)."""
    return (mask & (mask - 1) != 0 and len(component_masks(g.adj, mask)) == 1
            and len(component_masks(complement(g, mask).adj, mask)) == 1)


def _assert_p4(g, mask, path):
    assert set(path) <= set(bits(mask))
    assert verify(g, PatternEmbedding("P4", path_graph(4), tuple(path)))


def test_find_p4_on_every_small_prime_graph():
    primes = 0
    for g in small_graphs(6):
        if _prime(g, g.full_mask):
            primes += 1
            assert find_induced_path(g, 4).found
            _assert_p4(g, g.full_mask, find_p4(g, g.full_mask))
    assert primes > 1000


def test_find_p4_on_masked_gnp():
    for seed in range(60):
        rng = stream(0x9A, seed)
        n = randint(rng, 4, 300 if seed % 3 == 0 else 40)
        g = gnp(n, Fraction(randint(rng, 1, 9), 10), rng)
        mask = sum(1 << v for v in range(n) if rng.below(5))
        for part in (mask, g.full_mask):
            if _prime(g, part):
                _assert_p4(g, part, find_p4(g, part))


def _blow_up(h, rng):
    """h with every vertex but 0 replaced by a random cograph on 1..40
    vertices (a module), ids kept in block order, so vertex 0 stays the
    smallest."""
    sizes = [1] + [randint(rng, 1, 40) for _ in range(h.n - 1)]
    starts = [sum(sizes[:u]) for u in range(h.n)]
    edges = []
    for u in range(h.n):
        block = random_cograph(sizes[u], rng)
        edges += [(starts[u] + a, starts[u] + b) for a, b in graph_edges(block)]
        for w in bits(h.adj[u] >> (u + 1) << (u + 1)):
            edges += [(starts[u] + a, starts[w] + b)
                      for a in range(sizes[u]) for b in range(sizes[w])]
    return build_graph(sum(sizes), edges)


def test_find_p4_on_blown_up_prime_graphs():
    # Substituting modules keeps every step's case: the small prime graphs
    # reach all three steps of the search (the split-graph pair on 372 of
    # them), and so do their blow-ups, on up to 200 vertices.
    rng = stream(0x9D, 0)
    for i, h in enumerate(g for g in small_graphs(6) if _prime(g, g.full_mask)):
        if i % 50 == 0:
            g = _blow_up(h, rng)
            _assert_p4(g, g.full_mask, find_p4(g, g.full_mask))


def test_find_p4_split_graph_step():
    # v = 0 sees {1, 2}, a clique; 3 and 4 are single non-neighbours with
    # incomparable neighbourhoods {1} and {2}: only the last step applies.
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    assert find_p4(g, g.full_mask) == (3, 1, 2, 4)
    # v = 0 misses 3, which splits the co-component {1, 2} of its
    # neighbourhood: the second step, a-v-b-y.
    g = build_graph(4, [(0, 1), (0, 2), (2, 3)])
    assert find_p4(g, g.full_mask) == (1, 0, 2, 3)


def test_find_p4_rejects_a_part_that_splits():
    for g in (empty_graph(4), complete_graph(4), complete_bipartite_graph(2, 2)):
        with pytest.raises(ValueError, match="not connected and co-connected"):
            find_p4(g, g.full_mask)


def test_cotree_p4_existence_matches_brute_force_on_small_graphs():
    for g in small_graphs(6):
        tree = cotree(g)
        if find_induced_path(g, 4).found:
            assert isinstance(tree, PatternEmbedding)
            assert verify(g, tree)
        else:
            assert tree == oracle_cotree(g)


def _masked_corpus():
    """(graph, mask): random cographs, G(n, p) graphs, threshold and
    caterpillar graphs, each with the full mask and a random one."""
    for seed in range(120):
        rng = stream(0x9B, seed)
        n = randint(rng, 1, 90)
        for g in (random_cograph(n, rng), balanced_cograph(n, rng),
                  gnp(n, Fraction(randint(rng, 0, 10), 10), rng),
                  threshold_graph(n), caterpillar_graph(n, seed)):
            yield g, g.full_mask
            yield g, sum(1 << v for v in range(n) if rng.below(4)) or 1


def test_cotree_and_fold_match_the_sweeping_oracle(monkeypatch):
    seen = []
    monkeypatch.setattr(cographs, "find_p4",
                        lambda g, part: seen.append(part) or find_p4(g, part))
    cographs_found = 0
    for g, mask in _masked_corpus():
        seen.clear()
        want = oracle_cotree(g, mask)
        got = cotree(g, mask)
        if isinstance(want, PatternEmbedding):
            # The same part: the first connected, co-connected one in
            # pre-order, which holds the oracle's P4.
            assert isinstance(got, PatternEmbedding) and verify(g, got)
            assert len(seen) == 1 and _prime(g, seen[0])
            assert mask_of(want.mapping) & ~seen[0] == 0
            assert mask_of(got.mapping) & ~seen[0] == 0
        else:
            cographs_found += 1
            check_cotree(g, mask, got)
            assert got == want
            assert cograph_alpha_omega(g, mask) == oracle_cograph_alpha_omega(g, mask)
    assert cographs_found > 600


@pytest.mark.parametrize("seed", range(4))
def test_caterpillar_cotree_has_depth_n_minus_1(seed):
    # Depth 699 over 700 leaves, with two or more children per entry, is
    # a chain whose entries each have one leaf child.
    g = caterpillar_graph(700, seed)
    tree = cotree(g)
    assert check_cotree(g, g.full_mask, tree) == 699
    assert tree == oracle_cotree(g)
    assert cograph_alpha_omega(g) == oracle_cograph_alpha_omega(g)


def test_p4free_extract_matches_the_recursion():
    # Same set, and the same first OracleError when the exact oracle finds
    # no pair somewhere down the recursion.
    errors = 0
    for seed in range(60):
        rng = stream(0x9C, seed)
        n = randint(rng, 2, 22)
        g = (random_cograph(n, rng) if seed % 2
             else gnp(n, Fraction(randint(rng, 0, 10), 10), rng))
        oracle = exact_bipartite_oracle(Fraction(1, randint(rng, 2, 5)))
        try:
            want = oracle_p4free_extract(g, oracle)
        except OracleError as err:
            errors += 1
            with pytest.raises(OracleError) as got:
                p4free_extract(g, oracle)
            assert str(got.value) == str(err)
        else:
            assert p4free_extract(g, oracle) == want
    assert errors > 0


def test_p4free_extract_needs_no_recursion():
    # A valid oracle that peels one vertex per call: the doubling is 1999
    # levels deep.  With the stack capped 150 frames above this one, one
    # frame per level would overflow.
    calls = []

    def peel(g, mask):
        calls.append(mask)
        low = mask & -mask
        return BipartitePairWitness("empty", frozenset(bits(low)), frozenset(bits(mask ^ low)))

    g = empty_graph(2000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 150)
    try:
        s = p4free_extract(g, peel)
    finally:
        sys.setrecursionlimit(limit)
    assert s == frozenset(range(2000))
    assert calls == [g.full_mask >> i << i for i in range(1999)]
