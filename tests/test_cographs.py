import math
import sys
from fractions import Fraction

import pytest

from pathcert.cographs import (BipartiteOracle, CographDecomposition, OracleError,
                               cograph_alpha_omega, cotree, exact_bipartite_oracle,
                               p4free_extract)
from pathcert.graph import (build_graph, complement, complete_bipartite_graph,
                            complete_graph, cycle_graph, empty_graph, induced,
                            mask_of, path_graph)
from pathcert.generators import random_cograph
from pathcert.patterns import contains_induced
from pathcert.rng import stream
from pathcert.witnesses import BipartitePairWitness, PatternEmbedding

from conftest import (brute_has_induced_p4, brute_max_clique_size, brute_max_stable_size,
                      stack_depth, threshold_graph)


def is_p4_free(g) -> bool:
    return not contains_induced(g, path_graph(4)).found


def test_cotree_leaf_and_kinds():
    tree = cotree(complete_bipartite_graph(2, 2))
    assert isinstance(tree, CographDecomposition) and tree.kind == "join"
    assert sorted(tree.leaves()) == [0, 1, 2, 3]
    tree = cotree(empty_graph(3))
    assert tree.kind == "union" and len(tree.children) == 3


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
    assert tree.kind == "union"
    childsets = {frozenset(ch.leaves()) for ch in tree.children}
    assert childsets == {frozenset({2, 3, 4}), frozenset({0, 1})}


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
    # base cutoff 4 means the only oracle call happens at the top: the first
    # empty 1-pair is the non-edge {0},{2}
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
    lying = BipartiteOracle(Fraction(1, 2),
                            lambda g, mask: BipartitePairWitness("empty",
                                                           frozenset({0}),
                                                           frozenset({1})))
    with pytest.raises(OracleError):
        p4free_extract(complete_graph(4), lying)


def test_p4free_rejects_undersized_sides():
    def tiny_pair(g, mask):
        return BipartitePairWitness("empty", frozenset({0}), frozenset({1}))

    lying = BipartiteOracle(Fraction(1, 2), tiny_pair)
    with pytest.raises(OracleError, match="below the promised"):
        p4free_extract(empty_graph(8), lying)


def test_pair_search_matches_subset_enumeration():
    """The pruned backtracking in the exact oracle is a complete search:
    presence/absence agrees with brute enumeration of all (X, Y) pairs."""
    from itertools import combinations
    from pathcert.cographs import _find_pair_masks
    from pathcert.generators import gnp

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
        n = rng.randint(2, 9)
        g = gnp(n, Fraction(rng.randint(0, 10), 10), rng)
        for side in range(1, n // 2 + 1):
            for kind in ("empty", "complete"):
                assert (_find_pair_masks(g, side, kind) is not None) == brute(g, side, kind)


def test_exact_oracle_no_pair_raises():
    # C5 has no empty or complete pair with sides 2 (checked by hand: the
    # complement is C5 again and C5 has no 4-cycle subgraph)
    oracle = exact_bipartite_oracle(Fraction(1, 4))
    with pytest.raises(OracleError, match="no empty or complete pair"):
        oracle.fn(cycle_graph(5))


def test_exact_oracle_guard():
    oracle = exact_bipartite_oracle(Fraction(1, 2))
    with pytest.raises(ValueError, match="n <= 32"):
        oracle.fn(empty_graph(33))


def test_oracle_cutoff_default():
    assert exact_bipartite_oracle(Fraction(1, 4)).effective_cutoff == 4
    assert exact_bipartite_oracle(Fraction(1, 2)).effective_cutoff == 2
    assert exact_bipartite_oracle(Fraction(2, 5)).effective_cutoff == 3


def _assert_threshold_answer(g, stable, clique):
    n = g.n
    assert stable == frozenset(range(0, n, 2))
    assert clique == frozenset([0, *range(1, n, 2)])
    assert all(g.adj[v] & mask_of(stable) == 0 for v in stable)
    assert all(mask_of(clique) & ~g.adj[v] == 1 << v for v in clique)


def test_threshold_graph_exact_alpha_omega_at_n2000():
    # The cotree is a chain of 1999 joins and unions; recursing on it
    # overflowed the default stack from about n = 500.
    g = threshold_graph(2000)
    tree = cotree(g)
    depth, node = 0, tree
    while node.kind != "leaf":
        assert [child.kind for child in node.children][1:] == ["leaf"]
        depth, node = depth + 1, node.children[0]
    assert depth == 1999
    assert tree.leaves() == list(range(2000))
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
    # level (399 here) would overflow in cotree, fold or leaves.
    g = threshold_graph(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 150)
    try:
        tree = cotree(g)
        leaves = tree.leaves()
        stable, clique = cograph_alpha_omega(g)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(leaves) == list(range(400))
    _assert_threshold_answer(g, stable, clique)
