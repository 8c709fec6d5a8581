from fractions import Fraction
from itertools import permutations

import pytest

from pathcert.graph import complement, cycle_graph, empty_graph, path_graph
from pathcert.generators import gnp
from pathcert.patterns import find_induced_path, is_pk_copk_free
from pathcert.rng import stream
from pathcert.witnesses import verify_embedding

from conftest import brute_has_induced_path, contains_induced, small_graphs


def test_find_path_identity():
    res = find_induced_path(path_graph(7), 7)
    assert res.found and res.embedding.mapping == (0, 1, 2, 3, 4, 5, 6)


def test_find_path_c5_has_no_p5():
    # independent exhaustive check: every ordering of all 5 vertices
    assert not any(
        all(cycle_graph(5).has_edge(p[i], p[j]) == (j == i + 1)
            for i in range(5) for j in range(i + 1, 5))
        for p in permutations(range(5)))
    assert not find_induced_path(cycle_graph(5), 5).found


def test_find_path_c6_has_p5():
    res = find_induced_path(cycle_graph(6), 5)
    assert res.found
    assert verify_embedding(cycle_graph(6), res.embedding)


def recursive_induced_path(g, k):
    """The search as one recursive call per path vertex: (path, nodes
    explored), the reference for the explicit-stack search's order and count."""
    explored = 0

    def extend(path, nbr_union):
        nonlocal explored
        explored += 1
        if len(path) == k:
            return tuple(path)
        last = path[-1]
        for v in range(g.n):
            if g.has_edge(last, v) and not (nbr_union >> v & 1):
                found = extend(path + [v], nbr_union | g.adj[last] | 1 << last)
                if found:
                    return found
        return None

    for start in range(g.n):
        found = extend([start], 1 << start)
        if found:
            return found, explored
    return None, explored


def test_find_path_matches_the_recursive_search():
    graphs = list(small_graphs(5))
    graphs += [gnp(5 + stream(0x7A, i).below(20), Fraction(stream(0x7B, i).below(9) + 1, 10),
                   stream(0x7C, i)) for i in range(60)]
    for g in graphs:
        for k in range(1, min(g.n, 8) + 1):
            res = find_induced_path(g, k)
            path, explored = recursive_induced_path(g, k)
            assert res.nodes_explored == explored
            assert (res.embedding.mapping if res.found else None) == path


def test_find_path_longer_than_the_recursion_limit():
    res = find_induced_path(path_graph(5000), 5000)
    assert res.found and res.embedding.mapping == tuple(range(5000))
    assert res.nodes_explored == 5000
    res = find_induced_path(cycle_graph(3000), 2999)
    assert res.found and res.embedding.mapping == tuple(range(2999))


def test_find_path_k_above_n():
    assert not find_induced_path(path_graph(3), 4).found


def test_find_path_k1():
    res = find_induced_path(empty_graph(3), 1)
    assert res.found and len(res.embedding.mapping) == 1


def test_contains_k2_anywhere_with_an_edge():
    assert contains_induced(path_graph(2), path_graph(2)).found


def test_contains_no_p4_in_c4():
    # brute: the only 4-subset of C4 is C4 itself, which is not P4
    assert not contains_induced(cycle_graph(4), path_graph(4)).found


def test_contains_c5_in_c5_identity():
    res = contains_induced(cycle_graph(5), cycle_graph(5))
    assert res.found and res.embedding.mapping == (0, 1, 2, 3, 4)
    assert res.embedding.pattern_name == "pattern"


def test_contains_guards_large_patterns():
    with pytest.raises(ValueError):
        contains_induced(empty_graph(12), empty_graph(11))


def test_found_embeddings_reverify():
    for seed in range(40):
        g = gnp(9, Fraction(1, 2), stream(0xABCD, seed))
        for k in range(2, 6):
            res = find_induced_path(g, k)
            if res.found:
                assert verify_embedding(g, res.embedding)
            res2 = contains_induced(g, path_graph(k))
            assert res.found == res2.found
            if res2.found:
                assert verify_embedding(g, res2.embedding)


def test_cross_oracle_and_brute_force_agree_small():
    for seed in range(25):
        g = gnp(7, Fraction(seed % 9 + 1, 10), stream(0xDCBA, seed))
        for k in range(1, 7):
            expected = brute_has_induced_path(g, k)
            assert find_induced_path(g, k).found == expected


def test_path_monotonicity():
    for seed in range(30):
        g = gnp(9, Fraction(1, 2), stream(0xAAAA, seed))
        for k in range(2, 7):
            if find_induced_path(g, k).found:
                assert find_induced_path(g, k - 1).found


def test_pk_copk_free_c5():
    assert is_pk_copk_free(cycle_graph(5), 5) is None


def test_pk_copk_certificates():
    emb = is_pk_copk_free(path_graph(5), 5)
    assert emb is not None and emb.pattern_name == "P5"
    assert verify_embedding(path_graph(5), emb)
    co = complement(path_graph(5))
    emb = is_pk_copk_free(co, 5)
    assert emb is not None and emb.pattern_name == "co-P5"
    assert verify_embedding(co, emb)


def test_pk_copk_requires_k_at_least_2():
    with pytest.raises(ValueError):
        is_pk_copk_free(empty_graph(2), 1)
