import ast
from fractions import Fraction
from pathlib import Path

import pytest

from pathcert.graph import (build_graph, complete_bipartite_graph, cycle_graph,
                            empty_graph)
from pathcert.generators import gnp
from pathcert.rng import stream
from pathcert.witnesses import (BipartitePairWitness, HomogeneousSetWitness,
                                InducedPathWitness, PatternEmbedding, Verdict,
                                count_edges_within, verify, verify_bipartite_pair,
                                verify_embedding, verify_homogeneous,
                                verify_induced_path)
from pathcert.graph import complement, path_graph

from conftest import (edges_within, pairwise_verify_embedding, pairwise_verify_induced_path,
                      randint)


def test_path_c5_four_consecutive_accepts():
    assert verify_induced_path(cycle_graph(5), InducedPathWitness((0, 1, 2, 3)))


def test_path_full_cycle_rejects_endpoint_chord():
    v = verify_induced_path(cycle_graph(5), InducedPathWitness((0, 1, 2, 3, 4)))
    assert not v and v.reason == "forbidden-edge"


def test_path_repeated_vertex_rejects():
    v = verify_induced_path(cycle_graph(5), InducedPathWitness((0, 1, 0)))
    assert not v and v.reason == "repeated-vertex"


def test_path_out_of_range_rejects():
    v = verify_induced_path(cycle_graph(5), InducedPathWitness((0, 7)))
    assert not v and v.reason == "vertex-out-of-range"


def test_path_missing_edge_rejects():
    v = verify_induced_path(cycle_graph(5), InducedPathWitness((0, 2)))
    assert not v and v.reason == "missing-edge"


def test_induced_path_verdicts_match_the_pairwise_check():
    """Seeded paths on random vertex orders inside a larger host, each with
    one chord, one gap or several chords: verdict, reason and detail match
    the pairwise check, so the first chord is still the first in (i, j)
    order."""
    for seed in range(90):
        rng = stream(0x1DA7, seed)
        n = randint(rng, 3, 120)
        host = n + rng.below(20)
        order: list[int] = []
        while len(order) < n:
            v = rng.below(host)
            if v not in order:
                order.append(v)
        edges = {(order[i], order[i + 1]) for i in range(n - 1)}
        edges |= {(u, v) for u in range(host) for v in range(u + 1, host)
                  if (u not in order or v not in order) and rng.below(2)}
        intact = build_graph(host, edges)
        if seed % 3 == 1:  # one gap
            i = rng.below(n - 1)
            edges.discard((order[i], order[i + 1]))
        else:  # one chord, or several
            for _ in range(1 if seed % 3 == 0 else randint(rng, 2, 6)):
                i = rng.below(n - 2)
                edges.add((order[i], order[randint(rng, i + 2, n - 1)]))
        w = InducedPathWitness(tuple(order))
        assert verify_induced_path(intact, w)
        got = verify_induced_path(build_graph(host, edges), w)
        assert not got and got == pairwise_verify_induced_path(build_graph(host, edges), w)


def embedding_cases(rng, pattern):
    """(host, map) pairs for ``pattern``: an intact induced copy on a random
    vertex order of a larger host with random other edges, then the same
    host with one or several pattern pairs flipped, two map entries swapped,
    one entry moved outside the copy, repeated or out of range."""
    k = pattern.n
    size = k + rng.below(6)
    order = list(range(size))
    for i in range(size - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    m = order[:k]
    edges = {frozenset((m[i], m[j])) for i in range(k) for j in range(i + 1, k)
             if pattern.has_edge(i, j)}
    edges |= {frozenset((u, v)) for u in order[k:] for v in range(size)
              if u != v and rng.below(3) == 0}
    yield build_graph(size, map(tuple, edges)), m
    if k < 2:
        return
    for flips in (1, 1, 3):
        mutated = set(edges)
        for _ in range(flips):
            i = rng.below(k - 1)
            mutated ^= {frozenset((m[i], m[randint(rng, i + 1, k - 1)]))}
        yield build_graph(size, map(tuple, mutated)), m
    host = build_graph(size, map(tuple, edges))
    i, j = rng.below(k), rng.below(k)
    swapped = list(m)
    swapped[i], swapped[j] = m[j], m[i]
    yield host, swapped
    if size > k:
        yield host, m[:i] + [order[randint(rng, k, size - 1)]] + m[i + 1:]
    yield host, m[:-1] + [m[0]]
    yield host, m[:-1] + [size]


def test_embedding_verdicts_match_the_pairwise_check():
    """Paths, their complements and random patterns on seeded hosts, intact
    and mutated: verdict, reason and detail match the pairwise check, so the
    first mismatch is still the first in (i, j) order."""
    rejected = 0
    for seed in range(60):
        rng = stream(0xE3B, seed)
        k = randint(rng, 1, 24)
        for pattern in (path_graph(k), complement(path_graph(k)),
                        gnp(k, Fraction(randint(rng, 0, 10), 10), rng)):
            for host, m in embedding_cases(rng, pattern):
                w = PatternEmbedding("pattern", pattern, tuple(m))
                got = verify_embedding(host, w)
                assert got == pairwise_verify_embedding(host, w), (seed, k, m)
                rejected += not got
    assert rejected > 500


def test_long_path_and_antipath_embeddings_verify():
    """P3000 and co-P3000 maps onto the identity: accepted on their own
    pattern, rejected at the pair (0, 1) on the other one."""
    p, co = path_graph(3000), complement(path_graph(3000))
    order = tuple(range(3000))
    for name, pattern in (("P3000", p), ("co-P3000", co)):
        for host in (p, co):
            got = verify_embedding(host, PatternEmbedding(name, pattern, order))
            if host is pattern:
                assert got
            else:
                assert got == Verdict(False, "adjacency-mismatch",
                                      "pattern pair (0,1) vs host pair (0,1)")


def test_pair_k33_complete_accepts():
    g = complete_bipartite_graph(3, 3)
    w = BipartitePairWitness("complete", frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    v = verify_bipartite_pair(g, w)
    assert v and v.detail == "sides 3,3"


def test_pair_two_triangles_empty_accepts():
    g = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert verify_bipartite_pair(g, BipartitePairWitness("empty", frozenset({0, 1, 2}),
                                                         frozenset({3, 4, 5})))


def test_pair_overlap_rejects():
    g = complete_bipartite_graph(3, 3)
    v = verify_bipartite_pair(g, BipartitePairWitness("complete", frozenset({0, 1}),
                                                      frozenset({1, 4})))
    assert not v and (v.reason, v.detail) == ("overlapping-sides", "[1]")


def test_pair_wrong_kind_rejects():
    g = complete_bipartite_graph(2, 2)
    v = verify_bipartite_pair(g, BipartitePairWitness("empty", frozenset({0, 1}),
                                                      frozenset({2, 3})))
    assert not v and v.reason == "forbidden-edge"


@pytest.mark.parametrize("kind", ["empty", "complete"])
def test_pair_with_an_empty_side_rejects(kind):
    # With one side empty there is no cross pair to contradict either kind;
    # the side check alone keeps a pair's sides at 1 or more.
    g = complete_bipartite_graph(2, 2)
    for x, y in ((frozenset(), frozenset({2, 3})), (frozenset({0, 1}), frozenset())):
        v = verify_bipartite_pair(g, BipartitePairWitness(kind, x, y))
        assert not v and v.reason == "empty-side"


@pytest.mark.parametrize("kind", ["empty", "complete"])
def test_pair_with_an_out_of_range_vertex_rejects(kind):
    # The pair is otherwise valid; an empty pair tests no cross pair against
    # a vertex outside the graph, so only the range check keeps it out.
    g = empty_graph(4) if kind == "empty" else complete_bipartite_graph(2, 2)
    x, y = frozenset({0, 1}), frozenset({2, 3})
    assert verify_bipartite_pair(g, BipartitePairWitness(kind, x, y))
    for bad in (4, -1):
        for w in (BipartitePairWitness(kind, x | {bad}, y),
                  BipartitePairWitness(kind, x, y | {bad})):
            v = verify_bipartite_pair(g, w)
            assert not v and (v.reason, v.detail) == ("vertex-out-of-range",
                                                      f"vertex {bad} not in 0..3")


def test_pair_unknown_kind_rejects():
    v = verify_bipartite_pair(complete_bipartite_graph(2, 2),
                              BipartitePairWitness("full", frozenset({0}), frozenset({2})))
    assert not v and (v.reason, v.detail) == ("unknown-kind", "full")


def triangle_plus_isolated(total=10):
    return build_graph(total, [(0, 1), (0, 2), (1, 2)])


def test_homogeneous_exact_stable_accepts():
    g = empty_graph(5)
    w = HomogeneousSetWitness("stable", frozenset(range(5)), Fraction(0), 0)
    assert verify_homogeneous(g, w)


def test_homogeneous_sparse_budget_accepts():
    # 3 edges inside a 10-set, budget (1/10) * 45 = 4.5
    g = triangle_plus_isolated()
    w = HomogeneousSetWitness("stable", frozenset(range(10)), Fraction(1, 10), 3)
    assert verify_homogeneous(g, w)


def test_homogeneous_near_clique_rejects():
    # K4 minus an edge misses 1 pair > (1/10) * 6 = 0.6
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    w = HomogeneousSetWitness("clique", frozenset(range(4)), Fraction(1, 10), 5)
    v = verify_homogeneous(g, w)
    assert not v and v.reason == "too-many-missing-edges"


def test_homogeneous_epsilon_range_is_zero_to_one_inclusive():
    # 3 edges inside a 10-set: epsilon = 1 allows all 45 pairs
    g = triangle_plus_isolated()
    assert verify_homogeneous(g, HomogeneousSetWitness("stable", frozenset(range(10)),
                                                       Fraction(1), 3))
    for eps in (1 + Fraction(1, 10 ** 6), -Fraction(1, 10 ** 6)):
        v = verify_homogeneous(g, HomogeneousSetWitness("stable", frozenset(range(10)), eps, 3))
        assert not v and (v.reason, v.detail) == ("epsilon-out-of-range", str(eps))


def test_homogeneous_sparse_over_budget_rejects():
    # 3 edges inside a 10-set exceed (1/20) * 45 = 2.25
    g = triangle_plus_isolated()
    v = verify_homogeneous(g, HomogeneousSetWitness("stable", frozenset(range(10)),
                                                    Fraction(1, 20), 3))
    assert not v and (v.reason, v.detail) == ("too-many-edges", "3 > 9/4")


def test_homogeneous_empty_set_and_unknown_kind_reject():
    g = triangle_plus_isolated()
    v = verify_homogeneous(g, HomogeneousSetWitness("stable", frozenset(), Fraction(0), 0))
    assert not v and v.reason == "empty-set"
    v = verify_homogeneous(g, HomogeneousSetWitness("dense", frozenset({0}), Fraction(0), 0))
    assert not v and (v.reason, v.detail) == ("unknown-kind", "dense")


def test_homogeneous_out_of_range_vertex_rejects():
    g = empty_graph(5)
    for bad in (5, -1):
        v = verify_homogeneous(g, HomogeneousSetWitness("stable", frozenset({0, bad}),
                                                        Fraction(0), 0))
        assert not v and (v.reason, v.detail) == ("vertex-out-of-range",
                                                  f"vertex {bad} not in 0..4")


def test_homogeneous_recount_catches_stale_bookkeeping():
    g = triangle_plus_isolated()
    w = HomogeneousSetWitness("stable", frozenset(range(10)), Fraction(1, 2), 99)
    v = verify_homogeneous(g, w)
    assert not v and v.reason == "edge-count-mismatch"


def test_embedding_identity_and_mismatch():
    g = cycle_graph(5)
    w = PatternEmbedding("C5", g, (0, 1, 2, 3, 4))
    assert verify_embedding(g, w)
    w = PatternEmbedding("P3", path_graph(3), (0, 1, 3))
    v = verify_embedding(g, w)
    assert not v and v.reason == "adjacency-mismatch"


def _direct_path_ok(g, vs):
    if len(set(vs)) != len(vs) or any(not 0 <= v < g.n for v in vs):
        return False
    return all(g.has_edge(vs[i], vs[j]) == (j == i + 1)
               for i in range(len(vs)) for j in range(i + 1, len(vs)))


def _direct_pair_ok(g, w):
    if not w.X or not w.Y or (w.X & w.Y):
        return False
    if any(not 0 <= v < g.n for v in w.X | w.Y):
        return False
    want = w.kind == "complete"
    return all(g.has_edge(x, y) == want for x in w.X for y in w.Y)


def _direct_hom_ok(g, w):
    if not w.S or any(not 0 <= v < g.n for v in w.S):
        return False
    s = len(w.S)
    e = edges_within(g, w.S)
    if e != w.edge_count:
        return False
    budget = w.epsilon * (s * (s - 1) // 2)
    return (e if w.kind == "stable" else s * (s - 1) // 2 - e) <= budget


def test_soundness_fuzz_mutated_witnesses_match_direct_recheck():
    """Verifier verdicts agree with a from-scratch recheck on randomly
    mutated witnesses (vertex swaps, kind toggles, vertex drops)."""
    rng = stream(0xFADE)
    checked = 0
    for trial in range(300):
        n = randint(rng, 4, 12)
        g = gnp(n, Fraction(randint(rng, 1, 9), 10), stream(0xFADE, trial))
        # a valid path via the library search, a pair, and a homogeneous set
        from pathcert.patterns import find_induced_path
        res = find_induced_path(g, min(4, n))
        if res.found:
            vs = list(res.embedding.mapping)
            mutated = list(vs)
            mutated[rng.below(len(vs))] = rng.below(n)
            w = InducedPathWitness(tuple(mutated))
            assert bool(verify(g, w)) == _direct_path_ok(g, mutated)
            checked += 1
        half = n // 2
        pair = BipartitePairWitness("empty", frozenset(range(half)),
                                    frozenset(range(half, n)))
        mutations = [
            BipartitePairWitness("complete", pair.X, pair.Y),
            BipartitePairWitness("empty", pair.X | {min(pair.Y)}, pair.Y),
            BipartitePairWitness("empty", pair.X, pair.Y - {max(pair.Y)}),
        ]
        for w in [pair] + mutations:
            assert bool(verify_bipartite_pair(g, w)) == _direct_pair_ok(g, w)
            checked += 1
        sset = frozenset(range(0, n, 2))
        hom = HomogeneousSetWitness("stable", sset, Fraction(1, 2),
                                    edges_within(g, sset))
        toggled = HomogeneousSetWitness("clique", sset, Fraction(1, 2), hom.edge_count)
        for w in (hom, toggled):
            assert bool(verify_homogeneous(g, w)) == _direct_hom_ok(g, w)
            checked += 1
    assert checked > 1000


def _direct_embedding_ok(g, w):
    m = w.mapping
    if len(set(m)) != len(m) or len(m) != w.pattern.n:
        return False
    if any(not 0 <= v < g.n for v in m):
        return False
    return all(w.pattern.has_edge(i, j) == g.has_edge(m[i], m[j])
               for i in range(len(m)) for j in range(i + 1, len(m)))


def test_soundness_fuzz_mutated_embeddings():
    from pathcert.patterns import find_induced_path
    rng = stream(0xFEED)
    checked = 0
    for trial in range(200):
        n = randint(rng, 5, 12)
        g = gnp(n, Fraction(1, 2), stream(0xFEED, trial))
        res = find_induced_path(g, 4)
        if not res.found:
            continue
        good = res.embedding
        assert verify_embedding(g, good)
        mutated = list(good.mapping)
        mutated[rng.below(4)] = rng.below(n)
        w = PatternEmbedding(good.pattern_name, good.pattern, tuple(mutated))
        assert bool(verify_embedding(g, w)) == _direct_embedding_ok(g, w)
        checked += 1
    assert checked > 100


def test_count_edges_within_matches_direct():
    g = gnp(15, Fraction(1, 2), stream(0xBEEF))
    s = frozenset({1, 3, 4, 8, 9, 14})
    assert count_edges_within(g, s) == edges_within(g, s)


def test_verify_dispatch_rejects_non_witness():
    with pytest.raises(TypeError):
        verify(empty_graph(2), object())


def test_empty_path_and_short_mapping_reject():
    v = verify_induced_path(path_graph(3), InducedPathWitness(()))
    assert not v and v.reason == "empty-sequence"
    v = verify_embedding(path_graph(5), PatternEmbedding("P4", path_graph(4), (0, 1, 2)))
    assert not v and v.reason == "size-mismatch"


TESTS = Path(__file__).resolve().parent
WITNESSES = TESTS.parent / "src" / "pathcert" / "witnesses.py"


def string_constants(path) -> set[str]:
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_rejection_reason_is_tested():
    """Each reason a verifier in witnesses.py gives in a ``Verdict(False,
    "<reason>", ...)`` literal is written in some test module, so a check
    that no test reaches shows up as a reason no test names."""
    reasons = {node.args[1].value for node in ast.walk(ast.parse(WITNESSES.read_text()))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Verdict"
               and len(node.args) >= 2 and isinstance(node.args[0], ast.Constant)
               and node.args[0].value is False}
    assert len(reasons) >= 15  # the scan reads every reason written today
    named = set().union(*map(string_constants, TESTS.glob("test_*.py")))
    assert not reasons - named, f"no test names {sorted(reasons - named)}"
