"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines on success).  Every quantitative claim is asserted exactly - integer
comparisons and Fraction thresholds - and each test also asserts its stated
wall-clock budget.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import combinations

from pathcert.cographs import cograph_alpha_omega, p4free_extract
from pathcert.extractor import ExtractorParams, path_guarantee, path_or_empty_bipartite
from pathcert.formats import decode_graph6, encode_graph6
from pathcert.generators import gnp, random_cograph, rejection_sample_ck
from pathcert.graph import (Graph, bits, complete_bipartite_graph, complete_graph,
                            empty_graph, induced, mask_of, path_graph)
from pathcert.homogeneous import prune_high_degree
from pathcert.patterns import find_induced_path, is_pk_copk_free
from pathcert.pipeline import choose_constants, extract_linear_bipartite
from pathcert.rng import stream
from pathcert.witnesses import (InducedPathWitness, PatternEmbedding, verify,
                                verify_embedding)

from conftest import (balanced_cograph, brute_max_clique_size, brute_max_stable_size,
                      closed_degree, contains_induced, exact_bipartite_oracle,
                      planted_sparse_graph, randint, seeded_connected_graph)


def _brute_p4_free(g: Graph) -> bool:
    """Degree-sequence brute force: a 4-set induces a path iff its internal
    degree multiset is {1, 1, 2, 2} (the only 3-edge option with that
    profile).  Independent of the backtracking searches."""
    for quad in combinations(range(g.n), 4):
        m = mask_of(quad)
        degs = sorted((g.adj[v] & m).bit_count() for v in quad)
        if degs == [1, 1, 2, 2]:
            return False
    return True


def test_dichotomy_extraction():
    """500 seeded connected graphs (n <= 60), T in 1..5, D >= max closed
    degree: the dichotomy always returns a verified witness with its exact
    integer guarantees."""
    t0 = time.perf_counter()
    paths = pairs = 0
    for trial in range(500):
        g = seeded_connected_graph(trial, max_n=60)
        rng = stream(0xACC1, trial)
        dmax = max(closed_degree(g, v) for v in range(g.n))
        params = ExtractorParams(T=1 + trial % 5, D=dmax + rng.below(3))
        x = rng.below(g.n)
        w = path_or_empty_bipartite(g, x, params)
        assert verify(g, w), (trial, w)
        if isinstance(w, InducedPathWitness):
            paths += 1
            assert w.vertices[0] == x
            assert len(w) >= path_guarantee(g.n, params)
        else:
            pairs += 1
            assert w.kind == "empty"
            assert min(w.side_sizes) >= params.T
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"budget exceeded: {elapsed:.1f}s"
    assert paths and pairs  # both outcomes actually exercised
    print(f"PASS dichotomy-extraction: 500 graphs, {paths} paths / {pairs} pairs, "
          f"{elapsed:.1f}s")


def test_pruning_half_guarantee():
    """500 seeded sparse sets (s <= 200, eps in {1/10, 1/30}): pruning keeps
    at least half and caps every internal degree at 2 eps s."""
    t0 = time.perf_counter()
    for trial in range(500):
        rng = stream(0xACC2, trial)
        eps = Fraction(1, 10) if trial % 2 == 0 else Fraction(1, 30)
        s = randint(rng, 2, 200)
        g = planted_sparse_graph(s, eps, rng)
        out = prune_high_degree(g, g.full_mask, eps)
        assert out.bit_count() >= -(-s // 2), (trial, s, out.bit_count())
        bound = 2 * eps * s
        for v in bits(out):
            assert (g.adj[v] & out).bit_count() <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"budget exceeded: {elapsed:.1f}s"
    print(f"PASS pruning-half-guarantee: 500 planted sets, {elapsed:.1f}s")


def _doubling_corpus_half():
    for t in range(1, 6):
        n = 2 ** t
        yield empty_graph(n)
        yield complete_graph(n)
        if n >= 2:
            yield complete_bipartite_graph(n - n // 2, n // 2)
    for seed in range(20):
        n = 2 ** (1 + seed % 5)
        yield balanced_cograph(n, stream(0xACC3, seed))


def _doubling_corpus_quarter():
    for seed in range(35):
        n = 2 + stream(0xACC4, seed).below(31)
        yield random_cograph(n, stream(0xACC5, seed))
    yield complete_graph(17)
    yield empty_graph(29)
    yield complete_bipartite_graph(13, 12)


def test_doubling_recursion():
    """Exact desk-scale oracle (n <= 32, c in {1/2, 1/4}): the doubling
    extraction yields brute-force-P4-free sets of size >= n^c' / 2."""
    t0 = time.perf_counter()
    checked = 0
    # c' solves c^(c') = 1/2: 1 at c = 1/2 and 1/2 at c = 1/4
    for c, c_prime, corpus in ((Fraction(1, 2), 1, _doubling_corpus_half()),
                               (Fraction(1, 4), Fraction(1, 2), _doubling_corpus_quarter())):
        oracle = exact_bipartite_oracle(c)
        for g in corpus:
            s = p4free_extract(g, oracle)
            assert _brute_p4_free(induced(g, s)), (c, g.n)
            if c_prime == 1:
                assert 2 * len(s) >= g.n, (c, g.n, len(s))
            else:
                assert (2 * len(s)) ** 2 >= g.n, (c, g.n, len(s))
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    print(f"PASS doubling-recursion: {checked} graphs, {elapsed:.1f}s")


def test_cograph_ramsey():
    """1000 seeded cotrees (n <= 200): alpha * omega >= n and
    max(alpha, omega) >= ceil(sqrt(n)); exact match with exhaustive search on
    seeded cographs with n <= 16."""
    t0 = time.perf_counter()
    for trial in range(1000):
        n = 1 + stream(0xACC6, trial).below(200)
        g = random_cograph(n, stream(0xACC7, trial))
        res = cograph_alpha_omega(g)
        assert not isinstance(res, PatternEmbedding)
        stable, clique = res
        assert len(stable) * len(clique) >= n
        assert max(len(stable), len(clique)) >= math.isqrt(n - 1) + 1
    for trial in range(200):
        n = 1 + stream(0xACC8, trial).below(16)
        g = random_cograph(n, stream(0xACC9, trial))
        stable, clique = cograph_alpha_omega(g)
        assert len(stable) == brute_max_stable_size(g), (trial, n)
        assert len(clique) == brute_max_clique_size(g), (trial, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    print(f"PASS cograph-ramsey: 1000 cotrees + 200 exhaustive cross-checks, "
          f"{elapsed:.1f}s")


def test_pipeline_soundness():
    """200 certified path/co-path-free graphs and 200 cographs never yield a
    pattern certificate and always verify; on 200 unrestricted G(n, 1/2)
    every certificate is confirmed by the brute-force oracle."""
    t0 = time.perf_counter()
    for i in range(200):
        n = 6 + i % 5  # 6..10: brute-force certification stays cheap
        sample = rejection_sample_ck(n, 5, Fraction(1, 2), seed=0xACCA + i, budget=50000)
        r = extract_linear_bipartite(sample, 5)
        assert r.outcome != "pattern-certificate", (i, r.outcome)
        assert verify(sample, r.witness), i
    for i in range(200):
        n = 4 + stream(0xACCB, i).below(37)
        g = random_cograph(n, stream(0xACCC, i))
        r = extract_linear_bipartite(g, 4)
        assert r.outcome != "pattern-certificate", (i, r.outcome)
        assert verify(g, r.witness), i
    certified = 0

    def run_unrestricted(g):
        nonlocal certified
        r = extract_linear_bipartite(g, 5)
        assert verify(g, r.witness)
        if r.outcome == "pattern-certificate":
            certified += 1
            assert isinstance(r.witness, PatternEmbedding)
            assert verify_embedding(g, r.witness)
            assert is_pk_copk_free(g, 5) is not None

    for i in range(200):
        n = 5 + stream(0xACCD, i).below(36)
        run_unrestricted(gnp(n, Fraction(1, 2), stream(0xACCE, i)))
    # sparse structured inputs, where long induced paths actually emerge, so
    # the certificate-confirmation clause is exercised rather than vacuous
    from pathcert.graph import cycle_graph
    for n in range(40, 120, 10):
        run_unrestricted(path_graph(n))
        run_unrestricted(cycle_graph(n))
    assert certified > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    print(f"PASS pipeline-soundness: 616 graphs, {certified} confirmed certificates, "
          f"{elapsed:.1f}s")


def test_constants():
    """choose_constants(5) and the doubling exponent at 1/4 - both exact."""
    consts = choose_constants(5)
    assert consts.epsilon == Fraction(1, 30)
    assert consts.c == Fraction(1, 30)
    assert Fraction(1, 1) / (2 * (2 * consts.epsilon + consts.c)) == 5
    # c^(p/q) >= 1/2 iff c^p * 2^q >= 1: the exponent 1/2 holds at c = 1/4
    # with equality, so no larger one does
    assert Fraction(1, 4) ** 1 * 2 ** 2 == 1
    print("PASS constants: epsilon=c=1/30, path bound 5, exponent(1/4)=1/2")


def test_oracle_cross_validation():
    """find_induced_path agrees with the generic induced-embedding search on
    2000 seeded graphs with n <= 9, for every k <= 6."""
    t0 = time.perf_counter()
    agreements = 0
    for trial in range(2000):
        rng = stream(0xACCF, trial)
        n = randint(rng, 1, 9)
        p = Fraction(randint(rng, 0, 10), 10)
        g = gnp(n, p, rng)
        for k in range(1, 7):
            a = find_induced_path(g, k)
            b = contains_induced(g, path_graph(k))
            assert a.found == b.found, (trial, n, k)
            agreements += 1
            if a.found:
                assert verify_embedding(g, a.embedding)
                assert verify_embedding(g, b.embedding)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    print(f"PASS oracle-cross-validation: {agreements} query pairs, {elapsed:.1f}s")


def test_serialization():
    """graph6 round-trip identity on 1000 seeded graphs; the known strings
    for the 1- and 2-vertex graphs are bit-exact."""
    t0 = time.perf_counter()
    assert encode_graph6(empty_graph(1)) == "@"
    assert decode_graph6("@") == empty_graph(1)
    assert encode_graph6(path_graph(2)) == "A_"
    assert decode_graph6("A_") == path_graph(2)
    for trial in range(1000):
        rng = stream(0xACD0, trial)
        n = randint(rng, 1, 62)
        g = gnp(n, Fraction(randint(rng, 0, 10), 10), rng)
        assert decode_graph6(encode_graph6(g)) == g
    elapsed = time.perf_counter() - t0
    print(f"PASS serialization: 1000 round-trips, {elapsed:.1f}s")
