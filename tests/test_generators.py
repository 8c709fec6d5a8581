import hashlib
import tracemalloc
from fractions import Fraction

import pytest

from pathcert.formats import encode_graph6
from pathcert.generators import (FAMILIES, BudgetExhaustedError, GeneratorSpec, generate,
                                 gnp, random_cograph, rejection_sample_ck)
from pathcert.graph import complete_graph, empty_graph, path_graph
from pathcert.patterns import is_pk_copk_free
from pathcert import rng as rng_module
from pathcert.rng import stream

from conftest import (balanced_cograph, bernoulli, brute_has_induced_p4, contains_induced, degree,
                      oracle_gnp)

# Probabilities for the batched draw: the trivial ones, denominators that
# divide 256 (decided by one byte of each draw) and ones that do not, and
# 2^63 + 1, which rejects about half of all draws.
BATCH_PROBABILITIES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 8),
                       Fraction(9, 10), Fraction(5, 2 ** 63 + 1), Fraction(2 ** 62, 2 ** 63 + 1),
                       Fraction(255, 256), Fraction(7, 2 ** 40)]


def test_gnp_extremes():
    assert gnp(9, Fraction(0), stream(1)) == empty_graph(9)
    assert gnp(9, Fraction(1), stream(1)) == complete_graph(9)


def test_gnp_memory_is_bounded():
    # No edge list is held: the traced peak of G(1500, 1/2) measured
    # 2.84 MiB, most of it the one block of graph.symmetrised's transpose,
    # here the whole n * n byte matrix, beside one row's draws (an edge list
    # of its 562k pairs peaked at 51.7 MiB).
    # Under a second: each row's draws (1.1M in all) come from one batched
    # call.
    spec = GeneratorSpec("gnp", 1500, p=Fraction(1, 2), seed=1)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        g = generate(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    # The same graph as when the edges were collected in a list first, and
    # as when each pair was drawn by its own scalar bernoulli call.
    assert sum(g.degrees) // 2 == 562371
    assert (hashlib.sha256(encode_graph6(g).encode()).hexdigest()
            == "bc83de966d33ff2fc769c6a9b3fb134155e4257a7254da19a020dee17e1f3cb7")


@pytest.mark.parametrize("p", BATCH_PROBABILITIES, ids=str)
def test_bernoulli_bytes_equals_the_scalar_loop(p):
    lanes = rng_module._LANES
    for seed in (0, 1, 0xBA7C4, 2 ** 64 - 1):
        for count in (0, 1, 2, lanes - 1, lanes, lanes + 1):
            batched, scalar = stream(seed), stream(seed)
            out = batched.bernoulli_bytes(p.numerator, p.denominator, count)
            assert out == bytes(bernoulli(scalar, p.numerator, p.denominator)
                                for _ in range(count))
            assert batched._state == scalar._state
            assert batched.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("n", [1, 2, 40, 300])
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
                               Fraction(9, 10), Fraction(5, 2 ** 63 + 1)], ids=str)
def test_gnp_equals_the_per_pair_oracle(n, p):
    for seed in range(3):
        batched, scalar = stream(0x6E9, seed), stream(0x6E9, seed)
        assert gnp(n, p, batched) == oracle_gnp(n, p, scalar)
        # A caller that keeps drawing from the same rng sees the same values.
        assert [batched.below(1000) for _ in range(5)] == [scalar.below(1000) for _ in range(5)]


def test_gnp_rejects_an_empty_graph():
    with pytest.raises(ValueError):
        gnp(0, Fraction(1, 2), stream(1))


def test_gnp_seed_determinism():
    a = generate(GeneratorSpec("gnp", 25, p=Fraction(1, 2), seed=42))
    b = generate(GeneratorSpec("gnp", 25, p=Fraction(1, 2), seed=42))
    assert a == b
    c = generate(GeneratorSpec("gnp", 25, p=Fraction(1, 2), seed=43))
    assert a != c


def test_gnp_index_gives_distinct_streams():
    spec = GeneratorSpec("gnp", 20, p=Fraction(1, 2), seed=7)
    assert generate(spec, index=0) != generate(spec, index=1)


def test_cograph_is_p4_free():
    for seed in range(30):
        g = random_cograph(2 + stream(0xF0, seed).below(19), stream(0xF1, seed))
        assert not contains_induced(g, path_graph(4)).found
        assert not brute_has_induced_p4(g)


def test_balanced_cograph_shape():
    g = balanced_cograph(16, stream(5))
    assert g.n == 16
    assert not brute_has_induced_p4(g)


def test_named_families():
    assert generate(GeneratorSpec("path", 5)) == path_graph(5)
    assert generate(GeneratorSpec("complete", 4)) == complete_graph(4)
    g = generate(GeneratorSpec("complete-bipartite", 7))
    assert g.n == 7 and sum(g.degrees) // 2 == 3 * 4
    g = generate(GeneratorSpec("friendship", 7))
    assert degree(g, 0) == 6
    with pytest.raises(ValueError):
        generate(GeneratorSpec("friendship", 6))


def test_named_families_at_their_smallest_n():
    assert generate(GeneratorSpec("complete-bipartite", 2)) == complete_graph(2)
    assert generate(GeneratorSpec("friendship", 3)) == complete_graph(3)
    with pytest.raises(ValueError, match="complete-bipartite needs n >= 2"):
        generate(GeneratorSpec("complete-bipartite", 1))
    for n in (1, 4):
        with pytest.raises(ValueError, match="friendship graphs have n = 2t"):
            generate(GeneratorSpec("friendship", n))


def test_cograph_family_pinned():
    # The seeded cotree's cuts and its union/join choices, as gen writes them.
    g = generate(GeneratorSpec("cograph", 12, seed=1))
    assert encode_graph6(g) == "K_Ko?CB???_B"
    assert generate(GeneratorSpec("cograph", 12, seed=1), 1) != g


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("nonsense", 5)
    with pytest.raises(ValueError):
        GeneratorSpec("gnp", 0)
    with pytest.raises(ValueError):
        GeneratorSpec("gnp", 5, p=Fraction(3, 2))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("gnp", 5))  # missing p
    for p in (Fraction(0), Fraction(1)):  # the ends of [0, 1] are probabilities
        assert GeneratorSpec("gnp", 1, p=p).p == p
    for p in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
            GeneratorSpec("gnp", 5, p=p)


# The optional spec fields each family reads.
READS = {"gnp": ("p",), "cograph": (), "path": (), "cycle": (), "complete": (),
         "complete-bipartite": (), "friendship": (), "ck": ("p", "k", "budget")}
VALUES = {"p": Fraction(1, 2), "k": 4, "budget": 50}


@pytest.mark.parametrize("family", READS)
def test_a_spec_gives_exactly_the_fields_its_family_reads(family):
    assert set(FAMILIES) == set(READS)
    reads = READS[family]
    needed = {name: VALUES[name] for name in reads}
    assert generate(GeneratorSpec(family, 5, **needed)).n == 5
    assert GeneratorSpec(family, 1, **needed).n == 1
    for name in reads:
        with pytest.raises(ValueError) as err:
            GeneratorSpec(family, 5, **{**needed, name: None})
        assert str(err.value) == f"{family} needs {name}"
    for name in VALUES.keys() - set(reads):
        with pytest.raises(ValueError) as err:
            GeneratorSpec(family, 5, **needed, **{name: VALUES[name]})
        assert str(err.value) == f"{family} takes no {name}"
    with pytest.raises(ValueError) as err:
        GeneratorSpec(family, 0, **needed)
    assert str(err.value) == "n must be positive"


def test_rejection_sampling_certifies():
    for i in range(10):
        g = rejection_sample_ck(8, 4, Fraction(1, 2), seed=i, budget=50000)
        assert is_pk_copk_free(g, 4) is None
        assert not brute_has_induced_p4(g)


def test_rejection_sampling_reproducible():
    a = rejection_sample_ck(10, 5, Fraction(1, 2), seed=3, budget=50000)
    b = rejection_sample_ck(10, 5, Fraction(1, 2), seed=3, budget=50000)
    assert a == b


@pytest.mark.parametrize("index", [0, 1])
def test_rejection_sampling_returns_the_first_free_draw_of_its_substreams(index):
    # Draw d of index i reads substream i * budget + d; the sample is the
    # first of them that is free.
    budget = 40
    draws = [gnp(6, Fraction(1, 2), stream(5, index * budget + d)) for d in range(budget)]
    first = next(d for d, g in enumerate(draws) if is_pk_copk_free(g, 4) is None)
    assert first >= 1  # at least one draw is rejected
    assert rejection_sample_ck(6, 4, Fraction(1, 2), 5, budget, index) == draws[first]
    assert generate(GeneratorSpec("ck", 6, p=Fraction(1, 2), k=4, seed=5, budget=budget),
                    index) == draws[first]


def test_rejection_budget_zero_fails():
    with pytest.raises(BudgetExhaustedError) as err:
        rejection_sample_ck(8, 5, Fraction(1, 2), seed=0, budget=0)
    assert err.value.draws == 0


def test_rejection_guard_large_n():
    with pytest.raises(ValueError):
        rejection_sample_ck(41, 5, Fraction(1, 2), seed=0, budget=10)
    with pytest.raises(BudgetExhaustedError):  # n = 40 is sampled
        rejection_sample_ck(40, 5, Fraction(1, 2), seed=0, budget=1)


def test_rejection_budget_must_be_nonnegative():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        rejection_sample_ck(8, 5, Fraction(1, 2), seed=0, budget=-1)
