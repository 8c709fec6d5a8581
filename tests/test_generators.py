import hashlib
import tracemalloc
from fractions import Fraction

import pytest

from pathcert.formats import encode_graph6
from pathcert.generators import (BudgetExhaustedError, GeneratorSpec, generate,
                                 gnp, random_cograph, rejection_sample_ck)
from pathcert.graph import complete_graph, empty_graph, path_graph
from pathcert.patterns import is_pk_copk_free
from pathcert import rng as rng_module
from pathcert.rng import SplitMix64, stream

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


def test_bernoulli_bytes_rejects_like_below():
    # With denominator 2^63 + 1 the limit is 2^64 - (2^63 - 1): about half
    # the draws are rejected, so most batches are followed by a shorter one.
    den = 2 ** 63 + 1
    batched, scalar = stream(3), stream(3)
    out = batched.bernoulli_bytes(2 ** 62, den, 3 * rng_module._LANES)
    assert out == bytes(bernoulli(scalar, 2 ** 62, den) for _ in range(len(out)))
    assert batched._state == scalar._state
    assert 0 < sum(out) < len(out)


def test_bernoulli_bytes_validates():
    for num, den, count in ((2, 1, 3), (-1, 2, 3), (1, 0, 3), (0, -1, 3), (1, 2, -1)):
        with pytest.raises(ValueError):
            stream(1).bernoulli_bytes(num, den, count)


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


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("nonsense", 5)
    with pytest.raises(ValueError):
        GeneratorSpec("gnp", 0)
    with pytest.raises(ValueError):
        GeneratorSpec("gnp", 5, p=Fraction(3, 2))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("gnp", 5))  # missing p


def test_rejection_sampling_certifies():
    for i in range(10):
        sample = rejection_sample_ck(8, 4, Fraction(1, 2), seed=i, budget=50000)
        assert is_pk_copk_free(sample.graph, 4) is None
        assert not brute_has_induced_p4(sample.graph)
        assert sample.draws >= 1


def test_rejection_sampling_reproducible():
    a = rejection_sample_ck(10, 5, Fraction(1, 2), seed=3, budget=50000)
    b = rejection_sample_ck(10, 5, Fraction(1, 2), seed=3, budget=50000)
    assert a.graph == b.graph and a.draws == b.draws


def test_rejection_budget_zero_fails():
    with pytest.raises(BudgetExhaustedError) as err:
        rejection_sample_ck(8, 5, Fraction(1, 2), seed=0, budget=0)
    assert err.value.draws == 0


def test_rejection_guard_large_n():
    with pytest.raises(ValueError):
        rejection_sample_ck(41, 5, Fraction(1, 2), seed=0, budget=10)


def test_splitmix_reference_vector():
    # SplitMix64 with seed 0: first outputs of the reference implementation
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_below_exact_and_in_range():
    rng = stream(11)
    draws = [rng.below(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))


def test_bernoulli_exactness():
    rng = stream(12)
    assert rng.bernoulli_bytes(0, 7, 100) == bytes(100)
    assert rng.bernoulli_bytes(7, 7, 100) == b"\1" * 100
    assert rng.next_u64() == stream(12).next_u64()  # neither drew
