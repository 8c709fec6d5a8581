"""SplitMix64 and its exact draws: the reference vector, ``below`` and
``bernoulli_bytes``.  The batched draws' equality with one ``below`` per
outcome over many probabilities is checked in ``test_generators.py``,
beside the G(n, p) graphs built from them."""

import pytest

from pathcert import rng as rng_module
from pathcert.rng import GAMMA, SplitMix64, stream

from conftest import bernoulli


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


def test_below_rejects_an_empty_range():
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be positive"):
            stream(1).below(bound)


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
    for num, den, count in ((2, 1, 3), (-1, 2, 3), (1, 0, 3), (0, 0, 3), (0, -1, 3), (1, 2, -1)):
        with pytest.raises(ValueError):
            stream(1).bernoulli_bytes(num, den, count)


def test_bernoulli_exactness():
    rng = stream(12)
    assert rng.bernoulli_bytes(0, 7, 100) == bytes(100)
    assert rng.bernoulli_bytes(7, 7, 100) == b"\1" * 100
    assert rng.bernoulli_bytes(1, 3, 0) == b""
    assert rng.next_u64() == stream(12).next_u64()  # none drew


def _unmix(z: int) -> int:
    """The state whose next SplitMix64 output is z: each step of the mixer
    is a bijection of 64-bit words, so it runs backwards."""
    def unshift(y: int, s: int) -> int:  # the x with x ^ (x >> s) == y
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    mask = (1 << 64) - 1
    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & mask, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask, 30)
    return (z - GAMMA) & mask


@pytest.mark.parametrize("denominator", [3, 10, 2 ** 63 + 1])
def test_a_draw_equal_to_the_limit_is_rejected(denominator):
    # below keeps the draws under the largest multiple of the denominator
    # that fits 64 bits; a draw of exactly that multiple is rejected, by
    # below and by the batched draws alike.
    limit = (1 << 64) - (1 << 64) % denominator
    state = _unmix(limit)
    assert SplitMix64(state).next_u64() == limit
    rng, after = SplitMix64(state), SplitMix64(state)
    after.next_u64()
    assert rng.below(denominator) == after.below(denominator)
    assert rng._state == after._state
    batched, scalar = SplitMix64(state), SplitMix64(state)
    out = batched.bernoulli_bytes(1, denominator, 5)
    assert out == bytes(bernoulli(scalar, 1, denominator) for _ in range(5))
    assert batched._state == scalar._state
