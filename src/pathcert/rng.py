"""Deterministic 64-bit random streams (SplitMix64).

All random corpora in this package are generated from SplitMix64, the
mixer/generator of Steele, Lea and Flood's SplittableRandom.  It is tiny,
fully specified by two integer constants, and trivially splittable, so a
(seed, index) pair identifies the same bit stream in any language.

Stream derivation: ``stream(seed, index)`` seeds a generator with
``mix(seed) XOR mix((index + 1) * GAMMA)`` where ``mix`` is the SplitMix64
finalizer and GAMMA = 0x9E3779B97F4A7C15.  All arithmetic is mod 2**64.

Batched draws.  The state is a Weyl counter, so the i-th draw after state s
is ``mix(s + i * GAMMA)``, a pure function of i, and
:meth:`SplitMix64.bernoulli_bytes` computes a run of draws at once,
exactly.  Draw j of a batch sits in bits 128j..128j+63 of one int (its
lane), and every step of ``mix`` runs on all lanes with one big-int
operation.  Each lane is masked back to 64 bits before every shift and
multiply: a right shift then moves the next lane's bits into this lane's
high half only, which the mask drops, and a product stays below 2**128, so
no carry reaches the next lane.  A batch has at most _LANES lanes, so it
holds a few ints of 16 KiB whatever the number of draws.
"""

from __future__ import annotations

import sys
from array import array

_MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# Lane j of a batch is bits 128j..128j+127 of an int; a batch of m lanes
# uses the low m lanes of these constants.
_LANES = 1024
_ONES = int.from_bytes((b"\1" + bytes(15)) * _LANES, "little")
_LOW64 = _MASK64 * _ONES
_STEPS = int.from_bytes(b"".join(((j + 1) * GAMMA & _MASK64).to_bytes(16, "little")
                                 for j in range(_LANES)), "little")


def _mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_lanes(state: int, lanes: int) -> bytes:
    """The next ``lanes`` draws after ``state``, 16 little-endian bytes a
    draw: its 8 bytes, then 8 bytes that are not read (the last shift
    leaves the next lane's low bits there)."""
    low = (1 << 128 * lanes) - 1
    mask = _LOW64 & low
    z = (state * (_ONES & low) + (_STEPS & low)) & mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)).to_bytes(16 * lanes, "little")


class SplitMix64:
    """SplitMix64 generator with exact integer helpers (no floats)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & _MASK64
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def bernoulli_bytes(self, numerator: int, denominator: int, count: int) -> bytes:
        """``count`` exact Bernoulli(numerator/denominator) draws as bytes 0/1:
        draw i is ``below(denominator) < numerator`` for the i-th of ``count``
        :meth:`below` calls, and the state ends where they leave it.  A
        probability of 0 or 1 draws nothing.

        Each batch draws as many lanes as outcomes are still missing (at
        most _LANES), so every lane it draws is consumed.  A lane at or
        above ``below``'s limit is rejected there, and here it is dropped;
        the next batch starts after the last lane drawn, where ``below``
        would draw next.  When the denominator divides 256 nothing is
        rejected, and a lane's outcome depends on its low byte only: one
        ``bytes.translate`` of those bytes decides the whole batch.
        """
        if not 0 <= numerator <= denominator or denominator <= 0:
            raise ValueError("probability must be in [0, 1]")
        if count < 0:
            raise ValueError("count must be nonnegative")
        if numerator == 0 or numerator == denominator:
            return bytes([numerator != 0]) * count
        limit = (1 << 64) - ((1 << 64) % denominator)
        low_byte = None
        if 256 % denominator == 0:  # byte b decides b % denominator < numerator
            low_byte = (b"\1" * numerator + bytes(denominator - numerator)) * (256 // denominator)
        out = bytearray()
        while len(out) < count:
            lanes = min(_LANES, count - len(out))
            raw = _mix_lanes(self._state, lanes)
            self._state = (self._state + lanes * GAMMA) & _MASK64
            if low_byte is not None:
                out += raw[::16].translate(low_byte)
                continue
            words = array("Q")
            words.frombytes(raw)
            if sys.byteorder == "big":
                words.byteswap()
            words = words[::2]
            if max(words) >= limit:
                words = [r for r in words if r < limit]
            out += bytes(r % denominator < numerator for r in words)
        return bytes(out)


def stream(seed: int, index: int = 0) -> SplitMix64:
    """The index-th substream of a 64-bit seed (see module docstring)."""
    return SplitMix64(_mix(seed) ^ _mix(((index + 1) * GAMMA) & _MASK64))
