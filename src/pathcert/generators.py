"""Seeded graph generators and rejection sampling of pattern-free graphs.

Every generator is a pure function of its spec: the same (family, params,
seed, index) always yields the same adjacency matrix.  Randomness comes from
the SplitMix64 substreams in :mod:`pathcert.rng`; probabilities are exact
rationals and Bernoulli draws never touch floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import (Graph, complete_bipartite_graph, complete_graph, cycle_graph,
                    friendship_graph, path_graph, symmetrised)
from .patterns import is_pk_copk_free
from .rng import SplitMix64, stream

FAMILIES = ("gnp", "cograph", "path", "cycle", "complete",
            "complete-bipartite", "friendship", "ck")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int
    p: Fraction | None = None
    k: int | None = None
    seed: int = 0
    budget: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.p is not None and not 0 <= self.p <= 1:
            raise ValueError("p must be in [0, 1]")


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # the bytes 0/1 -> '0'/'1'


def gnp(n: int, p: Fraction, rng: SplitMix64) -> Graph:
    """G(n, p): one exact Bernoulli(p) draw per pair (u, v), u < v, in
    lexicographic order.

    Row u's draws, for v = u + 1..n - 1, are one
    :meth:`~pathcert.rng.SplitMix64.bernoulli_bytes` run, the same draws
    and the same final ``rng`` state as one ``rng.below(den) < num`` test
    per pair (none when p is 0 or 1).
    The run's 0/1 bytes, reversed and read as a base-2 numeral, are the
    upper half of row u, and :func:`~pathcert.graph.symmetrised` adds the
    lower halves.  Beside the rows, it holds one row's 0/1 bytes, one batch
    of draws (a few ints of 16 KiB) and one block of the transpose (at most
    4 MiB of digits).
    """
    if n < 1:
        raise ValueError("graphs have at least one vertex")
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    upper = []
    for u in range(n):
        draws = rng.bernoulli_bytes(num, den, n - 1 - u)  # for v = u + 1..n - 1
        upper.append(int(draws[::-1].translate(_DIGITS) or b"0", 2) << u + 1)
    return Graph(n, symmetrised(upper))


def random_cograph(n: int, rng: SplitMix64) -> Graph:
    """Random cotree on vertices 0..n-1 (contiguous ranges per subtree); each
    internal node is a disjoint union or a join with probability 1/2.

    The output never induces a P4.
    """
    rows = [0] * n

    def build(lo: int, hi: int) -> None:
        if hi - lo == 1:
            return
        cut = lo + 1 + rng.below(hi - lo - 1)
        join = rng.below(2) == 1
        build(lo, cut)
        build(cut, hi)
        if join:
            left = ((1 << cut) - 1) ^ ((1 << lo) - 1)
            right = ((1 << hi) - 1) ^ ((1 << cut) - 1)
            for v in range(lo, cut):
                rows[v] |= right
            for v in range(cut, hi):
                rows[v] |= left

    build(0, n)
    return Graph(n, tuple(rows))


def generate(spec: GeneratorSpec, index: int = 0) -> Graph:
    """Build the graph described by ``spec``; ``index`` selects the substream
    (batch drivers give each graph its own index)."""
    rng = stream(spec.seed, index)
    family = spec.family
    if family == "gnp":
        if spec.p is None:
            raise ValueError("gnp needs p")
        return gnp(spec.n, spec.p, rng)
    if family == "cograph":
        return random_cograph(spec.n, rng)
    if family == "path":
        return path_graph(spec.n)
    if family == "cycle":
        return cycle_graph(spec.n)
    if family == "complete":
        return complete_graph(spec.n)
    if family == "complete-bipartite":
        if spec.n < 2:
            raise ValueError("complete-bipartite needs n >= 2")
        return complete_bipartite_graph(spec.n - spec.n // 2, spec.n // 2)
    if family == "friendship":
        if spec.n % 2 == 0 or spec.n < 3:
            raise ValueError("friendship graphs have n = 2t + 1 >= 3")
        return friendship_graph(spec.n // 2)
    if family == "ck":
        if spec.p is None or spec.k is None or spec.budget is None:
            raise ValueError("ck needs p, k and budget")
        return rejection_sample_ck(spec.n, spec.k, spec.p, spec.seed, spec.budget).graph
    raise AssertionError(family)


class BudgetExhaustedError(RuntimeError):
    def __init__(self, draws: int):
        super().__init__(f"no certified graph within {draws} draws")
        self.draws = draws


@dataclass(frozen=True)
class CertifiedSample:
    """A graph certified free of the k-path and its complement by the
    brute-force oracle, plus how many draws that took."""

    graph: Graph
    k: int
    draws: int


CK_MAX_N = 40


def rejection_sample_ck(n: int, k: int, p: Fraction, seed: int,
                        budget: int) -> CertifiedSample:
    """Draw G(n, p) graphs (substream per draw) until one passes the
    brute-force freeness check; fail after ``budget`` draws."""
    if n > CK_MAX_N:
        raise ValueError(f"brute-force certification limited to n <= {CK_MAX_N}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    for draw in range(budget):
        g = gnp(n, p, stream(seed, draw))
        if is_pk_copk_free(g, k) is None:
            return CertifiedSample(g, k, draw + 1)
    raise BudgetExhaustedError(budget)
