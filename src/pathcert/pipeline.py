"""End-to-end certifying extraction for graphs avoiding a path and its complement.

``extract_linear_bipartite`` runs the full chain on any graph: find a sparse
or dense vertex set (complementing the graph when the dense kind shows up),
prune its high-degree vertices, and hand the survivor to the path/pair
dichotomy.  A disconnected survivor comes back from the dichotomy's entry
check with its components, which give the stage-3 pair or the largest part
to walk.  The walk stops at the k-th path vertex: a P_k is all a pattern
certificate needs, and each prefix of the walk's induced path is induced,
so the trace holds at most k levels.  The outcome is one of

  bipartite-witness    an empty or complete pair with both sides >= the
                       run's T, kinds flipped back if the complement was used;
  pattern-certificate  an induced k-path (or its complement form), i.e. the
                       input was not in the forbidden-pattern class at all.

Every report carries the constants of k and a trace of the run: per-stage
sizes and the thresholds T and D.  The asymptotic side bound ceil(c_k n) is
never asserted: it needs n >= n_min, far beyond any graph that fits in memory.

``eh_homogeneous`` returns an exact clique or stable set: the cotree fold
when the input is already P4-free, else the extraction composed with the
P4-free doubling recursion and the fold of the set it doubles down to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .cographs import OracleError, cograph_alpha_omega, p4free_extract
from .extractor import (DisconnectedError, ExtractorParams, path_or_empty_bipartite,
                        split_small_components)
from .graph import Graph, bits, complement, mask_of
# Unused here since the producers run on vertex masks, but bench/tracing.py
# binds pipeline.components and pipeline.induced; drop them with those bindings.
from .graph import components, induced  # noqa: F401
from .homogeneous import find_epsilon_homogeneous, prune_high_degree
from .patterns import path_certificate
from .witnesses import (BipartitePairWitness, HomogeneousSetWitness, InducedPathWitness,
                        PatternEmbedding, Witness)


@dataclass(frozen=True)
class PipelineConstants:
    """The rational parameters of every extraction run at one k.

    epsilon = c = 1/(6k) makes the dichotomy's path guarantee exactly k.
    6k has a factor 3, so log2(1/epsilon) = log2(6k) is irrational and
    neither delta = 2^(-15 k log2(6k)^2) nor c_k (the linear-pair constant
    c * delta / 2) is rational.  Their base-2 logarithms,
    ``delta_exponent_float`` and ``c_k_log2``, are floats for reading only.
    The decisions use two integer exponents from bounds
    lo < log2(6k) < hi (``pipeline.log2_bounds``): E = ceil(15 k hi^2), so
    2^E >= 1/delta and n_min = 2^E + 1 bounds the first n where the
    asymptotic guarantees bite; F = floor(15 k lo^2), so 2^F < 1/delta and
    ceil(delta n) = 1 for every n <= 2^F.
    """

    k: int
    epsilon: Fraction
    c: Fraction
    delta_exponent_float: float
    c_k_log2: float
    c_prime_theory: float
    n_min_exponent: int
    unit_target_exponent: int

    @property
    def path_bound(self) -> Fraction:
        return Fraction(1, 1) / (2 * (2 * self.epsilon + self.c))


def log2_bounds(q: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational bounds (lo, hi) with lo < log2(q) < hi, for q >= 1.

    Integer arithmetic only: for x = num^64 and y = den^64,
    bit_length(x) - 1 <= log2(x) < bit_length(x), and likewise for y.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    x = q.numerator ** 64
    y = q.denominator ** 64
    return (Fraction(x.bit_length() - 1 - y.bit_length(), 64),
            Fraction(x.bit_length() - y.bit_length() + 1, 64))


@cache  # eh's doubling asks once per oracle call, always with the same k
def choose_constants(k: int) -> PipelineConstants:
    """epsilon = c = 1/(6k); then 1/(2(2 epsilon + c)) = k exactly.

    Raises ValueError for k < 2, and for a k whose delta exponent
    -15 k log2(6k)^2 is not a finite float (k above about 1.19 * 10^301).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    eps = Fraction(1, 6 * k)
    c = eps
    log2_6k = math.log2(6 * k)
    try:
        delta_exponent = -15.0 * k * log2_6k * log2_6k
    except OverflowError:  # k itself does not fit in a float
        delta_exponent = -math.inf
    if not math.isfinite(delta_exponent):
        raise ValueError("k is too large: the delta exponent -15 k log2(6k)^2 overflows a float")
    c_k_log2 = -log2_6k + delta_exponent - 1
    # 0 < lo < log2(6k) < hi, since 6k >= 12.
    lo, hi = log2_bounds(1 / eps)
    consts = PipelineConstants(k, eps, c, delta_exponent, c_k_log2, -1.0 / c_k_log2,
                               math.ceil(15 * k * hi * hi), math.floor(15 * k * lo * lo))
    assert consts.path_bound == k
    return consts


def stage1_target(consts: PipelineConstants, n: int) -> int:
    """ceil(delta * n): 1 for every n <= 2^F (F = ``unit_target_exponent``);
    a larger n raises, since the bounds cannot certify the target there."""
    if n < 1:
        raise ValueError("n must be positive")
    if (n - 1).bit_length() <= consts.unit_target_exponent:  # n <= 2^F
        return 1
    raise ValueError("cannot certify the stage-1 target at this n")


@dataclass(frozen=True)
class ExtractionReport:
    outcome: str  # "bipartite-witness" | "pattern-certificate"
    witness: Witness
    constants: PipelineConstants
    trace: dict
    complemented: bool


def _flip_kind(w: BipartitePairWitness) -> BipartitePairWitness:
    kind = "complete" if w.kind == "empty" else "empty"
    return BipartitePairWitness(kind, w.X, w.Y)


def extract_linear_bipartite(g: Graph, k: int, mask: int | None = None) -> ExtractionReport:
    """Run the full extraction for forbidden-path length k on the subgraph
    of g on ``mask`` (default: all of g; n is its size).

    Requires n >= 2.  The returned witness uses g's vertex ids and, unless
    the outcome is a pattern certificate, refers to the graph as given:
    complement kinds are flipped back before reporting.
    """
    if mask is None:
        mask = g.full_mask
    n = mask.bit_count()
    if n < 2:
        raise ValueError("need at least two vertices")
    consts = choose_constants(k)
    eps, c = consts.epsilon, consts.c
    trace: dict = {"n": n, "stage1_target": stage1_target(consts, n)}

    # Any survivor of the peel meets the certified target of 1.
    w1 = find_epsilon_homogeneous(g, eps, mask=mask)
    trace["stage1"] = {"kind": w1.kind, "size": w1.size}

    complemented = w1.kind == "clique"
    # S lies inside the mask, so a peel that keeps every vertex keeps the mask.
    stage1 = mask if w1.size == n else mask_of(w1.S)
    work = complement(g, stage1) if complemented else g
    s = w1.size
    sub = prune_high_degree(work, stage1, eps)
    s2 = sub.bit_count()
    big_d = math.floor(2 * eps * s) + 1
    big_t = math.ceil(c * s2)
    trace.update(s=s, s_prime=s2, T=big_t, D=big_d)

    # The walk's path or pair on a connected survivor.  The walk's entry check
    # is its level 1, one sweep beyond the start's closed neighbourhood, and
    # hands the survivor's components back when there are several: then the
    # stage-3 pair, else the walk on the largest.
    params = ExtractorParams(big_t, big_d)
    levels: list = []

    def walk(part: int) -> Witness:
        return path_or_empty_bipartite(work, (part & -part).bit_length() - 1, params,
                                       trace=levels, mask=part, k=k)

    try:
        result = walk(sub)
    except DisconnectedError as err:
        comps = err.parts
        trace["component_sizes"] = [cc.bit_count() for cc in comps]
        try:
            a, b = split_small_components(comps, big_t)
        except ValueError:
            trace["stage3"] = f"recurse-largest({comps[0].bit_count()})"
            result = walk(comps[0])
            trace["extractor"] = levels
        else:
            trace["stage3"] = "component-split"
            result = BipartitePairWitness("empty", frozenset(bits(a)), frozenset(bits(b)))
    else:
        trace.update(component_sizes=[s2], stage3="connected", extractor=levels)

    if isinstance(result, InducedPathWitness):
        trace["path_length"] = len(result)
        # The walk's path has exactly k vertices.  Suppose it had fewer; let
        # L = D - 1 = floor(s/(3k)) be the prune's limit, m0 the walk's first
        # mask size and j its grow levels so far.
        # 1. s >= 2.  Deleting a maximum-degree vertex v from a non-complete set
        #    S of >= 3 vertices leaves it non-complete: else a neighbour of v
        #    has degree |S| - 1 > deg v, or v is isolated and |S| <= 2.  The
        #    sparse peel stops at any stable set, so it ends on 1 vertex only
        #    on a complete mask, where the dense peel stops at once with all n.
        # 2. s2 > (s + 1)/2, so s2 >= 2.  S spans at most eps s(s - 1)/2 edges
        #    of work, so fewer than (s - 1)/2 vertices exceed L; every survivor
        #    has inner degree <= L, and s >= 3kL.
        # 3. "stop" returns k vertices at j = k - 1, and "base" returns j + 2
        #    when m >= 2; m >= 3 after a grow.  So base ran at j <= k - 3, or
        #    m0 = 1.  Base needs m <= 3T + D and a grow lowers m by at most
        #    T + D - 1, so m0 <= kT + (k - 2)L + 1.  m0 = s2 on a connected
        #    survivor.  A failed split leaves |B| < T: then A is comps[0] and
        #    m0 > s2 - T, or every part is below T and s2 <= 3T - 3.  Either
        #    way s2 <= (k + 1)T + (k - 2)L.
        # 4. T < s2/(6k) + 1 and, by 2, L < 2 s2/(3k) turn that into
        #    s2 < 6k(k + 1)/(k + 7) < 6k, so T = 1.  Then a split of >= 2 parts
        #    succeeds (A the largest, B the rest), so m0 = s2 <= k + 1 + (k - 2)L.
        # 5. With 2 s2 > 3kL + 1 (by 2) that gives L(k + 4) < 2k + 1, so L <= 1.
        #    A connected set of maximum degree L <= 1 has at most L + 1
        #    vertices, but s2 >= 2, and 2 s2 > 3k + 1 >= 7 when L = 1.
        assert len(result) == k, "a walk bounded by the pruned degrees reaches k"
        emb = path_certificate(k, result.vertices, complemented)
        return ExtractionReport("pattern-certificate", emb, consts, trace, complemented)

    if complemented:
        result = _flip_kind(result)
    trace["sides"] = sorted(result.side_sizes)
    return ExtractionReport("bipartite-witness", result, consts, trace, complemented)


def eh_homogeneous(g: Graph, k: int, details: dict | None = None):
    """An exact stable set or clique (epsilon = 0 witness).

    A cograph is folded over its cotree at once: the larger of the maximum
    stable set and the maximum clique, stable on a tie.  Otherwise the
    input goes through P4-free doubling and the fold of the doubled set.
    The doubling's oracle is ``extract_linear_bipartite`` on each part: the
    paper's sides of ceil(c_k n) are 1 at every n that fits in memory, so
    any verified pair will do.  A PatternEmbedding (induced k-path or
    complement) from any extraction run ends the doubling and is returned:
    it is the only OracleError witness that is not a pair.  Other
    OracleErrors propagate.

    ``details``, if provided, is filled with the route taken ("cotree" or
    "doubling"), and, for a set, the achieved size and the size of the
    P4-free set that was folded (n on the cotree route).
    """
    choose_constants(k)  # rejects the k that every other entry point rejects
    folded = cograph_alpha_omega(g)
    route = "doubling" if isinstance(folded, PatternEmbedding) else "cotree"
    if details is not None:
        details["route"] = route
    extracted_size = g.n
    if route == "doubling":
        # ceil(c_k n) = 1 at every n <= 2^F, and the verifier rejects an empty side.
        try:
            extracted = p4free_extract(
                g, lambda g, mask: extract_linear_bipartite(g, k, mask).witness)
        except OracleError as err:
            if isinstance(err.witness, PatternEmbedding):
                return err.witness
            raise
        folded = cograph_alpha_omega(g, mask_of(extracted))
        assert not isinstance(folded, PatternEmbedding), "extracted set must be P4-free"
        extracted_size = len(extracted)
    stable, clique = folded
    if len(stable) >= len(clique):
        kind, chosen, edges = "stable", stable, 0
    else:
        kind, chosen, edges = "clique", clique, len(clique) * (len(clique) - 1) // 2
    witness = HomogeneousSetWitness(kind, chosen, Fraction(0), edges)
    if details is not None:
        details.update(achieved=len(chosen), extracted_size=extracted_size)
    return witness
