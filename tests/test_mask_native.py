"""Mask-native producers against their runs on a relabelled copy.

Every producer takes a vertex mask over the caller's graph.  Running it on
``(g, mask)`` must give exactly what running it on ``induced(g, mask)``
gives, with vertex ids mapped back through the sorted members: relabelling
keeps vertex order, so every smallest-id tie-break, component order and
lexicographic search maps one to one.  The CLI digests at the end pin whole
``pipeline`` and ``eh`` outputs, as produced before the producers took masks.
"""

import hashlib
from fractions import Fraction

import pytest

from pathcert import formats
from pathcert.cli import main
from pathcert.cographs import OracleError, cograph_alpha_omega, exact_bipartite_oracle
from pathcert.extractor import ExtractorParams, path_or_empty_bipartite
from pathcert.generators import GeneratorSpec, generate, gnp, random_cograph
from pathcert.graph import bits, build_graph, component_masks, induced, mask_of
from pathcert.homogeneous import find_epsilon_homogeneous
from pathcert.pipeline import extract_linear_bipartite
from pathcert.rng import stream
from pathcert.witnesses import (BipartitePairWitness, HomogeneousSetWitness, InducedPathWitness,
                                PatternEmbedding)


def corpus(tag: int, count: int, max_n: int):
    """(graph, mask) pairs: seeded gnp graphs and cographs, each with a
    random mask of at least two vertices."""
    for seed in range(count):
        rng = stream(tag, seed)
        n = rng.randint(2, max_n)
        for g in (gnp(n, Fraction(rng.randint(0, 10), 10), rng), random_cograph(n, rng)):
            mask = 0
            while mask.bit_count() < 2:
                mask = sum(1 << v for v in range(n) if rng.below(3))
            yield g, mask


def sparse_and_dense_corpus(tag: int, count: int):
    """(graph, mask) pairs on 100..260 vertices, p in 1/20..3/20 and its
    complement, masks keeping nine vertices in ten: large and lopsided
    enough that the extraction reaches stage 3 and the path/pair walk."""
    for seed in range(count):
        rng = stream(tag, seed)
        n = rng.randint(100, 260)
        p = Fraction(rng.randint(1, 3), 20)
        for g in (gnp(n, p, rng), gnp(n, 1 - p, rng)):
            yield g, sum(1 << v for v in range(n) if rng.below(10))


def embed(h, n: int, rng):
    """(g, mask): g on n vertices with g[mask] equal to h after relabelling
    by rank; every pair with an end outside the mask is a coin flip."""
    members: list[int] = []
    while len(members) < h.n:
        v = rng.below(n)
        if v not in members:
            members.append(v)
    members.sort()
    rank = {v: i for i, v in enumerate(members)}
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (h.has_edge(rank[u], rank[v]) if u in rank and v in rank else rng.below(2))]
    return build_graph(n, edges), mask_of(members)


def lift(members, result):
    """A result computed on induced(g, members), in g's ids."""
    up = lambda vs: frozenset(members[v] for v in vs)  # noqa: E731
    if isinstance(result, BipartitePairWitness):
        return BipartitePairWitness(result.kind, up(result.X), up(result.Y))
    if isinstance(result, HomogeneousSetWitness):
        return HomogeneousSetWitness(result.kind, up(result.S), result.epsilon,
                                     result.edge_count)
    if isinstance(result, InducedPathWitness):
        return InducedPathWitness(tuple(members[v] for v in result.vertices))
    if isinstance(result, PatternEmbedding):
        return PatternEmbedding(result.pattern_name, result.pattern,
                                tuple(members[v] for v in result.mapping))
    if isinstance(result, tuple):  # (stable, clique)
        return tuple(up(s) for s in result)
    assert result is None
    return None


def test_extract_linear_bipartite_on_mask_equals_induced():
    pairs = list(corpus(0x3A51, 20, 70)) + list(sparse_and_dense_corpus(0x3A57, 8))
    for g, mask in pairs:
        members = list(bits(mask))
        sub = induced(g, members)
        strategies = ["greedy-peel"]
        if g.n <= 70:
            strategies += ["trivial"] + (["exact"] if len(members) <= 12 else [])
        for k in (4, 5):
            for strategy in strategies:
                masked = extract_linear_bipartite(g, k, strategy, mask)
                direct = extract_linear_bipartite(sub, k, strategy)
                assert masked.outcome == direct.outcome
                assert masked.witness == lift(members, direct.witness)
                assert masked.trace == direct.trace
                assert masked.complemented == direct.complemented
                assert masked.constants == direct.constants


def test_find_epsilon_homogeneous_on_mask_equals_induced():
    for g, mask in corpus(0x3A52, 30, 40):
        members = list(bits(mask))
        sub = induced(g, members)
        for strategy in ("exact", "greedy-peel", "trivial"):
            if strategy == "exact" and len(members) > 12:
                continue
            for eps in (Fraction(0), Fraction(1, 8), Fraction(1, 3)):
                for target in sorted({1, 2, len(members) // 3 + 1}):
                    if target > len(members):
                        continue
                    masked = find_epsilon_homogeneous(g, eps, target, strategy, mask)
                    direct = find_epsilon_homogeneous(sub, eps, target, strategy)
                    assert masked == lift(members, direct)


def test_path_or_empty_bipartite_on_mask_equals_induced():
    cases = []  # (g, connected mask, start)
    for g, mask in corpus(0x3A53, 40, 80):
        part = component_masks(g.adj, mask)[0]
        members = list(bits(part))
        cases.append((g, part, members[stream(0x3A54, len(members)).below(len(members))]))
    # A hub over seven pendant edges, started at the hub: deleting its closed
    # neighbourhood leaves components below T, the small-split case.
    hub = build_graph(15, [(0, i) for i in range(1, 8)] + [(i, i + 7) for i in range(1, 8)])
    for seed in range(3):
        g, mask = embed(hub, 40, stream(0x3A58, seed))
        cases.append((g, mask, (mask & -mask).bit_length() - 1))
    for g, part, x in cases:
        members = list(bits(part))
        sub = induced(g, members)
        big_d = max((g.adj[v] & part).bit_count() for v in members) + 1
        for big_t in (1, 2, 3):
            params = ExtractorParams(big_t, big_d)
            masked_trace: list = []
            direct_trace: list = []
            masked = path_or_empty_bipartite(g, x, params, masked_trace, part)
            direct = path_or_empty_bipartite(sub, members.index(x), params, direct_trace)
            assert masked == lift(members, direct)
            assert masked_trace == direct_trace


def test_cograph_alpha_omega_on_mask_equals_induced():
    for g, mask in corpus(0x3A55, 30, 60):
        members = list(bits(mask))
        assert (cograph_alpha_omega(g, mask)
                == lift(members, cograph_alpha_omega(induced(g, members))))


def test_exact_oracle_on_mask_equals_induced():
    for c in (Fraction(1, 4), Fraction(1, 3)):
        oracle = exact_bipartite_oracle(c)
        for g, mask in corpus(0x3A56, 25, 24):
            members = list(bits(mask))
            try:
                direct = lift(members, oracle.fn(induced(g, members)))
            except OracleError:
                with pytest.raises(OracleError):
                    oracle.fn(g, mask)
            else:
                assert oracle.fn(g, mask) == direct


# (command, family, n, p, seed, k, strategy, SHA-256 of the output file).
# Between them the pipeline cases reach stage 3's component split and
# recurse-largest branches, the complemented side, the extractor's grow and
# middle-split cases, a co-P4 certificate and the exact and trivial strategies.
CLI_PINS = [
    ("pipeline", "gnp", 60, "1/2", 1, 5, "greedy",
     "c77d93fb369359564df41dc248dcb0fb6dc53af00d0b5c885609918eb89afd63"),
    ("pipeline", "gnp", 40, "1/2", 2, 4, "greedy",
     "4df8152cb714a69802bda673169189c665884dc6166939a9d1bfac6b423d9650"),
    ("pipeline", "gnp", 150, "1/10", 2, 4, "greedy",
     "beba7b0ccc7b72ff68003a70da37a2f0dd7096c46ecf3098b35557b58b00ab7c"),
    ("pipeline", "gnp", 250, "1/10", 0, 5, "greedy",
     "37a6372c5f98ff89d0537fd708e7d010b0fba527a0a6d79ffe03e79c14172177"),
    ("pipeline", "gnp", 150, "9/10", 1, 4, "greedy",
     "97b7d3ce8f16d0e4de6303fed97e64423c931ea449f6d0507a20ad4959ec25ae"),
    ("pipeline", "gnp", 150, "9/10", 3, 4, "greedy",
     "070ab42607264becfcf081676b37f35a86e87f5fdeebd6132f6686272a17def8"),
    ("pipeline", "gnp", 14, "1/2", 4, 3, "exact",
     "83e35b0883f39ce3dbf9ccc1d56df82c02b164f14d1e2e4c8abff216755adfff"),
    ("pipeline", "gnp", 20, "1/2", 5, 5, "trivial",
     "5227b374d4c566ec2bc61fe4087b95dda2ef6d0cdeddeaaae9596213546d8c06"),
    ("pipeline", "cograph", 150, None, 6, 5, "greedy",
     "510aa39cb1166d3b5210755124fc594f25dfa265267cda863fb109638bf4b38a"),
    ("pipeline", "path", 90, None, 0, 5, "greedy",
     "935ed52805d6eae9a1baab41ccd89971f1506340c7b7f40c79aa73c722181ef1"),
    ("eh", "cograph", 120, None, 7, 4, "greedy",
     "75926fbed34e044277918ea7563e8405eb8c7557305032e69972691007d6de18"),
    ("eh", "cograph", 260, None, 8, 4, "greedy",
     "45a7e70045ee72cd15e39127fde857461be731b46b2ba2d752c29085ef805084"),
    ("eh", "gnp", 40, "1/2", 9, 4, "greedy",
     "8fc4f3bafe510da4b180532bd1456909f555b2f0d53e56e49bbf9d44f69dccd4"),
    ("eh", "gnp", 14, "1/2", 10, 3, "exact",
     "5ea6ee559120355847227267356fd99beabfbaa9f0bf6b83cb5f50520ecc7c83"),
    ("eh", "complete-bipartite", 30, None, 0, 4, "greedy",
     "60819f855f6e7451a85e7b4ff556f3a61d035f6ee6698e5c8dd55cc48ab631f6"),
]


@pytest.mark.parametrize("command, family, n, p, seed, k, strategy, digest", CLI_PINS,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[4]}-{c[6]}" for c in CLI_PINS])
def test_cli_output_pinned(tmp_path, command, family, n, p, seed, k, strategy, digest):
    g = generate(GeneratorSpec(family, n, p=Fraction(p) if p else None, seed=seed))
    src, out = tmp_path / "g.edges", tmp_path / "out.json"
    src.write_text(formats.write_edge_list(g))
    assert main([command, "--input", str(src), "--format", "edges", "--k", str(k),
                 "--strategy", strategy, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
