"""Mask-native producers against their runs on a relabelled copy.

Every producer takes a vertex mask over the caller's graph.  Running it on
``(g, mask)`` must give exactly what running it on ``induced(g, mask)``
gives, with vertex ids mapped back through the sorted members: relabelling
keeps vertex order, so every smallest-id tie-break, component order and
lexicographic search maps one to one.  The CLI digests at the end pin whole
``pipeline`` and ``eh`` outputs, as produced before the producers took masks
(``eh`` on cographs re-pinned since, see there).
"""

import hashlib
import json
from fractions import Fraction

import pytest

from pathcert import formats
from pathcert.cli import main
from pathcert.cographs import OracleError, cograph_alpha_omega
from pathcert.extractor import ExtractorParams, path_or_empty_bipartite
from pathcert.generators import GeneratorSpec, generate, gnp, random_cograph
from pathcert.graph import bits, build_graph, component_masks, induced, mask_of
from pathcert.homogeneous import find_epsilon_homogeneous
from pathcert.pipeline import extract_linear_bipartite
from pathcert.rng import stream
from pathcert.witnesses import (BipartitePairWitness, HomogeneousSetWitness, InducedPathWitness,
                                PatternEmbedding)

from conftest import exact_bipartite_oracle, randint


def corpus(tag: int, count: int, max_n: int):
    """(graph, mask) pairs: seeded gnp graphs and cographs, each with a
    random mask of at least two vertices."""
    for seed in range(count):
        rng = stream(tag, seed)
        n = randint(rng, 2, max_n)
        for g in (gnp(n, Fraction(randint(rng, 0, 10), 10), rng), random_cograph(n, rng)):
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
        n = randint(rng, 100, 260)
        p = Fraction(randint(rng, 1, 3), 20)
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


def lift_levels(members, levels):
    """A walk trace recorded on induced(g, members), each grow level's
    ``via`` (the next start's id) in g's ids."""
    return [dict(level, via=members[level["via"]]) if "via" in level else level
            for level in levels]


def test_extract_linear_bipartite_on_mask_equals_induced():
    pairs = list(corpus(0x3A51, 20, 70)) + list(sparse_and_dense_corpus(0x3A57, 8))
    for g, mask in pairs:
        members = list(bits(mask))
        sub = induced(g, members)
        for k in (4, 5):
            masked = extract_linear_bipartite(g, k, mask)
            direct = extract_linear_bipartite(sub, k)
            assert masked.outcome == direct.outcome
            assert masked.witness == lift(members, direct.witness)
            direct_trace = dict(direct.trace)
            if "extractor" in direct_trace:
                direct_trace["extractor"] = lift_levels(members, direct_trace["extractor"])
            assert masked.trace == direct_trace
            assert masked.complemented == direct.complemented
            assert masked.constants == direct.constants


def test_find_epsilon_homogeneous_on_mask_equals_induced():
    for g, mask in corpus(0x3A52, 30, 40):
        members = list(bits(mask))
        sub = induced(g, members)
        for eps in (Fraction(0), Fraction(1, 8), Fraction(1, 3)):
            masked = find_epsilon_homogeneous(g, eps, mask=mask)
            assert masked == lift(members, find_epsilon_homogeneous(sub, eps))


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
            assert masked_trace == lift_levels(members, direct_trace)


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
                direct = lift(members, oracle(induced(g, members)))
            except OracleError:
                with pytest.raises(OracleError):
                    oracle(g, mask)
            else:
                assert oracle(g, mask) == direct


# (command, family, n, p, seed, k, SHA-256 of the witness, SHA-256
# of the output file).  The witness digest hashes output["witness"] as
# canonical JSON (sorted keys, no spaces), as bench/run.py does; the witness
# digests were captured before the extractor's seeded component search.  The
# six pipeline runs that reach the extractor got new file digests when report
# JSON began to write ``trace.extractor`` as a fixed-size summary; nothing
# else in those files changed.  Every ``eh`` output gained a ``route`` key
# when eh began to fold a cograph over its cotree at once: the two gnp runs
# keep their witness digests (they take the doubling route), while the two
# cograph runs and the complete-bipartite run now give the exact fold's set
# (larger on the cographs, the first 15-vertex side on K(15, 15)).  Every
# file digest changed again when report JSON dropped ``constants.n_min_exact``
# and ``eh`` output dropped ``theoretical_bound``; with those keys taken out,
# the old files are byte for byte the new ones.  The pipeline file digests
# changed once more when report JSON wrote ``constants.n_min`` as "2^E + 1"
# and dropped ``constants.T``, ``constants.D`` (still in ``trace``),
# ``trace.stage1.found`` and ``trace.complemented`` (still top-level ``complemented``);
# the witness digests did not change.  They changed again when report JSON
# dropped ``trace.strategy``: stage 1 has one finder, the greedy peel, which
# every pinned run already used; with that key taken out, the old files are
# byte for byte the new ones.  The ids keep their "-greedy" suffix, naming
# that finder.  The five pipeline runs that reach the extractor got new file
# digests when the pipeline's walk began to stop at its k-th path vertex and
# report JSON to write the walk's levels as they are.  Two of them changed
# witness: gnp 250 1/10 seed 0 (k = 5) and gnp 150 9/10 seed 1 (k = 4) ended
# in a middle-split pair after 15 and 12 grow levels, and now return the P5
# and the co-P4 that their walks hold by then.  Every pipeline file digest
# changed again when report JSON dropped ``trace.guarantee_tier``, which read
# "run-derived" in all eight; with that key taken out, the old files are byte
# for byte the new ones.
# Between them the pipeline cases reach stage 3's component split and
# recurse-largest branches, the complemented side, the extractor's grow and
# stop cases and a co-P4 certificate.  The ``eh`` run on a 60-vertex
# path takes the doubling route, whose first extraction returns the P4
# (0, 1, 2, 3): it pins the pattern that ends the doubling through
# OracleError.
CLI_PINS = [
    ("pipeline", "gnp", 60, "1/2", 1, 5,
     "aa608825d80641579c1b7a495a5da20424ec482ba4e6ff4e39e1cb77db5aa7c2",
     "5d71c32f0bf64be450f74f3fb01c08e9b067564b2dd159a34827abb8ee46f193"),
    ("pipeline", "gnp", 40, "1/2", 2, 4,
     "4d4e5ce1e293924f3dc96f72ee400bbbe1c67667a3498a5981c921dcf3c9d94d",
     "6ede8dd752ad54a8c63bfe715dcf4bbe2f619f11b9aa2596d92a3279ab8c19f1"),
    ("pipeline", "gnp", 150, "1/10", 2, 4,
     "8488cc4766059ee640f4ea67e96ba58704e3a3f7d7c708f806b978bf0550da7e",
     "b029098c147ba2c0166b7e704afaffacd5e0ab4089834dd51ef0a80052e9ea55"),
    ("pipeline", "gnp", 250, "1/10", 0, 5,
     "aa4f3f335a6e35e61e5c98d8948851f09378b593e4b829e3024eea1bc49b495a",
     "61545ba1d329d608eca92bcc670676492348b8f9f6c0336ca1580d0b5cbb9ba7"),
    ("pipeline", "gnp", 150, "9/10", 1, 4,
     "72e7256aba02879747db21868060cee19ed245fc93b0252347e14524655fbb02",
     "d844ae5beb6ea2694382d564cc0fdf18f86b12feafeb360757f104d0e2ae7d6b"),
    ("pipeline", "gnp", 150, "9/10", 3, 4,
     "b5fb40ced2de235c96a8546c8ad72ec0c20d41c640c10c9e81abf55b4c3923fb",
     "ba8eb71d1c79403617ed09b1c5caef677cb1307701813b6edc74e78f5078df69"),
    ("pipeline", "cograph", 150, None, 6, 5,
     "ed7275f9dbb028f385c022b6a449328a307588561b0d95074e15cacfc113f59c",
     "1c7b79e9f027044012a2a8ef74e141f03b8d98e4572346908843cbf0965c55df"),
    ("pipeline", "path", 90, None, 0, 5,
     "3a97b85840d03f1fc9084745ef061c408a7ed7aa87d057d39230e4e0cd5b5997",
     "9d25ddf57dcf88ad0a5ff31c09b15bc9dc2961f0b8a32a3dcd1509e5ea1e83a9"),
    ("eh", "cograph", 120, None, 7, 4,
     "d9a40faa1bef78e4de1bac474f6cf3a3ed33224d12c8bc943f58213df1d16083",
     "2e5939472e958220a54020fbde09939b53c8447282dd34e6fcaf49f6a7e0a14c"),
    ("eh", "cograph", 260, None, 8, 4,
     "55f4b44109934b276c0abd685a99df9ee9a5978ccfa94aa2b3928c7c0a9c847e",
     "49b5b1d12a5762d9e30aa353db88182548f3d135daadeabeaca2a080e9fdff7f"),
    ("eh", "gnp", 40, "1/2", 9, 4,
     "1e2d813e102a8ede6c20d3a9aa8715e10c9022351539ad4f9de51c515865fcbe",
     "4a611bf430f4c8acf893dd5f68621e9a45246c76d85743e1356ba79c15c247c1"),
    ("eh", "complete-bipartite", 30, None, 0, 4,
     "0b38d68de5a48f12ad1413f564c89a0ea425437758d2665c98f3640aa799db4a",
     "d2b86728e8b2ae9a7ec6d5713d30b459070f87a3bc4d41f68b183ed10b731ebe"),
    ("eh", "path", 60, None, 0, 4,
     "daf6188b8f3acdd8356649a0b2c2d55c6881a1024ad16c605b6628465aafdff0",
     "6866dfd747c6307c23c31efabc3746fc749f31cf0c6f4ac739be40d8c5e543c6"),
]


@pytest.mark.parametrize("command, family, n, p, seed, k, witness_digest, digest",
                         CLI_PINS,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[4]}-greedy" for c in CLI_PINS])
def test_cli_output_pinned(tmp_path, command, family, n, p, seed, k, witness_digest, digest):
    g = generate(GeneratorSpec(family, n, p=Fraction(p) if p else None, seed=seed))
    src, out = tmp_path / "g.edges", tmp_path / "out.json"
    src.write_text(formats.write_edge_list(g))
    assert main([command, "--input", str(src), "--format", "edges", "--k", str(k),
                 "--out", str(out)]) == 0
    witness = json.dumps(json.loads(out.read_bytes())["witness"], sort_keys=True,
                         separators=(",", ":"))
    assert hashlib.sha256(witness.encode()).hexdigest() == witness_digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
