import functools
import math
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from pathcert import cographs, extractor, graph, homogeneous, pipeline
from pathcert.cographs import OracleError
from pathcert.generators import gnp, random_cograph, rejection_sample_ck
from pathcert.graph import (build_graph, complete_graph, component_masks, cycle_graph,
                            empty_graph, path_graph)
from pathcert.patterns import find_induced_path, is_pk_copk_free
from pathcert.formats import constants_to_dict, report_to_dict
from pathcert.pipeline import (choose_constants, eh_homogeneous, extract_linear_bipartite,
                               log2_bounds, stage1_target)
from pathcert.rng import stream
from pathcert.witnesses import (BipartitePairWitness, HomogeneousSetWitness,
                                InducedPathWitness, PatternEmbedding, verify, verify_embedding)

from conftest import (balanced_cograph, brute_max_clique_size, brute_max_stable_size,
                      oracle_cograph_alpha_omega, randint, small_graphs, stack_depth,
                      sweep_walk, threshold_graph)


def test_choose_constants_k5():
    c = choose_constants(5)
    assert c.epsilon == Fraction(1, 30) and c.c == Fraction(1, 30)
    assert c.path_bound == 5
    assert "log2(30)" in constants_to_dict(c)["delta"]  # irrational, so held symbolically
    assert 2 ** c.n_min_exponent + 1 > 10 ** 100  # far beyond desk scale


@pytest.mark.parametrize("k", range(2, 9))
def test_constants_are_never_exact_and_bound_the_oracle_constant(k):
    """6k has a factor 3, so delta is never a power of two.  E and F come
    from the rational bounds lo < log2(6k) < hi: 2^E >= 1/delta, and
    2^F < 1/delta makes n = 2^F the last n whose stage-1 target is
    certified to be 1."""
    c = choose_constants(k)
    assert constants_to_dict(c)["delta"].startswith(f"2^(-15*{k}*log2({6 * k})^2)")
    lo, hi = log2_bounds(1 / c.epsilon)
    e, f = c.n_min_exponent, c.unit_target_exponent
    assert e == math.ceil(15 * k * hi * hi) and f == math.floor(15 * k * lo * lo)
    assert f < e
    assert stage1_target(c, 2 ** f) == 1
    with pytest.raises(ValueError):
        stage1_target(c, 2 ** f + 1)


def test_choose_constants_k2():
    c = choose_constants(2)
    assert c.epsilon == Fraction(1, 12)
    assert c.path_bound == 2


def test_choose_constants_epsilon_decreasing():
    eps = [choose_constants(k).epsilon for k in range(2, 8)]
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_choose_constants_rejects_small_k():
    with pytest.raises(ValueError):
        choose_constants(1)


def test_stage1_target_desk_scale_is_one():
    c = choose_constants(5)
    for n in (2, 10, 512, 10 ** 6):
        assert stage1_target(c, n) == 1


def test_pipeline_k10_complete_pair():
    g = complete_graph(10)
    r = extract_linear_bipartite(g, 5)
    assert r.outcome == "bipartite-witness"
    assert r.complemented
    w = r.witness
    assert isinstance(w, BipartitePairWitness) and w.kind == "complete"
    assert verify(g, w)
    assert min(w.side_sizes) >= r.trace["T"]


def test_pipeline_p5_returns_verified_witness():
    g = path_graph(5)
    r = extract_linear_bipartite(g, 5)
    # the best sparse set in P5 has 3 vertices, so no length-5 path can come
    # out of it; the sound outcome here is a bipartite witness
    assert r.outcome == "bipartite-witness"
    assert verify(g, r.witness)


def test_pipeline_rejects_tiny_graphs():
    with pytest.raises(ValueError):
        extract_linear_bipartite(empty_graph(1), 5)


def test_pipeline_smallest_inputs():
    for g in (complete_graph(2), empty_graph(2), path_graph(3), complete_graph(3)):
        r = extract_linear_bipartite(g, 5)
        assert verify(g, r.witness), g.n


def test_pipeline_trace_records_stages():
    g = random_cograph(40, stream(0x90))
    r = extract_linear_bipartite(g, 4)
    for key in ("stage1", "s", "s_prime", "T", "D", "stage3"):
        assert key in r.trace
    assert verify(g, r.witness)


def test_pipeline_never_certifies_on_certified_free_inputs():
    for i in range(40):
        sample = rejection_sample_ck(8, 5, Fraction(1, 2), seed=200 + i, budget=2000)
        r = extract_linear_bipartite(sample.graph, 5)
        assert r.outcome != "pattern-certificate"
        assert verify(sample.graph, r.witness)


def test_pipeline_cographs_never_certify_k4():
    for i in range(40):
        g = random_cograph(4 + stream(0x91, i).below(37), stream(0x92, i))
        if g.n < 2:
            continue
        r = extract_linear_bipartite(g, 4)
        assert r.outcome != "pattern-certificate"
        assert verify(g, r.witness)


def test_pipeline_certificates_are_confirmed():
    from pathcert.graph import cycle_graph
    certified = 0
    corpus = [gnp(12 + stream(0x93, i).below(24), Fraction(1, 2), stream(0x94, i))
              for i in range(30)]
    corpus += [path_graph(60), cycle_graph(75), path_graph(100)]
    for g in corpus:
        r = extract_linear_bipartite(g, 5)
        assert verify(g, r.witness)
        if r.outcome == "pattern-certificate":
            certified += 1
            assert isinstance(r.witness, PatternEmbedding)
            assert verify_embedding(g, r.witness)
            assert is_pk_copk_free(g, 5) is not None
    assert certified >= 3  # the structured sparse inputs certify


def test_disconnected_survivor_recurses_into_largest_component():
    # P60 plus an isolated vertex: the pruned sparse set is all 61 vertices,
    # its components are [60, 1], the 1-side cannot reach T, so the run
    # recurses into the path component and walks it
    edges = [(i, i + 1) for i in range(59)]
    g = build_graph(61, edges)
    r = extract_linear_bipartite(g, 5)
    assert r.trace["stage3"].startswith("recurse-largest")
    assert r.outcome == "pattern-certificate"
    assert verify(g, r.witness)


def test_complementation_coherence_forced_inputs():
    for n in (6, 11, 16):
        a = extract_linear_bipartite(empty_graph(n), 4)
        b = extract_linear_bipartite(complete_graph(n), 4)
        assert not a.complemented and b.complemented
        wa, wb = a.witness, b.witness
        assert wa.kind == "empty" and wb.kind == "complete"
        assert (wa.X, wa.Y) == (wb.X, wb.Y)


LEMMA_KS = (2, 3, 4, 5, 8)


def every_small_mask():
    """Every labelled graph on 2-5 vertices on its full mask, then K_n for
    n = 2..8 as the mask of a larger graph (a path hangs off it): a complete
    mask is the one input on which stage 1's sparse peel keeps one vertex."""
    for g in small_graphs(5):
        if g.n >= 2:
            yield g, g.full_mask
    for n in range(2, 9):
        edges = [(u, v) for v in range(n) for u in range(v)] + [(n - 1, n), (n, n + 1)]
        yield build_graph(n + 2, edges), (1 << n) - 1


def test_stage1_keeps_two_vertices_on_every_small_mask():
    # Step 1 of the proof beside extract_linear_bipartite's assert.
    for g, mask in every_small_mask():
        for k in LEMMA_KS:
            w = homogeneous.find_epsilon_homogeneous(g, Fraction(1, 6 * k), mask=mask)
            assert w.size >= 2, (g.adj, mask, k)


def _assert_pair_of_sides_T_or_k_path(g, k, mask=None):
    r = extract_linear_bipartite(g, k, mask)
    assert r.trace["s_prime"] >= 2  # step 2
    if r.outcome == "bipartite-witness":
        assert min(r.witness.side_sizes) >= r.trace["T"], (g.adj, mask, k)
    else:
        assert r.outcome == "pattern-certificate", (g.adj, mask, k)
        assert len(r.witness.mapping) == r.trace["path_length"] == k
    return r


def test_every_outcome_is_a_pair_of_sides_T_or_a_k_path():
    # The proof's conclusion, on every small mask and on paths long enough to
    # certify: a pair's sides reach the run's T, and a pattern certificate
    # has exactly k vertices.
    runs = [(g, mask, k) for g, mask in every_small_mask() for k in LEMMA_KS]
    runs += [(path_graph(12 * k), None, k) for k in LEMMA_KS]
    outcomes = {_assert_pair_of_sides_T_or_k_path(g, k, mask).outcome for g, mask, k in runs}
    assert outcomes == {"bipartite-witness", "pattern-certificate"}


def test_linear_tier_not_claimed_at_desk_scale():
    # The linear pair c_k n is below one vertex at n = 30, far under n_min:
    # a report claims only the run's own T, never a linear tier.
    for seed in range(20):
        g = gnp(30, Fraction(1, 2), stream(0x95, seed))
        r = _assert_pair_of_sides_T_or_k_path(g, 5)
        assert r.constants.c_k_log2 + math.log2(g.n) < 0
        assert g.n < 2 ** r.constants.n_min_exponent + 1
        assert "guarantee_tier" not in r.trace


def test_run_derived_tier_sides_meet_T():
    pairs = 0
    for seed in range(30):
        g = random_cograph(30, stream(0x96, seed))
        if g.n < 2:
            continue
        r = _assert_pair_of_sides_T_or_k_path(g, 4)
        pairs += r.outcome == "bipartite-witness"
    assert pairs > 0


def test_eh_edgeless_all_vertices():
    g = empty_graph(12)
    w = eh_homogeneous(g, 4)
    assert isinstance(w, HomogeneousSetWitness)
    assert w.kind == "stable" and w.S == frozenset(range(12))
    assert verify(g, w)


@pytest.mark.parametrize("g", [complete_graph(5), path_graph(6)], ids=["cotree", "doubling"])
def test_eh_checks_k_on_both_routes(g):
    with pytest.raises(ValueError, match="k must be at least 2"):
        eh_homogeneous(g, 1)


def test_eh_complete_graph_full_clique():
    g = complete_graph(10)
    w = eh_homogeneous(g, 5)
    assert w.kind == "clique" and len(w.S) == 10
    assert verify(g, w)


def test_eh_propagates_pattern_certificates():
    # A path is no cograph, so eh takes the doubling; at 60 vertices the first
    # extraction walks to an induced P4, which comes back through OracleError.
    g = path_graph(60)
    details: dict = {}
    out = eh_homogeneous(g, 4, details=details)
    assert details == {"route": "doubling"}
    assert isinstance(out, PatternEmbedding)
    assert (out.pattern_name, out.mapping) == ("P4", (0, 1, 2, 3))
    assert verify_embedding(g, out)


def test_eh_reraises_an_oracle_error_that_carries_no_pattern(monkeypatch):
    """A rejected extraction pair is an OracleError that eh passes on; only
    a pattern certificate on that channel ends the doubling with a result."""
    bad = BipartitePairWitness("empty", frozenset([0]), frozenset([1]))  # 0-1 is an edge
    monkeypatch.setattr(pipeline, "extract_linear_bipartite",
                        lambda g, k, mask=None: replace(extract_linear_bipartite(g, k, mask),
                                                        witness=bad))
    with pytest.raises(OracleError, match="oracle witness rejected") as err:
        eh_homogeneous(path_graph(6), 4)
    assert err.value.witness is bad


def test_eh_cograph_64_reaches_sqrt_n():
    g = random_cograph(64, stream(0))
    details: dict = {}
    w = eh_homogeneous(g, 4, details=details)
    assert isinstance(w, HomogeneousSetWitness)
    assert len(w.S) >= math.isqrt(64)
    assert verify(g, w)
    assert details["achieved"] == len(w.S)


def test_eh_single_vertex():
    details: dict = {}
    w = eh_homogeneous(empty_graph(1), 4, details=details)
    assert w.S == frozenset({0}) and w.kind == "stable"
    assert details == {"route": "cotree", "achieved": 1, "extracted_size": 1}


def _assert_exact_on_cograph(g, k=4):
    details: dict = {}
    w = eh_homogeneous(g, k, details=details)
    alpha, omega = brute_max_stable_size(g), brute_max_clique_size(g)
    assert isinstance(w, HomogeneousSetWitness) and verify(g, w)
    assert (w.kind, len(w.S)) == (("stable", alpha) if alpha >= omega else ("clique", omega))
    assert details["route"] == "cotree" and details["extracted_size"] == g.n
    assert details["achieved"] == len(w.S)


def test_eh_is_exact_on_every_small_cograph():
    cographs = 0
    for g in small_graphs(6):
        if not find_induced_path(g, 4).found:
            cographs += 1
            _assert_exact_on_cograph(g)
    assert cographs == 6039  # labelled cographs on 1..6 vertices


def test_eh_is_exact_on_seeded_cographs():
    for seed in range(40):
        rng = stream(0x97, seed)
        cograph = balanced_cograph if seed % 4 == 0 else random_cograph
        _assert_exact_on_cograph(cograph(randint(rng, 2, 30), rng), randint(rng, 2, 6))
    for n in (2, 9, 30):
        _assert_exact_on_cograph(threshold_graph(n))
    # The whole cograph is folded: the sets of the sweeping fold oracle, the
    # stable one on a tie.
    for seed in range(5):
        g = random_cograph(200, stream(0x98, seed))
        stable, clique = oracle_cograph_alpha_omega(g)
        assert eh_homogeneous(g, 4).S == (stable if len(stable) >= len(clique) else clique)


def test_eh_non_cograph_takes_the_doubling_route():
    for seed in range(10):
        g = gnp(40, Fraction(1, 2), stream(0x99, seed))
        details: dict = {}
        w = eh_homogeneous(g, 4, details=details)
        assert details["route"] == "doubling"
        assert verify(g, w)
        if isinstance(w, HomogeneousSetWitness):
            assert details["extracted_size"] < g.n
    details = {}
    out = eh_homogeneous(path_graph(12), 4, details=details)
    assert details["route"] == "doubling"
    if isinstance(out, PatternEmbedding):
        assert details == {"route": "doubling"}


def test_eh_doubling_computes_the_constants_of_k_once():
    # eh validates k with choose_constants(k); each oracle call of the
    # doubling asks for the same constants again and gets the cached ones.
    g = gnp(200, Fraction(1, 2), stream(0x9A, 0))
    before = choose_constants.cache_info()
    details: dict = {}
    assert verify(g, eh_homogeneous(g, 4, details=details))
    after = choose_constants.cache_info()
    assert details["route"] == "doubling"
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits >= 2


def pipeline_walk_params(g, k=5):
    """The T and D with which the pipeline at k walks a path or a cycle: its
    stage 1 and prune keep all of g, which is connected, so the walk starts
    at vertex 0 on the whole graph."""
    trace = extract_linear_bipartite(g, k).trace
    assert trace["s_prime"] == g.n and trace["stage3"] == "connected"
    return extractor.ExtractorParams(trace["T"], trace["D"])


@pytest.mark.parametrize("g", [path_graph(958), cycle_graph(1233), path_graph(1508)],
                         ids=["path958", "cycle1233", "path1508"])
def test_pipeline_walk_stops_at_the_kth_path_vertex(g):
    # The full walk here runs 799 to 1255 levels; the pipeline's stops at
    # the top of the level whose path, start included, holds k vertices.
    report = extract_linear_bipartite(g, 5)
    levels = report.trace["extractor"]
    assert len(levels) == 5 and levels[-1]["case"] == "stop"
    assert [level["case"] for level in levels[:-1]] == ["grow"] * 4
    assert report.trace["path_length"] == 5
    assert report.outcome == "pattern-certificate"
    assert verify(g, report.witness)


@pytest.mark.parametrize("g", [path_graph(400), cycle_graph(400)], ids=["path", "cycle"])
def test_deep_extractor_walk_needs_no_recursion(g):
    # The path/pair walk takes over 300 grow steps here; with the stack
    # capped 150 frames above this one, one frame per step would overflow.
    params = pipeline_walk_params(g)
    levels: list = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 150)
    try:
        w = extractor.path_or_empty_bipartite(g, 0, params, levels)
    finally:
        sys.setrecursionlimit(limit)
    assert len(levels) > 300
    assert isinstance(w, InducedPathWitness)
    assert verify(g, w)


@pytest.mark.parametrize("g", [path_graph(5000), cycle_graph(5000)], ids=["path", "cycle"])
def test_deep_extractor_walk_at_n5000(g, monkeypatch):
    # Over 4000 grow levels; the walk's only full component sweep is its
    # entry-time connectivity check, so the run stays linear in the levels.
    params = pipeline_walk_params(g)
    sweeps = []
    monkeypatch.setattr(extractor, "component_masks",
                        lambda adj, mask, *, co=False: sweeps.append((co, mask))
                        or component_masks(adj, mask, co=co))
    levels: list = []
    w = extractor.path_or_empty_bipartite(g, 0, params, levels)
    assert isinstance(w, InducedPathWitness)
    assert verify(g, w)
    assert len(levels) > 4000
    assert [co for co, _ in sweeps] == [False]


def ladder_graph(n):
    """Rails 0, 2, 4, ... and 1, 3, 5, ..., rung (2i, 2i + 1)."""
    return build_graph(n, [(v, v + 2) for v in range(n - 2)] + [(v, v + 1) for v in range(0, n, 2)])


def grid_graph(side):
    return build_graph(side * side, [(v, v + 1) for v in range(side * side) if (v + 1) % side]
                       + [(v, v + side) for v in range(side * (side - 1))])


@pytest.mark.parametrize("g", [ladder_graph(2000), grid_graph(45)], ids=["ladder", "grid"])
def test_branching_walk_stops_each_seeded_search_early(g, monkeypatch):
    # Walked to the end at T = 1 and D = the largest closed degree, a level
    # of the ladder has up to two seeds and one of the grid up to three.  The
    # seeded search stops once one search is open, so the walk's neighbour
    # reads stay a few per level; a search swept to its end would take about
    # n / 2 rounds per level, quadratic in the walk.
    params = extractor.ExtractorParams(1, max(g.degrees) + 1)
    sweeps, seeds, reads = [], [], []
    monkeypatch.setattr(extractor, "component_masks",
                        lambda adj, mask, *, co=False: sweeps.append(co)
                        or component_masks(adj, mask, co=co))
    search = extractor._components_from_seeds
    monkeypatch.setattr(extractor, "_components_from_seeds",
                        lambda adj, u, s: seeds.append(s.bit_count()) or search(adj, u, s))
    monkeypatch.setattr(extractor, "neighbours",
                        lambda adj, mask: reads.append(mask) or graph.neighbours(adj, mask))
    levels: list = []
    w = extractor.path_or_empty_bipartite(g, 0, params, levels)
    assert isinstance(w, InducedPathWitness) and verify(g, w)
    assert [level["case"] for level in levels[:-1]] == ["grow"] * (len(levels) - 1)
    assert sweeps == [False]  # the entry check
    assert max(seeds) >= 2 and len(seeds) == len(levels) - 2  # not the entry, nor the base
    assert len(reads) < 4 * len(levels)


@pytest.mark.parametrize("g, levels", [(path_graph(958), 799), (cycle_graph(1233), 1024)],
                         ids=["path", "cycle"])
def test_deep_walk_matches_full_sweep_oracle(g, levels):
    # Every level on a path, and every level after the first on a cycle, is
    # a grow by c1 = n - 2 through one seeded search of one seed.
    params = pipeline_walk_params(g)
    trace: list = []
    w = extractor.path_or_empty_bipartite(g, 0, params, trace)
    assert (w, trace) == sweep_walk(g, 0, params, g.full_mask)
    assert len(trace) == levels
    assert verify(g, w)


@pytest.fixture
def row_passes(monkeypatch):
    """The passes over rows that count degrees: ("table", n) for each build
    of a graph's degree table, ("mask", size) for each other mask that
    inner_degrees counts member by member."""
    passes = []
    build = graph.Graph.__dict__["degrees"].func

    def counting_build(g):
        passes.append(("table", g.n))
        return build(g)

    def counting(g, mask):
        if mask != g.full_mask:
            passes.append(("mask", mask.bit_count()))
        return graph.inner_degrees(g, mask)

    table = functools.cached_property(counting_build)
    table.__set_name__(graph.Graph, "degrees")
    monkeypatch.setattr(graph.Graph, "degrees", table)
    for module in (homogeneous, extractor, cographs):
        monkeypatch.setattr(module, "inner_degrees", counting)
    return passes


def test_deep_path_request_makes_one_degree_pass(row_passes, monkeypatch):
    # The sparse peel keeps all of a path or a cycle, so the dense peel does
    # not start, the prune keeps every vertex and the walk runs on the full
    # mask: the sparse peel, the prune and the walk's degree check read one
    # degree table, built once.  The request's one component sweep is the
    # walk's entry check, of everything beyond the start's closed
    # neighbourhood, which is also the walk's first level; the seeded search
    # serves the levels after it, up to the stop at k.
    sweeps, searches = [], []

    def sweeping(adj, mask, *, co=False):
        sweeps.append((co, mask))
        return graph.component_masks(adj, mask, co=co)

    def searching(adj, u, seeds):
        searches.append(u)
        return seeded(adj, u, seeds)

    seeded = extractor._components_from_seeds
    for module in (extractor, cographs, pipeline):  # a sweep bound in the pipeline counts too
        monkeypatch.setattr(module, "component_masks", sweeping, raising=False)
    monkeypatch.setattr(extractor, "_components_from_seeds", searching)
    for g, beyond in ((path_graph(958), 956), (cycle_graph(683), 680)):
        row_passes.clear()
        sweeps.clear()
        searches.clear()
        report = extract_linear_bipartite(g, 5)
        assert row_passes == [("table", g.n)]
        assert sweeps == [(False, g.full_mask & ~(g.adj[0] | 1))]
        assert sweeps[0][1].bit_count() == beyond
        assert len(searches) == 3
        assert report.trace["stage1"] == {"kind": "stable", "size": g.n}
        assert report.trace["stage3"] == "connected"
        assert report.outcome == "pattern-certificate"
        assert verify(g, report.witness)


def test_dense_stage1_peels_share_one_degree_pass(row_passes, monkeypatch):
    # On G(500, 1/2) the sparse peel deletes vertices, so the dense peel runs
    # too, on the same full mask: both read the one degree table.
    peels = []
    peel = homogeneous._peel
    monkeypatch.setattr(homogeneous, "_peel",
                        lambda g, mask, *args, **kw: peels.append(mask) or peel(g, mask, *args, **kw))
    g = gnp(500, Fraction(1, 2), stream(0xDE6))
    w = homogeneous.find_epsilon_homogeneous(g, choose_constants(5).epsilon)
    assert peels == [g.full_mask] * 2
    assert row_passes == [("table", 500)]
    assert verify(g, w)


STAGE3_ROUTES = [
    (path_graph(958), 5, "connected", [958], ["extractor", "path_length"]),
    (empty_graph(6), 4, "component-split", [1] * 6, ["sides"]),
    (build_graph(61, [(i, i + 1) for i in range(59)]), 5, "recurse-largest(60)", [60, 1],
     ["extractor", "path_length"]),
]


@pytest.mark.parametrize("g, k, stage3", [route[:3] for route in STAGE3_ROUTES],
                         ids=["connected", "component-split", "recurse-largest"])
def test_each_walk_makes_one_component_sweep_on_every_stage3_route(g, k, stage3, monkeypatch):
    # The sweep is the walk's entry check beyond its start's closed
    # neighbourhood, so it is 2 or 1 vertices short of the walk's mask here.
    walks, sweeps = [], []

    def walking(g, x, params, trace=None, mask=None, *, k=None):
        walks.append(mask)
        return walk(g, x, params, trace, mask, k=k)

    def sweeping(adj, mask, *, co=False):
        sweeps.append((co, mask.bit_count()))
        return graph.component_masks(adj, mask, co=co)

    walk = pipeline.path_or_empty_bipartite
    monkeypatch.setattr(pipeline, "path_or_empty_bipartite", walking)
    monkeypatch.setattr(extractor, "component_masks", sweeping)
    extract_linear_bipartite(g, k)
    assert len(sweeps) == len(walks) == (2 if stage3.startswith("recurse") else 1)
    assert sweeps == {"connected": [(False, 956)], "component-split": [(False, 5)],
                      "recurse-largest(60)": [(False, 59), (False, 58)]}[stage3]


@pytest.mark.parametrize("g, k, stage3, sizes, tail", STAGE3_ROUTES,
                         ids=["connected", "component-split", "recurse-largest"])
def test_report_trace_keys_keep_their_order_on_every_stage3_route(g, k, stage3, sizes, tail):
    # The report JSON writes the trace as it is, so its key order is output.
    r = extract_linear_bipartite(g, k)
    assert (r.trace["stage3"], r.trace["component_sizes"]) == (stage3, sizes)
    assert list(r.trace) == ["n", "stage1_target", "stage1", "s", "s_prime", "T", "D",
                             "component_sizes", "stage3", *tail]
    assert list(report_to_dict(r)["trace"]) == list(r.trace)
    assert verify(g, r.witness)
