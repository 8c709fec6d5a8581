"""Shared corpus builders and independent brute-force oracles.

The oracles here intentionally re-derive everything from scratch (subset
enumeration, permutation search, plain edge recounts) so the library is
always checked against a second, dumber route.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from pathlib import Path

from pathcert import cli
from pathcert.cographs import OracleError
from pathcert.extractor import ExtractorParams, split_small_components
from pathcert.formats import Graph6Error, _decode_graph6_size, witness_to_dict
from pathcert.graph import Graph, build_graph, complement, induced, mask_of
from pathcert.generators import gnp, random_cograph
from pathcert.patterns import PatternQueryResult, find_induced_path
from pathcert.rng import SplitMix64, stream
from pathcert.witnesses import (BipartitePairWitness, InducedPathWitness, PatternEmbedding,
                                Verdict, verify_bipartite_pair)


def reference_bits(mask: int):
    """Set bit positions of ``mask``, ascending, one low bit at a time: the
    oracle for ``graph.bits`` and the lister of every oracle here."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def randint(rng: SplitMix64, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi] inclusive, from one ``rng.below`` draw."""
    return lo + rng.below(hi - lo + 1)


def bernoulli(rng: SplitMix64, numerator: int, denominator: int) -> bool:
    """One exact Bernoulli(numerator/denominator) draw, one ``rng.below``
    call unless the probability is 0 or 1: the oracle for
    ``SplitMix64.bernoulli_bytes``."""
    if not 0 <= numerator <= denominator or denominator <= 0:
        raise ValueError("probability must be in [0, 1]")
    if numerator in (0, denominator):
        return numerator != 0
    return rng.below(denominator) < numerator


def degree(g: Graph, v: int) -> int:
    """The number of v's neighbours."""
    return g.adj[v].bit_count()


def closed_degree(g: Graph, v: int) -> int:
    """The size of v's closed neighbourhood: its degree plus v itself."""
    return degree(g, v) + 1


def graph_edges(g: Graph):
    """The edges (u, v) of g, u < v, in lexicographic order."""
    for u in range(g.n):
        for v in reference_bits(g.adj[u] >> (u + 1)):
            yield u, u + 1 + v


def witness_to_json(w) -> str:
    """A witness file's text, as ``pathcert verify`` reads it."""
    return json.dumps(witness_to_dict(w), indent=2) + "\n"


def tampered(witness: dict, n: int) -> dict:
    """Witness JSON with its first vertex id replaced by n, which no graph
    on n vertices has."""
    key = next(key for key in ("vertices", "X", "S", "map") if key in witness)
    return {**witness, key: [n, *witness[key][1:]]}


def check_answer_file(graph: str, fmt: str, n: int, answer: Path) -> int:
    """The number of witnesses in the CLI's answer file ``answer``, after
    checking what ``pathcert verify`` makes of it against the n-vertex
    graph file ``graph``: exit 0 on the file, 1 on a copy with any one of
    its witnesses ``tampered``, and 2 if it holds no witness."""
    argv = ["verify", "--graph", graph, "--format", fmt, "--witness", str(answer)]
    data = json.loads(answer.read_text())
    key = "witness" if "witness" in data else "witnesses"
    found = [data["witness"]] if key == "witness" else data.get(key, [])
    assert cli.main(argv) == (0 if found else 2)
    copy = answer.with_name("tampered.json")
    argv[-1] = str(copy)
    for i in range(len(found)):
        bad = [tampered(w, n) if j == i else w for j, w in enumerate(found)]
        copy.write_text(json.dumps({**data, key: bad[0] if key == "witness" else bad}))
        assert cli.main(argv) == 1
    return len(found)


def oracle_gnp(n: int, p: Fraction, rng: SplitMix64) -> Graph:
    """G(n, p) with one scalar ``bernoulli`` draw per pair (u, v), u < v,
    in lexicographic order: the oracle for the batched ``generators.gnp``."""
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    return build_graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)
                           if bernoulli(rng, num, den)))


def seeded_connected_graph(seed: int, max_n: int = 60) -> Graph:
    """A connected seeded graph, rebuilt from the largest component of a
    G(n, p) draw so the result is a root graph.  Even seeds use dense p,
    odd seeds sparse p (average degree about 1.2 to 4.5), so both shallow
    and deeply recursive extractor behaviors show up downstream."""
    rng = stream(0xC0FFEE, seed)
    n = randint(rng, 1, max_n)
    if seed % 2 == 0:
        p = Fraction(randint(rng, 1, 9), 10)
    else:
        p = min(Fraction(1), Fraction(randint(rng, 12, 45), 10 * n))
    g = gnp(n, p, rng)
    vs = list(reference_bits(reference_component_masks(g.adj, g.full_mask)[0]))
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in graph_edges(g) if u in index and v in index]
    return build_graph(len(vs), edges)


def reference_component_masks(adj, mask: int) -> list[int]:
    """Components of the subgraph on ``mask`` as bit masks, ordered by size
    descending, then by smallest member: a breadth-first sweep whose
    frontier is the OR of its members' rows, listed by ``reference_bits``.
    The oracle for ``graph.component_masks``, and the sweep of every oracle
    and corpus builder here."""
    comps = []
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grown = 0
            for v in reference_bits(frontier):
                grown |= adj[v]
            frontier = grown & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    comps.sort(key=lambda c: (-c.bit_count(), (c & -c).bit_length()))
    return comps


def masked_corpus(tag: int, count: int, max_n: int):
    """(graph, mask) pairs: seeded gnp graphs and cographs, each with a random
    mask keeping about three vertices in four.  Odd seeds draw sparse gnp
    graphs (average degree about 1.5 to 4), whose long walks reach many grow
    levels; even seeds draw p up to 3/5."""
    for seed in range(count):
        rng = stream(tag, seed)
        n = randint(rng, 2, max_n)
        if seed % 2:
            p = min(Fraction(1), Fraction(randint(rng, 15, 40), 10 * n))
        else:
            p = Fraction(randint(rng, 1, 60), 100)
        for g in (gnp(n, p, rng), random_cograph(n, rng)):
            yield g, sum(1 << v for v in range(n) if rng.below(4)) or 1


def balanced_cograph(n: int, rng: SplitMix64) -> Graph:
    """A random cotree on 0..n-1 split at the midpoint at every node, so
    the sizes halve all the way down.  Each node is a union or a join by
    one ``rng.below(2)`` draw, made before its children's, left child first,
    as ``random_cograph`` draws its nodes."""
    rows = [0] * n

    def build(lo: int, hi: int) -> None:
        if hi - lo == 1:
            return
        cut = lo + (hi - lo) // 2
        join = rng.below(2) == 1
        build(lo, cut)
        build(cut, hi)
        if join:
            left, right = mask_of(range(lo, cut)), mask_of(range(cut, hi))
            for v in range(lo, cut):
                rows[v] |= right
            for v in range(cut, hi):
                rows[v] |= left

    build(0, n)
    return Graph(n, tuple(rows))


def brute_max_stable_size(g: Graph) -> int:
    """Branch-and-bound maximum independent set size (independent oracle)."""
    adj = g.adj
    best = 0

    def grow(mask: int, size: int) -> None:
        nonlocal best
        if size + mask.bit_count() <= best:
            return
        if not mask:
            best = max(best, size)
            return
        v = (mask & -mask).bit_length() - 1
        grow(mask & ~(adj[v] | (1 << v)), size + 1)
        grow(mask & ~(1 << v), size)

    grow(g.full_mask, 0)
    return best


def brute_max_clique_size(g: Graph) -> int:
    full = g.full_mask
    co = Graph(g.n, tuple((~g.adj[v]) & full & ~(1 << v) for v in range(g.n)))
    return brute_max_stable_size(co)


def brute_has_induced_path(g: Graph, k: int) -> bool:
    """Permutation-free brute force: try every k-subset, then every ordering
    of it, checking the induced-path adjacency pattern directly."""
    from itertools import permutations

    if k > g.n:
        return False
    for sub in combinations(range(g.n), k):
        for perm in permutations(sub):
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    want = j == i + 1
                    if g.has_edge(perm[i], perm[j]) != want:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def brute_has_induced_p4(g: Graph) -> bool:
    """All 4-subsets, all orderings; independent of the search code."""
    return brute_has_induced_path(g, 4)


def edges_within(g: Graph, s) -> int:
    m = mask_of(s)
    return sum((g.adj[v] & m).bit_count() for v in reference_bits(m)) // 2


def best_homogeneous_sizes(g: Graph, epsilon: Fraction) -> tuple[int, int]:
    """(max stable-kind size, max clique-kind size) by full subset
    enumeration - the upper bound on the greedy finder's set of each kind."""
    best_stable = 0
    best_clique = 0
    for size in range(1, g.n + 1):
        budget = epsilon * (size * (size - 1) // 2)
        for combo in combinations(range(g.n), size):
            e = edges_within(g, combo)
            if e <= budget:
                best_stable = max(best_stable, size)
            if size * (size - 1) // 2 - e <= budget:
                best_clique = max(best_clique, size)
    return best_stable, best_clique


def pairwise_verify_induced_path(g: Graph, w: InducedPathWitness) -> Verdict:
    """The induced-path verifier with one adjacency lookup per vertex pair
    (oracle for the one-AND-per-vertex chord check): the same reasons and
    details, the first chord in (i, j) order."""
    vs = w.vertices
    if len(vs) == 0:
        return Verdict(False, "empty-sequence")
    for v in vs:
        if not 0 <= v < g.n:
            return Verdict(False, "vertex-out-of-range", f"vertex {v} not in 0..{g.n - 1}")
    if len(set(vs)) != len(vs):
        return Verdict(False, "repeated-vertex")
    for i in range(len(vs) - 1):
        if not g.has_edge(vs[i], vs[i + 1]):
            return Verdict(False, "missing-edge", f"({vs[i]},{vs[i + 1]}) must be an edge")
    for i in range(len(vs)):
        for j in range(i + 2, len(vs)):
            if g.has_edge(vs[i], vs[j]):
                return Verdict(False, "forbidden-edge", f"chord ({vs[i]},{vs[j]})")
    return Verdict(True)


def pairwise_verify_embedding(g: Graph, w: PatternEmbedding) -> Verdict:
    """The embedding verifier with one adjacency lookup per pattern pair
    (oracle for the one-AND-per-vertex check): the same reasons and
    details, the first mismatching pair in (i, j) order."""
    for v in w.mapping:
        if not 0 <= v < g.n:
            return Verdict(False, "vertex-out-of-range", f"vertex {v} not in 0..{g.n - 1}")
    if len(set(w.mapping)) != len(w.mapping):
        return Verdict(False, "repeated-vertex")
    if len(w.mapping) != w.pattern.n:
        return Verdict(False, "size-mismatch",
                       f"pattern has {w.pattern.n} vertices, mapping has {len(w.mapping)}")
    for i in range(w.pattern.n):
        for j in range(i + 1, w.pattern.n):
            u, v = w.mapping[i], w.mapping[j]
            if w.pattern.has_edge(i, j) != g.has_edge(u, v):
                return Verdict(False, "adjacency-mismatch",
                               f"pattern pair ({i},{j}) vs host pair ({u},{v})")
    return Verdict(True)


def brute_peel(adj, n: int, epsilon: Fraction) -> tuple[int, int]:
    """The plain greedy peel (oracle for the bit-sliced one): rescan every
    survivor's degree, delete a maximum-degree vertex (ties: smallest id)
    until the survivors span at most epsilon * C(size, 2) edges; returns
    (mask, edges).  Run it on complement rows for the dense peel."""
    mask = (1 << n) - 1
    edges = sum((adj[v] & mask).bit_count() for v in reference_bits(mask)) // 2
    size = n
    while size > 1:
        if edges <= epsilon * (size * (size - 1) // 2):
            break
        worst, worst_deg = -1, -1
        for v in reference_bits(mask):
            d = (adj[v] & mask).bit_count()
            if d > worst_deg:
                worst, worst_deg = v, d
        mask &= ~(1 << worst)
        edges -= worst_deg
        size -= 1
    return mask, edges


def reference_degree_planes(adj, mask: int) -> list[int]:
    """The bit-sliced degrees inside ``mask``, set up one vertex and one bit
    at a time (oracle for the peel's planes): bit v of ``planes[b]`` is bit
    b of the degree of member v."""
    planes = [0] * max(1, (mask.bit_count() - 1).bit_length())
    for v in reference_bits(mask):
        d = (adj[v] & mask).bit_count()
        b = 0
        while d:
            if d & 1:
                planes[b] |= 1 << v
            d >>= 1
            b += 1
    return planes


def sweep_walk(g: Graph, x: int, params: ExtractorParams, mask: int):
    """The path/pair walk with a full component sweep per level (oracle for
    the seeded search in the extractor): returns (witness, per-level trace)
    on a valid input, asserting at each grow level that the next mask is
    connected."""
    adj = g.adj
    T, D = params.T, params.D
    trace: list = []
    path: list[int] = []
    start = x
    while True:
        m = mask.bit_count()
        if 3 * T + D >= m:
            trace.append({"n": m, "case": "base"})
            if m == 1:
                return InducedPathWitness(tuple(path + [start])), trace
            nb = adj[start] & mask
            return InducedPathWitness(tuple(path + [start, (nb & -nb).bit_length() - 1])), trace
        u = mask & ~(adj[start] | 1 << start)
        comps = reference_component_masks(adj, u)
        c1 = comps[0]
        c1_size = c1.bit_count()
        if c1_size >= m - D - T:
            y = min(v for v in reference_bits(adj[start] & mask) if adj[v] & c1)
            sub = c1 | 1 << y
            assert len(reference_component_masks(adj, sub)) == 1
            trace.append({"n": m, "case": "grow", "c1": c1_size, "via": y})
            path.append(start)
            mask, start = sub, y
            continue
        if c1_size >= T:
            trace.append({"n": m, "case": "middle-split", "c1": c1_size})
            return BipartitePairWitness("empty", frozenset(reference_bits(c1)),
                                        frozenset(reference_bits(u & ~c1))), trace
        a, b = split_small_components(comps, T)
        trace.append({"n": m, "case": "small-split", "c1": c1_size})
        return BipartitePairWitness("empty", frozenset(reference_bits(a)),
                                    frozenset(reference_bits(b))), trace


def planted_sparse_graph(s: int, epsilon: Fraction, rng: SplitMix64) -> Graph:
    """A graph on s vertices with at most epsilon * C(s, 2) edges, placed at
    seeded random positions."""
    cap = int(epsilon * (s * (s - 1) // 2))
    m = randint(rng, 0, cap) if cap > 0 else 0
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.below(s)
        v = rng.below(s)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return build_graph(s, sorted(chosen))


def stack_depth() -> int:
    """Frames on the caller's stack, this call included."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def threshold_graph(n: int) -> Graph:
    """Vertex i is joined to every earlier vertex when i is odd: a cograph
    whose cotree is a chain of depth n - 1.  Its maximum stable set is the
    even vertices (n // 2 + n % 2 of them, lexicographically first) and its
    maximum clique is 0 plus the odd vertices."""
    odd = mask_of(range(1, n, 2))
    return Graph(n, tuple(((1 << v) - 1 if v % 2 else 0) | odd >> (v + 1 + v % 2) << (v + 1 + v % 2)
                          for v in range(n)))


def small_graphs(max_n: int):
    """Every graph on 1..max_n vertices (2^15 of them on 6), each once."""
    for n in range(1, max_n + 1):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for code in range(1 << len(pairs)):
            yield build_graph(n, [pair for i, pair in enumerate(pairs) if code >> i & 1])


def caterpillar_graph(n: int, seed: int) -> Graph:
    """A threshold graph on shuffled vertex ids: the vertices are added in a
    seeded random order, each one isolated from or joined to all earlier
    ones, alternately (the first kind is a coin flip), so the cotree is a
    caterpillar of depth n - 1."""
    rng = stream(0xCA7, seed)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    rows = [0] * n
    earlier = 0
    join = rng.below(2) == 1
    for v in order:
        if join:
            rows[v] = earlier
            for u in reference_bits(earlier):
                rows[u] |= 1 << v
        earlier |= 1 << v
        join = not join
    return Graph(n, tuple(rows))


def half_density_graph(n: int, seed: int) -> Graph:
    """A G(n, 1/2) sample drawn 64 pairs per random word (a different graph
    from generators.gnp's for the same seed)."""
    rng = stream(0xD1, seed)
    words = (n + 63) // 64
    edges = []
    for u in range(n):
        word = 0
        for _ in range(words):
            word = word << 64 | rng.next_u64()
        upper = word & ((1 << n) - 1) >> (u + 1) << (u + 1)
        edges.extend((u, v) for v in reference_bits(upper))
    return build_graph(n, edges)


# The edge-list and graph6 code as it was before chunked tokenizing and
# strided graph6 rows: one split and one (u, v) tuple per edge line, one bit
# string per graph6 column.  Oracles for the faster versions in formats.

_SIX_BITS = {63 + v: format(v, "06b") for v in range(64)}

def oracle_parse_edge_list(text: str) -> Graph:
    rows = [ln for ln in (line.strip() for line in text.splitlines())
            if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError('edge-list header must be "n m"')
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n < 1:
        raise ValueError("graphs have at least one vertex")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop ({u},{u}) is not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def oracle_write_edge_list(g: Graph) -> str:
    edges = list(graph_edges(g))
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def oracle_decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty input", 0)
    n, head = _decode_graph6_size(s)
    if n < 1:
        raise Graph6Error("graphs have at least one vertex", 0)
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(s) - head != need:
        raise Graph6Error(f"expected {need} data bytes for n={n}, got {len(s) - head}",
                          min(len(s), need + head))
    bad = re.search(r"[^?-~]", s[head:])
    if bad:
        raise Graph6Error(f"invalid data byte {bad.group()!r}", head + bad.start())
    bitstr = s[head:].translate(_SIX_BITS)
    if "1" in bitstr[total:]:
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    edges = []
    start = 0
    for j in range(1, n):
        column = bitstr[start:start + j]
        start += j
        if "1" in column:
            edges.extend((i, j) for i in reference_bits(int(column[::-1], 2)))
    return build_graph(n, edges)


# The cograph layer as it was before the P4 search on masks and the degree
# buckets: a component sweep of the part and of its complement at every
# level, brute-force P4 search in the first connected, co-connected part,
# and a fold over frozensets.  Oracles for cographs.cotree and
# cographs.cograph_alpha_omega.

def oracle_cotree(g: Graph, mask: int | None = None):
    if mask is None:
        mask = g.full_mask
    adj = g.adj
    co_adj = complement(g, mask).adj
    order: list[tuple[str, int]] = []
    stack = [mask]
    while stack:
        part = stack.pop()
        if part & (part - 1) == 0:
            order.append(("leaf", part.bit_length() - 1))
            continue
        kind, parts = "union", reference_component_masks(adj, part)
        if len(parts) == 1:
            kind, parts = "join", reference_component_masks(co_adj, part)
        if len(parts) == 1:
            members = list(reference_bits(part))
            res = find_induced_path(induced(g, members), 4)
            assert res.found, "a connected, co-connected graph on >= 2 vertices induces a P4"
            emb = res.embedding
            return PatternEmbedding(emb.pattern_name, emb.pattern,
                                    tuple(members[v] for v in emb.mapping))
        order.append((kind, len(parts)))
        stack.extend(reversed(parts))
    return tuple(order)


def check_cotree(g: Graph, mask: int, order) -> int:
    """Assert that ``order`` is a cotree of the subgraph on ``mask`` in
    pre-order, and return its depth (internal entries on the longest path
    from the root to a leaf).

    The entries are decoded with a stack of open nodes, each [kind, children
    still to come, child vertex masks].  They must form exactly one tree;
    the leaves are the members of ``mask``, each once; every internal entry
    has at least two children, none of its own kind; and a union's children
    are the components of its vertex set, a join's the co-components, both
    as the reference sweep of ``oracle_cotree`` gives them.
    """
    adj = g.adj
    co_adj = complement(g, mask).adj
    open_nodes: list[list] = []
    leaves: list[int] = []
    depth = 0
    for i, (kind, value) in enumerate(order):
        assert i == 0 or open_nodes, f"entry {i} is left over after the root"
        if kind != "leaf":
            assert kind in ("union", "join") and value >= 2, (i, kind, value)
            assert not open_nodes or open_nodes[-1][0] != kind, f"entry {i} has its parent's kind"
            open_nodes.append([kind, value, []])
            continue
        leaves.append(value)
        depth = max(depth, len(open_nodes))
        done = 1 << value
        while open_nodes:
            node = open_nodes[-1]
            node[1] -= 1
            node[2].append(done)
            if node[1]:
                break
            open_nodes.pop()
            done = reduce(or_, node[2])
            sweep = reference_component_masks(adj if node[0] == "union" else co_adj, done)
            assert sorted(node[2]) == sorted(sweep), f"a {node[0]} entry's children are not its parts"
    assert order and not open_nodes, "the entries do not close one tree"
    assert sorted(leaves) == list(reference_bits(mask)), "the leaves are not the mask's members"
    return depth


def _set_key(vs: frozenset) -> tuple:
    return (-len(vs), tuple(sorted(vs)))


def oracle_cograph_alpha_omega(g: Graph, mask: int | None = None):
    order = oracle_cotree(g, mask)
    if isinstance(order, PatternEmbedding):
        return order
    done: list[tuple[frozenset, frozenset]] = []
    for kind, value in reversed(order):
        if kind == "leaf":
            single = frozenset([value])
            done.append((single, single))
            continue
        parts = done[-value:]
        del done[-value:]
        if kind == "union":
            stable = frozenset().union(*(p[0] for p in parts))
            clique = min((p[1] for p in parts), key=_set_key)
        else:
            stable = min((p[0] for p in parts), key=_set_key)
            clique = frozenset().union(*(p[1] for p in parts))
        done.append((stable, clique))
    return done[0]


def oracle_p4free_extract(g: Graph, oracle) -> frozenset:
    """The doubling as a recursion (X before Y), as it was before the loop:
    oracle for cographs.p4free_extract at shallow depth."""

    def recurse(mask: int) -> frozenset:
        if mask.bit_count() == 1:
            return frozenset([mask.bit_length() - 1])
        w = oracle(g, mask)
        if not isinstance(w, BipartitePairWitness):
            raise OracleError(f"oracle returned {type(w).__name__}", witness=w)
        verdict = verify_bipartite_pair(g, w)
        if not verdict:
            raise OracleError(f"oracle witness rejected: {verdict.reason}", witness=w)
        if mask_of(w.X | w.Y) & ~mask:
            raise OracleError("oracle witness leaves the current subgraph", witness=w)
        return recurse(mask_of(w.X)) | recurse(mask_of(w.Y))

    return recurse(g.full_mask)


# Exhaustive searches that no command runs: a complete oracle for
# empty/complete pairs, which drives cographs.p4free_extract on small
# inputs, and the generic induced-subgraph search, a second route to
# patterns.find_induced_path.

EXACT_ORACLE_MAX_N = 32
MAX_PATTERN_SIZE = 10


def find_pair_masks(g: Graph, side: int, kind: str,
                    mask: int | None = None) -> tuple[int, int] | None:
    """First (X, Y) inside ``mask`` (default: all of g) with |X| = |Y| = side
    and the cross relation all-edges (complete) or no-edges (empty); complete
    backtracking over vertex assignments in id order, so absence of a result
    is a proof."""
    if mask is None:
        mask = g.full_mask
    if 2 * side > mask.bit_count():
        return None
    compat = complement(g, mask).adj if kind == "empty" else g.adj

    def dfs(x: int, y: int, avail_x: int, avail_y: int):
        nx, ny = x.bit_count(), y.bit_count()
        if nx == side and ny == side:
            return x, y
        if nx + (avail_x.bit_count() if nx < side else 0) < side:
            return None
        if ny + (avail_y.bit_count() if ny < side else 0) < side:
            return None
        pool = avail_x | avail_y
        if not pool:
            return None
        v = (pool & -pool).bit_length() - 1
        vb = 1 << v
        if nx < side and avail_x & vb:
            hit = dfs(x | vb, y, avail_x & ~vb, avail_y & compat[v] & ~vb)
            if hit:
                return hit
        if ny < side and avail_y & vb and x:  # first vertex always goes to X
            hit = dfs(x, y | vb, avail_x & compat[v] & ~vb, avail_y & ~vb)
            if hit:
                return hit
        return dfs(x, y, avail_x & ~vb, avail_y & ~vb)

    return dfs(0, 0, mask, mask)


def exact_bipartite_oracle(c: Fraction):
    """Complete desk-scale oracle (n <= 32), as a callable ``fn(g, mask)``:
    exhaustive search for an empty, then a complete, pair with sides
    exactly ceil(c * n)."""
    c = Fraction(c)

    def fn(g: Graph, mask: int | None = None) -> BipartitePairWitness:
        if mask is None:
            mask = g.full_mask
        n = mask.bit_count()
        if n > EXACT_ORACLE_MAX_N:
            raise ValueError(f"exact oracle limited to n <= {EXACT_ORACLE_MAX_N}, got {n}")
        side = max(1, math.ceil(c * n))
        for kind in ("empty", "complete"):
            hit = find_pair_masks(g, side, kind, mask)
            if hit:
                xs, ys = hit
                return BipartitePairWitness(kind, frozenset(reference_bits(xs)),
                                            frozenset(reference_bits(ys)))
        raise OracleError(f"no empty or complete pair with sides {side} exists (n={n})")

    return fn


def contains_induced(g: Graph, h: Graph) -> PatternQueryResult:
    """Does some injective map embed h into g preserving adjacency AND
    non-adjacency?  A found embedding is named "pattern".

    Pattern vertices are assigned in id order; the only pruning is that a
    host candidate must have degree at least the pattern vertex's degree.
    """
    if h.n > MAX_PATTERN_SIZE:
        raise ValueError(f"pattern too large: {h.n} > {MAX_PATTERN_SIZE}")
    explored = 0
    if h.n > g.n:
        return PatternQueryResult(False, None, explored)

    full = g.full_mask
    hdeg = [degree(h, i) for i in range(h.n)]
    assigned: list[int] = []
    found: tuple[int, ...] | None = None

    def place(i: int, used: int) -> bool:
        nonlocal explored, found
        explored += 1
        if i == h.n:
            found = tuple(assigned)
            return True
        cand = full & ~used
        for j in range(i):
            if h.has_edge(i, j):
                cand &= g.adj[assigned[j]]
            else:
                cand &= ~g.adj[assigned[j]]
        for v in reference_bits(cand):
            if degree(g, v) < hdeg[i]:
                continue
            assigned.append(v)
            if place(i + 1, used | (1 << v)):
                return True
            assigned.pop()
        return False

    place(0, 0)
    if found is None:
        return PatternQueryResult(False, None, explored)
    emb = PatternEmbedding("pattern", h, found)
    return PatternQueryResult(True, emb, explored)
