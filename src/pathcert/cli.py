"""Command-line interface.

Every command that finds a witness writes it, in ``formats.witness_to_dict``'s
JSON, under ``"witness"`` (``extract cograph-ramsey``'s two sets under
``"witnesses"``), then ``"verified"``: whether ``witnesses.verify`` accepts
each.  ``verify`` reads such an answer file, or a bare witness.

Exit status: 0 ok, 1 verification failed (or an oracle / sampling budget
gave out), 2 usage error (argparse's, or an input it cannot use: a witness
file with no witness too, and ``pipeline`` on a graph of one vertex, where
no pair or path witness fits), 3 internal error: the program crashed
(``RecursionError`` included) and says nothing about the input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import formats
from .cographs import OracleError, cograph_alpha_omega
from .extractor import ExtractorParams, path_guarantee, path_or_empty_bipartite
from .generators import BudgetExhaustedError, GeneratorSpec, generate
from .graph import Graph
from .patterns import find_induced_path, is_pk_copk_free
from .pipeline import choose_constants, eh_homogeneous, extract_linear_bipartite
from .witnesses import HomogeneousSetWitness, PatternEmbedding, verify


def _read_graph(path: str, fmt: str) -> Graph:
    return formats.read_graph(Path(path).read_text(), fmt)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(args.family, args.n,
                         p=formats.parse_fraction(args.p) if args.p else None,
                         k=args.k, seed=args.seed, budget=args.budget)
    g = generate(spec, index=args.index)
    _emit(formats.write_graph(g, args.format), args.out)
    return 0


def _answer(payload: dict, g: Graph, out: str | None, *found) -> int:
    """Write ``payload`` as JSON with the witnesses ``found`` and whether g
    accepts them all as ``"verified"`` (a key ``payload`` already holds
    keeps its place); the exit status, 1 on a rejection."""
    if len(found) == 1:
        payload["witness"] = formats.witness_to_dict(found[0])
    elif found:
        payload["witnesses"] = list(map(formats.witness_to_dict, found))
    if found:
        payload["verified"] = all(verify(g, w) for w in found)
    _emit(json.dumps(payload, indent=2) + "\n", out)
    return 0 if payload.get("verified", True) else 1


def _cmd_check(args) -> int:
    g = _read_graph(args.input, args.format)
    if args.induced_path is not None:
        res = find_induced_path(g, args.induced_path)
        payload = {"query": f"induced-path-{args.induced_path}", "found": res.found,
                   "nodes_explored": res.nodes_explored}
        emb = res.embedding
    else:
        emb = is_pk_copk_free(g, args.pk_free)
        payload = {"query": f"pk-copk-free-{args.pk_free}", "free": emb is None}
    return _answer(payload, g, args.out, *(() if emb is None else (emb,)))


def _cmd_path_or_bipartite(args) -> int:
    g = _read_graph(args.input, args.format)
    params = ExtractorParams(args.T, max(g.degrees) + 1 if args.D is None else args.D)
    w = path_or_empty_bipartite(g, args.start, params)
    return _answer({"guaranteed_path_vertices": path_guarantee(g.n, params)}, g, args.out, w)


def _cmd_cograph_ramsey(args) -> int:
    g = _read_graph(args.input, args.format)
    res = cograph_alpha_omega(g)
    if isinstance(res, PatternEmbedding):
        return _answer({"cograph": False}, g, args.out, res)
    stable, clique = res
    pairs = len(clique) * (len(clique) - 1) // 2
    return _answer({"cograph": True, "alpha": len(stable), "omega": len(clique)}, g, args.out,
                   HomogeneousSetWitness("stable", stable, Fraction(0), 0),
                   HomogeneousSetWitness("clique", clique, Fraction(0), pairs))


def _cmd_pipeline(args) -> int:
    g = _read_graph(args.input, args.format)
    report = extract_linear_bipartite(g, args.k)
    return _answer(formats.report_to_dict(report), g, args.out, report.witness)


def _cmd_eh(args) -> int:
    g = _read_graph(args.input, args.format)
    details: dict = {}
    w = eh_homogeneous(g, args.k, details=details)
    # The witness and its verdict come first, the route and sizes after.
    return _answer({"witness": None, "verified": None, **details}, g, args.out, w)


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph, args.format)
    verdicts = [verify(g, w) for w in formats.witnesses_from_json(Path(args.witness).read_text())]
    for verdict in verdicts:
        detail = f" ({verdict.detail})" if verdict.detail else ""
        print("OK" if verdict else f"REJECTED: {verdict.reason}{detail}")
    return 0 if all(verdicts) else 1


def _cmd_constants(args) -> int:
    print(json.dumps(formats.constants_to_dict(choose_constants(args.k)), indent=2))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it (seven subcommands) costs
    more than parsing a request's argv, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pathcert", description="certifying induced-path / bipartite-pair extraction")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="graph file")
        p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
        p.add_argument("--out", help="write result here instead of stdout")

    p = sub.add_parser("gen", help="generate a seeded graph")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", help="edge probability as a fraction, e.g. 1/2")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="brute-force pattern queries")
    add_io(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--induced-path", type=int, metavar="K")
    group.add_argument("--pk-free", type=int, metavar="K")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("extract", help="run one extraction primitive")
    modes = p.add_subparsers(dest="what", required=True)
    p = modes.add_parser("path-or-bipartite", help="induced path from a start, or an empty pair")
    add_io(p)
    p.add_argument("--start", type=int, default=0, help="the walk's first vertex (default: 0)")
    p.add_argument("--T", type=int, default=1, help="the pair's side bound (default: 1)")
    p.add_argument("--D", type=int, help="closed-degree bound (default: the input's largest)")
    p.set_defaults(func=_cmd_path_or_bipartite)
    p = modes.add_parser("cograph-ramsey", help="exact stable set and clique, or a P4")
    add_io(p)
    p.set_defaults(func=_cmd_cograph_ramsey)

    p = sub.add_parser("pipeline", help="full certifying extraction")
    add_io(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("eh", help="exact clique/stable set via the full composition")
    add_io(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_eh)

    p = sub.add_parser("verify", help="re-check a witness file against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("constants", help="print the run constants for a given k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OracleError, BudgetExhaustedError) as err:  # the failures raised on purpose
        print(f"failed: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        return _internal_error(err)


def _internal_error(err: Exception) -> int:
    print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
    return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
