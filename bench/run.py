#!/usr/bin/env python3
"""pathcert benchmark: closed-loop, in-process CLI requests on seeded corpora.

A request is one call of ``pathcert.cli.main`` on an edge-list file that this
benchmark generated, with ``--format edges --out <file>``: the same
parse -> produce -> verify -> JSON path as the installed ``pathcert`` command,
without interpreter start-up.  One client in this single-threaded process
sends the next request only after the previous one returned (closed loop).
The run makes whole passes over the corpus until ``--seconds`` have
passed and at least MIN_PASSES passes are done.  Every timing is scaled to
a reference host speed by ``hostspeed.HostClock`` and each instance is timed
by the median of its requests (see ``end_to_end``).

    python3 bench/run.py --workload dense-peel --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports ``pathcert`` from ``src/`` next
to this directory and nowhere else.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of ``tracing.py`` with ``--trace 1``.  Every output witness is re-checked,
untimed, with ``pathcert.witnesses.verify`` against the graph generated here;
a rejection makes the run incorrect and its exit status 1.  See README.md for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "pathcert" / "__init__.py").is_file():
    raise SystemExit(f"error: no pathcert sources under {SRC}")
sys.path.insert(0, str(SRC))
import pathcert  # noqa: E402
from pathcert import cli, formats, generators, graph, rng, witnesses  # noqa: E402

if Path(pathcert.__file__).resolve().parent != SRC / "pathcert":
    raise SystemExit(f"error: imported pathcert from {pathcert.__file__}, not {SRC}")

from hostspeed import HostClock  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402

DENSE_SIZES = (500, 1000, 1500)
# Path and cycle sizes, each shifted by the same seeded offset in [0, 20).
# Every size stays at least 30 vertices away from n ~ 1187, where the
# extractor's recursion overflows the default stack today, so each pass has
# exactly two failing requests whatever the seed.  The families alternate in
# a fixed order because a cycle costs about 1.5 times a path of the same n.
DEEP_SIZES = (400, 675, 950, 1225, 1500)
DEEP_FAMILIES = ("path", "cycle")
DEEP_OFFSET_SPAN = 20
# Cograph cost varies several-fold between graphs of one size, so the eh
# corpus is large, with one size drawn from each of EH_COUNT equal-width
# strata of EH_LO..EH_HI so that every seed gets the same spread of sizes.
EH_COUNT = 120
EH_LO, EH_HI = 200, 600
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 50
TAIL_BEYOND = 10
MIN_PASSES = 1


# --- corpora -------------------------------------------------------------

def dense_peel_corpus(seed):
    """G(n, 1/2), one graph per size."""
    return [(f"gnp-{n}", generators.GeneratorSpec("gnp", n, p=Fraction(1, 2), seed=seed), i)
            for i, n in enumerate(DENSE_SIZES)]


def deep_path_corpus(seed):
    """Paths and cycles, alternating, n stepping evenly from 400 to ~1500."""
    offset = rng.stream(seed, 0).below(DEEP_OFFSET_SPAN)
    out = []
    for i, base in enumerate(DEEP_SIZES):
        family = DEEP_FAMILIES[i % 2]
        n = base + offset
        out.append((f"{family}-{n}", generators.GeneratorSpec(family, n, seed=seed), 0))
    return out


def eh_cograph_corpus(seed):
    """Random cographs, n uniform on EH_LO..EH_HI, one per stratum."""
    stream = rng.stream(seed, 0)
    span = EH_HI - EH_LO + 1
    out = []
    for i in range(EH_COUNT):
        lo = EH_LO + span * i // EH_COUNT
        hi = EH_LO + span * (i + 1) // EH_COUNT
        n = lo + stream.below(hi - lo)
        out.append((f"cograph-{n}", generators.GeneratorSpec("cograph", n, seed=seed), i + 1))
    return out


@dataclass(frozen=True)
class Workload:
    command: str
    k: int
    corpus: object  # seed -> [(label, GeneratorSpec, substream index)]


WORKLOADS = {
    "dense-peel": Workload("pipeline", 5, dense_peel_corpus),
    "deep-path": Workload("pipeline", 5, deep_path_corpus),
    "eh-cograph": Workload("eh", 4, eh_cograph_corpus),
}


@dataclass
class Instance:
    label: str
    graph: object
    path: Path
    witness_json: str | None = None  # canonical witness of its first success


@dataclass
class Record:
    instance: Instance
    latency_s: float  # scaled to the reference host speed
    wall_s: float
    ok: bool
    reason: str | None = None
    cert_size: int = 0
    output: dict = field(default_factory=dict)


class Rejected(Exception):
    """An output that the independent re-check does not accept."""


def write_corpus(workload: Workload, seed: int, workdir: Path):
    instances = []
    for i, (label, spec, index) in enumerate(workload.corpus(seed)):
        path = workdir / f"{i:03d}-{label}.edges"
        g = generators.generate(spec, index)
        path.write_text(formats.write_edge_list(g))
        instances.append(Instance(label, g, path))
    return instances


def build_corpus(workload: Workload, seed: int, workdir: Path, clock: HostClock):
    """Set up the corpus several times; returns the instances and the
    median scaled set-up time."""
    times, spent = [], 0.0
    while (len(times) < SETUP_MIN_REPEATS
           or (spent < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS)):
        gc.collect()
        with clock.timing() as t:
            instances = write_corpus(workload, seed, workdir)
        times.append(t.scaled)
        spent += t.wall
    return instances, statistics.median(times)


# --- independent re-check ------------------------------------------------

def pattern_graph(name: str, k: int):
    """P_k or its complement, built from explicit edge lists."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if name == f"P{k}":
        return graph.build_graph(k, [(i, j) for i, j in pairs if j == i + 1])
    if name == f"co-P{k}":
        return graph.build_graph(k, [(i, j) for i, j in pairs if j > i + 1])
    raise Rejected(f"certificate names pattern {name!r}, not P{k} or co-P{k}")


def decode_witness(data: dict, k: int):
    kind = data.get("type")
    if kind == "bipartite":
        return witnesses.BipartitePairWitness(data["kind"], frozenset(data["X"]), frozenset(data["Y"]))
    if kind == "homogeneous":
        return witnesses.HomogeneousSetWitness(data["kind"], frozenset(data["S"]),
                                       Fraction(data["epsilon"]), data["edge_count"])
    if kind == "path":
        return witnesses.InducedPathWitness(tuple(data["vertices"]))
    if kind == "embedding":
        return witnesses.PatternEmbedding(data["pattern"], pattern_graph(data["pattern"], k),
                                  tuple(data["map"]))
    raise Rejected(f"unknown witness type {kind!r}")


def certified_size(witness) -> int:
    """The smaller side of a pair, the set of a homogeneous witness, the
    pattern size of a certificate, or the length of a path."""
    if isinstance(witness, witnesses.BipartitePairWitness):
        return min(witness.side_sizes)
    if isinstance(witness, witnesses.HomogeneousSetWitness):
        return witness.size
    if isinstance(witness, witnesses.PatternEmbedding):
        return len(witness.mapping)
    return len(witness.vertices)


def check_output(workload: Workload, inst: Instance, out_path: Path):
    """Re-verify one request's output; returns (canonical witness JSON,
    certified size, parsed output) or raises Rejected."""
    try:
        data = json.loads(out_path.read_text())
        witness = decode_witness(data["witness"], workload.k)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise Rejected(f"unreadable output: {type(err).__name__}: {err}") from None
    verdict = witnesses.verify(inst.graph, witness)
    if not verdict:
        raise Rejected(f"witness rejected: {verdict.reason}")
    if data.get("verified") is not True:
        raise Rejected("program did not report its witness as verified")
    if workload.command == "eh" and isinstance(witness, witnesses.HomogeneousSetWitness):
        if witness.epsilon != 0 or data.get("achieved") != witness.size:
            raise Rejected("eh witness is not an exact set of the reported size")
    canonical = json.dumps(data["witness"], sort_keys=True, separators=(",", ":"))
    return canonical, certified_size(witness), data


# --- requests ------------------------------------------------------------

def run_request(workload: Workload, inst: Instance, out_path: Path, main,
                clock: HostClock) -> Record:
    argv = [workload.command, "--input", str(inst.path), "--format", "edges",
            "--k", str(workload.k), "--out", str(out_path)]
    out_path.unlink(missing_ok=True)
    # Start each request from a clean heap, as a fresh process would, and
    # keep the benchmark's own objects (records, spans) out of the program's
    # garbage collections.
    gc.collect()
    gc.freeze()
    err = io.StringIO()
    status = None
    with contextlib.redirect_stderr(err), clock.timing() as t:
        try:
            status = main(argv)
        except Exception as exc:  # a crash is a failed request, never retried
            reason = f"exception {type(exc).__name__}: {exc}"
    latency, wall = t.scaled, t.wall
    if status is not None:
        lines = err.getvalue().strip().splitlines()
        reason = f"exit {status}: {lines[0] if lines else ''}"
    if status != 0 and not out_path.exists():
        return Record(inst, latency, wall, False, reason)
    # An output is re-checked whatever the exit status: a program that
    # writes a wrong witness and then exits 1 is incorrect, not just failed.
    try:
        canonical, size, data = check_output(workload, inst, out_path)
    except Rejected as rej:
        return Record(inst, latency, wall, False, f"rejected: {rej}")
    if status != 0:
        return Record(inst, latency, wall, False, reason)
    if inst.witness_json is None:
        inst.witness_json = canonical
    elif inst.witness_json != canonical:
        return Record(inst, latency, wall, False,
                      "rejected: witness differs from an earlier request")
    return Record(inst, latency, wall, True, None, size, data)


def measure(workload, instances, seconds, out_path, clock, tracer=None):
    """Whole passes over the corpus until ``seconds`` have passed and at
    least MIN_PASSES passes are done.  With a tracer, every request is made
    twice, untraced and traced, alternating which goes first.  Returns
    (untraced records, traced records, passes made)."""
    plain, traced = [], []
    mains = {False: cli.main}
    if tracer is not None:
        mains[True] = tracer.wrap(ROOT_SPAN, cli.main)
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        for i, inst in enumerate(instances):
            if tracer is None:
                order = (False,)
            else:
                order = (False, True) if (passes + i) % 2 == 0 else (True, False)
            for use_trace in order:
                scope = tracer.installed(len(traced)) if use_trace else contextlib.nullcontext()
                with scope:
                    rec = run_request(workload, inst, out_path, mains[use_trace], clock)
                (traced if use_trace else plain).append(rec)
        passes += 1
    return plain, traced, passes


# --- metrics -------------------------------------------------------------

def instance_latencies(records):
    """One sample per corpus instance, sorted: (failed, the median of its
    requests' scaled latencies).  A failed instance ranks slower than every
    success."""
    by_instance = defaultdict(list)
    for r in records:
        by_instance[id(r.instance)].append(r)
    samples = []
    for mine in by_instance.values():
        failed = [r.latency_s for r in mine if not r.ok]
        samples.append((bool(failed),
                        statistics.median(failed or [r.latency_s for r in mine])))
    return sorted(samples)


def end_to_end(records, setup_s):
    """End-to-end metrics and, for some of them, how they were taken.

    Every latency is scaled to the reference host speed (``hostspeed``),
    which takes out the slow episodes that other tenants of a shared machine
    cause.  Every instance runs at least MIN_PASSES times and is timed by
    the median of its requests.  Percentiles are nearest-rank over these
    per-instance samples, so the sample count does not depend on how many
    passes fitted in the run; throughput is one pass over the corpus at
    those times."""
    ok = [r for r in records if r.ok]
    samples = instance_latencies(records)
    n = len(samples)
    median = samples[(n + 1) // 2 - 1]
    tail_rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    tail = samples[tail_rank - 1]
    sizes = {}  # id(instance) -> certified size, each instance once
    for r in ok:
        sizes.setdefault(id(r.instance), r.cert_size)
    metrics = {
        "certs_per_s": (len(sizes) / sum(latency for _, latency in samples), "1/s"),
        "latency_p50_ms": (median[1] * 1000, "ms"),
        "latency_tail_ms": (tail[1] * 1000, "ms"),
        "success_ratio": (len(ok) / len(records), "1"),
        "cert_size_mean": (statistics.fmean(sizes.values()) if sizes else 0.0, "vertices"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    of = f"of {n} instances, each the median of its requests ({len(records)} in all)"
    failed = len(records) - len(ok)
    notes = {
        "certs_per_s": f"{len(sizes)} certificates in one pass over {n} instances",
        "latency_p50_ms": f"p50 {of}" + (", a failure" if median[0] else ""),
        "latency_tail_ms": (f"p{100 * tail_rank / n:.2f} {of}, {n - tail_rank} beyond"
                            + (", a failure" if tail[0] else "")),
        "success_ratio": f"fail_ratio = {failed}/{len(records)} = {failed / len(records):.4f}",
        "cert_size_mean": f"over {len(sizes)} of {n} instances",
    }
    return metrics, notes


def per_layer(tracer, plain, traced):
    traced_ns = sum(round(r.wall_s * 1e9) for r in traced)
    metrics = tracer.layer_metrics(len(traced), traced_ns)
    eh = [r.output for r in traced if r.ok and "extracted_size" in r.output]
    extracted = sum(d["extracted_size"] for d in eh)
    metrics["cographs.kept_ratio"] = sum(d["achieved"] for d in eh) / extracted if extracted else 0.0
    metrics["trace.overhead_ratio"] = (sum(r.latency_s for r in traced)
                                       / sum(r.latency_s for r in plain))
    units = {"self_ms": "ms", "share": "1", "calls": "count", "bytes": "bytes",
             "levels": "count", "oracle_calls": "count"}
    return {name: (value, units.get(name.rsplit(".", 1)[1], "1"))
            for name, value in metrics.items()}


def witness_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"{inst.label}\t{inst.witness_json or 'null'}\n".encode())
    return h.hexdigest()


# --- entry point ---------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        clock = HostClock()
        instances, setup_s = build_corpus(workload, args.seed, workdir, clock)
        tracer = Tracer() if args.trace else None
        wall0 = perf_counter()
        plain, traced, passes = measure(workload, instances, args.seconds,
                                        workdir / "out.json", clock, tracer)
        wall = perf_counter() - wall0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = plain + traced
    failed = [r for r in records if not r.ok]
    correct = not any(r.reason and r.reason.startswith("rejected") for r in failed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(records)} requests in {passes} passes over {len(instances)} instances "
          f"({len(records) - len(failed)} ok, {len(failed)} failed), {wall:.1f} s; "
          f"host {clock.speed():.3f}x the reference time "
          f"(median of {len(clock.samples)} reference runs)")
    if args.trace:
        metrics = per_layer(tracer, plain, traced)
        notes = {}
        tracer.write(WORK / f"spans-{args.workload}.jsonl")
    else:
        metrics, notes = end_to_end(plain, setup_s)
    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"  {name:<48} {value:14.6f} {unit}{note}")
    for inst in instances:
        mine = [r for r in plain if r.instance is inst and r.ok]
        lost = sum(1 for r in plain if r.instance is inst and not r.ok)
        shown = (f"median {statistics.median(r.latency_s for r in mine) * 1000:10.2f} ms "
                 f"scaled, {statistics.median(r.wall_s for r in mine) * 1000:10.2f} ms wall"
                 if mine else "no success")
        print(f"  {inst.label:<16} {shown}, {len(mine)} ok, {lost} failed")
    for reason, count in sorted(Counter(r.reason for r in failed).items()):
        print(f"  failures: {count} x {reason}")
    print(f"  witness sha256 {witness_digest(instances)}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
