"""Outside-in span tracing for the benchmark's traced run.

Each layer's public functions are rebound, by name in every module that
calls them, to timing wrappers defined here; nothing under ``src/`` changes
and private helpers (``_peel``, ``recurse``, ...) are not wrapped, so their
time counts as the self time of the public function that calls them.

A span records its name, start and end (``perf_counter_ns``), the index of
its parent span, the request id, and whatever the layer's probe reads from
the call's arguments and return value.  Spans stay in memory and are written
out once, when the run ends.  A span's self time is its duration minus the
time its child spans cover; calls nest, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


def _read_graph_probe(args, kwargs, result):
    return {"bytes": len(args[0])}


def _homogeneous_probe(args, kwargs, result):
    return {"n_in": args[0].n, "kept": 0 if result is None else result.size}


def _report_probe(args, kwargs, result):
    trace = result.trace
    info = {"levels": len(trace.get("extractor", ()))}
    if "path_length" in trace:
        info["path_length"] = trace["path_length"]
        info["k"] = args[1]
    return info


# (span name, probe, bindings): a binding is (module under ``pathcert``,
# attribute) where a caller looks the function up.  A binding that a later
# refactor removed raises AttributeError, so no layer drops out unnoticed.
LAYERS = (
    ("formats.read_graph", _read_graph_probe, (("formats", "read_graph"),)),
    ("homogeneous.find_epsilon_homogeneous", _homogeneous_probe,
     (("pipeline", "find_epsilon_homogeneous"),)),
    ("homogeneous.prune_high_degree", None, (("pipeline", "prune_high_degree"),)),
    ("graph.complement", None, (("pipeline", "complement"), ("homogeneous", "complement"))),
    ("graph.induced", None, (("pipeline", "induced"), ("cographs", "induced"))),
    ("graph.components", None, (("pipeline", "components"),)),
    ("extractor.path_or_empty_bipartite", None, (("pipeline", "path_or_empty_bipartite"),)),
    ("cographs.p4free_extract", None, (("pipeline", "p4free_extract"),)),
    ("cographs.cograph_alpha_omega", None, (("pipeline", "cograph_alpha_omega"),)),
    ("cographs.cotree", None, (("cographs", "cotree"),)),
    ("pipeline.extract_linear_bipartite", _report_probe,
     (("cli", "extract_linear_bipartite"), ("pipeline", "extract_linear_bipartite"))),
    ("pipeline.eh_homogeneous", None, (("cli", "eh_homogeneous"),)),
    ("witnesses.verify", None, (("cli", "verify"),)),
    ("witnesses.verify_bipartite_pair", None,
     (("cographs", "verify_bipartite_pair"), ("witnesses", "verify_bipartite_pair"))),
)
ROOT_SPAN = "cli.main"
SPAN_NAMES = tuple(name for name, _, _ in LAYERS) + (ROOT_SPAN,)
# Layers whose call count per request is reported: the ones a change to the
# call structure (mask-native producers, fewer complements) would move.
COUNTED = ("homogeneous.find_epsilon_homogeneous", "graph.complement", "graph.induced",
           "extractor.path_or_empty_bipartite", "pipeline.extract_linear_bipartite",
           "witnesses.verify_bipartite_pair")


class Tracer:
    """Records spans for the requests made inside ``installed()``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request, info]
        self._stack: list[int] = []
        self.request = -1
        self._bindings = []  # (module, attribute, original, wrapper)
        for name, probe, sites in LAYERS:
            for mod_name, attr in sites:
                module = importlib.import_module(f"pathcert.{mod_name}")
                original = getattr(module, attr)  # a lost binding fails the run
                self._bindings.append((module, attr, original, self.wrap(name, original, probe)))

    def wrap(self, name, fn, probe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, request: int):
        """Rebind every layer to its wrapper for one request."""
        self.request = request
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_metrics(self, requests: int, traced_ns: int) -> dict[str, float]:
        """Per-layer metrics over ``requests`` traced requests that took
        ``traced_ns`` of request wall time in total."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        info_sum: dict[str, int] = defaultdict(int)
        oracle_calls = 0
        for i, span in enumerate(spans):
            name = span[0]
            self_ns[name] += span[2] - span[1] - child_ns[i]
            calls[name] += 1
            for key, value in (span[5] or {}).items():
                info_sum[f"{name}.{key}"] += value
            if name == "pipeline.extract_linear_bipartite" and self._inside(i, "cographs.p4free_extract"):
                oracle_calls += 1
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.self_ms"] = self_ns[name] / 1e6 / requests
            metrics[f"{name}.share"] = self_ns[name] / traced_ns
        for name in COUNTED:
            metrics[f"{name}.calls"] = calls[name] / requests
        metrics["formats.read_graph.bytes"] = info_sum["formats.read_graph.bytes"] / requests
        metrics["homogeneous.kept_ratio"] = _ratio(
            info_sum["homogeneous.find_epsilon_homogeneous.kept"],
            info_sum["homogeneous.find_epsilon_homogeneous.n_in"])
        metrics["extractor.levels"] = info_sum["pipeline.extract_linear_bipartite.levels"] / requests
        metrics["extractor.useful_ratio"] = _ratio(
            info_sum["pipeline.extract_linear_bipartite.k"],
            info_sum["pipeline.extract_linear_bipartite.path_length"])
        metrics["cographs.oracle_calls"] = oracle_calls / requests
        metrics["trace.accounted_ratio"] = sum(self_ns.values()) / traced_ns
        return metrics

    def _inside(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer never ran (den == 0)."""
    return num / den if den else 0.0
