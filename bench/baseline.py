#!/usr/bin/env python3
"""Run the benchmark on several seeds and record the results.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline/runs.jsonl

Each run is one ``bench/run.py`` process, one after the other, with the
settings of ``BENCHMARK.json``.  Every result line is appended to ``--out``
as one JSON object (workload, seed, trace, UTC start time, the run's result,
its witness digest), and a summary gives each metric's median and the distance between
its quartiles as a share of the median, the figure the benchmark's bounds
are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    digest = next((ln.split()[-1] for ln in lines if "witness sha256" in ln), None)
    return {"workload": workload, "seed": seed, "trace": trace, "started": started,
            "result": json.loads(lines[-1]), "witness_sha256": digest}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in seed_range(args.seeds):
            row = run_once(spec, workload, seed, args.trace)
            with args.out.open("a") as out:
                out.write(json.dumps(row, sort_keys=True) + "\n")
            for name, metric in row["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: attempted {row['result']['attempted']}, "
                  f"failed {row['result']['failed']}, correct {row['result']['correct']}",
                  flush=True)
        for name, vals in values.items():
            shown = f"{spread(vals):.4f}" if len(vals) > 1 and statistics.median(vals) else "-"
            bound = f" (bound {bounds[name]})" if name in bounds else ""
            print(f"  {workload:<11} {name:<46} median {statistics.median(vals):14.6f}"
                  f"  spread {shown}{bound}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
