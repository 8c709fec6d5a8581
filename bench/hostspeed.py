"""Host-speed calibration: a fixed piece of reference work, timed before,
during and after each timed block, that scales wall-clock times to a
reference host speed.

On a shared machine other tenants slow every request by up to about 1.8x,
in episodes that last from a fraction of a second to several minutes, and
the process's CPU time moves with its wall time, so no statistic taken
inside a run removes them.  The reference work below slows with them: it is
the same kind of work as the program (big-int bit masks, ``bit_count``,
edge-list parsing, dict relabelling, generator calls) and it never changes.

``HostClock.timing`` runs the reference work REFERENCE_RUNS times before and
after a timed block and, from an interval timer, once every PROBE_INTERVAL_S
inside it.  The block's wall time, less the time spent in those probes, is
scaled by ``REFERENCE_S`` over the median of all these reference times.  A
scaled time reads "seconds on a host that does the reference work in
``REFERENCE_S``", so it moves with the program's own cost and not with the
host's load.  ``REFERENCE_S`` is the median reference time measured on a
2-vCPU shared VM (Python 3.11) at a quiet moment; it is a fixed constant so
that every commit is scaled the same way.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.00140
REFERENCE_RUNS = 6
PROBE_INTERVAL_S = 0.1
ROWS = 600
LINES = 150


def _lcg(state: int) -> int:
    return (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)


def _inputs():
    """Fixed inputs: ROWS bit-mask rows over ROWS vertices and an edge list."""
    state, rows, lines = 12345, [], []
    for v in range(ROWS):
        row = 0
        for _ in range(ROWS // 64 + 1):
            state = _lcg(state)
            row = (row << 64) | state
        rows.append(row & ((1 << ROWS) - 1) & ~(1 << v))
    for _ in range(LINES):
        state = _lcg(state)
        lines.append(f"{state % ROWS} {(state >> 20) % ROWS}")
    return tuple(rows), "\n".join(lines) + "\n"


_ROWS, _TEXT = _inputs()


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_work() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    adj = _ROWS
    # a degree peel over bit masks, as in homogeneous._peel
    mask = (1 << ROWS) - 1
    for _ in range(4):
        worst, worst_deg = -1, -1
        for v in _bits(mask):
            d = (adj[v] & mask).bit_count()
            if d > worst_deg:
                worst, worst_deg = v, d
        mask &= ~(1 << worst)
    # edge-list parsing into rows, as in formats.parse_edge_list
    parsed = [0] * ROWS
    for line in _TEXT.splitlines():
        u, v = (int(x) for x in line.split())
        if u != v:
            parsed[u] |= 1 << v
            parsed[v] |= 1 << u
    # relabelling onto a vertex subset, as in graph.induced
    keep_vs = sorted(_bits(mask))[: ROWS // 10]
    index = {v: i for i, v in enumerate(keep_vs)}
    keep = 0
    for v in keep_vs:
        keep |= 1 << v
    total = mask.bit_count() + sum(row.bit_count() for row in parsed)
    for v in keep_vs:
        row = 0
        for u in _bits(adj[v] & keep):
            row |= 1 << index[u]
        total += row.bit_count()
    return total


def _timed_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


@dataclass
class Timing:
    wall: float = 0.0  # seconds, as measured
    scaled: float = 0.0  # seconds at the reference host speed, probes excluded


class HostClock:
    """Times blocks and scales them to the reference host speed."""

    def __init__(self):
        self.samples: list[float] = []  # every reference time of the run, s
        self._last: list[float] = []  # the runs after the previous block

    def calibrate(self) -> list[float]:
        self._last = [_timed_reference() for _ in range(REFERENCE_RUNS)]
        self.samples.extend(self._last)
        return self._last

    @contextlib.contextmanager
    def timing(self):
        """Time the body of a ``with`` block, exception or not.  The
        reference runs after one block are the ones before the next."""
        refs = list(self._last or self.calibrate())
        probes: list[float] = []

        def probe(signum, frame):
            probes.append(_timed_reference())

        timing = Timing()
        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = perf_counter()
        try:
            yield timing
        finally:
            timing.wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.extend(probes)
            refs += probes + self.calibrate()
            timing.scaled = ((timing.wall - sum(probes)) * REFERENCE_S
                             / statistics.median(refs))

    def speed(self) -> float:
        """Median reference time of the run over REFERENCE_S (1.0 = the
        reference host, 1.5 = a host 1.5 times slower)."""
        return statistics.median(self.samples) / REFERENCE_S
