"""End-to-end metrics of a run: names, units and their arithmetic.

The machine the benchmark runs on is shared, and its speed drifts by tens
of percent over seconds to minutes. Times are therefore reported at a
nominal machine speed: the run times a fixed reference computation between
ops and scales every op latency by ``REFERENCE_NOMINAL_S`` over the mean
reference time around it. Each set-up probe times the reference in its own
process. The raw figures are kept in the run record.
"""

from __future__ import annotations

import bisect
import json
import statistics
from time import perf_counter

#: Every end-to-end metric an untraced run reports, with its unit.
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

MIN_BEYOND_TAIL = 10

#: Time of one ``reference_work()`` at the nominal machine speed.
REFERENCE_NOMINAL_S = 0.005
#: Least time between two reference samples during a pass.
REFERENCE_INTERVAL_S = 0.25
#: Samples this close to a timed interval measure the speed it ran at.
REFERENCE_WINDOW_S = 2.0


def reference_work(rounds: int = 30) -> float:
    """A fixed mix of the kinds of work nncost does: dict and string
    building, a JSON round trip of a small spec document, and a loop of
    small numpy products. Contention slows each kind by a different factor,
    so the reference mixes them."""
    import numpy as np
    matrix = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    vector = np.ones(8)
    spec = {"name": "reference", "layers": [
        {"type": "dense", "n_n": 8, "n_i": 8, "activation": "tanh"}]}
    total = 0.0
    for r in range(rounds):
        doc = {f"k{i}": i * 0.5 for i in range(40)}
        total += sum(v * v for v in doc.values())
        total += len(",".join(f"{k}={v!r}" for k, v in doc.items()))
        for _ in range(10):
            total += len(json.loads(json.dumps(spec))["layers"])
        for _ in range(8):
            vector = np.tanh(matrix @ vector + r)
        total += float(vector.sum())
    return total


class Reference:
    """Times of ``reference_work`` sampled through a run."""

    def __init__(self):
        self.at: list[float] = []  # when each sample ended
        self.took: list[float] = []
        reference_work()  # untimed: the first call pays for lazy imports

    def sample(self):
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.at.append(end)
        self.took.append(end - start)

    def tick(self):
        """Sample if the last sample is older than the interval."""
        if not self.at or perf_counter() - self.at[-1] >= REFERENCE_INTERVAL_S:
            self.sample()

    def slowdown(self, start: float | None = None,
                 end: float | None = None) -> float:
        """How much slower than nominal the machine ran: the mean sample
        within ``REFERENCE_WINDOW_S`` of [start, end] ÷ the nominal time,
        or the mean of all samples when none is that close or no interval
        is given."""
        took = self.took
        if start is not None:
            lo = bisect.bisect_left(self.at, start - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(self.at, end + REFERENCE_WINDOW_S)
            took = self.took[lo:hi] or self.took
        return statistics.fmean(took) / REFERENCE_NOMINAL_S

    def at_nominal_speed(self, timings) -> list[float]:
        """Durations of (start, duration) pairs, each divided by the
        slowdown around it."""
        return [took / self.slowdown(start, start + took)
                for start, took in timings]


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, number of samples). With n sorted samples
    the value is the one at rank n - 10, so exactly ten lie beyond it; the
    percentile is that rank as a share of n. With ten samples or fewer no
    such percentile exists and the maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - MIN_BEYOND_TAIL
    if rank < 1:
        return ordered[-1], 100.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(latencies_s, attempted: int, failed: int, setup_s,
               peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics from the measured op latencies and set-up times."""
    tail_s, _, _ = tail(latencies_s)
    return {
        "ops_per_s": len(latencies_s) / sum(latencies_s),
        "op_p50_ms": 1000.0 * statistics.median(latencies_s),
        "op_tail_ms": 1000.0 * tail_s,
        "success_rate": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
