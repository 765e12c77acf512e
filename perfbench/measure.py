"""Small measurement helpers shared by the benchmark processes."""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Optional, Sequence


def median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3


def p95_ms(seconds: Sequence[float]) -> float:
    """Nearest-rank 95th percentile; with fewer than 20 samples, the slowest."""
    ordered = sorted(seconds)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)] * 1e3


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set of a live child process, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop plus single-threaded numpy work.

    It exercises none of the program; a change in it between two runs means
    the host itself got faster or slower.  It avoids BLAS, whose worker
    threads would make the figure depend on the thread settings.
    """
    import numpy as np

    values = np.random.default_rng(0).random(100_000)
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        for _ in range(10):
            checksum = float(np.sort(values).cumsum()[-1])
        samples.append(time.perf_counter() - started)
        if total < 0 or checksum <= 0.0:
            raise RuntimeError("calibration loop miscomputed")
    return statistics.median(samples) * 1e3
