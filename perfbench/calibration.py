"""Host-speed calibration of reported times.

On a shared machine the host's speed can drift by a third within minutes
as other tenants come and go (on a shared 2-core Linux container the task
below took anywhere from 9 to 16 ms), and CPU time drifts with wall time,
so raw timings of the same code spread more between runs than a useful
regression bound.  The benchmark therefore runs a fixed calibration task between ops and around
set-ups: pure-Python work of the kinds simscan does (string slicing, dict
counting, `Fraction` ordering, a list-based dynamic program) but none of
simscan's code, so a change to simscan cannot move it.

Each timed interval (an op, a set-up) is its wall time multiplied by
``(REFERENCE_S / c) ** SENSITIVITY``, where ``c`` is the mean of the
calibration times just before and just after it.  simscan's ops respond to
the host's speed changes about half as strongly as the calibration task
does (least-squares slopes of log op time on log task time were 0.41 to
0.65 across the three workloads), so the full ratio over-corrects and
``SENSITIVITY`` is 0.5.  In five-seed runs of every workload on a shared
2-core Linux host, this kept the quartile spread of median latency, tail
latency and throughput at or below 0.081 of the median, where raw wall time
reached 0.143 and one factor per run 0.085.  The raw wall times are kept in
the result's metadata.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.015
SENSITIVITY = 0.5
_rng = random.Random(0)
_TEXT = "".join(_rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(1500))
_XS = [_rng.randrange(30) for _ in range(60)]
_YS = [_rng.randrange(30) for _ in range(60)]


def task() -> tuple:
    counts: dict[str, int] = {}
    for i in range(len(_TEXT) - 3):
        gram = _TEXT[i : i + 4]
        counts[gram] = counts.get(gram, 0) + 1
    total = sum(counts.values())
    ranked = sorted(counts, key=lambda gram: (Fraction(counts[gram], total), gram))
    prev = [0] * (len(_YS) + 1)
    for x in _XS:
        curr = [0] * (len(_YS) + 1)
        for j, y in enumerate(_YS):
            curr[j + 1] = prev[j] + 1 if x == y else max(curr[j], prev[j + 1])
        prev = curr
    return ranked[0], prev[-1]


class HostClock:
    """Calibrates between timed intervals and scales them to the reference host."""

    def __init__(self):
        self.samples: list[float] = []

    def calibrate(self) -> float:
        start = perf_counter()
        task()
        self.samples.append(perf_counter() - start)
        return self.samples[-1]

    def scaled(self, seconds: float, before: float, after: float) -> float:
        """`seconds` timed between calibrations `before` and `after`, scaled."""
        return seconds * (REFERENCE_S * 2 / (before + after)) ** SENSITIVITY

    def speed(self) -> float:
        """Median host speed relative to the reference host (above 1 is faster)."""
        return REFERENCE_S / statistics.median(self.samples)
