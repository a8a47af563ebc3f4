"""Reference-speed normalisation of measured times.

On a shared 2-vCPU host the speed of pure-Python code drifts by up to 40%
over tens of seconds as other tenants load the machine (measured with a
fixed integer loop: 68-120 ms per million iterations within 90 s), and a
30 s run often sits in a single fast or slow spell.  So the benchmark
times a fixed pure-Python burst, which does not touch flipcells, at op
boundaries throughout each pass (for about a tenth of the op time) and
rescales every measured op time by `NOMINAL_S / burst time`.  A change to
flipcells moves the op times but not the bursts, so it still shows in
full; a change in machine speed moves both and cancels.  The raw times are
reported alongside.
"""

from __future__ import annotations

import statistics
import time

# Median burst time on a 2-core Intel Xeon (KVM) at a typical speed; it only
# sets the scale of the normalised times.
NOMINAL_S = 0.006
SAMPLE_EVERY_S = 1.0  # op time between samples
SAMPLE_SHARE = 0.1  # a sample lasts about this share of the op time it covers
MIN_BURSTS, MAX_BURSTS = 12, 200
PASS_START_S = 2.0  # op time the sample that opens a pass is sized for


def burst() -> int:
    table: dict[tuple[int, int], int] = {}
    x = 0
    for i in range(20_000):
        x = (x * 31 + i) & 0xFFFFF
        table[(x, i & 7)] = i
    return len(table)


def sample(op_s: float) -> float:
    """Median burst time, over more bursts the more op time it must cover,
    so that a long op is judged by the speed over a longer window."""
    k = min(MAX_BURSTS, max(MIN_BURSTS, round(SAMPLE_SHARE * op_s / NOMINAL_S)))
    times = []
    for _ in range(k):
        t = time.perf_counter()
        burst()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Segmenter:
    """Groups consecutive ops between two samples and scales their times by
    the mean of the two samples that bracket them."""

    def __init__(self):
        self.before = sample(PASS_START_S)
        self.pending: list[tuple[object, float]] = []
        self.pending_s = 0.0

    def add(self, key, dt: float) -> list[tuple[object, float]]:
        """Record one op; returns (key, normalised time) for every op whose
        segment this op closed, else nothing yet."""
        self.pending.append((key, dt))
        self.pending_s += dt
        return self.flush() if self.pending_s >= SAMPLE_EVERY_S else []

    def flush(self) -> list[tuple[object, float]]:
        if not self.pending:
            return []
        after = sample(self.pending_s)
        scale = NOMINAL_S / ((self.before + after) / 2)
        out = [(key, dt * scale) for key, dt in self.pending]
        self.before, self.pending, self.pending_s = after, [], 0.0
        return out
