"""Log-bucketed latency histograms for the serving workload driver.

Serving latencies span orders of magnitude (a cache hit is a dict read,
a cold slice query walks the index hundreds of times), so the buckets
grow geometrically: bucket ``i >= 1`` covers ``[min_latency *
growth**(i-1), min_latency * growth**i)`` and bucket 0 everything up to
``min_latency``.  A reported percentile is interpolated by rank inside
the bucket holding the exact order statistic, so it can be off by at
most that bucket's width — a factor of ``growth`` (1.25 by default) —
and on smooth latency distributions it lands within a few percent,
moving with shifts far smaller than a bucket.  The histogram itself
stays a small dict of counters that merges in O(buckets) — each
workload client records into its own histogram and the driver merges
them afterwards, so recording needs no synchronization.
"""

from __future__ import annotations

import math


class LatencyHistogram:
    """Latency samples in geometric buckets, with percentile readout.

    >>> h = LatencyHistogram()
    >>> for ms in (1, 1, 2, 50):
    ...     h.record(ms / 1000.0)
    >>> h.count
    4
    >>> 0.04 <= h.percentile(99) <= 0.06
    True
    """

    def __init__(self, min_latency: float = 1e-6, growth: float = 1.25) -> None:
        if min_latency <= 0:
            raise ValueError("min_latency must be positive")
        if growth <= 1:
            raise ValueError("growth must exceed 1")
        self.min_latency = min_latency
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Add one latency sample (in seconds)."""
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        if seconds <= self.min_latency:
            index = 0
        else:
            index = int(math.log(seconds / self.min_latency) / self._log_growth) + 1
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += seconds
        self.min = seconds if seconds < self.min else self.min
        self.max = seconds if seconds > self.max else self.max

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram (bucket-wise add)."""
        if (other.min_latency, other.growth) != (self.min_latency, self.growth):
            raise ValueError("cannot merge histograms with different bucket layouts")
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        """A JSON-able snapshot that :meth:`from_dict` round-trips exactly.

        This is the cross-process folding format: a worker serializes its
        histogram, the parent rebuilds it and :meth:`merge`\\ s — and the
        benchmarks persist raw histograms into their ``BENCH_*.json``
        artifacts through the same dict.
        """
        return {
            "min_latency": self.min_latency,
            "growth": self.growth,
            "buckets": {str(index): n for index, n in sorted(self._buckets.items())},
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls(data["min_latency"], data["growth"])
        hist._buckets = {int(index): int(n) for index, n in data["buckets"].items()}
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist.min = math.inf if data.get("min") is None else float(data["min"])
        hist.max = float(data["max"])
        return hist

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The latency at percentile ``p`` (0..100), 0.0 when empty.

        The target is the nearest-rank order statistic (numpy's
        ``inverted_cdf``).  Within its bucket, narrowed to the observed
        min/max, the ``k``-th of ``n`` samples is placed at fraction
        ``(k - 0.5) / n`` of the bucket's log range.  The result lies in
        the same bucket as the exact value, so it is off by less than a
        factor of ``growth``, and it is clamped to the observed min/max
        so the extremes are never overstated.
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be between 0 and 100")
        if not self.count:
            return 0.0
        target = max(1, math.ceil(self.count * p / 100.0))
        seen = 0
        for index in sorted(self._buckets):
            n = self._buckets[index]
            if seen + n < target:
                seen += n
                continue
            if index == 0:
                value = self.min_latency
            else:
                lo = max(self.min_latency * self.growth ** (index - 1), self.min)
                hi = min(self.min_latency * self.growth**index, self.max)
                value = lo * (hi / lo) ** ((target - seen - 0.5) / n)
            return min(max(value, self.min), self.max)
        return self.max

    def summary(self) -> dict[str, float]:
        """The serving report's latency block: count, mean, p50/p95/p99, max."""
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "max_s": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:
        return f"LatencyHistogram({self.count} samples, mean {self.mean * 1000:.3f}ms)"
