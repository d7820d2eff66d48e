"""Order statistics shared by the runner, the tracer and the comparison."""

from __future__ import annotations

import statistics


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile of values, 0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as the benchmark's
    steadiness rule takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
