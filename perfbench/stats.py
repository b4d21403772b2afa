"""Statistics the overhead-ladder benchmark reports.

A timing is reported as its median and as the highest percentile that
still has at least ten samples beyond it (so a tail value never rests on
one or two outliers).  Run this file to self-test the rules:

    python3 perfbench/stats.py
"""

import math
import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def mean(values):
    if not values:
        raise ValueError("mean of no samples")
    return statistics.fmean(values)


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def mean_of_medians(groups):
    """Mean over groups (one per measuring process) of each group's
    median.  A process that settles in a slow or a fast state moves the
    result by its share, where the median of the pooled samples would
    jump to the state most of the processes happened to draw."""
    if not groups:
        raise ValueError("mean of medians of no groups")
    return mean([median(g) for g in groups])


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """(percentile, value) for the highest percentile in TAIL_LADDER with
    at least MIN_BEYOND samples strictly above it.  With too few samples
    for even the median to qualify, the median is returned as (50, ...)."""
    if not values:
        raise ValueError("tail of no samples")
    for p in TAIL_LADDER:
        value = percentile(values, p)
        if sum(1 for v in values if v > value) >= MIN_BEYOND:
            return p, value
    return 50.0, median(values)


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_test():
    assert mean([1.0, 2.0, 6.0]) == 3.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile(list(range(1, 101)), 100) == 100

    # 1000 samples: p99 (990) has exactly 10 above it, p99.9 only 1.
    thousand = [float(i) for i in range(1, 1001)]
    assert tail(thousand) == (99.0, 990.0), tail(thousand)
    # 200 samples: p95 leaves 10 beyond, p99 only 2.
    assert tail([float(i) for i in range(1, 201)]) == (95.0, 190.0)
    # 100 samples: p90 leaves exactly 10 beyond.
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    # Ties at the top do not count as "beyond".
    tied = [1.0] * 50 + [7.0] * 50
    assert tail(tied) == (50.0, 1.0), tail(tied)
    # Too few samples: falls back to the median.
    assert tail([1.0, 2.0, 3.0]) == (50.0, 2.0)

    assert abs(spread([1.0, 2.0, 3.0, 4.0, 5.0]) - (4.5 - 1.5) / 3.0) < 1e-12
    # Two fast processes and one slow: the pooled median is the fast
    # state, the mean of medians moves by a third of the gap.
    groups = [[1.0, 1.0, 1.1], [1.0, 1.1, 1.1], [1.5, 1.5, 1.6]]
    assert median([v for g in groups for v in g]) == 1.1
    assert abs(mean_of_medians(groups) - 3.6 / 3) < 1e-12
    for fn in (mean, median, tail, mean_of_medians):
        try:
            fn([])
        except ValueError:
            pass
        else:
            raise AssertionError("empty input accepted")
    print("stats self-test passed")


if __name__ == "__main__":
    self_test()
