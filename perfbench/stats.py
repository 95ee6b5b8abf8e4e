"""The benchmark's statistics: percentiles, windows, throughput, per-pass
means and span self time.

Everything here is pure Python over plain lists, so the tests in
perfbench/tests/test_stats.py pin each rule down without running the
benchmark.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; below that, one outlier decides the figure.
MIN_BEYOND = 10

# Throughput and latency are medians over back-to-back intervals of this
# length, so one stall moves one interval's figure, not the run's.
INTERVAL_S = 0.25

# Trace timestamps are printed to a thousandth of a microsecond; a child
# span may appear to end that much after its parent.
_NEST_SLACK_US = 0.002


def percentile(values, p):
    """Nearest-rank p-th percentile of `values` (0 < p < 100).

    The result is one of the samples, as measured. Raises ValueError when
    fewer than MIN_BEYOND samples lie beyond the percentile's rank.
    """
    if not 0 < p < 100:
        raise ValueError("percentile must lie in (0, 100), got %r" % (p,))
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has only %d beyond it; need %d"
            % (p, n, n - rank, MIN_BEYOND))
    return sorted(values)[rank - 1]


def in_window(values, done, begin, end):
    """The values whose completion time lies in [begin, end)."""
    return [v for v, t in zip(values, done) if begin <= t < end]


def _by_interval(values, done, begin, end, width):
    """The values completed in each whole `width`-second interval of
    [begin, end), in time order; a partial interval at the end is left
    out."""
    groups = [[] for _ in range(int((end - begin) // width))]
    for v, t in zip(values, done):
        k = math.floor((t - begin) / width)
        if 0 <= k < len(groups):
            groups[k].append(v)
    return groups


def interval_rates(done, begin, end, per_op=1.0, width=INTERVAL_S):
    """Completions per second in each whole `width`-second interval of
    [begin, end), in time order.

    `done` holds completion times; each completion counts `per_op` units
    (queries per batch).
    """
    return [len(g) * per_op / width
            for g in _by_interval(done, done, begin, end, width)]


def interval_percentiles(values, done, begin, end, p, width=INTERVAL_S):
    """The p-th percentile of the values completed in each whole
    `width`-second interval of [begin, end), in time order.

    An interval with too few samples for the percentile stalled: it reads
    as infinitely slow, so it counts against the run rather than dropping
    out of it.
    """
    out = []
    for g in _by_interval(values, done, begin, end, width):
        try:
            out.append(percentile(g, p))
        except ValueError:
            out.append(math.inf)
    return out


def interval_median(values):
    """The lower median of per-interval figures, so the result is one
    interval's figure. Raises ValueError when there is no interval or when
    at least half of them stalled (read as infinitely slow)."""
    if not values:
        raise ValueError("no whole interval in the window")
    m = statistics.median_low(values)
    if math.isinf(m):
        raise ValueError("at least half of the intervals stalled")
    return m


def median_of_means(groups):
    """The median over `groups` of each group's mean.

    A group is one pass of a fixed sequence of operations, so every group
    holds the same mix of cheap and expensive ones. Its mean moves in
    proportion to the work, where a percentile of a mixed population can
    jump between clusters; the median over passes keeps one disturbed pass
    from moving the figure.
    """
    if not groups or not all(groups):
        raise ValueError("every group needs at least one sample")
    return statistics.median(statistics.fmean(g) for g in groups)


def spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def self_times(events):
    """Self time of each complete span: its duration minus its children.

    `events` are Chrome trace "X" events (dicts with name, ts, dur, tid;
    microseconds). A span's children are the spans of the same thread
    that lie inside it with no span in between. Returns a list of
    (name, duration_us, self_us) in input order.
    """
    out = [None] * len(events)
    by_tid = {}
    for i, e in enumerate(events):
        by_tid.setdefault(e["tid"], []).append(i)
    for idx in by_tid.values():
        # Parents sort before their children: earlier start first, and on
        # a tie the longer span first.
        idx.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        child_us = {i: 0.0 for i in idx}
        stack = []
        for i in idx:
            e = events[i]
            while stack:
                top = events[stack[-1]]
                top_end = top["ts"] + top["dur"] + _NEST_SLACK_US
                if e["ts"] + e["dur"] <= top_end:
                    break
                stack.pop()
            if stack:
                child_us[stack[-1]] += e["dur"]
            stack.append(i)
        for i in idx:
            e = events[i]
            out[i] = (e["name"], e["dur"], max(0.0, e["dur"] - child_us[i]))
    return out
