"""Statistics of the drill-down benchmark, kept apart from the runner so
they can be tested without a build (see test_stats.py).

Rules this module enforces:
  * each click type is its own population; percentiles never mix them;
  * a tail percentile is reported only when at least MIN_BEYOND samples lie
    beyond it, otherwise it is refused;
  * a span's self time is its duration minus the part of it that its child
    spans cover, counting overlapping children once.
"""

import math
import statistics
from collections import OrderedDict

MIN_BEYOND = 10


class TailRefused(ValueError):
    """A tail percentile was asked of a population too small to carry it."""


def split_by_click(ops):
    """Splits a run's (click kind, value) samples into one population per
    click kind, preserving the order samples were taken in."""
    populations = OrderedDict()
    for kind, value in ops:
        populations.setdefault(kind, []).append(value)
    return populations


def median(values):
    if not values:
        raise ValueError("median of an empty population")
    return statistics.median(values)


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    rank = max(1, math.ceil(p / 100.0 * n))
    return n - rank


def tail_percentile(values, p, min_beyond=MIN_BEYOND):
    """Nearest-rank p-th percentile, refused (TailRefused) unless at least
    `min_beyond` samples lie beyond it."""
    n = len(values)
    beyond = samples_beyond(n, p) if n else 0
    if beyond < min_beyond:
        raise TailRefused(
            "p%g of %d samples has %d beyond it; need %d"
            % (p, n, beyond, min_beyond))
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * n)) - 1]


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: {id: duration - covered by children}.

    `spans` are dicts with id, parent (0 = none), start and end."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered_length(s["start"], s["end"], children.get(s["id"], []))
        for s in spans
    }


def paired_delta(upper, lower):
    """Median over shared request ids of upper - lower durations: the self
    time of a surface measured against the same request one surface down.

    `upper` and `lower` map request id -> duration."""
    shared = [r for r in upper if r in lower]
    if not shared:
        raise ValueError("no request measured on both surfaces")
    return median([upper[r] - lower[r] for r in shared])


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread the acceptance check uses."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
