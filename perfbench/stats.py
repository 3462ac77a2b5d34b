"""Statistics of the repository benchmark, kept free of I/O so they can be
tested on hand-made samples (test_stats.py).

Percentiles use the nearest-rank definition: the q-th percentile of n
sorted samples is the sample at 1-based rank ceil(q/100 * n). A percentile
is only *reported* when at least MIN_BEYOND samples lie strictly beyond that
rank; otherwise the highest percentile of LADDER below it that has them is
reported in its place, and the report says which one it was.
"""

import math
import statistics

MIN_BEYOND = 10
LADDER = (50, 90, 99)

# Per-sample status codes written by kbench.
OK = 0
REFUSED = 1
CHECK_FAILED = 2


def nearest_rank(n, q):
    """0-based index of the q-th percentile among n sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(0, math.ceil(q / 100.0 * n) - 1)


def beyond(n, q):
    """How many of n samples lie strictly beyond the q-th percentile."""
    return n - 1 - nearest_rank(n, q)


def percentile(values, q):
    """Reports the q-th percentile of `values` under the ten-beyond rule.

    Returns a dict: `value`, `requested` (q), `reported` (the percentile
    actually read), `samples`, `beyond` and `rule_met`. When no percentile
    of LADDER up to q has MIN_BEYOND samples beyond it, the median is
    reported with rule_met False.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    candidates = [p for p in LADDER if p <= q and beyond(n, p) >= MIN_BEYOND]
    reported = max(candidates) if candidates else LADDER[0]
    return {
        "value": ordered[nearest_rank(n, reported)],
        "requested": q,
        "reported": reported,
        "samples": n,
        "beyond": beyond(n, reported),
        "rule_met": bool(candidates),
    }


def failures(status):
    """(attempted, failed): every nonzero status -- a refused or errored
    request as much as one whose output check failed -- counts as failed."""
    attempted = len(status)
    failed = sum(1 for s in status if s != OK)
    return attempted, failed


def failed_frac(status):
    attempted, failed = failures(status)
    return failed / attempted if attempted else 1.0


def open_loop_latency(due_ms, sent_ms, done_ms):
    """Open-loop timing: each request is timed from when it was *due*, so a
    generator or queue stall is charged to every request it delayed.
    Returns (latency_ms, generator_lag_ms) per request."""
    if not len(due_ms) == len(sent_ms) == len(done_ms):
        raise ValueError("due/sent/done lengths differ")
    latency = [done - due for due, done in zip(due_ms, done_ms)]
    lag = [sent - due for due, sent in zip(due_ms, sent_ms)]
    return latency, lag


def median(values):
    return statistics.median(values) if values else float("nan")


def select(values, mask, want=1):
    return [v for v, m in zip(values, mask) if m == want]
