"""Percentiles, spreads and failure tallies used by the benchmark."""

import statistics


def tail_percentile(values, pct=90, needed=10):
    """The pct-th percentile of `values` (the "inclusive" method of
    statistics.quantiles), or None unless at least `needed` samples lie
    above it."""
    if len(values) * (100 - pct) / 100 < needed:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def tally(problems_per_op):
    """(attempted, failed) from one list of problems per operation; an
    operation fails when its list is non-empty."""
    attempted = len(problems_per_op)
    failed = sum(1 for problems in problems_per_op if problems)
    return attempted, failed
