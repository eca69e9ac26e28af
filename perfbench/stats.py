"""Latency summaries."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
TAIL_BLOCK = 150
"""Requests per block of ``block_tail_latency``: ten cycles of the
warm-cache schedule, and more than an exact-cold or monte-carlo run
completes, so those take their tail over the whole run."""


def tail_latency(values) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  With n sorted
    samples that is the (n - TAIL_BEYOND)-th smallest, at percentile
    100 * (n - TAIL_BEYOND) / n.  With TAIL_BEYOND samples or fewer no
    percentile qualifies, and the maximum is returned with nothing
    beyond it.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def block_tail_latency(values, block: int = TAIL_BLOCK) -> tuple[float, float, int, int]:
    """``tail_latency`` within consecutive blocks of ``block`` requests
    (the remainder joins the last block; fewer than two blocks' worth is
    one block), and the median over blocks of each result.

    A long run of short requests would otherwise put the tail at its
    ~2,000 requests' p99.5, which moves with every stall of the machine;
    within blocks the percentile stays near that of a run of a hundred
    or so slower requests.  Returns ``(value, percentile, samples beyond
    per block, blocks)``, the percentile being the median over blocks.
    """
    xs = list(values)
    count = max(1, len(xs) // block)
    cuts = [k * block for k in range(count)] + [len(xs)]
    tails = [tail_latency(xs[a:b]) for a, b in zip(cuts, cuts[1:])]
    return (
        median(t[0] for t in tails),
        median(t[1] for t in tails),
        min(t[2] for t in tails),
        count,
    )


def median(values) -> float:
    return float(statistics.median(values))
