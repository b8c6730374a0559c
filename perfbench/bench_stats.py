"""Arithmetic behind the reported numbers: percentiles, failure share and
the end-to-end metric set."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10   # samples that must lie beyond a reported percentile
# bench_worker.reference_s() on the two-core VM the bounds were set on, at
# its usual speed; timings are reported as if the machine ran at that speed
REF_NOMINAL_S = 0.006
SMOOTH = 5        # reference timings on each side of an item that set its speed


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples beyond it."""


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples beyond it.

    Refuses (TooFewSamples) when fewer than MIN_BEYOND samples lie above
    the rank, because such a tail says little about the percentile.
    """
    if not values:
        raise TooFewSamples("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if q < 100 and beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it (< {MIN_BEYOND})")
    return ordered[rank - 1], beyond


def at_reference_speed(values: list[float], refs: list[float]) -> list[float]:
    """Scale each timing by REF_NOMINAL_S over the median of the reference
    timings taken within SMOOTH items of it.

    The shared machine's speed drifts by up to a factor of two within
    minutes while the ratio of item time to reference time stays within
    a few per cent, so the scaled timings move with the program, not with
    the machine.  The reference calls nothing in bknet.
    """
    if len(refs) != len(values):
        raise ValueError("one reference timing per value is needed")
    return [v * REF_NOMINAL_S / statistics.median(refs[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i, v in enumerate(values)]


def fail_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no items attempted")
    return failed / attempted


def end_to_end(setup_samples: list[float], latencies: list[float],
               rss_kb: int) -> dict[str, float]:
    """The metrics a user of the library sees, from one untraced run."""
    p50, _ = percentile(latencies, 50)
    p90, _ = percentile(latencies, 90)
    return {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": p50 * 1e3,
        "item_p90_ms": p90 * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }


E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
