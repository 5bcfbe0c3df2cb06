"""Percentiles of chunk times, and the rule for which one to report.

Timings are reported as a median plus the highest percentile that has
at least ten samples beyond it, together with the sample count: a p90
read from twenty samples rests on two of them and says nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def tail_percentile(n_samples: int) -> Optional[float]:
    """Highest percentile of ``TAIL_LADDER`` with at least
    ``MIN_BEYOND`` of ``n_samples`` beyond it, or None if even the
    median lacks that support."""
    best = None
    for p in TAIL_LADDER:
        # Tolerance: 100 * (1 - 0.9) is 9.999... in binary floating point.
        if n_samples * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
