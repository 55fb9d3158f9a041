"""Sets of naturals as sorted runs.

A run set is a tuple of half-open runs (lo, hi), sorted, disjoint and
non-adjacent, each nonempty.  It is the one representation of an
enumerated set: every opponent enumerates a few intervals per stage (a
whole prefix, a block up to its gap, the first point of a gap), so the
cost of every operation here is linear in the number of runs, never in
the number of elements.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

_hi = itemgetter(1)


def normalize(pairs) -> tuple:
    """The run set covering the union of any (lo, hi) pairs; empty pairs
    are dropped, overlapping and adjacent ones merged."""
    out = []
    for lo, hi in sorted(p for p in pairs if p[0] < p[1]):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def from_elements(elements) -> tuple:
    return normalize((n, n + 1) for n in elements)


def union(a, b) -> tuple:
    return normalize(a + b)


def difference(a, b) -> tuple:
    """The elements of run set `a` that are not in run set `b`."""
    out = []
    j = 0
    for lo, hi in a:
        while j < len(b) and b[j][1] <= lo:
            j += 1
        k = j
        while k < len(b) and b[k][0] < hi:
            if b[k][0] > lo:
                out.append((lo, b[k][0]))
            lo = max(lo, b[k][1])
            k += 1
        if lo < hi:
            out.append((lo, hi))
    return tuple(out)


def clip(runs, lo: int, hi: int) -> tuple:
    """The part of `runs` inside [lo, hi)."""
    if lo >= hi:
        return ()
    out = []
    for i in range(bisect_right(runs, lo, key=_hi), len(runs)):
        a, b = runs[i]
        if a >= hi:
            break
        out.append((max(a, lo), min(b, hi)))
    return tuple(out)


def hits(runs, lo: int, hi: int) -> bool:
    """Whether some element of `runs` lies in [lo, hi)."""
    i = bisect_right(runs, lo, key=_hi)
    return lo < hi and i < len(runs) and runs[i][0] < hi


def count_below(runs, n: int) -> int:
    """|runs restricted to [0, n)|."""
    total = 0
    for lo, hi in runs:
        if lo >= n:
            break
        total += min(hi, n) - lo
    return total


def is_natural(v) -> bool:
    """An int that is not a bool, and not negative: the config and trace
    readers' one test of a natural number."""
    return type(v) is int and v >= 0


def is_bits(v) -> bool:
    """A string of 0s and 1s."""
    return type(v) is str and not v.strip("01")
