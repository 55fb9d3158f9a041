"""Exact density and gap combinatorics over the dyadic blocks.

Block i is the interval [2^i, 2^(i+1)), `range(1 << i, 2 << i)`; the
blocks partition the positive naturals.  A gap of size 2^-e at block i
means the last 2^(i-e) elements of the block are absent.  Everything here
is exact rational arithmetic; no floating point.  `fractions` is imported
only by the two functions that return a Fraction, so importing this module
does not load it.
"""

from __future__ import annotations

from typing import Callable

from .errors import UndefinedInputError
from .records import Frozen
from .runs import clip, difference, hits


def gap_interval(i: int, e: int) -> tuple:
    """Half-open interval [lo, hi) of the size-2^-e gap at block i."""
    if e < 0 or e > i:
        raise UndefinedInputError("gap exponent %d invalid for block %d" % (e, i))
    hi = 1 << (i + 1)
    return (hi - (1 << (i - e)), hi)


def prefix_density(member: Callable[[int], bool], n: int) -> Fraction:
    """Exact |X restricted to n| / n.  Undefined at n = 0."""
    from fractions import Fraction

    if n < 1:
        raise UndefinedInputError("prefix density undefined at n=0")
    return Fraction(sum(1 for k in range(n) if member(k)), n)


class GapCensus(Frozen):
    """Largest gap per block (as the smallest exponent e), or None.

    records[i] is the smallest e such that a gap of size 2^-e is present at
    block i (nested smaller gaps are derivable, not stored), for each block
    i below the census horizon i_max, the record count.  `omitted` is the
    run set of absent elements in [1, 2^i_max), and gap_only records
    whether every block's omissions form a power-of-2 suffix of the block.
    """

    __slots__ = ("records", "omitted", "gap_only")

    def __init__(self, records: tuple, omitted: tuple, gap_only: bool):
        object.__setattr__(self, "records", records)  # ((i, e-or-None), ...) for i < i_max
        object.__setattr__(self, "omitted", omitted)  # run set inside [1, 2^i_max)
        object.__setattr__(self, "gap_only", gap_only)

    def to_jsonable(self) -> dict:
        """The records indexed by block and `gap_only`; `omitted` only when
        not gap-only, since a gap-only census omits exactly the union of
        its records' gap intervals."""
        doc = {"records": [e for _, e in self.records], "gap_only": self.gap_only}
        if not self.gap_only:
            doc["omitted"] = [list(run) for run in self.omitted]
        return doc


def gap_census(present, i_max: int) -> GapCensus:
    """Census the maximal suffix gap of each block i < i_max of the run
    set `present`.

    The block's suffix gap is the part inside it of the last omitted run
    that ends at the block end, of length L; the largest gap present is
    the one with the smallest e satisfying 2^(i-e) <= L.
    """
    if i_max < 0:
        raise UndefinedInputError("i_max must be >= 0")
    omitted = difference(((1, 1 << i_max),), present)
    records = []
    gap_only = hits(present, 0, 1)  # 0 lies in no block, so a gap-only set keeps it
    for i in range(i_max):
        lo, hi = 1 << i, 2 << i
        inside = clip(omitted, lo, hi)
        run = hi - inside[-1][0] if inside and inside[-1][1] == hi else 0
        if len(inside) != bool(run) or run & (run - 1):
            gap_only = False  # interior holes or a non-power-of-2 suffix
        records.append((i, i + 1 - run.bit_length() if run else None))
    return GapCensus(tuple(records), omitted, gap_only)


def gap_density_upper(i: int, e: int) -> Fraction:
    """The exact bound 1 - 2^-(e+1) on the prefix density at 2^(i+1)
    forced by a size-2^-e gap at block i."""
    from fractions import Fraction

    gap_interval(i, e)
    return 1 - Fraction(1, 1 << (e + 1))

