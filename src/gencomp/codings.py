"""Bit codings recoverable from dense partial descriptions.

Two codings of a real X into a larger real:

* valuation coding: bit n (n >= 1) copies X at the 2-adic valuation of n,
  so each source bit lands on a positive-density set of indices and any
  dense description recovers every source bit.
* interval coding: bit n (n >= 2) copies X at m where 2^m is the largest
  power of two strictly below n, so source bit m lands on the finite
  interval (2^m, 2^(m+1)] and a dense description recovers all but
  finitely many source bits.

Decoders take an explicit search bound; "not found" is a value (None),
not an error, so callers can enlarge bounds.  Witness disagreement is
reported as corruption rather than assumed away.
"""

from __future__ import annotations

from typing import Optional

from .errors import CorruptDescriptionError, UndefinedInputError
from .reals import GenericDescription, RealSpec
from .records import Frozen


def two_adic_valuation(n: int) -> int:
    """The m with 2^m the largest power of two dividing n; n >= 1."""
    if n < 1:
        raise UndefinedInputError("valuation undefined at %d" % n)
    return (n & -n).bit_length() - 1


def floor_log2_below(n: int) -> int:
    """The m with 2^m the largest power of two strictly less than n; n >= 2."""
    if n < 2:
        raise UndefinedInputError("no power of two below %d" % n)
    return (n - 1).bit_length() - 1


def encode_interval(x: RealSpec, n: int) -> int:
    """Bit n of the interval coding of X: X.bit(m), 2^m the largest power
    of two strictly below n; n >= 2.  Note the strict inequality: n = 2^m
    maps to source bit m-1."""
    return x.bit(floor_log2_below(n))


def _copied_bits(source: RealSpec, ms: list) -> list:
    """source.bit(m) for each m of ms, reading each distinct m once."""
    distinct = list(dict.fromkeys(ms))
    return list(map(dict(zip(distinct, source.bits(distinct))).__getitem__, ms))


def _shared_valuation(ns) -> Optional[int]:
    """The valuation every index of ns has, when ns is a nonempty range of
    positive indices whose step is a power of two 2^k and whose start has
    valuation below k; None for any other input."""
    if not isinstance(ns, range) or not ns or ns.start < 1:
        return None
    step = ns.step
    if step > 0 and step & (step - 1) == 0 and ns.start & (step - 1):
        return two_adic_valuation(ns.start)
    return None


class ValuationCoding(RealSpec, Frozen):
    __slots__ = ("source",)

    def __init__(self, source: RealSpec):
        object.__setattr__(self, "source", source)

    def bit(self, n: int) -> int:
        """X.bit(v2(n)); n >= 1."""
        return self.source.bit(two_adic_valuation(n))

    def bits(self, ns) -> list:
        m = _shared_valuation(ns)
        if m is not None:  # one source bit for a whole witness class
            return [self.source.bit(m)] * len(ns)
        if ns and min(ns) < 1:  # the first excluded index raises as in bit()
            two_adic_valuation(next(n for n in ns if n < 1))
        return _copied_bits(self.source, [(n & -n).bit_length() - 1 for n in ns])


class IntervalCoding(RealSpec, Frozen):
    __slots__ = ("source",)

    def __init__(self, source: RealSpec):
        object.__setattr__(self, "source", source)

    def bit(self, n: int) -> int:
        return encode_interval(self.source, n)

    def bits(self, ns) -> list:
        if ns and min(ns) < 2:  # the first excluded index raises as in bit()
            floor_log2_below(next(n for n in ns if n < 2))
        return _copied_bits(self.source, [(n - 1).bit_length() - 1 for n in ns])


def _decode(d: GenericDescription, witnesses) -> Optional[int]:
    """The bit every assigned witness carries, read in one values() call;
    a disagreement is reported at its first index in witness order."""
    xs = d.values(witnesses)
    found = set(xs)
    found.discard(None)
    if len(found) > 1:
        first = next(x for x in xs if x is not None)
        n = next(n for n, x in zip(witnesses, xs) if x is not None and x != first)
        raise CorruptDescriptionError("witnesses disagree at index %d" % n)
    return found.pop() if found else None


def decode_valuation(d: GenericDescription, m: int, bound: int) -> Optional[int]:
    """Recover source bit m from a description of a valuation coding by
    scanning the assigned witnesses n <= bound with v2(n) = m.

    All assigned witnesses are read and must agree; disagreement raises
    CorruptDescriptionError.  Returns None when no witness is assigned.
    """
    if m < 0:
        raise UndefinedInputError("bit index must be >= 0")
    step = 1 << (m + 1)
    return _decode(d, range(1 << m, bound + 1, step))


def decode_interval(d: GenericDescription, m: int, bound: int) -> Optional[int]:
    """Recover source bit m from a description of an interval coding by
    scanning the assigned witnesses in (2^m, 2^(m+1)] up to bound."""
    if m < 0:
        raise UndefinedInputError("bit index must be >= 0")
    lo = (1 << m) + 1
    hi = min(1 << (m + 1), bound)
    return _decode(d, range(lo, hi + 1))
