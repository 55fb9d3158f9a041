"""Finitary representations of infinite binary sequences and their fragments.

A "real" here is a subset of the naturals presented through its
characteristic sequence: a total, closed-form rule n -> bit(n).  Reals are
generators, not stateful streams, so any construction may re-query bits at
any stage and replays stay exact.  The module also houses partial
descriptions: one built from a real is truthful about it, and keeps only
its values, not the real.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Optional, Sequence

from .errors import UndefinedInputError
from .records import Frozen

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """64-bit finalizer of the splitmix64 generator (public, portable).

    Pinned by test vectors; changing it silently would break trace
    portability across implementations.
    """
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def seeded_bit(seed: int, n: int) -> int:
    """Bit n of the seeded pseudorandom real: low bit of mix64 applied to
    the (n+1)-th splitmix64 state of a generator seeded with `seed`."""
    return mix64((seed + (n + 1) * _GAMMA) & _MASK64) & 1


class RealSpec:
    """Base for finitely generated infinite binary sequences.

    Subclasses implement bit(n) deterministically for all n >= 0.
    """

    __slots__ = ()

    def bit(self, n: int) -> int:
        raise NotImplementedError

    def bits(self, ns: Sequence[int]) -> list:
        """The bits at the indices ns, in order: one call for a whole
        index list.  Subclasses may answer it faster; since a real is a
        pure rule, the answer is always [self.bit(n) for n in ns]."""
        return [self.bit(n) for n in ns]


class SeededReal(RealSpec, Frozen):
    """Pseudorandom real driven by the pinned 64-bit mixing function."""

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "seed", seed)

    def bit(self, n: int) -> int:
        if n < 0:
            raise UndefinedInputError("bit index must be >= 0")
        return seeded_bit(self.seed, n)


class GenericDescription:
    """A partial bit assignment n -> {0,1}, at most one bit per index.

    A description answers a witness list: values(ns) gives, for each index
    of ns in order, its assigned bit or None where it is unassigned; one
    index n is `values((n,))[0]`.  It is lazily generated from a domain
    predicate plus a source real, so "is n assigned, and to what" is
    decidable below any horizon, and it keeps only its values: it reads
    every value from its source.
    """

    def __init__(self, values: Callable[[Sequence[int]], list]):
        self.values = values

    @classmethod
    def from_domain(cls, domain: Optional[Callable[[int], bool]], source: RealSpec,
                    start: int = 0) -> "GenericDescription":
        """Lazily generated truthful description: assigned exactly on the
        predicate's domain (every index when `domain` is None), restricted
        to n >= start, values read from the source."""

        def values(ns):
            if domain is None and isinstance(ns, range) and ns.step > 0 and ns.start >= start:
                return source.bits(ns)  # every index is assigned
            if domain is None:
                keep = [n >= start for n in ns]
            else:
                keep = [n >= start and domain(n) for n in ns]
            assigned = list(compress(ns, keep))
            got = source.bits(assigned)
            if len(assigned) == len(keep):
                return got
            got = iter(got)
            return [next(got) if k else None for k in keep]

        return cls(values)

    @classmethod
    def full(cls, source: RealSpec, start: int = 0) -> "GenericDescription":
        return cls.from_domain(None, source, start=start)
