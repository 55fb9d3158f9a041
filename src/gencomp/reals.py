"""Finitary representations of infinite binary sequences and their fragments.

A "real" here is a subset of the naturals presented through its
characteristic sequence: a total, closed-form rule n -> bit(n).  Reals are
generators, not stateful streams, so any construction may re-query bits at
any stage and replays stay exact.  The module also houses finite bit
prefixes, partial truthful descriptions, their stage-labelled variants, and
scripted monotone enumerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import CorruptDescriptionError, FalsifiedPremiseError, OutOfRangeError, UndefinedInputError
from .runs import from_elements

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

    Subclasses implement bit(n) deterministically for all n >= 0 unless a
    hard length is declared (ExplicitPrefixReal).
    """

    def bit(self, n: int) -> int:
        raise NotImplementedError

    def member(self, n: int) -> bool:
        """Set-view of the real: n is a member iff bit(n) == 1."""
        return self.bit(n) == 1


@dataclass(frozen=True)
class ExplicitPrefixReal(RealSpec):
    """A real known only on a finite prefix; queries beyond it are errors."""

    bits: str

    def __post_init__(self):
        if not set(self.bits) <= {"0", "1"}:
            raise ValueError("bits must be a string over {0,1}")

    @property
    def hard_length(self) -> int:
        return len(self.bits)

    def bit(self, n: int) -> int:
        if n < 0:
            raise UndefinedInputError("bit index must be >= 0")
        if n >= len(self.bits):
            raise OutOfRangeError(
                "query at %d beyond hard length %d" % (n, len(self.bits))
            )
        return int(self.bits[n])


@dataclass(frozen=True)
class EventuallyPeriodicReal(RealSpec):
    """preamble bits followed by an infinitely repeated nonempty period."""

    preamble: str
    period: str

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        if not set(self.preamble) <= {"0", "1"} or not set(self.period) <= {"0", "1"}:
            raise ValueError("bits must be strings over {0,1}")

    def bit(self, n: int) -> int:
        if n < 0:
            raise UndefinedInputError("bit index must be >= 0")
        if n < len(self.preamble):
            return int(self.preamble[n])
        return int(self.period[(n - len(self.preamble)) % len(self.period)])


@dataclass(frozen=True)
class SeededReal(RealSpec):
    """Pseudorandom real driven by the pinned 64-bit mixing function."""

    seed: int

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")

    def bit(self, n: int) -> int:
        if n < 0:
            raise UndefinedInputError("bit index must be >= 0")
        return seeded_bit(self.seed, n)


def all_zeros() -> EventuallyPeriodicReal:
    return EventuallyPeriodicReal("", "0")


def all_ones() -> EventuallyPeriodicReal:
    return EventuallyPeriodicReal("", "1")


@dataclass(frozen=True)
class BitPrefix:
    """A finite binary sequence; indexable at 0..len-1."""

    bits: str

    def __post_init__(self):
        if not set(self.bits) <= {"0", "1"}:
            raise ValueError("bits must be a string over {0,1}")

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return int(self.bits[i])

    def is_prefix_of(self, other: "BitPrefix | str") -> bool:
        o = other.bits if isinstance(other, BitPrefix) else other
        return o.startswith(self.bits)

    def extend(self, more: str) -> "BitPrefix":
        return BitPrefix(self.bits + more)


def as_bits(x) -> str:
    """Coerce BitPrefix | str to the underlying bit string."""
    return x.bits if isinstance(x, BitPrefix) else x


class GenericDescription:
    """A partial bit assignment n -> {0,1}, at most one bit per index.

    May be explicit (finite set of pairs) or lazily generated from a
    domain predicate plus a source real; either way "is n assigned, and
    to what" is decidable below any horizon.  When a source is attached
    at construction the description carries no false information about
    it (explicit pairs are checked eagerly).
    """

    def __init__(self, lookup: Callable[[int], Optional[int]],
                 domain_below: Callable[[int], list],
                 source: Optional[RealSpec] = None):
        self._lookup = lookup
        self._domain_below = domain_below
        self.source = source

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple], source: Optional[RealSpec] = None) -> "GenericDescription":
        table = {}
        for n, x in pairs:
            if x not in (0, 1):
                raise ValueError("assigned bit must be 0 or 1")
            if n in table and table[n] != x:
                raise CorruptDescriptionError(
                    "index %d assigned both bits" % n
                )
            table[n] = x
        if source is not None:
            for n, x in table.items():
                if source.bit(n) != x:
                    raise FalsifiedPremiseError(
                        "pair (%d,%d) contradicts the attached source" % (n, x)
                    )
        return cls(
            lookup=table.get,
            domain_below=lambda horizon: [n for n in sorted(table) if n < horizon],
            source=source,
        )

    @classmethod
    def from_domain(cls, domain: Callable[[int], bool], source: RealSpec,
                    start: int = 0) -> "GenericDescription":
        """Lazily generated truthful description: assigned exactly on the
        predicate's domain (restricted to n >= start), values read from
        the source."""

        def lookup(n):
            if n >= start and domain(n):
                return source.bit(n)
            return None

        def domain_below(horizon):
            return [n for n in range(start, horizon) if domain(n)]

        return cls(lookup, domain_below, source)

    @classmethod
    def full(cls, source: RealSpec, start: int = 0) -> "GenericDescription":
        return cls.from_domain(lambda n: True, source, start=start)

    def lookup(self, n: int) -> Optional[int]:
        return self._lookup(n)

    def domain_below(self, horizon: int) -> list:
        return self._domain_below(horizon)


@dataclass(frozen=True)
class DescriptionReport:
    truthful: bool
    domain_prefix_density: Fraction


def validate_description(d: GenericDescription, source: RealSpec, horizon: int) -> DescriptionReport:
    """Exact truthfulness and domain density of `d` below `horizon`.

    Truthful iff every assignment with n < horizon matches the source;
    density is the exact rational |assigned below horizon| / horizon.
    """
    if horizon < 1:
        raise UndefinedInputError("horizon must be >= 1")
    assigned = 0
    truthful = True
    for n in range(horizon):
        x = d.lookup(n)
        if x is None:
            continue
        assigned += 1
        if source.bit(n) != x:
            truthful = False
    return DescriptionReport(truthful, Fraction(assigned, horizon))


class TimeDependentDescription:
    """A set of triples (n, x, l): a description together with the stage
    label l at which each pair was made available."""

    def __init__(self, triples: Iterable[tuple]):
        seen = {}
        tset = set()
        for n, x, l in triples:
            if x not in (0, 1):
                raise ValueError("assigned bit must be 0 or 1")
            if l < 0:
                raise ValueError("stage label must be >= 0")
            if n in seen and seen[n] != x:
                raise CorruptDescriptionError(
                    "index %d labelled with both bits" % n
                )
            seen[n] = x
            tset.add((n, x, l))
        self.triples = frozenset(tset)

    def project(self, source: Optional[RealSpec] = None) -> GenericDescription:
        """Forget the stage labels; dedup is consistent by construction."""
        return GenericDescription.from_pairs(
            {(n, x) for (n, x, _) in self.triples}, source=source
        )


@dataclass(frozen=True)
class Enumerator:
    """A monotone stage-indexed enumeration given by a finite script.

    The script lists the elements first appearing at each stage; at(s)
    returns the cumulative set, so monotonicity holds by construction.
    """

    tag: int
    script: tuple  # ((stage, frozenset), ...) sorted by stage

    @classmethod
    def from_schedule(cls, tag: int, schedule: dict) -> "Enumerator":
        entries = []
        for stage in sorted(schedule):
            if stage < 0:
                raise ValueError("stages must be >= 0")
            entries.append((stage, frozenset(schedule[stage])))
        return cls(tag, tuple(entries))

    @classmethod
    def empty(cls, tag: int = 0) -> "Enumerator":
        return cls(tag, ())

    def at(self, s: int) -> frozenset:
        if s < 0:
            raise UndefinedInputError("stage must be >= 0")
        out = set()
        for stage, elems in self.script:
            if stage > s:
                break
            out |= elems
        return frozenset(out)

    def new_elements(self, e: int, stage: int, view) -> list:
        """Enumeration-source protocol used by the diagonalization engine:
        the elements first appearing at `stage`, as sorted runs (lo, hi).
        Scripted enumerators ignore the trace view."""
        new = self.at(stage) - self.at(stage - 1) if stage else self.at(0)
        return list(from_elements(new))
