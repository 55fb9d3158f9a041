"""Independent oracles, fixtures and entry points that only the tests use.

None of this is reached by a config, so it lives beside the tests rather
than in the package: a refactor of `src/` cannot change the oracle that
checks it.

- Oracles: `elements` expands a run set, `uid` / `from_uid` (with
  `stage_of_id`) bridge the symbolic elements of the universal relation and
  their integer ids, and `run_machine` replays a stage machine on one
  labelled ordering.
- Fixtures: reals given by a finite prefix or by a preamble and a period,
  a description given as explicit pairs, a relation given as an edge list,
  and the two errors only these fixtures raise.
- Entries: `run_pair` runs the pair-mode engine without a config.
"""

from __future__ import annotations

from gencomp.diagonal import PAIR, RunConfig, run_construction
from gencomp.errors import CapacityError, CorruptDescriptionError, GencompError, UndefinedInputError
from gencomp.reals import GenericDescription, RealSpec
from gencomp.records import Frozen
from gencomp.relations import _STARTS, FiniteReflexiveRelation, UElement

# ---------------------------------------------------------------------------
# oracles


def elements(runs) -> list:
    """Every element of a run set, ascending (small sets only)."""
    return [n for lo, hi in runs for n in range(lo, hi)]


# ids and combo arithmetic are capped at this many bits (~0.5 MB integers);
# that admits every stage-ids through stage 3 and the start of stage 4
_MAX_BITS = 1 << 22


def stage_of_id(i: int) -> int:
    if i < 0:
        raise UndefinedInputError("element ids are >= 0")
    if i < 1029:
        return 0 if i < 1 else (1 if i < 5 else 2)
    # any id we can hold in memory lies far below the stage-5 boundary
    return 3 if i < _STARTS[4] else 4


def uid(x: UElement) -> int:
    """Exact integer id of a symbolic element, when representable."""
    total = _STARTS[x.stage] if x.stage < len(_STARTS) else None
    if total is None:
        raise CapacityError("stage %d start is not representable" % x.stage)
    for prior, digit in x.combo:
        p = uid(prior)
        if 2 * p + 2 > _MAX_BITS:
            raise CapacityError("combo digit position exceeds the bit budget")
        total += digit << (2 * p)
    return total


def from_uid(i: int) -> UElement:
    """Symbolic handle for an integer id (stages with computable starts)."""
    s = stage_of_id(i)
    if s >= len(_STARTS) - 1:
        raise CapacityError("id %d is beyond the decodable stages" % i)
    combo = []
    c = i - _STARTS[s]
    while c:
        pos = ((c & -c).bit_length() - 1) // 2
        digit = (c >> (2 * pos)) & 3
        combo.append((from_uid(pos), digit))
        c &= ~(3 << (2 * pos))
    return UElement(s, tuple(combo))


def run_machine(phi, triples) -> frozenset:
    """A stage machine's cumulative emissions after consuming the
    triples in order."""
    state = phi.start
    out = set()
    for t in triples:
        state, emitted = phi.step(state, t)
        out.update(emitted)
    return frozenset(out)


# ---------------------------------------------------------------------------
# fixtures


class OutOfRangeError(GencompError):
    """Bit query beyond the hard length of an explicit-prefix real."""


class FalsifiedPremiseError(GencompError):
    """An explicit pair contradicts the source given with it."""


class ExplicitPrefixReal(RealSpec, Frozen):
    """A real known only on a finite prefix; queries beyond it are errors."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str):
        if not set(prefix) <= {"0", "1"}:
            raise ValueError("bits must be a string over {0,1}")
        object.__setattr__(self, "prefix", prefix)

    def bit(self, n: int) -> int:
        if n < 0:
            raise UndefinedInputError("bit index must be >= 0")
        if n >= len(self.prefix):
            raise OutOfRangeError(
                "query at %d beyond hard length %d" % (n, len(self.prefix))
            )
        return int(self.prefix[n])


class EventuallyPeriodicReal(RealSpec, Frozen):
    """preamble bits followed by an infinitely repeated nonempty period."""

    __slots__ = ("preamble", "period")

    def __init__(self, preamble: str, period: str):
        if not period:
            raise ValueError("period must be nonempty")
        if not set(preamble) <= {"0", "1"} or not set(period) <= {"0", "1"}:
            raise ValueError("bits must be strings over {0,1}")
        object.__setattr__(self, "preamble", preamble)
        object.__setattr__(self, "period", period)

    def bit(self, n: int) -> int:
        if n < 0:
            raise UndefinedInputError("bit index must be >= 0")
        if n < len(self.preamble):
            return int(self.preamble[n])
        return int(self.period[(n - len(self.preamble)) % len(self.period)])


def description_from_pairs(pairs, source=None) -> GenericDescription:
    """The description assigning exactly the (n, bit) pairs, checked once
    against `source` when one is given."""
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
        for (n, x), y in zip(table.items(), source.bits(list(table))):
            if x != y:
                raise FalsifiedPremiseError(
                    "pair (%d,%d) contradicts the attached source" % (n, x)
                )
    return GenericDescription(lambda ns: list(map(table.get, ns)))


def relation_from_pairs(size: int, pairs) -> FiniteReflexiveRelation:
    """The reflexive relation on {0, .., size-1} with the (a, b) edges."""
    table = [[a == b for b in range(size)] for a in range(size)]
    for a, b in pairs:
        table[a][b] = True
    return FiniteReflexiveRelation(table)


# ---------------------------------------------------------------------------
# entries


def run_pair(stages: int, strategies):
    """The pair-mode construction over `strategies`."""
    return run_construction(RunConfig(PAIR, stages, tuple(strategies)))
