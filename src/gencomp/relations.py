"""A recursive universal reflexive binary relation, built in stages.

Stage 0 has the single element 0, related to itself.  If n elements exist
after a stage, the next stage adds 4^n new elements, one for every way of
relating a single new element to the old ones (for each old element a,
two independent bits: a->new and new->a).  New elements are related to
themselves and never to each other.  Every finite reflexive relation then
embeds by sending its k-th point to a suitable element of stage k.

Element ids grow doubly exponentially, so adjacency is answered by
arithmetic on (stage, combo index) rather than by materialized tables,
and elements beyond the representable id range are handled symbolically
as a stage plus a sparse digit map over the prior elements they relate
to.  The canonical combo ordering: a new element's index is the integer
whose base-4 digits, least significant first, give the (old->new,
new->old) bit pair for old elements in increasing id order, with
old->new the low bit of each digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable

from .codings import two_adic_valuation
from .errors import CapacityError, ExcludedIndexError, UndefinedInputError

# ids and combo arithmetic are capped at this many bits (~0.5 MB integers);
# that admits every stage-ids through stage 3 and the start of stage 4
_MAX_BITS = 1 << 22

# starts[s] = id of the first element added at stage s; starts[4] is the
# largest boundary whose value is representable at all
_STARTS = [0, 1, 5, 1029, 1029 + (1 << 2058)]  # 4^1029 == 2^2058


@dataclass(frozen=True)
class StageInterval:
    stage: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo


def stage_interval(s: int) -> StageInterval:
    """Ids added at stage s; raises CapacityError once the interval size
    exceeds the configured bit budget (stages beyond 3)."""
    if s < 0:
        raise UndefinedInputError("stage must be >= 0")
    if s + 1 >= len(_STARTS):
        raise CapacityError("stage %d interval exceeds the id bit budget" % s)
    return StageInterval(s, _STARTS[s], _STARTS[s + 1])


_B4 = _STARTS[4]


def stage_of_id(i: int) -> int:
    if i < 0:
        raise UndefinedInputError("element ids are >= 0")
    if i < 1029:
        return 0 if i < 1 else (1 if i < 5 else 2)
    # any id we can hold in memory lies far below the stage-5 boundary
    return 3 if i < _B4 else 4


def universal_rel(i: int, j: int) -> bool:
    """Adjacency by (stage, combo index) arithmetic; works for large ids."""
    si, sj = stage_of_id(i), stage_of_id(j)
    if si == sj:
        return i == j
    if si < sj:
        old, new, new_stage, asking_old_to_new = i, j, sj, True
    else:
        old, new, new_stage, asking_old_to_new = j, i, si, False
    if old.bit_length() > 62:
        raise CapacityError("digit position for id %d is beyond shift range" % old)
    digit = ((new - _STARTS[new_stage]) >> (2 * old)) & 3
    return bool(digit & 1) if asking_old_to_new else bool(digit & 2)


@dataclass(frozen=True)
class UElement:
    """An element of the universal relation: its stage plus the sparse map
    of nonzero digits over prior elements.  Stage-0 has an empty combo."""

    stage: int
    combo: tuple  # ((UElement, digit), ...) canonically sorted, digits 1..3

    def __post_init__(self):
        if self.stage < 0:
            raise UndefinedInputError("stage must be >= 0")
        seen = set()
        for prior, digit in self.combo:
            if digit not in (1, 2, 3):
                raise ValueError("sparse digits must be 1..3")
            if prior.stage >= self.stage:
                raise ValueError("combo priors must come from earlier stages")
            if prior in seen:
                raise ValueError("duplicate prior in combo")
            seen.add(prior)
        canon = tuple(sorted(self.combo, key=lambda pd: _element_key(pd[0])))
        object.__setattr__(self, "combo", canon)


def _element_key(x: UElement):
    return (x.stage, tuple((_element_key(p), d) for p, d in x.combo))


ROOT = UElement(0, ())


def element(stage: int, combo: Iterable = ()) -> UElement:
    return UElement(stage, tuple(combo))


def related(x: UElement, y: UElement) -> bool:
    """Adjacency on symbolic handles; mirrors universal_rel on ids."""
    if x == y:
        return True
    if x.stage == y.stage:
        return False
    old, new, asking_old_to_new = (x, y, True) if x.stage < y.stage else (y, x, False)
    digit = dict(new.combo).get(old, 0)
    return bool(digit & 1) if asking_old_to_new else bool(digit & 2)


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


class FiniteReflexiveRelation:
    """A reflexive binary relation on {0, .., size-1} as an adjacency table."""

    def __init__(self, adjacency):
        table = tuple(tuple(bool(v) for v in row) for row in adjacency)
        k = len(table)
        if any(len(row) != k for row in table):
            raise ValueError("adjacency must be a square table")
        if any(not table[a][a] for a in range(k)):
            raise ValueError("relation must be reflexive")
        self.size = k
        self.adjacency = table

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple]) -> "FiniteReflexiveRelation":
        table = [[a == b for b in range(size)] for a in range(size)]
        for a, b in pairs:
            table[a][b] = True
        return cls(table)

    def rel(self, a: int, b: int) -> bool:
        return self.adjacency[a][b]


@dataclass(frozen=True)
class Embedding:
    relation: FiniteReflexiveRelation
    images: tuple  # UElement for point k drawn from stage k

    def verify(self) -> bool:
        """Exact preservation and reflection on all pairs."""
        r = self.relation
        for a in range(r.size):
            for b in range(r.size):
                if r.rel(a, b) != related(self.images[a], self.images[b]):
                    return False
        return True


def embed_relation(r: FiniteReflexiveRelation) -> Embedding:
    """Map point k to the stage-k element realizing exactly the required
    digits against the earlier images; exists by construction."""
    images = []
    for k in range(r.size):
        combo = []
        for j in range(k):
            digit = (1 if r.rel(j, k) else 0) | (2 if r.rel(k, j) else 0)
            if digit:
                combo.append((images[j], digit))
        images.append(UElement(k, tuple(combo)))
    emb = Embedding(r, tuple(images))
    if not emb.verify():
        raise AssertionError("embedding failed to preserve the relation")
    return emb


def pair_code(m: int, j: int) -> int:
    """Diagonal (Cantor) pairing; pinned by test vectors."""
    if m < 0 or j < 0:
        raise UndefinedInputError("pairing is over naturals")
    return (m + j) * (m + j + 1) // 2 + j


def pair_decode(k: int) -> tuple:
    if k < 0:
        raise UndefinedInputError("pairing is over naturals")
    w = (isqrt(8 * k + 1) - 1) // 2
    j = k - w * (w + 1) // 2
    return (w - j, j)


def related_join_bit(rel: FiniteReflexiveRelation, reals, i: int, k: int) -> int:
    """Bit k of the join of the columns related to member i: 1 iff k codes
    (m, j) with rel(i, j) and source column j has bit m set."""
    if k < 0:
        raise UndefinedInputError("bit index must be >= 0")
    m, j = pair_decode(k)
    if j < rel.size and rel.rel(i, j):
        return reals[j].bit(m)
    return 0


def relation_member_bit(rel: FiniteReflexiveRelation, reals, i: int, n: int) -> int:
    """Bit n of the real standing for member i: the asymmetric join of
    column i with the join of its related columns (join coded on the
    powers of two, valuation coding of column i elsewhere)."""
    if i < 0 or i >= rel.size:
        raise UndefinedInputError("member index out of range")
    if len(reals) != rel.size:
        raise UndefinedInputError("one source column per relation member required")
    if n < 1:
        raise ExcludedIndexError("member reals start at n=1")
    if n & (n - 1) == 0:
        return related_join_bit(rel, reals, i, n.bit_length() - 1)
    return reals[i].bit(two_adic_valuation(n))
