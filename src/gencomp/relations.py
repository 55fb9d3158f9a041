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

from .errors import CapacityError, UndefinedInputError
from .records import Frozen

# starts[s] = id of the first element added at stage s; starts[4] is the
# largest boundary whose value is representable at all
_STARTS = [0, 1, 5, 1029, 1029 + (1 << 2058)]  # 4^1029 == 2^2058


class StageInterval(Frozen):
    __slots__ = ("stage", "lo", "hi")

    def __init__(self, stage: int, lo: int, hi: int):
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def stage_interval(s: int) -> StageInterval:
    """Ids added at stage s; raises CapacityError once the interval size
    exceeds the configured bit budget (stages beyond 3)."""
    if s < 0:
        raise UndefinedInputError("stage must be >= 0")
    if s + 1 >= len(_STARTS):
        raise CapacityError("stage %d interval exceeds the id bit budget" % s)
    return StageInterval(s, _STARTS[s], _STARTS[s + 1])


_B4 = _STARTS[4]


def universal_rel(i: int, j: int) -> bool:
    """Adjacency by (stage, combo index) arithmetic; works for large ids."""
    if i < 0 or j < 0:
        raise UndefinedInputError("element ids are >= 0")
    # the stage of each id; any id we can hold in memory lies far below the
    # stage-5 boundary
    si = (0 if i < 1 else 1 if i < 5 else 2) if i < 1029 else (3 if i < _B4 else 4)
    sj = (0 if j < 1 else 1 if j < 5 else 2) if j < 1029 else (3 if j < _B4 else 4)
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


class UElement(Frozen):
    """An element of the universal relation: its stage plus the sparse map
    of nonzero digits over prior elements.  Stage-0 has an empty combo.
    `digits` is the same map as a dict, prior -> digit.  Elements are equal,
    and hash alike, when their stage and combo are.

    An element and its priors form a DAG whose unfolded tree can be
    exponentially large, so the hash, `hash((stage, combo))`, and the
    canonical sort key, `(stage, ((prior key, digit), ...))`, are computed
    once here from the priors' cached values."""

    __slots__ = ("stage", "combo", "digits", "key", "_hash")

    def __init__(self, stage: int, combo: tuple):
        if stage < 0:
            raise UndefinedInputError("stage must be >= 0")
        seen = set()
        for prior, digit in combo:
            if digit not in (1, 2, 3):
                raise ValueError("sparse digits must be 1..3")
            if prior.stage >= stage:
                raise ValueError("combo priors must come from earlier stages")
            if prior in seen:
                raise ValueError("duplicate prior in combo")
            seen.add(prior)
        # ((UElement, digit), ...) canonically sorted, digits 1..3
        canon = tuple(sorted(combo, key=lambda pd: pd[0].key))
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "combo", canon)
        object.__setattr__(self, "digits", dict(canon))
        object.__setattr__(self, "key", (stage, tuple((p.key, d) for p, d in canon)))
        object.__setattr__(self, "_hash", hash((stage, canon)))

    def __eq__(self, other):
        if type(other) is not UElement:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.key == other.key)

    def __hash__(self):
        return self._hash


ROOT = UElement(0, ())


def related(x: UElement, y: UElement) -> bool:
    """Adjacency on symbolic handles; mirrors universal_rel on ids."""
    if x.stage == y.stage:
        return x == y
    old, new, asking_old_to_new = (x, y, True) if x.stage < y.stage else (y, x, False)
    digit = new.digits.get(old, 0)
    return bool(digit & 1) if asking_old_to_new else bool(digit & 2)


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

    def rel(self, a: int, b: int) -> bool:
        return self.adjacency[a][b]


class Embedding(Frozen):
    __slots__ = ("relation", "images")

    def __init__(self, relation: FiniteReflexiveRelation, images: tuple):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "images", images)  # UElement for point k drawn from stage k

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
    digits against the earlier images; exists by construction, and
    `Embedding.verify` checks it."""
    images = []
    for k in range(r.size):
        combo = []
        for j in range(k):
            digit = (1 if r.rel(j, k) else 0) | (2 if r.rel(k, j) else 0)
            if digit:
                combo.append((images[j], digit))
        images.append(UElement(k, tuple(combo)))
    return Embedding(r, tuple(images))

