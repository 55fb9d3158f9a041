import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.codings import two_adic_valuation
from gencomp.errors import CapacityError, InvariantViolationError, UndefinedInputError
from gencomp.harness import _embedding_jsonable
from gencomp.reals import SeededReal
from gencomp.relations import (
    ROOT,
    Embedding,
    FiniteReflexiveRelation,
    UElement,
    embed_relation,
    from_uid,
    pair_code,
    pair_decode,
    related,
    related_join_bit,
    relation_member_bit,
    stage_interval,
    stage_of_id,
    uid,
    universal_rel,
)


def random_reflexive(rng, max_size=8):
    size = rng.randint(1, max_size)
    return FiniteReflexiveRelation(
        [[a == b or rng.random() < 0.4 for b in range(size)] for a in range(size)]
    )


def test_stage_intervals():
    s0 = stage_interval(0)
    assert (s0.lo, s0.hi) == (0, 1)
    s1 = stage_interval(1)
    assert (s1.lo, s1.hi) == (1, 5)
    s2 = stage_interval(2)
    assert (s2.lo, s2.hi) == (5, 1029)
    s3 = stage_interval(3)
    assert s3.lo == 1029 and s3.size == 4**1029
    with pytest.raises(CapacityError):
        stage_interval(4)
    with pytest.raises(UndefinedInputError):
        stage_interval(-1)


def test_stage_of_id():
    assert stage_of_id(0) == 0
    assert stage_of_id(4) == 1
    assert stage_of_id(1028) == 2
    assert stage_of_id(10_000) == 3


def test_universal_rel_reflexive_and_isolated():
    assert universal_rel(0, 0)
    for k in (1, 17, 1029, 123456):
        assert universal_rel(k, k)
    # both were added at stage 1
    assert not universal_rel(1, 2)
    # stage-2 neighbours
    assert not universal_rel(5, 6)


def test_universal_rel_digit_semantics():
    # stage-1 element 1 + c realizes digit c against element 0:
    # low bit old->new, high bit new->old
    assert not universal_rel(0, 1) and not universal_rel(1, 0)
    assert universal_rel(0, 2) and not universal_rel(2, 0)
    assert not universal_rel(0, 3) and universal_rel(3, 0)
    assert universal_rel(0, 4) and universal_rel(4, 0)


def test_extension_completeness_stages_1_2():
    for s in (1, 2):
        interval = stage_interval(s)
        prior = interval.lo
        seen = set()
        for new in range(interval.lo, interval.hi):
            vec = 0
            for old in range(prior):
                digit = (1 if universal_rel(old, new) else 0) | (
                    2 if universal_rel(new, old) else 0
                )
                vec |= digit << (2 * old)
            seen.add(vec)
        assert seen == set(range(4**prior))


def test_extension_completeness_stage_3_sampled():
    # the arithmetic bijection continues: sampled combo indices at stage 3
    # are realized by exactly the element start+index
    interval = stage_interval(3)
    rng = random.Random(5)
    for _ in range(30):
        c = rng.randrange(4**6)  # digits over the first few prior elements
        new = interval.lo + c
        for old in range(6):
            digit = (c >> (2 * old)) & 3
            assert universal_rel(old, new) == bool(digit & 1)
            assert universal_rel(new, old) == bool(digit & 2)


def test_uid_roundtrip():
    for i in (0, 1, 4, 5, 777, 1028, 1029, 5000):
        assert uid(from_uid(i)) == i
    assert from_uid(0) == ROOT


def test_symbolic_related_matches_ids():
    rng = random.Random(11)
    ids = [rng.randrange(0, 5000) for _ in range(40)]
    for i in ids:
        for j in ids:
            assert related(from_uid(i), from_uid(j)) == universal_rel(i, j)


def test_embed_one_point():
    emb = embed_relation(FiniteReflexiveRelation([[True]]))
    assert emb.images[0] == ROOT
    assert uid(emb.images[0]) == 0


def test_embed_two_points_directed_edge():
    # a0 -> a1 only (plus loops): the image of a1 is the unique stage-1
    # element with old->new set and new->old clear, which is id 2 under
    # the canonical combo ordering
    r = FiniteReflexiveRelation.from_pairs(2, [(0, 1)])
    emb = embed_relation(r)
    assert emb.verify()
    assert uid(emb.images[1]) == 2
    images = emb.images
    assert related(images[0], images[1]) and not related(images[1], images[0])


def test_embed_random_digraphs_exact():
    rng = random.Random(2026)
    for _ in range(60):
        r = random_reflexive(rng)
        emb = embed_relation(r)
        assert emb.verify()
        # images drawn stagewise
        for k, el in enumerate(emb.images):
            assert el.stage == k


def test_embedding_reflection_detects_mismatch():
    r = FiniteReflexiveRelation.from_pairs(2, [(0, 1)])
    wrong = Embedding(r, (ROOT, from_uid(1)))  # id 1 relates to 0 neither way
    assert not wrong.verify()


def test_rejects_irreflexive():
    with pytest.raises(ValueError):
        FiniteReflexiveRelation([[True, False], [False, False]])


def test_uelement_validation():
    with pytest.raises(ValueError):
        UElement(1, ((ROOT, 0),))  # zero digits are omitted, not stored
    with pytest.raises(ValueError):
        UElement(0, ((ROOT, 1),))  # priors must come from earlier stages
    deep = embed_relation(
        FiniteReflexiveRelation([[True] * 6 for _ in range(6)])
    ).images[5]
    with pytest.raises(CapacityError):
        uid(deep)  # digit positions beyond the representable id range


# --- cached hash and sort key against recursion over the unfolded tree ------


def ref_key(x):
    """The canonical sort key by recursion, the combo sorted here."""
    return (x.stage, tuple(sorted((ref_key(p), d) for p, d in x.combo)))


class RefHash:
    """Hashes as hash((stage, combo)) does, every prior hashed by recursion
    rather than read from its cached value."""

    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def __hash__(self):
        combo = sorted(self.x.combo, key=lambda pd: ref_key(pd[0]))
        return hash((self.x.stage, tuple((RefHash(p), d) for p, d in combo)))


@st.composite
def element_dags(draw):
    """Specs (stage, [(earlier index, digit), ...]) of up to 10 elements,
    each over distinct earlier elements of lower stage."""
    specs, keys = [], []
    for i in range(draw(st.integers(1, 10))):
        picks = draw(st.lists(st.tuples(st.integers(0, max(i - 1, 0)), st.integers(1, 3)),
                              max_size=4 if i else 0))
        chosen = {}
        for j, d in picks:
            chosen.setdefault(keys[j], (j, d))  # one pick per distinct element
        combo = list(chosen.values())
        stage = max((specs[j][0] for j, _ in combo), default=-1) + 1 + draw(st.integers(0, 2))
        specs.append((stage, combo))
        keys.append((stage, tuple(sorted((keys[j], d) for j, d in combo))))
    return specs


def build(specs, draw):
    elems = []
    for stage, combo in specs:
        shuffled = draw(st.permutations(combo))
        elems.append(UElement(stage, tuple((elems[j], d) for j, d in shuffled)))
    return elems


@settings(max_examples=150, deadline=None)
@given(element_dags(), st.data())
def test_cached_hash_and_key_match_recursion(specs, data):
    elems = build(specs, data.draw)
    again = build(specs, data.draw)  # the same DAG, combos in other orders
    for x, y in zip(elems, again):
        assert x.key == ref_key(x) == y.key
        assert hash(x) == hash(RefHash(x)) == hash(y)
        assert x == y
        assert x.combo == y.combo
    for x in elems:
        for y in again:
            assert (x == y) == (ref_key(x) == ref_key(y))
            if x == y:
                assert hash(x) == hash(y)


def test_complete_digraph_log_entry_is_quadratic():
    # 16 points, every pair related both ways: image k carries digit 3
    # against each earlier image, k digits, 16 * 15 / 2 in all
    entry = _embedding_jsonable(embed_relation(FiniteReflexiveRelation([[True] * 16] * 16)))
    assert entry["digraph"] == ["1" * 16] * 16
    assert entry["images"] == ["3" * k for k in range(16)]
    assert sum(len(image) for image in entry["images"]) == 120


def test_image_digits_refuse_what_they_cannot_write():
    r = FiniteReflexiveRelation.from_pairs(3, [(0, 1)])
    one = UElement(1, ((ROOT, 1),))
    assert _embedding_jsonable(Embedding(r, (ROOT, one, UElement(2, ((one, 2),)))))["images"] == [
        "", "1", "02"
    ]
    stray = UElement(1, ((ROOT, 2),))  # a stage-1 element that is not image 1
    for images in ((ROOT, UElement(2, ())), (ROOT, one, UElement(2, ((stray, 3),)))):
        with pytest.raises(InvariantViolationError):
            _embedding_jsonable(Embedding(r, images))


def test_pairing_vectors():
    vectors = [((0, 0), 0), ((1, 0), 1), ((0, 1), 2), ((2, 0), 3), ((1, 1), 4), ((0, 2), 5)]
    for (m, j), k in vectors:
        assert pair_code(m, j) == k
        assert pair_decode(k) == (m, j)
    for k in range(200):
        m, j = pair_decode(k)
        assert pair_code(m, j) == k


def test_member_bit_routes_by_index():
    rel = FiniteReflexiveRelation.from_pairs(3, [(0, 1)])
    reals = [SeededReal(s) for s in (10, 11, 12)]
    # off the powers of two: valuation coding of the member's own column
    assert relation_member_bit(rel, reals, 0, 12) == reals[0].bit(2)
    assert relation_member_bit(rel, reals, 2, 5) == reals[2].bit(0)
    # on the powers of two: the related-columns join
    k = pair_code(4, 1)
    assert relation_member_bit(rel, reals, 0, 1 << k) == reals[1].bit(4)


def test_member_bit_identity_relation_blocks_other_columns():
    rel = FiniteReflexiveRelation.from_pairs(3, [])
    reals = [SeededReal(s) for s in (20, 21, 22)]
    for k in range(65):
        m, j = pair_decode(k)
        expected = reals[0].bit(m) if (j == 0 and rel.rel(0, j)) else 0
        if j != 0:
            assert related_join_bit(rel, reals, 0, k) == 0
        assert relation_member_bit(rel, reals, 0, 1 << k) == expected


def test_join_recovers_related_column_bits():
    # every bit of every related column is recoverable from the sparse part
    # by decoding the power-of-two index, for all m, j <= 5
    size = 6
    rel = FiniteReflexiveRelation.from_pairs(
        size, [(0, j) for j in range(size)] + [(2, 4)]
    )
    reals = [SeededReal(30 + j) for j in range(size)]
    for m in range(6):
        for j in range(6):
            k = pair_code(m, j)
            assert related_join_bit(rel, reals, 0, k) == reals[j].bit(m)
            assert relation_member_bit(rel, reals, 0, 1 << k) == reals[j].bit(m)
            expected_2 = reals[j].bit(m) if rel.rel(2, j) else 0
            assert related_join_bit(rel, reals, 2, k) == expected_2


def test_member_bit_valuation_part_matches_column():
    rel = FiniteReflexiveRelation.from_pairs(2, [(0, 1)])
    reals = [SeededReal(40), SeededReal(41)]
    for n in range(1, 200):
        if n & (n - 1):
            assert relation_member_bit(rel, reals, 1, n) == reals[1].bit(
                two_adic_valuation(n)
            )


def test_universal_rel_stage_boundaries_and_errors():
    # universal_rel reads both stages off the ids itself; across every
    # stage boundary it must agree with stage_of_id and keep its errors
    for i, j in ((-1, 0), (0, -1), (-3, -3), (7, -2)):
        with pytest.raises(UndefinedInputError):
            universal_rel(i, j)
    ids = (0, 1, 4, 5, 1028, 1029, 1030)
    for i in ids:
        for j in ids:
            assert universal_rel(i, j) == related(from_uid(i), from_uid(j))
    b4 = stage_interval(3).hi  # the first stage-4 id
    assert stage_of_id(b4 - 1) == 3 and stage_of_id(b4) == 4
    new = b4 + (2 << (2 * 1029))  # relates stage-4 newcomer -> element 1029
    assert universal_rel(new, 1029) and not universal_rel(1029, new)
    assert not universal_rel(b4, 1029) and not universal_rel(new, b4)
    with pytest.raises(CapacityError):
        universal_rel(b4 - 1, b4)  # a stage-3 id far beyond shift range
