import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.density import (
    block_of,
    gap_census,
    gap_density_upper,
    gap_interval,
    prefix_density,
)
from gencomp.errors import InsufficientDataError, MalformedGapError, UndefinedInputError
from gencomp.reals import SeededReal
from gencomp.runs import elements, from_elements


def present(member, i_max):
    """The run set of the naturals below 2^i_max that satisfy `member`:
    the form in which a census takes a set."""
    return from_elements(n for n in range(1 << i_max) if member(n))


def census_oracle(member, i_max):
    """Independent recount: smallest e whose whole suffix is absent,
    found by scanning candidate suffixes directly."""
    out = []
    for i in range(i_max):
        blk = block_of(i)
        found = None
        for e in range(0, i + 1):
            suffix = range(blk.hi - 2 ** (i - e), blk.hi)
            if all(not member(n) for n in suffix):
                found = e
                break
        out.append((i, found))
    return out


def make_gap_only(rng, i_max=13):
    omitted = set()
    placed = {}
    for i in range(1, i_max):
        if rng.random() < 0.6:
            e = rng.randint(0, i)
            lo, hi = gap_interval(i, e)
            omitted.update(range(lo, hi))
            placed[i] = e
    return omitted, placed


def test_block_of_examples():
    assert (block_of(0).lo, block_of(0).hi) == (1, 2)
    assert (block_of(3).lo, block_of(3).hi) == (8, 16)
    b = block_of(10)
    assert b.lo == 1024 and b.size == 1024
    assert 1030 in b and 2048 not in b


def test_prefix_density_examples():
    assert prefix_density(lambda n: True, 17) == 1
    assert prefix_density(lambda n: n % 2 == 0, 10) == Fraction(5, 10)
    assert prefix_density(lambda n: n < 12, 16) == Fraction(12, 16)
    with pytest.raises(UndefinedInputError):
        prefix_density(lambda n: True, 0)


def test_gap_census_examples():
    member = lambda n: n not in {12, 13, 14, 15}
    census = gap_census(present(member, 4), 4)
    assert census.record(3) == 1
    assert all(census.record(i) is None for i in range(3))
    assert gap_census(present(lambda n: True, 6), 6).gaps() == []
    # whole block missing: the maximal suffix is the block itself
    p4 = set(range(16, 32))
    census = gap_census(present(lambda n: n not in p4, 5), 5)
    assert census.record(4) == 0


def test_gap_census_matches_oracle_randomized():
    rng = random.Random(17)
    for _ in range(60):
        omitted, _ = make_gap_only(rng)
        member = lambda n: n not in omitted
        census = gap_census(present(member, 13), 13)
        assert list(census.records) == census_oracle(member, 13)
        assert census.gap_only


def test_gap_census_nesting_invariant():
    # a recorded (i, e) implies the presence of every smaller suffix gap
    rng = random.Random(41)
    for _ in range(40):
        omitted, _ = make_gap_only(rng)
        member = lambda n: n not in omitted
        census = gap_census(present(member, 13), 13)
        for i, e in census.gaps():
            blk = block_of(i)
            for e_prime in range(e, i + 1):
                suffix = range(blk.hi - 2 ** (i - e_prime), blk.hi)
                assert all(not member(n) for n in suffix)


def test_gap_census_oracle_on_arbitrary_omissions():
    rng = random.Random(3)
    for _ in range(40):
        omitted = set(rng.sample(range(1, 2**10), rng.randint(0, 200)))
        member = lambda n: n not in omitted
        census = gap_census(present(member, 10), 10)
        assert list(census.records) == census_oracle(member, 10)


def test_census_record_outside_its_blocks():
    census = gap_census(present(lambda n: n < 12, 4), 4)
    assert census.record(3) == 1
    for i in (-1, 4, 9):
        with pytest.raises(InsufficientDataError):
            census.record(i)


@st.composite
def census_cases(draw):
    """(i_max, run set): per block a suffix of any length (a power of two
    or not) and a few interior holes, element 0 in or out, and some
    absences past the horizon, which the census must ignore."""
    i_max = draw(st.integers(0, 10))
    top = 1 << i_max
    absent = set(draw(st.lists(st.integers(top, 2 * top), max_size=3)))
    if draw(st.booleans()):
        absent.add(0)
    for i in range(i_max):
        blk = block_of(i)
        suffix = draw(st.one_of(st.sampled_from([0] + [1 << k for k in range(i + 1)]),
                                st.integers(1, blk.size)))
        absent.update(range(blk.hi - suffix, blk.hi))
        absent.update(draw(st.lists(st.integers(blk.lo, blk.hi - 1), max_size=2)))
    return i_max, from_elements(n for n in range(2 * top + 1) if n not in absent)


@settings(max_examples=300, deadline=None)
@given(census_cases())
def test_run_census_matches_membership_scan(case):
    i_max, runs = case
    member = set(elements(runs)).__contains__
    census = gap_census(runs, i_max)
    assert list(census.records) == census_oracle(member, i_max)
    assert elements(census.omitted) == [n for n in range(1, 1 << i_max) if not member(n)]
    suffixes_only = member(0)
    for i in range(i_max):
        blk = block_of(i)
        holes = [n for n in range(blk.lo, blk.hi) if not member(n)]
        run = len(holes)
        if holes != list(range(blk.hi - run, blk.hi)) or run & (run - 1):
            suffixes_only = False
    assert census.gap_only == suffixes_only


def test_gap_density_upper_examples():
    assert gap_density_upper(3, 1) == Fraction(3, 4)
    assert gap_density_upper(5, 0) == Fraction(1, 2)
    assert gap_density_upper(4, 4) == Fraction(31, 32)
    with pytest.raises(MalformedGapError):
        gap_density_upper(2, 3)
    # the bound is met with equality by the pure single-gap set
    member = lambda n: n not in {12, 13, 14, 15}
    assert prefix_density(member, 16) == Fraction(12, 16) == gap_density_upper(3, 1)


def test_intersection_inequality_seeded():
    for seed in range(10):
        a, b = SeededReal(seed), SeededReal(seed + 1000)
        ca = cb = cab = 0
        for n in range(1, 1 << 10):
            ca += a.bit(n - 1)
            cb += b.bit(n - 1)
            cab += a.bit(n - 1) & b.bit(n - 1)
            assert cab >= ca + cb - n



def test_block_of_rejects_negative_index():
    with pytest.raises(UndefinedInputError):
        block_of(-1)


def test_blocks_partition_the_positive_naturals():
    blocks = [block_of(i) for i in range(10)]
    assert [b.size for b in blocks] == [1 << i for i in range(10)]
    assert all(a.hi == b.lo for a, b in zip(blocks, blocks[1:]))
    for n in range(1, 1 << 10):
        assert [b.i for b in blocks if n in b] == [n.bit_length() - 1]
    assert not any(0 in b for b in blocks)


def test_gap_interval_is_a_block_suffix():
    for i in range(9):
        blk = block_of(i)
        for e in range(i + 1):
            lo, hi = gap_interval(i, e)
            assert hi == blk.hi and lo in blk
            assert hi - lo == 1 << (i - e)
        for e in (-1, i + 1):
            with pytest.raises(MalformedGapError):
                gap_interval(i, e)


def test_gap_census_horizon_zero_and_negative():
    with pytest.raises(UndefinedInputError):
        gap_census(((0, 8),), -1)
    empty = gap_census((), 0)
    assert (empty.records, empty.omitted, empty.gap_only) == ((), (), False)
    # 0 lies in no block: a set that keeps it is gap-only on no blocks at all
    assert gap_census(((0, 1),), 0).gap_only is True


def test_gap_census_gaps_and_jsonable():
    omitted = set(range(*gap_interval(3, 1))) | set(range(*gap_interval(5, 0)))
    census = gap_census(present(lambda n: n not in omitted, 7), 7)
    assert census.gaps() == [(3, 1), (5, 0)]
    assert [census.record(i) for i in range(7)] == [None, None, None, 1, None, 0, None]
    assert census.gap_only
    assert census.to_jsonable() == {
        "i_max": 7,
        "records": [[i, census.record(i)] for i in range(7)],
        "omitted": [[12, 16], [32, 64]],
        "gap_only": True,
    }


def test_single_gap_sets_meet_their_density_bound():
    # the set missing exactly one gap has the census record of that gap
    # and prefix density at the block end equal to gap_density_upper
    for i in range(1, 8):
        for e in range(i + 1):
            lo, hi = gap_interval(i, e)
            member = lambda n: not lo <= n < hi
            census = gap_census(present(member, i + 1), i + 1)
            assert census.gaps() == [(i, e)] and census.gap_only
            assert prefix_density(member, 1 << (i + 1)) == gap_density_upper(i, e)
