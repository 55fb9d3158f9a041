import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.density import (
    gap_census,
    gap_density_upper,
    gap_interval,
    prefix_density,
)
from gencomp.errors import UndefinedInputError
from gencomp.reals import SeededReal
from gencomp.runs import difference, from_elements, normalize
from oracles import elements


def present(member, i_max):
    """The run set of the naturals below 2^i_max that satisfy `member`:
    the form in which a census takes a set."""
    return from_elements(n for n in range(1 << i_max) if member(n))


def gaps(census):
    """The recorded (i, e) pairs, skipping gapless blocks."""
    return [(i, e) for i, e in census.records if e is not None]


def census_oracle(member, i_max):
    """Independent recount: smallest e whose whole suffix is absent,
    found by scanning candidate suffixes directly."""
    out = []
    for i in range(i_max):
        hi = 2 << i
        found = None
        for e in range(0, i + 1):
            suffix = range(hi - 2 ** (i - e), hi)
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


def test_prefix_density_examples():
    assert prefix_density(lambda n: True, 17) == 1
    assert prefix_density(lambda n: n % 2 == 0, 10) == Fraction(5, 10)
    assert prefix_density(lambda n: n < 12, 16) == Fraction(12, 16)
    with pytest.raises(UndefinedInputError):
        prefix_density(lambda n: True, 0)


def test_gap_census_examples():
    member = lambda n: n not in {12, 13, 14, 15}
    census = gap_census(present(member, 4), 4)
    assert census.records[3] == (3, 1)
    assert all(e is None for _, e in census.records[:3])
    assert gaps(gap_census(present(lambda n: True, 6), 6)) == []
    # whole block missing: the maximal suffix is the block itself
    p4 = set(range(16, 32))
    census = gap_census(present(lambda n: n not in p4, 5), 5)
    assert census.records[4] == (4, 0)


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
        for i, e in gaps(census):
            hi = 2 << i
            for e_prime in range(e, i + 1):
                suffix = range(hi - 2 ** (i - e_prime), hi)
                assert all(not member(n) for n in suffix)


def test_gap_census_oracle_on_arbitrary_omissions():
    rng = random.Random(3)
    for _ in range(40):
        omitted = set(rng.sample(range(1, 2**10), rng.randint(0, 200)))
        member = lambda n: n not in omitted
        census = gap_census(present(member, 10), 10)
        assert list(census.records) == census_oracle(member, 10)


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
        lo, hi = 1 << i, 2 << i
        suffix = draw(st.one_of(st.sampled_from([0] + [1 << k for k in range(i + 1)]),
                                st.integers(1, hi - lo)))
        absent.update(range(hi - suffix, hi))
        absent.update(draw(st.lists(st.integers(lo, hi - 1), max_size=2)))
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
        lo, hi = 1 << i, 2 << i
        holes = [n for n in range(lo, hi) if not member(n)]
        run = len(holes)
        if holes != list(range(hi - run, hi)) or run & (run - 1):
            suffixes_only = False
    assert census.gap_only == suffixes_only


def test_gap_density_upper_examples():
    assert gap_density_upper(3, 1) == Fraction(3, 4)
    assert gap_density_upper(5, 0) == Fraction(1, 2)
    assert gap_density_upper(4, 4) == Fraction(31, 32)
    with pytest.raises(UndefinedInputError, match="^gap exponent 3 invalid for block 2$"):
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


def test_blocks_partition_the_positive_naturals():
    # a block is its whole-block gap, gap_interval(i, 0)
    blocks = [range(*gap_interval(i, 0)) for i in range(10)]
    assert [len(b) for b in blocks] == [1 << i for i in range(10)]
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    for n in range(1, 1 << 10):
        assert [i for i, b in enumerate(blocks) if n in b] == [n.bit_length() - 1]
    assert not any(0 in b for b in blocks)


def test_gap_interval_is_a_block_suffix():
    for i in range(9):
        for e in range(i + 1):
            lo, hi = gap_interval(i, e)
            assert hi == 2 << i and lo in range(1 << i, 2 << i)
            assert hi - lo == 1 << (i - e)
        for e in (-1, i + 1):
            with pytest.raises(UndefinedInputError, match="^gap exponent %d invalid for block %d$" % (e, i)):
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
    assert gaps(census) == [(3, 1), (5, 0)]
    assert [e for _, e in census.records] == [None, None, None, 1, None, 0, None]
    assert census.gap_only
    # a gap-only census writes no `omitted`: its records' gaps give it
    assert census.omitted == tuple(gap_interval(i, e) for i, e in gaps(census))
    assert census.to_jsonable() == {"records": [None, None, None, 1, None, 0, None], "gap_only": True}


def test_a_gap_only_census_omits_exactly_its_gaps():
    # every choice of one gap or none per block below 2^5, 0 kept: the
    # census writes no `omitted`, and the union of its records' gap
    # intervals, adjacent gaps merged, rebuilds it
    for choice in itertools.product(*[[None, *range(i + 1)] for i in range(5)]):
        gap_runs = normalize(gap_interval(i, e) for i, e in enumerate(choice) if e is not None)
        census = gap_census(difference(((0, 32),), gap_runs), 5)
        doc = census.to_jsonable()
        assert census.gap_only and census.omitted == gap_runs
        assert doc == {"records": list(choice), "gap_only": True}
    # all blocks wholly omitted: one run, as pair-silent's all-zeros census
    census = gap_census(((0, 2),), 20)
    assert census.gap_only and census.omitted == ((2, 1 << 20),)
    assert census.to_jsonable() == {"records": [None] + [0] * 19, "gap_only": True}


@pytest.mark.parametrize("runs, records, omitted", [
    (((0, 5), (6, 8)), [None, None, None], [[5, 6]]),  # an interior hole in block 2
    (((0, 5),), [None, None, 1], [[5, 8]]),  # a suffix of 3 in block 2, which holds the gap of 2
    (((1, 6),), [None, None, 1], [[6, 8]]),  # only gaps, but no 0
])
def test_a_census_that_is_not_gap_only_keeps_omitted(runs, records, omitted):
    census = gap_census(runs, 3)
    assert not census.gap_only
    assert census.omitted == tuple(map(tuple, omitted))
    assert census.to_jsonable() == {"records": records, "omitted": omitted, "gap_only": False}


def test_single_gap_sets_meet_their_density_bound():
    # the set missing exactly one gap has the census record of that gap
    # and prefix density at the block end equal to gap_density_upper
    for i in range(1, 8):
        for e in range(i + 1):
            lo, hi = gap_interval(i, e)
            member = lambda n: not lo <= n < hi
            census = gap_census(present(member, i + 1), i + 1)
            assert gaps(census) == [(i, e)] and census.gap_only
            assert prefix_density(member, 1 << (i + 1)) == gap_density_upper(i, e)
