import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.density import (
    block_of,
    density_profile,
    density_threshold,
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


def test_density_threshold_single_gap():
    member = lambda n: n not in {12, 13, 14, 15}
    census = gap_census(present(member, 13), 13)
    # e=1 bound is 1 - 2^0 = 0: satisfied from the start
    assert density_threshold(census, 1, 64) == 1
    assert prefix_density(member, 16) >= 1 - Fraction(2, 2)
    # scan oracle for a bound that actually bites: e=3 needs density >= 3/4
    got = density_threshold(census, 3, 64)
    bound = 1 - Fraction(2, 8)
    fails = [n for n in range(1, 65) if prefix_density(member, n) < bound]
    assert got == max(fails) + 1 if fails else 1
    assert all(prefix_density(member, n) >= bound for n in range(got, 65))


def test_density_threshold_no_gaps():
    census = gap_census(present(lambda n: True, 11), 11)
    assert density_threshold(census, 4, 1024) == 1


def test_density_threshold_everywhere_gapped():
    # a size-2^-1 gap at every block: the recurring block-end densities sit
    # just above 1/2, so the e=2 bound (1/2) stabilizes immediately while
    # the e=3 bound (3/4) keeps failing forever (frozen from the exact
    # scan; the bound is pinned as 1 - 2^(-e+1))
    omitted = set()
    for i in range(1, 13):
        lo, hi = gap_interval(i, 1)
        omitted.update(range(lo, hi))
    census = gap_census(present(lambda n: n not in omitted, 13), 13)
    assert density_threshold(census, 2, 1024) == 1
    assert density_threshold(census, 3, 1024) is None
    assert prefix_density(lambda n: n not in omitted, 1024) == Fraction(513, 1024)


def test_density_threshold_errors():
    census = gap_census(present(lambda n: True, 5), 5)
    with pytest.raises(InsufficientDataError):
        density_threshold(census, 2, 1 << 10)
    ragged = gap_census(present(lambda n: n != 9, 5), 5)  # interior hole, not a suffix
    assert not ragged.gap_only
    with pytest.raises(UndefinedInputError):
        density_threshold(ragged, 2, 16)


def test_threshold_soundness_randomized():
    rng = random.Random(23)
    for _ in range(30):
        omitted, _ = make_gap_only(rng)
        member = lambda n: n not in omitted
        census = gap_census(present(member, 13), 13)
        # running count: density[n] = |{k < n : member(k)}| / n, recounted
        # from `member` alone, independent of density_threshold
        count = 0
        density = [None]
        for n in range(1, 4097):
            count += member(n - 1)
            density.append(Fraction(count, n))
        assert density[4096] == prefix_density(member, 4096)
        for e in (2, 3, 4):
            n0 = density_threshold(census, e, 4096)
            bound = 1 - Fraction(2, 1 << e)
            if n0 is None:
                assert density[4096] < bound
            else:
                assert all(density[n] >= bound for n in range(n0, 4097))
                assert n0 == 1 or density[n0 - 1] < bound


def test_intersection_inequality_seeded():
    for seed in range(10):
        a, b = SeededReal(seed), SeededReal(seed + 1000)
        ca = cb = cab = 0
        for n in range(1, 1 << 10):
            ca += a.member(n - 1)
            cb += b.member(n - 1)
            cab += a.member(n - 1) and b.member(n - 1)
            assert cab >= ca + cb - n


def test_density_profile():
    prof = density_profile(lambda n: n % 2 == 0, [1, 2, 10, 16])
    assert prof.value(10) == Fraction(5, 10)
    assert prof.value(1) == 1
    assert prof.horizon == 16
    with pytest.raises(UndefinedInputError):
        density_profile(lambda n: True, [0, 4])
