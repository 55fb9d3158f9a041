from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.codings import (
    IntervalCoding,
    ValuationCoding,
    decode_interval,
    decode_valuation,
    encode_interval,
    floor_log2_below,
    two_adic_valuation,
)
from gencomp.errors import CorruptDescriptionError, ExcludedIndexError
from gencomp.reals import GenericDescription, SeededReal
from oracles import EventuallyPeriodicReal, description_from_pairs


def test_valuation_arithmetic():
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(5) == 0
    assert two_adic_valuation(8) == 3
    with pytest.raises(ExcludedIndexError):
        two_adic_valuation(0)


def test_encode_valuation_examples():
    x = SeededReal(5)
    coded = ValuationCoding(x)
    assert coded.bit(12) == x.bit(2)
    assert coded.bit(5) == x.bit(0)
    assert coded.bit(8) == x.bit(3)
    with pytest.raises(ExcludedIndexError):
        coded.bit(0)


def test_encode_interval_strict_offset():
    x = SeededReal(5)
    assert floor_log2_below(12) == 3
    assert encode_interval(x, 12) == x.bit(3)
    # strictly below: n = 2^m reads source bit m-1
    assert encode_interval(x, 8) == x.bit(2)
    assert encode_interval(x, 2) == x.bit(0)
    for n in (0, 1):
        with pytest.raises(ExcludedIndexError):
            encode_interval(x, n)


def test_decode_valuation_single_witness():
    d = description_from_pairs([(2, 1)])
    assert decode_valuation(d, 1, 16) == 1
    assert decode_valuation(description_from_pairs([]), 1, 16) is None


def test_decode_valuation_domain_missing_multiples_of_three():
    x = SeededReal(9)
    coded = ValuationCoding(x)
    d = GenericDescription.from_domain(lambda n: n % 3 != 0, coded, start=1)
    # witnesses for m=1 below 16 are {2, 6, 10, 14}; 6 is unassigned but the
    # rest agree on the source bit
    assert decode_valuation(d, 1, 16) == x.bit(1)


def test_decode_valuation_corruption_detected():
    d = description_from_pairs([(2, 1), (6, 0)])
    with pytest.raises(CorruptDescriptionError):
        decode_valuation(d, 1, 16)


def test_valuation_roundtrip_seeded():
    for seed in range(25):
        x = SeededReal(seed)
        d = GenericDescription.full(ValuationCoding(x), start=1)
        for m in range(13):
            assert decode_valuation(d, m, 1 << 13) == x.bit(m)


def test_decode_interval_examples():
    x = SeededReal(3)
    d = description_from_pairs([(12, x.bit(3))])
    assert decode_interval(d, 3, 16) == x.bit(3)
    # witness interval (2, 4] entirely unassigned
    d2 = description_from_pairs([(8, 1)])
    assert decode_interval(d2, 1, 16) is None
    with pytest.raises(CorruptDescriptionError):
        decode_interval(description_from_pairs([(9, 1), (10, 0)]), 3, 16)


def test_decode_interval_half_assigned_blocks():
    x = SeededReal(4)
    coded = IntervalCoding(x)
    # assign only the first half of each witness interval (2^m, 2^(m+1)]
    def first_half(n):
        m = floor_log2_below(n)
        return n <= (1 << m) + (1 << max(m - 1, 0))

    d = GenericDescription.from_domain(first_half, coded, start=2)
    for m in range(11):
        assert decode_interval(d, m, 1 << 12) == x.bit(m)


def test_interval_finite_loss_cofinite_domain():
    x = SeededReal(21)
    coded = IntervalCoding(x)
    omitted = {3, 4, 9, 1000}
    d = GenericDescription.from_domain(lambda n: n not in omitted, coded, start=2)
    for m in range(12):
        witnesses = set(range((1 << m) + 1, (1 << (m + 1)) + 1))
        got = decode_interval(d, m, 1 << 13)
        if witnesses <= omitted:
            assert got is None
        else:
            assert got == x.bit(m)
    # m=1 loses its whole witness interval {3, 4}
    assert decode_interval(d, 1, 1 << 13) is None


def test_robust_decoding_under_gap_deleted_domains():
    x = SeededReal(33)
    coded = ValuationCoding(x)
    bound = 1 << 12
    for m in range(9):
        e = m + 2
        gaps = set()
        for i in range(e, 12):
            hi = 1 << (i + 1)
            gaps |= set(range(hi - (1 << (i - e)), hi))
        d = GenericDescription.from_domain(lambda n: n not in gaps, coded, start=1)
        assert decode_valuation(d, m, bound) == x.bit(m)


def test_witness_class_density_exact():
    # indices whose valuation is m have density exactly 2^-(m+1) at every
    # power-of-two horizon
    for m in range(8):
        for k in range(m + 1, 14):
            count = sum(1 for n in range(1, 1 << k) if two_adic_valuation(n) == m)
            assert Fraction(count, 1 << k) == Fraction(1, 1 << (m + 1))


def test_powers_of_two_are_sparse():
    for k in range(1, 16):
        n = 1 << k
        powers = sum(1 for v in range(1, n) if v & (v - 1) == 0)
        assert Fraction(powers, n) <= Fraction(k + 1, n)


def test_coded_real_source_queries():
    # coded reals compose: a description of a coding of the all-zeros real
    d = GenericDescription.full(ValuationCoding(EventuallyPeriodicReal("", "0")), start=1)
    assert decode_valuation(d, 4, 64) == 0


# Bulk reads against per-index oracles: each coding's bit() called one n
# at a time, and an ordered per-witness scan over the pairs; no oracle
# calls bits() or values().

_SOURCES = st.one_of(
    st.integers(0, 2**64 - 1).map(SeededReal),
    st.tuples(st.text("01", max_size=5), st.text("01", min_size=1, max_size=5)).map(
        lambda pp: EventuallyPeriodicReal(*pp)
    ),
)


def _per_index(coding, ns):
    try:
        return [coding.bit(n) for n in ns]
    except ExcludedIndexError:
        return ExcludedIndexError


def _bulk(coding, ns):
    try:
        return coding.bits(ns)
    except ExcludedIndexError:
        return ExcludedIndexError


@given(_SOURCES, st.lists(st.integers(-2, 5000), max_size=80))
@settings(max_examples=300)
def test_coding_bits_match_per_index_encoding(x, ns):
    for coding in (ValuationCoding(x), IntervalCoding(x)):
        assert _bulk(coding, ns) == _per_index(coding, ns)
        assert _bulk(coding, tuple(ns)) == _per_index(coding, ns)
        assert _bulk(coding, range(2, 2 + len(ns))) == _per_index(coding, range(2, 2 + len(ns)))
        assert all(coding.bits([n]) == [coding.bit(n)] for n in ns if n >= 2)


def test_coding_bits_exclusions():
    x = SeededReal(3)
    for ns in ([0], [5, 0, 7], range(0, 4), [-1]):
        with pytest.raises(ExcludedIndexError, match="valuation undefined at"):
            ValuationCoding(x).bits(ns)
    for ns in ([1], [9, 1, 4], range(1, 4), [0, 2]):
        with pytest.raises(ExcludedIndexError, match="no power of two below"):
            IntervalCoding(x).bits(ns)
    assert ValuationCoding(x).bits([]) == IntervalCoding(x).bits(range(0)) == []
    assert ValuationCoding(x).bits([1]) == [x.bit(0)]
    assert IntervalCoding(x).bits([2]) == [x.bit(0)]


def _outcome(read, ns):
    """read(ns), or the message of the ExcludedIndexError it raises."""
    try:
        return read(ns)
    except ExcludedIndexError as exc:
        return ("excluded", str(exc))


_STEPS = st.one_of(
    st.integers(0, 12).map(lambda k: 1 << k),
    st.integers(0, 12).map(lambda k: -(1 << k)),
    st.integers(-40, 40).filter(bool),
)


@st.composite
def _ranges(draw):
    """Ranges of up to 60 indices: power-of-two, negative and other steps,
    starts below 1 and 2 and inside one interval (2^m, 2^(m+1)]."""
    start = draw(st.one_of(st.integers(-3, 3), st.integers(-3, 5000),
                           st.integers(1, 12).map(lambda m: (1 << m) + 1)))
    step = draw(_STEPS)
    return range(start, start + draw(st.one_of(st.integers(0, 3), st.integers(0, 60))) * step, step)


@given(_SOURCES, _ranges(), st.integers(0, 2))
@settings(max_examples=500)
def test_coding_bits_on_ranges_match_per_index_bits(x, ns, start):
    # whole witness ranges are answered from one source bit; any range gives
    # the per-index bits, or the first excluded index's error
    for coding in (ValuationCoding(x), IntervalCoding(x)):
        per_index = _outcome(lambda ns: [coding.bit(n) for n in ns], ns)
        assert _outcome(coding.bits, ns) == per_index
        d = GenericDescription.full(coding, start=start)
        expected = _outcome(lambda ns: [coding.bit(n) if n >= start else None for n in ns], ns)
        assert _outcome(d.values, ns) == expected


def test_constant_witness_ranges():
    x = SeededReal(11)
    witnesses = range(8, 1 << 20, 16)  # valuation 3 throughout
    assert ValuationCoding(x).bits(witnesses) == [x.bit(3)] * len(witnesses)
    assert IntervalCoding(x).bits(range(1024, 512, -3)) == [x.bit(9)] * 171
    # a power-of-two step with a start it divides leaves the witness class
    assert ValuationCoding(x).bits(range(16, 80, 16)) == [x.bit(v) for v in (4, 5, 4, 6)]
    with pytest.raises(ExcludedIndexError, match="valuation undefined at 0"):
        ValuationCoding(x).bits(range(8, -9, -8))
    # every short range around the excluded indices 0 and 1
    for coding in (ValuationCoding(x), IntervalCoding(x)):
        for start in range(-3, 9):
            for step in (1, -1, 2, -2, 3, 4, -4):
                for length in range(5):
                    ns = range(start, start + length * step, step)
                    assert _outcome(coding.bits, ns) == _outcome(lambda ns: [coding.bit(n) for n in ns], ns)


def _scan_decode(pairs, witnesses):
    """Ordered per-witness decoding: the value, or ("corrupt", first index
    whose bit disagrees with the earlier assigned witnesses)."""
    found = None
    for n in witnesses:
        x = next((b for m, b in pairs if m == n), None)
        if x is None:
            continue
        if found is None:
            found = x
        elif found != x:
            return ("corrupt", n)
    return found


@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(["valuation", "interval"]),
    st.integers(0, 7),
    st.integers(1, 600),
    st.frozensets(st.integers(1, 600), max_size=20),
    st.data(),
)
@settings(max_examples=400)
def test_doctored_decoding_matches_ordered_scan(seed, kind, m, bound, noise, data):
    x = SeededReal(seed)
    if kind == "valuation":
        coded, decode, excluded = ValuationCoding(x), decode_valuation, 1
        witnesses = [n for n in range(1, bound + 1) if two_adic_valuation(n) == m]
    else:
        coded, decode, excluded = IntervalCoding(x), decode_interval, 2
        witnesses = [n for n in range(2, bound + 1) if floor_log2_below(n) == m]
    # assignments on some witnesses and on arbitrary other indices; a few
    # of them are flipped, so the description lies about the coded real
    assigned = set(noise)
    if witnesses:
        assigned |= data.draw(st.sets(st.sampled_from(witnesses), max_size=12))
    assigned = sorted(n for n in assigned if n >= excluded)
    flipped = data.draw(st.sets(st.sampled_from(assigned), max_size=3)) if assigned else set()
    pairs = [(n, coded.bit(n) ^ (n in flipped)) for n in assigned]
    d = description_from_pairs(pairs)
    expected = _scan_decode(pairs, witnesses)
    if isinstance(expected, tuple):
        with pytest.raises(CorruptDescriptionError, match="disagree at index %d$" % expected[1]):
            decode(d, m, bound)
    else:
        assert decode(d, m, bound) == expected


def test_floor_log2_below_brackets_its_argument():
    for n in range(2, 300):
        m = floor_log2_below(n)
        assert 1 << m < n <= 1 << (m + 1)
    for n in (-4, 0, 1):
        with pytest.raises(ExcludedIndexError):
            floor_log2_below(n)


def test_two_adic_valuation_matches_division():
    for n in range(1, 300):
        v = two_adic_valuation(n)
        assert n % (1 << v) == 0 and (n >> v) % 2 == 1
    with pytest.raises(ExcludedIndexError):
        two_adic_valuation(-2)


def test_decoders_reject_negative_bits_and_short_bounds():
    x = SeededReal(8)
    d = GenericDescription.full(ValuationCoding(x))
    e = GenericDescription.full(IntervalCoding(x), start=2)
    for decode, desc in ((decode_valuation, d), (decode_interval, e)):
        with pytest.raises(ExcludedIndexError):
            decode(desc, -1, 100)
    # no witness lies at or below the bound: "not found", not an error
    assert decode_valuation(d, 5, 31) is None and decode_valuation(d, 5, 32) == x.bit(5)
    assert decode_interval(e, 5, 32) is None and decode_interval(e, 5, 33) == x.bit(5)
