import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.codings import IntervalCoding, ValuationCoding, encode_interval
from gencomp.errors import CorruptDescriptionError, UndefinedInputError
from gencomp.reals import GenericDescription, RealSpec, SeededReal, mix64, seeded_bit
from gencomp.scenarios import child_seed
from oracles import (
    EventuallyPeriodicReal,
    ExplicitPrefixReal,
    FalsifiedPremiseError,
    OutOfRangeError,
    description_from_pairs,
)

# pinned vectors for the documented mixing function (portable traces
# depend on these never changing)
SEED42_PREFIX = "11000010101001001110011101111110"
SEED0_PREFIX = "10101010101011111000110011000011"


def test_seeded_bits_pinned_vectors():
    assert "".join(str(seeded_bit(42, n)) for n in range(32)) == SEED42_PREFIX
    assert "".join(str(seeded_bit(0, n)) for n in range(32)) == SEED0_PREFIX


def test_mix64_pinned_values():
    # the finalizer is a bijection on 64-bit words fixing 0
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(0x9E3779B97F4A7C15) == 16294208416658607535
    assert 0 <= mix64(2**64 - 1) < 2**64


def test_child_seeds_pinned_and_distinct():
    # real k of a coding-roundtrip seed is mix64 of the (k+1)-th splitmix64
    # state, whose low bit is the seeded bit; mix64(seed + k + 1) made seed
    # s + 1's real k seed s's real k + 1, 511 child seeds for s, k < 256
    assert child_seed(0, 0) == mix64(0x9E3779B97F4A7C15)
    assert child_seed(7, 0) == 7191089600892374487
    assert child_seed(7, 1) == 309689372594955804
    assert "".join(str(child_seed(42, k) & 1) for k in range(32)) == SEED42_PREFIX
    assert len({child_seed(s, k) for s in range(256) for k in range(256)}) == 256 * 256


def test_eventually_periodic_bits():
    assert EventuallyPeriodicReal("", "0").bit(7) == 0
    assert EventuallyPeriodicReal("1", "10").bit(0) == 1
    x = EventuallyPeriodicReal("1", "10")
    assert [x.bit(n) for n in range(6)] == [1, 1, 0, 1, 0, 1]


def test_explicit_prefix_hard_length():
    x = ExplicitPrefixReal("0110")
    assert x.bit(2) == 1
    with pytest.raises(OutOfRangeError):
        x.bit(4)


def test_seeded_real_deterministic():
    x = SeededReal(42)
    assert x.bit(5) == x.bit(5)


@given(st.integers(0, 2**64 - 1), st.integers(0, 10**6))
@settings(max_examples=200)
def test_real_bit_determinism_property(seed, n):
    x = SeededReal(seed)
    assert x.bit(n) == x.bit(n)
    assert x.bit(n) in (0, 1)


def test_real_bit_determinism_spot_check():
    # randomized spot check over 10^4 (spec, n) pairs across all kinds
    rng = random.Random(8)
    specs = [
        SeededReal(12345),
        SeededReal(2**63 + 9),
        EventuallyPeriodicReal("110", "010"),
        ExplicitPrefixReal("01" * 500),
    ]
    for _ in range(10_000):
        spec = specs[rng.randrange(len(specs))]
        n = rng.randrange(1000)
        assert spec.bit(n) == spec.bit(n)


def test_description_contradiction_detected():
    d = description_from_pairs([(2, 1)])
    zeros = EventuallyPeriodicReal("", "0")
    xs = d.values(range(8))
    assert [n for n, x in enumerate(xs) if x is not None and x != zeros.bit(n)] == [2]


def test_description_full_prefix():
    src = SeededReal(7)
    d = description_from_pairs([(n, src.bit(n)) for n in range(8)], source=src)
    assert d.values(range(8)) == src.bits(range(8))


def test_description_even_domain_density():
    # even indices assigned correctly against the all-zeros real
    d = description_from_pairs([(n, 0) for n in range(0, 16, 2)])
    assert d.values(range(16)) == [0, None] * 8


def test_description_matches_bruteforce_comparison():
    src = SeededReal(99)
    d = GenericDescription.from_domain(lambda n: n % 3 != 0, src)
    horizon = 200
    expected = [src.bit(n) if n % 3 else None for n in range(horizon)]
    assert d.values(range(horizon)) == expected
    assert [d.values((n,))[0] for n in range(horizon)] == expected


def test_description_rejects_double_assignment():
    with pytest.raises(CorruptDescriptionError):
        description_from_pairs([(3, 0), (3, 1)])


def test_description_source_attachment_checks_truth():
    with pytest.raises(FalsifiedPremiseError):
        description_from_pairs([(2, 1)], source=EventuallyPeriodicReal("", "0"))


# Bulk reads against per-index oracles.  Each oracle reads one index at a
# time through bit(n) or encode_interval (or scans the pairs), never
# through bits() or values().

def _bulk_source(kind, seed):
    """(real, per-index oracle) of one source kind."""
    inner = SeededReal(seed)
    if kind == "seeded":
        return inner, inner.bit
    if kind == "periodic":
        x = EventuallyPeriodicReal(format(seed % 64, "b"), format(seed % 7 + 1, "b"))
        return x, x.bit
    if kind == "valuation":
        coded = ValuationCoding(inner)
        return coded, coded.bit
    return IntervalCoding(inner), lambda n: encode_interval(inner, n)


def _outcome(read):
    """read()'s value, or the type and message of the gencomp error it raised."""
    try:
        return read()
    except UndefinedInputError as exc:
        return type(exc), str(exc)


_KINDS = st.sampled_from(["seeded", "periodic", "valuation", "interval"])
_INDEX_LISTS = st.lists(st.integers(-3, 80), max_size=60)


@given(_KINDS, st.integers(0, 2**64 - 1), st.integers(0, 4),
       st.none() | st.frozensets(st.integers(0, 80), max_size=60), _INDEX_LISTS)
@settings(max_examples=300)
def test_from_domain_values_match_per_index_oracle(kind, seed, start, domain, ns):
    src, oracle = _bulk_source(kind, seed)
    if domain is None:
        d = GenericDescription.full(src, start=start)
        assigned = lambda n: n >= start  # noqa: E731
    else:
        d = GenericDescription.from_domain(domain.__contains__, src, start=start)
        assigned = lambda n: n >= start and n in domain  # noqa: E731
    expected = _outcome(lambda: [oracle(n) if assigned(n) else None for n in ns])
    assert _outcome(lambda: d.values(ns)) == expected
    assert _outcome(lambda: d.values(tuple(ns))) == expected
    assert d.values([]) == []
    for n in ns[:5]:
        assert _outcome(lambda: d.values((n,))[0]) == _outcome(lambda: oracle(n) if assigned(n) else None)


@given(_KINDS, st.integers(0, 2**64 - 1), st.frozensets(st.integers(2, 80), max_size=40),
       _INDEX_LISTS, st.booleans())
@settings(max_examples=300)
def test_from_pairs_values_match_per_index_oracle(kind, seed, indices, ns, attach):
    src, oracle = _bulk_source(kind, seed)
    pairs = [(n, oracle(n)) for n in sorted(indices)]
    d = description_from_pairs(pairs, source=src if attach else None)

    def scan(n):
        return next((x for m, x in pairs if m == n), None)

    assert d.values(ns) == [scan(n) for n in ns]
    assert d.values(range(0)) == []
    assert [d.values((n,))[0] for n in ns] == [scan(n) for n in ns]


@given(_KINDS, st.integers(0, 2**64 - 1), st.frozensets(st.integers(2, 300), min_size=1, max_size=40),
       st.data())
@settings(max_examples=150)
def test_from_pairs_rejects_false_pairs_eagerly(kind, seed, indices, data):
    src, oracle = _bulk_source(kind, seed)
    liar = data.draw(st.sampled_from(sorted(indices)))
    pairs = [(n, oracle(n) ^ (n == liar)) for n in sorted(indices)]
    with pytest.raises(FalsifiedPremiseError, match=r"pair \(%d," % liar):
        description_from_pairs(pairs, source=src)
    # without an attached source the same pairs are accepted as given
    assert description_from_pairs(pairs).values((liar,))[0] == oracle(liar) ^ 1


def test_negative_bit_index_is_undefined_for_every_kind():
    for spec in (ExplicitPrefixReal("01"), EventuallyPeriodicReal("1", "0"), SeededReal(3)):
        with pytest.raises(UndefinedInputError):
            spec.bit(-1)


def test_bits_answers_bit_per_index_for_every_kind():
    ns = [4, 0, 4, 9, 2]
    for spec in (ExplicitPrefixReal("0110100111"), EventuallyPeriodicReal("1", "001"), SeededReal(3)):
        assert spec.bits(ns) == [spec.bit(n) for n in ns]
        assert spec.bits(range(10)) == [spec.bit(n) for n in range(10)]
        assert spec.bits([]) == []
    with pytest.raises(OutOfRangeError):
        ExplicitPrefixReal("01").bits([1, 2])


def test_real_spec_bit_is_abstract():
    with pytest.raises(NotImplementedError):
        RealSpec().bit(0)
    with pytest.raises(NotImplementedError):
        RealSpec().bits([0])


def test_full_description_starts_at_its_start():
    src = SeededReal(4)
    d = GenericDescription.full(src, start=3)
    assert d.values(range(8)) == [None] * 3 + src.bits(range(3, 8))
    assert d.values(range(3, 12, 2)) == src.bits(range(3, 12, 2))
    assert d.values([9, 1, 3]) == [src.bit(9), None, src.bit(3)]
    assert d.values(range(7, 1, -2)) == [src.bit(7), src.bit(5), src.bit(3)]
    assert d.values((2,))[0] is None and d.values((5,))[0] == src.bit(5)
    assert GenericDescription.full(src).values(range(5)) == src.bits(range(5))


def test_from_pairs_checks_each_bit():
    with pytest.raises(ValueError, match="assigned bit must be 0 or 1"):
        description_from_pairs([(1, 2)])
    d = description_from_pairs([(4, 1), (4, 1), (0, 0)])
    assert d.values(range(6)) == [0, None, None, None, 1, None]
    assert d.values((4,))[0] == 1
