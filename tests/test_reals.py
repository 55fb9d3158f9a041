import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.errors import (
    CorruptDescriptionError,
    FalsifiedPremiseError,
    OutOfRangeError,
    UndefinedInputError,
)
from gencomp.reals import (
    BitPrefix,
    Enumerator,
    EventuallyPeriodicReal,
    ExplicitPrefixReal,
    GenericDescription,
    SeededReal,
    TimeDependentDescription,
    all_zeros,
    mix64,
    seeded_bit,
    validate_description,
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
    assert x.member(5) == (x.bit(5) == 1)


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


def test_bit_prefix_indexing():
    p = BitPrefix("0101")
    assert len(p) == 4
    assert [p[i] for i in range(4)] == [0, 1, 0, 1]
    assert p.is_prefix_of("010110")
    assert not BitPrefix("11").is_prefix_of("10")
    assert p.extend("1").bits == "01011"


def test_description_contradiction_detected():
    d = GenericDescription.from_pairs([(2, 1)])
    report = validate_description(d, all_zeros(), 8)
    assert report.truthful is False


def test_description_full_prefix():
    src = SeededReal(7)
    d = GenericDescription.from_pairs([(n, src.bit(n)) for n in range(8)], source=src)
    report = validate_description(d, src, 8)
    assert report.truthful is True
    assert report.domain_prefix_density == 1


def test_description_even_domain_density():
    # even indices assigned correctly against the all-zeros real
    d = GenericDescription.from_pairs([(n, 0) for n in range(0, 16, 2)])
    report = validate_description(d, all_zeros(), 16)
    assert report.truthful is True
    assert report.domain_prefix_density == Fraction(8, 16)


def test_description_matches_bruteforce_comparison():
    src = SeededReal(99)
    d = GenericDescription.from_domain(lambda n: n % 3 != 0, src)
    horizon = 200
    expected_truthful = all(
        d.lookup(n) is None or d.lookup(n) == src.bit(n) for n in range(horizon)
    )
    expected_density = Fraction(
        sum(1 for n in range(horizon) if d.lookup(n) is not None), horizon
    )
    report = validate_description(d, src, horizon)
    assert report.truthful == expected_truthful
    assert report.domain_prefix_density == expected_density


def test_description_rejects_double_assignment():
    with pytest.raises(CorruptDescriptionError):
        GenericDescription.from_pairs([(3, 0), (3, 1)])


def test_description_source_attachment_checks_truth():
    with pytest.raises(FalsifiedPremiseError):
        GenericDescription.from_pairs([(2, 1)], source=all_zeros())


def test_validate_description_requires_horizon():
    d = GenericDescription.from_pairs([])
    with pytest.raises(UndefinedInputError):
        validate_description(d, all_zeros(), 0)


def test_time_dependent_projection():
    t = TimeDependentDescription([(0, 1, 3), (0, 1, 5), (4, 0, 1)])
    d = t.project()
    assert d.lookup(0) == 1
    assert d.lookup(4) == 0
    assert d.lookup(1) is None
    with pytest.raises(CorruptDescriptionError):
        TimeDependentDescription([(0, 1, 3), (0, 0, 4)])


def test_enumerator_scripted_values():
    w = Enumerator.from_schedule(0, {0: set(), 1: {2}})
    assert w.at(1) == {2}
    assert w.at(5) == {2}
    assert Enumerator.empty().at(10) == frozenset()


@given(
    st.dictionaries(st.integers(0, 20), st.frozensets(st.integers(0, 50), max_size=4), max_size=6),
    st.integers(0, 49),
)
@settings(max_examples=150)
def test_enumerator_monotone_property(schedule, s):
    w = Enumerator.from_schedule(0, schedule)
    assert w.at(s) <= w.at(s + 1)


def test_enumerator_monotone_through_fifty_stages():
    scripted = [
        Enumerator.from_schedule(0, {0: {3}, 7: {1, 9}, 31: {2}}),
        Enumerator.from_schedule(1, {5: {4}, 6: {4, 8}, 50: {0}}),
        Enumerator.empty(2),
    ]
    for w in scripted:
        for s in range(50):
            assert w.at(s) <= w.at(s + 1)


def test_enumerator_new_elements_protocol():
    w = Enumerator.from_schedule(0, {0: {1}, 2: {5, 1}})
    assert list(w.new_elements(0, 0, None)) == [(1, 2)]
    assert list(w.new_elements(0, 1, None)) == []
    assert list(w.new_elements(0, 2, None)) == [(5, 6)]
