"""The value records are plain classes: start-up imports no `dataclasses`,
and each record keeps the construction checks, equality and read-only
fields its users rely on."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gencomp.codings import AsymmetricJoin, IntervalCoding, ValuationCoding
from gencomp.density import block_of, density_profile, gap_census
from gencomp.diagonal import (
    GapRule,
    LeftmostSelector,
    MarkerRecord,
    RunConfig,
    StageRecord,
    StrategySpec,
)
from gencomp.enumops import EnumerationOperator, battery
from gencomp.errors import BudgetError, SelectorCapError, UndefinedInputError
from gencomp.reals import (
    BitPrefix,
    DescriptionReport,
    Enumerator,
    EventuallyPeriodicReal,
    ExplicitPrefixReal,
    SeededReal,
)
from gencomp.relations import (
    ROOT,
    FiniteReflexiveRelation,
    UElement,
    embed_relation,
    from_uid,
    stage_interval,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _modules_after(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code + "; import sys; print('\\n'.join(sys.modules))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    # measured against a bare interpreter, so a site hook that imports
    # either module itself does not count against gencomp
    added = _modules_after("import gencomp.cli") - _modules_after("pass")
    assert "gencomp.cli" in added
    assert not added & {"dataclasses", "inspect"}


U1 = UElement(1, ((ROOT, 1),))

CONSTRUCTOR_ERRORS = [
    (lambda: GapRule(2, 1, ""), UndefinedInputError, "gap exponent must satisfy 0 <= e <= stage"),
    (lambda: GapRule(-1, 1, ""), UndefinedInputError, "gap exponent must satisfy 0 <= e <= stage"),
    (lambda: GapRule(0, 1, "01"), SelectorCapError, "rule at stage 1 uses a node of length 2"),
    (lambda: GapRule(0, 2, "0a"), ValueError, "node must be a bit string"),
    (lambda: GapRule(0, 2, "0", "z"), ValueError, "side must be 'x' or 'y'"),
    (lambda: RunConfig("triple", 4, ()), UndefinedInputError, "mode must be single or pair"),
    (lambda: RunConfig("pair", 0, ()), BudgetError, "stage count out of the supported range 1..64"),
    (lambda: RunConfig("single", 65, ()), BudgetError, "stage count out of the supported range 1..64"),
    (lambda: UElement(-1, ()), UndefinedInputError, "stage must be >= 0"),
    (lambda: UElement(1, ((ROOT, 4),)), ValueError, "sparse digits must be 1..3"),
    (lambda: UElement(1, ((U1, 1),)), ValueError, "combo priors must come from earlier stages"),
    (lambda: UElement(2, ((ROOT, 1), (ROOT, 2))), ValueError, "duplicate prior in combo"),
    (lambda: ExplicitPrefixReal("012"), ValueError, "bits must be a string over {0,1}"),
    (lambda: EventuallyPeriodicReal("01", ""), ValueError, "period must be nonempty"),
    (lambda: EventuallyPeriodicReal("2", "0"), ValueError, "bits must be strings over {0,1}"),
    (lambda: EventuallyPeriodicReal("0", "1x"), ValueError, "bits must be strings over {0,1}"),
    (lambda: SeededReal(-1), ValueError, "seed must fit in 64 bits"),
    (lambda: SeededReal(1 << 64), ValueError, "seed must fit in 64 bits"),
    (lambda: BitPrefix("10 1"), ValueError, "bits must be a string over {0,1}"),
]


@pytest.mark.parametrize("make, error, message", CONSTRUCTOR_ERRORS)
def test_constructor_checks_keep_their_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_records_compare_by_value():
    assert GapRule(1, 3, "01", "y") == GapRule(1, 3, "01", "y")
    assert GapRule(1, 3, "01") == GapRule(1, 3, "01", "x")
    assert GapRule(1, 3, "01") != GapRule(1, 3, "00")
    assert GapRule(1, 3, "01") != (1, 3, "01", "x")
    assert MarkerRecord(0, 2, ("0", "1")) == MarkerRecord(0, 2, ("0", "1"))
    assert MarkerRecord(0, 2, ("0",)) != MarkerRecord(1, 2, ("0",))
    info = {0: {"alive": True, "acted": True, "died": False, "approx": ("0",), "marker": ("",)}}

    def record(node):
        return StageRecord(1, {0: ((2, 3),)}, (GapRule(0, 1, node),), info, ((0, 1, 2, 3),))

    assert record("") == record("")
    assert record("") != record("0")
    assert UElement(2, ((ROOT, 1), (U1, 2))) == UElement(2, ((U1, 2), (ROOT, 1)))
    assert UElement(2, ((ROOT, 1),)) != UElement(2, ((ROOT, 2),))
    assert UElement(1, ()) != UElement(2, ())


def test_equal_uelements_hash_alike_and_key_dicts():
    a = UElement(2, ((ROOT, 3), (UElement(1, ((ROOT, 2),)), 1)))
    b = UElement(2, ((UElement(1, ((ROOT, 2),)), 1), (ROOT, 3)))
    assert a is not b and a == b and hash(a) == hash(b)
    table = {a: "a"}
    assert table[b] == "a"
    assert from_uid(7) == from_uid(7) and {from_uid(7): 1}[from_uid(7)] == 1
    assert len({from_uid(i) for i in range(40)} | {from_uid(i) for i in range(40)}) == 40


def _frozen_records():
    relation = FiniteReflexiveRelation([[True, False], [True, True]])
    return [
        (GapRule(0, 1, ""), "node"),
        (StrategySpec(None, LeftmostSelector()), "selector"),
        (RunConfig("single", 3, ()), "stages"),
        (ExplicitPrefixReal("01"), "prefix"),
        (EventuallyPeriodicReal("0", "1"), "period"),
        (SeededReal(5), "seed"),
        (BitPrefix("01"), "bits"),
        (DescriptionReport(True, Fraction(1, 2)), "truthful"),
        (Enumerator.empty(), "script"),
        (block_of(3), "lo"),
        (gap_census(((0, 1 << 4),), 4), "gap_only"),
        (density_profile(lambda n: True, [1, 2]), "values"),
        (ValuationCoding(SeededReal(1)), "source"),
        (IntervalCoding(SeededReal(1)), "source"),
        (AsymmetricJoin(SeededReal(1), SeededReal(2)), "coded"),
        (EnumerationOperator(frozenset({(1, frozenset({0}))})), "axioms"),
        (battery()["echo"], "use_bound"),
        (stage_interval(1), "hi"),
        (U1, "combo"),
        (embed_relation(relation), "images"),
    ]


FROZEN = _frozen_records()


@pytest.mark.parametrize("record, field", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_read_only_records_reject_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(record, field)
    assert getattr(record, field) is before
