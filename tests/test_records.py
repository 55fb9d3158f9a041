"""The value records are plain classes: start-up imports no `dataclasses`,
and each record keeps the construction checks, equality and read-only
fields its users rely on.  Start-up also defers the modules a diagonal run
does not reach, in a way the perfbench tracer can still see."""

import json
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

ROOT_DIR = Path(__file__).resolve().parent.parent
SRC = str(ROOT_DIR / "src")
PERFBENCH = str(ROOT_DIR / "perfbench")


def _fresh(code, *args):
    """The stdout of `code` run with `args` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, check=True).stdout


def _modules_after(code):
    return set(_fresh(code + "; import sys; print('\\n'.join(sys.modules))").split())


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    # measured against a bare interpreter, so a site hook that imports
    # either module itself does not count against gencomp
    added = _modules_after("import gencomp.cli") - _modules_after("pass")
    assert "gencomp.cli" in added
    assert not added & {"dataclasses", "inspect"}


LAZY_MODULES = ("codings", "enumops", "reals", "relations")

# Runs each argv of sys.argv[1] through the CLI, then prints the exit codes
# and which lazily registered modules ran their code.  The module dicts are
# read with object.__getattribute__, which does not trigger a load; a module
# that ran holds names besides the import system's dunders.
_CLI_THEN_EXECUTED = """
import contextlib, io, json, sys
from gencomp import cli
exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        exits.append(cli.main(argv))
def ran(name):
    names = object.__getattribute__(sys.modules["gencomp." + name], "__dict__")
    return any(not key.startswith("__") for key in names)
print(json.dumps({"exits": exits, "executed": [n for n in %r if ran(n)]}))
""" % (LAZY_MODULES,)

STARTUP_CONFIGS = {
    "pair-diagonal": {"version": 1, "scenario": "pair-diagonal", "stages": 8,
                      "strategies": [{"enumerator": {"kind": kind}, "selector": {"kind": side}}
                                     for kind, side in (("silent", "leftmost"),
                                                        ("trap-springer", "leftmost"),
                                                        ("cautious-copier", "leftmost"),
                                                        ("prefix-flooder", "leftmost"),
                                                        ("cautious-copier", "rightmost"))]},
    "coding-roundtrip": {"version": 1, "scenario": "coding-roundtrip", "seed": 3,
                         "count": 2, "m_max": 3, "bound": 256},
    "relation-embed": {"version": 1, "scenario": "relation-embed", "seed": 3,
                       "count": 3, "max_size": 3},
    "operator-compile": {"version": 1, "scenario": "operator-compile", "machine": "echo",
                         "element_bound": 2, "label_bound": 1},
}


# the lazy modules each command runs
REACHED = {
    "pair-diagonal": [],
    "catalog": ["enumops", "reals"],
    "coding-roundtrip": ["codings", "reals"],
    "relation-embed": ["codings", "reals", "relations"],
    "operator-compile": ["enumops", "reals"],
}


@pytest.mark.parametrize("command", REACHED)
def test_cli_runs_only_the_lazy_modules_it_reaches(tmp_path, command):
    if command == "catalog":
        argvs = [["catalog"]]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(STARTUP_CONFIGS[command]))
        out = tmp_path / "out"
        argvs = [["run", str(cfg), "--out-dir", str(out)], ["verify", str(out / "trace.json")]]
    got = json.loads(_fresh(_CLI_THEN_EXECUTED, json.dumps(argvs)))
    assert got == {"exits": [0] * len(argvs), "executed": REACHED[command]}


# After `import gencomp.cli`, as in perfbench/layers.py: every module the
# tracer names is registered, and a lazy module's first attribute access
# returns the objects a plain import of the name does.
_TRACER_CONTRACT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import layers
import gencomp, gencomp.cli
targets = sorted({(m, a) for m, a, *_ in layers.FUNCTIONS + layers.COUNTED_FUNCTIONS + layers.METHODS
                  + layers.LEAF_METHODS + layers.COUNTED_METHODS})
modules = sorted({m for m, _ in targets})
missing = [m for m in modules if "gencomp." + m not in sys.modules]
first = [getattr(sys.modules["gencomp." + m], a) for m, a in targets]
differs = []
for (m, a), obj in zip(targets, first):
    scope = {}
    exec("from gencomp.%s import %s as obj" % (m, a), scope)
    if scope["obj"] is not obj or getattr(gencomp, m) is not sys.modules["gencomp." + m]:
        differs.append("%s.%s" % (m, a))
print(json.dumps({"modules": modules, "missing": missing, "differs": differs,
                  "prefix_density": gencomp.prefix_density is gencomp.density.prefix_density}))
"""


def test_tracer_finds_every_module_it_names_after_cli_import():
    got = json.loads(_fresh(_TRACER_CONTRACT, PERFBENCH))
    assert set(LAZY_MODULES) <= set(got.pop("modules"))
    assert got == {"missing": [], "differs": [], "prefix_density": True}


def test_tracer_installs_on_unloaded_modules_and_removes_every_wrapper():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import layers, gencomp.cli\n"
        "tracer = layers.Tracer(); tracer.install(); print(tracer.uninstall())\n"
    )
    assert _fresh(code, PERFBENCH).split() == ["[]"]


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
