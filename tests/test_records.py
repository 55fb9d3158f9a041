"""The value records are plain classes: start-up imports no `dataclasses`,
and each record keeps the construction checks, equality and read-only
fields its users rely on.  Start-up also imports neither `argparse` nor
`fractions`, no command loads `fractions` later, and start-up defers the
modules a command does not reach, in a way the perfbench tracer can still
see.  Every definition in the package runs under some config, or is pinned
here with the reason it stays."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gencomp import diagonal
from gencomp.codings import IntervalCoding, ValuationCoding
from gencomp.density import gap_census
from gencomp.diagonal import (
    LeftmostSelector,
    RunConfig,
    StageRecord,
    StrategySpec,
)
from gencomp.enumops import EnumerationOperator, battery
from gencomp.errors import BudgetError, UndefinedInputError
from gencomp.harness import DIAGONAL_MODES, _diagonal_trace, run_experiment, validate_config
from gencomp.reals import SeededReal
from gencomp.relations import (
    ROOT,
    FiniteReflexiveRelation,
    UElement,
    embed_relation,
    stage_interval,
)
from oracles import EventuallyPeriodicReal, ExplicitPrefixReal, from_uid
from test_counting import ARTIFACT_GOLDEN, OPERATOR_ECHO_5

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


# the standard-library modules start-up must not import: argparse pulls in
# gettext and locale, fractions pulls in decimal, and dataclasses pulls in
# inspect
STARTUP_FREE = {"argparse", "gettext", "locale", "fractions", "decimal", "dataclasses", "inspect"}


def test_cli_import_adds_no_costly_stdlib_module():
    # measured against a bare interpreter, so a site hook that imports
    # one of these modules itself does not count against gencomp
    added = _modules_after("import gencomp.cli") - _modules_after("pass")
    assert "gencomp.cli" in added
    assert not added & STARTUP_FREE


def test_diagonal_modes_are_the_engine_modes():
    assert set(DIAGONAL_MODES.values()) == set(diagonal.SIDES)


# perfbench's reader of the written traces, run on the trace directories
# named after sys.argv[2]
_TRACE_COUNTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
print(json.dumps(run._trace_counts(sys.argv[2], [(name, None) for name in sys.argv[3:]])))
"""


def test_benchmark_trace_counts_are_the_engine_counts(tmp_path):
    # perfbench reports diagonal.rules_issued and diagonal.trap_events as
    # the summed lengths of the records' `rules` and `trap_events` lists:
    # in every diagonal golden, each record lists one entry per rule the
    # engine issued at its stage (one per act and side) and one per trap
    # event
    names = sorted(name for name, (cfg, _, _) in ARTIFACT_GOLDEN.items() if "strategies" in cfg)
    total = {"rules": 0, "trap_events": 0}
    for name in names:
        cfg = ARTIFACT_GOLDEN[name][0]
        run_experiment({**cfg, "out_dir": str(tmp_path / name)})
        doc = json.loads((tmp_path / name / "trace.json").read_text())
        trace = _diagonal_trace(validate_config(dict(cfg)))
        counts = {"rules": [len(rec.acts) * len(trace.sides) for rec in trace.records],
                  "trap_events": list(map(len, trace.trap_events))}
        for key, issued in counts.items():
            assert [len(rd[key]) for rd in doc["records"]] == issued, (name, key)
            total[key] += sum(issued)
        rules = sum(len(marker) for rec in trace.records for _, marker in rec.acts.values())
        assert sum(len(rd["rules"]) for rd in doc["records"]) == rules, name
    assert total["rules"] and total["trap_events"]
    assert json.loads(_fresh(_TRACE_COUNTS, PERFBENCH, str(tmp_path), *names)) == total


LAZY_MODULES = ("adversaries", "codings", "diagonal", "enumops", "reals", "relations", "scenarios")

# Runs each argv of sys.argv[1] through the CLI, then prints the exit codes,
# which lazily registered modules ran their code, and the modules the
# commands added to sys.modules.  The module dicts are read with
# object.__getattribute__, which does not trigger a load; a module that ran
# holds names besides the import system's dunders.
_CLI_THEN_EXECUTED = """
import contextlib, io, json, sys
from gencomp import cli
before = set(sys.modules)
exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        exits.append(cli.main(argv))
def ran(name):
    names = object.__getattribute__(sys.modules["gencomp." + name], "__dict__")
    return any(not key.startswith("__") for key in names)
print(json.dumps({"exits": exits, "executed": [n for n in %r if ran(n)],
                  "added": sorted(set(sys.modules) - before)}))
""" % (LAZY_MODULES,)

STARTUP_CONFIGS = {
    "pair-diagonal": {"version": 1, "scenario": "pair-diagonal", "stages": 8,
                      "strategies": [{"enumerator": {"kind": kind}, "selector": {"kind": side}}
                                     for kind, side in (("silent", "leftmost"),
                                                        ("trap-springer", "leftmost"),
                                                        ("cautious-copier", "leftmost"),
                                                        ("prefix-flooder", "leftmost"),
                                                        ("cautious-copier", "rightmost"))]},
    "single-diagonal": {"version": 1, "scenario": "single-diagonal", "stages": 6,
                        "strategies": [{"enumerator": {"kind": "scripted",
                                                       "stages": {"2": [4, 5], "3": [9]}}}]},
    "coding-roundtrip": {"version": 1, "scenario": "coding-roundtrip", "seed": 3,
                         "count": 2, "m_max": 3, "bound": 256},
    "relation-embed": {"version": 1, "scenario": "relation-embed", "seed": 3,
                       "count": 3, "max_size": 3},
    "operator-compile": {"version": 1, "scenario": "operator-compile", "machine": "echo",
                         "element_bound": 2, "label_bound": 1},
}


# the lazy modules each command runs: only the diagonal scenarios (and
# `catalog`, which names the trace format) execute `diagonal` and
# `adversaries`, with a scripted opponent too, and only the other scenarios
# execute `scenarios`
REACHED = {
    "pair-diagonal": ["adversaries", "diagonal"],
    "single-diagonal": ["adversaries", "diagonal"],
    "catalog": ["adversaries", "diagonal", "enumops"],
    "coding-roundtrip": ["codings", "reals", "scenarios"],
    "relation-embed": ["relations", "scenarios"],
    "operator-compile": ["enumops", "scenarios"],
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
    # no command loads fractions: the coding-roundtrip densities are
    # compared as integers
    assert not set(got.pop("added")) & {"fractions", "decimal", "numbers"}
    assert got == {"exits": [0] * len(argvs), "executed": REACHED[command]}


# After `import gencomp.cli`, as in perfbench/layers.py: every module the
# tracer names is registered, and so is `adversaries`, whose CATALOG it
# reads; a lazy module's first attribute access returns the objects a plain
# import of the name does.
_TRACER_CONTRACT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import layers
import gencomp, gencomp.cli
targets = sorted({(m, a) for m, a, *_ in layers.FUNCTIONS + layers.COUNTED_FUNCTIONS + layers.METHODS
                  + layers.LEAF_METHODS + layers.COUNTED_METHODS})
modules = sorted({m for m, _ in targets} | {"adversaries"})
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
    # `scenarios` holds no tracer target: its runners call the paper
    # modules through their module attributes
    assert set(LAZY_MODULES) - {"scenarios"} <= set(got.pop("modules"))
    assert got == {"missing": [], "differs": [], "prefix_density": True}


def test_tracer_installs_on_unloaded_modules_and_removes_every_wrapper():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import layers, gencomp.cli\n"
        "tracer = layers.Tracer(); tracer.install(); print(tracer.uninstall())\n"
    )
    assert _fresh(code, PERFBENCH).split() == ["[]"]


# Runs `gencomp run` and `verify` on each config of sys.argv[1], then
# `gencomp catalog`, under a profile hook, and prints the exit codes and the
# (file, first line) of every code object of the package that was called.
_CALLED_UNDER_CONFIGS = """
import json, os, sys
codes = set()
def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
sys.setprofile(hook)
import contextlib, io, tempfile
from gencomp import cli
exits = []
with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
    for k, cfg in enumerate(json.loads(sys.argv[1])):
        path, out = os.path.join(work, "%d.json" % k), os.path.join(work, str(k))
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        exits.append(cli.main(["run", path, "--out-dir", out]))
        exits.append(cli.main(["verify", os.path.join(out, "trace.json")]))
    exits.append(cli.main(["catalog"]))
sys.setprofile(None)
package = os.path.join(sys.argv[2], "gencomp", "")
called = {(code.co_filename[len(package):], code.co_firstlineno) for code in codes
          if code.co_filename.startswith(package)}
print(json.dumps({"exits": exits, "called": sorted(called)}))
"""


def _reach_configs():
    """One golden config per scenario, the single-diagonal one with its CSV
    profiles on, and every battery machine compiled at element bound 3."""
    by_scenario = {}
    for cfg, _, _ in ARTIFACT_GOLDEN.values():
        by_scenario.setdefault(cfg["scenario"], cfg)
    by_scenario["single-diagonal"] = dict(by_scenario["single-diagonal"], csv_profiles=True)
    del by_scenario["operator-compile"]
    machines = [dict(OPERATOR_ECHO_5, machine=m, element_bound=3) for m in sorted(battery())]
    return list(by_scenario.values()) + machines


def _first_line(node):
    # a code object starts at its first decorator
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _unreached(called):
    """Module-qualified names of the module-level functions and the methods
    that never ran; a class none of whose methods ran is named alone.  A
    class that defines no method (an exception type) runs no code of its
    own, so it is not checked."""
    out = []
    for path in sorted(Path(SRC, "gencomp").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = "%s.%s" % (path.stem, node.name)
            if isinstance(node, ast.FunctionDef):
                if (path.name, _first_line(node)) not in called:
                    out.append(name)
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                missed = [m.name for m in methods if (path.name, _first_line(m)) not in called]
                if methods and len(missed) == len(methods):
                    out.append(name)
                else:
                    out.extend("%s.%s" % (name, m) for m in missed)
    return out


# what no config reaches, and why it stays; an oracle, fixture or entry
# point that only tests use lives in tests/oracles.py instead
UNREACHED = {
    "codings.ValuationCoding.bit": "interface: RealSpec promises bit(n) on every real",
    "codings.IntervalCoding.bit": "interface: RealSpec promises bit(n) on every real",
    "density.prefix_density": "tracer target: perfbench/layers.py binds it by name",
    "density.gap_density_upper": "until item 11: the density bound a requirement verdict is to check",
    "diagonal.enumerate_level": "tracer target: perfbench/layers.py binds it by name",
    "diagonal.StageRecord.__eq__": "value equality: trace round-trip tests compare records by value",
    "diagonal.run_single": "perfbench entry: perfbench's tests run the engine without a config",
    "reals.RealSpec.bit": "interface: every real overrides it",
    "records.first_difference": "error path: names where a trace differs from its replay or write-back",
    "records.Frozen": "misuse guard: rejects assigning or deleting a record field",
}

# the reasons a definition no config reaches may stay in the package
KEPT = ("tracer target:", "perfbench entry:", "error path:", "misuse guard:", "interface:",
        "value equality:", "until item 11:")


def test_every_pin_names_a_reason_to_stay():
    moved = sorted(name for name, reason in UNREACHED.items() if not reason.startswith(KEPT))
    assert not moved, "move to tests/oracles.py, or name a reason to stay: " + ", ".join(moved)


def test_every_src_definition_is_reached_or_pinned():
    configs = _reach_configs()
    got = json.loads(_fresh(_CALLED_UNDER_CONFIGS, json.dumps(configs), SRC))
    assert got["exits"] == [0] * (2 * len(configs) + 1)
    unreached = set(_unreached({tuple(c) for c in got["called"]}))
    unpinned = sorted(unreached - set(UNREACHED))
    assert not unpinned, "no config reaches (delete, or pin why it stays): " + ", ".join(unpinned)
    assert unreached == set(UNREACHED), "pinned but reached: " + ", ".join(set(UNREACHED) - unreached)


U1 = UElement(1, ((ROOT, 1),))

CONSTRUCTOR_ERRORS = [
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
]


@pytest.mark.parametrize("make, error, message", CONSTRUCTOR_ERRORS)
def test_constructor_checks_keep_their_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_records_compare_by_value():
    # a record is what its stage decided: its batches and its acts
    def record(node, batch=((2, 3),)):
        return StageRecord({0: batch}, {0: (("0",), (node,))})

    assert StageRecord.__slots__ == ("batches", "acts")
    assert record("") == record("")
    assert record("") != record("0")
    assert record("") != record("", ((2, 4),))
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
        (StrategySpec(None, LeftmostSelector()), "selector"),
        (RunConfig("single", 3, ()), "stages"),
        (ExplicitPrefixReal("01"), "prefix"),
        (EventuallyPeriodicReal("0", "1"), "period"),
        (SeededReal(5), "seed"),
        (gap_census(((0, 1 << 4),), 4), "gap_only"),
        (ValuationCoding(SeededReal(1)), "source"),
        (IntervalCoding(SeededReal(1)), "source"),
        (EnumerationOperator(frozenset({(1, frozenset({0}))})), "axioms"),
        (battery()["echo"], "start"),
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
