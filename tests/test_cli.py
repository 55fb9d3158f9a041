"""The command line contract, each case in a fresh interpreter so that a
SystemExit or a traceback would show: help exits 0, every usage error exits
2 with the usage on stderr, options take `--name value` and `--name=value`,
and outputs that cannot be written are a config error."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gencomp import cli, harness
from test_counting import ARTIFACT_GOLDEN

SRC = str(Path(__file__).resolve().parent.parent / "src")

CONFIG = {
    "version": 1,
    "scenario": "single-diagonal",
    "stages": 5,
    "strategies": [{"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "leftmost"}}],
}


def gencomp(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gencomp.cli", *map(str, args)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return path


@pytest.mark.parametrize("args", [
    ["--help"], ["-h"], ["run", "--help"], ["run", "cfg.json", "-h"], ["verify", "--help"],
    ["catalog", "-h"],
])
def test_help_prints_usage_and_exits_0(args):
    proc = gencomp(*args)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith(
        "usage: gencomp run <config.json> [--stages N] [--seed S] [--out-dir DIR]\n"
        "       gencomp verify <trace.json>\n"
        "       gencomp catalog\n"
    )


USAGE_ERRORS = {
    "no command": ([], "the following arguments are required: command"),
    "unknown command": (["bogus"], "invalid command 'bogus'"),
    "missing config": (["run"], "the following arguments are required: config"),
    "missing trace": (["verify"], "the following arguments are required: trace"),
    "unknown option": (["run", "{cfg}", "--bogus", "1"], "unrecognized arguments: --bogus"),
    "abbreviated option": (["run", "{cfg}", "--out", "x"], "unrecognized arguments: --out"),
    "extra positional": (["verify", "a.json", "b.json"], "unrecognized arguments: b.json"),
    "argument to catalog": (["catalog", "x"], "unrecognized arguments: x"),
    "non-integer stages": (["run", "{cfg}", "--stages", "x"], "argument --stages: invalid int value: 'x'"),
    "non-integer seed": (["run", "{cfg}", "--seed=1.5"], "argument --seed: invalid int value: '1.5'"),
    "stages with no value": (["run", "{cfg}", "--stages"], "argument --stages: expected one argument"),
    "out-dir before an option": (["run", "{cfg}", "--out-dir", "--seed", "3"],
                                 "argument --out-dir: expected one argument"),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_with_usage_and_no_traceback(config, name):
    args, message = USAGE_ERRORS[name]
    proc = gencomp(*(a.format(cfg=config) for a in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: gencomp run ")
    assert "gencomp: error: " + message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_out_dir_spellings_agree(tmp_path, config):
    separate, equals = tmp_path / "separate", tmp_path / "equals"
    assert gencomp("run", config, "--out-dir", separate).returncode == 0
    assert gencomp("run", "--out-dir=%s" % equals, config).returncode == 0
    for name in ("trace.json", "report.json"):
        assert (separate / name).read_bytes() == (equals / name).read_bytes()


def test_a_negative_number_is_an_option_value(tmp_path, config):
    out = tmp_path / "out"
    proc = gencomp("run", config, "--seed", "-4", "--out-dir", out)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "trace.json").read_text())["config"]["seed"] == -4


# the scenarios whose runs draw from `seed`, each with a quick config
DRAWN_SEED_CONFIGS = {
    "coding-roundtrip": {"version": 1, "scenario": "coding-roundtrip", "seed": 0, "count": 2,
                         "m_max": 3, "bound": 64},
    "relation-embed": {"version": 1, "scenario": "relation-embed", "seed": 0, "count": 2, "max_size": 3},
}


@pytest.mark.parametrize("scenario", sorted(DRAWN_SEED_CONFIGS))
def test_a_drawn_seed_is_a_natural_below_2_to_the_64(tmp_path, scenario):
    # random.Random(-s) seeds like random.Random(s) and child seeds are
    # mixed to 64 bits, so a seed outside [0, 2^64) can repeat the draws of
    # a seed inside it under its own echo
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(DRAWN_SEED_CONFIGS[scenario]))
    for seed in (0, 2 ** 64 - 1):
        proc = gencomp("run", path, "--seed", seed, "--out-dir", tmp_path / str(seed))
        assert proc.returncode == 0, proc.stderr
    for seed in (-1, 2 ** 64):
        proc = gencomp("run", path, "--seed", seed, "--out-dir", tmp_path / str(seed))
        assert proc.returncode == 2
        assert proc.stderr == "config error: field 'seed' out of range\n"
        assert not (tmp_path / str(seed)).exists()


def test_a_huge_m_max_is_a_config_error(tmp_path):
    # the bound check once built 2^m_max, a MemoryError at this m_max
    cfg = dict(DRAWN_SEED_CONFIGS["coding-roundtrip"])
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert gencomp("run", tmp_path / "cfg.json", "--out-dir", tmp_path).returncode == 0
    doc = json.loads((tmp_path / "trace.json").read_text())
    cfg["m_max"] = doc["config"]["m_max"] = 100_000_000_000
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "trace.json").write_text(json.dumps(doc))
    for args in (["run", tmp_path / "cfg.json", "--out-dir", tmp_path / "out"],
                 ["verify", tmp_path / "trace.json"]):
        proc = gencomp(*args)
        assert proc.returncode == 2
        assert proc.stderr == "config error: bound too small for m_max\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bound", [(1 << 20) + 1, 1 << 32])
def test_a_bound_above_2_to_the_20_is_a_config_error(tmp_path, bound):
    # work and memory grow linearly in the bound: 2^20 took 0.67 s and
    # 92 MiB, and 2^32 would take hundreds of GiB
    cfg = dict(DRAWN_SEED_CONFIGS["coding-roundtrip"], bound=bound)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = gencomp("run", tmp_path / "cfg.json", "--out-dir", tmp_path / "out")
    assert proc.returncode == 2
    assert proc.stderr == "config error: field 'bound' out of range\n"
    assert not (tmp_path / "out").exists()


def test_a_bound_of_2_to_the_20_validates():
    # validated only: running it costs about 0.7 s and 92 MiB
    cfg = dict(DRAWN_SEED_CONFIGS["coding-roundtrip"], bound=1 << 20)
    assert harness.validate_config(cfg)["bound"] == 1 << 20


def test_a_repeated_selector_stage_is_a_config_error(tmp_path):
    # the later of two entries for one stage would always win, so the
    # earlier could never apply
    selector = {"kind": "scripted", "entries": [[1, "0"], [2, "01"], [1, "1"]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG, strategies=[{"selector": selector}])))
    proc = gencomp("run", path, "--out-dir", tmp_path / "out")
    assert proc.returncode == 2
    assert proc.stderr == "config error: scripted selector stages must be distinct naturals, got 1\n"
    assert not (tmp_path / "out").exists()
    selector["entries"].pop()
    path.write_text(json.dumps(dict(CONFIG, strategies=[{"selector": selector}])))
    assert gencomp("run", path, "--out-dir", tmp_path / "out").returncode == 0


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_unwritable_out_dir_is_a_config_error(tmp_path, config, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = blocker / "out" if below else blocker
    proc = gencomp("run", config, "--out-dir", target)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot write outputs to %s" % target)
    assert "Traceback" not in proc.stderr
    assert blocker.read_text() == ""


def test_out_dir_with_a_nul_is_a_config_error(tmp_path):
    # no argument can hold a NUL, but a config's out_dir can, and
    # os.makedirs refuses it with ValueError, not OSError
    target = str(tmp_path / "a\x00b")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG, out_dir=target)))
    proc = gencomp("run", path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot write outputs to %s" % target)
    assert "Traceback" not in proc.stderr


def test_a_contract_violation_exits_4_and_writes_nothing(tmp_path):
    # 4 joins strategy 0's enumeration at stage 2, inside the gap [4, 8) of
    # its stage-2 rule, whose node "1" the all-ones guess extends; at stage
    # 4 the level-3 search sees it, so the guess's truncation "111" lies
    # outside the surviving level and the engine stops the run
    cfg = dict(CONFIG, stages=7, strategies=[{
        "enumerator": {"kind": "scripted", "stages": {"2": [4]}},
        "selector": {"kind": "scripted", "entries": [[1, "1111111"]]},
    }])
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    proc = gencomp("run", "cfg.json", "--out-dir", "out", cwd=tmp_path)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "invariant violation: selector path truncation is outside the surviving level\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("spelling", ["flag", "field"])
def test_an_empty_out_dir_is_a_config_error(tmp_path, spelling):
    # an absent out_dir writes nothing; an empty one names no directory,
    # so it is refused before anything runs
    cfg = dict(CONFIG, out_dir="") if spelling == "field" else CONFIG
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    flags = ["--out-dir", ""] if spelling == "flag" else []
    proc = gencomp("run", "cfg.json", *flags, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "config error: field 'out_dir' must not be empty\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff\xfe{}"], ids=["deep-nesting", "utf-16-bom"])
def test_unparsable_config_is_a_config_error(tmp_path, content):
    # too deep for the JSON parser's recursion, or not UTF-8
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    proc = gencomp("run", path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot parse config %s" % path)
    assert "Traceback" not in proc.stderr


# JSON documents that are no object, among them a list of pairs that
# dict() would turn into a runnable config
NON_OBJECTS = {"list": [1], "string": "x", "number": 5, "null": None,
               "pairs": [["version", 1], ["scenario", "pair-diagonal"], ["stages", 3], ["strategies", []]]}


@pytest.mark.parametrize("name", sorted(NON_OBJECTS))
def test_a_config_that_is_no_object_is_a_config_error(tmp_path, name):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(NON_OBJECTS[name]))
    for flags in ([], ["--stages", "2"]):
        proc = gencomp("run", path, *flags, "--out-dir", tmp_path / "out")
        assert proc.returncode == 2
        assert proc.stderr == "config error: config must be a JSON object\n"
    assert not (tmp_path / "out").exists()


def test_run_flags_are_the_config_fields_of_the_same_names(tmp_path, config):
    flagged, fielded = tmp_path / "flagged", tmp_path / "fielded"
    proc = gencomp("run", config, "--stages", "3", "--seed", "9", "--out-dir", flagged)
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "fielded.json"
    path.write_text(json.dumps(dict(CONFIG, stages=3, seed=9, out_dir=str(fielded))))
    assert gencomp("run", path).returncode == 0
    for name in ("trace.json", "report.json"):
        assert (flagged / name).read_bytes() == (fielded / name).read_bytes()


def test_every_run_option_sets_a_config_field():
    fields = set(harness._COMMON_FIELDS)
    for row in harness.SCENARIO_TABLE.values():
        fields.update(name for name, _ in row.fields)
    _, _, options = cli.COMMANDS["run"]
    assert {option[2:].replace("-", "_") for option in options} <= fields


@pytest.mark.parametrize("cfg", [CONFIG, {"version": 1, "scenario": "operator-compile", "machine": "echo"}],
                         ids=["diagonal", "scenario"])
def test_verify_writes_nothing_when_the_echo_names_an_out_dir(tmp_path, cfg):
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert gencomp("run", tmp_path / "cfg.json", "--out-dir", tmp_path).returncode == 0
    doc = json.loads((tmp_path / "trace.json").read_text())
    leak = tmp_path / "leak"
    doc["config"]["out_dir"] = str(leak)
    (tmp_path / "trace.json").write_text(json.dumps(doc))
    proc = gencomp("verify", tmp_path / "trace.json")
    assert proc.returncode == 4
    assert proc.stdout == ("VIOLATION: replay mismatch at config.out_dir: "
                           "trace is not reproducible from its config\n")
    assert proc.stderr == ""
    assert not leak.exists()


# component kinds that are no kind name: each is a config error, whether
# the config is run or a trace echoing it is verified
MALFORMED_KINDS = {"list": ["silent"], "dict": {"kind": "silent"}, "int": 3, "null": None, "true": True}


@pytest.fixture(scope="module")
def golden_trace(tmp_path_factory):
    """The single-diagonal golden config and the trace `gencomp run` writes for it."""
    work = tmp_path_factory.mktemp("golden")
    cfg = ARTIFACT_GOLDEN["single-diagonal-12"][0]
    (work / "cfg.json").write_text(json.dumps(cfg))
    assert gencomp("run", work / "cfg.json", "--out-dir", work).returncode == 0
    return cfg, json.loads((work / "trace.json").read_text())


@pytest.mark.parametrize("component", ["enumerator", "selector"])
@pytest.mark.parametrize("kind", sorted(MALFORMED_KINDS))
def test_malformed_kind_is_a_config_error(tmp_path, golden_trace, component, kind):
    bad = MALFORMED_KINDS[kind]
    cfg, doc = copy.deepcopy(golden_trace)
    for echo in (cfg, doc["config"]):
        echo["strategies"][0][component] = {"kind": bad}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "trace.json").write_text(json.dumps(doc))
    for args in (["run", tmp_path / "cfg.json", "--out-dir", tmp_path / "out"],
                 ["verify", tmp_path / "trace.json"]):
        proc = gencomp(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "config error: unknown %s kind %r\n" % (component, bad)
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
