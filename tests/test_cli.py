"""The command line contract, each case in a fresh interpreter so that a
SystemExit or a traceback would show: help exits 0, every usage error exits
2 with the usage on stderr, options take `--name value` and `--name=value`,
and outputs that cannot be written are a config error."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

CONFIG = {
    "version": 1,
    "scenario": "single-diagonal",
    "stages": 5,
    "strategies": [{"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "leftmost"}}],
}


def gencomp(*args):
    return subprocess.run(
        [sys.executable, "-m", "gencomp.cli", *map(str, args)],
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
