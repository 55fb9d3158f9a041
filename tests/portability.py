"""Byte portability of gencomp's artifacts across interpreters.

    python tests/portability.py PYTHON [PYTHON ...]

Runs `gencomp run`, then `gencomp verify`, on every `ARTIFACT_GOLDEN`
config and on a mixed 32-strategy pair config at 64 stages, once under each
interpreter given, in one child process per interpreter.  Each artifact
must have its pinned SHA-256, and each interpreter's traces must then
verify under the next interpreter of the list (the last one's under the
first).  Prints one line per interpreter and exits 1 on any difference.

The script itself imports the test modules, so the interpreter that runs
it needs pytest and hypothesis; the interpreters it is given need no test
packages, since a child imports only `src/`.
Children run with `PYTHONDONTWRITEBYTECODE=1`, so no interpreter leaves
bytecode in the checkout.  `tests/test_portability.py` runs the same
children under one interpreter with two `PYTHONHASHSEED` values.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")
sys.path[:0] = [SRC, str(TESTS)]

from test_counting import ARTIFACT_GOLDEN  # noqa: E402
from test_runs import _mixed_config  # noqa: E402

# (config, trace.json digest, report.json digest), as ARTIFACT_GOLDEN
PINNED = dict(ARTIFACT_GOLDEN)
PINNED["mixed-pair-64"] = (
    _mixed_config("pair-diagonal", 0),
    "9edae10ba87f5e710066c55956afb4538f2857f42349cb88cbbc6f3102ed1970",
    "9739e25f2e10048f9b5f46ca0c3ba453a6efbfd2ce54714d85a9a7def3e9046b",
)

# runs each argv of the JSON list sys.argv[1] through the CLI and prints
# one [exit code, stdout] pair per argv, as JSON
_CHILD = """
import contextlib, io, json, sys
from gencomp import cli
done = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    done.append([code, out.getvalue()])
print(json.dumps(done))
"""


def start(python: str, argvs: list, hash_seed: str = "0") -> subprocess.Popen:
    """A child of `python` that runs each argv through the CLI."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([python, "-c", _CHILD, json.dumps(argvs)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(child: subprocess.Popen) -> list:
    """The [exit code, stdout] of each argv a child ran."""
    out, err = child.communicate()
    if child.returncode:
        raise RuntimeError("child exited %d: %s" % (child.returncode, err))
    return json.loads(out)


def write_configs(root: Path) -> dict:
    """Each pinned config as root/<name>.json; returns name -> its output
    directory."""
    root.mkdir(parents=True, exist_ok=True)
    outs = {}
    for name, (cfg, _, _) in sorted(PINNED.items()):
        (root / ("%s.json" % name)).write_text(json.dumps(cfg))
        outs[name] = root / name
    return outs


def run_and_verify(outs: dict) -> list:
    """The argvs that run each config and verify its trace."""
    argvs = []
    for name, out in outs.items():
        argvs.append(["run", str(out) + ".json", "--out-dir", str(out)])
        argvs.append(["verify", str(out / "trace.json")])
    return argvs


def digests(outs: dict) -> dict:
    """name -> (trace.json digest, report.json digest)."""
    sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()  # noqa: E731
    return {name: (sha(out / "trace.json"), sha(out / "report.json")) for name, out in outs.items()}


def problems(pythons: list, root: Path) -> list:
    """Run and verify every pinned config under each interpreter, then
    verify its traces under the next one; returns what differed."""
    roots = [root / str(i) for i in range(len(pythons))]
    outs = [write_configs(r) for r in roots]
    bad = []
    children = [start(python, run_and_verify(o)) for python, o in zip(pythons, outs)]
    for python, o, child in zip(pythons, outs, children):
        for (code, printed), argv in zip(finish(child), run_and_verify(o)):
            if code:
                bad.append("%s: %s exited %d: %s" % (python, " ".join(argv[:2]), code, printed.strip()))
        for name, pair in digests(o).items():
            if pair != PINNED[name][1:]:
                bad.append("%s: %s artifacts %s, pinned %s" % (python, name, pair, PINNED[name][1:]))
    checks = []
    for i, python in enumerate(pythons):
        other = pythons[(i + 1) % len(pythons)]
        argvs = [["verify", str(out / "trace.json")] for out in outs[i].values()]
        checks.append((python, other, argvs, start(other, argvs)))
    for python, other, argvs, child in checks:
        for (code, printed), argv in zip(finish(child), argvs):
            if code:
                bad.append("%s trace %s under %s: exit %d: %s" % (python, argv[1], other, code, printed.strip()))
    return bad


def main(argv=None) -> int:
    pythons = sys.argv[1:] if argv is None else argv
    if not pythons:
        print(__doc__.strip().splitlines()[0].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        bad = problems(pythons, Path(tmp))
    for python in pythons:
        version = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"],
                                 capture_output=True, text=True).stdout.strip()
        mine = [line for line in bad if line.startswith(python)]
        print("%s (%s): %s" % (python, version, "; ".join(mine) if mine else
                               "%d configs byte-identical to their pins, verified here and elsewhere"
                               % len(PINNED)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
