"""The byte contract under hash randomization: `PYTHONHASHSEED` reorders
sets of strings, so an artifact built by iterating one would change with
it.  Every pinned config is run and verified in a child interpreter under
two hash seeds, one child per seed; `portability.py` runs the same children
under other interpreters."""

import sys

from portability import PINNED, digests, finish, run_and_verify, start, write_configs


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    outs = {seed: write_configs(tmp_path / seed) for seed in ("0", "12345")}
    children = {seed: start(sys.executable, run_and_verify(o), hash_seed=seed) for seed, o in outs.items()}
    for seed, child in children.items():
        assert [code for code, _ in finish(child)] == [0] * (2 * len(PINNED)), seed
    for name in PINNED:
        for artifact in ("trace.json", "report.json"):
            assert (outs["0"][name] / artifact).read_bytes() == (outs["12345"][name] / artifact).read_bytes()
    assert digests(outs["0"]) == {name: tuple(pinned[1:]) for name, pinned in PINNED.items()}
