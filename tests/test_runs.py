"""Run sets against Python sets, and runs at the full 64-stage range.

At 64 stages an opponent that floods the prefix enumerates 2^63 elements
in one stage; the engine only stays inside memory because enumerations
are stored as runs.  Those runs happen in a child process under an
address-space cap, so a regression fails the test instead of exhausting
the machine.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.runs import clip, count_below, difference, elements, from_elements, hits, normalize, union

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

pairs = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=6)


def as_set(ps):
    return {n for lo, hi in ps for n in range(lo, hi)}


def is_run_set(runs):
    return all(lo < hi for lo, hi in runs) and all(
        a[1] < b[0] for a, b in zip(runs, runs[1:])
    )


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, st.integers(0, 45), st.integers(0, 45))
def test_run_operations_match_sets(ps, qs, lo, hi):
    a, b = normalize(ps), normalize(qs)
    assert is_run_set(a) and as_set(a) == as_set(ps)
    assert elements(a) == sorted(as_set(ps))
    assert from_elements(as_set(ps)) == a
    for got, want in (
        (union(a, b), as_set(ps) | as_set(qs)),
        (difference(a, b), as_set(ps) - as_set(qs)),
        (clip(a, lo, hi), {n for n in as_set(ps) if lo <= n < hi}),
    ):
        assert is_run_set(got) and as_set(got) == want
    assert hits(a, lo, hi) == any(lo <= n < hi for n in as_set(ps))
    assert count_below(a, lo) == sum(1 for n in as_set(ps) if n < lo)


def _run_capped(tmp_path, cfg, timeout=60):
    """`gencomp run` in a child limited to 1 GiB of address space."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from gencomp import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", str(cfg_path), "--out-dir", str(out)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"] and all(v["pass"] for v in report["verdicts"])
    return report, json.loads((out / "trace.json").read_text())


def test_flooder_at_64_stages_stays_in_memory(tmp_path):
    cfg = {"version": 1, "scenario": "single-diagonal", "stages": 64,
           "strategies": [{"enumerator": {"kind": "prefix-flooder"},
                           "selector": {"kind": "leftmost"}}]}
    report, trace = _run_capped(tmp_path, cfg)
    assert trace["records"][63]["batches"] == [[0, [[1 << 62, 1 << 63]]]]
    last = report["densities"][0]["block_end_densities"][-1]
    assert last == {"n": 1 << 64, "density": {"num": 1, "den": 2}}


def test_pair_catalog_at_64_stages(tmp_path):
    kinds = [("silent", "leftmost"), ("trap-springer", "leftmost"),
             ("cautious-copier", "leftmost"), ("prefix-flooder", "leftmost"),
             ("cautious-copier", "rightmost")]
    cfg = {"version": 1, "scenario": "pair-diagonal", "stages": 64,
           "strategies": [{"enumerator": {"kind": k}, "selector": {"kind": s}}
                          for k, s in kinds]}
    report, _ = _run_capped(tmp_path, cfg)
    assert [row["strategy"] for row in report["trap_tallies"]] == list(range(5))


@pytest.mark.parametrize("scenario, sides", [("pair-diagonal", ["x", "y"]),
                                             ("single-diagonal", ["x"])])
def test_value_censuses_at_64_stages(tmp_path, scenario, sides):
    # 32 silent strategies, alternately leftmost and rightmost: every side's
    # all-zeros and all-ones censuses are audited and reported, and their
    # omissions stay a few runs (the gaps along the oracle), not elements
    cfg = {"version": 1, "scenario": scenario, "stages": 64,
           "strategies": [{"enumerator": {"kind": "silent"}, "selector": {"kind": kind}}
                          for kind in ("leftmost", "rightmost") * 16]}
    report, _ = _run_capped(tmp_path, cfg)
    censuses = report["value_censuses"]
    assert [(row["side"], row["oracle_prefix"]) for row in censuses] == [
        (side, label) for side in sides for label in ("all-zeros", "all-ones")
    ]
    audited = [v["inputs"] for v in report["verdicts"] if v["invariant"] == "gap-census-consistency"]
    assert [(inputs["side"], inputs["prefix"]) for inputs in audited] == [
        (row["side"], {"all-zeros": "0", "all-ones": "1"}[row["oracle_prefix"]] * 63)
        for row in censuses
    ]
    for row in censuses:
        census = row["census"]
        assert census["i_max"] == 64 and len(census["omitted"]) <= 64
        assert any(e is not None for _, e in census["records"])


def test_normalize_merges_overlapping_and_adjacent_pairs():
    assert normalize([(5, 7), (0, 2), (2, 3), (6, 9), (4, 4), (8, 1)]) == ((0, 3), (5, 9))
    assert normalize([]) == () and normalize([(3, 3)]) == ()
    assert union(((0, 2),), ((2, 5), (7, 8))) == ((0, 5), (7, 8))


def test_from_elements_and_elements_round_trip():
    runs = from_elements([3, 1, 2, 7, 7, 9])
    assert runs == ((1, 4), (7, 8), (9, 10))
    assert elements(runs) == [1, 2, 3, 7, 9]
    assert from_elements([]) == () and elements(()) == []


def test_difference_examples():
    a = ((0, 10), (20, 25))
    assert difference(a, ((2, 4), (6, 7), (9, 21))) == ((0, 2), (4, 6), (7, 9), (21, 25))
    assert difference(a, ()) == a
    assert difference((), a) == ()
    assert difference(a, ((0, 30),)) == ()
    assert difference(a, ((10, 20),)) == a


def test_clip_and_hits_at_window_edges():
    runs = ((0, 3), (8, 9))
    assert clip(runs, 2, 9) == ((2, 3), (8, 9))
    assert clip(runs, 3, 8) == () and not hits(runs, 3, 8)
    assert hits(runs, 2, 8) and hits(runs, 8, 9)
    for lo, hi in ((5, 5), (6, 3), (9, 1)):
        assert clip(runs, lo, hi) == () and not hits(runs, lo, hi)


def test_count_below_examples():
    runs = ((1, 4), (7, 10))
    assert [count_below(runs, n) for n in (0, 1, 2, 4, 7, 8, 10, 100)] == [0, 0, 1, 3, 3, 4, 6, 6]
    assert count_below((), 50) == 0
