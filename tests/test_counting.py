"""Counting on sorted enumerations, checked against per-element oracles.

The report's block-end densities and trap tallies, the engine's trap
events, its level-hash inputs and the pair-mode level hits are counted with
`bisect` on sorted enumerations.  Each test recomputes them the way the engine used to, by
probing every integer or every (rule, element) pair, and requires equal
results.  The golden digests pin the emitted bytes: any drift needs a
documented trace or report format bump.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from gencomp.density import prefix_density
from gencomp.diagonal import PAIR, LevelContext, trace_from_jsonable
from gencomp.harness import run_experiment

PAIR_CATALOG_12 = {
    "version": 1,
    "scenario": "pair-diagonal",
    "stages": 12,
    "strategies": [
        {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "cautious-copier"}, "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "prefix-flooder"}, "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "cautious-copier"}, "selector": {"kind": "rightmost"}},
    ],
}

# enumerates below its earlier elements, always in the lower half of a block,
# which no gap reaches: the strategy stays alive and keeps acting
LOW_HALVES = {
    "enumerator": {"kind": "scripted", "stages": {"4": [16, 20], "6": [40, 33], "8": [9, 4, 17]}},
    "selector": {"kind": "rightmost"},
}

SINGLE_12 = {
    "version": 1,
    "scenario": "single-diagonal",
    "stages": 12,
    "strategies": [
        {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "rightmost"}},
        {"enumerator": {"kind": "cautious-copier"}, "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "silent"},
         "selector": {"kind": "scripted", "entries": [[2, "1"], [6, "0110"]]}},
        {"enumerator": {"kind": "scripted", "stages": {"3": [9, 13], "7": [70, 100, 127]}},
         "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "prefix-flooder"}, "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "cautious-copier"}, "selector": {"kind": "rightmost"}},
        LOW_HALVES,
    ],
}

# scripted opponents that enumerate into some blocks and skip others (the
# last one only the top element of a block), next to a scripted mind change
# on a silent opponent
PAIR_SCRIPTED_12 = {
    "version": 1,
    "scenario": "pair-diagonal",
    "stages": 12,
    "strategies": [
        {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "rightmost"}},
        {"enumerator": {"kind": "scripted", "stages": {"3": [9, 13, 15], "8": [200, 255, 600]}},
         "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "silent"},
         "selector": {"kind": "scripted", "entries": [[3, ["11", "01"]], [7, ["0110", "1"]]]}},
        LOW_HALVES,
        {"enumerator": {"kind": "scripted", "stages": {"5": [63], "7": [127, 31]}},
         "selector": {"kind": "leftmost"}},
    ],
}

ORACLE_CASES = {
    "%s-%d" % (name, stages): dict(cfg, stages=stages)
    for name, cfg in (
        ("single", SINGLE_12), ("pair-catalog", PAIR_CATALOG_12), ("pair-scripted", PAIR_SCRIPTED_12)
    )
    for stages in (5, 12)
}


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def run(request):
    cfg = ORACLE_CASES[request.param]
    report, doc = run_experiment(dict(cfg), write=False)
    return report, trace_from_jsonable(doc)


# --- the per-element oracles -------------------------------------------------


def oracle_densities(trace, e):
    elems = set(trace.enumerated_through(e, trace.stages - 1))
    return [
        (1 << (i + 1), prefix_density(lambda k: k in elems, 1 << (i + 1)))
        for i in range(trace.defined_through + 1)
    ]


def oracle_trap_events(trace, rec):
    """Every x-rule issued before the stage against every new element."""
    earlier = [r for r in trace.x_rules if r.stage < rec.stage]
    events = []
    for e in sorted(rec.batches):
        for rule in earlier:
            if rule.e != e:
                continue
            for n in rec.batches[e]:
                if rule.gap_lo <= n < rule.gap_hi:
                    events.append((e, rule.stage, n))
    return events


def oracle_hits(mode, l, enum, xt, yt):
    """Level hits scanning every block and every rule (or rule pair)."""
    def hit(lo, hi):
        return any(lo <= n < hi for n in enum)

    if mode != PAIR:
        return tuple(r.node for r in xt.rules if r.stage <= l - 1 and hit(r.gap_lo, r.gap_hi))
    return tuple(
        (rx.node, ry.node)
        for s in range(min(l, xt.defined_through + 1))
        for rx in xt.rules_at_block(s)
        for ry in yt.rules_at_block(s)
        if hit(max(rx.gap_lo, ry.gap_lo), rx.gap_hi)
    )


def oracle_level_hash(trace, e, stage):
    """The level hash of strategy e's act at `stage`, from the rules issued
    before it and a filtered scan of the sorted enumeration."""
    l = stage - 1
    rules = sorted(
        (r.e, r.stage, r.node, r.side) for r in trace.x_rules + trace.y_rules if r.stage < stage
    )
    enum = [n for n in trace.enumerated_through(e, l) if n < (1 << l)]
    payload = {"e": e, "l": l, "rules": rules, "enum": enum}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def oracle_tally(trace, e):
    tally = {"pending": 0, "sprung": 0, "inactive": 0}
    for s in range(trace.stages):
        rules = [r for r in trace.x_rules if r.e == e and r.stage == s]
        if not rules:
            tally["inactive"] += 1
            continue
        elems = trace.enumerated_through(e, trace.stages - 1)
        sprung = any(rules[0].gap_lo <= n < rules[0].gap_hi for n in elems)
        tally["sprung" if sprung else "pending"] += 1
    return tally


# --- new counting == oracle --------------------------------------------------


def test_block_end_densities_match_probing(run):
    report, trace = run
    for entry in report["densities"]:
        got = [
            (row["n"], Fraction(row["density"]["num"], row["density"]["den"]))
            for row in entry["block_end_densities"]
        ]
        assert got == oracle_densities(trace, entry["strategy"])


def test_trap_events_match_all_pairs_scan(run):
    _, trace = run
    for rec in trace.records:
        assert list(rec.trap_events) == oracle_trap_events(trace, rec)


def test_level_hits_match_unskipped_scan(run):
    _, trace = run
    xt, yt = trace.x_table(), trace.y_table()
    for e in range(trace.strategy_count):
        for l in range(trace.stages):
            enum = trace.enumerated_through(e, l)
            ctx = LevelContext(trace.mode, l, enum, xt, yt)
            assert ctx.hits == oracle_hits(trace.mode, l, enum, xt, yt), (e, l)


def test_level_hashes_match_filtered_scan(run):
    _, trace = run
    checked = 0
    for rec in trace.records:
        for e, info in rec.info.items():
            if info["level_hash"] is not None:
                assert info["level_hash"] == oracle_level_hash(trace, e, rec.stage), (e, rec.stage)
                checked += 1
    assert checked


def test_trap_tallies_match_recount(run):
    report, trace = run
    for row in report["trap_tallies"]:
        e = row["strategy"]
        assert {k: row[k] for k in ("pending", "sprung", "inactive")} == oracle_tally(trace, e)


def test_oracle_cases_exercise_every_branch():
    """The cases above hit trap events, sprung and pending traps, pair
    hits, and pair blocks skipped for lack of elements although they
    carry rules."""
    _, doc = run_experiment(dict(PAIR_SCRIPTED_12), write=False)
    trace = trace_from_jsonable(doc)
    assert any(rec.trap_events for rec in trace.records)
    xt, yt = trace.x_table(), trace.y_table()
    hits = skipped = 0
    for e in range(trace.strategy_count):
        enum = trace.enumerated_through(e, trace.stages - 1)
        hits += len(LevelContext(PAIR, trace.stages - 1, enum, xt, yt).hits)
        skipped += sum(
            1 for s in range(trace.stages - 1)
            if xt.rules_at_block(s) and not any(1 << s <= n < 2 << s for n in enum)
        )
    assert hits and skipped
    tallies = [oracle_tally(trace, e) for e in range(trace.strategy_count)]
    assert any(t["sprung"] for t in tallies) and any(t["pending"] for t in tallies)


# --- golden bytes ------------------------------------------------------------

# recorded with the per-element probing code that the sorted counting replaced
GOLDEN = {
    "pair-catalog-12": (
        PAIR_CATALOG_12,
        "b39fb21967c93b869a65c0fd4b6a21f5fbd68a10e3e3682954406de2701e1aad",
        "3fd817e16c07ac4387991b04ef7b8f93d1ae7b5fd535801c8b2f82f19d6978e3",
    ),
    "single-diagonal-12": (
        SINGLE_12,
        "b5bc644f9b90b949032907f99c7dab1bf6d9b1c203453600ac6039205cda13f3",
        "625249411c777c5b9df2f196abc84b46c101d37a4795e31c2209c39d5a3021b4",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifact_digests(tmp_path, name):
    cfg, trace_sha, report_sha = GOLDEN[name]
    run_experiment(dict(cfg), out_dir=str(tmp_path))
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()  # noqa: E731
    assert digest("trace.json") == trace_sha
    assert digest("report.json") == report_sha
