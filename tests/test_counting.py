"""Counting on run sets, checked against per-element oracles.

The report's block-end densities and trap tallies, the engine's trap
events, its level-hash inputs and the pair-mode level hits are computed on
enumerations stored as sorted (lo, hi) runs.  Each test expands the runs to
elements and recomputes them the way the engine once did, by probing every
integer or every (rule, element) pair, and requires equal results.  The
golden digests pin the emitted bytes: any drift needs a documented trace or
report format bump.  The expanded-content digests pin what a trace says,
independent of how its batches are written.
"""

import dataclasses
import hashlib
import json
import os
from fractions import Fraction

import pytest

from gencomp.density import gap_census, prefix_density
from gencomp.diagonal import (
    PAIR,
    GapRule,
    LevelContext,
    audit_single_victim,
    audit_verdicts,
    census_prefixes,
    default_probe_prefixes,
    functional_value_set,
    trace_from_jsonable,
)
from gencomp.harness import canonical_json, run_experiment

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

# scripted opponents that enumerate several separate runs into one gap in
# one stage: strategy 0's stage-3 gap is [8, 16), strategy 1's stage-4 and
# stage-5 gaps are [24, 32) and [48, 64)
SPLIT_GAPS_12 = {
    "version": 1,
    "scenario": "single-diagonal",
    "stages": 12,
    "strategies": [
        {"enumerator": {"kind": "scripted", "stages": {"4": [9, 11, 13, 14]}},
         "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "scripted", "stages": {"5": [29, 31], "6": [50, 52, 60]}},
         "selector": {"kind": "rightmost"}},
    ],
}

ORACLE_CASES = {
    "%s-%d" % (name, stages): dict(cfg, stages=stages)
    for name, cfg in (
        ("single", SINGLE_12), ("pair-catalog", PAIR_CATALOG_12), ("pair-scripted", PAIR_SCRIPTED_12),
        ("single-split", SPLIT_GAPS_12),
    )
    for stages in (5, 12)
}


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def run(request):
    cfg = ORACLE_CASES[request.param]
    report, doc = run_experiment(dict(cfg), write=False)
    return report, trace_from_jsonable(doc)


# --- the per-element oracles -------------------------------------------------


def expand(runs):
    return [n for lo, hi in runs for n in range(lo, hi)]


def expand_events(events):
    return [(e, gap_stage, n) for e, gap_stage, lo, hi in events for n in range(lo, hi)]


def oracle_densities(trace, e):
    elems = set(expand(trace.enumerated_through(e, trace.stages - 1)))
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
            for n in expand(rec.batches[e]):
                if rule.gap_lo <= n < rule.gap_hi:
                    events.append((e, rule.stage, n))
    return events


def oracle_hits(mode, l, enum, xt, yt=None):
    """Level hits scanning every block and every rule (or rule pair)."""
    def hit(lo, hi):
        return any(lo <= n < hi for n in enum)

    if mode != PAIR:
        return tuple((r.node,) for r in xt.rules if r.stage <= l - 1 and hit(r.gap_lo, r.gap_hi))
    return tuple(
        (rx.node, ry.node)
        for s in range(min(l, xt.defined_through + 1))
        for rx in xt.rules_at_block(s)
        for ry in yt.rules_at_block(s)
        if hit(max(rx.gap_lo, ry.gap_lo), rx.gap_hi)
    )


def oracle_level_hash(trace, e, stage):
    """The level hash of strategy e's act at `stage`, from the rules issued
    before it and the maximal runs of a filtered element scan."""
    l = stage - 1
    rules = sorted(
        (r.e, r.stage, r.node, r.side) for r in trace.x_rules + trace.y_rules if r.stage < stage
    )
    enum = []
    for n in sorted(n for n in expand(trace.enumerated_through(e, l)) if n < (1 << l)):
        if enum and enum[-1][1] == n:
            enum[-1][1] = n + 1
        else:
            enum.append([n, n + 1])
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
        elems = expand(trace.enumerated_through(e, trace.stages - 1))
        sprung = any(rules[0].gap_lo <= n < rules[0].gap_hi for n in elems)
        tally["sprung" if sprung else "pending"] += 1
    return tally


def oracle_single_victim(trace, e, probes):
    """The single-victim audit as first written: mind changes from a scan
    of the stage records, the lcp maximized over every approximation."""
    def extends(node, prev):
        return all(a.startswith(b) for a, b in zip(node, prev))

    approxes = [
        (rec.stage, rec.info[e]["approx"]) for rec in trace.records
        if e in rec.info and rec.info[e]["approx"] is not None
    ]
    if not approxes:
        return []
    changes, last_change, prev = 0, None, None
    for stage, node in approxes:
        if prev is None or not extends(node, prev):
            changes, last_change = changes + 1, stage
        prev = node
    bad = []
    final = trace.final_approx[e]
    for m in trace.markers[e]:
        if m.stage >= last_change and not extends(final, m.node):
            bad.append("late marker %r not on the final path (strategy %d)" % (m.node, e))
    for probe in probes:
        gaps = sum(1 for r in trace.x_rules if r.e == e and probe[0].startswith(r.node))
        lcp = max(len(os.path.commonprefix([probe[0], node[0]])) for _, node in approxes)
        if gaps > changes + lcp:
            bad.append(
                "gap count %d exceeds changes %d + lcp %d along %r (strategy %d)"
                % (gaps, changes, lcp, probe, e)
            )
    return bad


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
        assert expand_events(rec.trap_events) == oracle_trap_events(trace, rec)
        # each event is a maximal run of the batch inside the rule's gap
        for e, gap_stage, lo, hi in rec.trap_events:
            rule = next(r for r in trace.x_rules if (r.e, r.stage) == (e, gap_stage))
            batch = set(expand(rec.batches[e]))
            assert rule.gap_lo <= lo < hi <= rule.gap_hi
            assert lo == rule.gap_lo or lo - 1 not in batch
            assert hi == rule.gap_hi or hi not in batch


def test_batches_are_new_run_sets(run):
    _, trace = run
    seen = {e: set() for e in range(trace.strategy_count)}
    for rec in trace.records:
        for e, batch in rec.batches.items():
            assert all(lo < hi for lo, hi in batch)
            assert all(a[1] < b[0] for a, b in zip(batch, batch[1:])), batch
            assert not seen[e] & set(expand(batch))
            seen[e] |= set(expand(batch))
    for e in seen:
        assert seen[e] == set(expand(trace.enumerated_final(e)))


def test_level_hits_match_unskipped_scan(run):
    _, trace = run
    tables = trace.tables()
    for e in range(trace.strategy_count):
        for l in range(trace.stages):
            enum = trace.enumerated_through(e, l)
            ctx = LevelContext(l, enum, tables)
            assert ctx.hits == oracle_hits(trace.mode, l, expand(enum), *tables), (e, l)


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


def test_single_victim_matches_max_over_all_approximations(run):
    # the audit compares each probe with the last approximation of each
    # extension chain only; rules under the root, more than any bound of
    # changes + lcp <= 2 * stages, make every probe report its bound
    _, trace = run
    for e in range(trace.strategy_count):
        probes = default_probe_prefixes(trace, e)
        extra = tuple(GapRule(e, trace.stages + e + k, "") for k in range(2 * trace.stages + 1))
        crowded = dataclasses.replace(trace, x_rules=trace.x_rules + extra)
        assert audit_single_victim(trace, e, probes) == oracle_single_victim(trace, e, probes)
        reported = audit_single_victim(crowded, e, probes)
        assert reported == oracle_single_victim(crowded, e, probes)
        assert len(reported) == len(probes)


def test_registry_verdicts_are_the_report_verdicts(run):
    report, trace = run
    assert [
        {"invariant": name, "pass": not bad, "inputs": inputs}
        for name, inputs, bad in audit_verdicts(trace)
    ] == report["verdicts"]
    censuses = []
    for label, prefix in census_prefixes(trace):
        values = functional_value_set(trace, prefix)
        census = gap_census(lambda n: n in values, trace.defined_through + 1)
        censuses.append({"oracle_prefix": label, "census": census.to_jsonable()})
    assert censuses == report["value_censuses"]
    assert len(censuses) == (2 if trace.mode != PAIR else 0)


def test_oracle_cases_exercise_every_branch():
    """The cases above hit trap events, sprung and pending traps, pair
    hits, pair blocks skipped for lack of elements although they carry
    rules, and several event runs for one gap in one stage."""
    _, doc = run_experiment(dict(SPLIT_GAPS_12), write=False)
    split = [
        [lo for e, gap_stage, lo, hi in rec.trap_events if (e, gap_stage) == key]
        for rec in trace_from_jsonable(doc).records
        for key in {(e, gap_stage) for e, gap_stage, _, _ in rec.trap_events}
    ]
    assert sorted(len(runs) for runs in split) == [2, 3, 3]
    _, doc = run_experiment(dict(PAIR_SCRIPTED_12), write=False)
    trace = trace_from_jsonable(doc)
    assert any(rec.trap_events for rec in trace.records)
    xt, yt = tables = trace.tables()
    hits = skipped = 0
    for e in range(trace.strategy_count):
        enum = trace.enumerated_through(e, trace.stages - 1)
        hits += len(LevelContext(trace.stages - 1, enum, tables).hits)
        skipped += sum(
            1 for s in range(trace.stages - 1)
            if xt.rules_at_block(s) and not any(1 << s <= n < 2 << s for n in expand(enum))
        )
    assert hits and skipped
    tallies = [oracle_tally(trace, e) for e in range(trace.strategy_count)]
    assert any(t["sprung"] for t in tallies) and any(t["pending"] for t in tallies)


# --- golden content and bytes ------------------------------------------------


def expanded_content_digest(doc):
    """SHA-256 of what a diagonal trace records, with every run expanded to
    its elements and level hashes (whose input format is versioned) left
    out: header, batches, rules, per-strategy records, trap events as
    (e, gap_stage, element) and the final block."""
    body = {
        "head": [doc["mode"], doc["stages"], doc["strategy_count"], doc["defined_through"],
                 doc["config"]],
        "records": [
            [
                rec["stage"],
                [[e, expand(batch)] for e, batch in rec["batches"]],
                rec["rules"],
                [[e, {k: v for k, v in info.items() if k != "level_hash"}]
                 for e, info in rec["strategies"]],
                [list(t) for t in expand_events(rec["trap_events"])],
            ]
            for rec in doc["records"]
        ],
        "final": doc["final"],
    }
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


# (config, expanded content digest, trace.json digest, report.json digest).
# The content digests were computed from the gencomp-trace/1 traces, whose
# batches and trap events listed single elements, so they pin that the run
# format says the same as the element format did.  The trace.json digests
# are of the gencomp-trace/2 bytes; the report digests are unchanged
# since they were first recorded with per-element probing.
GOLDEN = {
    "pair-catalog-12": (
        PAIR_CATALOG_12,
        "4198dd4dd927c614199139fd55d8a3252b6476e266cebde8ce61c62b640a515d",
        "daadf275f03c27b0b6e9533969c7e41927faad6600ec26105cd669a47fc3e729",
        "3fd817e16c07ac4387991b04ef7b8f93d1ae7b5fd535801c8b2f82f19d6978e3",
    ),
    "single-diagonal-12": (
        SINGLE_12,
        "dc0091b38bf69fd34468ba8e41ce7be4bf6682a189903b799584f17adf57db4e",
        "0ff823063b5f9ef30ef1d96bb22ff2e5d467718ae0424e49fba84365efacf9de",
        "625249411c777c5b9df2f196abc84b46c101d37a4795e31c2209c39d5a3021b4",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_expanded_content(name):
    cfg, content_sha, _, _ = GOLDEN[name]
    _, doc = run_experiment(dict(cfg), write=False)
    assert doc["format"] == "gencomp-trace/2"
    assert expanded_content_digest(doc) == content_sha


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifact_digests(tmp_path, name):
    cfg, _, trace_sha, report_sha = GOLDEN[name]
    run_experiment(dict(cfg), out_dir=str(tmp_path))
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()  # noqa: E731
    assert digest("trace.json") == trace_sha
    assert digest("report.json") == report_sha
