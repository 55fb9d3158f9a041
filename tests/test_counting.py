"""Counting on run sets, checked against per-element oracles.

The report's block-end densities and trap tallies, the engine's trap
events and the pair-mode level hits are computed on enumerations stored as
sorted (lo, hi) runs.  Each test expands the runs to elements and
recomputes them the way the engine once did, by probing every integer or
every (rule, element) pair, and requires equal results.  The
golden digests pin the emitted bytes: any drift needs a documented trace or
report format bump.  The expanded-content digests pin what a trace says,
independent of how its batches are written.
"""

import functools
import hashlib
import itertools
import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.density import gap_census, gap_interval, prefix_density
from gencomp.diagonal import (
    PAIR,
    LevelContext,
    RunConfig,
    StageRecord,
    StrategySpec,
    Trace,
    _stage,
    audit_single_victim,
    audit_spoiling,
    audit_trap_soundness,
    audit_trace,
    audit_verdicts,
    census_prefixes,
    default_probe_prefixes,
    find_survivor,
    functional_value_set,
    run_construction,
    trace_from_jsonable,
    trace_to_jsonable,
)
from gencomp.errors import BudgetError, InvariantViolationError, UndefinedInputError
from gencomp.harness import (
    DIAGONAL_MODES,
    SCENARIOS,
    canonical_json,
    load_enumerator,
    load_selector,
    report_passes,
    run_experiment,
    validate_config,
)
from gencomp.runs import clip, union
from oracles import elements
from reference_engine import survivor_extending
from test_diagonal import _round_trip_runs, with_extra_acts

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
    report, doc = run_experiment(cfg)
    return report, trace_from_jsonable(doc)


# --- the per-element oracles -------------------------------------------------


def expand(runs):
    return [n for lo, hi in runs for n in range(lo, hi)]


def expand_events(events):
    return [(e, gap_stage, n) for e, gap_stage, lo, hi in events for n in range(lo, hi)]


def oracle_densities(trace, e):
    elems = set(expand(trace.enumerated_through(e, len(trace.records) - 1)))
    return [
        (1 << (i + 1), prefix_density(lambda k: k in elems, 1 << (i + 1)))
        for i in range(trace.defined_through + 1)
    ]


def acts_of(trace, records=None):
    """Every act as (stage, e, gap, marker), in record and then act order."""
    return [(rec.stage, e, gap_interval(rec.stage, e), marker)
            for rec in (trace.records if records is None else records)
            for e, (_, marker) in rec.acts.items()]


def oracle_trap_events(trace, rec):
    """Every act issued before the stage (its x-side rule) against every
    new element."""
    earlier = acts_of(trace, trace.records[:rec.stage])
    events = []
    for e in sorted(rec.batches):
        for stage, f, (lo, hi), _ in earlier:
            if f != e:
                continue
            for n in expand(rec.batches[e]):
                if lo <= n < hi:
                    events.append((e, stage, n))
    return events


def oracle_hits(trace, l, enum):
    """Level hits scanning every block and every act (or act pair)."""
    def hit(lo, hi):
        return any(lo <= n < hi for n in enum)

    acts = acts_of(trace, trace.records[:l])
    if trace.mode != PAIR:
        return tuple((marker[0],) for _, _, gap, marker in acts if hit(*gap))
    return tuple(
        (mx[0], my[1])
        for s in range(l)
        for sx, _, gx, mx in acts if sx == s
        for sy, _, gy, my in acts if sy == s
        if hit(max(gx[0], gy[0]), gx[1])
    )


def oracle_tally(trace, e):
    tally = {"pending": 0, "sprung": 0, "inactive": 0}
    for s in range(len(trace.records)):
        gaps = [gap for stage, f, gap, _ in acts_of(trace) if (f, stage) == (e, s)]
        if not gaps:
            tally["inactive"] += 1
            continue
        elems = expand(trace.enumerated_through(e, len(trace.records) - 1))
        lo, hi = gaps[0]
        sprung = any(lo <= n < hi for n in elems)
        tally["sprung" if sprung else "pending"] += 1
    return tally


def oracle_single_victim(trace, e, probes):
    """The single-victim audit as first written: mind changes from a scan
    of the stage records, the lcp maximized over every approximation."""
    def extends(node, prev):
        return all(a.startswith(b) for a, b in zip(node, prev))

    approxes = [(rec.stage, rec.acts[e][0]) for rec in trace.records if e in rec.acts]
    if not approxes:
        return []
    changes, last_change, prev = 0, None, None
    for stage, node in approxes:
        if prev is None or not extends(node, prev):
            changes, last_change = changes + 1, stage
        prev = node
    bad = []
    final = trace.final_approx[e]
    for stage, marker in trace.markers[e]:
        if stage >= last_change and not extends(final, marker):
            bad.append("late marker %r not on the final path (strategy %d)" % (marker, e))
    for probe in probes:
        gaps = sum(1 for _, f, _, marker in acts_of(trace) if f == e and probe[0].startswith(marker[0]))
        lcp = max(len(os.path.commonprefix([probe[0], node[0]])) for _, node in approxes)
        if gaps > changes + lcp:
            bad.append(
                "gap count %d exceeds changes %d + lcp %d along %r (strategy %d)"
                % (gaps, changes, lcp, probe, e)
            )
    return bad


def oracle_trap_soundness(trace):
    """After a trap is sprung, no surviving node extends the trapped one."""
    bad = []
    for rec in trace.records:
        for e, gap_stage, lo, hi in rec.trap_events:
            node = next((marker for stage, f, _, marker in acts_of(trace) if (f, stage) == (e, gap_stage)), None)
            if node is None:
                bad.append(
                    "trap event (%d, %d, [%d, %d)) references a rule the trace does not contain"
                    % (e, gap_stage, lo, hi)
                )
                continue
            for later in trace.records:
                if later.stage <= rec.stage:
                    continue
                if e not in later.acts and e not in later.deaths:
                    continue
                l = later.stage - 1
                if len(node[0]) > l:
                    continue
                if survivor_extending(trace, e, l, node) is not None:
                    bad.append(
                        "survivor extends trapped node %r at stage %d (strategy %d)"
                        % (node, later.stage, e)
                    )
    return bad


def oracle_spoiling(trace, brute_max: int = 12):
    """A dead strategy's final level is empty, and (levels of at most
    `brute_max` bits over all sides) every node has a witness: an
    enumerated element that every side definitely excludes."""
    bad = []
    k = len(trace.sides)
    for e, died_at in trace.death_stage.items():
        if died_at is None:
            continue
        l = died_at - 1
        ctx = LevelContext(l, trace.enumerated_through(e, l), trace)
        if find_survivor(ctx) is not None:
            bad.append("dead strategy %d still has a level-%d survivor" % (e, l))
        if k * l <= brute_max:
            enum = elements(clip(trace.enumerated_through(e, l), 0, 1 << l))
            for v in range(1 << (k * l)):
                bits = format(v, "0%db" % (k * l)) if l else ""
                node = tuple(bits[i * l:(i + 1) * l] for i in range(k))
                witnessed = any(
                    n == 0 or all(trace.evaluate(i, side, n) == 0 for i, side in enumerate(node))
                    for n in enum
                )
                if not witnessed:
                    bad.append("no spoiling witness for %r (strategy %d)" % (node, e))
    return bad


# --- new counting == oracle --------------------------------------------------


def test_block_end_densities_match_probing(run):
    report, trace = run
    for entry in report["densities"]:
        got = [(2 << i, Fraction(c, 2 << i)) for i, c in enumerate(entry["block_end_counts"])]
        assert got == oracle_densities(trace, entry["strategy"])


def test_trap_events_match_all_pairs_scan(run):
    _, trace = run
    for rec in trace.records:
        assert expand_events(rec.trap_events) == oracle_trap_events(trace, rec)
        # each event is a maximal run of the batch inside the rule's gap
        for e, gap_stage, lo, hi in rec.trap_events:
            assert e in trace.records[gap_stage].acts
            batch = set(expand(rec.batches[e]))
            gap_lo, gap_hi = gap_interval(gap_stage, e)
            assert gap_lo <= lo < hi <= gap_hi
            assert lo == gap_lo or lo - 1 not in batch
            assert hi == gap_hi or hi not in batch


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
        assert seen[e] == set(expand(trace.enumerated[e]))


def test_level_hits_match_unskipped_scan(run):
    _, trace = run
    for e in range(trace.strategy_count):
        for l in range(len(trace.records)):
            enum = trace.enumerated_through(e, l)
            ctx = LevelContext(l, enum, trace)
            # each hit, one block's strings per side, expands back into
            # the act tuples of the scan, in the scan's order
            pairs = tuple(combo for hit in ctx.hits for combo in itertools.product(*hit))
            assert pairs == oracle_hits(trace, l, expand(enum)), (e, l)


def test_trap_tallies_match_recount(run):
    report, trace = run
    for row in report["trap_tallies"]:
        e = row["strategy"]
        assert {k: row[k] for k in ("pending", "sprung", "inactive")} == oracle_tally(trace, e)


def test_single_victim_matches_max_over_all_approximations(run):
    # the audit compares each probe with the last approximation of each
    # extension chain only; acts marking the root, more than any bound of
    # changes + lcp <= 2 * stages, make every probe report its bound
    _, trace = run
    for e in range(trace.strategy_count):
        probes = default_probe_prefixes(trace, e)
        assert audit_single_victim(trace, e, probes) == oracle_single_victim(trace, e, probes)
        if trace.final_approx[e] is None:
            assert probes == []  # a strategy that never acted has nothing to crowd
            continue
        crowded = with_extra_acts(trace, e, 2 * len(trace.records) + 1)
        reported = audit_single_victim(crowded, e, probes)
        assert reported == oracle_single_victim(crowded, e, probes)
        assert len(reported) == len(probes)


def without_batch(trace, stage, e):
    """The trace with strategy e's batch of `stage` dropped, every other
    record kept as it is."""
    rec = trace.records[stage]
    batches = {k: runs for k, runs in rec.batches.items() if k != e}
    dropped = StageRecord(rec.stage, batches, rec.acts, rec.deaths, rec.trap_events)
    records = trace.records[:stage] + [dropped] + trace.records[stage + 1:]
    return Trace(trace.mode, records, trace.config_echo)


WITNESS_AUDITS = ((audit_trap_soundness, oracle_trap_soundness), (audit_spoiling, oracle_spoiling))


def check_witness_audits_against_oracles(trace):
    """The witness audits pass exactly when the DFS oracles do, and they
    report whenever an oracle does on two doctored copies: one without the
    batch behind the first trap event, one without the last batch a dead
    strategy enumerated before its final level."""
    for audit, oracle in WITNESS_AUDITS:
        assert bool(audit(trace)) == bool(oracle(trace)), audit.__name__
    sprung = [rec for rec in trace.records if rec.trap_events]
    doctored = [without_batch(trace, rec.stage, rec.trap_events[0][0]) for rec in sprung[:1]]
    for e, died_at in sorted(trace.death_stage.items()):
        if died_at is not None:
            spoiler = max(rec.stage for rec in trace.records[:died_at] if rec.batches.get(e))
            doctored.append(without_batch(trace, spoiler, e))
            break
    for bad in doctored:
        for audit, oracle in WITNESS_AUDITS:
            assert audit(bad) or not oracle(bad), audit.__name__
    return doctored


@given(_round_trip_runs())
@settings(max_examples=100, deadline=None)
def test_witness_audits_agree_with_the_dfs_oracles(trace):
    check_witness_audits_against_oracles(trace)


def test_witness_audits_agree_with_the_dfs_oracles_on_the_oracle_cases(run):
    _, trace = run
    assert check_witness_audits_against_oracles(trace)


def test_value_sets_match_per_n_evaluation(run):
    # the value set is computed from the gaps of the rules comparable with
    # the prefix; the oracle evaluates every n below the horizon, and the
    # short prefixes leave deeper rules undecided (None: outside the set)
    _, trace = run
    horizon = 1 << (trace.defined_through + 1)
    undecided = 0
    for i in range(len(trace.sides)):
        nodes = [marker[i] for _, _, _, marker in acts_of(trace)]
        depth = max(map(len, nodes), default=0)
        prefixes = {bit * k for bit in "01" for k in (0, depth // 2, trace.defined_through)}
        for node in trace.final_approx.values():
            if node is not None:
                prefixes |= {node[0][: depth // 2], node[0]}
        for prefix in sorted(prefixes):
            values = {n for n in range(1, horizon) if trace.evaluate(i, prefix, n) == 1}
            assert set(expand(functional_value_set(trace, prefix, i))) == values, (i, prefix)
            undecided += sum(1 for node in nodes if len(node) > len(prefix) and node.startswith(prefix))
    assert undecided


def test_registry_verdicts_are_the_report_verdicts(run):
    report, trace = run
    assert [
        {"invariant": name, "pass": not bad, "inputs": inputs}
        for name, inputs, bad in audit_verdicts(trace)
    ] == report["verdicts"]
    censuses = []
    for label, i, prefix in census_prefixes(trace):
        # 0 lies in no block, so the value set is censused with 0 counted in
        values = union(((0, 1),), functional_value_set(trace, prefix, i))
        census = gap_census(values, trace.defined_through + 1)
        censuses.append({"oracle_prefix": label, "side": trace.sides[i], "census": census.to_jsonable()})
    assert censuses == report["value_censuses"]
    assert len(censuses) == 2 * len(trace.sides)


def test_oracle_cases_exercise_every_branch():
    """The cases above hit trap events, sprung and pending traps, pair
    hits, pair blocks skipped for lack of elements although they carry
    rules, and several event runs for one gap in one stage."""
    _, doc = run_experiment(SPLIT_GAPS_12)
    split = [
        [lo for e, gap_stage, lo, hi in rec.trap_events if (e, gap_stage) == key]
        for rec in trace_from_jsonable(doc).records
        for key in {(e, gap_stage) for e, gap_stage, _, _ in rec.trap_events}
    ]
    assert sorted(len(runs) for runs in split) == [2, 3, 3]
    _, doc = run_experiment(PAIR_SCRIPTED_12)
    trace = trace_from_jsonable(doc)
    assert any(rec.trap_events for rec in trace.records)
    hits = skipped = 0
    for e in range(trace.strategy_count):
        enum = trace.enumerated_through(e, len(trace.records) - 1)
        hits += len(LevelContext(len(trace.records) - 1, enum, trace).hits)
        skipped += sum(
            1 for s in range(len(trace.records) - 1)
            if trace.records[s].acts and not any(1 << s <= n < 2 << s for n in expand(enum))
        )
    assert hits and skipped
    tallies = [oracle_tally(trace, e) for e in range(trace.strategy_count)]
    assert any(t["sprung"] for t in tallies) and any(t["pending"] for t in tallies)


def test_pair_scripted_run_passes_its_audits():
    # strategy 3's rightmost path leaves the y side only, at stage 9, when
    # its opponent prunes the y branch: the x strings marked before stay
    # marked, so no x prefix is gapped twice
    report, doc = run_experiment(PAIR_SCRIPTED_12)
    assert report_passes(report)
    chains = trace_from_jsonable(doc).approx_chains(3)
    assert len(chains) == 2 and chains[0][1][0] == chains[1][1][0][:8]


# a pair-catalog and a scenario-mix diagonal config of the benchmark (seed 1)
STAGE_CASES = dict(
    ORACLE_CASES,
    **{
        "pair-catalog-20": {
            "version": 1, "scenario": "pair-diagonal", "stages": 20, "strategies": [
                {"enumerator": {"kind": kind}, "selector": {"kind": side}}
                for kind, side in (("silent", "rightmost"), ("trap-springer", "rightmost"),
                                   ("cautious-copier", "rightmost"), ("prefix-flooder", "rightmost"),
                                   ("cautious-copier", "leftmost"))
            ],
        },
        "scenario-mix-14": {
            "version": 1, "scenario": "single-diagonal", "stages": 14, "strategies": [
                {"enumerator": {"kind": "cautious-copier"}, "selector": {"kind": "leftmost"}},
                {"enumerator": {"kind": "scripted",
                                "stages": {"3": [8, 12], "4": [28, 31], "11": [3889, 3982]}},
                 "selector": {"kind": "leftmost"}},
                {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "rightmost"}},
                {"enumerator": {"kind": "silent"},
                 "selector": {"kind": "scripted",
                              "entries": [[1, "0110010"], [2, "0"], [8, "01010011010"]]}},
                {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "rightmost"}},
                {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}},
            ],
        },
    },
)


@pytest.mark.parametrize("name", sorted(STAGE_CASES))
def test_stage_is_a_function_of_the_trace_before_it(name):
    cfg = validate_config(dict(STAGE_CASES[name]))
    mode = DIAGONAL_MODES[cfg["scenario"]]
    strategies = tuple(StrategySpec(load_enumerator(entry["enumerator"]), load_selector(entry["selector"], mode))
                       for entry in cfg["strategies"])
    run_cfg = RunConfig(mode, cfg["stages"], strategies, cfg["node_budget"])
    trace = run_construction(run_cfg)
    for s, rec in enumerate(trace.records):
        prefix = Trace(mode, trace.records[:s])
        assert _stage(prefix, run_cfg, s) == rec
        # the opponents' view is a trace that can be written and read back
        assert trace_from_jsonable(trace_to_jsonable(prefix)).records == prefix.records
    # the loader builds the same views as the engine
    back = trace_from_jsonable(trace_to_jsonable(trace))
    assert back.records == trace.records
    for view in ("enumerated", "markers", "final_approx", "death_stage"):
        assert getattr(back, view) == getattr(trace, view), view


# --- golden content and bytes ------------------------------------------------


def expanded_content_digest(doc):
    """SHA-256 of what a diagonal trace in the gencomp-trace/3 shape
    records, with every run expanded to its elements: header, batches,
    rules, per-strategy records, trap events as (e, gap_stage, element) and
    the final block."""
    body = {
        "head": [doc["mode"], doc["stages"], doc["strategy_count"], doc["defined_through"],
                 doc["config"]],
        "records": [
            [
                rec["stage"],
                [[e, expand(batch)] for e, batch in rec["batches"]],
                rec["rules"],
                rec["strategies"],
                [list(t) for t in expand_events(rec["trap_events"])],
            ]
            for rec in doc["records"]
        ],
        "final": doc["final"],
    }
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


# (config, expanded content digest, trace.json digest, report.json digest).
# The content digests were computed from the gencomp-trace/1 traces, whose
# batches and trap events listed single elements, with their per-act level
# hashes left out, so they pin that the run format without level hashes
# says the same as the element format did.  The trace.json digests are of
# the gencomp-trace/5 bytes and the report digests of the gencomp-report/3
# bytes; TRACE_4_DIGESTS, TRACE_3_DIGESTS, REPORT_2_DIGESTS and
# REPORT_1_DIGESTS keep the /4 and /3 trace and the /2 and /1 report
# digests, which `trace_4_view`, `trace_3_view`, `report_2_view` and
# `report_1_view` still reproduce.
GOLDEN = {
    "pair-catalog-12": (
        PAIR_CATALOG_12,
        "4198dd4dd927c614199139fd55d8a3252b6476e266cebde8ce61c62b640a515d",
        "cd108f277df5ec2b7f68fa04385a6ecaeb2f0f985fd59b5a6e341976afec7932",
        "bd2b38054163eef50592f8e934932f73e1e21657a7dd5c16e71573d902c508f9",
    ),
    "single-diagonal-12": (
        SINGLE_12,
        "dc0091b38bf69fd34468ba8e41ce7be4bf6682a189903b799584f17adf57db4e",
        "7a2ea94cb50c05afe5d31ebfcf81d47ad6cf2da6de84eb417ad8531c5946c6ad",
        "74a48c05b024338fce9f17570d76e8240c439fc24d7acf37c79b0313e5782774",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_expanded_content(name):
    cfg, content_sha, _, _ = GOLDEN[name]
    _, doc = run_experiment(cfg)
    assert doc["format"] == "gencomp-trace/5"
    assert expanded_content_digest(trace_3_view(doc)) == content_sha


# the trace.json digests of the diagonal goldens as gencomp-trace/4 wrote them
TRACE_4_DIGESTS = {
    "pair-catalog-12": "70f4f029355ca6d1af1e432300e5f2f282b3f16cd8b9dd89f632e6824dd20ae1",
    "single-diagonal-12": "13b5a902cc951bc7c5b2984c8295c4007008b35403e21d87bb3ab8933dc190a2",
}


def trace_4_view(doc):
    """A gencomp-trace/5 trace in the /4 shape, rebuilt from the JSON alone:
    the old format tag, and every rule as [e, stage, node, side].  The rule
    lengths follow the acts in order and each act's sides in order; a
    rule's node is the first k bits of its act's approximation on its side,
    which is the first p bits of the strategy's previous one followed by
    the suffix."""
    sides = ["x"] if doc["mode"] == "single" else ["x", "y"]
    approx = {}
    records = []
    for rec in doc["records"]:
        lengths = iter(rec["rules"])
        rules = []
        for e, p, *suffixes in rec["acts"]:
            approx[e] = [a[:p] + b for a, b in zip(approx.get(e, [""] * len(sides)), suffixes)]
            rules.extend([e, rec["stage"], bits[:next(lengths)], side]
                         for bits, side in zip(approx[e], sides))
        records.append(dict(rec, rules=rules))
    return dict(doc, format="gencomp-trace/4", records=records)


@pytest.mark.parametrize("name", sorted(TRACE_4_DIGESTS))
def test_trace_5_reads_as_4(tmp_path, name):
    # the format bump writes each rule as the length of its node, which is
    # a prefix of its act's approximation; everything else a /4 trace said
    # is unchanged
    cfg = GOLDEN[name][0]
    run_experiment({**cfg, "out_dir": str(tmp_path)})
    written = json.loads((tmp_path / "trace.json").read_text())
    assert written["format"] == "gencomp-trace/5"
    assert all(type(k) is int for rec in written["records"] for k in rec["rules"])
    old = trace_4_view(written)
    assert hashlib.sha256(canonical_json(old).encode()).hexdigest() == TRACE_4_DIGESTS[name]


def test_trace_4_fixture_is_the_view_of_its_replay():
    # the /4 fixture was written before the bump: the config of the /3
    # fixture, a strategy that springs two traps and dies at stage 3
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "trace_v4.json")) as fh:
        old = json.load(fh)
    assert old["format"] == "gencomp-trace/4"
    _, doc = run_experiment(old["config"])
    assert trace_4_view(doc) == old


# the trace.json digests of the diagonal goldens as gencomp-trace/3 wrote them
TRACE_3_DIGESTS = {
    "pair-catalog-12": "9c83d42c9cc0268563ef4c9481259715b2aa5def2eea0c504b1db4a2975d8340",
    "single-diagonal-12": "ab117c15e91cf34ba1eec3ab7ca34226a80d7e4a951c7f7816477b232181e59a",
}


def trace_3_view(doc):
    """A gencomp-trace/5 trace in the /3 shape, rebuilt from its /4 view
    alone: the old format tag, a batch (empty or not) for every strategy,
    every strategy's record at every stage and the final block.  An act's
    approximation is the first p bits of the strategy's previous one
    followed by the suffixes, its marker the nodes of its rules in side
    order; a strategy is alive until the stage that lists its death."""
    doc = trace_4_view(doc)
    count = doc["strategy_count"]
    node = (lambda parts: parts[0]) if doc["mode"] == "single" else list
    approx, death, markers = {}, {}, {e: [] for e in range(count)}
    records = []
    for rec in doc["records"]:
        s = rec["stage"]
        marks = {}
        for e, _, bits, _ in sorted(rec["rules"], key=lambda r: r[3]):
            marks.setdefault(e, []).append(bits)
        strategies = {
            e: {"alive": e not in death, "acted": False, "died": False,
                "approx": None, "marker": None}
            for e in range(count)
        }
        for e, p, *suffixes in rec["acts"]:
            old = approx.get(e, [""] * len(suffixes))
            approx[e] = [a[:p] + b for a, b in zip(old, suffixes)]
            strategies[e].update(acted=True, approx=node(approx[e]), marker=node(marks[e]))
            markers[e].append([s, node(marks[e])])
        for e in rec["deaths"]:
            death[e] = s
            strategies[e].update(alive=False, died=True)
        batches = dict(rec["batches"])
        records.append({
            "stage": s,
            "batches": [[e, batches.get(e, [])] for e in range(count)],
            "rules": rec["rules"],
            "strategies": [[e, strategies[e]] for e in range(count)],
            "trap_events": rec["trap_events"],
        })
    final = {
        "alive": [[e, e not in death] for e in range(count)],
        "death_stage": [[e, death.get(e)] for e in range(count)],
        "markers": [[e, markers[e]] for e in range(count)],
        "approx": [[e, node(approx[e]) if e in approx else None] for e in range(count)],
    }
    return dict(doc, format="gencomp-trace/3", records=records, final=final)


@pytest.mark.parametrize("name", sorted(TRACE_3_DIGESTS))
def test_trace_4_reads_as_3(tmp_path, name):
    # the format bump lists only the strategies that acted, died or
    # enumerated, writes approximations as deltas and drops the final
    # block; everything else a /3 trace said is unchanged
    cfg, content_sha, _, _ = GOLDEN[name]
    run_experiment({**cfg, "out_dir": str(tmp_path)})
    written = json.loads((tmp_path / "trace.json").read_text())
    assert written["format"] == "gencomp-trace/5"
    old = trace_3_view(written)
    assert hashlib.sha256(canonical_json(old).encode()).hexdigest() == TRACE_3_DIGESTS[name]
    assert expanded_content_digest(old) == content_sha


def test_trace_3_fixture_is_the_view_of_its_replay():
    # the /3 fixture was written before the bump: a strategy that springs two
    # traps and dies at stage 3
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "trace_v3.json")) as fh:
        old = json.load(fh)
    _, doc = run_experiment(old["config"])
    assert trace_3_view(doc) == old


CODING_ROUNDTRIP_7 = {
    "version": 1, "scenario": "coding-roundtrip", "seed": 7, "count": 8, "m_max": 12, "bound": 16384,
}

OPERATOR_ECHO_5 = {
    "version": 1, "scenario": "operator-compile", "machine": "echo", "element_bound": 5, "label_bound": 1,
}
OPERATOR_ORDER_GATE_5 = dict(OPERATOR_ECHO_5, machine="order-gate")
RELATION_EMBED_3 = {"version": 1, "scenario": "relation-embed", "seed": 3, "count": 40, "max_size": 6}

# (config, trace.json digest, report.json digest): the diagonal goldens
# above, plus a coding-roundtrip config whose trace digest was first
# recorded while its decoders still read their witnesses one lookup at a
# time, and operator-compile and relation-embed configs first recorded while
# every application rescanned the premises against the bound and every
# adjacency test rebuilt the element's digit map.  Their trace digests are
# of the gencomp-scenario-trace/3 bytes; SCENARIO_TRACE_2_DIGESTS and
# SCENARIO_TRACE_1_DIGESTS keep the /2 and /1 digests, which
# `scenario_trace_2_view` and `scenario_trace_1_view` of each /3 trace
# reproduce.
# Every report digest is of the gencomp-report/3 bytes; REPORT_2_DIGESTS
# keeps the /2 digests, which `report_2_view` reproduces.
ARTIFACT_GOLDEN = {name: (cfg, trace_sha, report_sha)
                   for name, (cfg, _, trace_sha, report_sha) in GOLDEN.items()}
ARTIFACT_GOLDEN["coding-roundtrip-7"] = (
    CODING_ROUNDTRIP_7,
    "e3d74a73457338153412bbebc5cef871b0d9536510038b0756123e65a7903044",
    "68fc439ef02364ca201397243176e3a670382c1c370fa8df46432eec9a4b0d7a",
)
ARTIFACT_GOLDEN["operator-echo-5"] = (
    OPERATOR_ECHO_5,
    "0f385e13f7f76540e8d1581a90ce212f9d7960abac0c48f4b14f3bbb0e51a6c9",
    "a23646e3092d70466d663809b13022a870b793988c53685a741bffa298ef88fb",
)
ARTIFACT_GOLDEN["operator-order-gate-5"] = (
    OPERATOR_ORDER_GATE_5,
    "500aeb84c8ac83b2eb790c569bbe7754ad442a0df50c6624c24dd9f17b51b40a",
    "2f6a58cfe2af4f871b4067b41ede748e177b13653e02b0b33c45efc5835ebddb",
)
ARTIFACT_GOLDEN["relation-embed-3"] = (
    RELATION_EMBED_3,
    "2f8877b26a211a6cc8675644f71f8f560c0cbf59a64d9d3a81afc92ee9bda37a",
    "3b40b06be812021cca99456bbba44f3529ace174ab9caccd991385f2ec4ac6f8",
)


# the report.json digests of the same configs as gencomp-report/2 wrote them
REPORT_2_DIGESTS = {
    "pair-catalog-12": "385c909af4230e8b04a2e333cbef3a7e7910339194b9afd5c98cb9fa62880cf9",
    "single-diagonal-12": "35939845e7c27f56bff28d2703ad0de9b463c9dc57faf5dec9caeb2e920a3c78",
    "coding-roundtrip-7": "a335f2e5a1e226a782dcb8561a49a5f99437807ab5f27cf97481d49d2372cd42",
    "operator-echo-5": "158c54f37a1259cf4ccda99f166bc85f6cc89877b827a94d08fb5bcb310fd4ac",
    "operator-order-gate-5": "715c9b3cb1b29aaf93c499483b3f63b19f78117f3f6325594e70c4c1cdab9f04",
    "relation-embed-3": "e219a368664b136a100839396481752b8a2b181c405be823e951a0bd1102e7c6",
}


def report_2_view(report):
    """A gencomp-report/3 report in the gencomp-report/2 shape: the old
    format tag, each block-end count c_i as the row {"n": 2^(i+1),
    "density": c_i / 2^(i+1) in lowest terms}, each census's records as
    [block, e] pairs, and `gap_only` false on every value census, as /2
    censused the value set without 0."""
    old = dict(report, format="gencomp-report/2")
    if "value_censuses" not in report:  # not a diagonal report
        return old
    old["densities"] = [
        {"strategy": entry["strategy"],
         "block_end_densities": [density_row(2 << i, c) for i, c in enumerate(entry["block_end_counts"])]}
        for entry in report["densities"]
    ]
    old["value_censuses"] = [
        dict(row, census=dict(row["census"], gap_only=False,
                              records=[[i, e] for i, e in enumerate(row["census"]["records"])]))
        for row in report["value_censuses"]
    ]
    return old


def density_row(n, count):
    d = Fraction(count, n)
    return {"n": n, "density": {"num": d.numerator, "den": d.denominator}}


@pytest.mark.parametrize("name", sorted(REPORT_2_DIGESTS))
def test_report_3_reads_as_report_2(tmp_path, name):
    # the format bump writes block-end densities as counts and census
    # records by block, and censuses value sets with 0 counted in;
    # everything else a /2 report said is unchanged
    cfg = ARTIFACT_GOLDEN[name][0]
    run_experiment({**cfg, "out_dir": str(tmp_path)})
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["format"] == "gencomp-report/3"
    old = canonical_json(report_2_view(written)).encode()
    assert hashlib.sha256(old).hexdigest() == REPORT_2_DIGESTS[name]


def test_value_censuses_are_gap_only():
    # a diagonal value set omits only its rules' gaps, each a power-of-2
    # suffix of its block, and keeps 0
    names = [name for name, (cfg, _, _) in ARTIFACT_GOLDEN.items() if "strategies" in cfg]
    assert names
    for name in names:
        report, _ = run_experiment(ARTIFACT_GOLDEN[name][0])
        censuses = report["value_censuses"]
        assert censuses and all(row["census"]["gap_only"] for row in censuses), name


# the report.json digests of the same configs as gencomp-report/1 wrote them
REPORT_1_DIGESTS = {
    "pair-catalog-12": "3fd817e16c07ac4387991b04ef7b8f93d1ae7b5fd535801c8b2f82f19d6978e3",
    "single-diagonal-12": "625249411c777c5b9df2f196abc84b46c101d37a4795e31c2209c39d5a3021b4",
    "coding-roundtrip-7": "b0de9233aaf7ebd62cef5f6257de6c03f13a4dad5fb8fec4cc950c3af32a00cf",
}


def report_1_view(report):
    """A gencomp-report/3 report in the gencomp-report/1 shape: its
    `report_2_view` with the old format tag, each census's `omitted` runs
    expanded to elements, no `side`, and only the censuses /1 made (single
    mode through stage 14)."""
    report = report_2_view(report)
    old = dict(report, format="gencomp-report/1")
    if "value_censuses" not in report:
        return old
    kept = report["scenario"] == "single-diagonal" and report["config"]["stages"] <= 15
    old["verdicts"] = [
        dict(v, inputs={"prefix": v["inputs"]["prefix"]})
        if v["invariant"] == "gap-census-consistency" else v
        for v in report["verdicts"]
        if kept or v["invariant"] != "gap-census-consistency"
    ]
    old["value_censuses"] = [
        {"oracle_prefix": row["oracle_prefix"],
         "census": dict(row["census"], omitted=expand(row["census"]["omitted"]))}
        for row in report["value_censuses"]
        if kept
    ]
    return old


@pytest.mark.parametrize("name", sorted(REPORT_1_DIGESTS))
def test_report_2_reads_as_report_1(tmp_path, name):
    # the /2 bump added `side`, run-form omissions and the pair and
    # long-run censuses; everything else a /1 report said is unchanged
    cfg = ARTIFACT_GOLDEN[name][0]
    run_experiment({**cfg, "out_dir": str(tmp_path)})
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["format"] == "gencomp-report/3"
    old = canonical_json(report_1_view(written)).encode()
    assert hashlib.sha256(old).hexdigest() == REPORT_1_DIGESTS[name]


# the trace.json digests of the scenario configs as gencomp-scenario-trace/2
# wrote them
SCENARIO_TRACE_2_DIGESTS = {
    "coding-roundtrip-7": "eff4823aafc9c9373fbdb1adab72c2d28002a1faf00bcf60bfbbc0f887fc0c32",
    "operator-echo-5": "488159c6d748b4f7637a18a63684c8558384c5d68a1836b8d3e315f715039ce6",
    "operator-order-gate-5": "1e03707d20061decee006de90a6068ec1d9b05ef7bc7c5807017b36429f611c7",
    "relation-embed-3": "b7b1e35664256fd6e842ec0e1748e093789a3785c4f0621e4ac511f2221b3ec5",
}


def split_images(digits, n):
    """Concatenated images as a list: image k is digits k(k-1)/2 up to
    k(k+1)/2, for k = 0..n-1."""
    return [digits[k * (k - 1) // 2:k * (k + 1) // 2] for k in range(n)]


def unpack_premise(premise):
    """A premise string as the sorted [n, x] pairs /2 wrote."""
    return [[n, int(c)] for n, c in enumerate(premise) if c != "-"]


def assignment_pairs(element_bound):
    """Every assignment below the bound as its [n, x] pairs, in the order
    /3 writes `outputs`: index 0 most significant, unassigned < 0 < 1."""
    for values in itertools.product((None, 0, 1), repeat=element_bound):
        yield [[n, x] for n, x in enumerate(values) if x is not None]


def scenario_trace_2_view(doc):
    """A gencomp-scenario-trace/3 trace in the /2 shape: the old format tag
    and each log back to per-item objects.  A relation-embed entry splits
    into the digraph's rows and one digit string per image; operator-compile
    axioms get their output pair and premise pairs back (re-sorted in that
    shape) and each output list its assignment; coding-roundtrip gets one
    {"real", "decoded"} object per real, then the omitted indices."""
    old = dict(doc, format="gencomp-scenario-trace/2")
    log = doc["log"]
    if doc["scenario"] == "relation-embed":
        old["log"] = []
        for adjacency, images in log:
            n = math.isqrt(len(adjacency))
            rows = [adjacency[i * n:(i + 1) * n] for i in range(n)]
            old["log"].append({"digraph": rows, "images": split_images(images, n)})
    elif doc["scenario"] == "operator-compile":
        axioms = sorted([[n, x], unpack_premise(premise)] for n, x, premise in log["axioms"])
        pairs = assignment_pairs(doc["config"]["element_bound"])
        old["log"] = [{"axioms": axioms}] + [
            {"assignment": assignment, "outputs": outputs}
            for assignment, outputs in zip(pairs, log["outputs"], strict=True)
        ]
    elif doc["scenario"] == "coding-roundtrip":
        old["log"] = [{"real": k, "decoded": bits} for k, bits in enumerate(log["decoded"])]
        old["log"].append({"interval_omitted": log["interval_omitted"]})
    return old


@pytest.mark.parametrize("name", sorted(SCENARIO_TRACE_2_DIGESTS))
def test_scenario_trace_3_reads_as_2(tmp_path, name):
    # the format bump writes each log positionally and drops what the
    # config or the list position fixes; everything else a /2 trace said
    # is unchanged
    cfg = ARTIFACT_GOLDEN[name][0]
    run_experiment({**cfg, "out_dir": str(tmp_path)})
    written = json.loads((tmp_path / "trace.json").read_text())
    assert written["format"] == "gencomp-scenario-trace/3"
    old = canonical_json(scenario_trace_2_view(written)).encode()
    assert hashlib.sha256(old).hexdigest() == SCENARIO_TRACE_2_DIGESTS[name]


# the trace.json digests of the scenario configs as gencomp-scenario-trace/1
# wrote them
SCENARIO_TRACE_1_DIGESTS = {
    "coding-roundtrip-7": "0c5e1c6c5e9b8d893c278ce0138dfb28c8d51c6ee3725a3e02df1afee1e35df8",
    "operator-echo-5": "d8425d5c785f7c6aa2f7ef5fb6e4a25ba460ab1f4d1fa7491a361d3a750003e2",
    "operator-order-gate-5": "6f2394e7ea9a6c8398ec281acfa1b760f102821c504fd61aa8752d7ae11f1358",
    "relation-embed-3": "14bb156772720d64eb38087a142b02da68c99702b51a5720d6a29b049c509925",
}


def nested_images(images):
    """Digit-string images as the {"stage", "combo"} trees /1 wrote: image k
    at stage k, its combo the [tree of image j, digit] pairs in increasing j."""
    trees = []
    for k, digits in enumerate(images):
        assert len(digits) == k
        combo = [[trees[j], int(d)] for j, d in enumerate(digits) if d != "0"]
        trees.append({"stage": k, "combo": combo})
    return trees


def scenario_trace_1_view(doc):
    """A gencomp-scenario-trace/3 trace in the /1 shape: its
    `scenario_trace_2_view` with the old format tag and each relation-embed
    image re-nested into a tree."""
    doc = scenario_trace_2_view(doc)
    old = dict(doc, format="gencomp-scenario-trace/1")
    if doc["scenario"] == "relation-embed":
        old["log"] = [dict(entry, images=nested_images(entry["images"])) for entry in doc["log"]]
    return old


@pytest.mark.parametrize("name", sorted(SCENARIO_TRACE_1_DIGESTS))
def test_scenario_trace_2_reads_as_1(tmp_path, name):
    # the /2 bump wrote each relation-embed image by reference to the
    # earlier images; everything else a /1 trace said is unchanged
    cfg = ARTIFACT_GOLDEN[name][0]
    run_experiment({**cfg, "out_dir": str(tmp_path)})
    written = json.loads((tmp_path / "trace.json").read_text())
    assert written["format"] == "gencomp-scenario-trace/3"
    old = canonical_json(scenario_trace_1_view(written)).encode()
    assert hashlib.sha256(old).hexdigest() == SCENARIO_TRACE_1_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ARTIFACT_GOLDEN))
def test_golden_artifact_digests(tmp_path, name):
    cfg, trace_sha, report_sha = ARTIFACT_GOLDEN[name]
    run_experiment({**cfg, "out_dir": str(tmp_path)})
    digest = lambda f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()  # noqa: E731
    assert digest("trace.json") == trace_sha
    assert digest("report.json") == report_sha


def test_every_scenario_has_a_golden_artifact():
    # a format bump re-pins these digests and views its new bytes in the
    # old shape, so a scenario without one could change its bytes unseen
    pinned = {cfg["scenario"] for cfg, _, _ in ARTIFACT_GOLDEN.values()}
    assert sorted(set(SCENARIOS) - pinned) == []
    logged = {ARTIFACT_GOLDEN[name][0]["scenario"] for name in SCENARIO_TRACE_2_DIGESTS}
    assert sorted(set(SCENARIOS) - set(DIAGONAL_MODES) - logged) == []


# --- the loader on doctored goldens ------------------------------------------


@functools.lru_cache(maxsize=None)
def golden_trace_text(name):
    _, doc = run_experiment(GOLDEN[name][0])
    return canonical_json(doc)


def json_places(value, path=()):
    """Every place in a JSON value as an index path: the value itself and,
    inside a list, each entry."""
    yield path
    if type(value) is list:
        for i, item in enumerate(value):
            yield from json_places(item, path + (i,))


# values of every JSON type, each the wrong type or arity somewhere
OTHER_VALUES = (None, True, False, 0, 1, 7, -1, 2.0, "", "0", "x",
                [], [0], ["0"], [[0, 1]], [0, 0, "0", "0"], {})
RECORD_FIELDS = ("stage", "acts", "batches", "rules", "deaths", "trap_events")


@st.composite
def doctored_goldens(draw):
    """A golden /5 document with one place in one record field (or in the
    header) changed: its value swapped for another type, the entry dropped
    or duplicated, or the list given one item more or less."""
    doc = json.loads(golden_trace_text(draw(st.sampled_from(sorted(GOLDEN)))))
    if draw(st.integers(0, 4)):
        holder = draw(st.sampled_from(doc["records"]))
        key = draw(st.sampled_from(RECORD_FIELDS))
    else:
        holder, key = doc, draw(st.sampled_from(("mode", "stages", "strategy_count", "config", "records")))
    path = draw(st.sampled_from(list(json_places(holder[key]))))
    parent, slot = holder, key
    for i in path:
        parent, slot = parent[slot], i
    target = parent[slot]
    kind = draw(st.sampled_from(("swap", "drop", "duplicate", "extend", "shorten")))
    if kind == "drop":
        del parent[slot]
    elif kind == "duplicate" and path:
        parent.insert(slot, json.loads(json.dumps(target)))
    elif kind == "extend" and type(target) is list:
        target.append(draw(st.sampled_from(OTHER_VALUES)))
    elif kind == "shorten" and type(target) is list and target:
        target.pop(draw(st.integers(0, len(target) - 1)))
    else:
        parent[slot] = draw(st.sampled_from(OTHER_VALUES))
    return doc


@given(doctored_goldens())
@settings(max_examples=300, deadline=None)
def test_loader_names_every_doctored_golden(doc):
    # a document the engine could not have written fails with a named
    # violation, never with a bare Python error; a document that loads is
    # audited, and the audits may only run out of their node budget
    try:
        trace = trace_from_jsonable(doc)
    except (InvariantViolationError, UndefinedInputError):
        return
    try:
        audit_trace(trace)
    except BudgetError:
        pass
