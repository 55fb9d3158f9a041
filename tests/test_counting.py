"""Counting on run sets, checked against per-element oracles.

The report's block-end densities and trap tallies, the engine's trap
events and the pair-mode level hits are computed on enumerations stored as
sorted (lo, hi) runs.  Each test expands the runs to elements and
recomputes them the way the engine once did, by probing every integer or
every (rule, element) pair, and requires equal results.  The
golden digests pin the emitted bytes: any drift needs a documented trace or
report format bump.
"""

import functools
import hashlib
import importlib.util
import itertools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp import diagonal, reals, scenarios
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
    REPORT_FORMAT,
    SCENARIO_TABLE,
    SCENARIOS,
    _diagonal_report,
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
from test_runs import _mixed_config, _run_capped, _scripted_config

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


def expand_events(events):
    return [(e, gap_stage, n) for e, gap_stage, lo, hi in events for n in range(lo, hi)]


def oracle_densities(trace, e):
    elems = set(elements(trace.enumerated_through(e, len(trace.records) - 1)))
    return [
        (1 << (i + 1), prefix_density(lambda k: k in elems, 1 << (i + 1)))
        for i in range(trace.defined_through + 1)
    ]


def acts_of(trace, records=None):
    """Every act as (stage, e, gap, marker), in record and then act order;
    `records` is a prefix of the trace's records."""
    return [(s, e, gap_interval(s, e), marker)
            for s, rec in enumerate(trace.records if records is None else records)
            for e, (_, marker) in rec.acts.items()]


def oracle_trap_events(trace, s):
    """Every act issued before stage s (its x-side rule) against every
    element new at s."""
    earlier = acts_of(trace, trace.records[:s])
    rec = trace.records[s]
    events = []
    for e in sorted(rec.batches):
        for stage, f, (lo, hi), _ in earlier:
            if f != e:
                continue
            for n in elements(rec.batches[e]):
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
        elems = elements(trace.enumerated_through(e, len(trace.records) - 1))
        lo, hi = gaps[0]
        sprung = any(lo <= n < hi for n in elems)
        tally["sprung" if sprung else "pending"] += 1
    return tally


def oracle_single_victim(trace, e, probes):
    """The single-victim audit as first written: mind changes from a scan
    of the stage records, the lcp maximized over every approximation."""
    def extends(node, prev):
        return all(a.startswith(b) for a, b in zip(node, prev))

    approxes = [(s, rec.acts[e][0]) for s, rec in enumerate(trace.records) if e in rec.acts]
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
    for s, events in enumerate(trace.trap_events):
        for e, gap_stage, lo, hi in events:
            node = next((marker for stage, f, _, marker in acts_of(trace) if (f, stage) == (e, gap_stage)), None)
            if node is None:
                bad.append(
                    "trap event (%d, %d, [%d, %d)) references a rule the trace does not contain"
                    % (e, gap_stage, lo, hi)
                )
                continue
            for later in range(s + 1, len(trace.records)):
                if e not in trace.records[later].acts and trace.death_stage[e] != later:
                    continue
                l = later - 1
                if len(node[0]) > l:
                    continue
                if survivor_extending(trace, e, l, node) is not None:
                    bad.append(
                        "survivor extends trapped node %r at stage %d (strategy %d)"
                        % (node, later, e)
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
    assert len(report["densities"]) == trace.strategy_count
    for e, entry in enumerate(report["densities"]):
        got = [(2 << i, Fraction(c, 2 << i)) for i, c in enumerate(entry["block_end_counts"])]
        assert got == oracle_densities(trace, e)


def test_trap_events_match_all_pairs_scan(run):
    _, trace = run
    for s, (rec, events) in enumerate(zip(trace.records, trace.trap_events)):
        assert expand_events(events) == oracle_trap_events(trace, s)
        # each event is a maximal run of the batch inside the rule's gap
        for e, gap_stage, lo, hi in events:
            assert e in trace.records[gap_stage].acts
            batch = set(elements(rec.batches[e]))
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
            assert not seen[e] & set(elements(batch))
            seen[e] |= set(elements(batch))
    for e in seen:
        assert seen[e] == set(elements(trace.enumerated[e]))


def test_level_hits_match_unskipped_scan(run):
    _, trace = run
    for e in range(trace.strategy_count):
        for l in range(len(trace.records)):
            enum = trace.enumerated_through(e, l)
            ctx = LevelContext(l, enum, trace)
            # each hit, one block's strings per side, expands back into
            # the act tuples of the scan, in the scan's order
            pairs = tuple(combo for hit in ctx.hits for combo in itertools.product(*hit))
            assert pairs == oracle_hits(trace, l, elements(enum)), (e, l)


def test_trap_tallies_match_recount(run):
    report, trace = run
    # a tally writes no inactive count: every stage's trap is one of the three
    assert len(report["trap_tallies"]) == trace.strategy_count
    for e, row in enumerate(report["trap_tallies"]):
        inactive = len(trace.records) - row["pending"] - row["sprung"]
        assert dict(row, inactive=inactive) == oracle_tally(trace, e)


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
    record and every trap event kept as it is."""
    rec = trace.records[stage]
    dropped = StageRecord({**rec.batches, e: ()}, rec.acts)
    records = trace.records[:stage] + [dropped] + trace.records[stage + 1:]
    doctored = Trace(trace.mode, records, trace.config_echo)
    doctored.trap_events[stage] = trace.trap_events[stage]
    return doctored


WITNESS_AUDITS = ((audit_trap_soundness, oracle_trap_soundness), (audit_spoiling, oracle_spoiling))


def check_witness_audits_against_oracles(trace):
    """The witness audits pass exactly when the DFS oracles do, and they
    report whenever an oracle does on two doctored copies: one without the
    batch behind the first trap event, one without the last batch a dead
    strategy enumerated before its final level."""
    for audit, oracle in WITNESS_AUDITS:
        assert bool(audit(trace)) == bool(oracle(trace)), audit.__name__
    sprung = [s for s, events in enumerate(trace.trap_events) if events]
    doctored = [without_batch(trace, s, trace.trap_events[s][0][0]) for s in sprung[:1]]
    for e, died_at in sorted(trace.death_stage.items()):
        if died_at is not None:
            spoiler = max(s for s, rec in enumerate(trace.records[:died_at]) if rec.batches.get(e))
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
            assert set(elements(functional_value_set(trace, prefix, i))) == values, (i, prefix)
            undecided += sum(1 for node in nodes if len(node) > len(prefix) and node.startswith(prefix))
    assert undecided


def test_registry_verdicts_are_the_report_verdicts(run):
    report, trace = run
    assert [
        {"invariant": name, "pass": not bad, "inputs": {}}
        for name, bad in audit_verdicts(trace)
    ] == report["verdicts"]
    censuses = []
    for label, i, prefix in census_prefixes(trace):
        # 0 lies in no block, so the value set is censused with 0 counted in
        values = union(((0, 1),), functional_value_set(trace, prefix, i))
        census = gap_census(values, trace.defined_through + 1)
        censuses.append({"oracle_prefix": label, "side": trace.sides[i], "census": census.to_jsonable()})
    assert censuses == report["value_censuses"]
    assert len(censuses) == 2 * len(trace.sides)


def test_census_audit_names_a_block_whose_gap_is_missing(monkeypatch):
    # with block 3's top element (15) put back in every value set, no
    # census of the pair-catalog seed-1 trace records a gap at block 3,
    # although on either side a rule of strategy 2 leaves it out under the
    # all-zeros oracle and one of strategy 0 under the all-ones oracle:
    # every census row fails and names the block
    _, doc = run_experiment(REPORT_VIEW_CONFIGS["pair-catalog-seed-1"])
    trace = trace_from_jsonable(doc)
    value_set = diagonal.functional_value_set
    monkeypatch.setattr(diagonal, "functional_value_set",
                        lambda t, prefix, i=0: union(value_set(t, prefix, i), ((15, 16),)))
    failed = [(name, bad) for name, bad in audit_verdicts(trace) if bad]
    assert failed == [
        ("gap-census-consistency", ["block 3 census None != rules %d under %r" % (e, bit * 19)])
        for _ in trace.sides for e, bit in ((2, "0"), (0, "1"))
    ]


def test_oracle_cases_exercise_every_branch():
    """The cases above hit trap events, sprung and pending traps, pair
    hits, pair blocks skipped for lack of elements although they carry
    rules, and several event runs for one gap in one stage."""
    _, doc = run_experiment(SPLIT_GAPS_12)
    split = [
        [lo for e, gap_stage, lo, hi in events if (e, gap_stage) == key]
        for events in trace_from_jsonable(doc).trap_events
        for key in {(e, gap_stage) for e, gap_stage, _, _ in events}
    ]
    assert sorted(len(runs) for runs in split) == [2, 3, 3]
    _, doc = run_experiment(PAIR_SCRIPTED_12)
    trace = trace_from_jsonable(doc)
    assert any(trace.trap_events)
    hits = skipped = 0
    for e in range(trace.strategy_count):
        enum = trace.enumerated_through(e, len(trace.records) - 1)
        hits += len(LevelContext(len(trace.records) - 1, enum, trace).hits)
        skipped += sum(
            1 for s in range(len(trace.records) - 1)
            if trace.records[s].acts and not any(1 << s <= n < 2 << s for n in elements(enum))
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
        prefix = Trace(mode, trace.records[:s], cfg)
        assert _stage(prefix, run_cfg, s) == rec
        # the opponents' view is a trace that can be written and read back
        assert trace_from_jsonable(trace_to_jsonable(prefix)).records == prefix.records
    # the loader builds the same views as the engine
    back = trace_from_jsonable(trace_to_jsonable(Trace(mode, trace.records, cfg)))
    assert back.records == trace.records
    for view in ("enumerated", "markers", "final_approx", "death_stage"):
        assert getattr(back, view) == getattr(trace, view), view


# --- golden bytes and one view per format -----------------------------------
#
# The golden digests pin the bytes of every format.  A format bump re-pins
# them only after a view test shows that its new bytes, put back in the
# previous version's shape, hash to that version's digests.  Each format
# family keeps the view of its latest bump alone: the next bump replaces it
# and does not chain on it, since an older view hashes a fixed function of
# bytes that the current digests and the kept view's digests already pin.


# (config, trace.json digest, report.json digest) of the diagonal goldens,
# of the gencomp-trace/6 and gencomp-report/6 bytes
GOLDEN = {
    "pair-catalog-12": (
        PAIR_CATALOG_12,
        "574eb6e5e9e8265269954f46ec199254501ac51de6412b49e5e89fc66e17e468",
        "a3b4ba631ec1246c60e2d4cbd651f5d62a16520e535bfb1402246fd394751dfa",
    ),
    "single-diagonal-12": (
        SINGLE_12,
        "48659e2706833fd0825caa2d2c56274f4423980538e448c6f8a7895c70f54261",
        "8eb001933543c4a995216557582f2d5e1fcb200ce74e7c2f77831923dc326f49",
    ),
}


# the trace.json digests of the diagonal goldens as gencomp-trace/5 wrote them
TRACE_5_DIGESTS = {
    "pair-catalog-12": "cd108f277df5ec2b7f68fa04385a6ecaeb2f0f985fd59b5a6e341976afec7932",
    "single-diagonal-12": "7a2ea94cb50c05afe5d31ebfcf81d47ad6cf2da6de84eb417ad8531c5946c6ad",
}


def trace_5_view(doc):
    """A gencomp-trace/6 trace in the /5 shape, rebuilt from the JSON alone:
    the old format tag, the header counts, and per record its stage, its
    deaths and each act's p.  Record s is stage s; the strategy count is
    the length of the echo's strategy list; an act [e, suffix per side]
    was [e, p, suffix per side] with p the stage minus the suffix length;
    and the strategies that die at stage s are those started before s and
    alive, that do not act at s."""
    count = len(doc["config"]["strategies"])
    dead = []
    records = []
    for s, rec in enumerate(doc["records"]):
        acting = [act[0] for act in rec["acts"]]
        deaths = [e for e in range(min(s, count)) if e not in dead and e not in acting]
        dead += deaths
        acts = [[e, s - len(suffixes[0]), *suffixes] for e, *suffixes in rec["acts"]]
        records.append(dict(rec, stage=s, acts=acts, deaths=deaths))
    return dict(doc, format="gencomp-trace/5", stages=len(records), strategy_count=count,
                defined_through=len(records) - 1, records=records)


@pytest.mark.parametrize("name", sorted(TRACE_5_DIGESTS))
def test_trace_6_reads_as_5(tmp_path, name):
    # the format bump drops what the rest of the document gives: the header
    # counts, each record's stage and deaths, and each act's p; everything
    # else a /5 trace said is unchanged
    cfg = GOLDEN[name][0]
    run_experiment({**cfg, "out_dir": str(tmp_path)})
    written = json.loads((tmp_path / "trace.json").read_text())
    assert written["format"] == "gencomp-trace/6"
    assert set(written) == {"format", "mode", "config", "records"}
    assert all(set(rec) == {"acts", "batches", "rules", "trap_events"} for rec in written["records"])
    old = trace_5_view(written)
    assert hashlib.sha256(canonical_json(old).encode()).hexdigest() == TRACE_5_DIGESTS[name]


def test_trace_5_fixture_is_the_view_of_its_replay():
    # the /5 fixture was written before the bump: the config of the /4
    # fixture, a strategy that springs two traps and dies at stage 3
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "trace_v5.json")) as fh:
        old = json.load(fh)
    assert old["format"] == "gencomp-trace/5"
    _, doc = run_experiment(old["config"])
    assert trace_5_view(doc) == old


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
# of the gencomp-scenario-trace/5 bytes, and every report digest is of the
# gencomp-report/6 bytes.  TRACE_5_DIGESTS, SCENARIO_TRACE_4_DIGESTS and
# REPORT_5_DIGESTS keep each family's previous digests, which
# `trace_5_view`, `scenario_trace_4_view` and `report_5_view` reproduce.
ARTIFACT_GOLDEN = dict(GOLDEN)
ARTIFACT_GOLDEN["coding-roundtrip-7"] = (
    CODING_ROUNDTRIP_7,
    "152c6afd2a035e7a8b625ec421484ca9fad93ad3c412622abac0b1c668e4f36b",
    "07faae544f7ab055d5552490e4f489a84c3e3646c74c459a93de0fad34a9926a",
)
ARTIFACT_GOLDEN["operator-echo-5"] = (
    OPERATOR_ECHO_5,
    "cfdd011a8ac58d619d9df1aac63a1d67bc5db4c147bcb9180219a234d94362a2",
    "a27a686135903c19d32db4c7a3f3c89e63a9cdf3fd9c5f84d0793f52c1258609",
)
ARTIFACT_GOLDEN["operator-order-gate-5"] = (
    OPERATOR_ORDER_GATE_5,
    "694fc3d25a69451fabe8bc833beb600e37d37e471374b1c92ec2c130204ab27d",
    "a27a686135903c19d32db4c7a3f3c89e63a9cdf3fd9c5f84d0793f52c1258609",
)
ARTIFACT_GOLDEN["relation-embed-3"] = (
    RELATION_EMBED_3,
    "32f926672b2a5be4fc882e11409dc50791eadfd3cc735e4e436aaa7a72cb8291",
    "c289a9fc0a5d254512ed3032d09f00a2f454ce0ed4b87a2354f5a7ed06b0de0b",
)


def benchmark_workloads():
    """perfbench's workload generators, loaded from their file, as the
    benchmark's configs are not part of the package."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


# the golden configs and the benchmark's seed-1 configs, diagonal or not
REPORT_VIEW_CONFIGS = {name: cfg for name, (cfg, _, _) in ARTIFACT_GOLDEN.items()}
REPORT_VIEW_CONFIGS.update(
    ("%s-seed-1" % name, cfg)
    for generate in benchmark_workloads().values()
    for name, cfg in generate(1)
)
DIAGONAL_VIEW_CONFIGS = sorted(name for name, cfg in REPORT_VIEW_CONFIGS.items() if "strategies" in cfg)
SCENARIO_VIEW_CONFIGS = sorted(set(REPORT_VIEW_CONFIGS) - set(DIAGONAL_VIEW_CONFIGS))


def written_artifacts(tmp_path, name):
    """The report.json and trace.json documents a view config writes; no
    report repeats the config that the trace echoes."""
    run_experiment({**REPORT_VIEW_CONFIGS[name], "out_dir": str(tmp_path)})
    report, trace_doc = (json.loads((tmp_path / f).read_text()) for f in ("report.json", "trace.json"))
    assert report["format"] == "gencomp-report/6" and "config" not in report
    return report, trace_doc


# the report.json digests of the same configs as gencomp-report/5 wrote them
REPORT_5_DIGESTS = {
    "pair-catalog-12": "733ac0bf7d0f12048cdc817e6ea15a113fc1ab0bb8ecc1d716fd5d236aa12c71",
    "single-diagonal-12": "062810338fb51bf6d490965138858c480360bf4c387aaa17ba5754fe04fcb847",
    "coding-roundtrip-7": "cba91a232ef01e2c65930fed1c570be41d040ecad8c36e9d8c734036bf9e5e01",
    "operator-echo-5": "70450dc27542a97fd8b04c968414fdc0bd80b0e2717ef50fc1482ab9e24bc580",
    "operator-order-gate-5": "70450dc27542a97fd8b04c968414fdc0bd80b0e2717ef50fc1482ab9e24bc580",
    "relation-embed-3": "3a0cd11b1e8b009408583818df77c5b414396737d467150cf1e64bd3691b409f",
}


def probe_count(e, acted, mode):
    """The number of single-victim probes of strategy e, which acted at
    `acted` stages: none before its first act, and otherwise its final
    approximation and, for each of its e + acted x bits, one deviation per
    padding bit (0 and 1 in single mode, 0 in pair mode).  A started,
    live strategy acts at every stage until it dies, so its acts are
    stages e + 1 .. e + acted and its last approximation has e + acted
    bits per side."""
    return 1 + (e + acted) * (1 if mode == PAIR else 2) if acted else 0


def report_5_view(report, trace_doc):
    """A gencomp-report/6 report in the /5 shape: the old format tag and
    the diagonal verdict inputs that /6 reads by position.  Row e of
    `single-victim` named its `strategy`, e, and its `probes`, the
    `probe_count` of strategy e's tally; row k of `gap-census-consistency`
    named the `side` of value census k and its `prefix`, the census's
    oracle bit once per defined stage (the record count less one)."""
    old = dict(report, format="gencomp-report/5")
    if "value_censuses" not in report:  # not a diagonal report
        return old
    bits = len(trace_doc["records"]) - 1
    rows = {
        "single-victim": iter([
            {"strategy": e, "probes": probe_count(e, row["pending"] + row["sprung"], trace_doc["mode"])}
            for e, row in enumerate(report["trap_tallies"])
        ]),
        "gap-census-consistency": iter([
            {"prefix": {"all-zeros": "0", "all-ones": "1"}[row["oracle_prefix"]] * bits, "side": row["side"]}
            for row in report["value_censuses"]
        ]),
    }
    old["verdicts"] = [
        dict(v, inputs=next(rows[v["invariant"]])) if v["invariant"] in rows else v
        for v in report["verdicts"]
    ]
    assert all(next(left, None) is None for left in rows.values())
    return old


@pytest.mark.parametrize("name", sorted(REPORT_5_DIGESTS))
def test_report_6_reads_as_report_5(tmp_path, name):
    # the /6 bump writes every diagonal verdict with empty inputs, its row
    # giving its strategy or census; everything else a /5 report said is
    # unchanged
    old = canonical_json(report_5_view(*written_artifacts(tmp_path, name))).encode()
    assert hashlib.sha256(old).hexdigest() == REPORT_5_DIGESTS[name]


# the diagonal view configs and test_runs' 64-stage mixed and scripted
# configs, in both modes
PROBE_COUNT_CONFIGS = {name: REPORT_VIEW_CONFIGS[name] for name in DIAGONAL_VIEW_CONFIGS}
PROBE_COUNT_CONFIGS.update(
    ("%s-%s" % (name, scenario), config)
    for scenario in DIAGONAL_MODES
    for name, config in [("mixed-64", _mixed_config(scenario, 0))] + [
        ("scripted-64-seed-%d" % seed, _scripted_config(scenario, 0, seed)) for seed in (2, 3)
    ]
)


@pytest.mark.parametrize("name", sorted(PROBE_COUNT_CONFIGS))
def test_probe_count_is_a_function_of_the_tally(tmp_path, name):
    # what `report_5_view` rests on: strategy e's acts are the stages
    # e + 1 .. e + n, n its tally's pending plus sprung count, so its
    # single-victim probe set has `probe_count(e, n, mode)` members
    report, doc = _run_capped(tmp_path, PROBE_COUNT_CONFIGS[name])
    trace = trace_from_jsonable(doc)
    assert len(report["trap_tallies"]) == trace.strategy_count
    for e, row in enumerate(report["trap_tallies"]):
        n = row["pending"] + row["sprung"]
        assert [s for s, rec in enumerate(trace.records) if e in rec.acts] == list(range(e + 1, e + n + 1))
        assert len(default_probe_prefixes(trace, e)) == probe_count(e, n, trace.mode)


@pytest.mark.parametrize("name", DIAGONAL_VIEW_CONFIGS)
def test_diagonal_report_is_a_view_of_the_trace(tmp_path, name):
    # a diagonal report is a function of its trace file alone: loading
    # trace.json and reporting on it, under the format tag, rebuilds
    # report.json byte for byte
    _, doc = written_artifacts(tmp_path, name)
    rebuilt = {"format": REPORT_FORMAT, **_diagonal_report(trace_from_jsonable(doc))}
    assert canonical_json(rebuilt) == (tmp_path / "report.json").read_text()


@pytest.mark.parametrize("name", SCENARIO_VIEW_CONFIGS)
def test_scenario_report_is_a_view_of_the_trace(tmp_path, name):
    # every other scenario's report is what a replay of the trace's config
    # echo reports, as `verify` recomputes it
    _, doc = written_artifacts(tmp_path, name)
    rebuilt = {"format": REPORT_FORMAT, **SCENARIO_TABLE[doc["scenario"]].run(doc["config"])[1]}
    assert canonical_json(rebuilt) == (tmp_path / "report.json").read_text()


def test_value_censuses_are_gap_only():
    # a diagonal value set omits only its rules' gaps, each a power-of-2
    # suffix of its block, and keeps 0; so no value census writes `omitted`,
    # which its records give
    names = [name for name, (cfg, _, _) in ARTIFACT_GOLDEN.items() if "strategies" in cfg]
    assert names
    for name in names:
        report, _ = run_experiment(ARTIFACT_GOLDEN[name][0])
        censuses = report["value_censuses"]
        assert censuses, name
        for row in censuses:
            assert row["census"]["gap_only"] and "omitted" not in row["census"], name


# the trace.json digests of the scenario configs as gencomp-scenario-trace/4
# wrote them
SCENARIO_TRACE_4_DIGESTS = {
    "coding-roundtrip-7": "ccf3ae953c52411a556ab0a7789fe112109ab1ac448c2b29f9625f2175bd215e",
    "operator-echo-5": "9325c084b8475c8c14f5230c86050338365fda8422e92ed7e6e970c5fedbf101",
    "operator-order-gate-5": "5fd5efed7e68a78d24aaa90c6b12220ae459ff2fce31df3d0fcc1d3ee328bcc6",
    "relation-embed-3": "55c13fc1e83cac62caace0a00627c899459eb191ffb5e79109790b2d4dd438b6",
}


def child_seed_4(seed, k):
    """`scenarios.child_seed` as every format up to /4 derived it: seed
    s + 1's real k was seed s's real k + 1."""
    return reals.mix64(seed + k + 1)


def written_scenario_trace(tmp_path, monkeypatch, name):
    """The /5 trace.json of a golden scenario config.  A coding-roundtrip
    run derives its reals with `child_seed_4`, so that it decodes the reals
    every older format decoded; no other scenario reads child seeds."""
    cfg = ARTIFACT_GOLDEN[name][0]
    if cfg["scenario"] == "coding-roundtrip":
        monkeypatch.setattr(scenarios, "child_seed", child_seed_4)
    run_experiment({**cfg, "out_dir": str(tmp_path)})
    written = json.loads((tmp_path / "trace.json").read_text())
    assert written["format"] == "gencomp-scenario-trace/5"
    return written


def scenario_trace_4_view(doc):
    """A gencomp-scenario-trace/5 trace in the /4 shape: the old format tag
    and the operator-compile axioms back to the upward closure /4 wrote,
    each minimal axiom on every assignment below the element bound that
    contains its premise, deduplicated and sorted.  An assignment is
    written as a premise is, one of `-01` per index."""
    old = dict(doc, format="gencomp-scenario-trace/4")
    if doc["scenario"] == "operator-compile":
        assignments = ["".join(a) for a in itertools.product("-01", repeat=doc["config"]["element_bound"])]
        closure = {
            (n, x, assignment)
            for n, x, premise in doc["log"]
            for assignment in assignments
            if all(c in ("-", a) for c, a in zip(premise, assignment, strict=True))
        }
        old["log"] = [list(axiom) for axiom in sorted(closure)]
    return old


@pytest.mark.parametrize("name", sorted(SCENARIO_TRACE_4_DIGESTS))
def test_scenario_trace_5_reads_as_4(tmp_path, monkeypatch, name):
    # the /5 bump keeps only an operator's minimal axioms and derives child
    # seeds from the splitmix64 state; with the old child seeds, everything
    # else a /4 trace said is unchanged
    written = written_scenario_trace(tmp_path, monkeypatch, name)
    old = canonical_json(scenario_trace_4_view(written)).encode()
    assert hashlib.sha256(old).hexdigest() == SCENARIO_TRACE_4_DIGESTS[name]


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
    logged = {ARTIFACT_GOLDEN[name][0]["scenario"] for name in SCENARIO_TRACE_4_DIGESTS}
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
RECORD_FIELDS = ("acts", "batches", "rules", "trap_events")


@st.composite
def doctored_goldens(draw):
    """A golden /6 document with one place in one record field (or in the
    header) changed: its value swapped for another type, the entry dropped
    or duplicated, the list given one item more or less, or two adjacent
    entries of the list swapped (acts, batches or runs out of order).  Or
    one act changed in what the loader derives from it: a bit cut from the
    suffix of one side (unequal lengths in pair mode) or of every side (too
    short for the last approximation), or the act deleted with its rules
    (a death)."""
    doc = json.loads(golden_trace_text(draw(st.sampled_from(sorted(GOLDEN)))))
    part = draw(st.integers(0, 5))
    if part == 5:
        rec = draw(st.sampled_from([rec for rec in doc["records"] if rec["acts"]]))
        i = draw(st.integers(0, len(rec["acts"]) - 1))
        k = len(rec["acts"][i]) - 1
        kind = draw(st.sampled_from(("cut-one", "cut-all", "delete")))
        if kind == "delete":
            del rec["acts"][i], rec["rules"][k * i:k * (i + 1)]
        else:
            for j in range(1, k + 1) if kind == "cut-all" else [draw(st.integers(1, k))]:
                rec["acts"][i][j] = rec["acts"][i][j][:-1]
        return doc
    if part:
        holder = draw(st.sampled_from(doc["records"]))
        key = draw(st.sampled_from(RECORD_FIELDS))
    else:
        holder, key = doc, draw(st.sampled_from(("mode", "config", "records")))
    path = draw(st.sampled_from(list(json_places(holder[key]))))
    parent, slot = holder, key
    for i in path:
        parent, slot = parent[slot], i
    target = parent[slot]
    kind = draw(st.sampled_from(("swap", "drop", "duplicate", "extend", "shorten", "reorder")))
    if kind == "reorder" and type(target) is list and len(target) > 1:
        i = draw(st.integers(0, len(target) - 2))
        target[i:i + 2] = target[i + 1], target[i]
    elif kind == "drop":
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
    # violation that names a place, never with a bare Python error; a
    # document that loads is what the writer writes back, and is audited,
    # and the audits may only run out of their node budget
    try:
        trace = trace_from_jsonable(doc)
    except (InvariantViolationError, UndefinedInputError) as exc:
        assert not str(exc).endswith(" at None")
        return
    assert canonical_json(trace_to_jsonable(trace)) == canonical_json(doc)
    try:
        audit_trace(trace)
    except BudgetError:
        pass
