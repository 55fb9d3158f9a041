import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencomp import diagonal
from gencomp.adversaries import CATALOG, CautiousCopier, PrefixFlooder, Scripted, Silent, TrapSpringer
from gencomp.density import gap_census, gap_interval, prefix_density
from gencomp.diagonal import (
    PAIR,
    SINGLE,
    LeftmostSelector,
    LevelContext,
    RightmostSelector,
    RunConfig,
    ScriptedSelector,
    StageRecord,
    StrategySpec,
    Trace,
    audit_gap_census_consistency,
    audit_marker_on_path,
    audit_single_victim,
    audit_spoiling,
    audit_trace,
    audit_trap_soundness,
    audit_verdicts,
    default_probe_prefixes,
    enumerate_level,
    find_survivor,
    functional_value_set,
    run_construction,
    run_single,
    select_marker_node,
    trace_from_jsonable,
    trace_to_jsonable,
    trap_status,
)
from gencomp.errors import BudgetError, InvariantViolationError, UndefinedInputError
from gencomp.harness import canonical_json, report_passes, run_experiment
from gencomp.runs import from_elements
from oracles import elements, run_pair
from reference_engine import reference_level, reference_stage


def trace_of(*acts, defined=6, mode=SINGLE):
    """A trace of stages 0..defined whose records hold `acts`: (e, stage,
    marker), with one marker string per side.  Each act's approximation is
    its marker, and no strategy enumerates anything."""
    count = max((e for e, _, _ in acts), default=-1) + 1
    records = [
        StageRecord({e: () for e in range(count)},
                    {e: (marker, marker) for e, stage, marker in sorted(acts) if stage == s})
        for s in range(defined + 1)
    ]
    return Trace(mode, records)


def silent_run(stages, n_strategies=1, selector=LeftmostSelector):
    return run_single(
        stages, [StrategySpec(Silent(), selector()) for _ in range(n_strategies)]
    )


# --- gap rules and evaluation ------------------------------------------------


def test_eval_phi_examples():
    empty = trace_of(defined=5)
    assert empty.evaluate(0, "10101", 7) == 1
    t = trace_of((1, 3, ("10",)), defined=5)  # gaps [12, 16) of block 3
    assert t.evaluate(0, "10", 14) == 0
    assert t.evaluate(0, "101", 14) == 0
    assert t.evaluate(0, "1", 14) is None  # undecided: node is longer
    assert t.evaluate(0, "11", 14) == 1    # incomparable node never applies
    assert t.evaluate(0, "10", 11) == 1    # below the gap


def test_eval_phi_errors():
    t = trace_of(defined=3)
    with pytest.raises(UndefinedInputError, match="^the functional's value starts at n=1$"):
        t.evaluate(0, "0", 0)
    with pytest.raises(UndefinedInputError, match="^n=16 lies beyond the defined horizon 2\\^4$"):
        t.evaluate(0, "0", 16)


def test_value_set_leaves_out_the_widest_gap_and_undecided_rules():
    # block 4's gaps nest: [16, 32) under "0" and [28, 32) under the root
    t = trace_of((0, 4, ("0",)), (2, 4, ("",)), defined=5)
    assert functional_value_set(t, "00") == ((1, 16), (32, 64))
    assert functional_value_set(t, "10") == ((1, 28), (32, 64))
    # "" does not decide the rule under "0": its gap is not definitely in
    assert functional_value_set(t, "") == ((1, 16), (32, 64))


def test_pair_evaluation_reads_each_side_of_the_marker():
    t = trace_of((0, 1, ("0", "1")), defined=2, mode=PAIR)
    assert [t.evaluate(i, "0", 2) for i in (0, 1)] == [0, 1]
    assert [t.evaluate(i, "1", 2) for i in (0, 1)] == [1, 0]


def test_pair_value_sets_read_each_side_of_the_marker():
    # the act gaps [2, 4) on x under "0" and on y under "1": each side's
    # value set and census read that side's string of the marker
    t = trace_of((0, 1, ("0", "1")), defined=2, mode=PAIR)
    assert functional_value_set(t, "00", 0) == functional_value_set(t, "11", 1) == ((1, 2), (4, 8))
    assert functional_value_set(t, "11", 0) == functional_value_set(t, "00", 1) == ((1, 8),)
    assert [t.census(prefix, i).records[1][1] for prefix, i in (("00", 0), ("00", 1))] == [0, None]
    assert audit_gap_census_consistency(t, "00", 0) == audit_gap_census_consistency(t, "00", 1) == []


def test_trap_springer_springs_the_gap_of_its_last_act():
    # the first element of the gap strategy e issued one stage earlier;
    # nothing at stage 0, and nothing after a stage at which e did not act
    t = trace_of((0, 1, ("",)), (1, 2, ("",)), defined=3)
    springer = TrapSpringer()
    assert springer.new_elements(0, 0, t) == []
    assert springer.new_elements(0, 2, t) == [(2, 3)]
    assert springer.new_elements(1, 3, t) == [(6, 7)]
    assert springer.new_elements(0, 3, t) == []


# --- tree levels -------------------------------------------------------------


def test_tree_level_full_when_no_enumeration():
    ctx = LevelContext(3, (), trace_of(defined=4))
    assert sorted(enumerate_level(ctx)) == sorted(
        (format(v, "03b"),) for v in range(8)
    )


def test_tree_level_prunes_definite_exclusions():
    # gap covering all of block 1 for oracles extending "1"; opponent
    # enumerated 2 by step 2
    t = trace_of((0, 1, ("1",)), defined=4)
    ctx = LevelContext(2, ((2, 3),), t)
    assert sorted(enumerate_level(ctx)) == [("00",), ("01",)]


def test_tree_level_pair_union_keeps_nodes():
    # two acts at block 1: strategy 0's gap [2, 4) and strategy 1's [3, 4).
    # Under x extending "0" the x side omits 2 (strategy 0's gap); under y
    # extending "1" only strategy 1's gap applies, which misses 2, so the
    # y side keeps 2 and the union keeps every such pair.  Only the pairs
    # under strategy 0's marker on both sides die
    t = trace_of((0, 1, ("0", "0")), (1, 1, ("0", "1")), defined=4, mode=PAIR)
    ctx = LevelContext(2, ((2, 3),), t)
    assert ctx.hits == ((("0",), ("0",)),)
    survivors = enumerate_level(ctx)
    assert len(survivors) == 12
    assert {(x, y) for x in ("00", "01") for y in ("10", "11")} <= set(survivors)
    assert all(not (sx.startswith("0") and sy.startswith("0")) for sx, sy in survivors)


@st.composite
def _hit_cases(draw):
    """A trace of random acts below level l, a random enumeration (holding
    0 now and then) and random nodes of length at most l."""
    mode = draw(st.sampled_from((SINGLE, PAIR)))
    l = draw(st.integers(0, 5))

    def node(n):
        return tuple(draw(st.text(alphabet="01", min_size=n, max_size=n)) for _ in diagonal.SIDES[mode])

    acts = []
    for s in range(l):
        for e in sorted(draw(st.sets(st.integers(0, s), max_size=3))):
            acts.append((e, s, node(draw(st.integers(0, s)))))
    enum = draw(st.sets(st.integers(1, 1 << l), max_size=6))
    if draw(st.integers(0, 7)) == 0:
        enum.add(0)
    nodes = [node(n) for n in draw(st.lists(st.integers(0, l), min_size=1, max_size=8))]
    return trace_of(*acts, defined=l, mode=mode), l, enum, nodes


@given(_hit_cases())
@settings(max_examples=300, deadline=None)
def test_killed_is_the_product_scan(case):
    # a node dies when 0 is enumerated, or when at some block one act per
    # side (a single act, or an act pair) has gaps sharing an enumerated
    # element and markers prefixing the node's strings
    trace, l, enum, nodes = case
    ctx = LevelContext(l, from_elements(enum), trace)
    for node in nodes:
        scan = 0 in enum or any(
            any(max(gap[0] for gap, _ in combo) <= n < 2 << s for n in enum)
            and all(side.startswith(marker[i]) for i, (side, (_, marker)) in enumerate(zip(node, combo)))
            for s in range(l)
            for combo in itertools.product(
                [(gap_interval(s, e), marker) for e, (_, marker) in trace.records[s].acts.items()],
                repeat=len(node))
        )
        assert ctx.killed(node) == scan, node


def test_tree_level_pair_prunes_joint_exclusions():
    t = trace_of((0, 1, ("0", "1")), defined=4, mode=PAIR)
    ctx = LevelContext(2, ((2, 3),), t)
    survivors = enumerate_level(ctx)
    assert len(survivors) == 12
    assert all(not (sx.startswith("0") and sy.startswith("1")) for sx, sy in survivors)


def test_zero_in_enumeration_kills_everything():
    ctx = LevelContext(3, ((0, 1),), trace_of(defined=4))
    assert enumerate_level(ctx) == []
    assert find_survivor(ctx) is None


def test_find_survivor_orders():
    t = trace_of((0, 1, ("0",)), defined=4)
    ctx = LevelContext(2, ((2, 3),), t)
    assert find_survivor(ctx, "01") == ("10",)
    assert find_survivor(ctx, "10") == ("11",)


def test_find_survivor_budget():
    ctx = LevelContext(10, (), trace_of(defined=11))
    with pytest.raises(BudgetError):
        find_survivor(ctx, budget=3)
    # the subtree under "0" is killed; each visited node costs one unit of
    # budget, killed or not, and the search stops at its first survivor
    t = trace_of((0, 1, ("0",)), defined=4)
    ctx = LevelContext(2, ((2, 3),), t)
    visited = []
    killed = ctx.killed
    ctx.killed = lambda nd: visited.append(nd) or killed(nd)
    assert find_survivor(ctx, budget=4) == ("10",)
    assert visited == [("",), ("0",), ("1",), ("10",)]
    visited.clear()
    assert enumerate_level(ctx, budget=5) == [("10",), ("11",)]
    assert visited == [("",), ("0",), ("1",), ("10",), ("11",)]
    with pytest.raises(BudgetError):
        find_survivor(ctx, budget=3)
    with pytest.raises(BudgetError):
        enumerate_level(ctx, budget=4)


# --- marker selection --------------------------------------------------------


def test_select_marker_node_examples():
    # marks are one set of strings per side
    path = ("00000",)
    assert select_marker_node(path, [set()]) == ("",)
    assert select_marker_node(path, [{""}]) == ("0",)
    assert select_marker_node(path, [{"", "0", "00"}]) == ("000",)
    assert select_marker_node(path, [{"", "00", "1"}]) == ("0",)


def test_select_marker_node_pair():
    # a prefix is free only if its string is unmarked on every side: after
    # a y-only mind change the x strings marked on the old path stay marked
    path = ("010", "110")
    assert select_marker_node(path, [set(), set()]) == ("", "")
    assert select_marker_node(path, [{""}, {""}]) == ("0", "1")
    assert select_marker_node(path, [{"", "0"}, {""}]) == ("01", "11")
    assert select_marker_node(path, [{""}, {"", "1"}]) == ("01", "11")
    assert select_marker_node(path, [{"", "0"}, {"", "0"}]) == ("01", "11")
    assert select_marker_node(path, [{"0"}, {"1"}]) == ("", "")


def test_select_marker_cap_error():
    for path, marked in ((("01",), [{"", "0", "01"}]), (("01", "11"), [{"", "01"}, {"1"}])):
        with pytest.raises(InvariantViolationError, match="^every path prefix through the cap is marked$"):
            select_marker_node(path, marked)


# --- single-mode runs --------------------------------------------------------


def test_hand_simulated_five_stage_run():
    trace = silent_run(5)
    assert list(trace.markers[0]) == [
        (1, ("",)),
        (2, ("0",)),
        (3, ("00",)),
        (4, ("000",)),
    ]
    ones = set(elements(functional_value_set(trace, "1111")))
    assert set(range(1, 32)) - ones == {2, 3}
    assert set(elements(functional_value_set(trace, "0000"))) == {1}
    assert trace.death_stage[0] is None


def test_zero_strategies_full_value():
    trace = run_single(5, [])
    assert set(elements(functional_value_set(trace, "0000"))) == set(range(1, 32))
    assert set(elements(functional_value_set(trace, "1111"))) == set(range(1, 32))


def test_scripted_spoiler_kills_tree():
    # the opponent enumerates 2 (inside the stage-1 gap under the root) at
    # stage 3; the level next computed from that enumeration is empty
    w = Scripted({3: {2}})
    trace = run_single(7, [StrategySpec(w, LeftmostSelector())])
    assert list(trace.markers[0]) == [(1, ("",)), (2, ("0",)), (3, ("00",))]
    assert trace.death_stage[0] == 4
    assert audit_trace(trace) == []


# strategy 0's opponent lists 15, the top element of block 3, at stage 4
TOP_OF_BLOCK_3 = {"enumerator": {"kind": "scripted", "stages": {"4": [15]}}, "selector": {"kind": "leftmost"}}
SILENT_RIGHTMOST = {"enumerator": {"kind": "silent"}, "selector": {"kind": "rightmost"}}


@pytest.mark.parametrize("scenario", ["single-diagonal", "pair-diagonal"])
def test_an_act_gap_prunes_every_strategy_tree(scenario):
    # 15 lies in the stage-3 gap [14, 16) of strategy 2, whose marker there
    # is the root: next to strategies 1 and 2 strategy 0 dies at stage 5,
    # and alone it lives, its path moved off the gapped node; every audit
    # passes either way
    deaths = {}
    for strategies in ([TOP_OF_BLOCK_3, SILENT_RIGHTMOST, SILENT_RIGHTMOST], [TOP_OF_BLOCK_3]):
        report, doc = run_experiment({"version": 1, "scenario": scenario, "stages": 14, "strategies": strategies})
        assert report_passes(report)
        deaths[len(strategies)] = trace_from_jsonable(doc).death_stage
    assert deaths == {3: {0: 5, 1: None, 2: None}, 1: {0: None}}


def test_scripted_opponent_lists_each_stage_and_the_engine_keeps_the_new():
    w = Scripted({1: {3, 4, 5, 9}, 4: {6, 2}})
    assert [w.new_elements(0, s, None) for s in (0, 1, 4)] == [(), ((3, 6), (9, 10)), ((2, 3), (6, 7))]
    # 1 is listed again at stage 2, where the batch holds only 5
    trace = run_single(3, [StrategySpec(Scripted({0: {1}, 2: {5, 1}}), LeftmostSelector())])
    assert [rec.batches[0] for rec in trace.records] == [((1, 2),), (), ((5, 6),)]


def _assert_script_enumerated(trace, e, schedule):
    # through each stage the engine holds exactly what the script lists
    # through it, and each batch holds only elements not listed before
    listed = set()
    for s, rec in enumerate(trace.records):
        batch = set(elements(rec.batches[e]))
        assert not batch & listed
        listed |= batch
        assert listed == set().union(*(v for t, v in schedule.items() if t <= s))
        assert trace.enumerated_through(e, s) == from_elements(listed)


@given(st.dictionaries(st.integers(0, 20), st.frozensets(st.integers(0, 50), max_size=4), max_size=6))
@settings(max_examples=60, deadline=None)
def test_scripted_opponent_enumerates_its_script_monotonely(schedule):
    trace = run_single(12, [StrategySpec(Scripted(schedule), LeftmostSelector())])
    _assert_script_enumerated(trace, 0, schedule)


def test_scripted_opponents_enumerate_their_scripts_through_fifty_stages():
    schedules = [{0: {3}, 7: {1, 9}, 31: {2}}, {5: {4}, 6: {4, 8}, 50: {0}}, {}]
    specs = [StrategySpec(Scripted(sched), LeftmostSelector()) for sched in schedules]
    trace = run_single(50, specs)
    for e, sched in enumerate(schedules):
        _assert_script_enumerated(trace, e, sched)
    assert trace.enumerated[1] == ((4, 5), (8, 9))  # stage 50 is not run


def test_trap_status_examples():
    silent = silent_run(5)
    for s in (1, 2, 3, 4):
        assert trap_status(silent, 0, s) == "pending"
    assert trap_status(silent, 0, 0) == "inactive"

    springer = run_single(6, [StrategySpec(TrapSpringer(), LeftmostSelector())])
    assert trap_status(springer, 0, 1) == "sprung"
    assert trap_status(springer, 0, 2) == "sprung"
    assert trap_status(springer, 0, 4) == "inactive"  # dead: no rule issued
    assert springer.death_stage[0] == 3


def test_springer_trap_soundness_and_spoiling():
    for build in (run_single, run_pair):
        trace = build(8, [StrategySpec(TrapSpringer(), LeftmostSelector())])
        assert trace.death_stage[0] == 3
        assert audit_trap_soundness(trace) == []
        assert audit_spoiling(trace) == []
        # after the sprung trap at the root, the whole level is gone
        assert reference_level(trace, 0, trace.death_stage[0] - 1) == []


def test_one_search_per_act_or_death(monkeypatch):
    # the liveness test's search is also the extremal path, leftmost or
    # rightmost
    calls = []
    search = diagonal.find_survivor

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(diagonal, "find_survivor", counted)
    for selector in (LeftmostSelector, RightmostSelector):
        for build in (run_single, run_pair):
            calls.clear()
            trace = build(8, [StrategySpec(Silent(), selector()),
                              StrategySpec(TrapSpringer(), selector())])
            deaths = sum(stage is not None for stage in trace.death_stage.values())
            outcomes = sum(len(rec.acts) for rec in trace.records) + deaths
            assert trace.death_stage[1] is not None
            assert len(calls) == outcomes > 0
            assert {args[1] for args in calls} == {selector().order}


def test_rightmost_run():
    trace = run_single(5, [StrategySpec(Silent(), RightmostSelector())])
    assert list(trace.markers[0]) == [
        (1, ("",)),
        (2, ("1",)),
        (3, ("11",)),
        (4, ("111",)),
    ]
    assert set(elements(functional_value_set(trace, "1111"))) == {1}


def test_multi_strategy_intersection():
    trace = silent_run(6, n_strategies=2)
    # both strategies gap along the leftmost path; the value under the
    # victim prefix is the intersection of both strategies' wishes
    values = set(elements(functional_value_set(trace, "00000")))
    for s, rec in enumerate(trace.records):
        for e, (_, (node,)) in rec.acts.items():
            if all(c == "0" for c in node):
                assert not (set(range(*gap_interval(s, e))) & values)
    assert audit_trace(trace) == []


def test_prefix_determinism_small():
    trace = run_single(
        7,
        [StrategySpec(Silent(), LeftmostSelector()), StrategySpec(TrapSpringer(), LeftmostSelector())],
    )
    for v in range(1 << 7):
        sigma = format(v, "07b")
        for n in range(1, 1 << 7):
            base = trace.evaluate(0, sigma, n)
            assert base in (0, 1)
            assert trace.evaluate(0, sigma + "0", n) == base
            assert trace.evaluate(0, sigma + "1", n) == base


def test_gap_census_consistency_audit():
    trace = silent_run(6)
    assert audit_gap_census_consistency(trace, "00000") == []
    assert audit_gap_census_consistency(trace, "11111") == []
    # and directly: the censused gaps under the victim prefix are the rules
    census = gap_census(functional_value_set(trace, "00000"), 6)
    assert census.records[1][1] == 0
    assert all(census.records[i][1] == 0 for i in range(1, 6) if i <= 4)


def test_single_victim_audit():
    trace = silent_run(8)
    assert audit_single_victim(trace, 0, default_probe_prefixes(trace, 0)) == []
    probes = [("1" * 7,), ("0" * 7,), ("0101010",)]
    assert audit_single_victim(trace, 0, probes) == []


def _pair_mind_change_run():
    # leftmost along (0..., 0...) through stage 8, then a scripted guess
    # whose x side leaves the old path at the root
    sel = ScriptedSelector([(9, ("1111", "0010"))])
    return run_pair(20, [StrategySpec(Silent(), LeftmostSelector()), StrategySpec(Silent(), sel)])


def test_single_victim_pair_bound_uses_x_lcp():
    # the x-rules along the all-zeros x probe are the seven stage-2..8
    # markers; the lcp of both sides (2, from the y side) would bound them
    # by 2 + 2, the x-side lcp (8) bounds them by 2 + 8
    trace = _pair_mind_change_run()
    probe = default_probe_prefixes(trace, 1)[1]
    assert probe[0] == "0" * 19 and len(trace.approx_chains(1)) == 2
    assert sum(1 for _, marker in trace.markers[1] if probe[0].startswith(marker[0])) == 7
    assert audit_single_victim(trace, 1, default_probe_prefixes(trace, 1)) == []
    assert audit_trace(trace) == []


def with_extra_acts(trace, e, count):
    """The trace with `count` records appended, in each of which strategy
    e acts once more: the act keeps e's final approximation, so it starts
    no new chain, and puts its marker at the root, so its x-side gap
    counts along every probe."""
    records = list(trace.records)
    approx = trace.final_approx[e]
    for s in range(len(records), len(records) + count):
        batches = {f: () for f in range(trace.strategy_count)}
        records.append(StageRecord(batches, {e: (approx, ("",) * len(approx))}))
    return Trace(trace.mode, records, trace.config_echo)


def test_single_victim_pair_reports_extra_x_rules():
    # along the all-zeros x probe, 7 x-gaps against changes 2 + x-lcp 8:
    # up to 3 more acts pass, a 4th is reported
    trace = _pair_mind_change_run()
    probes = default_probe_prefixes(trace, 1)[1:2]
    assert probes[0][0] == "0" * 19
    assert audit_single_victim(with_extra_acts(trace, 1, 3), 1, probes) == []
    bad = audit_single_victim(with_extra_acts(trace, 1, 4), 1, probes)
    assert bad == ["gap count 11 exceeds changes 2 + lcp 8 along %r (strategy 1)" % (probes[0],)]


@pytest.mark.parametrize("build, approx, marker", [
    (run_single, ("00", "00"), ("0",)),
    (run_single, ("00",), ("0", "0")),
    (run_single, (), ()),
    (run_pair, ("00", "00"), ("0",)),
    (run_pair, ("00",), ("0",)),
])
def test_append_rejects_an_act_of_the_wrong_arity(build, approx, marker):
    # an act's approximation and marker hold one string per side: its
    # rules are the marker's strings, so a y string in a single-mode trace
    # would have no table, and a missing one would issue no rule.  A trace
    # file cannot say either (an act there has one suffix per side), so
    # only records built in memory reach this check
    trace = build(5, [StrategySpec(Silent(), LeftmostSelector())])
    rec = trace.records[2]
    doctored = StageRecord(rec.batches, {0: (approx, marker)})
    reason = "^act of strategy 0 at stage 2 has not one string per side$"
    with pytest.raises(InvariantViolationError, match=reason):
        Trace(trace.mode, trace.records[:2] + [doctored] + trace.records[3:],
              trace.config_echo)


def test_rejected_append_leaves_the_views_unchanged():
    # append checks the whole record before it touches a view: each
    # stage-3 record below is refused after a valid first act and a new
    # batch, and the trace stays at 3 records.  The second act has one
    # string per side, or comes from strategy 4, which has no gap at block 3
    full = run_pair(4, [StrategySpec(Silent(), LeftmostSelector()) for _ in range(5)])
    trace = Trace(full.mode, full.records[:3], full.config_echo)
    rec = full.records[3]

    def views():
        return (dict(trace.enumerated), dict(trace.markers), dict(trace.final_approx),
                dict(trace.death_stage), list(trace.gaps), list(trace.trap_events), list(trace.records),
                trace.defined_through)

    for second, error, reason in (
        ({1: tuple(strings[:1] for strings in rec.acts[1])}, InvariantViolationError,
         "^act of strategy 1 at stage 3 "),
        ({4: rec.acts[1]}, UndefinedInputError, "^gap exponent 4 invalid for block 3$"),
    ):
        doctored = StageRecord({**rec.batches, 0: ((8, 9),)}, {0: rec.acts[0], **second})
        before = views()
        with pytest.raises(error, match=reason):
            trace.append(doctored)
        assert views() == before
    trace.append(rec)
    assert trace.records == full.records and trace.markers == full.markers
    assert trace.gaps == full.gaps and trace.trap_events == full.trap_events


def test_append_derives_the_deaths_and_the_trap_events():
    # hand-built records of five strategies over stages 0..4: strategy 0
    # acts at stage 1 only, strategy 1 at stages 2 and 3, strategy 2 at
    # stages 3 and 4 and strategy 3 at stage 4; strategy 4 never starts.
    # Only stage 4 has non-empty batches, listed in descending strategy
    # order, and strategy 3 has no earlier gap
    def record(s, acts, batches=None):
        acts = {e: (("0" * s,), ("0" * (s - e - 1),)) for e in acts}
        return StageRecord(batches or {e: () for e in range(5)}, acts)

    last = {4: (), 3: ((9, 10),), 2: ((14, 15),), 1: ((6, 8), (12, 16)), 0: ((3, 4),)}
    trace = Trace(SINGLE, [record(0, ()), record(1, (0,)), record(2, (1,)), record(3, (1, 2)),
                           record(4, (2, 3), last)])
    # a strategy that acted and then does not act dies; one that has not
    # started yet, or acts at the last stage, is alive
    assert trace.death_stage == {0: 2, 1: 4, 2: None, 3: None, 4: None}
    # each batch clipped to the gap of each earlier act of its strategy:
    # [2, 4) for strategy 0's stage-1 act, [6, 8) and [12, 16) for
    # strategy 1's stage-2 and stage-3 acts, [14, 16) for strategy 2's
    # stage-3 act, in strategy and then gap-stage order; the empty
    # batches of stages 0..3 spring none of the gaps before them
    assert trace.trap_events == [(), (), (), (),
                                 ((0, 1, 3, 4), (1, 2, 6, 8), (1, 3, 12, 16), (2, 3, 14, 15))]


def test_pair_y_only_mind_change_keeps_x_marks():
    # a y-only mind change at stage 6 keeps the x path: its x strings
    # 0^0..0^4 stay marked, so the markers continue below them instead of
    # gapping them once more under the new y branch
    sel = ScriptedSelector([(6, ("0", "1"))])
    trace = run_pair(12, [StrategySpec(Silent(), sel)])
    assert [node for _, node in trace.markers[0][4:7]] == [
        ("0000", "0000"), ("00000", "10000"), ("000000", "100000"),
    ]
    x_nodes = [marker[0] for _, marker in trace.markers[0]]
    assert len(set(x_nodes)) == len(x_nodes) == 11
    assert audit_trace(trace) == []


_BITS = st.text(alphabet="01", min_size=1, max_size=12)


@st.composite
def _mind_change_selectors(draw, stages):
    """A scripted pair guess from stage 1 on, then 1-3 mind changes; a
    y-only change keeps the x guess and moves the y guess off its branch."""
    x, y = draw(_BITS), draw(_BITS)
    entries = [(1, (x, y))]
    for start in sorted(draw(st.sets(st.integers(2, stages - 1), min_size=1, max_size=3))):
        if draw(st.booleans()):
            y = ("1" if y[0] == "0" else "0") + draw(_BITS)
        else:
            x, y = draw(_BITS), draw(_BITS)
        entries.append((start, (x, y)))
    return ScriptedSelector(entries)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_pair_mind_change_runs_pass_their_audits(data):
    # silent opponents prune nothing, so every scripted guess stays on the
    # tree and every run is valid: its own audits must pass
    stages = data.draw(st.integers(4, 14))
    selectors = data.draw(st.lists(_mind_change_selectors(stages), min_size=1, max_size=3))
    trace = run_pair(stages, [StrategySpec(Silent(), sel) for sel in selectors])
    assert audit_trace(trace) == []


def with_marker(trace, stage, e, marker):
    """The trace with strategy e's marker at `stage`, and so the nodes of
    its rules, replaced by `marker` (one string per side).  Only edited
    records can say this: a trace file writes each rule as the length of
    its node along the act's approximation."""
    rec = trace.records[stage]
    acts = dict(rec.acts)
    acts[e] = (acts[e][0], marker)
    records = list(trace.records)
    records[stage] = StageRecord(rec.batches, acts)
    return Trace(trace.mode, records, trace.config_echo)


def test_marker_on_path_audit_detects_tampering():
    trace = silent_run(5)
    assert audit_marker_on_path(trace) == []
    bad = with_marker(trace, 2, 0, ("1",))  # the stage-2 marker, off the approximation 00
    assert audit_marker_on_path(bad) == ["marker ('1',) off path at stage 2 (strategy 0)"]


@pytest.mark.parametrize("build, marker", [(run_single, "1"), (run_pair, ["1", "1"])])
def test_registry_failures_are_audit_trace_failures(build, marker):
    trace = build(
        6,
        [StrategySpec(TrapSpringer(), LeftmostSelector()), StrategySpec(Silent(), RightmostSelector())],
    )
    # strategy 0's stage-2 marker, the nodes of its rules, off the approximation 00
    tampered = with_marker(trace, 2, 0, tuple(marker))
    # strategy 0's stage-1 act goes too, and with it the rules the stage-2
    # trap event references
    rec = tampered.records[1]
    acts = {e: act for e, act in rec.acts.items() if e != 0}
    dropped = StageRecord(rec.batches, acts)
    bad = Trace(tampered.mode, [tampered.records[0], dropped] + tampered.records[2:], tampered.config_echo)
    # the trap event stays: with the act gone, the trace would not derive it
    bad.trap_events[2] = tampered.trap_events[2]
    # the audits one by one, in the order the report lists them
    expected = audit_marker_on_path(bad) + audit_trap_soundness(bad) + audit_spoiling(bad)
    for e in range(bad.strategy_count):
        expected += audit_single_victim(bad, e, default_probe_prefixes(bad, e))
    for i in range(len(bad.sides)):
        for probe in ("0" * 5, "1" * 5):
            expected += audit_gap_census_consistency(bad, probe, i)
    verdicts = audit_verdicts(bad)
    assert [msg for _, failed in verdicts for msg in failed] == audit_trace(bad) == expected
    # the off-path marker is also a late marker off the final path
    assert [name for name, failed in verdicts if failed] == [
        "marker-on-path", "trap-soundness", "spoiling-completeness", "single-victim"
    ]
    for part in ("off path", "does not contain", "no spoiling witness", "late marker"):
        assert any(part in msg for msg in expected), part


def echoed(trace, count):
    """The trace, echoing a config that lists `count` strategies: a trace
    document counts its strategies in its config echo, and an engine run
    built without a config has none."""
    trace.config_echo = {"strategies": [{}] * count}
    return trace


@pytest.mark.parametrize("build", [run_single, run_pair])
@pytest.mark.parametrize("event, batch, reason", [
    # one element below the gap, or one past it, the batch widened to cover it
    ((0, 1, 1, 2), ((1, 3),), "trap event (0, 1, [1, 2)) lies outside its gap"),
    ((0, 1, 2, 5), ((2, 5),), "trap event (0, 1, [2, 5)) lies outside its gap"),
    # the rule of the event's own stage, not yet issued when the run came
    ((0, 2, 2, 3), ((2, 3),), "trap event (0, 2, [2, 3)) at stage 2 does not follow its rule"),
    ((0, 1, 2, 3), (), "trap event (0, 1, [2, 3)) is not in strategy 0's batch of stage 2"),
    # a gap stage past the last record, and a stage at which strategy 0 did
    # not act: either way no act of the trace is the event's rule
    ((0, 99, 2, 3), ((2, 3),), "trap event (0, 99, [2, 3)) references a rule the trace does not contain"),
    ((0, 0, 2, 3), ((2, 3),), "trap event (0, 0, [2, 3)) references a rule the trace does not contain"),
], ids=["below-gap", "past-gap", "gap-stage-shifted", "batch-missing", "gap-stage-past-records",
        "gap-stage-without-act"])
def test_trap_soundness_reports_an_event_that_is_no_witness(build, event, batch, reason):
    # the trace derives its trap events, so a bad one is put into the view
    # by hand, after strategy 0's stage-2 batch is replaced by `batch`
    trace = build(
        6,
        [StrategySpec(TrapSpringer(), LeftmostSelector()), StrategySpec(Silent(), RightmostSelector())],
    )
    assert trace.trap_events[2] == ((0, 1, 2, 3),)
    rec = trace.records[2]
    records = list(trace.records)
    records[2] = StageRecord({**rec.batches, 0: batch}, rec.acts)
    doctored = Trace(trace.mode, records)
    doctored.trap_events[2] = (event,)
    assert audit_trap_soundness(doctored) == [reason]


def test_witness_audits_search_no_level(monkeypatch):
    # trap soundness and spoiling read their witnesses off the trace: they
    # build no level context and run no survivor search
    sel = ScriptedSelector([(9, ("1111", "0010"))])
    traces = [build(8, [StrategySpec(TrapSpringer(), selector())])
              for build in (run_single, run_pair) for selector in (LeftmostSelector, RightmostSelector)]
    traces.append(run_pair(20, [StrategySpec(TrapSpringer(), LeftmostSelector()), StrategySpec(Silent(), sel)]))

    def refuse(*args, **kwargs):
        raise AssertionError("an audit searched a level")

    monkeypatch.setattr(diagonal, "LevelContext", refuse)
    monkeypatch.setattr(diagonal, "find_survivor", refuse)
    for trace in traces:
        assert any(trace.trap_events) and trace.death_stage[0] is not None
        assert audit_trap_soundness(trace) == []
        assert audit_spoiling(trace) == []
    assert len(traces[-1].approx_chains(1)) == 2


def test_scripted_selector_mind_change():
    sel = ScriptedSelector([(3, ("111111",))])
    trace = run_single(6, [StrategySpec(Silent(), sel)])
    # leftmost fallback until stage 3, then the scripted path
    markers = list(trace.markers[0])
    assert markers[:2] == [(1, ("",)), (2, ("0",))]
    assert markers[2] == (3, ("1",))
    assert len(trace.approx_chains(0)) == 2
    assert audit_trace(trace) == []


def test_scripted_selector_off_tree_raises():
    # stage-2 rule under node "1" plus an enumeration into its gap kills
    # every oracle extending "1"; a script insisting on that branch is a
    # contract violation
    sel = ScriptedSelector([(1, ("1111111",))])
    w = Scripted({2: {4}})
    with pytest.raises(InvariantViolationError):
        run_single(7, [StrategySpec(w, sel)])


def test_pair_run_markers_and_sides():
    trace = run_pair(5, [StrategySpec(Silent(), LeftmostSelector())])
    assert list(trace.markers[0]) == [
        (1, ("", "")),
        (2, ("0", "0")),
        (3, ("00", "00")),
        (4, ("000", "000")),
    ]
    assert [len(rec.acts) for rec in trace.records] == [0, 1, 1, 1, 1]
    assert audit_trace(trace) == []


def test_pair_run_union_semantics():
    # an opponent hitting only the x-side gap never empties the pair tree
    w = Scripted({3: {2}})
    trace = run_pair(6, [StrategySpec(w, LeftmostSelector())])
    # 2 lies in the stage-1 gap under root on BOTH sides (markers at the
    # root issue both rules), so here the tree does die
    assert trace.death_stage[0] == 4


def test_pair_copier_survives_and_dips():
    trace = run_pair(
        10,
        [
            StrategySpec(Silent(), LeftmostSelector()),
            StrategySpec(CautiousCopier(), RightmostSelector()),
        ],
    )
    assert trace.death_stage[1] is None
    elems = {n for lo, hi in trace.enumerated[1] for n in range(lo, hi)}
    dips = 0
    for i in range(trace.defined_through + 1):
        n = 1 << (i + 1)
        if prefix_density(lambda k: k in elems, n) <= 1 - 0.25:
            dips += 1
    assert dips >= 3
    assert audit_trace(trace) == []


def test_flooder_dies_immediately():
    trace = run_single(5, [StrategySpec(PrefixFlooder(), LeftmostSelector())])
    assert trace.death_stage[0] == 1
    assert trace.markers[0] == ()
    assert reference_level(trace, 0, 0) == []


def test_run_budget_error():
    with pytest.raises(BudgetError):
        run_single(5, [StrategySpec(Silent(), LeftmostSelector())], node_budget=1)


@st.composite
def _run_configs(draw, max_stages=(10, 10), counts=(0, 5)):
    """A run config in either mode, of at most `max_stages` stages (single,
    pair) and `counts` strategies: catalog or scripted opponents under
    extremal selectors, and silent opponents under scripted selectors whose
    guesses change their minds (an opponent that prunes could cut a
    scripted guess off the tree)."""
    mode = draw(st.sampled_from((SINGLE, PAIR)))
    stages = draw(st.integers(1, max_stages[mode == PAIR]))
    k = len(diagonal.SIDES[mode])
    specs = []
    for _ in range(draw(st.integers(*counts))):
        if draw(st.booleans()):
            guesses = st.tuples(st.integers(0, stages), st.tuples(*[_BITS] * k))
            selector = ScriptedSelector(draw(st.lists(guesses, min_size=1, max_size=4)))
            specs.append(StrategySpec(Silent(), selector))
            continue
        kind = draw(st.sampled_from(sorted(CATALOG) + ["scripted"]))
        if kind == "scripted":
            schedule = draw(st.dictionaries(
                st.integers(0, stages - 1), st.sets(st.integers(0, (1 << stages) - 1), max_size=4),
                max_size=3))
            source = Scripted(schedule)
        else:
            source = CATALOG[kind]()
        specs.append(StrategySpec(source, draw(st.sampled_from((LeftmostSelector, RightmostSelector)))()))
    return RunConfig(mode, stages, tuple(specs))


def _round_trip_runs():
    """The run of a config of 0-5 strategies and at most 10 stages, echoing
    its strategy count."""
    return _run_configs().map(lambda cfg: echoed(run_construction(cfg), len(cfg.strategies)))


@given(_round_trip_runs())
@settings(max_examples=150, deadline=None)
def test_trace_document_round_trip(trace):
    # the document keeps only what each stage did; the loader rebuilds every
    # record, every view and the same bytes from it
    doc = trace_to_jsonable(trace)
    back = trace_from_jsonable(doc)
    assert back.records == trace.records
    assert back.defined_through == trace.defined_through
    for view in ("enumerated", "markers", "final_approx", "death_stage", "gaps", "trap_events"):
        assert getattr(back, view) == getattr(trace, view), view
    assert canonical_json(trace_to_jsonable(back)) == canonical_json(doc)


@given(_run_configs(max_stages=(9, 7), counts=(1, 5)))
@example(RunConfig(PAIR, 6, (StrategySpec(Scripted({2: {4}}), LeftmostSelector()),
                             StrategySpec(Silent(), LeftmostSelector()),
                             StrategySpec(Silent(), LeftmostSelector()))))
@settings(max_examples=300, deadline=None)
def test_every_stage_is_the_reference_stage(cfg):
    # the brute-force reference decides each stage from the records before
    # it, materializing every level node: its acts are the engine's record
    # and its deaths the trace's.  In the explicit example, 4 lies in strategy 0's
    # block-2 gap but not in strategy 1's, so only a node with both sides
    # under strategy 0's marker dies, not one mixing the two markers
    trace = run_construction(cfg)
    selectors = [spec.selector for spec in cfg.strategies]
    for s, rec in enumerate(trace.records):
        deaths = tuple(e for e, stage in trace.death_stage.items() if stage == s)
        assert reference_stage(trace, selectors, s) == (rec.acts, deaths), s


def test_tree_antitonicity():
    # every surviving node's parent survived at the earlier level
    w = Scripted({1: {2}, 3: {5, 13}})
    trace = run_single(7, [StrategySpec(w, LeftmostSelector())])
    for l in range(1, 6):
        level = set(reference_level(trace, 0, l))
        parents = set(reference_level(trace, 0, l - 1))
        for (node,) in level:
            assert (node[:-1],) in parents


def test_tree_level_matches_bruteforce_eval():
    # independent recount of a level via the public tri-valued evaluation:
    # the reference's level and the engine's search both give it
    w = Scripted({1: {2}, 2: {5}})
    trace = run_single(6, [StrategySpec(w, LeftmostSelector())])
    for l in range(1, 5):
        enum = [n for lo, hi in trace.enumerated_through(0, l) for n in range(lo, hi) if 0 < n < (1 << l)]
        expected = []
        for v in range(1 << l):
            sigma = format(v, "0%db" % l)
            if all(trace.evaluate(0, sigma, n) != 0 for n in enum):
                expected.append((sigma,))
        assert reference_level(trace, 0, l) == expected
        assert enumerate_level(LevelContext(l, trace.enumerated_through(0, l), trace)) == expected
