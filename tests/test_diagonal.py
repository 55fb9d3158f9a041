import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp import diagonal
from gencomp.adversaries import CATALOG, CautiousCopier, PrefixFlooder, Silent, TrapSpringer
from gencomp.density import gap_census, prefix_density
from gencomp.diagonal import (
    PAIR,
    SINGLE,
    GapRule,
    GapRuleTable,
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
    run_pair,
    run_single,
    select_marker_node,
    trace_from_jsonable,
    trace_to_jsonable,
    trap_status,
)
from gencomp.errors import (
    BudgetError,
    InvariantViolationError,
    SelectorCapError,
    UndefinedInputError,
    UndefinedRegionError,
)
from gencomp.harness import canonical_json
from gencomp.reals import Enumerator
from gencomp.runs import elements


def table_of(*rules, defined=6, side="x"):
    t = GapRuleTable(side)
    for r in rules:
        t.add_rule(r)
    t.extend_defined(defined)
    return t


def silent_run(stages, n_strategies=1, selector=LeftmostSelector):
    return run_single(
        stages, [StrategySpec(Silent(), selector()) for _ in range(n_strategies)]
    )


# --- gap rules and evaluation ------------------------------------------------


def test_gap_rule_interval():
    r = GapRule(1, 3, "10")
    assert r.gap == (12, 16)
    assert GapRule(0, 1, "").gap == (2, 4)  # whole block


def test_gap_rule_validation():
    with pytest.raises(UndefinedInputError):
        GapRule(4, 3, "")
    with pytest.raises(SelectorCapError):
        GapRule(1, 2, "011")


def test_eval_phi_examples():
    empty = table_of(defined=5)
    assert empty.evaluate("10101", 7) == 1
    t = table_of(GapRule(1, 3, "10"), defined=5)
    assert t.evaluate("10", 14) == 0
    assert t.evaluate("101", 14) == 0
    assert t.evaluate("1", 14) is None  # undecided: node is longer
    assert t.evaluate("11", 14) == 1    # incomparable node never applies
    assert t.evaluate("10", 11) == 1    # below the gap


def test_eval_phi_errors():
    t = table_of(defined=3)
    with pytest.raises(UndefinedInputError):
        t.evaluate("0", 0)
    with pytest.raises(UndefinedRegionError):
        t.evaluate("0", 16)


def test_excluded_interval_merges_nested_gaps():
    t = table_of(GapRule(0, 4, "0"), GapRule(2, 4, ""), defined=5)
    assert t.excluded_interval(4, "00") == (16, 32)
    assert t.excluded_interval(4, "10") == (28, 32)
    assert t.excluded_interval(3, "00") is None


# --- tree levels -------------------------------------------------------------


def test_tree_level_full_when_no_enumeration():
    ctx = LevelContext(3, (), (table_of(defined=4),))
    assert sorted(enumerate_level(ctx)) == sorted(
        (format(v, "03b"),) for v in range(8)
    )


def test_tree_level_prunes_definite_exclusions():
    # gap covering all of block 1 for oracles extending "1"; opponent
    # enumerated 2 by step 2
    t = table_of(GapRule(0, 1, "1"), defined=4)
    ctx = LevelContext(2, ((2, 3),), (t,))
    assert sorted(enumerate_level(ctx)) == [("00",), ("01",)]


def test_tree_level_pair_union_keeps_nodes():
    # y-side rule excludes 2 only under tau extending "1"; x side never
    # excludes it, so the union keeps every pair
    xt = table_of(defined=4)
    yt = table_of(GapRule(0, 1, "1", side="y"), defined=4, side="y")
    ctx = LevelContext(2, ((2, 3),), (xt, yt))
    assert len(enumerate_level(ctx)) == 16


def test_tree_level_pair_prunes_joint_exclusions():
    xt = table_of(GapRule(0, 1, "0"), defined=4)
    yt = table_of(GapRule(0, 1, "1", side="y"), defined=4, side="y")
    ctx = LevelContext(2, ((2, 3),), (xt, yt))
    survivors = enumerate_level(ctx)
    assert len(survivors) == 12
    assert all(not (sx.startswith("0") and sy.startswith("1")) for sx, sy in survivors)


def test_zero_in_enumeration_kills_everything():
    ctx = LevelContext(3, ((0, 1),), (table_of(defined=4),))
    assert enumerate_level(ctx) == []
    assert find_survivor(ctx) is None


def test_find_survivor_orders():
    t = table_of(GapRule(0, 1, "0"), defined=4)
    ctx = LevelContext(2, ((2, 3),), (t,))
    assert find_survivor(ctx, "01") == ("10",)
    assert find_survivor(ctx, "10") == ("11",)


def test_find_survivor_budget():
    ctx = LevelContext(10, (), (table_of(defined=11),))
    with pytest.raises(BudgetError):
        find_survivor(ctx, budget=3)
    # the subtree under "0" is killed; each visited node costs one unit of
    # budget, killed or not, and the search stops at its first survivor
    t = table_of(GapRule(0, 1, "0"), defined=4)
    ctx = LevelContext(2, ((2, 3),), (t,))
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
    with pytest.raises(SelectorCapError):
        select_marker_node(("01",), [{"", "0", "01"}])
    with pytest.raises(SelectorCapError):
        select_marker_node(("01",), [{"", "0"}], cap=1)
    with pytest.raises(SelectorCapError):
        select_marker_node(("01", "11"), [{"", "01"}, {"1"}])


# --- single-mode runs --------------------------------------------------------


def test_hand_simulated_five_stage_run():
    trace = silent_run(5)
    assert [(m.stage, m.node) for m in trace.markers[0]] == [
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
    w = Enumerator.from_schedule(0, {3: {2}})
    trace = run_single(7, [StrategySpec(w, LeftmostSelector())])
    assert [(m.stage, m.node) for m in trace.markers[0]] == [(1, ("",)), (2, ("0",)), (3, ("00",))]
    assert trace.death_stage[0] == 4
    assert audit_trace(trace) == []


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
        assert trace.tree_level(0, trace.death_stage[0] - 1) == []


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
            outcomes = sum(
                info["acted"] + info["died"] for rec in trace.records for info in rec.info.values()
            )
            assert trace.death_stage[1] is not None
            assert len(calls) == outcomes > 0
            assert {args[1] for args in calls} == {selector().order}


def test_rightmost_run():
    trace = run_single(5, [StrategySpec(Silent(), RightmostSelector())])
    assert [(m.stage, m.node) for m in trace.markers[0]] == [
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
    for rule in trace.table("x").rules:
        if all(c == "0" for c in rule.node):
            assert not (set(range(*rule.gap)) & values)
    assert audit_trace(trace) == []


def test_prefix_determinism_small():
    trace = run_single(
        7,
        [StrategySpec(Silent(), LeftmostSelector()), StrategySpec(TrapSpringer(), LeftmostSelector())],
    )
    table = trace.table()
    for v in range(1 << 7):
        sigma = format(v, "07b")
        for n in range(1, 1 << 7):
            base = table.evaluate(sigma, n)
            assert base in (0, 1)
            assert table.evaluate(sigma + "0", n) == base
            assert table.evaluate(sigma + "1", n) == base


def test_gap_census_consistency_audit():
    trace = silent_run(6)
    assert audit_gap_census_consistency(trace, "00000") == []
    assert audit_gap_census_consistency(trace, "11111") == []
    # and directly: the censused gaps under the victim prefix are the rules
    census = gap_census(functional_value_set(trace, "00000"), 6)
    assert census.record(1) == 0
    assert all(census.record(i) == 0 for i in range(1, 6) if i <= 4)


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
    assert sum(1 for r in trace.rules_for(1) if probe[0].startswith(r.node)) == 7
    assert audit_single_victim(trace, 1, default_probe_prefixes(trace, 1)) == []
    assert audit_trace(trace) == []


def with_quiet_stages(trace, rules):
    """The trace continued through the last rule's stage by quiet records:
    each carries the rules of its own stage, enumerates nothing and places
    no marker, and every strategy keeps its last approximation."""
    last = trace.records[-1]
    info = {e: dict(i, marker=None) for e, i in last.info.items()}
    top = max(r.stage for r in rules)
    quiet = [
        StageRecord(stage=s, batches={}, rules=tuple(r for r in rules if r.stage == s),
                    info=info, trap_events=())
        for s in range(len(trace.records), top + 1)
    ]
    return Trace(trace.mode, top + 1, trace.records + quiet, trace.config_echo)


def test_single_victim_pair_reports_extra_x_rules():
    # rules injected along the deviation probe: up to changes + x-lcp = 10
    # pass, one more is reported
    trace = _pair_mind_change_run()
    probes = default_probe_prefixes(trace, 1)

    def with_extra(count):
        return with_quiet_stages(trace, [GapRule(1, 20 + k, "0" * (7 + k)) for k in range(count)])

    assert audit_single_victim(with_extra(3), 1, probes) == []
    bad = audit_single_victim(with_extra(4), 1, probes)
    assert len(bad) == 1 and "gap count 11 exceeds changes 2 + lcp 8" in bad[0]


def test_append_rejects_a_rule_of_another_stage():
    # a stage-9 rule in the stage-2 record would sit in the table beyond the
    # trace's horizon, where no audit looks
    trace = run_single(5, [StrategySpec(Silent(), LeftmostSelector())])
    rec = trace.records[2]
    doctored = StageRecord(rec.stage, rec.batches, rec.rules + (GapRule(0, 9, "0000"),),
                           rec.info, rec.trap_events)
    with pytest.raises(InvariantViolationError, match="stage-9 rule in the record of stage 2"):
        Trace(trace.mode, trace.stages, trace.records[:2] + [doctored] + trace.records[3:],
              trace.config_echo)


def test_pair_y_only_mind_change_keeps_x_marks():
    # a y-only mind change at stage 6 keeps the x path: its x strings
    # 0^0..0^4 stay marked, so the markers continue below them instead of
    # gapping them once more under the new y branch
    sel = ScriptedSelector([(6, ("0", "1"))])
    trace = run_pair(12, [StrategySpec(Silent(), sel)])
    assert [m.node for m in trace.markers[0][4:7]] == [
        ("0000", "0000"), ("00000", "10000"), ("000000", "100000"),
    ]
    x_nodes = [r.node for r in trace.rules_for(0)]
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


def test_marker_on_path_audit_detects_tampering():
    trace = silent_run(5)
    doc = trace_to_jsonable(trace)
    doc["records"][2]["rules"][0][2] = "1"  # the stage-2 marker, off the approximation 00
    bad = trace_from_jsonable(doc)
    assert audit_marker_on_path(bad)


@pytest.mark.parametrize("build, marker", [(run_single, "1"), (run_pair, ["1", "1"])])
def test_registry_failures_are_audit_trace_failures(build, marker):
    trace = build(
        6,
        [StrategySpec(TrapSpringer(), LeftmostSelector()), StrategySpec(Silent(), RightmostSelector())],
    )
    doc = trace_to_jsonable(trace)
    # strategy 0's stage-2 marker, the nodes of its rules, off the approximation 00
    for rule, node in zip(doc["records"][2]["rules"], [marker] if isinstance(marker, str) else marker):
        rule[2] = node
    loaded = trace_from_jsonable(doc)
    # the rules of the stage-2 trap event go too; the loader rejects the acts
    # they belong to, so they are dropped from the loaded record
    rec = loaded.records[1]
    dropped = StageRecord(rec.stage, rec.batches, (), rec.info, rec.trap_events)
    bad = Trace(loaded.mode, loaded.stages, [loaded.records[0], dropped] + loaded.records[2:],
                loaded.config_echo)
    # the audits one by one, in the order the report lists them
    expected = audit_marker_on_path(bad) + audit_trap_soundness(bad) + audit_spoiling(bad)
    for e in range(bad.strategy_count):
        expected += audit_single_victim(bad, e, default_probe_prefixes(bad, e))
    for side in bad.sides:
        for probe in ("0" * 5, "1" * 5):
            expected += audit_gap_census_consistency(bad, probe, side)
    verdicts = audit_verdicts(bad)
    assert [msg for _, _, failed in verdicts for msg in failed] == audit_trace(bad) == expected
    # the off-path marker is also a late marker off the final path
    assert [name for name, _, failed in verdicts if failed] == [
        "marker-on-path", "trap-soundness", "spoiling-completeness", "single-victim"
    ]
    for part in ("off path", "does not contain", "no spoiling witness", "late marker"):
        assert any(part in msg for msg in expected), part


def _doctor_trap_event(event, batch):
    def doctor(rec):
        rec["trap_events"][0], rec["batches"] = event, [[0, batch]] if batch else []
    return doctor


@pytest.mark.parametrize("build", [run_single, run_pair])
@pytest.mark.parametrize("doctor, reason", [
    # one element below the gap, or one past it, the batch widened to cover it
    (_doctor_trap_event([0, 1, 1, 2], [[1, 3]]), "trap event (0, 1, [1, 2)) lies outside its gap"),
    (_doctor_trap_event([0, 1, 2, 5], [[2, 5]]), "trap event (0, 1, [2, 5)) lies outside its gap"),
    # the rule of the event's own stage, not yet issued when the run came
    (_doctor_trap_event([0, 2, 2, 3], [[2, 3]]), "trap event (0, 2, [2, 3)) at stage 2 does not follow its rule"),
    (_doctor_trap_event([0, 1, 2, 3], None),
     "trap event (0, 1, [2, 3)) is not in strategy 0's batch of stage 2"),
], ids=["below-gap", "past-gap", "gap-stage-shifted", "batch-missing"])
def test_trap_soundness_reports_an_event_that_is_no_witness(build, doctor, reason):
    trace = build(
        6,
        [StrategySpec(TrapSpringer(), LeftmostSelector()), StrategySpec(Silent(), RightmostSelector())],
    )
    doc = trace_to_jsonable(trace)
    assert doc["records"][2]["trap_events"] == [[0, 1, 2, 3]]
    doctor(doc["records"][2])
    assert audit_trap_soundness(trace_from_jsonable(doc)) == [reason]


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
        assert any(rec.trap_events for rec in trace.records) and trace.death_stage[0] is not None
        assert audit_trap_soundness(trace) == []
        assert audit_spoiling(trace) == []
    assert len(traces[-1].approx_chains(1)) == 2


def test_scripted_selector_mind_change():
    sel = ScriptedSelector([(3, ("111111",))])
    trace = run_single(6, [StrategySpec(Silent(), sel)])
    # leftmost fallback until stage 3, then the scripted path
    markers = [(m.stage, m.node) for m in trace.markers[0]]
    assert markers[:2] == [(1, ("",)), (2, ("0",))]
    assert markers[2] == (3, ("1",))
    assert len(trace.approx_chains(0)) == 2
    assert audit_trace(trace) == []


def test_scripted_selector_off_tree_raises():
    # stage-2 rule under node "1" plus an enumeration into its gap kills
    # every oracle extending "1"; a script insisting on that branch is a
    # contract violation
    sel = ScriptedSelector([(1, ("1111111",))])
    w = Enumerator.from_schedule(0, {2: {4}})
    with pytest.raises(InvariantViolationError):
        run_single(7, [StrategySpec(w, sel)])


def test_pair_run_markers_and_sides():
    trace = run_pair(5, [StrategySpec(Silent(), LeftmostSelector())])
    assert [(m.stage, m.node) for m in trace.markers[0]] == [
        (1, ("", "")),
        (2, ("0", "0")),
        (3, ("00", "00")),
        (4, ("000", "000")),
    ]
    assert len(trace.table("x").rules) == len(trace.table("y").rules) == 4
    assert audit_trace(trace) == []


def test_pair_run_union_semantics():
    # an opponent hitting only the x-side gap never empties the pair tree
    w = Enumerator.from_schedule(0, {3: {2}})
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
    assert trace.tree_level(0, 0) == []


def test_run_config_validation():
    with pytest.raises(UndefinedInputError):
        RunConfig("triple", 5, ())
    with pytest.raises(BudgetError):
        RunConfig(SINGLE, 100, ())


def test_run_budget_error():
    with pytest.raises(BudgetError):
        run_single(5, [StrategySpec(Silent(), LeftmostSelector())], node_budget=1)


def test_trace_json_roundtrip():
    trace = run_single(
        6,
        [StrategySpec(TrapSpringer(), LeftmostSelector()), StrategySpec(Silent(), RightmostSelector())],
    )
    doc = trace_to_jsonable(trace)
    back = trace_from_jsonable(doc)
    assert trace_to_jsonable(back) == doc
    assert back.death_stage == trace.death_stage
    assert back.markers[1][-1].node == trace.markers[1][-1].node
    assert audit_trace(back) == []


@st.composite
def _round_trip_runs(draw):
    """A run of 0-5 strategies in either mode: catalog or scripted opponents
    under extremal selectors, and silent opponents under scripted selectors
    whose guesses change their minds (an opponent that prunes could cut a
    scripted guess off the tree)."""
    mode = draw(st.sampled_from((SINGLE, PAIR)))
    stages = draw(st.integers(1, 10))
    k = len(diagonal.SIDES[mode])
    specs = []
    for _ in range(draw(st.integers(0, 5))):
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
            source = Enumerator.from_schedule(0, schedule)
        else:
            source = CATALOG[kind]()
        specs.append(StrategySpec(source, draw(st.sampled_from((LeftmostSelector, RightmostSelector)))()))
    return run_construction(RunConfig(mode, stages, tuple(specs)))


@given(_round_trip_runs())
@settings(max_examples=150, deadline=None)
def test_trace_document_round_trip(trace):
    # the document keeps only what each stage did; the loader rebuilds every
    # record, every view and the same bytes from it
    doc = trace_to_jsonable(trace)
    back = trace_from_jsonable(doc)
    assert back.records == trace.records
    assert [(t.side, t.rules, t.defined_through) for t in back.tables()] == [
        (t.side, t.rules, t.defined_through) for t in trace.tables()
    ]
    for view in ("enumerated", "markers", "final_approx", "death_stage"):
        assert getattr(back, view) == getattr(trace, view), view
    assert canonical_json(trace_to_jsonable(back)) == canonical_json(doc)


def test_tree_antitonicity():
    # every surviving node's parent survived at the earlier level
    w = Enumerator.from_schedule(0, {1: {2}, 3: {5, 13}})
    trace = run_single(7, [StrategySpec(w, LeftmostSelector())])
    for l in range(1, 6):
        level = set(trace.tree_level(0, l))
        parents = set(trace.tree_level(0, l - 1))
        for (node,) in level:
            assert (node[:-1],) in parents


def test_tree_level_matches_bruteforce_eval():
    # independent recount of a level via the public tri-valued evaluation
    w = Enumerator.from_schedule(0, {1: {2}, 2: {5}})
    trace = run_single(6, [StrategySpec(w, LeftmostSelector())])
    table = trace.table()
    for l in range(1, 5):
        enum = [n for lo, hi in trace.enumerated_through(0, l) for n in range(lo, hi) if 0 < n < (1 << l)]
        expected = []
        for v in range(1 << l):
            sigma = format(v, "0%db" % l)
            if all(table.evaluate(sigma, n) != 0 for n in enum):
                expected.append((sigma,))
        assert trace.tree_level(0, l) == expected
