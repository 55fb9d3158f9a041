import contextlib
import functools
import io
import json
import os
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gencomp import adversaries, cli, diagonal, relations
from gencomp.diagonal import LeftmostSelector, StrategySpec, run_single, trace_from_jsonable
from gencomp.errors import BudgetError, ConfigError, InvariantViolationError
from gencomp.harness import (
    canonical_json,
    load_enumerator,
    load_selector,
    report_passes,
    run_experiment,
    validate_config,
    verify_trace_file,
)
from oracles import elements
from test_counting import RELATION_EMBED_3, scenario_trace_1_view, scenario_trace_2_view


def single_config(**extra):
    doc = {
        "version": 1,
        "scenario": "single-diagonal",
        "stages": 5,
        "strategies": [
            {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}}
        ],
    }
    doc.update(extra)
    return doc


def test_validate_config_defaults_and_strictness():
    eff = validate_config(single_config())
    assert eff["node_budget"] == 1 << 18
    assert eff["csv_profiles"] is False
    with pytest.raises(ConfigError):
        validate_config(single_config(surprise=1))
    with pytest.raises(ConfigError):
        validate_config({"scenario": "single-diagonal"})  # missing version
    with pytest.raises(ConfigError):
        validate_config(single_config(stages="five"))
    with pytest.raises(ConfigError):
        validate_config({"version": 1, "scenario": "coding-roundtrip"})  # seed required
    assert validate_config(single_config(csv_profiles=True))["csv_profiles"] is True
    for not_a_bool in ("false", "true", 0, 1, None, []):
        with pytest.raises(ConfigError):
            validate_config(single_config(csv_profiles=not_a_bool))
    # a bool or a float equal to 1 is not version 1
    for not_one in (True, 1.0):
        with pytest.raises(ConfigError, match="^config version must be 1$"):
            validate_config(single_config(version=not_one))


def test_loaders():
    w = load_enumerator({"kind": "scripted", "stages": {"2": [5, 1]}})
    assert w.new_elements(0, 2, None) == ((1, 2), (5, 6))
    assert type(load_enumerator({"kind": "trap-springer"})).name == "trap-springer"
    with pytest.raises(ConfigError):
        load_enumerator({"kind": "scripted", "stages": {"x": [1]}})
    assert load_selector({"kind": "rightmost"}, "single").bit == "1"
    sel = load_selector({"kind": "scripted", "entries": [[2, "01"]]}, "single")
    assert sel.entries == ((2, ("01",)),)


def test_builtin_adversaries_catalog():
    catalog = adversaries.CATALOG
    assert set(catalog) == {"silent", "trap-springer", "cautious-copier", "prefix-flooder"}
    assert list(catalog["silent"]().new_elements(0, 3, None)) == []
    assert list(catalog["prefix-flooder"]().new_elements(0, 2, None)) == [(0, 4)]


def test_springer_reads_trace_one_stage_later():
    springer = adversaries.CATALOG["trap-springer"]()
    trace = run_single(4, [StrategySpec(springer, LeftmostSelector())])
    # the stage-1 rule under the root gaps {2,3}; the springer enumerates
    # its first element at stage 2, the run [2, 3)
    assert trace.records[2].batches[0] == ((2, 3),)


def test_copier_block_density_dips():
    # paired at strategy index 2 so the gap size is 2^-2
    cfg = {
        "version": 1,
        "scenario": "single-diagonal",
        "stages": 12,
        "strategies": [
            {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}},
            {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}},
            {"enumerator": {"kind": "cautious-copier"}, "selector": {"kind": "rightmost"}},
        ],
    }
    report, trace_doc = run_experiment(cfg)
    assert report_passes(report)
    counts = report["densities"][2]["block_end_counts"]
    dips = sum(
        1
        for i, count in enumerate(counts)
        if Fraction(count, 2 << i) <= Fraction(7, 8)  # <= 1 - 2^-3
    )
    assert dips >= 3


def test_hand_simulation_config_reproduces_markers():
    report, doc = run_experiment(single_config())
    assert report_passes(report)
    trace = trace_from_jsonable(doc)
    assert list(trace.markers[0]) == [
        (1, ("",)),
        (2, ("0",)),
        (3, ("00",)),
        (4, ("000",)),
    ]


def test_zero_strategy_run_all_ones():
    # with no strategies the functional keeps every defined element for
    # every oracle; five stages define [1, 32)
    cfg = single_config(strategies=[])
    report, doc = run_experiment(cfg)
    assert report_passes(report)
    trace = trace_from_jsonable(doc)
    assert functional_value_set_all(trace) == set(range(1, 32))
    for row in report["value_censuses"]:
        assert all(e is None for e in row["census"]["records"])


def functional_value_set_all(trace):
    from gencomp.diagonal import functional_value_set

    zeros = functional_value_set(trace, "0" * trace.defined_through)
    ones = functional_value_set(trace, "1" * trace.defined_through)
    assert zeros == ones
    return set(elements(zeros))


def test_run_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    report, trace_doc = run_experiment(single_config(csv_profiles=True, out_dir=str(out)))
    assert (out / "trace.json").exists()
    assert (out / "report.json").exists()
    assert (out / "wdensity_strategy0.csv").read_text().splitlines()[0] == "n,num,den"
    on_disk = json.loads((out / "trace.json").read_text())
    assert on_disk == trace_doc
    assert "out_dir" not in trace_doc["config"]


def test_csv_profiles_are_the_report_densities(tmp_path):
    cfg = {
        "version": 1,
        "scenario": "pair-diagonal",
        "stages": 9,
        "csv_profiles": True,
        "strategies": [
            {"enumerator": {"kind": "cautious-copier"}, "selector": {"kind": "rightmost"}},
            {"enumerator": {"kind": "prefix-flooder"}, "selector": {"kind": "leftmost"}},
            {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}},
        ],
    }
    report, _ = run_experiment({**cfg, "out_dir": str(tmp_path)})
    assert len(report["densities"]) == 3
    for entry in report["densities"]:
        csv = (tmp_path / ("wdensity_strategy%d.csv" % entry["strategy"])).read_text()
        densities = [Fraction(count, 2 << i) for i, count in enumerate(entry["block_end_counts"])]
        expected = ["n,num,den"] + [
            "%d,%d,%d" % (2 << i, d.numerator, d.denominator) for i, d in enumerate(densities)
        ]
        assert csv == "\n".join(expected) + "\n"
        assert len(expected) == 1 + 9


def test_replay_determinism_all_scenarios():
    configs = [
        single_config(),
        {
            "version": 1,
            "scenario": "pair-diagonal",
            "stages": 6,
            "strategies": [
                {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "leftmost"}},
                {"enumerator": {"kind": "silent"}, "selector": {"kind": "rightmost"}},
            ],
        },
        {"version": 1, "scenario": "coding-roundtrip", "seed": 5, "count": 3, "m_max": 6, "bound": 1024},
        {"version": 1, "scenario": "relation-embed", "seed": 8, "count": 5, "max_size": 6},
        {"version": 1, "scenario": "operator-compile", "machine": "echo", "element_bound": 3, "label_bound": 1},
    ]
    for cfg in configs:
        _, doc1 = run_experiment(cfg)
        _, doc2 = run_experiment(cfg)
        assert canonical_json(doc1) == canonical_json(doc2), cfg["scenario"]
        _, doc3 = run_experiment(doc1["config"])
        assert canonical_json(doc3) == canonical_json(doc1)


def test_scenario_reports_pass():
    for cfg in (
        {"version": 1, "scenario": "coding-roundtrip", "seed": 5, "count": 3, "m_max": 6, "bound": 1024},
        {"version": 1, "scenario": "relation-embed", "seed": 8, "count": 5, "max_size": 6},
        {"version": 1, "scenario": "operator-compile", "machine": "order-gate", "element_bound": 3, "label_bound": 2},
    ):
        report, _ = run_experiment(cfg)
        assert report_passes(report), report["scenario"]


def test_rationals_not_floats_in_artifacts():
    report, trace_doc = run_experiment(single_config())

    def no_floats(obj):
        if isinstance(obj, float):
            return False
        if isinstance(obj, dict):
            return all(no_floats(v) for v in obj.values())
        if isinstance(obj, list):
            return all(no_floats(v) for v in obj)
        return True

    assert no_floats(report) and no_floats(trace_doc)


def test_verify_trace_file_roundtrip(tmp_path):
    out = tmp_path / "v"
    run_experiment(single_config(out_dir=str(out)))
    assert verify_trace_file(str(out / "trace.json")) == []


def test_verify_detects_doctored_marker(tmp_path):
    # a marker is the nodes of its rules, one per side, each written as its
    # length along the act's approximation: a doctored length moves the
    # marker along the path, never off it, so the replay is what sees it
    for scenario in ("single-diagonal", "pair-diagonal"):
        out = tmp_path / scenario
        run_experiment(single_config(scenario=scenario, out_dir=str(out)))
        doc = json.loads((out / "trace.json").read_text())
        assert doc["records"][1]["rules"][0] == 0
        doc["records"][1]["rules"][0] = 1
        (out / "bad.json").write_text(canonical_json(doc))
        problems = verify_trace_file(str(out / "bad.json"))
        assert problems[0] == (
            "replay mismatch at records[1].rules[0]: trace is not reproducible from its config"
        )
        assert not any("off path" in p for p in problems)


AUDITS = ("audit_marker_on_path", "audit_trap_soundness", "audit_spoiling",
          "audit_single_victim", "audit_gap_census_consistency", "functional_value_set")


@pytest.mark.parametrize("scenario", ["single-diagonal", "pair-diagonal"])
def test_run_and_verify_audit_once(tmp_path, monkeypatch, scenario):
    # verify rebuilds the trace without auditing the rebuild and audits the
    # file's trace once; run computes each value census once for the
    # audit and the report together, two per side in either mode
    from gencomp import diagonal

    cfg = single_config(scenario=scenario, stages=8, strategies=[
        {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "leftmost"}},
        {"enumerator": {"kind": "cautious-copier"}, "selector": {"kind": "rightmost"}},
        {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}},
    ])
    calls = dict.fromkeys(AUDITS, 0)
    for name in AUDITS:
        def counted(*args, _name=name, _fn=getattr(diagonal, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(diagonal, name, counted)
    censuses = 2 if scenario == "single-diagonal" else 4
    once = {"audit_marker_on_path": 1, "audit_trap_soundness": 1, "audit_spoiling": 1,
            "audit_single_victim": 3, "audit_gap_census_consistency": censuses,
            "functional_value_set": censuses}
    out = tmp_path / "o"
    report, _ = run_experiment({**cfg, "out_dir": str(out)})
    assert report_passes(report) and len(report["value_censuses"]) == censuses
    assert calls == once
    calls.update(dict.fromkeys(AUDITS, 0))
    assert verify_trace_file(str(out / "trace.json")) == []
    assert calls == once


def test_verify_detects_removed_rule(tmp_path):
    out = tmp_path / "r"
    run_experiment(single_config(out_dir=str(out)))
    doc = json.loads((out / "trace.json").read_text())
    doc["records"][1]["rules"] = []
    (out / "bad.json").write_text(canonical_json(doc))
    assert any("replay mismatch" in p for p in verify_trace_file(str(out / "bad.json")))


def test_verify_detects_removed_rule_with_trap_events(tmp_path):
    # removing a rule that a recorded trap event references must be
    # reported as a violation, not crash the verifier
    cfg = single_config(
        strategies=[
            {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "leftmost"}}
        ],
        stages=8,
    )
    out = tmp_path / "t"
    run_experiment({**cfg, "out_dir": str(out)})
    doc = json.loads((out / "trace.json").read_text())
    assert any(rec["trap_events"] for rec in doc["records"])
    for rec in doc["records"]:
        rec["rules"] = []
    (out / "bad.json").write_text(canonical_json(doc))
    problems = verify_trace_file(str(out / "bad.json"))
    assert any("replay mismatch" in p for p in problems)
    assert any("does not contain" in p or "not auditable" in p for p in problems)
    assert cli.main(["verify", str(out / "bad.json")]) == 4


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(single_config()))
    assert cli.main(["run", str(cfg_path), "--out-dir", str(tmp_path / "o1")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"version": 1, "scenario": "nope"}))
    assert cli.main(["run", str(unknown)]) == 2

    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(single_config(node_budget=1)))
    assert cli.main(["run", str(tiny)]) == 3


def test_cli_pair_mind_change_passes(tmp_path):
    # a valid pair run whose scripted selector changes its mind once: the
    # single-victim audit must bound x-side gaps by the x-side lcp, not by
    # the lcp of both sides
    cfg = {
        "version": 1,
        "scenario": "pair-diagonal",
        "stages": 20,
        "strategies": [
            {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}},
            {"enumerator": {"kind": "silent"},
             "selector": {"kind": "scripted", "entries": [[9, ["1111", "0010"]]]}},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    assert cli.main(["verify", str(out / "trace.json")]) == 0


SCRIPTED_ENUMERATOR = {"enumerator": {"kind": "scripted", "stages": {"2": [5]}},
                       "selector": {"kind": "leftmost"}}


@pytest.mark.parametrize(
    "scenario, strategy",
    [
        ("single-diagonal", {"enumerator": {"kind": "scripted", "stages": {"-1": [5]}}}),
        ("single-diagonal", {"enumerator": {"kind": "scripted", "stages": {"2": [True]}}}),
        ("single-diagonal", {"enumerator": {"kind": "scripted", "stages": {"2": [5], "02": [6]}}}),
        ("single-diagonal", {"enumerator": {"kind": "scripted", "tag": "t", "stages": {}}}),
        ("single-diagonal", {"selector": {"kind": "scripted", "entries": [[2, "0a1"]]}}),
        ("single-diagonal", {"selector": {"kind": "scripted", "entries": [["x", "01"]]}}),
        ("single-diagonal", {"selector": {"kind": "scripted", "entries": [[-1, "01"]]}}),
        ("single-diagonal", {"selector": {"kind": "scripted", "entries": "01"}}),
        ("pair-diagonal", {"selector": {"kind": "scripted", "entries": [[2, ["01", 5]]]}}),
        ("pair-diagonal", {"selector": {"kind": "scripted", "entries": [[2, ["01", "2"]]]}}),
    ],
)
def test_cli_rejects_malformed_scripted_components(tmp_path, capsys, scenario, strategy):
    cfg = {"version": 1, "scenario": scenario, "stages": 5,
           "strategies": [SCRIPTED_ENUMERATOR, strategy]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_verify_names_first_divergence(tmp_path, capsys):
    cfg = single_config(
        strategies=[{"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "leftmost"}}],
        stages=6,
    )
    out = tmp_path / "t"
    run_experiment({**cfg, "out_dir": str(out)})
    doc = json.loads((out / "trace.json").read_text())
    assert doc["records"][2]["batches"] == [[0, [[2, 3]]]]
    doc["records"][2]["batches"][0][1][0][1] = 4  # the run [2, 3) becomes [2, 4)
    (out / "bad.json").write_text(canonical_json(doc))
    assert cli.main(["verify", str(out / "bad.json")]) == 4
    printed = capsys.readouterr().out
    assert "VIOLATION: replay mismatch at records[2].batches[0][1][0][1]:" in printed


def test_first_difference_paths():
    from gencomp.harness import first_difference

    assert first_difference({"a": [1, 2]}, {"a": [1, 2]}) is None
    assert first_difference({"a": [1, 2], "b": 0}, {"a": [1, 3], "b": 1}) == "a[1]"
    assert first_difference({"a": [1, 2]}, {"a": [1]}) == "a[1]"
    assert first_difference({"a": {"x": 1}}, {"a": {"y": 1}}) == "a.x"
    assert first_difference({"a": 1}, {"a": True}) == "a"
    assert first_difference([1], {"a": 1}) == "$"
    assert first_difference({"a": [0.0]}, {"a": [-0.0]}) == "a[0]"


def test_verify_rejects_trace_format_1(tmp_path, capsys):
    # single-diagonal traces of one 4-stage config written by earlier
    # formats: /1 listed batches element by element, /2 carried a per-act
    # level hash, /3 listed every strategy in every record and a final
    # block, /4 wrote every rule as [e, stage, node, side]
    for version in (1, 2, 3, 4):
        fmt = "gencomp-trace/%d" % version
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "trace_v%d.json" % version)
        with open(fixture) as fh:
            assert json.load(fh)["format"] == fmt
        assert cli.main(["verify", fixture]) == 2
        err = capsys.readouterr().err
        assert fmt in err and "gencomp-trace/5" in err and "gencomp-scenario-trace/3" in err
        assert "Traceback" not in err
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    assert cli.main(["verify", str(not_an_object)]) == 2


def test_cli_stage_and_seed_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(single_config()))
    out = tmp_path / "o"
    assert cli.main(["run", str(cfg_path), "--stages", "7", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "trace.json").read_text())
    assert doc["stages"] == 7
    trace = trace_from_jsonable(doc)
    assert trace.markers[0][-1][0] == 6


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(single_config()))
    out = tmp_path / "o"
    cli.main(["run", str(cfg_path), "--out-dir", str(out)])
    assert cli.main(["verify", str(out / "trace.json")]) == 0
    # a trace the engine could have written, but not from this config: only
    # the replay comparison sees it doctored
    for where, part, key, value in (
        # the same approximation, from a shorter kept prefix
        ("records[4].acts[0][1]", lambda d: d["records"][4]["acts"], 0, [0, 2, "00"]),
        # another last approximation, still through the last marker
        ("records[4].acts[0][2]", lambda d: d["records"][4]["acts"][0], 2, "1"),
        ("defined_through", lambda d: d, "defined_through", 3),
        # gencomp-trace/3 listed every strategy in every record and ended
        # with a final block; /4 writes neither
        ("records[1].strategies", lambda d: d["records"][1], "strategies", [[0, {}]]),
        ("final", lambda d: d, "final", {"alive": [[0, True]]}),
    ):
        doc = json.loads((out / "trace.json").read_text())
        part(doc)[key] = value
        (out / "bad.json").write_text(canonical_json(doc))
        capsys.readouterr()
        assert cli.main(["verify", str(out / "bad.json")]) == 4
        assert capsys.readouterr().out == (
            "VIOLATION: replay mismatch at %s: trace is not reproducible from its config\n" % where
        )
    # records the trace cannot be built from fail while it loads: an act
    # whose rule moved to the next record, a second rule for an act, a rule
    # longer than its stage, a rule length that is a bool, and a strategy
    # count other than the config's
    def moved(doc):
        doc["records"][2]["rules"].insert(0, doc["records"][1]["rules"].pop())

    def extra(doc):
        doc["records"][1]["rules"].append(0)

    def ahead(doc):
        doc["records"][1]["rules"][0] = 2

    def flagged(doc):
        doc["records"][1]["rules"][0] = False

    def counted(doc):
        doc["strategy_count"] = 2

    for where, doctor, reason in (
        ("records[1].rules[0]", moved, "acts at stage 1 issue 1 rules, but the record lists 0"),
        ("records[1].rules[1]", extra, "acts at stage 1 issue 1 rules, but the record lists 2"),
        ("records[1].rules[0]", ahead, "rule 0 at stage 1 has a node of length 2"),
        ("records[1].rules[0]", flagged, "rule 0 at stage 1 has a node of length False"),
        ("strategy_count", counted, "strategy count 2, but the config lists 1 strategies"),
    ):
        doc = json.loads((out / "trace.json").read_text())
        doctor(doc)
        (out / "bad.json").write_text(canonical_json(doc))
        capsys.readouterr()
        assert cli.main(["verify", str(out / "bad.json")]) == 4
        printed = capsys.readouterr()
        assert printed.out == (
            "VIOLATION: replay mismatch at %s: trace is not reproducible from its config\n"
            "VIOLATION: trace contents are not auditable: %s\n" % (where, reason)
        )
        assert "Traceback" not in printed.out + printed.err
    # a diagonal trace must echo a diagonal config to be rebuilt
    doc["config"] = {"version": 1, "scenario": "relation-embed", "seed": 1}
    (out / "bad.json").write_text(canonical_json(doc))
    assert cli.main(["verify", str(out / "bad.json")]) == 2


def _pair_springer_config():
    # pair mode, strategy 0 springing traps and strategy 1 silent: both act
    # at stage 2, strategy 0 dies at stage 3, strategy 1 acts through stage 4
    return single_config(scenario="pair-diagonal",
                         strategies=[{"enumerator": {"kind": "trap-springer"}}, {}])


def _drop_rules(stage, e):
    # a pair-mode act's rules are the two lengths at twice its index
    def doctor(records):
        i = [act[0] for act in records[stage]["acts"]].index(e)
        del records[stage]["rules"][2 * i:2 * i + 2]
    return doctor


def _in_records(cases):
    # the cases' doctors edit the records list; the test hands them the doc
    return [(where, lambda doc, d=doctor: d(doc["records"]), reason) for where, doctor, reason in cases]


@pytest.mark.parametrize("where, doctor, reason", _in_records([
    ("records[2].rules[2]", _drop_rules(2, 1),
     "acts at stage 2 issue 4 rules, but the record lists 2"),
    ("records[2].rules[3]", lambda r: r[2]["rules"].pop(3),
     "acts at stage 2 issue 4 rules, but the record lists 3"),
    ("records[2].acts[1]", lambda r: r[2]["acts"].pop(1),
     "acts at stage 2 issue 2 rules, but the record lists 4"),
    ("records[4].acts[0][0]", lambda r: r[4]["acts"].insert(0, [0, 3, "0", "0"]),
     "strategy 0 acts at stage 4, after it died"),
    ("records[1].acts[1]", lambda r: r[1]["acts"].append([1, 0, "0", "0"]),
     "strategy 1 acts at stage 1, before it starts"),
    ("records[4].deaths[0]", lambda r: r[4]["deaths"].append(0),
     "strategy 0 dies at stage 4, after it died"),
    ("records[1].deaths[0]", lambda r: r[1]["deaths"].append(1),
     "strategy 1 dies at stage 1, before it starts"),
    ("records[2].deaths[0]", lambda r: r[2]["deaths"].append(0),
     "strategy 0 dies at stage 2, after it acted"),
    ("records[2].acts[0][1]", lambda r: r[2]["acts"][0].__setitem__(1, 2),
     "act of strategy 0 at stage 2 keeps 2 bits of a 1-bit approximation"),
    ("records[1].acts[0][1]", lambda r: r[1]["acts"][0].__setitem__(1, 1),
     "act of strategy 0 at stage 1 keeps 1 bits of a 0-bit approximation"),
    ("records[2].acts[0][2]", lambda r: r[2]["acts"][0].__setitem__(2, "00"),
     "act of strategy 0 at stage 2 rebuilds ('000', '00'), not 2 bits per side"),
    ("records[2].acts[0][3]", lambda r: r[2]["acts"][0].__setitem__(3, ""),
     "act of strategy 0 at stage 2 rebuilds ('00', '0'), not 2 bits per side"),
    ("records[2].acts[1]", lambda r: (_drop_rules(2, 1)(r), r[2]["acts"].pop(1)),
     "live strategy 1 neither acts nor dies at stage 2"),
    # every count is an int that is not a bool
    ("records[2].acts[0][1]", lambda r: r[2]["acts"][0].__setitem__(1, True),
     "act of strategy 0 at stage 2 keeps True bits of a 1-bit approximation"),
    ("records[1].stage", lambda r: r[1].__setitem__("stage", True),
     "record of stage True follows 1 records"),
    ("records[3].deaths[0]", lambda r: r[3]["deaths"].__setitem__(0, True),
     "strategy True dies in a 2-strategy trace"),
    ("records[2].batches[0][0]", lambda r: r[2]["batches"][0].__setitem__(0, True),
     "batch of strategy True in a 2-strategy trace"),
    # every batch is a run set of naturals: sorted, disjoint, non-adjacent
    # and nonempty runs (stage 2's one batch is [0, [[2, 3]]])
    ("records[2].batches[0][1][0][0]", lambda r: r[2]["batches"][0].__setitem__(1, [[3, 2]]),
     "batch [[3, 2]] of strategy 0 at stage 2 is not a run set"),
    ("records[2].batches[0][1][1]", lambda r: r[2]["batches"][0].__setitem__(1, [[2, 3], [2, 3]]),
     "batch [[2, 3], [2, 3]] of strategy 0 at stage 2 is not a run set"),
    ("records[2].batches[0][1][0][0]", lambda r: r[2]["batches"][0].__setitem__(1, [[2.0, 3]]),
     "batch [[2.0, 3]] of strategy 0 at stage 2 is not a run set"),
    # every trap event is four naturals (stage 2's one event is [0, 1, 2, 3])
    ("records[2].trap_events[0][2]", lambda r: r[2]["trap_events"].__setitem__(0, [0, 1, 2.0, 3]),
     "trap event [0, 1, 2.0, 3] at stage 2 is not four naturals"),
    ("records[2].trap_events[0][3]", lambda r: r[2]["trap_events"].__setitem__(0, [0, 1, 2]),
     "trap event [0, 1, 2] at stage 2 is not four naturals"),
    # every field and entry has the type and arity the engine writes
    ("records[2].acts[0][2]", lambda r: r[2]["acts"][0].__setitem__(2, 5),
     "act of strategy 0 at stage 2 has suffixes [5, '0'], not bit strings"),
    ("records[2].acts[0][1]", lambda r: r[2]["acts"].__setitem__(0, [0]),
     "act of stage 2: [0] is not a list of 4 items"),
    ("records[2].batches[0][1]", lambda r: r[2]["batches"].__setitem__(0, [0]),
     "batch entry of stage 2: [0] is not a list of 2 items"),
    ("records[2].acts", lambda r: r[2].__setitem__("acts", 5),
     "acts of stage 2: 5 is not a list"),
    ("records[3]", lambda r: r.__setitem__(3, [3]),
     "record of stage None follows 3 records"),
    # one batch per strategy and record, and acts in strategy order
    ("records[2].batches[1]", lambda r: r[2]["batches"].append([0, [[2, 3]]]),
     "second batch of strategy 0 at stage 2"),
    ("records[2].acts[0][0]", lambda r: r[2].update(acts=r[2]["acts"][::-1], rules=[0, 0, 1, 1]),
     "acts or deaths at stage 2 are out of strategy order"),
]) + [
    ("mode", lambda doc: doc.__setitem__("mode", "triple"),
     "trace mode 'triple' is neither single nor pair"),
    ("mode", lambda doc: doc.__setitem__("mode", ["pair"]),
     "trace mode ['pair'] is neither single nor pair"),
    ("records", lambda doc: doc.__setitem__("records", 5),
     "records 5 are not a list"),
    ("stages", lambda doc: doc.__setitem__("stages", "6"),
     "stage count '6', but the trace has 5 records"),
])
def test_verify_rejects_records_the_engine_cannot_write(tmp_path, capsys, where, doctor, reason):
    # counts, batches, trap events, acts, deaths and rules that no run
    # writes fail while the trace loads: one VIOLATION line from the
    # loader, after the replay's mismatch line
    out = tmp_path / "o"
    run_experiment({**_pair_springer_config(), "out_dir": str(out)})
    doc = json.loads((out / "trace.json").read_text())
    assert [len(rec["acts"]) for rec in doc["records"]] == [0, 1, 2, 1, 1]
    assert [rec["deaths"] for rec in doc["records"]] == [[], [], [], [0], []]
    doctor(doc)
    (out / "bad.json").write_text(canonical_json(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out / "bad.json")]) == 4
    printed = capsys.readouterr()
    assert printed.out == (
        "VIOLATION: replay mismatch at %s: trace is not reproducible from its config\n"
        "VIOLATION: trace contents are not auditable: %s\n" % (where, reason)
    )
    assert "Traceback" not in printed.out + printed.err
    with pytest.raises(InvariantViolationError, match="^%s$" % re.escape(reason)):
        trace_from_jsonable(doc)


def test_spoiling_walk_charges_the_node_budget(tmp_path, monkeypatch, capsys):
    # strategy 0 dies at stage 3 with a witness at the root: its walk
    # visits one node, which a zero budget cannot pay for
    out = tmp_path / "o"
    run_experiment({**_pair_springer_config(), "out_dir": str(out)})
    trace = trace_from_jsonable(json.loads((out / "trace.json").read_text()))
    monkeypatch.setattr(diagonal, "_DEFAULT_NODE_BUDGET", 1)
    assert diagonal.audit_spoiling(trace) == []
    monkeypatch.setattr(diagonal, "_DEFAULT_NODE_BUDGET", 0)
    with pytest.raises(BudgetError):
        diagonal.audit_spoiling(trace)
    reason = "trace contents are not auditable: spoiling walk exceeded the node budget"
    assert verify_trace_file(str(out / "trace.json")) == [reason]
    capsys.readouterr()
    assert cli.main(["verify", str(out / "trace.json")]) == 4
    printed = capsys.readouterr()
    assert printed.out == "VIOLATION: %s\n" % reason
    assert "Traceback" not in printed.out + printed.err


def test_empty_strategy_list_runs_and_verifies(tmp_path):
    for scenario in ("single-diagonal", "pair-diagonal"):
        out = tmp_path / scenario
        run_experiment(single_config(scenario=scenario, strategies=[], out_dir=str(out)))
        doc = json.loads((out / "trace.json").read_text())
        assert doc["strategy_count"] == 0
        assert all(not rec["acts"] and not rec["rules"] for rec in doc["records"])
        assert verify_trace_file(str(out / "trace.json")) == []


def test_cli_catalog(capsys):
    assert cli.main(["catalog"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert "trap-springer" in listed["adversaries"]
    assert "single-diagonal" in listed["scenarios"]
    assert listed["trace_format"] == "gencomp-trace/5"
    assert listed["report_format"] == "gencomp-report/3"
    assert listed["scenario_trace_format"] == "gencomp-scenario-trace/3"


def test_cli_run_reports_a_failed_embedding(tmp_path, capsys, monkeypatch):
    # an embedding that fails its check is a failed `embedding-exact`
    # verdict (exit 4), written like any other, not a crash
    monkeypatch.setattr(relations, "related", lambda x, y: False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RELATION_EMBED_3))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 4
    printed = capsys.readouterr()
    assert re.search(r"^embedding-exact +FAIL$", printed.out, re.M)
    assert printed.out.count("FAIL") == 1
    assert printed.err == ""
    assert "Traceback" not in printed.out
    report = json.loads((out / "report.json").read_text())
    assert [v["invariant"] for v in report["verdicts"] if not v["pass"]] == ["embedding-exact"]


def test_cli_verify_replays_a_failed_embedding(tmp_path, capsys, monkeypatch):
    # the trace of a run whose embeddings fail their check is the trace of
    # a passing run, so verify replays it and names the failed verdict
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(RELATION_EMBED_3))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    monkeypatch.setattr(relations, "related", lambda x, y: False)
    capsys.readouterr()
    assert cli.main(["verify", str(out / "trace.json")]) == 4
    printed = capsys.readouterr()
    assert printed.out == "VIOLATION: verdict failed on replay: embedding-exact\n"
    assert printed.err == ""


def test_verify_scenario_trace_formats(tmp_path, capsys):
    out = tmp_path / "o"
    run_experiment({**RELATION_EMBED_3, "out_dir": str(out)})
    assert cli.main(["verify", str(out / "trace.json")]) == 0
    doc = json.loads((out / "trace.json").read_text())
    # /1 and /2 traces are refused, naming both formats this version
    # verifies; the /2 fixture is a small relation-embed trace as /2 wrote it
    (out / "v1.json").write_text(canonical_json(scenario_trace_1_view(doc)))
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "scenario_trace_v2.json")
    with open(fixture) as fh:
        v2 = json.load(fh)
    assert v2["format"] == "gencomp-scenario-trace/2"
    _, fresh = run_experiment(v2["config"])
    assert scenario_trace_2_view(fresh) == v2
    for version, path in ((1, str(out / "v1.json")), (2, fixture)):
        capsys.readouterr()
        assert cli.main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "'gencomp-scenario-trace/%d'" % version in err
        assert "gencomp-trace/5" in err and "gencomp-scenario-trace/3" in err
        assert "Traceback" not in err
    # one image digit flipped: the replay names the entry's images string
    i = next(i for i, (_, images) in enumerate(doc["log"]) if images)
    images = doc["log"][i][1]
    doc["log"][i][1] = ("1" if images[0] == "0" else "0") + images[1:]
    (out / "bad.json").write_text(canonical_json(doc))
    assert cli.main(["verify", str(out / "bad.json")]) == 4
    assert capsys.readouterr().out == (
        "VIOLATION: replay mismatch at log[%d][1]: trace is not reproducible "
        "from its config\n" % i
    )


# small scenario configs whose replays take milliseconds
SMALL_SCENARIO_CONFIGS = {
    "coding-roundtrip": {"version": 1, "scenario": "coding-roundtrip", "seed": 7, "count": 3,
                         "m_max": 4, "bound": 64},
    "relation-embed": {"version": 1, "scenario": "relation-embed", "seed": 3, "count": 4,
                       "max_size": 4},
    "operator-compile": {"version": 1, "scenario": "operator-compile", "machine": "order-gate",
                         "element_bound": 3, "label_bound": 1},
}


@functools.lru_cache(maxsize=None)
def small_scenario_trace_text(name):
    _, doc = run_experiment(SMALL_SCENARIO_CONFIGS[name])
    return canonical_json(doc)


def log_places(value, path=()):
    """Every place in a JSON value as a key and index path: the value
    itself and each entry of a list or object inside it."""
    yield path
    if type(value) is list:
        for i, item in enumerate(value):
            yield from log_places(item, path + (i,))
    elif type(value) is dict:
        for key in sorted(value):
            yield from log_places(value[key], path + (key,))


# values of every JSON type, each the wrong type or arity somewhere
OTHER_LOG_VALUES = (None, True, 0, 1, -1, 2.0, "", "0", "-", "x", [], [0], ["0", "1"],
                    [[0, 1]], [0, 1, "-"], {}, {"decoded": []})


@st.composite
def doctored_scenario_traces(draw):
    """A small /3 scenario trace with one place in its `log` changed: a
    character of a string flipped or the string cut short, its value
    swapped for another type, the entry dropped or duplicated, or one more
    entry added to a list.  The config is never touched."""
    text = small_scenario_trace_text(draw(st.sampled_from(sorted(SMALL_SCENARIO_CONFIGS))))
    doc = json.loads(text)
    path = draw(st.sampled_from(list(log_places(doc["log"]))))
    parent, slot = doc, "log"
    for key in path:
        parent, slot = parent[slot], key
    target = parent[slot]
    kind = draw(st.sampled_from(("flip", "truncate", "swap", "drop", "duplicate", "extend")))
    if kind == "flip" and type(target) is str and target:
        i = draw(st.integers(0, len(target) - 1))
        char = draw(st.sampled_from([c for c in "-0123" if c != target[i]]))
        parent[slot] = target[:i] + char + target[i + 1:]
    elif kind == "truncate" and type(target) is str and target:
        parent[slot] = target[:draw(st.integers(0, len(target) - 1))]
    elif kind == "drop":
        del parent[slot]
    elif kind == "duplicate" and type(parent) is list:
        parent.insert(slot, json.loads(json.dumps(target)))
    elif kind == "extend" and type(target) is list:
        target.append(draw(st.sampled_from(target + list(OTHER_LOG_VALUES))))
    else:
        parent[slot] = draw(st.sampled_from(OTHER_LOG_VALUES))
    assume(canonical_json(doc) != text)
    return doc


@pytest.fixture(scope="module")
def doctored_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("doctored") / "trace.json")


@given(doc=doctored_scenario_traces())
@settings(max_examples=150, deadline=None)
def test_verify_names_the_log_path_of_every_doctored_scenario_trace(doctored_path, doc):
    # a doctored log is a replay mismatch at a path inside `log` (exit 4)
    # or a config error (exit 2), never a bare Python error
    with open(doctored_path, "w") as fh:
        fh.write(canonical_json(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", doctored_path])
    if code == 2:
        assert err.getvalue().startswith("config error: ")
        return
    assert code == 4, err.getvalue()
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and re.fullmatch(
        r"VIOLATION: replay mismatch at log(\[\d+\]|\.\w+)*: trace is not reproducible "
        r"from its config", lines[0]), lines
