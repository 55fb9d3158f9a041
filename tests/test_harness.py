import contextlib
import functools
import hashlib
import io
import json
import os
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gencomp import adversaries, cli, diagonal, relations
from gencomp.diagonal import LeftmostSelector, StrategySpec, run_single, trace_from_jsonable
from gencomp.errors import BudgetError, ConfigError, InvariantViolationError, UndefinedInputError
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
from test_counting import RELATION_EMBED_3


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
    assert validate_config(single_config(csv_profiles=True))["csv_profiles"] is True
    # a bool or a float equal to 1 is not version 1
    for not_one in (True, 1.0):
        with pytest.raises(ConfigError, match="^config version must be 1$"):
            validate_config(single_config(version=not_one))


def _one_strategy(make=single_config, **entry):
    return make(strategies=[entry])


def _pair_config(**extra):
    return single_config(scenario="pair-diagonal", **extra)


def _scenario_config(scenario, **extra):
    return {"version": 1, "scenario": scenario, **extra}


def _scripted_enumerator(stages):
    return _one_strategy(enumerator={"kind": "scripted", "stages": stages})


def _scripted_selector(entries, make=single_config):
    return _one_strategy(make, selector={"kind": "scripted", "entries": entries})


# one row per check: a malformed enumerator or selector that
# `test_cli_rejects_malformed_scripted_components` or `test_loaders`
# already rejects has no row here
@pytest.mark.parametrize("doc, message", [
    ([], "config must be a JSON object"),
    ({"scenario": "single-diagonal"}, "config version must be 1"),
    (single_config(surprise=1), "unknown fields: surprise"),
    (single_config(stages="five"), "field 'stages' must be an integer"),
    (single_config(stages=True), "field 'stages' must be an integer"),
    (single_config(stages=0), "field 'stages' out of range"),
    (single_config(stages=65), "field 'stages' out of range"),
    (single_config(node_budget=0), "field 'node_budget' out of range"),
    *((single_config(csv_profiles=not_a_bool), "field 'csv_profiles' must be true or false")
      for not_a_bool in ("false", "true", 0, 1, None, [])),
    (single_config(out_dir=5), "field 'out_dir' must be a string"),
    (single_config(strategies={}), "'strategies' must be a list"),
    (single_config(strategies=[5]), "strategy entries must be objects"),
    (_one_strategy(weight=1), "unknown fields: weight"),
    (_one_strategy(enumerator="silent"), "enumerator spec must be an object with a 'kind'"),
    (_one_strategy(enumerator={}), "enumerator spec must be an object with a 'kind'"),
    # an unhashable kind is named, not a TypeError
    (_one_strategy(enumerator={"kind": ["silent"]}), "unknown enumerator kind ['silent']"),
    (_one_strategy(enumerator={"kind": "silent", "stages": {}}), "unknown fields: stages"),
    (_scripted_enumerator([]), "scripted enumerator 'stages' must be an object"),
    # a non-ASCII digit is a digit to str.isdigit, not a stage key
    (_scripted_enumerator({"٣": [1]}),
     "enumerator stage keys must be distinct naturals, got '٣'"),
    (_scripted_enumerator({"2": 5}), "enumerated elements must be lists of naturals"),
    (_one_strategy(selector="leftmost"), "selector spec must be an object with a 'kind'"),
    (_one_strategy(selector={"kind": "middle"}), "unknown selector kind 'middle'"),
    (_one_strategy(selector={"kind": "rightmost", "bit": "1"}), "unknown fields: bit"),
    (_scripted_selector([[2]]), "scripted selector entries are [from_stage, node]"),
    (_scripted_selector([[2, "01"], [2, "00"]]),
     "scripted selector stages must be distinct naturals, got 2"),
    (_scripted_selector([[2, "01"]], _pair_config), "pair selector nodes are [x_bits, y_bits]"),
    (_scripted_selector([[2, ["01"]]], _pair_config), "pair selector nodes are [x_bits, y_bits]"),
    (_scenario_config("coding-roundtrip"), "missing required field 'seed'"),
    # a drawn seed lies in [0, 2^64)
    (_scenario_config("coding-roundtrip", seed=-1), "field 'seed' out of range"),
    (_scenario_config("coding-roundtrip", seed=1 << 64), "field 'seed' out of range"),
    (_scenario_config("relation-embed", seed=1, max_size=17), "field 'max_size' out of range"),
    (_scenario_config("operator-compile"), "missing required field 'machine'"),
    (_scenario_config("operator-compile", machine=5), "field 'machine' must be a string"),
    (_scenario_config("operator-compile", machine="nope"), "unknown machine 'nope'"),
    (_scenario_config("operator-compile", machine="echo", element_bound=7),
     "field 'element_bound' out of range"),
])
def test_validate_config_names_each_rejection(doc, message):
    # every malformed config is a ConfigError that names what is wrong
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        validate_config(doc)


@pytest.mark.parametrize("bound", [2, 3, 4, 1023, 1024, 16384])
def test_coding_roundtrip_bound_reaches_2_to_the_m_max(bound):
    cfg = {"version": 1, "scenario": "coding-roundtrip", "seed": 5, "bound": bound}
    top = bound.bit_length() - 1  # the largest m with 2^m <= bound
    assert validate_config(dict(cfg, m_max=top))["m_max"] == top
    with pytest.raises(ConfigError, match="^bound too small for m_max$"):
        validate_config(dict(cfg, m_max=top + 1))


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
    for e, entry in enumerate(report["densities"]):
        csv = (tmp_path / ("wdensity_strategy%d.csv" % e)).read_text()
        densities = [Fraction(count, 2 << i) for i, count in enumerate(entry["block_end_counts"])]
        expected = ["n,num,den"] + [
            "%d,%d,%d" % (2 << i, d.numerator, d.denominator) for i, d in enumerate(densities)
        ]
        assert csv == "\n".join(expected) + "\n"
        assert len(expected) == 1 + 9


def test_run_removes_csv_profiles_it_does_not_write(tmp_path):
    # a run leaves no profile of an earlier run beside its report: every
    # wdensity_strategy<k>.csv it does not write goes, and nothing else does
    def strategies(n):
        return [{"enumerator": {"kind": "prefix-flooder"}}] * n

    kept = ["wdensity_strategy01.csv", "wdensity_strategy.csv", "wdensity_strategy1.csv.bak",
            "xwdensity_strategy1.csv", "notes.csv", "wdensity_strategy99.csv"]
    for name in kept[:-1]:
        (tmp_path / name).write_text("x\n")
    (tmp_path / kept[-1]).mkdir()
    profiles = lambda: sorted(  # noqa: E731
        p.name for p in tmp_path.iterdir() if p.name not in kept and p.name.endswith(".csv")
    )
    cfg = {"version": 1, "scenario": "pair-diagonal", "stages": 4, "out_dir": str(tmp_path)}
    run_experiment({**cfg, "csv_profiles": True, "strategies": strategies(12)})
    assert profiles() == sorted("wdensity_strategy%d.csv" % e for e in range(12))
    run_experiment({**cfg, "csv_profiles": True, "strategies": strategies(2)})
    assert profiles() == ["wdensity_strategy0.csv", "wdensity_strategy1.csv"]
    assert (tmp_path / "wdensity_strategy1.csv").read_text().count("\n") == 1 + 4
    run_experiment({**cfg, "strategies": strategies(3)})
    assert profiles() == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept + ["report.json", "trace.json"])
    assert verify_trace_file(str(tmp_path / "trace.json")) == []


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
    from gencomp.records import first_difference

    assert first_difference({"a": [1, 2]}, {"a": [1, 2]}) is None
    assert first_difference({"a": [1, 2], "b": 0}, {"a": [1, 3], "b": 1}) == "a[1]"
    assert first_difference({"a": [1, 2]}, {"a": [1]}) == "a[1]"
    assert first_difference({"a": {"x": 1}}, {"a": {"y": 1}}) == "a.x"
    assert first_difference({"a": 1}, {"a": True}) == "a"
    assert first_difference([1], {"a": 1}) == "$"
    assert first_difference({"a": [0.0]}, {"a": [-0.0]}) == "a[0]"
    # leaves compare as JSON text, as the loader's write-back does
    assert first_difference([1], [True]) == "[0]"
    assert first_difference({"a": 2}, {"a": 2.0}) == "a"


def test_verify_rejects_trace_format_1(tmp_path, capsys):
    # single-diagonal traces of one 4-stage config written by earlier
    # formats: /1 listed batches element by element, /2 carried a per-act
    # level hash, /3 listed every strategy in every record and a final
    # block, /4 wrote every rule as [e, stage, node, side], /5 wrote the
    # header counts and each record's stage, deaths and kept prefix lengths
    for version in (1, 2, 3, 4, 5):
        fmt = "gencomp-trace/%d" % version
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "trace_v%d.json" % version)
        with open(fixture) as fh:
            assert json.load(fh)["format"] == fmt
        assert cli.main(["verify", fixture]) == 2
        err = capsys.readouterr().err
        assert fmt in err and "gencomp-trace/6" in err and "gencomp-scenario-trace/5" in err
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
    assert len(doc["records"]) == 7
    trace = trace_from_jsonable(doc)
    assert trace.markers[0][-1][0] == 6


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(single_config()))
    out = tmp_path / "o"
    cli.main(["run", str(cfg_path), "--out-dir", str(out)])
    assert cli.main(["verify", str(out / "trace.json")]) == 0
    # a trace the engine could have written, but not from this config: only
    # the replay comparison sees another last approximation, still through
    # the last marker
    doc = json.loads((out / "trace.json").read_text())
    doc["records"][4]["acts"][0][1] = "1"
    (out / "bad.json").write_text(canonical_json(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out / "bad.json")]) == 4
    assert capsys.readouterr().out == (
        "VIOLATION: replay mismatch at records[4].acts[0][1]: trace is not reproducible from its config\n"
    )
    # a diagonal trace must echo a diagonal config to be rebuilt; the
    # loader's refusals are the rows of the table below
    doc["config"] = {"version": 1, "scenario": "relation-embed", "seed": 1}
    (out / "bad.json").write_text(canonical_json(doc))
    assert cli.main(["verify", str(out / "bad.json")]) == 2


def test_verify_loads_only_as_many_records_as_its_config_runs(tmp_path, capsys):
    # the engine writes one record per configured stage; a longer file that
    # loads (record 0 empty, then strategy 0 extending its approximation by
    # one bit each stage) is reported without the load and the audits, whose
    # work grows with the square of its record count
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(single_config(stages=4)))
    out = tmp_path / "o"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
    doc = json.loads((out / "trace.json").read_text())
    later = {"acts": [[0, "0"]], "rules": [0], "batches": [], "trap_events": []}
    doc["records"] = [doc["records"][0]] + [later] * 3999
    (out / "long.json").write_text(canonical_json(doc))
    capsys.readouterr()
    started = time.process_time()
    assert cli.main(["verify", str(out / "long.json")]) == 4
    assert time.process_time() - started < 1
    assert capsys.readouterr().out == (
        "VIOLATION: replay mismatch at records[2].rules[0]: trace is not reproducible from its config\n"
        "VIOLATION: trace contents are not auditable: trace has 4000 records, but its config runs 4 stages\n"
    )


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
    # a pair act's marker is one node, read from its first rule length, so
    # the write-back gives its two rules one length (stage 2's rules are
    # [1, 1, 0, 0])
    ("records[2].rules[1]", lambda r: r[2]["rules"].__setitem__(1, 0),
     "trace differs from its write-back at records[2].rules[1]"),
    # a rule length is an int that is not a bool, and a marker no longer
    # than its stage's approximation (stage 1's rules are [0, 0])
    ("records[1].rules[0]", lambda r: r[1]["rules"].__setitem__(0, False),
     "rule 0 at stage 1 has a node of length False"),
    ("records[1].rules[0]", lambda r: r[1].__setitem__("rules", [2, 2]),
     "trace differs from its write-back at records[1].rules[0]"),
    ("records[4].acts[0][0]", lambda r: r[4]["acts"].insert(0, [0, "0", "0"]),
     "strategy 0 acts at stage 4, after it died"),
    ("records[1].acts[1]", lambda r: r[1]["acts"].append([1, "0", "0"]),
     "strategy 1 acts at stage 1, before it starts"),
    # each side of an approximation is rebuilt from its own suffix and is
    # exactly s bits at stage s; the write-back gives the suffixes one
    # length (strategy 0's stage-1 and stage-2 acts are [0, "0", "0"])
    ("records[2].acts[0][1]", lambda r: r[2]["acts"][0].__setitem__(1, "00"),
     "trace differs from its write-back at records[2].acts[0][1]"),
    ("records[2].acts[0][2]", lambda r: r[2]["acts"][0].__setitem__(2, ""),
     "act of strategy 0 at stage 2 has approximation ['00', '0'], not of length 2 on every side"),
    ("records[2].acts[0][1]", lambda r: r[2]["acts"].__setitem__(0, [0, "", ""]),
     "act of strategy 0 at stage 2 has approximation ['0', '0'], not of length 2 on every side"),
    ("records[1].acts[0][1]", lambda r: r[1]["acts"].__setitem__(0, [0, "", ""]),
     "act of strategy 0 at stage 1 has approximation ['', ''], not of length 1 on every side"),
    ("records[2].acts[0][1]", lambda r: r[2]["acts"].__setitem__(0, [0, "000", "000"]),
     "act of strategy 0 at stage 2 has approximation ['000', '000'], not of length 2 on every side"),
    # a live strategy whose act is gone has died there, so its next act
    # comes after its death
    ("records[2].acts[1]", lambda r: (_drop_rules(2, 1)(r), r[2]["acts"].pop(1)),
     "strategy 1 acts at stage 3, after it died"),
    # every count is an int that is not a bool
    ("records[2].batches[0][0]", lambda r: r[2]["batches"][0].__setitem__(0, True),
     "batch of strategy True in a 2-strategy trace"),
    # a batch is read as the run set of its runs of naturals, so the
    # write-back refuses one that is not sorted, disjoint, non-adjacent and
    # nonempty (stage 2's one batch is [0, [[2, 3]]])
    ("records[2].batches[0][1][0][0]", lambda r: r[2]["batches"][0].__setitem__(1, [[3, 2]]),
     "trace differs from its write-back at records[2].batches[0]"),
    ("records[2].batches[0][1][1]", lambda r: r[2]["batches"][0].__setitem__(1, [[2, 3], [2, 3]]),
     "trace differs from its write-back at records[2].batches[0][1][1]"),
    ("records[2].batches[0][1][0][0]", lambda r: r[2]["batches"][0].__setitem__(1, [[2.0, 3]]),
     "batch [[2.0, 3]] of strategy 0 at stage 2 is not a list of runs of naturals"),
    # the trap events are the ones the stage's batches spring, as naturals,
    # since a record is the one its trace writes back (stage 2's one event
    # is [0, 1, 2, 3])
    ("records[2].trap_events[0][2]", lambda r: r[2]["trap_events"].__setitem__(0, [0, 1, 2.0, 3]),
     "trace differs from its write-back at records[2].trap_events[0][2]"),
    ("records[2].trap_events[0][3]", lambda r: r[2]["trap_events"].__setitem__(0, [0, 1, 2]),
     "trace differs from its write-back at records[2].trap_events[0][3]"),
    ("records[2].trap_events[1]", lambda r: r[2]["trap_events"].append([0, 1, 2, 3]),
     "trace differs from its write-back at records[2].trap_events[1]"),
    ("records[2].trap_events[0]", lambda r: r[2]["trap_events"].pop(),
     "trace differs from its write-back at records[2].trap_events[0]"),
    ("records[2].trap_events[0][1]", lambda r: r[2]["trap_events"].__setitem__(0, [0, 0, 2, 3]),
     "trace differs from its write-back at records[2].trap_events[0][1]"),
    # the writer writes no key it does not know, no empty batch, batches in
    # strategy order and the shortest suffix that spells an approximation
    ("records[2].deaths", lambda r: r[2].__setitem__("deaths", []),
     "trace differs from its write-back at records[2].deaths"),
    ("records[1].batches[0]", lambda r: r[1]["batches"].append([0, []]),
     "trace differs from its write-back at records[1].batches[0]"),
    ("records[2].batches[0][0]", lambda r: r[2]["batches"].insert(0, [1, [[4, 5]]]),
     "trace differs from its write-back at records[2].batches[0][0]"),
    ("records[2].acts[0][1]", lambda r: r[2]["acts"][0].__setitem__(slice(1, 3), ["00", "00"]),
     "trace differs from its write-back at records[2].acts[0][1]"),
    # every field and entry has the type and arity the engine writes
    ("records[2].acts[0][1]", lambda r: r[2]["acts"][0].__setitem__(1, 5),
     "act of strategy 0 at stage 2 has suffixes [5, '0'], not bit strings"),
    ("records[2].acts[0][1]", lambda r: r[2]["acts"][0].__setitem__(1, True),
     "act of strategy 0 at stage 2 has suffixes [True, '0'], not bit strings"),
    ("records[2].acts[0][1]", lambda r: r[2]["acts"].__setitem__(0, [0]),
     "act of stage 2: [0] is not a list of 3 items"),
    ("records[2].batches[0][1]", lambda r: r[2]["batches"].__setitem__(0, [0]),
     "batch entry of stage 2: [0] is not a list of 2 items"),
    ("records[2].acts", lambda r: r[2].__setitem__("acts", 5),
     "acts of stage 2: 5 is not a list"),
    ("records[3]", lambda r: r.__setitem__(3, [3]),
     "record of stage 3: [3] is not an object"),
    # one batch per strategy and record, and acts in strategy order
    ("records[2].batches[1]", lambda r: r[2]["batches"].append([0, [[2, 3]]]),
     "trace differs from its write-back at records[2].batches[1]"),
    ("records[2].acts[0][0]", lambda r: r[2].update(acts=r[2]["acts"][::-1], rules=[0, 0, 1, 1]),
     "trace differs from its write-back at records[2].acts[0][0]"),
    # a strategy index is a natural, not a bool
    ("records[3].acts[1]", lambda r: r[3]["acts"].append([True, "0", "0"]),
     "strategy True acts in a 2-strategy trace"),
]) + [
    ("mode", lambda doc: doc.__setitem__("mode", "triple"),
     "trace mode 'triple' is neither single nor pair"),
    ("mode", lambda doc: doc.__setitem__("mode", ["pair"]),
     "trace mode ['pair'] is neither single nor pair"),
    ("records", lambda doc: doc.__setitem__("records", 5),
     "records 5 are not a list"),
    ("stages", lambda doc: doc.__setitem__("stages", 5),
     "trace differs from its write-back at stages"),
])
def test_verify_rejects_records_the_engine_cannot_write(tmp_path, capsys, where, doctor, reason):
    # counts, batches, trap events, acts and rules that no run writes fail
    # while the trace loads: one VIOLATION line from the loader, after the
    # replay's mismatch line
    out = tmp_path / "o"
    run_experiment({**_pair_springer_config(), "out_dir": str(out)})
    doc = json.loads((out / "trace.json").read_text())
    assert [len(rec["acts"]) for rec in doc["records"]] == [0, 1, 2, 1, 1]
    assert trace_from_jsonable(doc).death_stage == {0: 3, 1: None}
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


def test_trace_loader_rejects_an_unsupported_format(tmp_path):
    # verify refuses it before the loader runs; the loader names it too
    out = tmp_path / "o"
    run_experiment({**_pair_springer_config(), "out_dir": str(out)})
    doc = json.loads((out / "trace.json").read_text())
    doc["format"] = "gencomp-trace/5"
    with pytest.raises(UndefinedInputError, match=r"^unsupported trace format 'gencomp-trace/5'$"):
        trace_from_jsonable(doc)


@pytest.mark.parametrize("echo", [None, [1]])
def test_verify_refuses_a_trace_without_a_config_echo(tmp_path, capsys, echo):
    out = tmp_path / "o"
    run_experiment({**single_config(), "out_dir": str(out)})
    doc = json.loads((out / "trace.json").read_text())
    if echo is None:
        del doc["config"]
    else:
        doc["config"] = echo
    (out / "bad.json").write_text(canonical_json(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out / "bad.json")]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "config error: trace carries no config echo; cannot replay\n"


def test_a_live_strategy_without_its_last_act_fails_spoiling(tmp_path, capsys):
    # the loader reads a live strategy that does not act as dead: without
    # its act at the last stage, strategy 1 has died at stage 4 although
    # its level-3 tree is not empty, and the spoiling audit names a node
    # without a witness
    out = tmp_path / "o"
    run_experiment({**_pair_springer_config(), "out_dir": str(out)})
    doc = json.loads((out / "trace.json").read_text())
    _drop_rules(4, 1)(doc["records"])
    doc["records"][4]["acts"].pop(0)
    trace = trace_from_jsonable(doc)
    assert trace.death_stage == {0: 3, 1: 4}
    assert [name for name, bad in diagonal.audit_verdicts(trace) if bad] == ["spoiling-completeness"]
    (out / "bad.json").write_text(canonical_json(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(out / "bad.json")]) == 4
    assert capsys.readouterr().out == (
        "VIOLATION: replay mismatch at records[4].acts[0]: trace is not reproducible from its config\n"
        "VIOLATION: no spoiling witness for ('000', '000') (strategy 1)\n"
    )


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
        assert doc["config"]["strategies"] == []
        assert all(not rec["acts"] and not rec["rules"] for rec in doc["records"])
        assert verify_trace_file(str(out / "trace.json")) == []


def test_cli_catalog(capsys):
    assert cli.main(["catalog"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert "trap-springer" in listed["adversaries"]
    assert "single-diagonal" in listed["scenarios"]
    assert listed["trace_format"] == "gencomp-trace/6"
    assert listed["report_format"] == "gencomp-report/6"
    assert listed["scenario_trace_format"] == "gencomp-scenario-trace/5"


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


# the trace.json and report.json digests that the config of each old
# scenario trace fixture writes now; each was taken where the fixture was
# still the view of its replay
SCENARIO_FIXTURE_DIGESTS = {
    2: ("57567a426201a27348cd457b100a1989fe13d4a7cb38694e68b8d19d3214680a",
        "c289a9fc0a5d254512ed3032d09f00a2f454ce0ed4b87a2354f5a7ed06b0de0b"),
    3: ("7574a9b4dc3b070faa78458163d058035b71d3a2b2e9ca33cd5365d428670290",
        "a27a686135903c19d32db4c7a3f3c89e63a9cdf3fd9c5f84d0793f52c1258609"),
}


def test_verify_scenario_trace_formats(tmp_path, capsys):
    out = tmp_path / "o"
    run_experiment({**RELATION_EMBED_3, "out_dir": str(out)})
    assert cli.main(["verify", str(out / "trace.json")]) == 0
    doc = json.loads((out / "trace.json").read_text())
    # /1, /2, /3 and /4 traces are refused, naming both formats this
    # version verifies: the /1 and /4 traces are this one under the old
    # tag, the /2 fixture a small relation-embed trace as /2 wrote it, and
    # the /3 fixture a small operator-compile trace as /3 wrote it; each
    # fixture's config still writes the bytes it wrote when the fixture
    # was the view of its replay
    fixtures = {}
    for version in (1, 4):
        path = out / ("v%d.json" % version)
        path.write_text(canonical_json(dict(doc, format="gencomp-scenario-trace/%d" % version)))
        fixtures[version] = str(path)
    for version, digests in SCENARIO_FIXTURE_DIGESTS.items():
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "scenario_trace_v%d.json" % version)
        with open(fixture) as fh:
            old = json.load(fh)
        assert old["format"] == "gencomp-scenario-trace/%d" % version
        replay = tmp_path / ("replay%d" % version)
        run_experiment({**old["config"], "out_dir": str(replay)})
        digest = lambda f: hashlib.sha256((replay / f).read_bytes()).hexdigest()  # noqa: E731
        assert (digest("trace.json"), digest("report.json")) == digests
        fixtures[version] = fixture
    for version, path in sorted(fixtures.items()):
        capsys.readouterr()
        assert cli.main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "'gencomp-scenario-trace/%d'" % version in err
        assert "gencomp-trace/6" in err and "gencomp-scenario-trace/5" in err
        assert "Traceback" not in err
    # one image digit flipped: the replay names the entry's images string
    i = next(i for i, images in enumerate(doc["log"]) if images)
    images = doc["log"][i]
    doc["log"][i] = ("1" if images[0] == "0" else "0") + images[1:]
    (out / "bad.json").write_text(canonical_json(doc))
    assert cli.main(["verify", str(out / "bad.json")]) == 4
    assert capsys.readouterr().out == (
        "VIOLATION: replay mismatch at log[%d]: trace is not reproducible "
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
    """A small /4 scenario trace with one place in its `log` changed: a
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
