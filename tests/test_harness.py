import json
import os

import pytest

from gencomp import cli
from gencomp.diagonal import LeftmostSelector, StrategySpec, run_single, trace_from_jsonable
from gencomp.errors import ConfigError
from gencomp.harness import (
    builtin_adversaries,
    canonical_json,
    load_description,
    load_enumerator,
    load_real,
    load_selector,
    replay_trace_doc,
    report_passes,
    run_experiment,
    validate_config,
    verify_trace_file,
)
from gencomp.reals import SeededReal


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


def test_loaders():
    assert load_real({"kind": "seeded-pseudorandom", "seed": 9}).bit(0) == SeededReal(9).bit(0)
    assert load_real({"kind": "eventually-periodic", "period": "10"}).bit(0) == 1
    assert load_real({"kind": "explicit-prefix", "bits": "01"}).bit(1) == 1
    with pytest.raises(ConfigError):
        load_real({"kind": "mystery"})
    w = load_enumerator({"kind": "scripted", "stages": {"2": [5, 1]}})
    assert w.at(2) == {1, 5}
    assert type(load_enumerator({"kind": "trap-springer"})).name == "trap-springer"
    with pytest.raises(ConfigError):
        load_enumerator({"kind": "scripted", "stages": {"x": [1]}})
    assert load_selector({"kind": "rightmost"}, "single").kind == "rightmost"
    sel = load_selector({"kind": "scripted", "entries": [[2, "01"]]}, "single")
    assert sel.entries == ((2, ("01",)),)
    d = load_description({"assignments": [[3, 1]]})
    assert d.lookup(3) == 1
    d2 = load_description({"domain": "all", "source": {"kind": "eventually-periodic", "period": "1"}, "start": 1})
    assert d2.lookup(0) is None and d2.lookup(5) == 1


def test_builtin_adversaries_catalog():
    catalog = builtin_adversaries()
    assert set(catalog) == {"silent", "trap-springer", "cautious-copier", "prefix-flooder"}
    assert list(catalog["silent"]().new_elements(0, 3, None)) == []
    assert list(catalog["prefix-flooder"]().new_elements(0, 2, None)) == [(0, 4)]


def test_springer_reads_trace_one_stage_later():
    springer = builtin_adversaries()["trap-springer"]()
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
    report, trace_doc = run_experiment(cfg, write=False)
    assert report_passes(report)
    dens = report["densities"][2]["block_end_densities"]
    dips = sum(
        1
        for row in dens
        if row["density"]["num"] * 8 <= row["density"]["den"] * 7  # <= 1 - 2^-3
    )
    assert dips >= 3


def test_hand_simulation_config_reproduces_markers():
    report, doc = run_experiment(single_config(), write=False)
    assert report_passes(report)
    trace = trace_from_jsonable(doc)
    assert [(m.stage, m.node) for m in trace.markers[0]] == [
        (1, ("",)),
        (2, ("0",)),
        (3, ("00",)),
        (4, ("000",)),
    ]


def test_zero_strategy_run_all_ones():
    # with no strategies the functional keeps every defined element for
    # every oracle; five stages define [1, 32)
    cfg = single_config(strategies=[])
    report, doc = run_experiment(cfg, write=False)
    assert report_passes(report)
    trace = trace_from_jsonable(doc)
    assert functional_value_set_all(trace) == set(range(1, 32))
    for row in report["value_censuses"]:
        assert all(e is None for _, e in row["census"]["records"])


def functional_value_set_all(trace):
    from gencomp.diagonal import functional_value_set

    zeros = functional_value_set(trace, "0" * trace.defined_through)
    ones = functional_value_set(trace, "1" * trace.defined_through)
    assert zeros == ones
    return zeros


def test_run_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    report, trace_doc = run_experiment(single_config(csv_profiles=True), out_dir=str(out))
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
    report, _ = run_experiment(cfg, out_dir=str(tmp_path))
    assert len(report["densities"]) == 3
    for entry in report["densities"]:
        csv = (tmp_path / ("wdensity_strategy%d.csv" % entry["strategy"])).read_text()
        expected = ["n,num,den"] + [
            "%d,%d,%d" % (row["n"], row["density"]["num"], row["density"]["den"])
            for row in entry["block_end_densities"]
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
        _, doc1 = run_experiment(dict(cfg), write=False)
        _, doc2 = run_experiment(dict(cfg), write=False)
        assert canonical_json(doc1) == canonical_json(doc2), cfg["scenario"]
        _, doc3 = replay_trace_doc(doc1)
        assert canonical_json(doc3) == canonical_json(doc1)


def test_scenario_reports_pass():
    for cfg in (
        {"version": 1, "scenario": "coding-roundtrip", "seed": 5, "count": 3, "m_max": 6, "bound": 1024},
        {"version": 1, "scenario": "relation-embed", "seed": 8, "count": 5, "max_size": 6},
        {"version": 1, "scenario": "operator-compile", "machine": "order-gate", "element_bound": 3, "label_bound": 2},
    ):
        report, _ = run_experiment(cfg, write=False)
        assert report_passes(report), report["scenario"]


def test_rationals_not_floats_in_artifacts():
    report, trace_doc = run_experiment(single_config(), write=False)

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
    run_experiment(single_config(), out_dir=str(out))
    assert verify_trace_file(str(out / "trace.json")) == []


def test_verify_detects_doctored_marker(tmp_path):
    for scenario, marker in (("single-diagonal", "1"), ("pair-diagonal", ["1", "0"])):
        out = tmp_path / scenario
        run_experiment(single_config(scenario=scenario), out_dir=str(out))
        doc = json.loads((out / "trace.json").read_text())
        doc["records"][1]["strategies"][0][1]["marker"] = marker
        (out / "bad.json").write_text(canonical_json(doc))
        problems = verify_trace_file(str(out / "bad.json"))
        assert any("replay mismatch" in p for p in problems)
        assert any("off path" in p for p in problems)


AUDITS = ("audit_marker_on_path", "audit_trap_soundness", "audit_spoiling",
          "audit_single_victim", "audit_gap_census_consistency", "functional_value_set")


@pytest.mark.parametrize("scenario", ["single-diagonal", "pair-diagonal"])
def test_run_and_verify_audit_once(tmp_path, monkeypatch, scenario):
    # verify rebuilds the trace without auditing the rebuild and audits the
    # file's trace once; run computes each value census once for the
    # audit and the report together
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
    censuses = 2 if scenario == "single-diagonal" else 0
    once = {"audit_marker_on_path": 1, "audit_trap_soundness": 1, "audit_spoiling": 1,
            "audit_single_victim": 3, "audit_gap_census_consistency": censuses,
            "functional_value_set": censuses}
    out = tmp_path / "o"
    report, _ = run_experiment(cfg, out_dir=str(out))
    assert report_passes(report) and len(report["value_censuses"]) == censuses
    assert calls == once
    calls.update(dict.fromkeys(AUDITS, 0))
    assert verify_trace_file(str(out / "trace.json")) == []
    assert calls == once


def test_verify_detects_removed_rule(tmp_path):
    out = tmp_path / "r"
    run_experiment(single_config(), out_dir=str(out))
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
    run_experiment(cfg, out_dir=str(out))
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
    run_experiment(cfg, out_dir=str(out))
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
    # a single-diagonal trace written by the element-batch format
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "trace_v1.json")
    with open(fixture) as fh:
        assert json.load(fh)["format"] == "gencomp-trace/1"
    assert cli.main(["verify", fixture]) == 2
    err = capsys.readouterr().err
    assert "gencomp-trace/1" in err and "gencomp-trace/2" in err
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
    assert trace.markers[0][-1].stage == 6


def test_cli_verify_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(single_config()))
    out = tmp_path / "o"
    cli.main(["run", str(cfg_path), "--out-dir", str(out)])
    assert cli.main(["verify", str(out / "trace.json")]) == 0
    doc = json.loads((out / "trace.json").read_text())
    doc["final"]["approx"][0][1] = "1111"
    (out / "bad.json").write_text(canonical_json(doc))
    assert cli.main(["verify", str(out / "bad.json")]) == 4
    # a diagonal trace must echo a diagonal config to be rebuilt
    doc["config"] = {"version": 1, "scenario": "relation-embed", "seed": 1}
    (out / "bad.json").write_text(canonical_json(doc))
    assert cli.main(["verify", str(out / "bad.json")]) == 2


def test_cli_catalog(capsys):
    assert cli.main(["catalog"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert "trap-springer" in listed["adversaries"]
    assert "single-diagonal" in listed["scenarios"]
