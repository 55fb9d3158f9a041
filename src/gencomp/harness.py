"""Experiment orchestration: strict JSON configs, deterministic scenario
runs, trace/report emission, and trace verification.

A config is the only input to a run.  Config documents carry a version
field and are validated strictly: unknown fields are errors, so configs
cannot drift silently.  The validated config, less `out_dir`, is what a
trace echoes, and no report repeats it; `verify_trace_file` replays
either trace format from that echo and writes nothing.  Every scenario is
deterministic end-to-end; running the same effective config twice produces
byte-identical trace files.  Reports store rationals as {num, den} integer
pairs, and a block-end density as its count over the block end; no floats
cross the serialization boundary.

`SCENARIO_TABLE` holds each scenario's config fields, with their defaults
and bounds, and its runner.  The diagonal runner is here; the runners of
the other scenarios are in `scenarios`, which only those scenarios load.
"""

from __future__ import annotations

import json
import os
import re
from functools import partial
from math import gcd

from . import adversaries, diagonal, enumops, scenarios
# nothing here calls prefix_density, and the perfbench tracer patches every
# binding of density.prefix_density without needing this one; the import
# stays because perfbench's tests read harness.prefix_density
from .density import prefix_density  # noqa: F401
from .errors import BudgetError, ConfigError, InvariantViolationError
from .records import first_difference
from .runs import count_below, is_bits, is_natural

CONFIG_VERSION = 1
SCENARIO_TRACE_FORMAT = "gencomp-scenario-trace/5"
REPORT_FORMAT = "gencomp-report/6"

# the diagonal scenarios and the `diagonal` mode each builds (the keys of
# diagonal.SIDES), spelled out so that reading them loads no module
DIAGONAL_MODES = {"single-diagonal": "single", "pair-diagonal": "pair"}


def canonical_json(doc) -> str:
    """The byte-exact serialization used for every emitted artifact."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def rational(num: int, den: int) -> dict:
    """The rational num/den (den > 0) in lowest terms."""
    g = gcd(num, den)
    return {"num": num // g, "den": den // g}


# ---------------------------------------------------------------------------
# component loaders (the JSON schemas for enumerators and selectors live
# here; other modules only define the semantics)


def load_enumerator(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("enumerator spec must be an object with a 'kind'")
    kind = spec["kind"]
    # a kind that is no string (a list, an object) may not be hashable
    if isinstance(kind, str) and kind in adversaries.CATALOG:
        _allow(spec, {"kind"})
        return adversaries.CATALOG[kind]()
    if kind == "scripted":
        _allow(spec, {"kind", "stages"})
        stages = spec.get("stages", {})
        if not isinstance(stages, dict):
            raise ConfigError("scripted enumerator 'stages' must be an object")
        schedule = {}
        for key, elems in stages.items():
            if not (key.isascii() and key.isdigit()) or int(key) in schedule:
                raise ConfigError("enumerator stage keys must be distinct naturals, got %r" % key)
            if not isinstance(elems, list) or not all(is_natural(v) for v in elems):
                raise ConfigError("enumerated elements must be lists of naturals")
            schedule[int(key)] = elems
        return adversaries.Scripted(schedule)
    raise ConfigError("unknown enumerator kind %r" % kind)


def load_selector(spec, mode):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("selector spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "leftmost":
        _allow(spec, {"kind"})
        return diagonal.LeftmostSelector()
    if kind == "rightmost":
        _allow(spec, {"kind"})
        return diagonal.RightmostSelector()
    if kind == "scripted":
        _allow(spec, {"kind", "entries"})
        items = spec.get("entries", [])
        if not isinstance(items, list):
            raise ConfigError("scripted selector 'entries' must be a list")
        entries = {}
        for item in items:
            if not (isinstance(item, list) and len(item) == 2):
                raise ConfigError("scripted selector entries are [from_stage, node]")
            stage, node = item
            # a repeated stage would leave all but its last entry unused
            if not is_natural(stage) or stage in entries:
                raise ConfigError("scripted selector stages must be distinct naturals, got %r" % (stage,))
            # a node is a tuple of one bit string per side
            if mode == diagonal.PAIR:
                if not (isinstance(node, list) and len(node) == 2 and all(map(is_bits, node))):
                    raise ConfigError("pair selector nodes are [x_bits, y_bits]")
                node = tuple(node)
            elif is_bits(node):
                node = (node,)
            else:
                raise ConfigError("single selector nodes are bit strings")
            entries[stage] = node
        return diagonal.ScriptedSelector(entries.items())
    raise ConfigError("unknown selector kind %r" % kind)


# ---------------------------------------------------------------------------
# config validation


def _allow(doc, allowed):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError("unknown fields: %s" % ", ".join(sorted(unknown)))


def _int(doc, key, default=None, lo=None, hi=None):
    if key not in doc:
        if default is None:
            raise ConfigError("missing required field %r" % key)
        return default
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError("field %r must be an integer" % key)
    if lo is not None and v < lo or hi is not None and v > hi:
        raise ConfigError("field %r out of range" % key)
    return v


def _bool(doc, key, default):
    v = doc.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError("field %r must be true or false" % key)
    return v


def _str(doc, key, default=None):
    if key not in doc:
        if default is None:
            raise ConfigError("missing required field %r" % key)
        return default
    if not isinstance(doc[key], str):
        raise ConfigError("field %r must be a string" % key)
    return doc[key]


def _optional_int(doc, key):
    return _int(doc, key) if key in doc else None


def _strategies(doc, key):
    strategies = doc.get(key)
    if not isinstance(strategies, list):
        raise ConfigError("'strategies' must be a list")
    mode = DIAGONAL_MODES[doc["scenario"]]
    eff_strats = []
    for entry in strategies:
        if not isinstance(entry, dict):
            raise ConfigError("strategy entries must be objects")
        _allow(entry, {"enumerator", "selector"})
        enum_spec = entry.get("enumerator", {"kind": "silent"})
        sel_spec = entry.get("selector", {"kind": "leftmost"})
        load_enumerator(enum_spec)
        load_selector(sel_spec, mode)
        eff_strats.append({"enumerator": enum_spec, "selector": sel_spec})
    return eff_strats


def _machine(doc, key):
    machine = _str(doc, key)
    if machine not in enumops.battery():
        raise ConfigError("unknown machine %r" % machine)
    return machine


def _check_bound(eff):
    # 2^m_max > bound, without building 2^m_max for a huge m_max
    if eff["m_max"] >= eff["bound"].bit_length():
        raise ConfigError("bound too small for m_max")


# fields every scenario accepts; `seed` is ignored where no row reads it
_COMMON_FIELDS = {"version", "scenario", "out_dir", "seed"}


def validate_config(doc) -> dict:
    """Strict validation; returns the config a trace echoes, with defaults
    filled in, for byte-exact replay.  `out_dir` is checked but not part
    of it: the output location is not semantic."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError("config version must be %d" % CONFIG_VERSION)
    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError("unknown scenario %r" % scenario)
    row = SCENARIO_TABLE[scenario]
    eff = {"version": CONFIG_VERSION, "scenario": scenario}
    if "out_dir" in doc and not _str(doc, "out_dir"):  # where a run writes: checked, not echoed
        raise ConfigError("field 'out_dir' must not be empty")
    _allow(doc, _COMMON_FIELDS | {name for name, _ in row.fields})
    for name, read in row.fields:
        value = read(doc, name)
        if value is not None:
            eff[name] = value
    if row.check is not None:
        row.check(eff)
    return eff


def _read_json(path: str, what: str):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError("cannot parse %s %s: %s" % (what, path, exc))


def load_config_file(path: str) -> dict:
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# scenario implementations


def verdict(name, passed, **inputs):
    return {"invariant": name, "pass": bool(passed), "inputs": inputs}


def _diagonal_trace(cfg) -> diagonal.Trace:
    """Build, without auditing, the construction a validated diagonal
    config describes."""
    mode = DIAGONAL_MODES[cfg["scenario"]]
    strategies = tuple(
        diagonal.StrategySpec(load_enumerator(entry["enumerator"]), load_selector(entry["selector"], mode))
        for entry in cfg["strategies"]
    )
    trace = diagonal.run_construction(
        diagonal.RunConfig(mode, cfg["stages"], strategies, cfg["node_budget"])
    )
    trace.config_echo = cfg
    return trace


def _diagonal_report(trace) -> dict:
    """Audit a diagonal trace once through the registry and report on it.

    The report body writes no fact that the rest of the report gives:
    entry e of `densities` and of `trap_tallies` is strategy e's, a
    tally's inactive count is the stage count less its pending and sprung
    counts, and a verdict names no inputs: `single-victim` row e is
    strategy e's and `gap-census-consistency` row k checks census k."""
    verdicts = [verdict(name, not bad) for name, bad in diagonal.audit_verdicts(trace)]
    densities = []
    tallies = []
    for e in range(trace.strategy_count):
        elems = trace.enumerated[e]
        # count i is the enumerated elements below 2^(i+1), block i's end
        counts = [count_below(elems, 2 << i) for i in range(trace.defined_through + 1)]
        densities.append({"block_end_counts": counts})
        statuses = [diagonal.trap_status(trace, e, s) for s in range(len(trace.records))]
        tallies.append({"pending": statuses.count("pending"), "sprung": statuses.count("sprung")})
    # the gap-census audits above computed these censuses
    censuses = [
        {"oracle_prefix": label, "side": trace.sides[i], "census": trace.census(prefix, i).to_jsonable()}
        for label, i, prefix in diagonal.census_prefixes(trace)
    ]
    return {
        "verdicts": verdicts,
        "densities": densities,
        "trap_tallies": tallies,
        "value_censuses": censuses,
        "notes": [],
    }


def _run_diagonal(cfg):
    trace = _diagonal_trace(cfg)
    return diagonal.trace_to_jsonable(trace), _diagonal_report(trace)


def _logged(name):
    """The runner `scenarios.<name>`, looked up when it runs, so that only a
    command that runs it loads `scenarios`; its log becomes a scenario
    trace."""

    def run(cfg):
        log, report_body = getattr(scenarios, name)(cfg)
        trace_doc = {"format": SCENARIO_TRACE_FORMAT, "scenario": cfg["scenario"],
                     "config": cfg, "log": log}
        return trace_doc, report_body

    return run


class Scenario:
    """One row of the scenario table.

    `fields` lists (name, read) in validation order: read(doc, name) returns
    the field's effective value, with its default and bounds applied, or
    None to leave an absent optional field out.  `check(eff)` validates the
    filled-in config as a whole.  run(cfg) takes the echoed config and
    returns (trace document, report body).
    """

    __slots__ = ("fields", "run", "check")

    def __init__(self, fields, run, check=None):
        self.fields = fields
        self.run = run
        self.check = check


# a seed a run draws from: random.Random(-s) seeds like random.Random(s) and
# child seeds are mixed to 64 bits, so a seed outside [0, 2^64) can repeat
# the draws of a seed inside it
_seed = partial(_int, lo=0, hi=(1 << 64) - 1)

_DIAGONAL_FIELDS = (
    ("stages", partial(_int, lo=1, hi=64)),
    ("node_budget", partial(_int, default=1 << 18, lo=1)),
    ("csv_profiles", partial(_bool, default=False)),
    ("seed", _optional_int),
    ("strategies", _strategies),
)

SCENARIO_TABLE = {
    "single-diagonal": Scenario(_DIAGONAL_FIELDS, _run_diagonal),
    "pair-diagonal": Scenario(_DIAGONAL_FIELDS, _run_diagonal),
    "coding-roundtrip": Scenario(
        (
            ("seed", _seed),
            ("count", partial(_int, default=20, lo=1)),
            ("m_max", partial(_int, default=10, lo=0)),
            ("bound", partial(_int, default=1 << 12, lo=2, hi=1 << 20)),
        ),
        _logged("run_coding_roundtrip"),
        check=_check_bound,
    ),
    "relation-embed": Scenario(
        (
            ("seed", _seed),
            ("count", partial(_int, default=30, lo=1)),
            ("max_size", partial(_int, default=8, lo=1, hi=16)),
        ),
        _logged("run_relation_embed"),
    ),
    "operator-compile": Scenario(
        (
            ("machine", _machine),
            ("element_bound", partial(_int, default=4, lo=0, hi=6)),
            ("label_bound", partial(_int, default=2, lo=0, hi=4)),
        ),
        _logged("run_operator_compile"),
    ),
}
SCENARIOS = tuple(SCENARIO_TABLE)


def run_experiment(config: dict):
    """Execute a config; returns (report, trace_doc).

    The report is the format tag and the scenario's report body: the
    run's config is only in the trace's echo.  When the config names an
    `out_dir`, the trace, the report and any CSV profiles are written there;
    a directory that cannot be made or written is a ConfigError."""
    cfg = validate_config(config)
    trace_doc, report_body = SCENARIO_TABLE[cfg["scenario"]].run(cfg)
    report = {"format": REPORT_FORMAT, **report_body}
    target = config.get("out_dir")
    if target:
        try:
            _write_outputs(target, trace_doc, report, cfg.get("csv_profiles"))
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigError("cannot write outputs to %s: %s" % (target, exc))
    return report, trace_doc


def _write_outputs(target, trace_doc, report, csv_profiles):
    """Write both artifacts and, with `csv_profiles`, one CSV per strategy
    of the report's block-end densities, each in lowest terms.  Any other
    `wdensity_strategy<k>.csv` in `target` is removed, so that no profile
    of an earlier run stays beside this report."""
    os.makedirs(target, exist_ok=True)
    for name, doc in (("trace.json", trace_doc), ("report.json", report)):
        with open(os.path.join(target, name), "w") as fh:
            fh.write(canonical_json(doc))
    profiles = report["densities"] if csv_profiles else []
    for e, entry in enumerate(profiles):
        lines = ["n,num,den"]
        for i, count in enumerate(entry["block_end_counts"]):
            density = rational(count, 2 << i)
            lines.append("%d,%d,%d" % (2 << i, density["num"], density["den"]))
        with open(os.path.join(target, "wdensity_strategy%d.csv" % e), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    for name in os.listdir(target):
        match = re.fullmatch(r"wdensity_strategy(0|[1-9][0-9]*)\.csv", name)
        if match and int(match[1]) >= len(profiles) and os.path.isfile(os.path.join(target, name)):
            os.remove(os.path.join(target, name))


def _replay_mismatch(doc, fresh) -> list:
    if canonical_json(fresh) == canonical_json(doc):
        return []
    return [
        "replay mismatch at %s: trace is not reproducible from its config"
        % first_difference(doc, fresh)
    ]


def verify_trace_file(path: str) -> list:
    """Replay a trace file from its validated config echo and audit it;
    returns violation messages.  Nothing is written.  A diagonal trace is
    rebuilt without auditing the rebuild, then the file's own trace is
    loaded and audited once if it holds one record per configured stage,
    as the engine writes: loading and auditing take time in its records."""
    doc = _read_json(path, "trace")
    fmt = doc.get("format") if isinstance(doc, dict) else None
    # the scenario format is tested first, so a scenario trace loads no module
    if fmt != SCENARIO_TRACE_FORMAT and fmt != diagonal.TRACE_FORMAT:
        raise ConfigError(
            "unsupported trace format %r: this version verifies %s and %s traces"
            % (fmt, diagonal.TRACE_FORMAT, SCENARIO_TRACE_FORMAT)
        )
    echo = doc.get("config")
    if not echo or not isinstance(echo, dict):
        raise ConfigError("trace carries no config echo; cannot replay")
    cfg = validate_config(echo)
    if fmt == SCENARIO_TRACE_FORMAT:
        fresh, report_body = SCENARIO_TABLE[cfg["scenario"]].run(cfg)
        return _replay_mismatch(doc, fresh) + [
            "verdict failed on replay: %s" % v["invariant"] for v in report_body["verdicts"] if not v["pass"]
        ]
    if cfg["scenario"] not in DIAGONAL_MODES:
        raise ConfigError("a %s trace must echo a diagonal config" % fmt)
    problems = _replay_mismatch(doc, diagonal.trace_to_jsonable(_diagonal_trace(cfg)))
    records = doc.get("records")
    if type(records) is list and len(records) != cfg["stages"]:
        return problems + ["trace contents are not auditable: trace has %d records, but its config runs %d "
                           "stages" % (len(records), cfg["stages"])]
    try:
        trace = diagonal.trace_from_jsonable(doc)
        problems += diagonal.audit_trace(trace)
    except (InvariantViolationError, BudgetError) as exc:  # doctored contents: report, don't crash
        problems.append("trace contents are not auditable: %s" % exc)
    return problems


def report_passes(report: dict) -> bool:
    return all(v["pass"] for v in report["verdicts"])
