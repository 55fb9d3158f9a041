"""Experiment orchestration: strict JSON configs, deterministic scenario
runs, trace/report emission, and trace verification.

Config documents carry a version field and are validated strictly:
unknown fields are errors, so configs cannot drift silently.  Every
scenario is deterministic end-to-end; running the same effective config
twice produces byte-identical trace files.  Reports store rationals as
{num, den} integer pairs; no floats cross the serialization boundary.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from . import adversaries, codings, diagonal, enumops, reals, relations
# nothing here calls prefix_density, and the perfbench tracer patches every
# binding of density.prefix_density without needing this one; the import
# stays because perfbench's tests read harness.prefix_density
from .density import prefix_density  # noqa: F401
from .errors import ConfigError, InvariantViolationError
from .runs import count_below

CONFIG_VERSION = 1
SCENARIO_TRACE_FORMAT = "gencomp-scenario-trace/2"
REPORT_FORMAT = "gencomp-report/2"

DIAGONAL_MODES = {"single-diagonal": diagonal.SINGLE, "pair-diagonal": diagonal.PAIR}
SCENARIOS = (*DIAGONAL_MODES, "coding-roundtrip", "relation-embed", "operator-compile")


def canonical_json(doc) -> str:
    """The byte-exact serialization used for every emitted artifact."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def rational(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator}


def child_seed(seed: int, k: int) -> int:
    return reals.mix64(seed + k + 1)


# ---------------------------------------------------------------------------
# component loaders (the JSON schemas for enumerators and selectors live
# here; other modules only define the semantics)


def load_enumerator(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("enumerator spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind in adversaries.CATALOG:
        _allow(spec, {"kind"})
        return adversaries.CATALOG[kind]()
    if kind == "scripted":
        _allow(spec, {"kind", "tag", "stages"})
        stages = spec.get("stages", {})
        if not isinstance(stages, dict):
            raise ConfigError("scripted enumerator 'stages' must be an object")
        schedule = {}
        for key, elems in stages.items():
            if not (key.isascii() and key.isdigit()) or int(key) in schedule:
                raise ConfigError("enumerator stage keys must be distinct naturals, got %r" % key)
            if not isinstance(elems, list) or not all(_is_natural(v) for v in elems):
                raise ConfigError("enumerated elements must be lists of naturals")
            schedule[int(key)] = set(elems)
        return reals.Enumerator.from_schedule(_int(spec, "tag", default=0), schedule)
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
        entries = []
        for item in items:
            if not (isinstance(item, list) and len(item) == 2):
                raise ConfigError("scripted selector entries are [from_stage, node]")
            stage, node = item
            if not _is_natural(stage):
                raise ConfigError("scripted selector stages must be natural numbers")
            # a node is a tuple of one bit string per side
            if mode == diagonal.PAIR:
                if not (isinstance(node, list) and len(node) == 2 and all(map(_is_bits, node))):
                    raise ConfigError("pair selector nodes are [x_bits, y_bits]")
                node = tuple(node)
            elif _is_bits(node):
                node = (node,)
            else:
                raise ConfigError("single selector nodes are bit strings")
            entries.append((stage, node))
        return diagonal.ScriptedSelector(entries)
    raise ConfigError("unknown selector kind %r" % kind)


# ---------------------------------------------------------------------------
# config validation


def _is_natural(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_bits(v) -> bool:
    return isinstance(v, str) and set(v) <= {"0", "1"}


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


def validate_config(doc) -> dict:
    """Strict validation; returns the effective config with defaults
    filled in, suitable for byte-exact replay."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError("config version must be %d" % CONFIG_VERSION)
    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError("unknown scenario %r" % scenario)
    common = {"version", "scenario", "out_dir", "seed"}
    eff = {"version": CONFIG_VERSION, "scenario": scenario}
    if "out_dir" in doc:
        eff["out_dir"] = _str(doc, "out_dir")
    if scenario in DIAGONAL_MODES:
        _allow(doc, common | {"stages", "strategies", "node_budget", "csv_profiles"})
        eff["stages"] = _int(doc, "stages", lo=1, hi=64)
        eff["node_budget"] = _int(doc, "node_budget", default=1 << 18, lo=1)
        eff["csv_profiles"] = _bool(doc, "csv_profiles", False)
        if "seed" in doc:
            eff["seed"] = _int(doc, "seed")
        strategies = doc.get("strategies")
        if not isinstance(strategies, list):
            raise ConfigError("'strategies' must be a list")
        mode = DIAGONAL_MODES[scenario]
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
        eff["strategies"] = eff_strats
    elif scenario == "coding-roundtrip":
        _allow(doc, common | {"count", "m_max", "bound"})
        eff["seed"] = _int(doc, "seed")
        eff["count"] = _int(doc, "count", default=20, lo=1)
        eff["m_max"] = _int(doc, "m_max", default=10, lo=0)
        eff["bound"] = _int(doc, "bound", default=1 << 12, lo=2)
        if (1 << eff["m_max"]) > eff["bound"]:
            raise ConfigError("bound too small for m_max")
    elif scenario == "relation-embed":
        _allow(doc, common | {"count", "max_size"})
        eff["seed"] = _int(doc, "seed")
        eff["count"] = _int(doc, "count", default=30, lo=1)
        eff["max_size"] = _int(doc, "max_size", default=8, lo=1, hi=16)
    elif scenario == "operator-compile":
        _allow(doc, common | {"machine", "element_bound", "label_bound"})
        machine = _str(doc, "machine")
        if machine not in enumops.battery():
            raise ConfigError("unknown machine %r" % machine)
        eff["machine"] = machine
        eff["element_bound"] = _int(doc, "element_bound", default=4, lo=0, hi=6)
        eff["label_bound"] = _int(doc, "label_bound", default=2, lo=0, hi=4)
    return eff


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot parse config %s: %s" % (path, exc))
    return doc


# ---------------------------------------------------------------------------
# scenario implementations


def _verdict(name, passed, **inputs):
    return {"invariant": name, "pass": bool(passed), "inputs": inputs}


def _build_strategies(cfg, mode):
    specs = []
    for entry in cfg["strategies"]:
        specs.append(
            diagonal.StrategySpec(
                source=load_enumerator(entry["enumerator"]),
                selector=load_selector(entry["selector"], mode),
            )
        )
    return tuple(specs)


def _diagonal_trace(cfg) -> diagonal.Trace:
    """Build, without auditing, the construction a validated diagonal
    config describes."""
    mode = DIAGONAL_MODES[cfg["scenario"]]
    trace = diagonal.run_construction(
        diagonal.RunConfig(mode, cfg["stages"], _build_strategies(cfg, mode), cfg["node_budget"])
    )
    trace.config_echo = cfg
    return trace


def _diagonal_report(trace) -> dict:
    """Audit a diagonal trace once through the registry and report on it."""
    verdicts = [
        _verdict(name, not bad, **inputs) for name, inputs, bad in diagonal.audit_verdicts(trace)
    ]
    densities = []
    tallies = []
    for e in range(trace.strategy_count):
        elems = trace.enumerated[e]
        row = []
        for i in range(trace.defined_through + 1):
            n = 1 << (i + 1)
            row.append({"n": n, "density": rational(Fraction(count_below(elems, n), n))})
        densities.append({"strategy": e, "block_end_densities": row})
        tally = {"pending": 0, "sprung": 0, "inactive": 0}
        for s in range(trace.stages):
            tally[diagonal.trap_status(trace, e, s)] += 1
        tallies.append({"strategy": e, **tally})
    # the gap-census audits above computed these censuses
    censuses = [
        {"oracle_prefix": label, "side": side, "census": trace.census(prefix, side).to_jsonable()}
        for label, side, prefix in diagonal.census_prefixes(trace)
    ]
    return {
        "verdicts": verdicts,
        "densities": densities,
        "trap_tallies": tallies,
        "value_censuses": censuses,
        "notes": [],
    }


def _write_csv_profiles(report, out_dir):
    """One CSV per strategy of the report's block-end densities."""
    for entry in report["densities"]:
        lines = ["n,num,den"]
        for row in entry["block_end_densities"]:
            lines.append("%d,%d,%d" % (row["n"], row["density"]["num"], row["density"]["den"]))
        path = os.path.join(out_dir, "wdensity_strategy%d.csv" % entry["strategy"])
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _run_coding_roundtrip(cfg):
    seed, count, m_max, bound = cfg["seed"], cfg["count"], cfg["m_max"], cfg["bound"]
    log = []
    verdicts = []
    roundtrip_ok = True
    for k in range(count):
        x = reals.SeededReal(child_seed(seed, k))
        d = reals.GenericDescription.full(codings.ValuationCoding(x), start=1)
        bits = []
        for m in range(m_max + 1):
            got = codings.decode_valuation(d, m, bound)
            roundtrip_ok &= got == x.bit(m)
            bits.append(got)
        log.append({"real": k, "decoded": "".join(str(b) for b in bits)})
    verdicts.append(_verdict("valuation-roundtrip", roundtrip_ok, count=count, m_max=m_max))

    x0 = reals.SeededReal(child_seed(seed, 0))
    vectors_ok = (
        codings.encode_interval(x0, 8) == x0.bit(2)
        and codings.encode_interval(x0, 2) == x0.bit(0)
        and codings.encode_interval(x0, 12) == x0.bit(3)
    )
    verdicts.append(_verdict("interval-strict-offset", vectors_ok, vectors=[[8, 2], [2, 0], [12, 3]]))

    rng = random.Random(seed)
    omitted = sorted(rng.sample(range(2, bound), min(50, bound - 2)))
    omitted_set = set(omitted)
    d_cof = reals.GenericDescription.from_domain(
        lambda n: n not in omitted_set, codings.IntervalCoding(x0), start=2
    )
    interval_ok = True
    recovered = 0
    top_m = bound.bit_length() - 2  # largest m with the witness interval inside bound
    for m in range(top_m + 1):
        witnesses = set(range((1 << m) + 1, (1 << (m + 1)) + 1))
        got = codings.decode_interval(d_cof, m, bound)
        if witnesses <= omitted_set:
            interval_ok &= got is None
        else:
            interval_ok &= got == x0.bit(m)
            recovered += 1
    verdicts.append(
        _verdict("interval-finite-loss", interval_ok, omitted=len(omitted), recovered=recovered)
    )
    log.append({"interval_omitted": omitted})

    robust_ok = True
    i_max = bound.bit_length() - 1
    for m in range(min(8, m_max) + 1):
        e = m + 2
        gaps = set()
        for i in range(e, i_max):
            hi = 1 << (i + 1)
            gaps |= set(range(hi - (1 << (i - e)), hi))
        d_gap = reals.GenericDescription.from_domain(
            lambda n: n not in gaps, codings.ValuationCoding(x0), start=1
        )
        robust_ok &= codings.decode_valuation(d_gap, m, bound) == x0.bit(m)
    verdicts.append(_verdict("valuation-robust-decoding", robust_ok, m_max=min(8, m_max)))

    witness_ok = True
    for m in range(7):
        k = 12
        cnt = sum(1 for n in range(1, 1 << k) if codings.two_adic_valuation(n) == m)
        witness_ok &= Fraction(cnt, 1 << k) == Fraction(1, 1 << (m + 1))
    verdicts.append(_verdict("witness-class-density", witness_ok, m_range=7, horizon=4096))

    sparse_ok = True
    for k in range(1, 14):
        n = 1 << k
        powers = sum(1 for v in range(n) if v >= 1 and v & (v - 1) == 0)
        sparse_ok &= Fraction(powers, n) <= Fraction(k + 1, n)
    verdicts.append(_verdict("powers-of-two-sparse", sparse_ok, horizons=13))

    report = {
        "verdicts": verdicts,
        "densities": [
            {"witness_class": m, "density_at_4096": rational(Fraction(1, 1 << (m + 1)))}
            for m in range(7)
        ],
        "notes": [
            "the non-uniform reconstruction step (full real from a cofinite "
            "fragment) has no finitary certificate; only the two uniform "
            "decoding directions are machine-checked"
        ],
    }
    return log, report


def _embedding_jsonable(emb) -> dict:
    """An embedding's log entry: the digraph's rows and each image k by
    reference, as k base-4 digits whose j-th is the digit image k carries
    against image j ("0" for none).  Raises InvariantViolationError for an
    image this form cannot write: one off stage k, or with a prior that is
    not an earlier image."""
    images = []
    for k, el in enumerate(emb.images):
        if el.stage != k:
            raise InvariantViolationError("image %d lies at stage %d" % (k, el.stage))
        digits = ["0"] * k
        for prior, d in el.combo:
            # priors lie at earlier stages, and image j at stage j
            if emb.images[prior.stage] != prior:
                raise InvariantViolationError("image %d has a prior that is no earlier image" % k)
            digits[prior.stage] = "0123"[d]
        images.append("".join(digits))
    return {
        "digraph": ["".join("1" if v else "0" for v in row) for row in emb.relation.adjacency],
        "images": images,
    }


def _run_relation_embed(cfg):
    rng = random.Random(cfg["seed"])
    log = []
    verdicts = []
    embed_ok = True
    for k in range(cfg["count"]):
        size = rng.randint(1, cfg["max_size"])
        adjacency = [
            [a == b or rng.random() < 0.4 for b in range(size)] for a in range(size)
        ]
        rel = relations.FiniteReflexiveRelation(adjacency)
        emb = relations.embed_relation(rel)
        embed_ok &= emb.verify()
        log.append(_embedding_jsonable(emb))
    verdicts.append(_verdict("embedding-exact", embed_ok, count=cfg["count"]))

    reflexive_ok = all(relations.universal_rel(k, k) for k in range(4096))
    verdicts.append(_verdict("reflexivity", reflexive_ok, ids=4096))

    iso_ok = True
    s1 = relations.stage_interval(1)
    for i in range(s1.lo, s1.hi):
        for j in range(s1.lo, s1.hi):
            if i != j:
                iso_ok &= not relations.universal_rel(i, j)
    s2 = relations.stage_interval(2)
    sample = list(range(s2.lo, s2.lo + 40)) + list(range(s2.hi - 40, s2.hi))
    for i in sample:
        for j in sample:
            if i != j:
                iso_ok &= not relations.universal_rel(i, j)
    verdicts.append(_verdict("same-stage-isolation", iso_ok, stage1="exhaustive", stage2="boundary-sample"))

    complete_ok = True
    for s in (1, 2):
        interval = relations.stage_interval(s)
        seen = set()
        prior = interval.lo  # domain before stage s is exactly [0, lo)
        for new in range(interval.lo, interval.hi):
            vec = 0
            for old in range(prior):
                digit = (1 if relations.universal_rel(old, new) else 0) | (
                    2 if relations.universal_rel(new, old) else 0
                )
                vec += digit << (2 * old)
            seen.add(vec)
        complete_ok &= seen == set(range(4 ** prior))
    verdicts.append(_verdict("extension-completeness", complete_ok, stages=[1, 2]))

    report = {"verdicts": verdicts, "densities": [], "notes": []}
    return log, report


def _run_operator_compile(cfg):
    phi = enumops.battery()[cfg["machine"]]
    op = enumops.functional_to_operator(phi, cfg["element_bound"], cfg["label_bound"])
    log = [
        {
            "axioms": sorted(
                [list(out), sorted(list(p) for p in premise)]
                for out, premise in op.axioms
            )
        }
    ]
    ok = True
    for assignment in enumops.all_assignments(cfg["element_bound"]):
        via_operator = enumops.apply_operator(
            op, frozenset(assignment), cfg["element_bound"]
        )
        direct = enumops.union_over_labeled_orderings(phi, assignment, cfg["label_bound"])
        ok &= via_operator == direct
        log.append(
            {
                "assignment": [list(p) for p in assignment],
                "outputs": sorted([list(o) for o in via_operator]),
            }
        )
    report = {
        "verdicts": [
            _verdict(
                "operator-matches-orderings",
                ok,
                machine=cfg["machine"],
                element_bound=cfg["element_bound"],
                label_bound=cfg["label_bound"],
            )
        ],
        "densities": [],
        "notes": [],
    }
    return log, report


def run_experiment(config: dict, out_dir=None, stages=None, seed=None, write=True):
    """Execute a validated (or raw) config; returns (report, trace_doc).

    Optional overrides mirror the CLI flags.  When an output directory is
    supplied (argument or config field) and `write` is on, trace.json /
    report.json and any CSV profiles are written there.
    """
    doc = dict(config)
    if stages is not None:
        doc["stages"] = stages
    if seed is not None:
        doc["seed"] = seed
    if out_dir is not None:
        doc["out_dir"] = out_dir
    cfg = validate_config(doc)
    scenario = cfg["scenario"]
    echo = _echo(cfg)
    if scenario in DIAGONAL_MODES:
        trace = _diagonal_trace(echo)
        trace_doc, report_body = diagonal.trace_to_jsonable(trace), _diagonal_report(trace)
    else:
        if scenario == "coding-roundtrip":
            log, report_body = _run_coding_roundtrip(echo)
        elif scenario == "relation-embed":
            log, report_body = _run_relation_embed(echo)
        else:
            log, report_body = _run_operator_compile(echo)
        trace_doc = {
            "format": SCENARIO_TRACE_FORMAT,
            "scenario": scenario,
            "config": echo,
            "log": log,
        }
    report = {
        "format": REPORT_FORMAT,
        "scenario": scenario,
        "config": echo,
        **report_body,
    }
    target = cfg.get("out_dir")
    if target and write:
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, "trace.json"), "w") as fh:
            fh.write(canonical_json(trace_doc))
        with open(os.path.join(target, "report.json"), "w") as fh:
            fh.write(canonical_json(report))
        if cfg.get("csv_profiles") and scenario in DIAGONAL_MODES:
            _write_csv_profiles(report, target)
    return report, trace_doc


def _echo(cfg) -> dict:
    """A validated config as its trace echoes it: the echo drives replay,
    and the output location is not semantic."""
    return {k: v for k, v in cfg.items() if k != "out_dir"}


def _echoed_config(trace_doc: dict) -> dict:
    cfg = trace_doc.get("config")
    if not cfg or not isinstance(cfg, dict):
        raise ConfigError("trace carries no config echo; cannot replay")
    return dict(cfg)


def replay_trace_doc(trace_doc: dict):
    """Re-run the config echoed in a trace document without touching the
    filesystem; returns (report, fresh trace doc)."""
    return run_experiment(_echoed_config(trace_doc), write=False)


def first_difference(a, b, path: str = ""):
    """JSON path of the first place, in serialization order, where two
    JSON documents differ (such as `records[7].batches[1][1][0]`), or
    None when they serialize identically."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            at = "%s.%s" % (path, key) if path else key
            if key not in a or key not in b:
                return at
            found = first_difference(a[key], b[key], at)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, "%s[%d]" % (path, i))
            if found is not None:
                return found
        return None if len(a) == len(b) else "%s[%d]" % (path, min(len(a), len(b)))
    return None if json.dumps(a) == json.dumps(b) else path or "$"


def _replay_mismatch(doc, fresh) -> list:
    if canonical_json(fresh) == canonical_json(doc):
        return []
    return [
        "replay mismatch at %s: trace is not reproducible from its config"
        % first_difference(doc, fresh)
    ]


def verify_trace_file(path: str) -> list:
    """Replay a trace file and audit it; returns violation messages.  A
    diagonal trace is rebuilt from its config without auditing the
    rebuild, then the file's own trace is audited once."""
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError("cannot parse trace %s: %s" % (path, exc))
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == diagonal.TRACE_FORMAT:
        cfg = _echo(validate_config(_echoed_config(doc)))
        if cfg["scenario"] not in DIAGONAL_MODES:
            raise ConfigError("a %s trace must echo a diagonal config" % fmt)
        problems = _replay_mismatch(doc, diagonal.trace_to_jsonable(_diagonal_trace(cfg)))
        try:
            trace = diagonal.trace_from_jsonable(doc)
            problems += diagonal.audit_trace(trace)
        except Exception as exc:  # doctored contents: report, don't crash
            problems.append("trace contents are not auditable: %s" % exc)
    elif fmt == SCENARIO_TRACE_FORMAT:
        report, fresh = replay_trace_doc(doc)
        problems = _replay_mismatch(doc, fresh)
        for v in report["verdicts"]:
            if not v["pass"]:
                problems.append("verdict failed on replay: %s" % v["invariant"])
    else:
        raise ConfigError(
            "unsupported trace format %r: this version verifies %s and %s traces"
            % (fmt, diagonal.TRACE_FORMAT, SCENARIO_TRACE_FORMAT)
        )
    return problems


def report_passes(report: dict) -> bool:
    return all(v["pass"] for v in report["verdicts"])
