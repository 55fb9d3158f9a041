"""The gencomp benchmark: `gencomp run` and `gencomp verify`, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's configs (perfbench/workloads.py); the
program only sees the written config files.  Operations run one at a time
(closed loop, one client), each in a fresh child process reaped with
os.wait4 for its CPU time and peak RSS.  Every operation's output is
checked: exit codes, report verdicts, `verify` violations, and the SHA-256
of each trace.json against the first repetition in this run.

--trace 0 prints the end-to-end metrics (the median over repetitions).
--trace 1 runs the same operations in-process, in at least two pairs of an
untraced pass and a pass with every public function of every module wrapped
(perfbench/layers.py), and prints per-layer self times and counters.  The
traced trace bytes must equal the untraced ones, every wrapper must be gone
afterwards, and the deterministic counters must repeat exactly.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
LAYERS = os.path.join(HERE, "layers.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 9
MIB = float(1 << 20)

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("verify_s", "s"),
    ("run_cpu_s", "s"),
    ("verify_cpu_s", "s"),
    ("run_peak_rss_mb", "MiB"),
    ("verify_peak_rss_mb", "MiB"),
    ("trace_mb", "MiB"),
    ("ok_frac", "ratio"),
)
# printed for reference, not part of the result: unscaled wall seconds
RAW = (("raw.setup_s", "s"), ("raw.run_s", "s"), ("raw.verify_s", "s"))

PER_LAYER = (
    ("diagonal.engine_self_s", "s", "self", "diagonal.engine"),
    ("diagonal.level_ctx_s", "s", "self", "diagonal.level_ctx"),
    ("diagonal.level_ctx_builds", "count", "calls", "diagonal.level_ctx"),
    ("diagonal.level_hits", "count", "counter", "diagonal.level_hits"),
    ("diagonal.dfs_s", "s", "self", "diagonal.dfs"),
    ("diagonal.dfs_nodes", "count", "counter", "diagonal.dfs_nodes"),
    ("diagonal.audit.marker_on_path_s", "s", "self", "diagonal.audit.marker_on_path"),
    ("diagonal.audit.trap_soundness_s", "s", "self", "diagonal.audit.trap_soundness"),
    ("diagonal.audit.spoiling_s", "s", "self", "diagonal.audit.spoiling"),
    ("diagonal.audit.single_victim_s", "s", "self", "diagonal.audit.single_victim"),
    ("diagonal.audit.gap_census_consistency_s", "s", "self",
     "diagonal.audit.gap_census_consistency"),
    ("diagonal.audit.trace_s", "s", "self", "diagonal.audit.trace"),
    ("diagonal.value_set_s", "s", "self", "diagonal.value_set"),
    ("diagonal.trap_status_s", "s", "self", "diagonal.trap_status"),
    ("diagonal.enumerated_through_s", "s", "self", "diagonal.enumerated_through"),
    ("diagonal.serialize_s", "s", "self", "diagonal.serialize"),
    ("diagonal.deserialize_s", "s", "self", "diagonal.deserialize"),
    ("diagonal.rules_issued", "count", "trace", "rules"),
    ("diagonal.trap_events", "count", "trace", "trap_events"),
    ("adversaries.enum_s", "s", "self", "adversaries.enum"),
    ("adversaries.calls", "count", "calls", "adversaries.enum"),
    ("adversaries.elements", "count", "counter", "adversaries.elements"),
    ("density.prefix_density_s", "s", "self", "density.prefix_density"),
    ("density.prefix_density_calls", "count", "calls", "density.prefix_density"),
    ("density.member_probes", "count", "counter", "density.member_probes"),
    ("density.gap_census_s", "s", "self", "density.gap_census"),
    ("harness.validate_s", "s", "self", "harness.validate"),
    ("harness.run_experiment_self_s", "s", "self", "harness.run_experiment"),
    ("harness.verify_self_s", "s", "self", "harness.verify"),
    ("harness.canonical_json_s", "s", "self", "harness.canonical_json"),
    ("harness.json_bytes", "count", "counter", "harness.json_bytes"),
    ("enumops.compile_s", "s", "self", "enumops.compile"),
    ("enumops.apply_s", "s", "self", "enumops.apply"),
    ("enumops.oracle_s", "s", "self", "enumops.oracle"),
    ("enumops.axioms", "count", "counter", "enumops.axioms"),
    ("codings.decode_s", "s", "self", "codings.decode"),
    ("codings.decode_calls", "count", "calls", "codings.decode"),
    ("reals.bit_s", "s", "self", "reals.bit"),
    ("reals.bit_calls", "count", "calls", "reals.bit"),
    ("relations.embed_s", "s", "self", "relations.embed"),
    ("relations.embed_verify_s", "s", "self", "relations.embed_verify"),
    ("relations.related_calls", "count", "counter", "relations.related_calls"),
)
OVERHEAD = ("bench.trace_overhead_s", "s")


class Checker:
    """Counts operations and failures.  An operation fails if it exits
    non-zero, if a report verdict is FAIL, if verify prints a VIOLATION, or
    if its trace.json differs from the first repetition's in this run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}

    def _fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_run(self, name, exit_code, output, out_dir):
        self.attempted += 1
        trace_path = os.path.join(out_dir, "trace.json")
        if exit_code != 0:
            return self._fail("%s: run exited %d: %s" % (name, exit_code, output[-300:]))
        try:
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
            with open(trace_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except (OSError, ValueError) as exc:
            return self._fail("%s: run left no readable artifacts: %s" % (name, exc))
        failing = [v["invariant"] for v in report["verdicts"] if not v["pass"]]
        if failing or " FAIL" in output:
            return self._fail("%s: verdicts failed: %s" % (name, failing))
        if self.reference.setdefault(name, digest) != digest:
            return self._fail("%s: trace.json differs from the first repetition" % name)

    def check_verify(self, name, exit_code, output):
        self.attempted += 1
        if exit_code != 0 or "VIOLATION" in output:
            self._fail("%s: verify exited %d: %s" % (name, exit_code, output[-300:]))


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def write_configs(work, pairs) -> list:
    os.makedirs(os.path.join(work, "configs"))
    out = []
    for name, cfg in pairs:
        path = os.path.join(work, "configs", name + ".json")
        with open(path, "wb") as fh:
            fh.write(workloads.config_bytes(cfg))
        out.append((name, path))
    return out


# ---------------------------------------------------------------------------
# end to end (--trace 0)


def measure_setup(work, configs, scale) -> dict:
    argv = [sys.executable, CHILD, "setup"] + [path for _, path in configs]
    log = os.path.join(work, "setup.log")
    samples = {"setup_s": [], "raw.setup_s": []}
    for k in range(SETUP_SAMPLES + 1):
        r = measure.run_child(argv, log)
        if r.exit_code != 0:
            raise RuntimeError("set-up child failed: %s" % r.output[-500:])
        f = scale.factor()
        if k:  # the first spawn fills the bytecode cache and is not timed
            samples["setup_s"].append(r.wall_s * f)
            samples["raw.setup_s"].append(r.wall_s)
    return samples


def one_repetition(work, configs, checker, scale) -> dict:
    rep = {"run_s": 0.0, "verify_s": 0.0, "run_cpu_s": 0.0, "verify_cpu_s": 0.0,
           "run_peak_rss_mb": 0.0, "verify_peak_rss_mb": 0.0, "trace_mb": 0.0,
           "raw.run_s": 0.0, "raw.verify_s": 0.0}
    log = os.path.join(work, "op.log")
    for name, path in configs:
        out_dir = os.path.join(work, "out", name)
        shutil.rmtree(out_dir, ignore_errors=True)
        r = measure.run_child([sys.executable, CHILD, "run", path, "--out-dir", out_dir], log)
        r_factor = scale.factor()
        checker.check_run(name, r.exit_code, r.output, out_dir)
        if os.path.isdir(out_dir):
            rep["trace_mb"] += _dir_bytes(out_dir) / MIB
        v = measure.run_child(
            [sys.executable, CHILD, "verify", os.path.join(out_dir, "trace.json")], log)
        v_factor = scale.factor()
        checker.check_verify(name, v.exit_code, v.output)
        for kind, res, f in (("run", r, r_factor), ("verify", v, v_factor)):
            rep[kind + "_s"] += res.wall_s * f
            rep[kind + "_cpu_s"] += res.cpu_s * f
            rep["raw." + kind + "_s"] += res.wall_s
            rep[kind + "_peak_rss_mb"] = max(rep[kind + "_peak_rss_mb"], res.peak_rss_mb)
    return rep


def end_to_end(work, configs, seconds, checker) -> dict:
    scale = measure.SpeedScale()
    samples = measure_setup(work, configs, scale)
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        reps.append(one_repetition(work, configs, checker, scale))
    for key in reps[0]:
        samples[key] = [rep[key] for rep in reps]
    samples["ok_frac"] = [(checker.attempted - checker.failed) / checker.attempted]
    return samples


# ---------------------------------------------------------------------------
# traced (--trace 1)


def _trace_counts(out_root, configs) -> dict:
    """Rules issued and trap events, read from the diagonal traces."""
    counts = {"rules": 0, "trap_events": 0}
    for name, _ in configs:
        with open(os.path.join(out_root, name, "trace.json")) as fh:
            doc = json.load(fh)
        for record in doc.get("records", ()):
            counts["rules"] += len(record["rules"])
            counts["trap_events"] += len(record["trap_events"])
    return counts


def _layers_pass(work, configs, traced, k, checker):
    out_root = os.path.join(work, "layers-%d" % k)
    result = os.path.join(work, "layers-%d.json" % k)
    argv = [sys.executable, LAYERS, "--trace", str(int(traced)), "--result", result,
            "--out-root", out_root] + ["%s=%s" % item for item in configs]
    r = measure.run_child(argv, os.path.join(work, "layers.log"))
    if r.exit_code != 0:  # every operation of the pass counts as failed
        for name, _ in configs:
            checker.check_run(name, r.exit_code, r.output, os.path.join(out_root, name))
            checker.check_verify(name, r.exit_code, r.output)
        return {"spans": [], "leaves": [], "counters": {}, "wall_s": r.wall_s,
                "trace_counts": {"rules": 0, "trap_events": 0}}
    with open(result) as fh:
        doc = json.load(fh)
    for op in doc["ops"]:
        out_dir = os.path.join(out_root, op["config"])
        if op["kind"] == "run":
            checker.check_run(op["config"], op["exit"], op["output"], out_dir)
        else:
            checker.check_verify(op["config"], op["exit"], op["output"])
    if doc["leftover"]:
        checker.problems.append("wrappers left after uninstall: %s" % doc["leftover"])
    doc["wall_s"] = sum(op["wall_s"] for op in doc["ops"])
    doc["trace_counts"] = _trace_counts(out_root, configs)
    return doc


def layer_metrics(doc) -> dict:
    selfs = layers.self_times(doc["spans"], doc["leaves"])
    calls = layers.span_counts(doc["spans"], doc["leaves"])
    out = {}
    for metric, unit, source, key in PER_LAYER:
        if source == "self":
            out[metric] = selfs.get(key, 0.0)
        elif source == "calls":
            out[metric] = calls.get(key, 0)
        elif source == "counter":
            out[metric] = doc["counters"].get(key, 0)
        else:
            out[metric] = doc["trace_counts"][key]
    return out


def traced(work, configs, seconds, checker):
    """Untraced and traced passes in adjacent pairs, so that the overhead
    (traced minus untraced wall time) compares passes run at one speed."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        k = 2 * len(passes)
        base = _layers_pass(work, configs, False, k, checker)
        doc = _layers_pass(work, configs, True, k + 1, checker)
        passes.append((doc["wall_s"] - base["wall_s"], layer_metrics(doc)))
    counts = [{m: v for m, v in metrics.items() if not m.endswith("_s")} for _, metrics in passes]
    if any(c != counts[0] for c in counts[1:]):
        checker.problems.append("deterministic counters differ between traced passes")
    samples = {metric: [metrics[metric] for _, metrics in passes] for metric, *_ in PER_LAYER}
    samples[OVERHEAD[0]] = [overhead for overhead, _ in passes]
    return samples


# ---------------------------------------------------------------------------


def _print_table(title, specs, samples, checker):
    print("%s  (operations: %d attempted, %d failed, fail_frac %.4f)"
          % (title, checker.attempted, checker.failed,
             checker.failed / max(checker.attempted, 1)))
    for name, unit, *_ in specs:
        s = measure.summary(samples[name])
        tail = ("p%d %.6g" % (s["tail_pct"], s["tail"])) if "tail" in s else "no tail (< 11 samples)"
        print("  %-42s %14.6g %-6s n=%-3d %s" % (name, s["median"], unit, s["n"], tail))
    for problem in checker.problems:
        print("  PROBLEM: %s" % problem)


def _value(values, unit):
    median = statistics.median(values)
    return int(median) if unit == "count" else median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gencomp", "cli.py")):
        print("perfbench: no gencomp source tree at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    measure.pin_to_one_cpu()
    checker = Checker()
    try:
        configs = write_configs(work, workloads.generate(args.workload, args.seed))
        if args.trace:
            samples = traced(work, configs, args.seconds, checker)
            specs = [spec[:2] for spec in PER_LAYER] + [OVERHEAD]
        else:
            samples = end_to_end(work, configs, args.seconds, checker)
            specs = list(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    title = "%s seed %d (%s)" % (args.workload, args.seed, "per layer" if args.trace else "end to end")
    _print_table(title, specs + ([] if args.trace else list(RAW)), samples, checker)
    result = {
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": _value(samples[name], unit), "unit": unit}
            for name, unit in specs
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
