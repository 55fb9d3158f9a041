"""Per-layer tracing from outside the program.

The layers are gencomp's modules.  `Tracer.install` wraps their public
functions and methods in place and `Tracer.uninstall` puts the originals
back; nothing in `src/` knows about it.  A wrapper records a span (name, op
id, parent span, start, end) and may add to named counters.  A function
object can be bound under several names (`harness` imports
`prefix_density` and `gap_census` by name, the package re-exports most
functions), so every binding in every gencomp module is replaced.

Two kinds of hot call get cheaper wrappers, so that tracing stays
affordable: `SeededReal.bit` (millions of calls) is timed but kept as one
aggregate per parent span, and `LevelContext.killed` and `related` are only
counted.  Their time therefore stays inside the calling span's self time.

Run as a script, this file is the child process of a traced (or untraced
reference) run: it executes `gencomp run` and `gencomp verify` in-process for
each config and writes the ops, spans and counters as JSON.

    python3 perfbench/layers.py --trace 0|1 --result FILE --out-root DIR CONFIG...
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from collections import defaultdict

_MISSING = object()

# (module, function, span name)
FUNCTIONS = (
    ("diagonal", "run_construction", "diagonal.engine"),
    ("diagonal", "find_survivor", "diagonal.dfs"),
    ("diagonal", "enumerate_level", "diagonal.dfs"),
    ("diagonal", "audit_marker_on_path", "diagonal.audit.marker_on_path"),
    ("diagonal", "audit_trap_soundness", "diagonal.audit.trap_soundness"),
    ("diagonal", "audit_spoiling", "diagonal.audit.spoiling"),
    ("diagonal", "audit_single_victim", "diagonal.audit.single_victim"),
    ("diagonal", "audit_gap_census_consistency", "diagonal.audit.gap_census_consistency"),
    ("diagonal", "audit_trace", "diagonal.audit.trace"),
    ("diagonal", "functional_value_set", "diagonal.value_set"),
    ("diagonal", "trap_status", "diagonal.trap_status"),
    ("diagonal", "trace_to_jsonable", "diagonal.serialize"),
    ("diagonal", "trace_from_jsonable", "diagonal.deserialize"),
    ("density", "prefix_density", "density.prefix_density"),
    ("density", "gap_census", "density.gap_census"),
    ("harness", "validate_config", "harness.validate"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "verify_trace_file", "harness.verify"),
    ("harness", "canonical_json", "harness.canonical_json"),
    ("enumops", "functional_to_operator", "enumops.compile"),
    ("enumops", "apply_operator", "enumops.apply"),
    ("enumops", "union_over_labeled_orderings", "enumops.oracle"),
    ("codings", "decode_valuation", "codings.decode"),
    ("codings", "decode_interval", "codings.decode"),
    ("relations", "embed_relation", "relations.embed"),
)

# (module, class, method, span name); the adversary classes are added from
# adversaries.CATALOG at install time
METHODS = (
    ("diagonal", "LevelContext", "__init__", "diagonal.level_ctx"),
    ("diagonal", "Trace", "enumerated_through", "diagonal.enumerated_through"),
    ("relations", "Embedding", "verify", "relations.embed_verify"),
)
ADVERSARY_SPAN = "adversaries.enum"

# timed, aggregated per parent span
LEAF_METHODS = (("reals", "SeededReal", "bit", "reals.bit"),)

# counted only
COUNTED_METHODS = (("diagonal", "LevelContext", "killed", "diagonal.dfs_nodes"),)
COUNTED_FUNCTIONS = (("relations", "related", "relations.related_calls"),)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _add(counters, name, amount):
    counters[name] = counters.get(name, 0) + amount


# counters derived from a traced call: hook(counters, args, kwargs, result)
HOOKS = {
    "density.prefix_density": lambda c, a, k, r: _add(c, "density.member_probes", _arg(a, k, 1, "n")),
    "harness.canonical_json": lambda c, a, k, r: _add(c, "harness.json_bytes", len(r.encode())),
    "enumops.compile": lambda c, a, k, r: _add(c, "enumops.axioms", len(r.axioms)),
    "diagonal.level_ctx": lambda c, a, k, r: _add(c, "diagonal.level_hits", len(a[0].hits)),
    "adversaries.enum": lambda c, a, k, r: _add(c, "adversaries.elements", len(r)),
}


def gencomp_modules() -> dict:
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "gencomp" or name.startswith("gencomp."))
    }


def _gencomp_classes(modules) -> list:
    out = []
    for mod in modules.values():
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("gencomp"):
                out.append(value)
    return out


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.spans = []      # [name, op, parent, start, end]; parent -1 is the root
        self.leaves = {}     # (name, parent) -> [calls, seconds]
        self.counters = {}
        self.op = 0
        self._stack = []
        self._patches = []   # (owner, attribute, original or _MISSING)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [name, tracer.op, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[3], record[4] = start, end
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        wrapper._perfbench_wrapper = True
        return wrapper

    def _leaf(self, name, fn):
        leaves, stack, clock = self.leaves, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (name, stack[-1] if stack else -1)
                acc = leaves.get(key)
                if acc is None:
                    leaves[key] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed

        wrapper._perfbench_wrapper = True
        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper._perfbench_wrapper = True
        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def _patch_function(self, modules, module, attribute, make):
        original = getattr(modules["gencomp." + module], attribute)
        wrapper = make(original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self):
        """Wrap every target binding in the imported gencomp modules."""
        modules = gencomp_modules()
        for module, attribute, name in FUNCTIONS:
            self._patch_function(modules, module, attribute,
                                 lambda fn, name=name: self._span(name, fn))
        for module, attribute, name in COUNTED_FUNCTIONS:
            self._patch_function(modules, module, attribute,
                                 lambda fn, name=name: self._counted(name, fn))
        methods = [(getattr(modules["gencomp." + m], c), a, n, self._span) for m, c, a, n in METHODS]
        methods += [(cls, "new_elements", ADVERSARY_SPAN, self._span)
                    for cls in modules["gencomp.adversaries"].CATALOG.values()]
        methods += [(getattr(modules["gencomp." + m], c), a, n, self._leaf) for m, c, a, n in LEAF_METHODS]
        methods += [(getattr(modules["gencomp." + m], c), a, n, self._counted)
                    for m, c, a, n in COUNTED_METHODS]
        for cls, attribute, name, make in methods:
            self._patch(cls, attribute, make(name, vars(cls)[attribute]))

    def uninstall(self) -> list:
        """Restore every original binding; returns the bindings that still
        hold a wrapper afterwards (empty when the program is untouched)."""
        for owner, attribute, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches = []
        modules = gencomp_modules()
        owners = list(modules.items()) + [(c.__qualname__, c) for c in _gencomp_classes(modules)]
        return [
            "%s.%s" % (label, key)
            for label, owner in owners
            for key, value in vars(owner).items()
            if getattr(value, "_perfbench_wrapper", False)
        ]


# ---------------------------------------------------------------------------
# span arithmetic (pure; run in the parent on the child's JSON)


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, leaves) -> dict:
    """Seconds per span name, each span counting its duration minus the
    union of its child spans and minus its aggregated leaf calls.

    spans: [name, op, parent, start, end] with parent an index or -1.
    leaves: [name, parent, calls, seconds]; their seconds count under
    their own name.
    """
    children = defaultdict(list)
    for name, op, parent, start, end in spans:
        children[parent].append((start, end))
    leaf_time = defaultdict(float)
    out = defaultdict(float)
    for name, parent, calls, seconds in leaves:
        leaf_time[parent] += seconds
        out[name] += seconds
    for sid, (name, op, parent, start, end) in enumerate(spans):
        out[name] += (end - start) - union_length(children[sid]) - leaf_time[sid]
    return dict(out)


def span_counts(spans, leaves) -> dict:
    out = defaultdict(int)
    for record in spans:
        out[record[0]] += 1
    for name, parent, calls, seconds in leaves:
        out[name] += calls
    return dict(out)


# ---------------------------------------------------------------------------
# child process


def _run_ops(configs, out_root, tracer):
    from gencomp import cli

    ops = []
    for name, path in configs:
        out_dir = os.path.join(out_root, name)
        for kind, argv in (
            ("run", ["run", path, "--out-dir", out_dir]),
            ("verify", ["verify", os.path.join(out_dir, "trace.json")]),
        ):
            if tracer is not None:
                tracer.op = len(ops)
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            ops.append({"config": name, "kind": kind, "exit": code,
                        "wall_s": time.perf_counter() - start, "output": buf.getvalue()})
    return ops


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="layers.py")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out-root", required=True)
    parser.add_argument("configs", nargs="+", help="NAME=PATH")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import gencomp  # noqa: F401
    import gencomp.cli  # noqa: F401

    configs = [tuple(item.split("=", 1)) for item in args.configs]
    tracer = Tracer() if args.trace else None
    leftover = []
    if tracer is not None:
        tracer.install()
    try:
        ops = _run_ops(configs, args.out_root, tracer)
    finally:
        if tracer is not None:
            leftover = tracer.uninstall()
    doc = {"ops": ops, "leftover": leftover}
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["leaves"] = [[n, p, c, s] for (n, p), (c, s) in sorted(tracer.leaves.items())]
        doc["counters"] = tracer.counters
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(child_main())
