"""Stage-based diagonalization engine.

A run builds one Turing-style functional (single mode) or a pair of them
(pair mode) as tables of gap rules.  A gap rule (e, s, node, side) removes
the last 2^(s-e) elements of block s from the functional's value on every
oracle extending `node`.  Strategy e acts at stages s > e: it computes the
surviving level of its tree (oracles kept consistent with the opponent
enumeration staying inside the functional's value), places a marker at the
shortest prefix of the selected infinite path whose string on every side is
unmarked there, and issues the corresponding gap rule(s).  The opponent
must then either enumerate into the gap, pruning every extension of the
marked node from the tree, or absorb a density dip at that block.

Level sets are exponential and are therefore never materialized: survival
of a node is decided from the rule table plus the enumeration snapshot,
and paths are found by ordered depth-first search with pruning.  Every
enumeration (a stage's batch, a strategy's snapshot, a trap event) is a
run set of half-open intervals (see `runs`), so no step costs time or
memory in the number of enumerated elements.  A whole run is recorded as a
Trace that replays bit-for-bit from its config; the trace is also the
engine's only state, stage s being computed from its records through s-1.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import product
from operator import add
from typing import Optional

from .density import gap_census, gap_interval
from .errors import (
    BudgetError,
    InvariantViolationError,
    SelectorCapError,
    UndefinedInputError,
    UndefinedRegionError,
)
from .records import Frozen
from .runs import clip, difference, hits, normalize, union

SINGLE = "single"
PAIR = "pair"

SIDE_X = "x"
SIDE_Y = "y"

# the functionals a mode builds; a tree node is a tuple of one bit string
# per side, in this order
SIDES = {SINGLE: (SIDE_X,), PAIR: (SIDE_X, SIDE_Y)}

_DEFAULT_NODE_BUDGET = 1 << 18


class GapRule(Frozen):
    """Remove the last 2^(stage-e) elements of block `stage` from the
    side's functional, for every oracle extending `node`.  `gap` is that
    removed interval [lo, hi).  Rules are equal when their fields are."""

    __slots__ = ("e", "stage", "node", "side", "gap")

    def __init__(self, e: int, stage: int, node: str, side: str = SIDE_X):
        if not 0 <= e <= stage:
            raise UndefinedInputError("gap exponent must satisfy 0 <= e <= stage")
        if len(node) > stage:
            raise SelectorCapError(
                "rule at stage %d uses a node of length %d" % (stage, len(node))
            )
        if node.strip("01"):
            raise ValueError("node must be a bit string")
        if side not in (SIDE_X, SIDE_Y):
            raise ValueError("side must be 'x' or 'y'")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "gap", gap_interval(stage, e))

    def __eq__(self, other):
        if type(other) is not GapRule:
            return NotImplemented
        return (self.e, self.stage, self.node, self.side) == (other.e, other.stage, other.node, other.side)


class GapRuleTable:
    """All gap rules issued so far for one side, plus the defined horizon.

    After the run has processed stage s the functional is defined on
    [1, 2^(s+1)): membership of n below that horizon is decided by the
    rules at n's block.
    """

    def __init__(self, side: str = SIDE_X):
        self.side = side
        self.rules: list = []
        self._by_block: dict = {}
        self._keys: set = set()
        self.defined_through = -1

    def add_rule(self, rule: GapRule):
        if rule.side != self.side:
            raise ValueError("rule side does not match the table")
        key = (rule.e, rule.stage)
        if key in self._keys:
            raise InvariantViolationError(
                "second rule for strategy %d at stage %d" % key
            )
        self._keys.add(key)
        self.rules.append(rule)
        self._by_block.setdefault(rule.stage, []).append(rule)

    def extend_defined(self, stage: int):
        self.defined_through = max(self.defined_through, stage)

    def rules_at_block(self, s: int) -> list:
        return self._by_block.get(s, [])

    def evaluate(self, prefix, n: int):
        """Tri-valued membership of n under oracles extending `prefix`:
        1 (in), 0 (definitely gapped), None (depends on longer oracle)."""
        if n < 1:
            raise UndefinedInputError("the functional's value starts at n=1")
        block = n.bit_length() - 1
        if block > self.defined_through:
            raise UndefinedRegionError(
                "n=%d lies beyond the defined horizon 2^%d" % (n, self.defined_through + 1)
            )
        unknown = False
        for r in self._by_block.get(block, ()):
            if n >= r.gap[0]:
                if prefix.startswith(r.node):
                    return 0
                if r.node.startswith(prefix):
                    unknown = True
        return None if unknown else 1

    def excluded_interval(self, block: int, prefix) -> Optional[tuple]:
        """Merged definite exclusion [lo, hi) at `block` under `prefix`,
        or None; raises if an undecided rule intersects the block."""
        gaps = []
        for r in self._by_block.get(block, ()):
            if prefix.startswith(r.node):
                gaps.append(r.gap)
            elif r.node.startswith(prefix):
                raise UndefinedRegionError(
                    "rule node %r undecided under prefix of length %d" % (r.node, len(prefix))
                )
        # the block's gaps all end at its end: the widest starts first
        return min(gaps) if gaps else None


class LevelContext:
    """Survival tests for one strategy tree at one level.

    A node is a tuple of one bit string per side, all of one length.  A
    node of length l survives unless some element enumerated by step l
    (below 2^l) is definitely outside the functional's value under every
    oracle extending the node (pair mode: outside both sides' union).
    Undecided evaluations never prune.  `enum` is the strategy's
    enumeration as a run set; `tables` holds one GapRuleTable per side.
    """

    def __init__(self, l: int, enum, tables):
        self.l = l
        self.root = ("",) * len(tables)
        self.has_zero = bool(enum) and enum[0][0] == 0
        found = []
        for s in range(l):
            # every gap of block s lies inside [2^s, 2^(s+1)): a block
            # without enumerated elements has no hits
            if not hits(enum, 1 << s, 2 << s):
                continue
            for rules in product(*(t.rules_at_block(s) for t in tables)):
                if hits(enum, max(r.gap[0] for r in rules), 2 << s):
                    found.append(tuple(r.node for r in rules))
        self.hits = tuple(found)

    def killed(self, node) -> bool:
        if self.has_zero:
            return True  # 0 is never in the functional's value
        for hit in self.hits:
            if all(map(str.startswith, node, hit)):
                return True
        return False

    def steps(self, order) -> list:
        """The new bits of a node's children, one per side, in DFS order:
        lexicographic in `order` with the x bit most significant."""
        return list(product(order, repeat=len(self.root)))


def _level_dfs(ctx: LevelContext, order, node, budget: int):
    """The surviving level-l nodes extending `node`, lazily, in DFS
    `order`; each visited node costs one unit of `budget`."""
    steps = ctx.steps(order)

    def visit(nd):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise BudgetError("level search exceeded the node budget")
        if ctx.killed(nd):
            return
        if len(nd[0]) == ctx.l:
            yield nd
            return
        for step in steps:
            yield from visit(tuple(map(add, nd, step)))

    return visit(node)


def find_survivor(ctx: LevelContext, order="01", start=None,
                  budget: int = _DEFAULT_NODE_BUDGET):
    """First surviving level-l node in DFS `order` extending `start`."""
    node = ctx.root if start is None else start
    if len(node[0]) > ctx.l:
        raise UndefinedInputError("start node is deeper than the level")
    return next(_level_dfs(ctx, order, node, budget), None)


def enumerate_level(ctx: LevelContext, budget: int = _DEFAULT_NODE_BUDGET) -> list:
    """Materialize the whole surviving level (tests and small audits)."""
    return list(_level_dfs(ctx, "01", ctx.root, budget))


def select_marker_node(path, marked, cap: Optional[int] = None):
    """Shortest prefix of the path (root included) whose string on every
    side is unmarked there: `marked` holds one set of strings per side."""
    limit = len(path[0]) if cap is None else min(cap, len(path[0]))
    taken = {len(bits) for side, strings in zip(path, marked) for bits in strings
             if side.startswith(bits)}
    for k in range(limit + 1):
        if k not in taken:
            return tuple(side[:k] for side in path)
    raise SelectorCapError("every path prefix through the cap is marked")


class ExtremalSelector:
    """The leftmost (bit "0") or rightmost (bit "1") surviving path: the
    first survivor of a DFS whose children come in lexicographic order of
    their new bits, with `bit` first, padded with `bit` to the stage."""

    def __init__(self, bit: str):
        self.kind = "leftmost" if bit == "0" else "rightmost"
        self.bit = bit
        self.order = "01" if bit == "0" else "10"

    def path(self, stage, ctx, find):
        stem = find(self.order)
        if stem is None:
            return None
        return tuple(side + self.bit * (stage - ctx.l) for side in stem)


LeftmostSelector = partial(ExtremalSelector, "0")
RightmostSelector = partial(ExtremalSelector, "1")


class ScriptedSelector:
    """Approximation-style selector: finitely many scripted mind changes,
    each entry giving the path guess (a node) from some stage on.  Falls
    back to leftmost before the first entry applies.  Each side of the
    guess is padded with 0s (truncated) to the stage cap; its level
    truncation must survive."""

    kind = "scripted"
    order = "01"  # the leftmost fallback's

    def __init__(self, entries):
        self.entries = tuple(sorted(entries, key=lambda it: it[0]))
        self._fallback = LeftmostSelector()

    def path(self, stage, ctx, find):
        guess = None
        for from_stage, node in self.entries:
            if from_stage <= stage:
                guess = node
        if guess is None:
            return self._fallback.path(stage, ctx, find)
        return tuple((side + "0" * stage)[:stage] for side in guess)


class MarkerRecord:
    """Strategy e's marker placed at `stage`; equal when the fields are."""

    __slots__ = ("e", "stage", "node")

    def __init__(self, e: int, stage: int, node):
        self.e = e
        self.stage = stage
        self.node = node

    def __eq__(self, other):
        if type(other) is not MarkerRecord:
            return NotImplemented
        return (self.e, self.stage, self.node) == (other.e, other.stage, other.node)


class StrategySpec(Frozen):
    __slots__ = ("source", "selector")

    def __init__(self, source, selector):
        object.__setattr__(self, "source", source)  # new_elements(e, stage, trace) protocol
        object.__setattr__(self, "selector", selector)


class RunConfig(Frozen):
    __slots__ = ("mode", "stages", "strategies", "node_budget")

    def __init__(self, mode: str, stages: int, strategies: tuple,
                 node_budget: int = _DEFAULT_NODE_BUDGET):
        if mode not in SIDES:
            raise UndefinedInputError("mode must be single or pair")
        if not 1 <= stages <= 64:
            raise BudgetError("stage count out of the supported range 1..64")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "node_budget", node_budget)


class StageRecord:
    """What one stage did; equal when the fields are."""

    __slots__ = ("stage", "batches", "rules", "info", "trap_events")

    def __init__(self, stage: int, batches: dict, rules: tuple, info: dict, trap_events: tuple):
        self.stage = stage
        self.batches = batches          # e -> run set of new elements
        self.rules = rules              # GapRules issued this stage
        self.info = info                # e -> dict(alive, acted, died, approx, marker)
        self.trap_events = trap_events  # (e, gap_stage, lo, hi): new run [lo, hi) inside the gap

    def __eq__(self, other):
        if type(other) is not StageRecord:
            return NotImplemented
        return ((self.stage, self.batches, self.rules, self.info, self.trap_events)
                == (other.stage, other.batches, other.rules, other.info, other.trap_events))


class Trace:
    """Replayable record of one construction run, and the engine's only
    state.  The stage records are all it stores; `append` keeps the views
    read off them: one GapRuleTable per side, and per strategy e the
    enumerated run set, the markers, the last approximation (None before
    the first act) and the death stage (None while alive).  Records given
    to the constructor are fed through `append` too, so the engine, the
    loader and any caller rebuilding a trace from edited records build it
    the same way."""

    __slots__ = ("mode", "stages", "records", "config_echo", "enumerated", "markers",
                 "final_approx", "death_stage", "_tables", "_censuses")

    def __init__(self, mode: str, stages: int, records=(), config_echo: Optional[dict] = None):
        self.mode = mode
        self.stages = stages
        self.records = []
        self.config_echo = config_echo
        self.enumerated = {}
        self.markers = {}
        self.final_approx = {}
        self.death_stage = {}
        self._tables = {side: GapRuleTable(side) for side in self.sides}
        self._censuses = {}
        for rec in records:
            self.append(rec)

    def append(self, rec: StageRecord):
        """Add the next stage's record and bring the views up to it."""
        if rec.stage != len(self.records):
            raise InvariantViolationError(
                "record of stage %r follows %d records" % (rec.stage, len(self.records))
            )
        for r in rec.rules:
            if r.side not in self._tables:
                raise InvariantViolationError("%s-side rule in a %s-mode trace" % (r.side, self.mode))
            if r.stage != rec.stage:
                raise InvariantViolationError(
                    "stage-%d rule in the record of stage %d" % (r.stage, rec.stage)
                )
            self._tables[r.side].add_rule(r)
        for t in self._tables.values():
            t.extend_defined(rec.stage)
        for e, info in rec.info.items():
            batch, known = rec.batches.get(e), self.enumerated.get(e, ())
            self.enumerated[e] = union(known, batch) if batch else known
            marker = (MarkerRecord(e, rec.stage, info["marker"]),) if info["marker"] else ()
            self.markers[e] = self.markers.get(e, ()) + marker
            self.final_approx[e] = info["approx"] or self.final_approx.get(e)
            if self.death_stage.get(e) is None:
                self.death_stage[e] = rec.stage if info["died"] else None
        self.records.append(rec)
        self._censuses.clear()

    @property
    def sides(self) -> tuple:
        return SIDES[self.mode]

    @property
    def defined_through(self) -> int:
        return len(self.records) - 1

    @property
    def strategy_count(self) -> int:
        return len(self.records[0].info) if self.records else 0

    def table(self, side=SIDE_X) -> GapRuleTable:
        """The side's rules through the last record: shared, callers do
        not add to it."""
        return self._tables[side]

    def tables(self) -> tuple:
        """One GapRuleTable per side, in side order."""
        return tuple(self._tables[side] for side in self.sides)

    def enumerated_through(self, e, stage) -> tuple:
        """Run set enumerated by strategy e's opponent through `stage`."""
        out = []
        for rec in self.records:
            if rec.stage > stage:
                break
            out.extend(rec.batches.get(e, ()))
        return normalize(out)

    def census(self, prefix, side=SIDE_X):
        """Gap census of the side's value set under the oracle prefix (one
        side's bit string), computed once per prefix."""
        key = (prefix, side)
        if key not in self._censuses:
            values = functional_value_set(self, prefix, side)
            self._censuses[key] = gap_census(values, self.defined_through + 1)
        return self._censuses[key]

    def tree_level(self, e, l, budget: int = _DEFAULT_NODE_BUDGET) -> list:
        """The surviving level-l nodes of strategy e's tree."""
        if l > self.defined_through:
            raise UndefinedRegionError("level %d beyond the defined horizon" % l)
        context = LevelContext(l, self.enumerated_through(e, l), self.tables())
        return enumerate_level(context, budget)

    def approx_chains(self, e) -> list:
        """The selected path's extension chains, as [first stage, last
        approximation]: a new chain starts at every mind change."""
        chains = []
        for rec in self.records:
            node = rec.info[e]["approx"]
            if not node:
                continue
            if chains and _extends(node, chains[-1][1]):
                chains[-1][1] = node
            else:
                chains.append([rec.stage, node])
        return chains

    def rules_for(self, e, side=SIDE_X) -> list:
        return [r for r in self.table(side).rules if r.e == e]


def _extends(node, prev) -> bool:
    return all(map(str.startswith, node, prev))


def _stage(trace: Trace, cfg: RunConfig, s: int) -> StageRecord:
    """Stage s, computed from the trace through stage s-1 and the
    strategies alone.  Each opponent reads that trace as its view."""
    batches = {}
    trap_events = []
    for e, spec in enumerate(cfg.strategies):
        new = normalize(spec.source.new_elements(e, s, trace))
        new = difference(new, trace.enumerated.get(e, ()))
        batches[e] = new
        if not new:
            continue
        for rule in trace.rules_for(e):  # traps are x-side gaps
            trap_events.extend((e, rule.stage, lo, hi) for lo, hi in clip(new, *rule.gap))
    info = {e: _act(trace, cfg, e, s) for e in range(len(cfg.strategies))}
    rules = tuple(
        GapRule(e, s, node, side)
        for e, d in info.items() if d["marker"]
        for node, side in zip(d["marker"], trace.sides)
    )
    return StageRecord(stage=s, batches=batches, rules=rules, info=info,
                       trap_events=tuple(trap_events))


def _act(trace: Trace, cfg: RunConfig, e: int, s: int) -> dict:
    """Strategy e's record at stage s; markers are kept per side."""
    alive = trace.death_stage.get(e) is None
    out = {"alive": alive, "acted": False, "died": False, "approx": None, "marker": None}
    if not alive or e >= s:
        return out
    l = s - 1
    ctx = LevelContext(l, trace.enumerated.get(e, ()), trace.tables())
    selector = cfg.strategies[e].selector

    @cache  # the liveness test's search is the extremal selector's
    def find(order):
        return find_survivor(ctx, order, budget=cfg.node_budget)

    # any order finds a survivor iff one exists, so search in the order
    # the selector will ask for (scripted selectors fall back to leftmost)
    if find(selector.order) is None:
        return dict(out, alive=False, died=True)
    path = selector.path(s, ctx, find)
    if path is None:
        raise InvariantViolationError("selector returned no path on a live tree")
    if ctx.killed(tuple(side[:l] for side in path)):
        raise InvariantViolationError(
            "selector path truncation is outside the surviving level"
        )
    markers = trace.markers.get(e, ())
    marked = [{m.node[i] for m in markers} for i in range(len(path))]
    return dict(out, acted=True, approx=path, marker=select_marker_node(path, marked, cap=s))


def run_construction(cfg: RunConfig) -> Trace:
    trace = Trace(cfg.mode, cfg.stages)
    for s in range(cfg.stages):
        trace.append(_stage(trace, cfg, s))
    return trace


def run_single(stages: int, strategies, node_budget: int = _DEFAULT_NODE_BUDGET) -> Trace:
    return run_construction(RunConfig(SINGLE, stages, tuple(strategies), node_budget))


def run_pair(stages: int, strategies, node_budget: int = _DEFAULT_NODE_BUDGET) -> Trace:
    return run_construction(RunConfig(PAIR, stages, tuple(strategies), node_budget))


def trap_status(trace: Trace, e: int, s: int) -> str:
    """pending / sprung / inactive for strategy e's stage-s trap."""
    rule = next((r for r in trace.table(SIDE_X).rules_at_block(s) if r.e == e), None)
    if rule is None:
        return "inactive"
    return "sprung" if hits(trace.enumerated[e], *rule.gap) else "pending"


def functional_value_set(trace: Trace, prefix, side=SIDE_X) -> tuple:
    """Run set of {n in [1, 2^(defined+1)) : definitely in the side's
    functional under oracles extending prefix}: the horizon minus the gap
    of every rule whose node is comparable with the prefix (a rule the
    prefix does not decide leaves its gap undecided, hence out of the set)."""
    gaps = normalize(
        r.gap for r in trace.table(side).rules
        if prefix.startswith(r.node) or r.node.startswith(prefix)
    )
    return difference(((1, 1 << (trace.defined_through + 1)),), gaps)


# ---------------------------------------------------------------------------
# trace serialization (versioned; byte-exact replay is part of the contract)

TRACE_FORMAT = "gencomp-trace/4"


def trace_to_jsonable(trace: Trace) -> dict:
    """The trace as a document.  A record lists what its stage did: the
    rules, the trap events, the non-empty batches, one act [e, p, suffix
    per side] per strategy that acted and the strategies that died.  An
    act's approximation is the first p bits of the strategy's previous one
    on every side, followed by the suffixes; its marker is the nodes of its
    rules."""
    last = {}
    records = []
    for rec in trace.records:
        acts = []
        for e, info in sorted(rec.info.items()):
            approx = info["approx"]
            if approx is None:
                continue
            old = last.get(e, ("",) * len(approx))
            p = min(len(a) if b.startswith(a) else _lcp_len(a, b) for a, b in zip(old, approx))
            acts.append([e, p, *(side[p:] for side in approx)])
            last[e] = approx
        records.append({
            "stage": rec.stage,
            "rules": [[r.e, r.stage, r.node, r.side] for r in rec.rules],
            "trap_events": [list(t) for t in rec.trap_events],
            "batches": [[e, [list(run) for run in runs]] for e, runs in sorted(rec.batches.items()) if runs],
            "acts": acts,
            "deaths": [e for e, info in sorted(rec.info.items()) if info["died"]],
        })
    return {
        "format": TRACE_FORMAT,
        "mode": trace.mode,
        "stages": trace.stages,
        "strategy_count": trace.strategy_count,
        "defined_through": trace.defined_through,
        "config": trace.config_echo,
        "records": records,
    }


def trace_from_jsonable(doc: dict) -> Trace:
    """The trace a document records.  The mode, the stage count, the
    strategy count, the echoed config and the records are read; the defined
    horizon is a view of the records, checked by replay.  A record the
    engine could not have written is rejected: one whose acts, deaths and
    rules disagree, or that rebuilds an approximation of the wrong length,
    here; any other through `Trace.append`."""
    if doc.get("format") != TRACE_FORMAT:
        raise UndefinedInputError("unsupported trace format %r" % doc.get("format"))
    count, config = doc["strategy_count"], doc.get("config")
    if not isinstance(count, int) or count < 0:
        raise InvariantViolationError("strategy count %r is not a natural number" % (count,))
    if config is not None and len(config["strategies"]) != count:
        raise InvariantViolationError(
            "strategy count %d, but the config lists %d strategies" % (count, len(config["strategies"]))
        )
    trace = Trace(doc["mode"], doc["stages"], (), config)
    sides = trace.sides
    dead = set()
    for rd in doc["records"]:
        s = rd["stage"]
        rules = tuple(GapRule(e, st, node, side) for e, st, node, side in rd["rules"])
        markers = {}
        for r in rules:
            markers.setdefault(r.e, {})[r.side] = r.node
        batches = dict.fromkeys(range(count), ())
        for e, runs in rd["batches"]:
            if e not in batches:
                raise InvariantViolationError("batch of strategy %r in a %d-strategy trace" % (e, count))
            batches[e] = tuple((lo, hi) for lo, hi in runs)
        info = {e: {"alive": e not in dead, "acted": False, "died": False, "approx": None, "marker": None}
                for e in range(count)}
        for e, p, *suffixes in rd["acts"]:
            d = _turn(info, e, s, "acts")
            old = trace.final_approx.get(e) or ("",) * len(sides)
            if len(suffixes) != len(sides):
                raise InvariantViolationError(
                    "act of strategy %d at stage %d has %d suffixes for %d sides"
                    % (e, s, len(suffixes), len(sides))
                )
            if not isinstance(p, int) or not 0 <= p <= len(old[0]):
                raise InvariantViolationError(
                    "act of strategy %d at stage %d keeps %r bits of a %d-bit approximation"
                    % (e, s, p, len(old[0]))
                )
            approx = tuple([a[:p] + b for a, b in zip(old, suffixes)])
            if set(map(len, approx)) != {s} or "".join(suffixes).strip("01"):
                raise InvariantViolationError(
                    "act of strategy %d at stage %d rebuilds %r, not %d bits per side" % (e, s, approx, s)
                )
            nodes = markers.pop(e, {})
            marker = tuple(map(nodes.get, sides))
            if None in marker:
                raise InvariantViolationError(
                    "act of strategy %d at stage %d has no %s-side rule" % (e, s, sides[marker.index(None)])
                )
            d["acted"], d["approx"], d["marker"] = True, approx, marker
        for e in rd["deaths"]:
            d = _turn(info, e, s, "dies")
            d["alive"], d["died"] = False, True
        if markers:
            raise InvariantViolationError(
                "rule of strategy %r at stage %d, which did not act" % (min(markers), s)
            )
        # every strategy started and alive before stage s acts or dies at s
        started = min(s, count)
        if len(rd["acts"]) + len(rd["deaths"]) != started - len(dead):
            e = next(e for e in range(started) if info[e]["alive"] and not info[e]["acted"])
            raise InvariantViolationError("live strategy %d neither acts nor dies at stage %d" % (e, s))
        dead.update(rd["deaths"])
        trace.append(StageRecord(stage=s, batches=batches, rules=rules, info=info,
                                 trap_events=tuple(tuple(t) for t in rd["trap_events"])))
    return trace


def _turn(info: dict, e, s, verb: str) -> dict:
    """Strategy e's record at stage s, if e may act or die at s: it has
    started (e < s), is alive and has not acted or died at s yet."""
    if e not in info:
        raise InvariantViolationError("strategy %r %s in a %d-strategy trace" % (e, verb, len(info)))
    if e >= s:
        raise InvariantViolationError("strategy %d %s at stage %d, before it starts" % (e, verb, s))
    d = info[e]
    if not d["alive"] or d["acted"]:
        raise InvariantViolationError(
            "strategy %d %s at stage %d, after it %s" % (e, verb, s, "acted" if d["acted"] else "died")
        )
    return d


# ---------------------------------------------------------------------------
# trace audits (used by the harness `verify` command and by the test suite)


def audit_marker_on_path(trace: Trace) -> list:
    """Every marker placed at stage s must prefix that stage's approx."""
    bad = []
    for rec in trace.records:
        for e, info in rec.info.items():
            if info["marker"] is not None and not _extends(info["approx"], info["marker"]):
                bad.append("marker %r off path at stage %d (strategy %d)" % (info["marker"], rec.stage, e))
    return bad


def audit_trap_soundness(trace: Trace) -> list:
    """Every sprung trap carries its own witness: the event's run [lo, hi)
    is in its record's batch, after the trapped rules' stage and inside
    their gap, so every side evaluates `lo` to 0 under the trapped node.
    By prefix determinism `lo` then spoils every extension of that node at
    every later level, so no later level is searched."""
    bad = []
    tables = trace.tables()
    for rec in trace.records:
        for e, gap_stage, lo, hi in rec.trap_events:
            rules = [next((r for r in t.rules_at_block(gap_stage) if r.e == e), None) for t in tables]
            if None in rules:
                reason = "references a rule the trace does not contain"
            elif clip(rec.batches.get(e, ()), lo, hi) != ((lo, hi),):
                reason = "is not in strategy %d's batch of stage %d" % (e, rec.stage)
            elif gap_stage >= rec.stage:
                reason = "at stage %d does not follow its rule" % rec.stage
            elif not all(r.gap[0] <= lo < hi <= r.gap[1] and t.evaluate(r.node, lo) == 0
                         for r, t in zip(rules, tables)):
                reason = "lies outside its gap"
            else:
                continue
            bad.append("trap event (%d, %d, [%d, %d)) %s" % (e, gap_stage, lo, hi, reason))
    return bad


def audit_spoiling(trace: Trace) -> list:
    """A dead strategy's final level is empty because every node has a
    witness: 0, or an enumerated element that every side evaluates to 0
    under the node.  Gaps are suffixes of blocks, so each block's top
    enumerated element is its only candidate, and a witness at a node
    serves all its extensions: the walk from the root stops descending
    there.  Each strategy's walk charges every visited node against the
    default node budget."""
    bad = []
    tables = trace.tables()
    for e, died_at in trace.death_stage.items():
        if died_at is None:
            continue
        l = died_at - 1
        enum = trace.enumerated_through(e, l)
        if enum and enum[0][0] == 0:
            continue
        tops = [runs[-1][1] - 1 for b in range(l) if (runs := clip(enum, 1 << b, 2 << b))]
        budget = _DEFAULT_NODE_BUDGET
        stack = [("",) * len(tables)]
        while stack:
            node = stack.pop()
            budget -= 1
            if budget < 0:
                raise BudgetError("spoiling walk exceeded the node budget")
            if any(all(t.evaluate(side, n) == 0 for t, side in zip(tables, node)) for n in tops):
                continue
            if len(node[0]) == l:
                bad.append("no spoiling witness for %r (strategy %d)" % (node, e))
                break
            # pushed in reverse, so children pop in lexicographic order
            stack.extend(tuple(map(add, node, step)) for step in product("10", repeat=len(node)))
    return bad


def audit_single_victim(trace: Trace, e: int, prefixes) -> list:
    """Markers after the last mind change prefix the final approximation,
    and along any probe prefix the gap count obeys
    changes + max-stage lcp.

    Only x-side gaps are counted (pair mode: the probe's x string), so the
    lcp is taken on the x side too: an x-rule's node is the x string of a
    marker on the stage's approximation, and the y side never changes the
    x functional's gaps.  Within an extension chain every approximation
    prefixes the chain's last one, whose lcp with a probe is therefore the
    chain's largest."""
    bad = []
    chains = trace.approx_chains(e)
    if not chains:
        return bad
    last_change_stage, final = chains[-1]
    for m in trace.markers[e]:
        if m.stage >= last_change_stage and not _extends(final, m.node):
            bad.append("late marker %r not on the final path (strategy %d)" % (m.node, e))
    x_rules = trace.rules_for(e, SIDE_X)
    for probe in prefixes:
        x_probe = probe[0]
        gaps = sum(1 for r in x_rules if x_probe.startswith(r.node))
        max_lcp = max(_lcp_len(x_probe, node[0]) for _, node in chains)
        if gaps > len(chains) + max_lcp:
            bad.append(
                "gap count %d exceeds changes %d + lcp %d along %r (strategy %d)"
                % (gaps, len(chains), max_lcp, probe, e)
            )
    return bad


def _lcp_len(a: str, b: str) -> int:
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n


def audit_gap_census_consistency(trace: Trace, prefix, side=SIDE_X) -> list:
    """The value set's censused gaps under `prefix` (one side's bit
    string) are exactly the rules whose nodes prefix it."""
    bad = []
    table = trace.table(side)
    for i, recorded in trace.census(prefix, side).records:
        applicable = [r.e for r in table.rules_at_block(i) if prefix.startswith(r.node)]
        expected = min(applicable) if applicable else None
        if recorded != expected:
            bad.append(
                "block %d census %r != rules %r under %r" % (i, recorded, expected, prefix)
            )
    return bad


def default_probe_prefixes(trace: Trace, e: int) -> list:
    """Deterministic probe set for the single-victim audit: the final
    approximation and each one-bit deviation of its x side, padded with
    0s and (with one side only) with 1s."""
    final = trace.final_approx.get(e)
    if final is None:
        return []
    x, rest = final[0], final[1:]
    probes = [final]
    for k in range(len(x)):
        flipped = x[:k] + ("1" if x[k] == "0" else "0")
        for pad in "0" if rest else "01":
            probes.append(((flipped + pad * len(x))[: len(x)],) + rest)
    return probes


def census_prefixes(trace: Trace) -> list:
    """(label, side, prefix) of the oracles whose value censuses are
    audited and reported: all zeros and all ones on every side."""
    return [(label, side, bit * trace.defined_through)
            for side in trace.sides for label, bit in (("all-zeros", "0"), ("all-ones", "1"))]


def audit_verdicts(trace: Trace) -> list:
    """The audit registry: every standard audit of a trace as (invariant
    name, inputs, violations), in report order."""
    whole = {"stages": trace.stages, "strategies": trace.strategy_count}
    out = [
        ("marker-on-path", whole, audit_marker_on_path(trace)),
        ("trap-soundness", whole, audit_trap_soundness(trace)),
        ("spoiling-completeness", whole, audit_spoiling(trace)),
    ]
    for e in range(trace.strategy_count):
        probes = default_probe_prefixes(trace, e)
        out.append(("single-victim", {"strategy": e, "probes": len(probes)},
                    audit_single_victim(trace, e, probes)))
    for _, side, prefix in census_prefixes(trace):
        out.append(("gap-census-consistency", {"prefix": prefix, "side": side},
                    audit_gap_census_consistency(trace, prefix, side)))
    return out


def audit_trace(trace: Trace) -> list:
    """All standard audits; returns the list of violations (empty = pass)."""
    return [msg for _, _, bad in audit_verdicts(trace) for msg in bad]
