"""Stage-based diagonalization engine.

A run builds one Turing-style functional (single mode) or a pair of them
(pair mode) as tables of gap rules.  A gap rule (e, s, node, side) removes
the last 2^(s-e) elements of block s from the functional's value on every
oracle extending `node`.  Strategy e acts at stages s > e: it computes the
surviving level of its tree (oracles kept consistent with the opponent
enumeration staying inside the functional's value), places a marker at the
shortest unmarked prefix of the selected infinite path, and issues the
corresponding gap rule(s).  The opponent must then either enumerate into
the gap, pruning every extension of the marked node from the tree, or
absorb a density dip at that block.

Level sets are exponential and are therefore never materialized: survival
of a node is decided from the rule table plus the enumeration snapshot,
and paths are found by ordered depth-first search with pruning.  Every
enumeration (a stage's batch, a strategy's snapshot, a trap event) is a
run set of half-open intervals (see `runs`), so no step costs time or
memory in the number of enumerated elements.  A whole run is recorded as a
Trace that replays bit-for-bit from its config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    BudgetError,
    InvariantViolationError,
    SelectorCapError,
    UndefinedInputError,
    UndefinedRegionError,
)
from .reals import as_bits
from .runs import clip, difference, elements, hits, normalize, union

SINGLE = "single"
PAIR = "pair"

SIDE_X = "x"
SIDE_Y = "y"

_DEFAULT_NODE_BUDGET = 1 << 18

# child orders: pair children ordered lexicographically with the x-bit more
# significant; rightmost is the exact reverse
_SINGLE_LEFT = ("0", "1")
_SINGLE_RIGHT = ("1", "0")
_PAIR_LEFT = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
_PAIR_RIGHT = tuple(reversed(_PAIR_LEFT))


@dataclass(frozen=True)
class GapRule:
    """Remove the last 2^(stage-e) elements of block `stage` from the
    side's functional, for every oracle extending `node`."""

    e: int
    stage: int
    node: str
    side: str = SIDE_X

    def __post_init__(self):
        if not 0 <= self.e <= self.stage:
            raise UndefinedInputError("gap exponent must satisfy 0 <= e <= stage")
        if len(self.node) > self.stage:
            raise SelectorCapError(
                "rule at stage %d uses a node of length %d" % (self.stage, len(self.node))
            )
        if not set(self.node) <= {"0", "1"}:
            raise ValueError("node must be a bit string")
        if self.side not in (SIDE_X, SIDE_Y):
            raise ValueError("side must be 'x' or 'y'")

    @property
    def gap_lo(self) -> int:
        return (1 << (self.stage + 1)) - (1 << (self.stage - self.e))

    @property
    def gap_hi(self) -> int:
        return 1 << (self.stage + 1)


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
        if rule.stage <= self.defined_through:
            raise InvariantViolationError("cannot add a rule to a defined block")
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
        bits = as_bits(prefix)
        if n < 1:
            raise UndefinedInputError("the functional's value starts at n=1")
        block = n.bit_length() - 1
        if block > self.defined_through:
            raise UndefinedRegionError(
                "n=%d lies beyond the defined horizon 2^%d" % (n, self.defined_through + 1)
            )
        unknown = False
        for r in self._by_block.get(block, ()):
            if n >= r.gap_lo:
                if bits.startswith(r.node):
                    return 0
                if r.node.startswith(bits):
                    unknown = True
        return None if unknown else 1

    def excluded_interval(self, block: int, prefix) -> Optional[tuple]:
        """Merged definite exclusion [lo, hi) at `block` under `prefix`,
        or None; raises if an undecided rule intersects the block."""
        bits = as_bits(prefix)
        lo = None
        for r in self._by_block.get(block, ()):
            if bits.startswith(r.node):
                lo = r.gap_lo if lo is None else min(lo, r.gap_lo)
            elif r.node.startswith(bits):
                raise UndefinedRegionError(
                    "rule node %r undecided under prefix of length %d" % (r.node, len(bits))
                )
        if lo is None:
            return None
        return (lo, 1 << (block + 1))


def eval_phi(table: GapRuleTable, prefix, n: int):
    """Operation form of GapRuleTable.evaluate."""
    return table.evaluate(prefix, n)


class LevelContext:
    """Survival tests for one strategy tree at one level.

    A node of length l survives unless some element enumerated by step l
    (below 2^l) is definitely outside the functional's value under every
    oracle extending the node (pair mode: outside both sides' union).
    Undecided evaluations never prune.  `enum` is the strategy's
    enumeration as a run set.
    """

    def __init__(self, mode: str, l: int, enum, x_table: GapRuleTable,
                 y_table: Optional[GapRuleTable] = None):
        self.mode = mode
        self.l = l
        self.has_zero = bool(enum) and enum[0][0] == 0
        if mode == SINGLE:
            self.hits = tuple(
                r.node for r in x_table.rules
                if r.stage <= l - 1 and hits(enum, r.gap_lo, r.gap_hi)
            )
        else:
            pairs = []
            for s in range(min(l, x_table.defined_through + 1)):
                # every gap of block s lies inside [2^s, 2^(s+1)): a block
                # without enumerated elements has no hits
                if not hits(enum, 1 << s, 1 << (s + 1)):
                    continue
                for rx in x_table.rules_at_block(s):
                    for ry in y_table.rules_at_block(s):
                        if hits(enum, max(rx.gap_lo, ry.gap_lo), rx.gap_hi):
                            pairs.append((rx.node, ry.node))
            self.hits = tuple(pairs)

    def killed(self, node) -> bool:
        if self.has_zero:
            return True  # 0 is never in the functional's value
        if self.mode == SINGLE:
            return any(node.startswith(a) for a in self.hits)
        sx, sy = node
        return any(sx.startswith(a) and sy.startswith(b) for a, b in self.hits)

    def root(self):
        return "" if self.mode == SINGLE else ("", "")

    def node_len(self, node) -> int:
        return len(node) if self.mode == SINGLE else len(node[0])

    def children(self, node, order):
        if self.mode == SINGLE:
            return [node + b for b in order]
        return [(node[0] + a, node[1] + b) for a, b in order]

    def default_order(self):
        return _SINGLE_LEFT if self.mode == SINGLE else _PAIR_LEFT


def find_survivor(ctx: LevelContext, order=None, start=None,
                  budget: int = _DEFAULT_NODE_BUDGET):
    """First surviving level-l node in DFS `order` extending `start`."""
    if order is None:
        order = ctx.default_order()
    node = ctx.root() if start is None else start
    if ctx.node_len(node) > ctx.l:
        raise UndefinedInputError("start node is deeper than the level")
    counter = [budget]

    def rec(nd):
        counter[0] -= 1
        if counter[0] < 0:
            raise BudgetError("level search exceeded the node budget")
        if ctx.killed(nd):
            return None
        if ctx.node_len(nd) == ctx.l:
            return nd
        for child in ctx.children(nd, order):
            r = rec(child)
            if r is not None:
                return r
        return None

    return rec(node)


def enumerate_level(ctx: LevelContext, budget: int = _DEFAULT_NODE_BUDGET) -> list:
    """Materialize the whole surviving level (tests and small audits)."""
    out = []
    counter = [budget]
    order = ctx.default_order()

    def rec(nd):
        counter[0] -= 1
        if counter[0] < 0:
            raise BudgetError("level enumeration exceeded the node budget")
        if ctx.killed(nd):
            return
        if ctx.node_len(nd) == ctx.l:
            out.append(nd)
            return
        for child in ctx.children(nd, order):
            rec(child)

    rec(ctx.root())
    return out


def select_marker_node(path, marked, cap: Optional[int] = None):
    """Shortest prefix of the path (root included) without a marker."""
    if isinstance(path, tuple):
        length = len(path[0])
        prefixes = [(path[0][:k], path[1][:k]) for k in range(length + 1)]
    else:
        length = len(path)
        prefixes = [path[:k] for k in range(length + 1)]
    limit = length if cap is None else min(cap, length)
    for node in prefixes[: limit + 1]:
        if node not in marked:
            return node
    raise SelectorCapError("every path prefix through the cap is marked")


class LeftmostSelector:
    kind = "leftmost"

    def path(self, e, stage, ctx, find, state):
        stem = find(_SINGLE_LEFT if ctx.mode == SINGLE else _PAIR_LEFT)
        if stem is None:
            return None
        pad = stage - ctx.l
        if ctx.mode == SINGLE:
            return stem + "0" * pad
        return (stem[0] + "0" * pad, stem[1] + "0" * pad)


class RightmostSelector:
    kind = "rightmost"

    def path(self, e, stage, ctx, find, state):
        stem = find(_SINGLE_RIGHT if ctx.mode == SINGLE else _PAIR_RIGHT)
        if stem is None:
            return None
        pad = stage - ctx.l
        if ctx.mode == SINGLE:
            return stem + "1" * pad
        return (stem[0] + "1" * pad, stem[1] + "1" * pad)


class ScriptedSelector:
    """Approximation-style selector: finitely many scripted mind changes,
    each entry giving the path guess from some stage on.  Falls back to
    leftmost before the first entry applies.  The guess is padded with 0s
    (truncated) to the stage cap; its level truncation must survive."""

    kind = "scripted"

    def __init__(self, entries):
        self.entries = tuple(sorted(entries, key=lambda it: it[0]))
        self._fallback = LeftmostSelector()

    def path(self, e, stage, ctx, find, state):
        guess = None
        for from_stage, node in self.entries:
            if from_stage <= stage:
                guess = node
        if guess is None:
            return self._fallback.path(e, stage, ctx, find, state)
        if ctx.mode == SINGLE:
            return (guess + "0" * stage)[:stage]
        gx = (guess[0] + "0" * stage)[:stage]
        gy = (guess[1] + "0" * stage)[:stage]
        return (gx, gy)


@dataclass
class MarkerRecord:
    e: int
    stage: int
    node: object


@dataclass
class TreeState:
    """Per-strategy bookkeeping over a run."""

    e: int
    source: object
    selector: object
    alive: bool = True
    death_stage: Optional[int] = None
    enumerated: tuple = ()   # run set
    markers: list = field(default_factory=list)
    marked: set = field(default_factory=set)
    approx_history: list = field(default_factory=list)  # (stage, node)

    def latest_approx(self):
        return self.approx_history[-1][1] if self.approx_history else None


@dataclass(frozen=True)
class StrategySpec:
    source: object   # new_elements(e, stage, view) protocol
    selector: object


@dataclass(frozen=True)
class RunConfig:
    mode: str
    stages: int
    strategies: tuple
    node_budget: int = _DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.mode not in (SINGLE, PAIR):
            raise UndefinedInputError("mode must be single or pair")
        if not 1 <= self.stages <= 64:
            raise BudgetError("stage count out of the supported range 1..64")


class TraceView:
    """What an enumeration source may read at stage s: the public record
    through stage s-1.  Sources run before the stage mutates anything."""

    def __init__(self, engine, stage):
        self._e = engine
        self.stage = stage
        self.mode = engine.mode
        self.defined_through = stage - 1
        self.x_table = engine.x_table
        self.y_table = engine.y_table

    def rules_issued_at(self, stage, e=None) -> list:
        out = [r for r in self._e.x_table.rules if r.stage == stage]
        if self._e.y_table is not None:
            out += [r for r in self._e.y_table.rules if r.stage == stage]
        if e is not None:
            out = [r for r in out if r.e == e]
        return out

    def approx(self, e):
        return self._e.states[e].latest_approx()

    def markers(self, e) -> list:
        return list(self._e.states[e].markers)

    def enumerated(self, e) -> tuple:
        return self._e.states[e].enumerated


@dataclass
class StageRecord:
    stage: int
    batches: dict        # e -> run set of new elements
    rules: tuple         # GapRules issued this stage
    info: dict           # e -> dict(alive, acted, died, approx, marker, level_hash)
    trap_events: tuple   # (e, gap_stage, lo, hi): new run [lo, hi) inside the gap


@dataclass
class Trace:
    """Replayable record of one construction run."""

    mode: str
    stages: int
    records: list
    x_rules: tuple
    y_rules: tuple
    markers: dict          # e -> tuple of MarkerRecord
    final_approx: dict     # e -> node or None
    alive: dict            # e -> bool at end
    death_stage: dict      # e -> stage or None
    defined_through: int
    strategy_count: int
    config_echo: Optional[dict] = None
    _final: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def x_table(self) -> GapRuleTable:
        t = GapRuleTable(SIDE_X)
        for r in self.x_rules:
            t.add_rule(r)
        t.extend_defined(self.defined_through)
        return t

    def y_table(self) -> Optional[GapRuleTable]:
        if self.mode == SINGLE:
            return None
        t = GapRuleTable(SIDE_Y)
        for r in self.y_rules:
            t.add_rule(r)
        t.extend_defined(self.defined_through)
        return t

    def enumerated_through(self, e, stage) -> tuple:
        """Run set enumerated by strategy e's opponent through `stage`."""
        out = []
        for rec in self.records:
            if rec.stage > stage:
                break
            out.extend(rec.batches.get(e, ()))
        return normalize(out)

    def enumerated_final(self, e) -> tuple:
        """Final run set of strategy e, computed once per strategy."""
        if e not in self._final:
            self._final[e] = self.enumerated_through(e, self.stages - 1)
        return self._final[e]

    def level_context(self, e, l) -> LevelContext:
        return LevelContext(
            self.mode, l, self.enumerated_through(e, l), self.x_table(), self.y_table()
        )

    def tree_level(self, e, l, budget: int = _DEFAULT_NODE_BUDGET) -> list:
        """The surviving level-l nodes of strategy e's tree."""
        if l > self.defined_through:
            raise UndefinedRegionError("level %d beyond the defined horizon" % l)
        return enumerate_level(self.level_context(e, l), budget)

    def path_changes(self, e) -> int:
        """Mind changes of the selected path, counting the first choice."""
        count = 0
        prev = None
        for _, node in self._approx_list(e):
            if prev is None or not _extends(node, prev):
                count += 1
            prev = node
        return count

    def _approx_list(self, e):
        out = []
        for rec in self.records:
            info = rec.info.get(e)
            if info and info.get("approx") is not None:
                out.append((rec.stage, info["approx"]))
        return out

    def rules_for(self, e, side=SIDE_X) -> list:
        src = self.x_rules if side == SIDE_X else self.y_rules
        return [r for r in src if r.e == e]


def _extends(node, prev) -> bool:
    if isinstance(node, tuple):
        return node[0].startswith(prev[0]) and node[1].startswith(prev[1])
    return node.startswith(prev)


def _node_jsonable(node):
    if node is None:
        return None
    if isinstance(node, tuple):
        return [node[0], node[1]]
    return node


def _node_from_jsonable(v):
    if v is None:
        return None
    if isinstance(v, list):
        return (v[0], v[1])
    return v


def _level_hash(e, l, rules, enum) -> str:
    payload = {
        "e": e,
        "l": l,
        "rules": sorted((r.e, r.stage, r.node, r.side) for r in rules if r.stage <= l),
        "enum": [list(run) for run in clip(enum, 0, 1 << l)],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _Engine:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.mode = cfg.mode
        self.x_table = GapRuleTable(SIDE_X)
        self.y_table = GapRuleTable(SIDE_Y) if cfg.mode == PAIR else None
        self.states = [
            TreeState(e, spec.source, spec.selector)
            for e, spec in enumerate(cfg.strategies)
        ]

    def run(self) -> Trace:
        records = []
        for s in range(self.cfg.stages):
            records.append(self._stage(s))
        markers = {
            st.e: tuple(MarkerRecord(st.e, stage, node) for stage, node in st.markers)
            for st in self.states
        }
        return Trace(
            mode=self.mode,
            stages=self.cfg.stages,
            records=records,
            x_rules=tuple(self.x_table.rules),
            y_rules=tuple(self.y_table.rules) if self.y_table else (),
            markers=markers,
            final_approx={st.e: st.latest_approx() for st in self.states},
            alive={st.e: st.alive for st in self.states},
            death_stage={st.e: st.death_stage for st in self.states},
            defined_through=self.cfg.stages - 1,
            strategy_count=len(self.states),
        )

    def _stage(self, s: int) -> StageRecord:
        view = TraceView(self, s)
        batches = {}
        trap_events = []
        for st in self.states:
            new = difference(normalize(st.source.new_elements(st.e, s, view)), st.enumerated)
            batches[st.e] = new
            if not new:
                continue
            for rule in self.x_table.rules:
                if rule.e == st.e:
                    trap_events.extend(
                        (st.e, rule.stage, lo, hi) for lo, hi in clip(new, rule.gap_lo, rule.gap_hi)
                    )
        issued = []
        info = {}
        for st in self.states:
            info[st.e] = self._act(st, s, issued)
        for r in issued:
            (self.x_table if r.side == SIDE_X else self.y_table).add_rule(r)
        self.x_table.extend_defined(s)
        if self.y_table is not None:
            self.y_table.extend_defined(s)
        for st in self.states:
            st.enumerated = union(st.enumerated, batches[st.e])
        return StageRecord(
            stage=s,
            batches=batches,
            rules=tuple(issued),
            info=info,
            trap_events=tuple(trap_events),
        )

    def _act(self, st: TreeState, s: int, issued: list) -> dict:
        out = {
            "alive": st.alive,
            "acted": False,
            "died": False,
            "approx": None,
            "marker": None,
            "level_hash": None,
        }
        if not st.alive or st.e >= s:
            return out
        l = s - 1
        ctx = LevelContext(self.mode, l, st.enumerated, self.x_table, self.y_table)
        out["level_hash"] = _level_hash(
            st.e, l,
            self.x_table.rules + (self.y_table.rules if self.y_table else []),
            st.enumerated,
        )

        def find(order):
            return find_survivor(ctx, order, budget=self.cfg.node_budget)

        if find(ctx.default_order()) is None:
            st.alive = False
            st.death_stage = s
            out["alive"] = False
            out["died"] = True
            return out
        path = st.selector.path(st.e, s, ctx, find, self)
        if path is None:
            raise InvariantViolationError("selector returned no path on a live tree")
        trunc = path[:l] if self.mode == SINGLE else (path[0][:l], path[1][:l])
        if ctx.killed(trunc):
            raise InvariantViolationError(
                "selector path truncation is outside the surviving level"
            )
        marker = select_marker_node(path, st.marked, cap=s)
        st.marked.add(marker)
        st.markers.append((s, marker))
        st.approx_history.append((s, path))
        if self.mode == SINGLE:
            issued.append(GapRule(st.e, s, marker, SIDE_X))
        else:
            issued.append(GapRule(st.e, s, marker[0], SIDE_X))
            issued.append(GapRule(st.e, s, marker[1], SIDE_Y))
        out["acted"] = True
        out["approx"] = path
        out["marker"] = marker
        return out


def run_construction(cfg: RunConfig) -> Trace:
    return _Engine(cfg).run()


def run_single(stages: int, strategies, node_budget: int = _DEFAULT_NODE_BUDGET) -> Trace:
    return run_construction(RunConfig(SINGLE, stages, tuple(strategies), node_budget))


def run_pair(stages: int, strategies, node_budget: int = _DEFAULT_NODE_BUDGET) -> Trace:
    return run_construction(RunConfig(PAIR, stages, tuple(strategies), node_budget))


def trap_status(trace: Trace, e: int, s: int) -> str:
    """pending / sprung / inactive for strategy e's stage-s trap."""
    rules = [r for r in trace.x_rules if r.e == e and r.stage == s]
    if not rules:
        return "inactive"
    rule = rules[0]
    return "sprung" if hits(trace.enumerated_final(e), rule.gap_lo, rule.gap_hi) else "pending"


def functional_value_set(trace: Trace, prefix, side=SIDE_X) -> set:
    """{n in [1, 2^(defined+1)) : definitely in the side's functional
    under oracles extending prefix}; prefix must decide every rule."""
    table = trace.x_table() if side == SIDE_X else trace.y_table()
    out = set()
    for n in range(1, 1 << (trace.defined_through + 1)):
        if table.evaluate(prefix, n) == 1:
            out.add(n)
    return out


# ---------------------------------------------------------------------------
# trace serialization (versioned; byte-exact replay is part of the contract)

TRACE_FORMAT = "gencomp-trace/2"


def trace_to_jsonable(trace: Trace) -> dict:
    return {
        "format": TRACE_FORMAT,
        "mode": trace.mode,
        "stages": trace.stages,
        "strategy_count": trace.strategy_count,
        "defined_through": trace.defined_through,
        "config": trace.config_echo,
        "records": [
            {
                "stage": rec.stage,
                "batches": [[e, [list(run) for run in rec.batches[e]]] for e in sorted(rec.batches)],
                "rules": [[r.e, r.stage, r.node, r.side] for r in rec.rules],
                "strategies": [
                    [
                        e,
                        {
                            "alive": rec.info[e]["alive"],
                            "acted": rec.info[e]["acted"],
                            "died": rec.info[e]["died"],
                            "approx": _node_jsonable(rec.info[e]["approx"]),
                            "marker": _node_jsonable(rec.info[e]["marker"]),
                            "level_hash": rec.info[e]["level_hash"],
                        },
                    ]
                    for e in sorted(rec.info)
                ],
                "trap_events": [list(t) for t in rec.trap_events],
            }
            for rec in trace.records
        ],
        "final": {
            "alive": [[e, trace.alive[e]] for e in sorted(trace.alive)],
            "death_stage": [[e, trace.death_stage[e]] for e in sorted(trace.death_stage)],
            "markers": [
                [e, [[m.stage, _node_jsonable(m.node)] for m in trace.markers[e]]]
                for e in sorted(trace.markers)
            ],
            "approx": [
                [e, _node_jsonable(trace.final_approx[e])]
                for e in sorted(trace.final_approx)
            ],
        },
    }


def trace_from_jsonable(doc: dict) -> Trace:
    if doc.get("format") != TRACE_FORMAT:
        raise UndefinedInputError("unsupported trace format %r" % doc.get("format"))
    records = []
    for rd in doc["records"]:
        records.append(
            StageRecord(
                stage=rd["stage"],
                batches={e: tuple((lo, hi) for lo, hi in batch) for e, batch in rd["batches"]},
                rules=tuple(GapRule(e, s, node, side) for e, s, node, side in rd["rules"]),
                info={
                    e: {
                        "alive": d["alive"],
                        "acted": d["acted"],
                        "died": d["died"],
                        "approx": _node_from_jsonable(d["approx"]),
                        "marker": _node_from_jsonable(d["marker"]),
                        "level_hash": d["level_hash"],
                    }
                    for e, d in rd["strategies"]
                },
                trap_events=tuple(tuple(t) for t in rd["trap_events"]),
            )
        )
    x_rules = tuple(r for rec in records for r in rec.rules if r.side == SIDE_X)
    y_rules = tuple(r for rec in records for r in rec.rules if r.side == SIDE_Y)
    final = doc["final"]
    return Trace(
        mode=doc["mode"],
        stages=doc["stages"],
        records=records,
        x_rules=x_rules,
        y_rules=y_rules,
        markers={
            e: tuple(MarkerRecord(e, stage, _node_from_jsonable(node)) for stage, node in ms)
            for e, ms in final["markers"]
        },
        final_approx={e: _node_from_jsonable(v) for e, v in final["approx"]},
        alive=dict((e, v) for e, v in final["alive"]),
        death_stage=dict((e, v) for e, v in final["death_stage"]),
        defined_through=doc["defined_through"],
        strategy_count=doc["strategy_count"],
        config_echo=doc.get("config"),
    )


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
    """After a trap is sprung, no surviving node extends the trapped one."""
    bad = []
    xt, yt = trace.x_table(), trace.y_table()
    for rec in trace.records:
        for e, gap_stage, lo, hi in rec.trap_events:
            xnodes = [r.node for r in trace.x_rules if r.e == e and r.stage == gap_stage]
            ynodes = [r.node for r in trace.y_rules if r.e == e and r.stage == gap_stage]
            if not xnodes or (trace.mode == PAIR and not ynodes):
                bad.append(
                    "trap event (%d, %d, [%d, %d)) references a rule the trace does not contain"
                    % (e, gap_stage, lo, hi)
                )
                continue
            node = (xnodes[0], ynodes[0]) if trace.mode == PAIR else xnodes[0]
            xnode = xnodes[0]
            for later in trace.records:
                if later.stage <= rec.stage:
                    continue
                info = later.info.get(e)
                if not info or (not info["acted"] and not info["died"]):
                    continue
                l = later.stage - 1
                if (len(xnode) if trace.mode == SINGLE else len(node[0])) > l:
                    continue
                ctx = LevelContext(trace.mode, l, trace.enumerated_through(e, l), xt, yt)
                if find_survivor(ctx, start=node) is not None:
                    bad.append(
                        "survivor extends trapped node %r at stage %d (strategy %d)"
                        % (node, later.stage, e)
                    )
    return bad


def audit_spoiling(trace: Trace, brute_max: int = 12) -> list:
    """A dead strategy's final level is empty, and (small levels) every
    node is definitely excluded somewhere, checked via eval_phi."""
    bad = []
    xt, yt = trace.x_table(), trace.y_table()
    for e, died_at in trace.death_stage.items():
        if died_at is None:
            continue
        l = died_at - 1
        ctx = LevelContext(trace.mode, l, trace.enumerated_through(e, l), xt, yt)
        if find_survivor(ctx) is not None:
            bad.append("dead strategy %d still has a level-%d survivor" % (e, l))
        if trace.mode == SINGLE and l <= brute_max:
            enum = elements(clip(trace.enumerated_through(e, l), 0, 1 << l))
            for v in range(1 << l):
                sigma = format(v, "0%db" % l) if l else ""
                witnessed = any(
                    n == 0 or xt.evaluate(sigma, n) == 0 for n in enum
                )
                if not witnessed:
                    bad.append("no spoiling witness for %r (strategy %d)" % (sigma, e))
    return bad


def audit_single_victim(trace: Trace, e: int, prefixes) -> list:
    """Markers after the last mind change prefix the final approximation,
    and along any probe prefix the gap count obeys
    changes + max-stage lcp.

    Only x-side gaps are counted (pair mode: the probe's x string), so the
    lcp is taken on the x side too: an x-rule's node is the x string of a
    marker on the stage's approximation, and the y side never changes the
    x functional's gaps."""
    bad = []
    approxes = trace._approx_list(e)
    if not approxes:
        return bad
    final = trace.final_approx[e]
    changes = trace.path_changes(e)
    last_change_stage = None
    prev = None
    for stage, node in approxes:
        if prev is None or not _extends(node, prev):
            last_change_stage = stage
        prev = node
    for stage, marker in [(m.stage, m.node) for m in trace.markers[e]]:
        if stage >= last_change_stage and not _extends(final, marker):
            bad.append("late marker %r not on the final path (strategy %d)" % (marker, e))
    x_of = (lambda node: node) if trace.mode == SINGLE else (lambda node: node[0])
    for probe in prefixes:
        x_probe = x_of(probe)
        gaps = sum(1 for r in trace.rules_for(e, SIDE_X) if _extends(x_probe, r.node))
        max_lcp = max((_lcp_len(x_probe, x_of(node)) for _, node in approxes), default=0)
        if gaps > changes + max_lcp:
            bad.append(
                "gap count %d exceeds changes %d + lcp %d along %r (strategy %d)"
                % (gaps, changes, max_lcp, probe, e)
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
    """The value set's censused gaps under `prefix` are exactly the rules
    whose nodes prefix it."""
    from .density import gap_census

    bad = []
    table = trace.x_table() if side == SIDE_X else trace.y_table()
    values = functional_value_set(trace, prefix, side)
    census = gap_census(lambda n: n in values, trace.defined_through + 1)
    bits = as_bits(prefix if not isinstance(prefix, tuple) else prefix[0])
    for i, recorded in census.records:
        applicable = [r.e for r in table.rules_at_block(i) if bits.startswith(r.node)]
        expected = min(applicable) if applicable else None
        if recorded != expected:
            bad.append(
                "block %d census %r != rules %r under %r" % (i, recorded, expected, bits)
            )
    return bad


def default_probe_prefixes(trace: Trace, e: int) -> list:
    """Deterministic probe set for the single-victim audit: the final
    approximation and each one-bit deviation padded both ways."""
    final = trace.final_approx.get(e)
    if final is None:
        return []
    probes = [final]
    length = len(final) if trace.mode == SINGLE else len(final[0])
    for k in range(length):
        if trace.mode == SINGLE:
            flipped = final[:k] + ("1" if final[k] == "0" else "0")
            probes.append((flipped + "0" * length)[:length])
            probes.append((flipped + "1" * length)[:length])
        else:
            fx = final[0][:k] + ("1" if final[0][k] == "0" else "0")
            probes.append(((fx + "0" * length)[:length], final[1]))
    return probes


def audit_trace(trace: Trace) -> list:
    """All standard audits; returns the list of violations (empty = pass)."""
    bad = []
    bad += audit_marker_on_path(trace)
    bad += audit_trap_soundness(trace)
    bad += audit_spoiling(trace)
    for e in range(trace.strategy_count):
        bad += audit_single_victim(trace, e, default_probe_prefixes(trace, e))
    if trace.mode == SINGLE and trace.defined_through <= 14:
        for probe in ("0" * trace.defined_through, "1" * trace.defined_through):
            bad += audit_gap_census_consistency(trace, probe)
    return bad
