"""Stage-based diagonalization engine.

A run builds one Turing-style functional (single mode) or a pair of them
(pair mode).  Strategy e acts at stages s > e: it computes the surviving
level of its tree (oracles kept consistent with the opponent enumeration
staying inside the functional's value).  If the tree is empty the strategy
dies; else it acts, placing a marker at the shortest prefix of the selected
infinite path whose string on every side is unmarked there.  The act is a
gap rule on each side: the side's functional omits the gap of size 2^-e at
block s, its last 2^(s-e) elements, on every oracle extending the marker's
string.  The opponent must then either enumerate into the gap, pruning every
extension of the marked node from the tree, or absorb a density dip at that
block.

Level sets are exponential and are therefore never materialized: survival
of a node is decided from the acts plus the enumeration snapshot, and paths
are found by ordered depth-first search with pruning.  Every enumeration (a
stage's batch, a strategy's snapshot, a trap event) is a run set of
half-open intervals (see `runs`), so no step costs time or memory in the
number of enumerated elements.  A whole run is recorded as a Trace that
replays bit-for-bit from its config: per stage, the new elements and the
acts, from which the deaths and the trap events follow.  The acts of stage
s are the gap rules of block s.  The trace is also the engine's only
state, stage s being computed from its records through s-1.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import product
from operator import add
from os.path import commonprefix
from typing import Optional

from .density import gap_census, gap_interval
from .errors import BudgetError, InvariantViolationError, UndefinedInputError
from .records import Frozen, first_difference
from .runs import clip, difference, hits, is_bits, is_natural, normalize, union

SINGLE = "single"
PAIR = "pair"

# the functionals a mode builds, by name; code refers to a side by its
# index, and a tree node is a tuple of one bit string per side, in this order
SIDES = {SINGLE: ("x",), PAIR: ("x", "y")}

_DEFAULT_NODE_BUDGET = 1 << 18


class LevelContext:
    """Survival tests for one strategy tree at one level.

    A node is a tuple of one bit string per side, all of one length.  A
    node of length l survives unless some element enumerated by step l
    (below 2^l) is definitely outside the functional's value under every
    oracle extending the node (pair mode: outside both sides' union).
    Undecided evaluations never prune.  `enum` is the strategy's
    enumeration as a run set; the trace's gap view through block l-1 holds
    the acts.  A gap is a suffix of its block, so a hit is one block's
    marker strings per side, from the acts whose gaps hold the block's top
    enumerated element: it kills a node extending one string on every side.
    """

    def __init__(self, l: int, enum, trace):
        self.l = l
        self.root = ("",) * len(trace.sides)
        self.has_zero = bool(enum) and enum[0][0] == 0
        found = []
        for s in range(l):
            runs = clip(enum, 1 << s, 2 << s)
            if not runs:
                continue
            markers = [marker for (lo, _), marker in trace.gaps[s] if lo < runs[-1][1]]
            if markers:
                found.append(tuple(zip(*markers)))
        self.hits = tuple(found)

    def killed(self, node) -> bool:
        if self.has_zero:
            return True  # 0 is never in the functional's value
        for hit in self.hits:
            if all(map(str.startswith, node, hit)):
                return True
        return False


def _level_dfs(ctx: LevelContext, order, budget: int):
    """The surviving level-l nodes, lazily, in DFS `order`; each visited
    node costs one unit of `budget`."""
    # the new bits of a node's children, one per side, in DFS order:
    # lexicographic in `order` with the x bit most significant
    steps = list(product(order, repeat=len(ctx.root)))

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

    return visit(ctx.root)


def find_survivor(ctx: LevelContext, order="01", budget: int = _DEFAULT_NODE_BUDGET):
    """First surviving level-l node in DFS `order`."""
    return next(_level_dfs(ctx, order, budget), None)


def enumerate_level(ctx: LevelContext, budget: int = _DEFAULT_NODE_BUDGET) -> list:
    """Materialize the whole surviving level (the benchmark tracer's target)."""
    return list(_level_dfs(ctx, "01", budget))


def select_marker_node(path, marked):
    """Shortest prefix of the path (root included) whose string on every
    side is unmarked there: `marked` holds one set of strings per side."""
    taken = {len(bits) for side, strings in zip(path, marked) for bits in strings
             if side.startswith(bits)}
    for k in range(len(path[0]) + 1):
        if k not in taken:
            return tuple(side[:k] for side in path)
    # unreachable: at stage s the path has s+1 prefixes, strategy e at most s-1-e markers
    raise InvariantViolationError("every path prefix through the cap is marked")


class Selector:
    """A path selector: a pad bit and a script of finitely many mind
    changes, each entry giving the path guess (a node) from some stage on.
    Before the first entry applies, the guess is the stem: the first
    survivor of a DFS whose children come in lexicographic order of their
    new bits, `bit` first.  Each side of the guess is padded with `bit` and
    cut to the stage; its level truncation must survive.  The leftmost
    (bit "0") and rightmost (bit "1") selectors have no script, and a
    scripted one pads with 0s."""

    def __init__(self, bit: str, entries=()):
        self.bit = bit
        self.order = "01" if bit == "0" else "10"
        self.entries = tuple(sorted(entries, key=lambda it: it[0]))

    def path(self, stage, stem):
        guess = stem
        for from_stage, node in self.entries:
            if from_stage <= stage:
                guess = node
        return tuple((side + self.bit * stage)[:stage] for side in guess)


LeftmostSelector = partial(Selector, "0")
RightmostSelector = partial(Selector, "1")
ScriptedSelector = partial(Selector, "0")


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
    """What one stage decided; equal when the fields are.  An act's
    approximation and marker each hold one bit string per side."""

    __slots__ = ("batches", "acts")

    def __init__(self, batches: dict, acts: dict):
        self.batches = batches  # e -> run set of new elements, for every strategy
        self.acts = acts        # e -> (approx, marker), in ascending e

    def __eq__(self, other):
        if type(other) is not StageRecord:
            return NotImplemented
        return (self.batches, self.acts) == (other.batches, other.acts)


class Trace:
    """Replayable record of one construction run, and the engine's only
    state.  The stage records are all it stores, record s being stage s;
    `append` keeps the views read off them, per strategy e: the enumerated
    run set, the markers as (stage, marker) pairs, the last approximation
    (None before the first act) and the death stage (None while alive).  A
    started, live strategy that does not act at a stage dies there.  The
    gap rules of block s are the acts of `records[s]`, which `gaps[s]` lists
    in act order as (gap interval, marker) pairs.  `trap_events[s]` lists
    the traps stage s springs as (e, gap_stage, lo, hi): a run [lo, hi) of
    strategy e's batch inside the gap of its act at an earlier stage, in
    strategy and then gap-stage order.  After stage s the functionals are
    defined on [1, 2^(s+1)).  Records given to the constructor are fed
    through `append` too, so the engine, the loader and any caller
    rebuilding a trace from edited records build it the same way.  It takes
    acts of a dead strategy, of strategy s at stage s and out of strategy
    order, as tests build arbitrary gap rules with it: the loader refuses
    such acts in a file, and the audits read them as the records say."""

    __slots__ = ("mode", "records", "config_echo", "gaps", "trap_events", "enumerated",
                 "markers", "final_approx", "death_stage", "_censuses")

    def __init__(self, mode: str, records=(), config_echo: Optional[dict] = None):
        self.mode = mode
        self.records = []
        self.config_echo = config_echo
        self.gaps = []
        self.trap_events = []
        self.enumerated = {}
        self.markers = {}
        self.final_approx = {}
        self.death_stage = {}
        self._censuses = {}
        for rec in records:
            self.append(rec)

    def append(self, rec: StageRecord):
        """Add the next stage's record and bring the views up to it.  A
        record it refuses leaves every view as it was."""
        s, k = len(self.records), len(self.sides)
        gaps = []
        for e, (approx, marker) in rec.acts.items():
            if not len(approx) == len(marker) == k:
                raise InvariantViolationError(
                    "act of strategy %d at stage %d has not one string per side" % (e, s)
                )
            gaps.append((gap_interval(s, e), marker))
        events = []
        for e, batch in rec.batches.items():
            known = self.enumerated.get(e, ())
            if batch:
                for stage, _ in self.markers.get(e, ()):  # traps are x-side gaps
                    events.extend((e, stage, lo, hi) for lo, hi in clip(batch, *gap_interval(stage, e)))
                known = union(known, batch)
            self.enumerated[e] = known
            self.markers.setdefault(e, ())
            self.final_approx.setdefault(e, None)
            if self.death_stage.get(e) is None:  # a started, live strategy that does not act dies
                self.death_stage[e] = s if e < s and e not in rec.acts else None
        for e, (approx, marker) in rec.acts.items():
            self.markers[e] += ((s, marker),)
            self.final_approx[e] = approx
        self.gaps.append(tuple(gaps))
        self.trap_events.append(tuple(sorted(events)))
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
        return len(self.records[0].batches) if self.records else 0

    def evaluate(self, i: int, prefix, n: int):
        """Tri-valued membership of n in side i's functional (0 for x) under
        oracles extending `prefix`: 1 (in), 0 (definitely gapped), None
        (depends on a longer oracle)."""
        if n < 1:
            raise UndefinedInputError("the functional's value starts at n=1")
        block = n.bit_length() - 1
        if block > self.defined_through:
            raise UndefinedInputError(
                "n=%d lies beyond the defined horizon 2^%d" % (n, self.defined_through + 1)
            )
        unknown = False
        for (lo, _), marker in self.gaps[block]:
            if n >= lo:
                if prefix.startswith(marker[i]):
                    return 0
                if marker[i].startswith(prefix):
                    unknown = True
        return None if unknown else 1

    def enumerated_through(self, e, stage) -> tuple:
        """Run set enumerated by strategy e's opponent through `stage`."""
        out = []
        for rec in self.records[:stage + 1]:
            out.extend(rec.batches.get(e, ()))
        return normalize(out)

    def census(self, prefix, i: int = 0):
        """Gap census of side i's value set under the oracle prefix (one
        side's bit string), computed once per prefix.  The value set is
        censused with 0 counted in: 0 lies in no block, so no gap can omit
        it, and a value set whose omissions are all gaps is gap-only."""
        key = (prefix, i)
        if key not in self._censuses:
            values = union(((0, 1),), functional_value_set(self, prefix, i))
            self._censuses[key] = gap_census(values, self.defined_through + 1)
        return self._censuses[key]

    def approx_chains(self, e) -> list:
        """The selected path's extension chains, as [first stage, last
        approximation]: a new chain starts at every mind change."""
        chains = []
        for stage, (node, _) in ((s, rec.acts[e]) for s, rec in enumerate(self.records) if e in rec.acts):
            if chains and _extends(node, chains[-1][1]):
                chains[-1][1] = node
            else:
                chains.append([stage, node])
        return chains


def _extends(node, prev) -> bool:
    return all(map(str.startswith, node, prev))


def _stage(trace: Trace, cfg: RunConfig, s: int) -> StageRecord:
    """Stage s, computed from the trace through stage s-1 and the
    strategies alone.  Each opponent reads that trace as its view."""
    batches = {}
    for e, spec in enumerate(cfg.strategies):
        new = normalize(spec.source.new_elements(e, s, trace))
        batches[e] = difference(new, trace.enumerated.get(e, ()))
    acts = {}
    for e in range(min(s, len(cfg.strategies))):  # the started strategies
        if trace.death_stage[e] is None:
            act = _act(trace, cfg, e, s)
            if act is not None:
                acts[e] = act
    return StageRecord(batches, acts)


def _act(trace: Trace, cfg: RunConfig, e: int, s: int) -> Optional[tuple]:
    """Live strategy e's act at stage s, (approx, marker), or None when its
    tree is empty."""
    l = s - 1
    ctx = LevelContext(l, trace.enumerated[e], trace)
    selector = cfg.strategies[e].selector
    # any order finds a survivor iff one exists, so search once, in the
    # selector's order (the stem is a scripted selector's fallback)
    stem = find_survivor(ctx, selector.order, budget=cfg.node_budget)
    if stem is None:
        return None
    path = selector.path(s, stem)
    if ctx.killed(tuple(side[:l] for side in path)):
        raise InvariantViolationError("selector path truncation is outside the surviving level")
    marked = [{marker[i] for _, marker in trace.markers[e]} for i in range(len(path))]
    return path, select_marker_node(path, marked)


def run_construction(cfg: RunConfig) -> Trace:
    trace = Trace(cfg.mode)
    for s in range(cfg.stages):
        trace.append(_stage(trace, cfg, s))
    return trace


def run_single(stages: int, strategies, node_budget: int = _DEFAULT_NODE_BUDGET) -> Trace:
    return run_construction(RunConfig(SINGLE, stages, tuple(strategies), node_budget))


def trap_status(trace: Trace, e: int, s: int) -> str:
    """pending / sprung / inactive for strategy e's stage-s trap."""
    if e not in trace.records[s].acts:
        return "inactive"
    return "sprung" if hits(trace.enumerated[e], *gap_interval(s, e)) else "pending"


def functional_value_set(trace: Trace, prefix, i: int = 0) -> tuple:
    """Run set of {n in [1, 2^(defined+1)) : definitely in side i's
    functional under oracles extending prefix}: the horizon minus the gap
    of every rule whose node is comparable with the prefix (a rule the
    prefix does not decide leaves its gap undecided, hence out of the set)."""
    gaps = normalize(
        gap for block in trace.gaps for gap, marker in block
        if prefix.startswith(marker[i]) or marker[i].startswith(prefix)
    )
    return difference(((1, 1 << (trace.defined_through + 1)),), gaps)


# ---------------------------------------------------------------------------
# trace serialization (versioned; byte-exact replay is part of the contract)

TRACE_FORMAT = "gencomp-trace/6"


def trace_to_jsonable(trace: Trace) -> dict:
    """The trace as a document: the mode, the echoed config and one record
    per stage, a record's index being its stage.  A record lists what its
    stage did: the rules, the trap events (the trace's view), the non-empty
    batches and one act [e, suffix per side] per strategy that acted.  An
    act's approximation is the strategy's previous one cut to the stage
    minus the suffix length on every side, followed by the suffixes.  Its
    marker is a prefix of the approximation on every side, and its rules
    are those prefixes, so a rule is written as its node's length: one per
    act and side, in act and then side order.  The stage and strategy
    counts, the defined horizon and the deaths (the started, live
    strategies that do not act) follow from the rest and are not written."""
    last = {}
    records = []
    for rec, events in zip(trace.records, trace.trap_events):
        acts = []
        for e, (approx, _) in rec.acts.items():
            old = last.get(e, ("",) * len(approx))
            p = min(len(a) if b.startswith(a) else len(commonprefix((a, b))) for a, b in zip(old, approx))
            acts.append([e, *(side[p:] for side in approx)])
            last[e] = approx
        records.append({
            "rules": [len(node) for _, marker in rec.acts.values() for node in marker],
            "trap_events": [list(t) for t in events],
            "batches": [[e, [list(run) for run in runs]] for e, runs in sorted(rec.batches.items()) if runs],
            "acts": acts,
        })
    return {"format": TRACE_FORMAT, "mode": trace.mode, "config": trace.config_echo, "records": records}


def trace_from_jsonable(doc: dict) -> Trace:
    """The trace a document records, if the document is exactly what
    `trace_to_jsonable` writes for it.  Record s is stage s, and the
    strategy count is the length of the echoed config's strategy list.  A
    record is read the way the writer writes it: each batch as the run set
    of its runs, each side of an act's approximation from that side of the
    last one and its own suffix, the marker on every side as the prefix
    that the act's first rule length gives, and the acts in strategy order;
    `Trace.append` derives the deaths and the trap events.  The trace is
    then written back, and the document must equal that as JSON text (so
    2.0 and true are not 2 and 1), else the first differing path is named.
    Reading checks only what it needs to read safely (types, arities,
    naturals, bit strings, one rule per act and side) and what the
    write-back cannot see: acts of started, live strategies, and
    approximations of exactly s bits on every side at stage s."""
    if doc.get("format") != TRACE_FORMAT:
        raise UndefinedInputError("unsupported trace format %r" % doc.get("format"))
    mode, config, docs = map(doc.get, ("mode", "config", "records"))
    # a mode that is no string (a list, an object) may not be hashable
    if type(mode) is not str or mode not in SIDES:
        raise InvariantViolationError("trace mode %r is neither single nor pair" % (mode,))
    listed = config.get("strategies") if type(config) is dict else None
    if type(listed) is not list:
        raise InvariantViolationError("config echo %r lists no strategies" % (config,))
    count = len(listed)
    if type(docs) is not list:
        raise InvariantViolationError("records %r are not a list" % (docs,))
    trace = Trace(mode, (), config)
    k = len(trace.sides)
    for s, rd in enumerate(docs):
        if type(rd) is not dict:
            raise InvariantViolationError("record of stage %d: %r is not an object" % (s, rd))
        batch_docs, act_docs, lengths = (_list_of(rd.get(key), None, key, s)
                                         for key in ("batches", "acts", "rules"))
        batches = {}
        for entry in batch_docs:
            e, runs = _list_of(entry, 2, "batch entry", s)
            if not is_natural(e):
                raise InvariantViolationError("batch of strategy %r in a %d-strategy trace" % (e, count))
            if type(runs) is not list or not all(
                    type(run) is list and len(run) == 2 and all(map(is_natural, run)) for run in runs):
                raise InvariantViolationError(
                    "batch %r of strategy %d at stage %d is not a list of runs of naturals" % (runs, e, s))
            batches[e] = normalize(runs)
        acts = []
        for act in act_docs:
            e, *suffixes = _list_of(act, 1 + k, "act", s)
            if not is_natural(e) or e >= count:
                raise InvariantViolationError("strategy %r acts in a %d-strategy trace" % (e, count))
            if e >= s:
                raise InvariantViolationError("strategy %d acts at stage %d, before it starts" % (e, s))
            if trace.death_stage[e] is not None:
                raise InvariantViolationError("strategy %d acts at stage %d, after it died" % (e, s))
            if not all(map(is_bits, suffixes)):
                raise InvariantViolationError(
                    "act of strategy %d at stage %d has suffixes %r, not bit strings" % (e, s, suffixes)
                )
            old = trace.final_approx[e] or ("",) * k
            approx = tuple([a[:s - len(b)] + b for a, b in zip(old, suffixes)])
            if {len(side) for side in approx} != {s}:  # `Selector.path` cuts every side to the stage
                raise InvariantViolationError(
                    "act of strategy %d at stage %d has approximation %r, not of length %d on every side"
                    % (e, s, list(approx), s))
            acts.append((e, approx))
        if len(lengths) != len(acts) * k:
            raise InvariantViolationError(
                "acts at stage %d issue %d rules, but the record lists %d"
                % (s, len(acts) * k, len(lengths))
            )
        for i, n in enumerate(lengths):
            if not is_natural(n):
                raise InvariantViolationError("rule %d at stage %d has a node of length %r" % (i, s, n))
        acts = {e: (approx, tuple(a[:n] for a in approx))
                for (e, approx), n in sorted(zip(acts, lengths[::k]))}
        trace.append(StageRecord({e: batches.get(e, ()) for e in range(count)}, acts))
    back, text = trace_to_jsonable(trace), partial(json.dumps, sort_keys=True)
    if text(doc) != text(back):
        raise InvariantViolationError("trace differs from its write-back at %s" % first_difference(doc, back))
    return trace


def _list_of(v, n: Optional[int], what: str, s: int) -> list:
    """v, if it is a list (of n items when n is given)."""
    if type(v) is not list or n is not None and len(v) != n:
        raise InvariantViolationError(
            "%s of stage %d: %r is not a list%s" % (what, s, v, "" if n is None else " of %d items" % n)
        )
    return v


# ---------------------------------------------------------------------------
# trace audits (used by the harness `verify` command and by the test suite)


def audit_marker_on_path(trace: Trace) -> list:
    """Every marker placed at stage s must prefix that stage's approx."""
    bad = []
    for s, rec in enumerate(trace.records):
        for e, (approx, marker) in rec.acts.items():
            if not _extends(approx, marker):
                bad.append("marker %r off path at stage %d (strategy %d)" % (marker, s, e))
    return bad


def audit_trap_soundness(trace: Trace) -> list:
    """Every sprung trap carries its own witness: the event's run [lo, hi)
    is in its record's batch, after the trapped act's stage and inside its
    gap, so every side evaluates `lo` to 0 under the act's marker.  By
    prefix determinism `lo` then spoils every extension of that marker at
    every later level, so no later level is searched."""
    bad = []
    for s, (rec, events) in enumerate(zip(trace.records, trace.trap_events)):
        for e, gap_stage, lo, hi in events:
            act = trace.records[gap_stage].acts.get(e) if gap_stage <= trace.defined_through else None
            if act is None:
                reason = "references a rule the trace does not contain"
            elif clip(rec.batches.get(e, ()), lo, hi) != ((lo, hi),):
                reason = "is not in strategy %d's batch of stage %d" % (e, s)
            elif gap_stage >= s:
                reason = "at stage %d does not follow its rule" % s
            elif clip(((lo, hi),), *gap_interval(gap_stage, e)) != ((lo, hi),) or not all(
                    trace.evaluate(i, node, lo) == 0 for i, node in enumerate(act[1])):
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
    k = len(trace.sides)
    for e, died_at in trace.death_stage.items():
        if died_at is None:
            continue
        l = died_at - 1
        enum = trace.enumerated_through(e, l)
        if enum and enum[0][0] == 0:
            continue
        tops = [runs[-1][1] - 1 for b in range(l) if (runs := clip(enum, 1 << b, 2 << b))]
        budget = _DEFAULT_NODE_BUDGET
        stack = [("",) * k]
        while stack:
            node = stack.pop()
            budget -= 1
            if budget < 0:
                raise BudgetError("spoiling walk exceeded the node budget")
            if any(all(trace.evaluate(i, side, n) == 0 for i, side in enumerate(node)) for n in tops):
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
    for stage, marker in trace.markers[e]:
        if stage >= last_change_stage and not _extends(final, marker):
            bad.append("late marker %r not on the final path (strategy %d)" % (marker, e))
    for probe in prefixes:
        x_probe = probe[0]
        gaps = sum(1 for _, marker in trace.markers[e] if x_probe.startswith(marker[0]))
        max_lcp = max(len(commonprefix((x_probe, node[0]))) for _, node in chains)
        if gaps > len(chains) + max_lcp:
            bad.append(
                "gap count %d exceeds changes %d + lcp %d along %r (strategy %d)"
                % (gaps, len(chains), max_lcp, probe, e)
            )
    return bad


def audit_gap_census_consistency(trace: Trace, prefix, j: int = 0) -> list:
    """Side j's value set's censused gaps under `prefix` (one side's bit
    string) are exactly the acts whose markers prefix it on that side."""
    bad = []
    for i, recorded in trace.census(prefix, j).records:
        applicable = [e for e, (_, marker) in trace.records[i].acts.items() if prefix.startswith(marker[j])]
        expected = min(applicable) if applicable else None
        if recorded != expected:
            bad.append("block %d census %r != rules %r under %r" % (i, recorded, expected, prefix))
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
    """(label, side index, prefix) of the oracles whose value censuses are
    audited and reported: all zeros and all ones on every side."""
    return [(label, i, bit * trace.defined_through)
            for i in range(len(trace.sides)) for label, bit in (("all-zeros", "0"), ("all-ones", "1"))]


def audit_verdicts(trace: Trace) -> list:
    """The audit registry: every standard audit of a trace as (invariant
    name, violations), in report order.  No audit names an input, as its
    row gives it: `single-victim` row e audits strategy e on its
    `default_probe_prefixes`, and `gap-census-consistency` row k the
    oracle of `census_prefixes(trace)[k]`."""
    return [
        ("marker-on-path", audit_marker_on_path(trace)),
        ("trap-soundness", audit_trap_soundness(trace)),
        ("spoiling-completeness", audit_spoiling(trace)),
        *(("single-victim", audit_single_victim(trace, e, default_probe_prefixes(trace, e)))
          for e in range(trace.strategy_count)),
        *(("gap-census-consistency", audit_gap_census_consistency(trace, prefix, i))
          for _, i, prefix in census_prefixes(trace)),
    ]


def audit_trace(trace: Trace) -> list:
    """All standard audits; returns the list of violations (empty = pass)."""
    return [msg for _, bad in audit_verdicts(trace) for msg in bad]
