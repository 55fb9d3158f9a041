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
replays bit-for-bit from its config: per stage, the new elements, the acts
and the deaths.  The acts of stage s are the gap rules of block s.  The
trace is also the engine's only state, stage s being computed from its
records through s-1.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from operator import add
from os.path import commonprefix
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
    """Materialize the whole surviving level (tests and small audits)."""
    return list(_level_dfs(ctx, "01", budget))


def select_marker_node(path, marked):
    """Shortest prefix of the path (root included) whose string on every
    side is unmarked there: `marked` holds one set of strings per side."""
    taken = {len(bits) for side, strings in zip(path, marked) for bits in strings
             if side.startswith(bits)}
    for k in range(len(path[0]) + 1):
        if k not in taken:
            return tuple(side[:k] for side in path)
    raise SelectorCapError("every path prefix through the cap is marked")


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
    """What one stage did; equal when the fields are.  An act's
    approximation and marker each hold one bit string per side."""

    __slots__ = ("stage", "batches", "acts", "deaths", "trap_events")

    def __init__(self, stage: int, batches: dict, acts: dict, deaths: tuple, trap_events: tuple):
        self.stage = stage
        self.batches = batches          # e -> run set of new elements, for every strategy
        self.acts = acts                # e -> (approx, marker), in ascending e
        self.deaths = deaths            # the strategies whose tree emptied, ascending
        self.trap_events = trap_events  # (e, gap_stage, lo, hi): new run [lo, hi) inside the gap

    def __eq__(self, other):
        if type(other) is not StageRecord:
            return NotImplemented
        return ((self.stage, self.batches, self.acts, self.deaths, self.trap_events)
                == (other.stage, other.batches, other.acts, other.deaths, other.trap_events))


class Trace:
    """Replayable record of one construction run, and the engine's only
    state.  The stage records are all it stores; `append` keeps the views
    read off them, per strategy e: the enumerated run set, the markers as
    (stage, marker) pairs, the last approximation (None before the first
    act) and the death stage (None while alive).  The gap rules of block s
    are the acts of `records[s]`, which `gaps[s]` lists in act order as
    (gap interval, marker) pairs.  After stage s the functionals are defined
    on [1, 2^(s+1)).  Records given to the constructor are fed through
    `append` too, so the engine, the loader and any caller rebuilding a trace
    from edited records build it the same way."""

    __slots__ = ("mode", "records", "config_echo", "gaps", "enumerated", "markers",
                 "final_approx", "death_stage", "_censuses")

    def __init__(self, mode: str, records=(), config_echo: Optional[dict] = None):
        self.mode = mode
        self.records = []
        self.config_echo = config_echo
        self.gaps = []
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
        s, k = rec.stage, len(self.sides)
        if s != len(self.records):
            raise InvariantViolationError("record of stage %r follows %d records" % (s, len(self.records)))
        gaps = []
        for e, (approx, marker) in rec.acts.items():
            if not len(approx) == len(marker) == k:
                raise InvariantViolationError(
                    "act of strategy %d at stage %d has not one string per side" % (e, s)
                )
            gaps.append((gap_interval(s, e), marker))
        for e, batch in rec.batches.items():
            known = self.enumerated.get(e, ())
            self.enumerated[e] = union(known, batch) if batch else known
            self.markers.setdefault(e, ())
            self.final_approx.setdefault(e, None)
            self.death_stage.setdefault(e, None)
        for e, (approx, marker) in rec.acts.items():
            self.markers[e] += ((s, marker),)
            self.final_approx[e] = approx
        for e in rec.deaths:
            self.death_stage[e] = s
        self.gaps.append(tuple(gaps))
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
            raise UndefinedRegionError(
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
        for rec in self.records:
            if rec.stage > stage:
                break
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
        for stage, (node, _) in ((rec.stage, rec.acts[e]) for rec in self.records if e in rec.acts):
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
    trap_events = []
    for e, spec in enumerate(cfg.strategies):
        new = normalize(spec.source.new_elements(e, s, trace))
        new = difference(new, trace.enumerated.get(e, ()))
        batches[e] = new
        if not new:
            continue
        for stage, _ in trace.markers.get(e, ()):  # traps are x-side gaps
            trap_events.extend((e, stage, lo, hi) for lo, hi in clip(new, *gap_interval(stage, e)))
    acts, deaths = {}, []
    for e in range(min(s, len(cfg.strategies))):  # the started strategies
        if trace.death_stage[e] is None:
            act = _act(trace, cfg, e, s)
            if act is None:
                deaths.append(e)
            else:
                acts[e] = act
    return StageRecord(s, batches, acts, tuple(deaths), tuple(trap_events))


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

TRACE_FORMAT = "gencomp-trace/5"


def trace_to_jsonable(trace: Trace) -> dict:
    """The trace as a document.  A record lists what its stage did: the
    rules, the trap events, the non-empty batches, one act [e, p, suffix
    per side] per strategy that acted and the strategies that died.  An
    act's approximation is the first p bits of the strategy's previous one
    on every side, followed by the suffixes.  Its marker is a prefix of the
    approximation on every side, and its rules are those prefixes, so a
    rule is written as its node's length: one per act and side, in act and
    then side order."""
    last = {}
    records = []
    for rec in trace.records:
        acts = []
        for e, (approx, _) in rec.acts.items():
            old = last.get(e, ("",) * len(approx))
            p = min(len(a) if b.startswith(a) else len(commonprefix((a, b))) for a, b in zip(old, approx))
            acts.append([e, p, *(side[p:] for side in approx)])
            last[e] = approx
        records.append({
            "stage": rec.stage,
            "rules": [len(node) for _, marker in rec.acts.values() for node in marker],
            "trap_events": [list(t) for t in rec.trap_events],
            "batches": [[e, [list(run) for run in runs]] for e, runs in sorted(rec.batches.items()) if runs],
            "acts": acts,
            "deaths": list(rec.deaths),
        })
    return {
        "format": TRACE_FORMAT,
        "mode": trace.mode,
        "stages": len(trace.records),
        "strategy_count": trace.strategy_count,
        "defined_through": trace.defined_through,
        "config": trace.config_echo,
        "records": records,
    }


def trace_from_jsonable(doc: dict) -> Trace:
    """The trace a document records.  The mode, the stage count, the
    strategy count, the echoed config and the records are read; the defined
    horizon is a view of the records, checked by replay.  Each record is
    read as its batches, its acts and its deaths: an act's marker is the
    prefix of its approximation on every side that the act's rule lengths
    give, and the act is then the gap rules of its block.  A document the
    engine could not have written is rejected with a named violation: a
    field of the wrong type or arity, a count that is not a natural number,
    a batch that is not a run set or not the strategy's only one, a trap
    event that is not four naturals, acts and deaths that disagree, are out
    of order or come from a strategy that has not started, an approximation
    of the wrong length or not of bits, or rule lengths that are not one
    natural through the stage per act and side."""
    if doc.get("format") != TRACE_FORMAT:
        raise UndefinedInputError("unsupported trace format %r" % doc.get("format"))
    mode, stages, count, config, docs = map(doc.get, ("mode", "stages", "strategy_count", "config", "records"))
    # a mode that is no string (a list, an object) may not be hashable
    if type(mode) is not str or mode not in SIDES:
        raise InvariantViolationError("trace mode %r is neither single nor pair" % (mode,))
    if not is_natural(count):
        raise InvariantViolationError("strategy count %r is not a natural number" % (count,))
    if config is not None:
        listed = config.get("strategies") if type(config) is dict else None
        if type(listed) is not list:
            raise InvariantViolationError("config echo %r lists no strategies" % (config,))
        if len(listed) != count:
            raise InvariantViolationError(
                "strategy count %d, but the config lists %d strategies" % (count, len(listed))
            )
    if type(docs) is not list:
        raise InvariantViolationError("records %r are not a list" % (docs,))
    if not is_natural(stages) or stages != len(docs):
        raise InvariantViolationError("stage count %r, but the trace has %d records" % (stages, len(docs)))
    trace = Trace(mode, (), config)
    k = len(trace.sides)
    dead = set()
    for rd in docs:
        s = rd.get("stage") if type(rd) is dict else None
        if not is_natural(s) or s != len(trace.records):
            raise InvariantViolationError("record of stage %r follows %d records" % (s, len(trace.records)))
        batch_docs, act_docs, deaths, lengths, events = (
            _list_of(rd.get(key), None, key, s) for key in ("batches", "acts", "deaths", "rules", "trap_events")
        )
        batches = {}
        for entry in batch_docs:
            e, runs = _list_of(entry, 2, "batch entry", s)
            if not is_natural(e) or e >= count:
                raise InvariantViolationError("batch of strategy %r in a %d-strategy trace" % (e, count))
            if e in batches:
                raise InvariantViolationError("second batch of strategy %d at stage %d" % (e, s))
            naturals = type(runs) is list and all(
                type(run) is list and len(run) == 2 and all(map(is_natural, run)) for run in runs
            )
            batch = tuple(map(tuple, runs)) if naturals else None
            if not naturals or batch != normalize(batch):
                raise InvariantViolationError(
                    "batch %r of strategy %d at stage %d is not a run set" % (runs, e, s)
                )
            batches[e] = batch
        acts = {}
        for act in act_docs:
            e, p, *suffixes = _list_of(act, 2 + k, "act", s)
            _turn(e, s, "acts", count, dead, acts)
            old = trace.final_approx.get(e) or ("",) * k
            if not is_natural(p) or p > len(old[0]):
                raise InvariantViolationError(
                    "act of strategy %d at stage %d keeps %r bits of a %d-bit approximation"
                    % (e, s, p, len(old[0]))
                )
            if not all(map(is_bits, suffixes)):
                raise InvariantViolationError(
                    "act of strategy %d at stage %d has suffixes %r, not bit strings" % (e, s, suffixes)
                )
            approx = tuple([a[:p] + b for a, b in zip(old, suffixes)])
            if set(map(len, approx)) != {s}:
                raise InvariantViolationError(
                    "act of strategy %d at stage %d rebuilds %r, not %d bits per side" % (e, s, approx, s)
                )
            acts[e] = approx
        alive = min(s, count) - len(dead)
        for e in deaths:
            _turn(e, s, "dies", count, dead, acts)
            dead.add(e)
        if len(lengths) != len(acts) * k:
            raise InvariantViolationError(
                "acts at stage %d issue %d rules, but the record lists %d"
                % (s, len(acts) * k, len(lengths))
            )
        for i, n in enumerate(lengths):
            if not is_natural(n) or n > s:
                raise InvariantViolationError("rule %d at stage %d has a node of length %r" % (i, s, n))
        # every strategy started and alive before stage s acts or dies at s
        if len(acts) + len(deaths) != alive:
            e = next(e for e in range(min(s, count)) if e not in dead and e not in acts)
            raise InvariantViolationError("live strategy %d neither acts nor dies at stage %d" % (e, s))
        if list(acts) != sorted(acts) or deaths != sorted(deaths):
            raise InvariantViolationError("acts or deaths at stage %d are out of strategy order" % s)
        for t in events:
            if type(t) is not list or len(t) != 4 or not all(map(is_natural, t)):
                raise InvariantViolationError("trap event %r at stage %d is not four naturals" % (t, s))
        length = iter(lengths)
        acts = {e: (approx, tuple(a[:next(length)] for a in approx)) for e, approx in acts.items()}
        batches = {e: batches.get(e, ()) for e in range(count)}
        trace.append(StageRecord(s, batches, acts, tuple(deaths), tuple(map(tuple, events))))
    return trace


def _list_of(v, n: Optional[int], what: str, s: int) -> list:
    """v, if it is a list (of n items when n is given)."""
    if type(v) is not list or n is not None and len(v) != n:
        raise InvariantViolationError(
            "%s of stage %d: %r is not a list%s" % (what, s, v, "" if n is None else " of %d items" % n)
        )
    return v


def _turn(e, s: int, verb: str, count: int, dead: set, acts: dict):
    """Check that strategy e may act or die at stage s: it has started
    (e < s), is alive and has not acted or died at s yet."""
    if not is_natural(e) or e >= count:
        raise InvariantViolationError("strategy %r %s in a %d-strategy trace" % (e, verb, count))
    if e >= s:
        raise InvariantViolationError("strategy %d %s at stage %d, before it starts" % (e, verb, s))
    if e in dead or e in acts:
        raise InvariantViolationError(
            "strategy %d %s at stage %d, after it %s" % (e, verb, s, "acted" if e in acts else "died")
        )


# ---------------------------------------------------------------------------
# trace audits (used by the harness `verify` command and by the test suite)


def audit_marker_on_path(trace: Trace) -> list:
    """Every marker placed at stage s must prefix that stage's approx."""
    bad = []
    for rec in trace.records:
        for e, (approx, marker) in rec.acts.items():
            if not _extends(approx, marker):
                bad.append("marker %r off path at stage %d (strategy %d)" % (marker, rec.stage, e))
    return bad


def audit_trap_soundness(trace: Trace) -> list:
    """Every sprung trap carries its own witness: the event's run [lo, hi)
    is in its record's batch, after the trapped act's stage and inside its
    gap, so every side evaluates `lo` to 0 under the act's marker.  By
    prefix determinism `lo` then spoils every extension of that marker at
    every later level, so no later level is searched."""
    bad = []
    for rec in trace.records:
        for e, gap_stage, lo, hi in rec.trap_events:
            act = trace.records[gap_stage].acts.get(e) if gap_stage <= trace.defined_through else None
            if act is None:
                reason = "references a rule the trace does not contain"
            elif clip(rec.batches.get(e, ()), lo, hi) != ((lo, hi),):
                reason = "is not in strategy %d's batch of stage %d" % (e, rec.stage)
            elif gap_stage >= rec.stage:
                reason = "at stage %d does not follow its rule" % rec.stage
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
    name, inputs, violations), in report order."""
    whole = {"stages": len(trace.records), "strategies": trace.strategy_count}
    out = [
        ("marker-on-path", whole, audit_marker_on_path(trace)),
        ("trap-soundness", whole, audit_trap_soundness(trace)),
        ("spoiling-completeness", whole, audit_spoiling(trace)),
    ]
    for e in range(trace.strategy_count):
        probes = default_probe_prefixes(trace, e)
        out.append(("single-victim", {"strategy": e, "probes": len(probes)},
                    audit_single_victim(trace, e, probes)))
    for _, i, prefix in census_prefixes(trace):
        out.append(("gap-census-consistency", {"prefix": prefix, "side": trace.sides[i]},
                    audit_gap_census_consistency(trace, prefix, i)))
    return out


def audit_trace(trace: Trace) -> list:
    """All standard audits; returns the list of violations (empty = pass)."""
    return [msg for _, _, bad in audit_verdicts(trace) for msg in bad]
