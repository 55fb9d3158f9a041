"""A brute-force reference for the diagonal engine's stages.

It decides one stage from the definitions alone, reading only the stage
records before it.  Every node of the level is materialized as one bit
string per side, except that `survivor_extending` walks only the
extensions of one node, and not below a dead one.  A node of length l
dies when 0 is enumerated, or when an element below 2^l that the
strategy's opponent enumerated through stage l lies, on every side, in
the gap of some act whose marker prefixes that side's string.  An act of
strategy f at stage s gaps `gap_interval(s, f)`.  Nothing here builds a
`LevelContext`, searches a level or calls `Trace.evaluate`, so the
engine's survivor search, path choice and marker choice are checked
against an independent computation.
"""

from functools import lru_cache
from itertools import product

from gencomp.density import gap_interval


@lru_cache(maxsize=None)
def level_nodes(sides: int, l: int) -> tuple:
    """Every level-l node, in interleaved-bit order: lexicographic in the
    bits x_0 y_0 x_1 y_1 ..., so x's bit comes first at each depth."""
    return tuple(tuple("".join(bits[i::sides]) for i in range(sides))
                 for bits in product("01", repeat=sides * l))


def _dead(trace, e: int, l: int):
    """Whether a level-l node of strategy e's tree is dead, as a predicate."""
    records = trace.records[:l + 1]
    enum = {n for rec in records for lo, hi in rec.batches.get(e, ()) for n in range(lo, min(hi, 1 << l))}
    if 0 in enum:
        return lambda node: True
    # each element's witness: per side, the markers of the acts whose gap holds it
    witnesses = set()
    for n in enum:
        block = n.bit_length() - 1
        acts = records[block].acts.items()
        witnesses.add(tuple(
            frozenset(marker[i] for f, (_, marker) in acts if gap_interval(block, f)[0] <= n)
            for i in range(len(trace.sides))
        ))

    def dead(node):
        prefixes = [{side[:j] for j in range(l + 1)} for side in node]
        return any(all(p & w for p, w in zip(prefixes, witness)) for witness in witnesses)

    return dead


def survivor_extending(trace, e: int, l: int, node):
    """Some surviving level-l node of strategy e's tree that extends
    `node`, or None.  A witness whose markers prefix a node's strings
    prefixes its extensions' strings too, so a dead node's extensions are
    dead and the walk does not descend below it."""
    dead = _dead(trace, e, l)
    stack = [node]
    while stack:
        node = stack.pop()
        if dead(node):
            continue
        if len(node[0]) == l:
            return node
        stack.extend(tuple(map(str.__add__, node, bits)) for bits in product("01", repeat=len(node)))
    return None


def reference_level(trace, e: int, l: int) -> list:
    """The surviving level-l nodes of strategy e's tree, in order."""
    dead = _dead(trace, e, l)
    return [node for node in level_nodes(len(trace.sides), l) if not dead(node)]


def reference_stage(trace, selectors, s: int) -> tuple:
    """(acts, deaths) of stage s, from the trace's records through s-1 and
    each strategy's selector.  Strategy e starts at stage e+1.  A live
    strategy with an empty level s-1 dies, so it is dead before s if some
    stage t, e < t < s, holds no act of it: its deaths are read off the
    acts alone.  Otherwise its path is the first survivor padded with 0s
    (leftmost), the last padded with 1s (rightmost), or the latest scripted
    guess from stage s on, padded with 0s and cut to s bits (before the
    first one: the leftmost survivor).  Its marker is the shortest prefix
    of the path that is no earlier marker's string on any side."""
    records = trace.records[:s]
    k, l = len(trace.sides), s - 1
    acts, deaths = {}, []
    for e, selector in enumerate(selectors[:s]):
        if any(e not in rec.acts for rec in records[e + 1:]):
            continue
        dead = _dead(trace, e, l)
        nodes = level_nodes(k, l)
        stem = next((node for node in (nodes[::-1] if selector.bit == "1" else nodes)
                     if not dead(node)), None)
        if stem is None:
            deaths.append(e)
            continue
        guesses = [node for start, node in selector.entries if start <= s]
        if guesses:
            path = tuple((side + "0" * s)[:s] for side in guesses[-1])
            assert not dead(tuple(side[:l] for side in path)), "scripted guess off the tree"
        else:
            path = tuple(side + selector.bit * (s - len(side)) for side in stem)
        marked = [{rec.acts[e][1][i] for rec in records if e in rec.acts} for i in range(k)]
        j = next(j for j in range(s + 1) if all(p[:j] not in m for p, m in zip(path, marked)))
        acts[e] = (path, tuple(p[:j] for p in path))
    return acts, tuple(deaths)
