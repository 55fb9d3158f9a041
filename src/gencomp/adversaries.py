"""Built-in opponent enumerators for diagonalization runs.

Each adversary implements the enumeration-source protocol
new_elements(e, stage, trace): the elements it enumerates at `stage`, as a
list of half-open runs (lo, hi), given read access to the trace through
stage - 1, the engine's whole state (it never sees the selector's future or
the current stage's rules).  Runs may overlap each other or elements
enumerated earlier; the engine normalizes them and keeps only what is new.
Every built-in opponent enumerates whole intervals, so a source's output
stays a handful of runs however large the stage.
"""

from __future__ import annotations

from .density import gap_interval


class Silent:
    """Never enumerates anything."""

    name = "silent"

    def new_elements(self, e, stage, trace):
        return []


class TrapSpringer:
    """Enumerates one element (the first) of the gap its strategy issued
    one stage earlier, if it acted then."""

    name = "trap-springer"

    def new_elements(self, e, stage, trace):
        if not stage or e not in trace.records[stage - 1].acts:
            return []
        lo = gap_interval(stage - 1, e)[0]
        return [(lo, lo + 1)]


class CautiousCopier:
    """Tracks the victim: enumerates everything definitely inside the
    functional's value under the current approximation (the union of both
    sides in pair mode), staying clear of every gap on its path: one run
    per block."""

    name = "cautious-copier"

    def new_elements(self, e, stage, trace):
        approx = trace.final_approx.get(e)
        if approx is None:
            return []
        out = []
        for block in range(trace.defined_through + 1):
            lo, hi = 1 << block, 1 << (block + 1)
            excl = [trace.excluded_interval(i, block, side) for i, side in enumerate(approx)]
            # a side without an exclusion keeps the whole block in the union
            cut = hi if None in excl else max(ex[0] for ex in excl)
            if lo < cut:
                out.append((lo, cut))
        return out


class PrefixFlooder:
    """Enumerates the whole prefix [0, 2^stage) at each stage.  Since 0 is
    never in a functional's value, its strategy tree empties at the first
    level computation."""

    name = "prefix-flooder"

    def new_elements(self, e, stage, trace):
        return [(0, 1 << stage)]


CATALOG = {
    Silent.name: Silent,
    TrapSpringer.name: TrapSpringer,
    CautiousCopier.name: CautiousCopier,
    PrefixFlooder.name: PrefixFlooder,
}
