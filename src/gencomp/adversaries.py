"""Opponent enumerators for diagonalization runs.

Each opponent implements the enumeration-source protocol
new_elements(e, stage, trace): the elements it enumerates at `stage`, as
half-open runs (lo, hi), given read access to the trace through
stage - 1, the engine's whole state (it never sees the selector's future or
the current stage's rules).  Runs may overlap each other or elements
enumerated earlier; the engine normalizes them and keeps only what is new.
`CATALOG` holds the opponents a config names by kind alone, each of which
enumerates a few whole intervals per stage; `Scripted` lists a config's
elements stage by stage.  The cautious copier reads
`diagonal.functional_value_set`, so this module runs `diagonal`: every
command that runs an opponent runs the engine anyway.
"""

from __future__ import annotations

from .density import gap_interval
from .diagonal import functional_value_set
from .runs import from_elements, normalize


class Scripted:
    """Enumerates a fixed script: `schedule` maps a stage to the elements
    it lists then.  An element listed again later is not new, and the
    engine drops it."""

    def __init__(self, schedule):
        self.schedule = {stage: from_elements(elems) for stage, elems in schedule.items()}

    def new_elements(self, e, stage, trace):
        return self.schedule.get(stage, ())


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
    sides in pair mode), staying clear of every gap on its path."""

    name = "cautious-copier"

    def new_elements(self, e, stage, trace):
        approx = trace.final_approx.get(e)
        if approx is None:
            return []
        return normalize(run for i, bits in enumerate(approx)
                         for run in functional_value_set(trace, bits, i))


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
