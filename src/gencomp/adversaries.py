"""Built-in opponent enumerators for diagonalization runs.

Each adversary implements the enumeration-source protocol
new_elements(e, stage, view): the elements it enumerates at `stage`, as a
list of half-open runs (lo, hi), given read access to the public trace
through the previous stage (it never sees the selector's future or the
current stage's rules).  Runs may overlap each other or elements
enumerated earlier; the engine normalizes them and keeps only what is new.
Every built-in opponent enumerates whole intervals, so a source's output
stays a handful of runs however large the stage.
"""

from __future__ import annotations


class Silent:
    """Never enumerates anything."""

    name = "silent"

    def new_elements(self, e, stage, view):
        return []


class TrapSpringer:
    """Enumerates one element (the first) of each gap its strategy issued
    one stage earlier, read off the trace."""

    name = "trap-springer"

    def new_elements(self, e, stage, view):
        if stage == 0:
            return []
        return sorted({(r.gap_lo, r.gap_lo + 1) for r in view.rules_issued_at(stage - 1, e)})


class CautiousCopier:
    """Tracks the victim: enumerates everything definitely inside the
    functional's value under the current approximation (the union of both
    sides in pair mode), staying clear of every gap on its path: one run
    per block."""

    name = "cautious-copier"

    def new_elements(self, e, stage, view):
        approx = view.approx(e)
        if approx is None:
            return []
        out = []
        for block in range(view.defined_through + 1):
            lo, hi = 1 << block, 1 << (block + 1)
            excl = [t.excluded_interval(block, side) for t, side in zip(view.tables, approx)]
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

    def new_elements(self, e, stage, view):
        return [(0, 1 << stage)]


CATALOG = {
    Silent.name: Silent,
    TrapSpringer.name: TrapSpringer,
    CautiousCopier.name: CautiousCopier,
    PrefixFlooder.name: PrefixFlooder,
}
