"""Enumeration operators and conversions between computation styles.

An enumeration operator is a set of axioms (output, premise) with finite
premises; applied to an input set it yields every output whose premise is
contained in the input, so application is monotone by construction.

A FunctionalSpec is a deterministic machine that consumes stage-labelled
description triples (n, x, l) one at a time and cumulatively emits output
pairs.  Below an element bound and a label bound, both given by the
caller, such a machine compiles into an enumeration operator whose axiom
for (output, D) exists iff some ordering and labelling of D makes the
machine emit the output and none of any D minus one element does: the
minimal premises, which suffice because emissions accumulate along an
ordering, so what D's orderings emit is monotone in D.  Applying the
compiled operator to a plain description below the element bound equals
the union of the machine's emissions over all its orderings with labels
up to the label bound.  Compilation searches each (remaining elements,
state) pair once for all assignments, and its step budget counts each
machine step taken once.

On the reduction styles these two objects model: an operator consumes a
description as an unordered set (one fixed operator per reduction, blind
to enumeration order), while a stage machine may react to the order and
labels of its input.  The compilation above shows the two uniform styles
coincide.  Non-uniform variants (a different operator per input
description) have no operator-level representation and are not reified
here; only the operator- and machine-level constructions are.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Callable

from .errors import BudgetError, UndefinedInputError
from .records import Frozen


class EnumerationOperator(Frozen):
    """Axioms (output, premise) with premise a finite assignment or a
    finite set of plain naturals.  `extent` is one more than the largest
    index any premise references (0 when no premise references one): the
    bound every premise lies below."""

    __slots__ = ("axioms", "extent")

    def __init__(self, axioms: frozenset):
        object.__setattr__(self, "axioms", axioms)  # frozenset of (output, frozenset premise)
        object.__setattr__(self, "extent", max(
            (_index(el) + 1 for _, premise in axioms for el in premise), default=0))


def _index(element) -> int:
    return element[0] if isinstance(element, tuple) else element


def apply_operator(op: EnumerationOperator, members, bound: int) -> frozenset:
    """All outputs whose premise is contained in `members`.

    `members` is the input set, decidable below `bound` (for pair
    elements the bound constrains the index coordinate).  Any axiom
    referencing an element at or beyond the bound raises
    UndefinedInputError.
    """
    members = frozenset(members)
    if op.extent > bound:  # name the first premise element beyond the bound
        for _, premise in op.axioms:
            for el in premise:
                if _index(el) >= bound:
                    raise UndefinedInputError(
                        "axiom premise references %r beyond bound %d" % (el, bound)
                    )
    out = set()
    for output, premise in op.axioms:
        if premise <= members:
            out.add(output)
    return frozenset(out)


class FunctionalSpec(Frozen):
    """A deterministic stage machine over description triples.

    `step(state, (n, x, l))` returns (next state, emitted outputs); states
    must be hashable, and replaying the same sequence of triples always
    yields the same emissions.  A machine declares no bound of its own:
    compilation is finite because its caller bounds the elements and
    labels it searches.
    """

    __slots__ = ("start", "step")

    def __init__(self, start: Any, step: Callable[[Any, tuple], tuple]):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "step", step)


def all_assignments(element_bound: int):
    """Every finite assignment over indices below the bound, as a sorted
    tuple of (n, x) pairs (3^bound of them)."""
    for bits in product((None, 0, 1), repeat=element_bound):
        yield tuple((n, b) for n, b in enumerate(bits) if b is not None)


def union_over_labeled_orderings(phi: FunctionalSpec, assignment,
                                 label_bound: int) -> frozenset:
    """Reference evaluator: walk the full tree of labelled orderings with
    no state sharing, collecting every emission."""
    labels = range(label_bound + 1)
    items = tuple(assignment)
    out = set()

    def walk(remaining, state):
        for i, item in enumerate(remaining):
            rest = remaining[:i] + remaining[i + 1:]
            for l in labels:
                state2, emitted = phi.step(state, (item[0], item[1], l))
                out.update(emitted)
                walk(rest, state2)

    walk(items, phi.start)
    return frozenset(out)


def functional_to_operator(phi: FunctionalSpec, element_bound: int, label_bound: int,
                           step_budget: int = 2_000_000) -> EnumerationOperator:
    """Compile the machine into an enumeration operator over all finite
    assignments below the bounds; (a, D) is an axiom iff some labelled
    ordering of D makes the machine emit a and no labelled ordering of any
    D - {item} does.  What D's orderings emit is monotone in D, since an
    ordering of a subset is a prefix of an ordering of D, so these minimal
    axioms enumerate from every assignment what the whole upward closure
    would.  One search, memoized on (remaining, state), serves every
    assignment, since what such a pair reaches does not depend on the
    assignment it came from; the subsets D - {item} are assignments that
    search already covers, so each step taken costs one unit of
    `step_budget` as before."""
    labels = range(label_bound + 1)
    memo = {}

    def reach(remaining, state):
        nonlocal step_budget
        key = (remaining, state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = set()
        for item in remaining:
            rest = remaining - {item}
            for l in labels:
                step_budget -= 1
                if step_budget < 0:
                    raise BudgetError("compilation step budget exhausted")
                state2, emitted = phi.step(state, (item[0], item[1], l))
                out.update(emitted)
                out.update(reach(rest, state2))
        memo[key] = result = frozenset(out)
        return result

    axioms = set()
    for assignment in all_assignments(element_bound):
        premise = frozenset(assignment)
        # each premise - {item} is an earlier assignment, so the memo holds it
        minimal = reach(premise, phi.start).difference(
            *(reach(premise - {item}, phi.start) for item in premise))
        axioms.update((output, premise) for output in minimal)
    return EnumerationOperator(frozenset(axioms))


def _echo_step(state, triple):
    n, x, _ = triple
    return state, ((n, x),)


def _order_gate_step(state, triple):
    n, x, _ = triple
    if state == 0 and (n, x) == (1, 1):
        return 1, ()
    if state == 0 and (n, x) == (2, 1):
        return 2, ()
    if state == 1 and (n, x) == (2, 1):
        return 3, ((0, 1),)
    return state, ()


def _early_label_step(state, triple):
    n, x, l = triple
    if l == 0:
        return state, ((n, x),)
    return state, ()


def _late_label_step(state, triple):
    n, x, l = triple
    if l >= 2:
        return state, ((n, x),)
    return state, ()


def _threshold_step(state, triple):
    state += 1
    if state >= 3:
        return state, ((7, 1),)
    return state, ()


def _mirror_step(state, triple):
    n, x, _ = triple
    return state, ((n + 100, 1 - x),)


def battery() -> dict:
    """Named reference machines used by the compile scenario and tests."""
    return {
        "echo": FunctionalSpec(0, _echo_step),
        "order-gate": FunctionalSpec(0, _order_gate_step),
        "early-label": FunctionalSpec(0, _early_label_step),
        "late-label": FunctionalSpec(0, _late_label_step),
        "threshold3": FunctionalSpec(0, _threshold_step),
        "mirror": FunctionalSpec(0, _mirror_step),
    }
