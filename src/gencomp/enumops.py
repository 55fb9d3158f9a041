"""Enumeration operators and conversions between computation styles.

An enumeration operator is a set of axioms (output, premise) with finite
premises; applied to an input set it yields every output whose premise is
contained in the input, so application is monotone by construction.

A FunctionalSpec is a deterministic machine that consumes stage-labelled
description triples (n, x, l) one at a time and cumulatively emits output
pairs.  Such a machine compiles into an enumeration operator whose axiom
for (output, D) exists iff some ordering and labelling of D makes the
machine emit the output; equivalently, applying the compiled operator to
a plain description equals the union of the machine's emissions over all
labelled orderings of that description.

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
from typing import Any, Callable, Iterable, Optional

from .errors import BudgetError, InsufficientOracleError, UndefinedInputError
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


def apply_operator(op: EnumerationOperator, members, bound: int,
                   positive_only: bool = False) -> frozenset:
    """All outputs whose premise is contained in `members`.

    `members` is the input set, decidable below `bound` (for pair
    elements the bound constrains the index coordinate).  Any axiom
    referencing an element at or beyond the bound raises
    InsufficientOracleError.  With positive_only, axioms whose premise
    contains a negative pair (n, 0) are unusable and skipped.
    """
    members = frozenset(members)
    if op.extent > bound:  # name the first premise element beyond the bound
        for _, premise in op.axioms:
            for el in premise:
                if _index(el) >= bound:
                    raise InsufficientOracleError(
                        "axiom premise references %r beyond bound %d" % (el, bound)
                    )
    out = set()
    for output, premise in op.axioms:
        if positive_only and any(isinstance(el, tuple) and el[1] == 0 for el in premise):
            continue
        if premise <= members:
            out.add(output)
    return frozenset(out)


class FunctionalSpec(Frozen):
    """A deterministic stage machine over description triples.

    `step(state, (n, x, l))` returns (next state, emitted outputs); states
    must be hashable, and replaying the same sequence of triples always
    yields the same emissions.  `use_bound` / `label_use` declare element
    and label bounds beyond which inputs cannot affect the outputs, which
    is what keeps compilation searches finite.
    """

    __slots__ = ("name", "start", "step", "use_bound", "label_use")

    def __init__(self, name: str, start: Any, step: Callable[[Any, tuple], tuple],
                 use_bound: Optional[int] = None, label_use: Optional[int] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "use_bound", use_bound)
        object.__setattr__(self, "label_use", label_use)

    def run(self, triples: Iterable[tuple]) -> frozenset:
        """Cumulative emissions after consuming the triples in order."""
        state = self.start
        out = set()
        for t in triples:
            state, emitted = self.step(state, t)
            out.update(emitted)
        return frozenset(out)


def all_assignments(element_bound: int):
    """Every finite assignment over indices below the bound, as a sorted
    tuple of (n, x) pairs (3^bound of them)."""
    for bits in product((None, 0, 1), repeat=element_bound):
        yield tuple((n, b) for n, b in enumerate(bits) if b is not None)


def reachable_outputs(phi: FunctionalSpec, assignment, label_bound: int,
                      budget: Optional[list] = None) -> frozenset:
    """Everything the machine can emit over some labelled ordering of the
    assignment, by depth-first search memoized on (remaining, state)."""
    labels = range(label_bound + 1)
    memo = {}

    def go(remaining, state):
        key = (remaining, state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = set()
        for item in remaining:
            rest = remaining - {item}
            for l in labels:
                if budget is not None:
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise BudgetError("compilation step budget exhausted")
                state2, emitted = phi.step(state, (item[0], item[1], l))
                out.update(emitted)
                out.update(go(rest, state2))
        result = frozenset(out)
        memo[key] = result
        return result

    return go(frozenset(assignment), phi.start)


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


def functional_to_operator(phi: FunctionalSpec, element_bound: Optional[int] = None,
                           label_bound: Optional[int] = None,
                           step_budget: int = 2_000_000) -> EnumerationOperator:
    """Compile the machine into an enumeration operator over all finite
    assignments below the bounds; (a, D) is an axiom iff some labelled
    ordering of D makes the machine emit a."""
    if element_bound is None:
        element_bound = phi.use_bound
    if label_bound is None:
        label_bound = phi.label_use
    if element_bound is None or label_bound is None:
        raise UndefinedInputError("element and label bounds are required")
    budget = [step_budget]
    axioms = set()
    for assignment in all_assignments(element_bound):
        for output in reachable_outputs(phi, assignment, label_bound, budget):
            axioms.add((output, frozenset(assignment)))
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
        "echo": FunctionalSpec("echo", 0, _echo_step, use_bound=5, label_use=3),
        "order-gate": FunctionalSpec("order-gate", 0, _order_gate_step, use_bound=5, label_use=3),
        "early-label": FunctionalSpec("early-label", 0, _early_label_step, use_bound=5, label_use=3),
        "late-label": FunctionalSpec("late-label", 0, _late_label_step, use_bound=5, label_use=3),
        "threshold3": FunctionalSpec("threshold3", 0, _threshold_step, use_bound=5, label_use=3),
        "mirror": FunctionalSpec("mirror", 0, _mirror_step, use_bound=5, label_use=3),
    }
