import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.enumops import (
    EnumerationOperator,
    FunctionalSpec,
    all_assignments,
    apply_operator,
    battery,
    functional_to_operator,
    union_over_labeled_orderings,
)
from gencomp.errors import BudgetError, InsufficientOracleError
from gencomp.reals import SeededReal
from oracles import run_machine


def op_of(*axioms):
    return EnumerationOperator(frozenset((out, frozenset(d)) for out, d in axioms))


def test_apply_operator_examples():
    w = op_of((5, []))
    assert apply_operator(w, frozenset(), 10) == {5}
    w2 = op_of((7, [2, 4]))
    assert apply_operator(w2, {2}, 10) == frozenset()
    assert apply_operator(w2, {2, 4, 9}, 10) == {7}


def test_apply_operator_oracle_bound():
    w = op_of((7, [2, 40]))
    with pytest.raises(InsufficientOracleError):
        apply_operator(w, {2}, 10)
    w_pairs = op_of(((0, 1), [(12, 1)]))
    with pytest.raises(InsufficientOracleError):
        apply_operator(w_pairs, set(), 10)


def apply_per_axiom(op, members, bound):
    """apply_operator as first written: every axiom's premise is checked
    against the bound before the axiom is used."""
    members = frozenset(members)
    out = set()
    for output, premise in op.axioms:
        for el in premise:
            if (el[0] if isinstance(el, tuple) else el) >= bound:
                raise InsufficientOracleError(
                    "axiom premise references %r beyond bound %d" % (el, bound)
                )
        if premise <= members:
            out.add(output)
    return frozenset(out)


def _applied(apply, *args):
    try:
        return apply(*args)
    except InsufficientOracleError as exc:
        return ("insufficient", str(exc))


_ELEMENTS = st.one_of(st.integers(0, 12), st.tuples(st.integers(0, 12), st.sampled_from((0, 1))))


@given(
    st.lists(st.tuples(st.integers(0, 20), st.frozensets(_ELEMENTS, max_size=4)), max_size=12),
    st.frozensets(_ELEMENTS, max_size=20),
    st.lists(st.integers(0, 14), min_size=1, max_size=3),
)
@settings(max_examples=400)
def test_apply_operator_matches_per_axiom_reference(axioms, members, bounds):
    # plain and pair premises, bounds on both sides of the premise extent,
    # several bounds against one operator's cached extent
    op = op_of(*axioms)
    indices = [el[0] if isinstance(el, tuple) else el for _, d in op.axioms for el in d]
    assert op.extent == max(indices, default=-1) + 1
    for bound in bounds:
        expected = _applied(apply_per_axiom, op, members, bound)
        assert _applied(apply_operator, op, members, bound) == expected
        assert isinstance(expected, tuple) == any(n >= bound for n in indices)


@given(
    st.frozensets(st.integers(0, 9), max_size=6),
    st.frozensets(st.integers(0, 9), max_size=6),
)
@settings(max_examples=120)
def test_apply_operator_monotone(s_small, extra):
    w = op_of((1, [2, 3]), (2, [0]), (9, [5, 6, 7]))
    bigger = s_small | extra
    assert apply_operator(w, s_small, 10) <= apply_operator(w, bigger, 10)


def test_apply_operator_finite_support():
    w = op_of((1, [2, 3]), (2, [0]), (5, []))
    s = frozenset({0, 2, 3, 8})
    from itertools import combinations

    union = set()
    for k in range(len(s) + 1):
        for subset in combinations(sorted(s), k):
            union |= apply_operator(w, frozenset(subset), 10)
    assert union == apply_operator(w, s, 10)


def test_echo_compilation_contains_singletons():
    phi = battery()["echo"]
    w = functional_to_operator(phi, 3, 1)
    for n in range(3):
        for x in (0, 1):
            assert ((n, x), frozenset({(n, x)})) in w.axioms


def test_order_gate_compiled_axiom():
    phi = battery()["order-gate"]
    w = functional_to_operator(phi, 3, 1)
    # some ordering reads (1,1) before (2,1), so the axiom exists
    assert ((0, 1), frozenset({(1, 1), (2, 1)})) in w.axioms
    assert apply_operator(w, {(1, 1), (2, 1)}, 3) == {(0, 1)}
    # direct runs: one order emits, the other does not
    assert run_machine(phi, [(1, 1, 0), (2, 1, 0)]) == {(0, 1)}
    assert run_machine(phi, [(2, 1, 0), (1, 1, 0)]) == frozenset()


def test_silent_machine_compiles_empty():
    silent = FunctionalSpec(0, lambda st_, t: (st_, ()))
    assert functional_to_operator(silent, 4, 2).axioms == frozenset()


def test_reachable_equals_bruteforce_union():
    # the compiled axioms on each exact premise, not only their union over
    # its subsets, are what the labelled orderings of that premise emit and
    # those of no premise one element smaller do
    for name, phi in battery().items():
        w = functional_to_operator(phi, 3, 2)
        for assignment in all_assignments(3):
            premise = frozenset(assignment)
            exact = {output for output, d in w.axioms if d == premise}
            below = set()
            for item in assignment:
                smaller = tuple(other for other in assignment if other != item)
                below |= union_over_labeled_orderings(phi, smaller, 2)
            assert exact == union_over_labeled_orderings(phi, assignment, 2) - below, name


def test_operator_matches_orderings_small():
    for name, phi in battery().items():
        w = functional_to_operator(phi, 3, 2)
        for assignment in all_assignments(3):
            assert apply_operator(w, frozenset(assignment), 3) == union_over_labeled_orderings(
                phi, assignment, 2
            ), name


def test_label_sensitive_machines_differ_by_label():
    early = battery()["early-label"]
    assert run_machine(early, [(1, 1, 0)]) == {(1, 1)}
    assert run_machine(early, [(1, 1, 2)]) == frozenset()
    late = battery()["late-label"]
    assert run_machine(late, [(1, 1, 2)]) == {(1, 1)}
    assert run_machine(late, [(1, 1, 0)]) == frozenset()


def test_no_false_bits_preserved_by_compilation():
    # machines that never emit a false bit about the target on any labelled
    # ordering of a truthful description keep that property through the
    # compiled operator
    target = SeededReal(77)
    bound, labels = 4, 2
    truthful = [
        tuple((n, target.bit(n)) for n in ns)
        for ns in ([], [0], [1, 3], [0, 1, 2], [0, 1, 2, 3])
    ]
    for name in ("echo", "early-label", "late-label"):
        phi = battery()[name]
        premise_ok = all(
            all(y == target.bit(m) for (m, y) in union_over_labeled_orderings(phi, d, labels))
            for d in truthful
        )
        assert premise_ok
        w = functional_to_operator(phi, bound, labels)
        for d in truthful:
            for m, y in apply_operator(w, frozenset(d), bound):
                assert y == target.bit(m)


def test_compile_budget():
    phi = battery()["echo"]
    with pytest.raises(BudgetError):
        functional_to_operator(phi, 5, 3, step_budget=50)


def test_compile_takes_each_distinct_step_once():
    # echo's state never changes, so each assignment below element bound 3
    # is one (remaining, state) pair, searched once at |remaining| * 2 steps
    echo = battery()["echo"]
    steps = [0]

    def counted(state, triple):
        steps[0] += 1
        return echo.step(state, triple)

    phi = FunctionalSpec(echo.start, counted)
    axioms = functional_to_operator(echo, 3, 1).axioms
    assert functional_to_operator(phi, 3, 1).axioms == axioms
    assert steps[0] == 108
    with pytest.raises(BudgetError, match="^compilation step budget exhausted$"):
        functional_to_operator(phi, 3, 1, step_budget=107)
    assert functional_to_operator(phi, 3, 1, step_budget=108).axioms == axioms


def test_operator_extent_bounds_every_premise():
    assert op_of().extent == 0
    assert op_of((5, [])).extent == 0
    assert op_of((7, [2, 4]), (1, [0])).extent == 5
    w = op_of(((0, 1), [(12, 1), (3, 0)]))
    assert w.extent == 13
    assert apply_operator(w, {(12, 1), (3, 0)}, 13) == {(0, 1)}
    with pytest.raises(InsufficientOracleError):
        apply_operator(w, set(), 12)


def test_all_assignments_enumerates_each_partial_assignment_once():
    for k in range(5):
        got = list(all_assignments(k))
        assert len(got) == len(set(got)) == 3 ** k
        for a in got:
            assert [n for n, _ in a] == sorted({n for n, _ in a})
            assert all(0 <= n < k and x in (0, 1) for n, x in a)
    assert list(all_assignments(0)) == [()]


def test_threshold_and_mirror_machines():
    threshold = battery()["threshold3"]
    assert run_machine(threshold, [(0, 1, 0), (1, 0, 0)]) == frozenset()
    assert run_machine(threshold, [(0, 1, 0), (1, 0, 0), (2, 1, 0)]) == {(7, 1)}
    mirror = battery()["mirror"]
    assert run_machine(mirror, [(2, 1, 0), (3, 0, 1)]) == {(102, 0), (103, 1)}
    assert run_machine(mirror, []) == frozenset()
