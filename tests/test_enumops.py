import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomp.enumops import (
    EnumerationOperator,
    FunctionalSpec,
    all_assignments,
    apply_operator,
    battery,
    finite_assignment,
    functional_to_operator,
    generic_computation_from_subset_enumeration,
    reachable_outputs,
    subset_enumeration_from_generic_computation,
    union_over_labeled_orderings,
)
from gencomp.errors import BudgetError, FalsifiedPremiseError, InsufficientOracleError
from gencomp.reals import Enumerator, SeededReal, all_zeros


def op_of(*axioms):
    return EnumerationOperator(frozenset((out, frozenset(d)) for out, d in axioms))


def test_finite_assignment_validation():
    assert finite_assignment([(1, 0), (2, 1)]) == frozenset({(1, 0), (2, 1)})
    with pytest.raises(ValueError):
        finite_assignment([(1, 0), (1, 1)])


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


def test_apply_operator_positive_only():
    w = op_of((3, [(1, 0)]), (4, [(2, 1)]))
    members = {(1, 0), (2, 1)}
    assert apply_operator(w, members, 5) == {3, 4}
    # negative premises are unusable under the positive-information regime
    assert apply_operator(w, members, 5, positive_only=True) == {4}


def apply_per_axiom(op, members, bound, positive_only=False):
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
        if positive_only and any(isinstance(el, tuple) and el[1] == 0 for el in premise):
            continue
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
    st.booleans(),
)
@settings(max_examples=400)
def test_apply_operator_matches_per_axiom_reference(axioms, members, bounds, positive_only):
    # plain and pair premises, bounds on both sides of the premise extent,
    # several bounds against one operator's cached extent
    op = op_of(*axioms)
    indices = [el[0] if isinstance(el, tuple) else el for _, d in op.axioms for el in d]
    assert op.extent == max(indices, default=-1) + 1
    for bound in bounds:
        expected = _applied(apply_per_axiom, op, members, bound, positive_only)
        assert _applied(apply_operator, op, members, bound, positive_only) == expected
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
    assert phi.run([(1, 1, 0), (2, 1, 0)]) == {(0, 1)}
    assert phi.run([(2, 1, 0), (1, 1, 0)]) == frozenset()


def test_silent_machine_compiles_empty():
    silent = FunctionalSpec("silent", 0, lambda st_, t: (st_, ()), use_bound=4, label_use=2)
    assert functional_to_operator(silent).axioms == frozenset()


def test_reachable_equals_bruteforce_union():
    for name, phi in battery().items():
        for assignment in all_assignments(3):
            assert reachable_outputs(phi, assignment, 2) == union_over_labeled_orderings(
                phi, assignment, 2
            ), name


def test_operator_matches_orderings_small():
    for name, phi in battery().items():
        w = functional_to_operator(phi, 3, 2)
        for assignment in all_assignments(3):
            assert apply_operator(w, frozenset(assignment), 3) == union_over_labeled_orderings(
                phi, assignment, 2
            ), name


def test_label_sensitive_machines_differ_by_label():
    early = battery()["early-label"]
    assert early.run([(1, 1, 0)]) == {(1, 1)}
    assert early.run([(1, 1, 2)]) == frozenset()
    late = battery()["late-label"]
    assert late.run([(1, 1, 2)]) == {(1, 1)}
    assert late.run([(1, 1, 0)]) == frozenset()


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


def test_generic_computation_from_subset_enumeration():
    even_real = _even_real()
    y = Enumerator.from_schedule(0, {0: {0}, 2: {4, 6}})
    out = generic_computation_from_subset_enumeration(y, even_real, 2)
    assert out == {0: 1, 4: 1, 6: 1}
    assert generic_computation_from_subset_enumeration(Enumerator.empty(), even_real, 9) == {}
    bad = Enumerator.from_schedule(0, {1: {3}})
    with pytest.raises(FalsifiedPremiseError):
        generic_computation_from_subset_enumeration(bad, even_real, 5)


def _even_real():
    from gencomp.reals import EventuallyPeriodicReal

    return EventuallyPeriodicReal("", "10")


def test_subset_enumeration_from_generic_computation():
    even_real = _even_real()
    run = [(0, 1, 0), (1, 0, 0), (4, 1, 2), (3, 0, 1)]
    w = subset_enumeration_from_generic_computation(run, even_real)
    assert w.at(0) == {0}
    assert w.at(2) == {0, 4}
    # positive part is a subset of the target
    assert all(even_real.bit(n) == 1 for n in w.at(2))
    with pytest.raises(FalsifiedPremiseError):
        subset_enumeration_from_generic_computation([(1, 1, 0)], even_real)


def test_subset_enumeration_all_zero_outputs():
    w = subset_enumeration_from_generic_computation(
        [(0, 0, 0), (1, 0, 1)], all_zeros()
    )
    assert w.at(5) == frozenset()


def test_subset_enumeration_density_inequality():
    # |dom(run) ∩ X| >= |dom(run)| + |X| - n below any horizon, exactly
    x = SeededReal(123)
    horizon = 512
    run = [(n, x.bit(n), n % 7) for n in range(horizon) if n % 3 != 0]
    w = subset_enumeration_from_generic_computation(run, x)
    y = w.at(max(l for (_, _, l) in run))
    dom = {n for (n, _, _) in run}
    members = {n for n in range(horizon) if x.bit(n) == 1}
    for n in range(1, horizon + 1):
        got = sum(1 for k in y if k < n)
        assert got >= sum(1 for k in dom if k < n) + sum(1 for k in members if k < n) - n
