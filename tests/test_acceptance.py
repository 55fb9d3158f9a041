"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines as they print).  Every expected value is either pinned arithmetic
or recomputed by an independent oracle inside the test.
"""

import random
import time
from fractions import Fraction
from functools import partial
from itertools import combinations

from gencomp.adversaries import CautiousCopier, PrefixFlooder, Silent, TrapSpringer
from gencomp.codings import (
    IntervalCoding,
    ValuationCoding,
    decode_interval,
    decode_valuation,
    encode_interval,
)
from gencomp.density import gap_census, gap_density_upper, prefix_density
from gencomp.diagonal import (
    LeftmostSelector,
    RightmostSelector,
    StrategySpec,
    audit_single_victim,
    audit_spoiling,
    audit_trace,
    audit_trap_soundness,
    default_probe_prefixes,
    functional_value_set,
    run_single,
)
from gencomp.enumops import (
    all_assignments,
    apply_operator,
    battery,
    functional_to_operator,
    union_over_labeled_orderings,
)
from gencomp.harness import canonical_json, run_experiment
from gencomp.reals import GenericDescription, SeededReal
from gencomp.relations import FiniteReflexiveRelation, embed_relation, stage_interval, universal_rel
from oracles import census_oracle, elements, run_pair
from reference_engine import reference_level
from test_density import gaps, make_gap_only, present

MASTER_SEED = 20260811


def _passed(num, name, started, limit):
    # every criterion runs in this process, so its CPU time is its own work;
    # wall time would also count other processes sharing the CPUs
    elapsed = time.process_time() - started
    assert elapsed < limit, "criterion %d exceeded %.0fs (took %.1fs)" % (num, limit, elapsed)
    print("[acceptance] criterion %d (%s): PASS in %.1fs" % (num, name, elapsed))


def _gap_only_sets():
    # the 200 gap-only sets that criteria 1 and 2 share
    rng = random.Random(MASTER_SEED)
    return [make_gap_only(rng)[0] for _ in range(200)]


def test_c01_gap_bound_law():
    started = time.process_time()
    sets = _gap_only_sets()
    assert len(sets) == 200
    for omitted in sets:
        member = lambda n: n not in omitted
        census = gap_census(present(member, 13), 13)
        assert census.gap_only
        for i, e in gaps(census):
            assert prefix_density(member, 1 << (i + 1)) <= gap_density_upper(i, e)
    _passed(1, "gap bound law", started, 10)


def test_c02_census_oracle_equivalence():
    started = time.process_time()
    for omitted in _gap_only_sets():
        member = lambda n: n not in omitted
        assert list(gap_census(present(member, 13), 13).records) == census_oracle(member, 13)
    _passed(2, "census oracle equivalence", started, 10)


def test_c03_intersection_inequality():
    started = time.process_time()
    horizon = 1 << 12
    for k in range(100):
        a = SeededReal(MASTER_SEED + 2 * k)
        b = SeededReal(MASTER_SEED + 2 * k + 1)
        abits = [a.bit(n) for n in range(horizon)]
        bbits = [b.bit(n) for n in range(horizon)]
        ca = cb = cab = 0
        for n in range(1, horizon + 1):
            ca += abits[n - 1]
            cb += bbits[n - 1]
            cab += abits[n - 1] & bbits[n - 1]
            assert cab >= ca + cb - n
    _passed(3, "intersection inequality", started, 10)


def test_c04_valuation_roundtrip_and_robust():
    started = time.process_time()
    bound = 1 << 13
    for k in range(100):
        x = SeededReal(MASTER_SEED ^ (k + 1))
        d = GenericDescription.full(ValuationCoding(x), start=1)
        for m in range(13):
            assert decode_valuation(d, m, bound) == x.bit(m)
    # robust decoding: domains missing only censused gap families whose
    # gaps all have size <= 2^-(m+2)
    for k in range(100):
        x = SeededReal(MASTER_SEED ^ (k + 1))
        coded = ValuationCoding(x)
        for m in range(9):
            e = m + 2
            gaps = set()
            for i in range(e, 13):
                hi = 1 << (i + 1)
                gaps |= set(range(hi - (1 << (i - e)), hi))
            d = GenericDescription.from_domain(lambda n: n not in gaps, coded, start=1)
            assert decode_valuation(d, m, bound) == x.bit(m)
    _passed(4, "valuation coding round trip", started, 10)


def test_c05_interval_finite_loss():
    started = time.process_time()
    bound = 1 << 13
    x0 = SeededReal(MASTER_SEED)
    # the strict "largest power of two below n" offset, pinned
    assert encode_interval(x0, 8) == x0.bit(2)
    assert encode_interval(x0, 2) == x0.bit(0)
    assert encode_interval(x0, 12) == x0.bit(3)
    rng = random.Random(MASTER_SEED)
    for k in range(20):
        x = SeededReal(MASTER_SEED + 7 * k)
        coded = IntervalCoding(x)
        omitted = set(rng.sample(range(2, bound), 120)) | set(
            range((1 << 5) + 1, (1 << 6) + 1)  # one whole witness interval
        )
        d = GenericDescription.from_domain(lambda n: n not in omitted, coded, start=2)
        for m in range(13):
            witnesses = set(range((1 << m) + 1, min(1 << (m + 1), bound) + 1))
            got = decode_interval(d, m, bound)
            if witnesses <= omitted:
                assert got is None
            else:
                assert got == x.bit(m)
    _passed(5, "interval coding finite loss", started, 5)


def test_c06_universal_relation():
    started = time.process_time()
    # reflexivity for every id up to 10^4
    assert all(universal_rel(k, k) for k in range(10_001))
    # same-stage isolation, exhaustive in both directions
    u = universal_rel
    for lo, hi in ((1, 5), (5, 1029), (1029, 10_001)):
        assert not any(
            u(i, j) or u(j, i) for i, j in combinations(range(lo, hi), 2)
        )
    # extension completeness, exhaustive through stage 2
    for s in (1, 2):
        interval = stage_interval(s)
        prior = interval.lo
        seen = set()
        for new in range(interval.lo, interval.hi):
            vec = 0
            for old in range(prior):
                digit = (1 if u(old, new) else 0) | (2 if u(new, old) else 0)
                vec |= digit << (2 * old)
            seen.add(vec)
        assert seen == set(range(4**prior))
    # 200 random reflexive digraphs of size <= 8 embed exactly
    rng = random.Random(MASTER_SEED)
    for _ in range(200):
        size = rng.randint(1, 8)
        rel = FiniteReflexiveRelation(
            [[a == b or rng.random() < 0.4 for b in range(size)] for a in range(size)]
        )
        emb = embed_relation(rel)
        assert emb.verify()
        assert [el.stage for el in emb.images] == list(range(size))
    _passed(6, "universal relation", started, 60)


def test_c07_diagonal_single_mode():
    started = time.process_time()
    # the hand-simulated five-stage run
    trace = run_single(5, [StrategySpec(Silent(), LeftmostSelector())])
    assert list(trace.markers[0]) == [
        (1, ("",)),
        (2, ("0",)),
        (3, ("00",)),
        (4, ("000",)),
    ]
    assert set(range(1, 32)) - set(elements(functional_value_set(trace, "1111"))) == {2, 3}
    assert set(elements(functional_value_set(trace, "0000"))) == {1}

    # prefix determinism: rules through stage 10 consult at most 10 oracle
    # bits, so every length-10 prefix decides the whole defined region
    # [1, 2^11) and extensions never change the verdict
    det = run_single(
        11,
        [
            StrategySpec(Silent(), LeftmostSelector()),
            StrategySpec(TrapSpringer(), LeftmostSelector()),
        ],
    )
    evaluate = partial(det.evaluate, 0)
    horizon = 1 << 11
    for v in range(1 << 10):
        sigma = format(v, "010b")
        for n in range(1, horizon):
            base = evaluate(sigma, n)
            assert base == 0 or base == 1
            assert evaluate(sigma + "0", n) == base
            assert evaluate(sigma + "1", n) == base

    # trap soundness and spoiling completeness on trap-springer runs
    for stages in (6, 8, 12):
        springer = run_single(stages, [StrategySpec(TrapSpringer(), LeftmostSelector())])
        assert springer.death_stage[0] is not None
        assert audit_trap_soundness(springer) == []
        assert audit_spoiling(springer) == []
        assert audit_trace(springer) == []
    _passed(7, "diagonal engine single mode", started, 60)


def _catalog_specs(order):
    makers = {
        "silent": Silent,
        "trap-springer": TrapSpringer,
        "cautious-copier": CautiousCopier,
        "prefix-flooder": PrefixFlooder,
    }
    selectors = {
        "leftmost": LeftmostSelector,
        "rightmost": RightmostSelector,
    }
    return [
        StrategySpec(makers[name](), selectors[sel]()) for name, sel in order
    ]


def test_c08_diagonal_pair_mode():
    started = time.process_time()
    orders = [
        [
            ("silent", "leftmost"),
            ("trap-springer", "leftmost"),
            ("cautious-copier", "leftmost"),
            ("prefix-flooder", "leftmost"),
            ("cautious-copier", "rightmost"),
        ],
        [
            ("cautious-copier", "rightmost"),
            ("prefix-flooder", "leftmost"),
            ("silent", "rightmost"),
            ("trap-springer", "rightmost"),
            ("cautious-copier", "leftmost"),
        ],
    ]
    for order in orders:
        trace = run_pair(20, _catalog_specs(order))
        for e in range(5):
            if trace.death_stage[e] is not None:
                assert reference_level(trace, e, trace.death_stage[e] - 1) == []
                continue
            elems = {n for lo, hi in trace.enumerated[e] for n in range(lo, hi)}
            bound = 1 - Fraction(1, 1 << (e + 1))
            dips = 0
            for i in range(trace.defined_through + 1):
                n = 1 << (i + 1)
                if prefix_density(lambda k: k in elems, n) <= bound:
                    dips += 1
            assert dips >= 3, (order, e, dips)
        # single-victim law on every trace
        for e in range(trace.strategy_count):
            assert audit_single_victim(trace, e, default_probe_prefixes(trace, e)) == []
        assert audit_trace(trace) == []
    _passed(8, "diagonal engine pair mode", started, 120)


def test_c09_operator_compilation():
    started = time.process_time()
    machines = battery()
    assert len(machines) >= 5
    for name, phi in machines.items():
        op = functional_to_operator(phi, 5, 3)
        for assignment in all_assignments(5):
            lhs = apply_operator(op, frozenset(assignment), 5)
            rhs = union_over_labeled_orderings(phi, assignment, 3)
            assert lhs == rhs, (name, assignment)
    _passed(9, "operator compilation", started, 60)


ACCEPTANCE_CONFIGS = [
    {
        "version": 1,
        "scenario": "single-diagonal",
        "stages": 5,
        "strategies": [{"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}}],
    },
    {
        "version": 1,
        "scenario": "single-diagonal",
        "stages": 10,
        "strategies": [
            {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}},
            {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "leftmost"}},
        ],
    },
    {
        "version": 1,
        "scenario": "pair-diagonal",
        "stages": 12,
        "strategies": [
            {"enumerator": {"kind": "silent"}, "selector": {"kind": "leftmost"}},
            {"enumerator": {"kind": "trap-springer"}, "selector": {"kind": "leftmost"}},
            {"enumerator": {"kind": "cautious-copier"}, "selector": {"kind": "rightmost"}},
            {"enumerator": {"kind": "prefix-flooder"}, "selector": {"kind": "leftmost"}},
            {
                "enumerator": {"kind": "scripted", "stages": {"6": [2]}},
                "selector": {"kind": "scripted", "entries": [[7, ["011011", "110110"]]]},
            },
        ],
    },
    {"version": 1, "scenario": "coding-roundtrip", "seed": MASTER_SEED, "count": 8, "m_max": 8, "bound": 2048},
    {"version": 1, "scenario": "relation-embed", "seed": MASTER_SEED, "count": 12, "max_size": 8},
    {"version": 1, "scenario": "operator-compile", "machine": "order-gate", "element_bound": 4, "label_bound": 2},
]


def test_c10_replay_determinism():
    started = time.process_time()
    for cfg in ACCEPTANCE_CONFIGS:
        report1, doc1 = run_experiment(cfg)
        report2, doc2 = run_experiment(cfg)
        assert canonical_json(doc1) == canonical_json(doc2), cfg["scenario"]
        assert all(v["pass"] for v in report1["verdicts"]), cfg["scenario"]
    # engine-level determinism for the pair catalog run as well
    from gencomp.diagonal import trace_to_jsonable

    order = [
        ("silent", "leftmost"),
        ("trap-springer", "leftmost"),
        ("cautious-copier", "leftmost"),
        ("prefix-flooder", "leftmost"),
        ("cautious-copier", "rightmost"),
    ]
    t1 = run_pair(20, _catalog_specs(order))
    t2 = run_pair(20, _catalog_specs(order))
    assert canonical_json(trace_to_jsonable(t1)) == canonical_json(trace_to_jsonable(t2))
    _passed(10, "replay determinism", started, 120)
