"""Tests for the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from gencomp.harness import validate_config  # noqa: E402


# -- span arithmetic ---------------------------------------------------------


def test_union_length_merges_overlaps_and_gaps():
    assert layers.union_length([]) == 0.0
    assert layers.union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert layers.union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert layers.union_length([(1.0, 4.0), (2.0, 3.0)]) == 3.0  # contained
    assert layers.union_length([(2.0, 3.0), (0.0, 1.0), (1.0, 2.5)]) == 3.0


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        ["outer", 0, -1, 0.0, 10.0],
        ["a", 0, 0, 1.0, 4.0],
        ["b", 0, 0, 3.0, 6.0],      # overlaps a: the union is [1, 6)
        ["inner", 0, 1, 2.0, 3.0],  # grandchild: counts against a only
        ["a", 1, -1, 20.0, 21.0],   # same name, another op, no children
    ]
    got = layers.self_times(spans, [])
    assert got["outer"] == pytest.approx(10.0 - 5.0)
    assert got["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert got["b"] == pytest.approx(3.0)
    assert got["inner"] == pytest.approx(1.0)


def test_aggregated_leaves_leave_their_parents_self_time():
    spans = [["outer", 0, -1, 0.0, 10.0], ["child", 0, 0, 0.0, 2.0]]
    leaves = [["leaf", 0, 100, 3.0], ["leaf", 1, 10, 0.5]]
    got = layers.self_times(spans, leaves)
    assert got["outer"] == pytest.approx(10.0 - 2.0 - 3.0)
    assert got["child"] == pytest.approx(2.0 - 0.5)
    assert got["leaf"] == pytest.approx(3.5)
    assert layers.span_counts(spans, leaves) == {"outer": 1, "child": 1, "leaf": 110}


def test_tracer_patches_every_binding_and_removes_all_wrappers():
    import gencomp
    from gencomp import density, diagonal, harness

    originals = (density.prefix_density, harness.prefix_density,
                 gencomp.prefix_density, diagonal.LevelContext.__init__)
    tracer = layers.Tracer()
    tracer.install()
    try:
        for bound in (density.prefix_density, harness.prefix_density, gencomp.prefix_density):
            assert getattr(bound, "_perfbench_wrapper", False)
        harness.prefix_density(lambda k: k % 2 == 1, 8)
        diagonal.run_single(4, [diagonal.StrategySpec(
            harness.load_enumerator({"kind": "silent"}), diagonal.LeftmostSelector())])
    finally:
        leftover = tracer.uninstall()
    assert leftover == []
    assert (density.prefix_density, harness.prefix_density,
            gencomp.prefix_density, diagonal.LevelContext.__init__) == originals
    names = {record[0] for record in tracer.spans}
    assert {"density.prefix_density", "diagonal.engine", "diagonal.level_ctx"} <= names
    assert tracer.counters["density.member_probes"] == 8
    assert tracer.counters["diagonal.dfs_nodes"] > 0
    engine = next(r for r in tracer.spans if r[0] == "diagonal.engine")
    ctx = [r for r in tracer.spans if r[0] == "diagonal.level_ctx"]
    assert ctx and all(tracer.spans[r[2]] is engine for r in ctx)


# -- seeded config generators ------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_and_valid(workload):
    def inputs(seed):
        return [(name, workloads.config_bytes(cfg))
                for name, cfg in workloads.generate(workload, seed)]

    for seed in range(8):
        assert inputs(seed) == inputs(seed)
        for _, cfg in workloads.generate(workload, seed):
            validate_config(cfg)
    assert len({tuple(inputs(seed)) for seed in range(8)}) > 1  # the seed reaches the inputs


# -- os.wait4 read-out -------------------------------------------------------


def test_run_child_reads_cpu_rss_and_exit_code(tmp_path):
    burn = (
        "import sys, time\n"
        "block = bytearray(64 << 20)\n"
        "block[::4096] = b'x' * len(block[::4096])\n"
        "t = time.process_time()\n"
        "while time.process_time() - t < 0.3: pass\n"
        "print('done')\n"
        "sys.exit(3)\n"
    )
    r = measure.run_child([sys.executable, "-c", burn], str(tmp_path / "log"))
    assert r.exit_code == 3
    assert "done" in r.output
    assert r.peak_rss_mb >= 64
    assert r.cpu_s >= 0.3
    assert r.wall_s >= r.cpu_s * 0.5


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentile(list(range(10))) is None
    assert measure.tail_percentile(list(range(1, 12))) == (100.0 / 11, 1)
    pct, value = measure.tail_percentile(list(range(100, 0, -1)))
    assert (pct, value) == (90.0, 90)
    s = measure.summary([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "n": 3}
