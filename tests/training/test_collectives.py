"""Tests for collective cost models and the executable ring all-reduce."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ValidationError
from repro.training.collectives import (
    allreduce_cost,
    ring_allreduce,
    ring_allreduce_schedule,
)


class TestCostModels:
    def test_single_rank_is_free(self):
        for algo in ("naive", "ring", "tree"):
            assert allreduce_cost(algo, 1e9, 1, link_bandwidth_gbs=100).total_s == 0.0

    def test_ring_bandwidth_term_independent_of_p(self):
        """The Patarasuk-Yuan optimality fact taught in lecture (§3.4)."""
        costs = [
            allreduce_cost("ring", 1e9, p, link_bandwidth_gbs=100, link_latency_us=0).bandwidth_s
            for p in (2, 8, 64, 512)
        ]
        # 2n(p-1)/p is increasing but bounded by 2n/B: within 2x across all p
        assert max(costs) / min(costs) < 2.0
        assert costs[-1] < 2 * 1e9 / (100e9) * 1.001

    def test_naive_bandwidth_grows_linearly_with_p(self):
        c2 = allreduce_cost("naive", 1e9, 2, link_bandwidth_gbs=100, link_latency_us=0)
        c16 = allreduce_cost("naive", 1e9, 16, link_bandwidth_gbs=100, link_latency_us=0)
        assert c16.bandwidth_s == pytest.approx(15 * c2.bandwidth_s)

    def test_ring_beats_naive_and_tree_for_large_buffers(self):
        kw = dict(link_bandwidth_gbs=100, link_latency_us=5)
        n, p = 52e9, 8  # 13B fp32 gradients across 8 GPUs
        ring = allreduce_cost("ring", n, p, **kw).total_s
        naive = allreduce_cost("naive", n, p, **kw).total_s
        tree = allreduce_cost("tree", n, p, **kw).total_s
        assert ring < tree < naive

    def test_tree_wins_for_tiny_buffers_at_scale(self):
        """Latency-bound regime: fewer rounds beat lower volume."""
        kw = dict(link_bandwidth_gbs=100, link_latency_us=50)
        n, p = 1e3, 256
        ring = allreduce_cost("ring", n, p, **kw).total_s
        tree = allreduce_cost("tree", n, p, **kw).total_s
        assert tree < ring

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValidationError):
            allreduce_cost("quantum", 1e6, 4, link_bandwidth_gbs=10)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            allreduce_cost("ring", 1e6, 0, link_bandwidth_gbs=10)
        with pytest.raises(ValidationError):
            allreduce_cost("ring", -1, 4, link_bandwidth_gbs=10)
        with pytest.raises(ValidationError):
            allreduce_cost("ring", 1e6, 4, link_bandwidth_gbs=0)


class TestRingSchedule:
    def test_step_count_is_2p_minus_2(self):
        sched = ring_allreduce_schedule(1000, 4)
        assert len(sched) == 6
        assert sum(1 for s in sched if s.phase == "reduce-scatter") == 3

    def test_single_rank_no_steps(self):
        assert ring_allreduce_schedule(1000, 1) == []

    def test_chunk_size_is_n_over_p(self):
        sched = ring_allreduce_schedule(1000, 4)
        assert all(s.bytes_per_rank == 250 for s in sched)


class TestRingAllreduceExecution:
    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(0)
        buffers = [rng.standard_normal(97) for _ in range(5)]
        results, _ = ring_allreduce(buffers)
        expected = np.sum(buffers, axis=0)
        for r in results:
            np.testing.assert_allclose(r, expected, rtol=1e-12)

    def test_all_ranks_agree(self):
        rng = np.random.default_rng(1)
        buffers = [rng.standard_normal((8, 8)) for _ in range(4)]
        results, _ = ring_allreduce(buffers)
        for r in results[1:]:
            np.testing.assert_array_equal(r, results[0])

    def test_preserves_shape_and_handles_2d(self):
        buffers = [np.ones((3, 7)) * i for i in range(3)]
        results, _ = ring_allreduce(buffers)
        assert results[0].shape == (3, 7)
        np.testing.assert_allclose(results[0], np.full((3, 7), 3.0))

    def test_single_rank_identity(self):
        buf = np.arange(10, dtype=float)
        results, sched = ring_allreduce([buf])
        np.testing.assert_array_equal(results[0], buf)
        assert sched == []

    def test_executed_schedule_has_2p_minus_2_steps(self):
        buffers = [np.ones(16) for _ in range(4)]
        _, sched = ring_allreduce(buffers)
        assert len(sched) == 6

    def test_buffer_smaller_than_ranks(self):
        """n < p: some chunks are empty but the result must still be right."""
        buffers = [np.array([float(i)]) for i in range(5)]
        results, _ = ring_allreduce(buffers)
        for r in results:
            np.testing.assert_allclose(r, [10.0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValidationError):
            ring_allreduce([np.ones(3), np.ones(4)])

    def test_no_ranks_rejected(self):
        with pytest.raises(ValidationError):
            ring_allreduce([])

    def test_input_buffers_not_mutated(self):
        buffers = [np.ones(8), np.full(8, 2.0)]
        snapshots = [b.copy() for b in buffers]
        ring_allreduce(buffers)
        for b, s in zip(buffers, snapshots):
            np.testing.assert_array_equal(b, s)

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_sum_invariant(self, p, n, seed):
        rng = np.random.default_rng(seed)
        buffers = [rng.integers(-100, 100, size=n).astype(float) for _ in range(p)]
        results, sched = ring_allreduce(buffers)
        expected = np.sum(buffers, axis=0)
        for r in results:
            np.testing.assert_allclose(r, expected)
        assert len(sched) == max(0, 2 * (p - 1))
