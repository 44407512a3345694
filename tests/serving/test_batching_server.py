"""Tests for dynamic batching simulation and the Triton-like server."""

import numpy as np
import pytest

from repro.common import NotFoundError, ValidationError
from repro.serving import (
    DEVICE_CATALOG,
    BatchingConfig,
    LoadProfile,
    TritonServer,
    food11_classifier,
    simulate_batching,
)
from repro.serving.batching import poisson_arrivals

A100 = DEVICE_CATALOG["a100"]


def service(batch: int) -> float:
    """A simple affine service time: 1 ms + 0.1 ms per request."""
    return 1.0 + 0.1 * batch


class TestBatchingSimulation:
    def test_request_conservation(self):
        arrivals = poisson_arrivals(100, 500, seed=1)
        res = simulate_batching(arrivals, service, BatchingConfig(max_batch=8))
        assert len(res.latencies_ms) == 500
        assert res.batch_sizes.sum() == 500

    def test_latencies_nonnegative(self):
        arrivals = poisson_arrivals(50, 300, seed=2)
        res = simulate_batching(arrivals, service, BatchingConfig())
        assert np.all(res.latencies_ms >= 0)

    def test_light_load_batches_near_one(self):
        arrivals = poisson_arrivals(1.0, 100, seed=3)  # 1 rps, 1ms service
        res = simulate_batching(arrivals, service, BatchingConfig(max_batch=8, max_queue_delay_ms=0.0))
        assert res.mean_batch == pytest.approx(1.0)

    def test_heavy_load_fills_batches(self):
        arrivals = poisson_arrivals(5000, 2000, seed=4)
        res = simulate_batching(arrivals, service, BatchingConfig(max_batch=8, max_queue_delay_ms=5.0))
        assert res.mean_batch > 4

    def test_batching_raises_throughput_under_saturation(self):
        arrivals = poisson_arrivals(3000, 3000, seed=5)
        no_batch = simulate_batching(arrivals, service, BatchingConfig(max_batch=1))
        batched = simulate_batching(arrivals, service, BatchingConfig(max_batch=16, max_queue_delay_ms=5))
        assert batched.throughput_rps > 2 * no_batch.throughput_rps
        assert batched.p99_ms < no_batch.p99_ms  # queueing collapse avoided

    def test_delay_adds_latency_under_light_load(self):
        arrivals = poisson_arrivals(10, 200, seed=6)
        eager = simulate_batching(arrivals, service, BatchingConfig(max_batch=8, max_queue_delay_ms=0))
        patient = simulate_batching(arrivals, service, BatchingConfig(max_batch=8, max_queue_delay_ms=50))
        assert patient.p50_ms >= eager.p50_ms

    def test_more_instances_more_throughput(self):
        # 1 instance at batch 4 caps at ~2857 rps; offer 10k to saturate
        arrivals = poisson_arrivals(10_000, 4000, seed=7)
        one = simulate_batching(arrivals, service, BatchingConfig(max_batch=4, n_instances=1))
        two = simulate_batching(arrivals, service, BatchingConfig(max_batch=4, n_instances=2))
        assert two.throughput_rps > 1.3 * one.throughput_rps

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(ValidationError):
            simulate_batching(np.array([2.0, 1.0]), service, BatchingConfig())

    def test_empty_arrivals_rejected(self):
        with pytest.raises(ValidationError):
            simulate_batching(np.array([]), service, BatchingConfig())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            BatchingConfig(max_batch=0)
        with pytest.raises(ValidationError):
            poisson_arrivals(0, 10)


class TestTritonServer:
    def setup_method(self):
        self.server = TritonServer(A100, gpus=2)
        self.model = food11_classifier()
        self.server.load_model(self.model, instances_per_gpu=1,
                               batching=BatchingConfig(max_batch=8, max_queue_delay_ms=2.0))

    def test_instance_group_spans_gpus(self):
        _, cfg = self.server._model(self.model.name)
        assert cfg.n_instances == 2

    def test_benchmark_produces_metrics(self):
        m = self.server.benchmark(self.model.name, LoadProfile(rate_rps=500, n_requests=1000))
        assert m.p50_ms <= m.p95_ms <= m.p99_ms
        assert m.throughput_rps > 0
        assert m.accuracy == self.model.accuracy
        assert m.hourly_cost_usd == pytest.approx(2 * A100.hourly_cost_usd)

    def test_sweep_covers_grid(self):
        out = self.server.sweep(
            self.model.name,
            LoadProfile(rate_rps=500, n_requests=500),
            batch_sizes=[1, 8],
            delays_ms=[0.0, 5.0],
        )
        assert len(out) == 4

    def test_budget_selection(self):
        """The lab's task: pick a config meeting the performance budget."""
        metrics = self.server.sweep(
            self.model.name,
            LoadProfile(rate_rps=2000, n_requests=2000),
            batch_sizes=[1, 4, 16],
            delays_ms=[0.0, 2.0],
        )
        ok = [m for m in metrics if m.meets(latency_budget_ms=50, min_throughput_rps=1500)]
        assert ok  # at least one config satisfies the budget
        assert all(m.p95_ms <= 50 for m in ok)

    def test_unload(self):
        self.server.unload_model(self.model.name)
        with pytest.raises(NotFoundError):
            self.server.benchmark(self.model.name, LoadProfile(rate_rps=10))
        with pytest.raises(NotFoundError):
            self.server.unload_model("ghost")

    def test_two_gpu_server_outperforms_one(self):
        one = TritonServer(A100, gpus=1)
        one.load_model(self.model, batching=BatchingConfig(max_batch=8))
        load = LoadProfile(rate_rps=8000, n_requests=4000)
        m1 = one.benchmark(self.model.name, load)
        m2 = self.server.benchmark(self.model.name, load)
        assert m2.throughput_rps > m1.throughput_rps

    def test_invalid_server(self):
        with pytest.raises(ValidationError):
            TritonServer(A100, gpus=0)
        with pytest.raises(ValidationError):
            LoadProfile(rate_rps=-1)
