"""A Triton-like inference server and its benchmark harness.

Combines the pieces of Unit 6's third lab part: a model deployed with an
**instance group** (N copies on one or more GPUs), **dynamic batching**,
and **concurrent clients**, benchmarked for latency percentiles and
throughput under a load profile (paper §3.6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import NotFoundError, ValidationError
from repro.serving.batching import BatchingConfig, BatchingResult, poisson_arrivals, simulate_batching
from repro.serving.devices import DeviceProfile
from repro.serving.engine import InferenceEngine
from repro.serving.models import ServableModel


@dataclass(frozen=True)
class LoadProfile:
    """An offered load for benchmarking."""

    rate_rps: float
    n_requests: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0 or self.n_requests <= 0:
            raise ValidationError(f"invalid load profile: {self!r}")


@dataclass(frozen=True)
class ServingMetrics:
    """The benchmark numbers the lab reports per configuration."""

    config_name: str
    p50_ms: float
    p95_ms: float
    p99_ms: float
    throughput_rps: float
    mean_batch: float
    model_size_mb: float
    accuracy: float
    hourly_cost_usd: float

    def meets(self, *, latency_budget_ms: float | None = None,
              min_throughput_rps: float | None = None,
              min_accuracy: float | None = None,
              max_size_mb: float | None = None) -> bool:
        """Check this configuration against a performance budget."""
        if latency_budget_ms is not None and self.p95_ms > latency_budget_ms:
            return False
        if min_throughput_rps is not None and self.throughput_rps < min_throughput_rps:
            return False
        if min_accuracy is not None and self.accuracy < min_accuracy:
            return False
        if max_size_mb is not None and self.model_size_mb > max_size_mb:
            return False
        return True


class TritonServer:
    """One serving endpoint hosting models with instance groups + batching."""

    def __init__(self, device: DeviceProfile, *, gpus: int = 1) -> None:
        if gpus <= 0:
            raise ValidationError(f"need at least one device, got {gpus!r}")
        self.device = device
        self.gpus = gpus
        self._models: dict[str, tuple[ServableModel, BatchingConfig]] = {}

    def load_model(
        self,
        model: ServableModel,
        *,
        instances_per_gpu: int = 1,
        batching: BatchingConfig | None = None,
    ) -> None:
        """Register a model with its instance-group and batching config."""
        if instances_per_gpu <= 0:
            raise ValidationError("instances_per_gpu must be positive")
        n_instances = instances_per_gpu * self.gpus
        cfg = batching if batching is not None else BatchingConfig()
        cfg = BatchingConfig(
            max_batch=cfg.max_batch,
            max_queue_delay_ms=cfg.max_queue_delay_ms,
            n_instances=n_instances,
        )
        self._models[model.name] = (model, cfg)

    def unload_model(self, name: str) -> None:
        if name not in self._models:
            raise NotFoundError(f"model {name!r} not loaded")
        del self._models[name]

    def loaded_models(self) -> list[str]:
        return sorted(self._models)

    def benchmark(self, model_name: str, load: LoadProfile) -> ServingMetrics:
        """Drive the load profile through the model's batcher."""
        model, cfg = self._model(model_name)
        engine = InferenceEngine(model, self.device)
        arrivals = poisson_arrivals(load.rate_rps, load.n_requests, seed=load.seed)
        result: BatchingResult = simulate_batching(arrivals, engine.latency_ms, cfg)
        return ServingMetrics(
            config_name=(
                f"{model.name}@{self.device.name}x{self.gpus}"
                f"/inst{cfg.n_instances}/b{cfg.max_batch}"
            ),
            p50_ms=result.p50_ms,
            p95_ms=result.p95_ms,
            p99_ms=result.p99_ms,
            throughput_rps=result.throughput_rps,
            mean_batch=result.mean_batch,
            model_size_mb=model.size_mb,
            accuracy=model.accuracy,
            hourly_cost_usd=self.device.hourly_cost_usd * self.gpus,
        )

    def sweep(
        self,
        model_name: str,
        load: LoadProfile,
        *,
        batch_sizes: list[int] = (1, 4, 8, 16),
        delays_ms: list[float] = (0.0, 2.0, 5.0, 10.0),
    ) -> list[ServingMetrics]:
        """The lab's parameter sweep over batching configurations."""
        model, base_cfg = self._model(model_name)
        out = []
        for mb in batch_sizes:
            for d in delays_ms:
                self.load_model(
                    model,
                    instances_per_gpu=max(1, base_cfg.n_instances // self.gpus),
                    batching=BatchingConfig(max_batch=mb, max_queue_delay_ms=d),
                )
                out.append(self.benchmark(model.name, load))
        # restore original config
        self._models[model_name] = (model, base_cfg)
        return out

    def _model(self, name: str) -> tuple[ServableModel, BatchingConfig]:
        try:
            return self._models[name]
        except KeyError:
            raise NotFoundError(f"model {name!r} not loaded") from None
