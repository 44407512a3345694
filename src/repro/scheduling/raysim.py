"""Ray-like task execution and hyperparameter tuning.

The Unit 5 lab integrates "Ray Train for distributed execution and fault
tolerance, and Ray Tune for hyperparameter search" (paper §3.5).  Here:

* :class:`RayCluster` executes resource-annotated tasks with a simple
  earliest-free-slot simulation, reporting wall-clock under the cluster's
  GPU/CPU limits.
* :class:`Tuner` searches a hyperparameter space with grid or random
  sampling and ASHA-style successive halving: trials train in rungs, and
  only the top 1/eta advance — so total steps spent is far below
  train-everything-to-completion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.training.trainer import TrainingSimulator


@dataclass(frozen=True)
class RayTask:
    """A remote task: a callable plus its resource request."""

    name: str
    fn: Callable[[], Any]
    num_cpus: float = 1.0
    num_gpus: float = 0.0
    duration_hours: float = 0.1


@dataclass(frozen=True)
class TaskRecord:
    name: str
    start: float
    end: float
    result: Any


class RayCluster:
    """Greedy list scheduling of tasks under CPU/GPU capacity."""

    def __init__(self, *, num_cpus: float = 8, num_gpus: float = 2) -> None:
        if num_cpus <= 0 or num_gpus < 0:
            raise ValidationError("invalid cluster resources")
        self.num_cpus = num_cpus
        self.num_gpus = num_gpus

    def run(self, tasks: Sequence[RayTask]) -> list[TaskRecord]:
        """Execute all tasks; returns records with simulated start/end."""
        for t in tasks:
            if t.num_cpus > self.num_cpus or t.num_gpus > self.num_gpus:
                raise ValidationError(f"task {t.name!r} can never fit on this cluster")
        pending = list(tasks)
        running: list[tuple[float, RayTask, Any]] = []  # (end, task, result)
        records: list[TaskRecord] = []
        now = 0.0
        free_cpus, free_gpus = self.num_cpus, self.num_gpus
        while pending or running:
            # launch whatever fits now (FIFO)
            i = 0
            while i < len(pending):
                t = pending[i]
                if t.num_cpus <= free_cpus + 1e-9 and t.num_gpus <= free_gpus + 1e-9:
                    free_cpus -= t.num_cpus
                    free_gpus -= t.num_gpus
                    running.append((now + t.duration_hours, t, t.fn()))
                    records.append(TaskRecord(t.name, now, now + t.duration_hours, None))
                    pending.pop(i)
                else:
                    i += 1
            if not running:
                raise ValidationError("deadlock: nothing running, nothing fits")
            # advance to earliest completion
            running.sort(key=lambda r: r[0])
            end, task, result = running.pop(0)
            now = end
            free_cpus += task.num_cpus
            free_gpus += task.num_gpus
            for j, rec in enumerate(records):
                if rec.name == task.name and rec.result is None and rec.end == end:
                    records[j] = TaskRecord(rec.name, rec.start, rec.end, result)
                    break
        return records

    def makespan(self, tasks: Sequence[RayTask]) -> float:
        records = self.run(tasks)
        return max(r.end for r in records) if records else 0.0


@dataclass(frozen=True)
class Trial:
    id: int
    config: dict[str, Any]
    steps_trained: int
    final_loss: float
    stopped_early: bool


@dataclass(frozen=True)
class TuneResult:
    trials: tuple[Trial, ...]
    best: Trial
    total_steps: int

    @property
    def n_trials(self) -> int:
        return len(self.trials)


class Tuner:
    """Grid / random search with optional ASHA successive halving."""

    def __init__(
        self,
        simulator: TrainingSimulator,
        *,
        max_steps: int = 200,
        seed: int = 0,
    ) -> None:
        if max_steps <= 0:
            raise ValidationError("max_steps must be positive")
        self.simulator = simulator
        self.max_steps = max_steps
        self._rng = np.random.default_rng(seed)

    # -- search space sampling --------------------------------------------------

    @staticmethod
    def grid(space: dict[str, Sequence[Any]]) -> list[dict[str, Any]]:
        keys = sorted(space)
        return [dict(zip(keys, combo)) for combo in itertools.product(*(space[k] for k in keys))]

    def random(self, space: dict[str, tuple[float, float]], n: int, *, log: bool = True) -> list[dict[str, Any]]:
        """Sample ``n`` configs uniformly (log-uniformly by default)."""
        configs = []
        for _ in range(n):
            cfg = {}
            for key, (lo, hi) in sorted(space.items()):
                if log:
                    if lo <= 0:
                        raise ValidationError("log sampling needs positive bounds")
                    cfg[key] = float(10 ** self._rng.uniform(math.log10(lo), math.log10(hi)))
                else:
                    cfg[key] = float(self._rng.uniform(lo, hi))
            configs.append(cfg)
        return configs

    # -- execution -----------------------------------------------------------------

    def _loss_after(self, config: dict[str, Any], steps: int) -> float:
        return self.simulator.loss_at(steps, config.get("lr", 3e-4))

    def fit(self, configs: list[dict[str, Any]]) -> TuneResult:
        """Train every config to max_steps (no early stopping)."""
        if not configs:
            raise ValidationError("no configs to tune")
        trials = [
            Trial(i, cfg, self.max_steps, self._loss_after(cfg, self.max_steps), False)
            for i, cfg in enumerate(configs)
        ]
        best = min(trials, key=lambda t: t.final_loss)
        return TuneResult(tuple(trials), best, total_steps=self.max_steps * len(trials))

    def fit_asha(
        self, configs: list[dict[str, Any]], *, reduction_factor: int = 3, min_steps: int = 10
    ) -> TuneResult:
        """ASHA-style synchronous successive halving."""
        if not configs:
            raise ValidationError("no configs to tune")
        if reduction_factor < 2:
            raise ValidationError("reduction factor must be >= 2")
        alive = list(range(len(configs)))
        steps_done = {i: 0 for i in alive}
        losses = {i: float("inf") for i in alive}
        total = 0
        rung = min_steps
        while rung < self.max_steps and len(alive) > 1:
            for i in alive:
                total += rung - steps_done[i]
                steps_done[i] = rung
                losses[i] = self._loss_after(configs[i], rung)
            keep = max(1, len(alive) // reduction_factor)
            alive = sorted(alive, key=lambda i: losses[i])[:keep]
            rung *= reduction_factor
        for i in alive:
            total += self.max_steps - steps_done[i]
            steps_done[i] = self.max_steps
            losses[i] = self._loss_after(configs[i], self.max_steps)
        trials = tuple(
            Trial(i, configs[i], steps_done[i], losses[i], steps_done[i] < self.max_steps)
            for i in range(len(configs))
        )
        best = min((t for t in trials if not t.stopped_early), key=lambda t: t.final_loss)
        return TuneResult(trials, best, total_steps=total)
