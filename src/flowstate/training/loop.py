"""Seeded mini-batch training loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..checkpoint import checkpoint_dict, model_parameters
from ..diffcore import Tape, Tensor, backward
from .losses import LossWeights, NonFiniteLossError, total_loss
from .optimizer import AdamConfig, AdamState, adam_step


@dataclass
class TrainConfig(AdamConfig):
    """Loop settings on top of the Adam settings it passes to adam_step."""

    iterations: int = 10_000
    batch_size: int = 2048
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.iterations < 0 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValueError("iterations >= 0, batch_size >= 1, learning_rate > 0")


@dataclass
class TrainLog:
    iteration: list[int] = field(default_factory=list)
    total: list[float] = field(default_factory=list)
    nll: list[float] = field(default_factory=list)
    kinetic: list[float] = field(default_factory=list)
    prior: list[float] = field(default_factory=list)
    wallclock_ms: list[float] = field(default_factory=list)
    param_norm: list[float] = field(default_factory=list)

    def append(self, it, parts, ms, pnorm):
        self.iteration.append(it)
        self.total.append(parts["total"])
        self.nll.append(parts["nll"])
        self.kinetic.append(parts["kinetic"])
        self.prior.append(parts["prior"])
        self.wallclock_ms.append(ms)
        self.param_norm.append(pnorm)

    def tail_mean(self, key: str, window: int = 100) -> float:
        values = getattr(self, key)
        return float(np.mean(values[-window:]))

    def to_csv(self, path) -> None:
        lines = ["iter,total,nll,kinetic,prior,wallclock_ms"]
        for i in range(len(self.iteration)):
            lines.append(
                f"{self.iteration[i]},{self.total[i]!r},{self.nll[i]!r},"
                f"{self.kinetic[i]!r},{self.prior[i]!r},{self.wallclock_ms[i]:.3f}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class ArrayDataset:
    """Bare (context, target) arrays for unconditional or ad-hoc training."""

    targets: np.ndarray
    contexts: np.ndarray | None = None

    def __len__(self) -> int:
        return self.targets.shape[0]


def _param_norm(params) -> float:
    return float(np.sqrt(sum(float((p.data**2).sum()) for p in params.values())))


def train(dataset, flow, encoder, config: TrainConfig):
    """Optimize flow (+ encoder) on the windowed dataset; returns (checkpoint, log).

    Mini-batches are drawn uniformly with replacement from a generator
    seeded by config.seed, so the resulting checkpoint is a deterministic
    function of (dataset, initial parameters, config).
    """
    n = len(dataset)
    if n < 1:
        raise ValueError("dataset is empty")
    contexts = getattr(dataset, "contexts", None)
    targets = dataset.targets

    params = model_parameters(flow, encoder)
    state = AdamState.init(params)
    rng = np.random.default_rng(config.seed)
    log = TrainLog()

    for it in range(config.iterations):
        t0 = time.perf_counter()
        idx = rng.integers(0, n, size=config.batch_size)
        ctx = Tensor(contexts[idx]) if contexts is not None else None
        tgt = Tensor(targets[idx])
        for p in params.values():
            p.grad = None
        try:
            with Tape():
                loss, parts = total_loss(flow, encoder, (ctx, tgt), config.weights)
                backward(loss, params=params.values())
        except NonFiniteLossError as e:
            offenders = idx[e.batch_indices].tolist() if e.batch_indices else []
            raise NonFiniteLossError(
                f"iteration {it}: {e} (dataset rows {offenders[:10]})", e.batch_indices
            ) from None
        state = adam_step(params, state, config)
        ms = (time.perf_counter() - t0) * 1e3
        log.append(it, parts, ms, _param_norm(params))

    ckpt = checkpoint_dict(
        flow,
        encoder,
        norm=getattr(dataset, "norm", None),
        window_config=dataset.window_config() if hasattr(dataset, "window_config") else None,
        extra={"train_config": {
            "iterations": config.iterations,
            "batch_size": config.batch_size,
            "learning_rate": config.learning_rate,
            "seed": config.seed,
            "lambda1": config.weights.lambda1,
            "lambda2": config.weights.lambda2,
            "lambda3": config.weights.lambda3,
            "grad_clip": config.grad_clip,
        }},
    )
    return ckpt, log
