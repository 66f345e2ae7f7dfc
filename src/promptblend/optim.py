"""AdamW with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class OptimizerStateError(RuntimeError):
    """Raised when a parameter is missing required optimizer state."""


class AdamW:
    """Decoupled-weight-decay Adam with bias correction.

    step() leaves gradients untouched; the caller resets them via
    zero_grad() between steps. `m` and `v` hold the moment buffers, one per
    parameter and shaped like it; `step_count` counts the steps taken.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3, weight_decay: float = 0.01):
        if not lr >= 0:  # NaN fails too
            raise ValueError(f"lr must be non-negative, got {lr}")
        if not weight_decay >= 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise OptimizerStateError(f"parameter {i} has no gradient; run backward() first")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            p.data *= 1.0 - self.lr * self.weight_decay
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


def descend(opt: AdamW, n: int, batch_size: int, epochs: int, shuffle: np.random.Generator,
            batch_loss, what: str):
    """Shuffled mini-batch descent over examples 0..n-1.

    Each epoch draws one permutation from `shuffle` and cuts it into
    batches of `batch_size`. Per batch, `batch_loss(indices)` builds the
    scalar loss; a non-finite loss raises DivergenceError naming `what`,
    the step and the epoch, before any update. Otherwise the loss is
    backpropagated and dropped, so one step's graph is freed before the
    next is built, `opt` steps and gradients are reset. Yields
    (epoch, step, indices, loss value) after each step; both count from 1.
    A non-finite parameter after the last step raises DivergenceError too.
    """
    step = 0
    for epoch in range(1, epochs + 1):
        order = shuffle.permutation(n)
        for start in range(0, n, batch_size):
            indices = order[start:start + batch_size]
            step += 1
            loss = batch_loss(indices)
            value = float(loss.data)
            if not np.isfinite(value):
                raise DivergenceError(f"non-finite {what} at step {step} (epoch {epoch})")
            loss.backward()
            del loss  # frees the graph before the next batch_loss builds one
            opt.step()
            opt.zero_grad()
            yield epoch, step, indices, value
    # the last update has no later loss to show a divergence
    if not all(np.isfinite(p.data).all() for p in opt.params):
        raise DivergenceError(f"non-finite parameters after step {step} (epoch {epoch})")
