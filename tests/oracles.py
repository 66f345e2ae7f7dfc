"""Unfused reference ops shared by the test modules.

The library fuses softmax into attention and cross-entropy and never
reduces a tensor to a scalar outside the loss; these differentiable
helpers exist so tests can build independent routes and scalar roots.
"""

import numpy as np

from promptblend.composer import WeightPredictor, WeightVector
from promptblend.tensor import ShapeError, Tensor


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, x.requires_grad, (x,))

    def _bw():
        if x.requires_grad:
            g = out.grad
            x._accum((g - (g * y).sum(axis=-1, keepdims=True)) * y)

    out._backward = _bw
    return out


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {x.data.shape}")
    out = Tensor(x.data.T.copy(), x.requires_grad, (x,))

    def _bw():
        if x.requires_grad:
            x._accum(out.grad.T)

    out._backward = _bw
    return out


def total(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor."""
    out = Tensor(x.data.sum(), x.requires_grad, (x,))

    def _bw():
        if x.requires_grad:
            x._accum(np.full_like(x.data, out.grad))

    out._backward = _bw
    return out


def mean(x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor(x.data.mean(), x.requires_grad, (x,))

    def _bw():
        if x.requires_grad:
            x._accum(np.full_like(x.data, out.grad / n))

    out._backward = _bw
    return out


def predict_weights(predictor: WeightPredictor, q: np.ndarray, training: bool = False,
                    rng: np.random.Generator | None = None) -> WeightVector:
    out = predictor.forward(Tensor(np.asarray(q).reshape(1, -1)), training, rng)
    return WeightVector(out.data[0].copy())
