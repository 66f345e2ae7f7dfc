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

    def _bw(g, x):
        if x.requires_grad:
            x.accum((g - (g * y).sum(axis=-1, keepdims=True)) * y)

    return Tensor(y, x.requires_grad, (x,), _bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D a @ b; the library only multiplies through fused `linear`."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")

    ad, bd = a.data, b.data

    def _bw(g, a, b):
        if a.requires_grad:
            a.accum(g @ bd.T)
        if b.requires_grad:
            b.accum(ad.T @ g)

    return Tensor(ad @ bd, a.requires_grad or b.requires_grad, (a, b), _bw)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {x.data.shape}")

    def _bw(g, x):
        if x.requires_grad:
            x.accum(g.T)

    return Tensor(x.data.T.copy(), x.requires_grad, (x,), _bw)


def total(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor."""
    v = x.data

    def _bw(g, x):
        if x.requires_grad:
            x.accum(np.full_like(v, g))

    return Tensor(x.data.sum(), x.requires_grad, (x,), _bw)


def mean(x: Tensor) -> Tensor:
    v = x.data

    def _bw(g, x):
        if x.requires_grad:
            x.accum(np.full_like(v, g / v.size))

    return Tensor(x.data.mean(), x.requires_grad, (x,), _bw)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    """Tanh-form GELU as whole-array expressions; the library evaluates the
    same expressions in row blocks and must match this bit for bit."""
    v = x.data
    v2 = v * v
    u = _GELU_C * (v + 0.044715 * (v2 * v))
    th = np.tanh(u)
    y = 0.5 * v * (1.0 + th)

    def _bw(g, x):
        if x.requires_grad:
            du = _GELU_C * (1.0 + 3 * 0.044715 * v2)
            dy = 0.5 * (1.0 + th) + 0.5 * v * (1.0 - th * th) * du
            x.accum(g * dy)

    return Tensor(y, x.requires_grad, (x,), _bw)


def predict_weights(predictor: WeightPredictor, q: np.ndarray,
                    rng: np.random.Generator | None = None) -> WeightVector:
    out = predictor.forward(Tensor(np.asarray(q).reshape(1, -1)), rng)
    return WeightVector(out.data[0].copy())
