"""Dense float64 tensors with reverse-mode automatic differentiation.

Covers exactly what the pipeline needs: 2-D matmul, row-wise bias add,
elementwise ops, fused attention, layer norm, GELU, inverted dropout,
embedding lookup, and a sequence cross-entropy with pad masking.
Graphs are built eagerly and backpropagated single-threaded.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class DegenerateLossError(ValueError):
    """Raised when a loss has no positions to average over."""


def _as_f64(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """A node in the computation graph.

    `data` is a float64 ndarray (row-major). `grad`, once populated by
    backward(), has the same shape. Leaf gradients accumulate across
    repeated backward() calls; callers reset them explicitly.
    """

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False, _prev=()):
        self.data = _as_f64(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._prev = tuple(_prev)
        self._backward = None

    @property
    def is_leaf(self) -> bool:
        return not self._prev

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers ------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar root.

        Repeated calls without resetting leaf grads accumulate into them;
        non-leaf grad buffers are cleared at the start of every call.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar root, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            if not node.is_leaf:
                node.grad = None
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.requires_grad:
                node._backward()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            out = Tensor(self.data + other, self.requires_grad, (self,))

            def _bw():
                if self.requires_grad:
                    self._accum(out.grad)

            out._backward = _bw
            return out
        if self.data.shape == other.data.shape:
            out = Tensor(self.data + other.data, self.requires_grad or other.requires_grad,
                         (self, other))

            def _bw():
                if self.requires_grad:
                    self._accum(out.grad)
                if other.requires_grad:
                    other._accum(out.grad)

            out._backward = _bw
            return out
        # row-wise bias: [T, d] + [d]
        if self.data.ndim == 2 and other.data.ndim == 1 and self.data.shape[1] == other.data.shape[0]:
            out = Tensor(self.data + other.data, self.requires_grad or other.requires_grad,
                         (self, other))

            def _bw():
                if self.requires_grad:
                    self._accum(out.grad)
                if other.requires_grad:
                    other._accum(out.grad.sum(axis=0))

            out._backward = _bw
            return out
        raise ShapeError(f"cannot add shapes {self.data.shape} and {other.data.shape}")

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            out = Tensor(self.data * other, self.requires_grad, (self,))

            def _bw():
                if self.requires_grad:
                    self._accum(out.grad * other)

            out._backward = _bw
            return out
        if self.data.shape != other.data.shape:
            raise ShapeError(f"cannot multiply shapes {self.data.shape} and {other.data.shape}")
        out = Tensor(self.data * other.data, self.requires_grad or other.requires_grad,
                     (self, other))

        def _bw():
            if self.requires_grad:
                self._accum(out.grad * other.data)
            if other.requires_grad:
                other._accum(out.grad * self.data)

        out._backward = _bw
        return out

    __rmul__ = __mul__
    __radd__ = __add__

    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
        out = Tensor(a @ b, self.requires_grad or other.requires_grad, (self, other))

        def _bw():
            if self.requires_grad:
                self._accum(out.grad @ b.T)
            if other.requires_grad:
                other._accum(a.T @ out.grad)

        out._backward = _bw
        return out

    __matmul__ = matmul

# -- functional ops ------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for 2-D x; one graph node instead of two."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear shapes disagree: {x.data.shape} x {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"bias shape {b.data.shape} does not match output width "
                         f"{w.data.shape[1]}")
    out = Tensor(x.data @ w.data + b.data,
                 x.requires_grad or w.requires_grad or b.requires_grad, (x, w, b))

    def _bw():
        g = out.grad
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(x.data.T @ g)
        if b.requires_grad:
            b._accum(g.sum(axis=0))

    out._backward = _bw
    return out


def attention_core(q: Tensor, k: Tensor, v: Tensor, add_mask: np.ndarray,
                   scale: float) -> Tensor:
    """softmax(q k^T * scale + mask) v as a single fused graph node.

    `add_mask` is a constant additive mask (0 or a large negative number);
    masked keys end up with exactly zero attention weight.
    """
    s = q.data @ k.data.T * scale + add_mask
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(a @ v.data, q.requires_grad or k.requires_grad or v.requires_grad,
                 (q, k, v))

    def _bw():
        g = out.grad
        if v.requires_grad:
            v._accum(a.T @ g)
        if q.requires_grad or k.requires_grad:
            da = g @ v.data.T
            ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a
            if q.requires_grad:
                q._accum(ds @ k.data * scale)
            if k.requires_grad:
                k._accum(ds.T @ q.data * scale)

    out._backward = _bw
    return out


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    """Smooth ramp nonlinearity (tanh-form GELU)."""
    v = x.data
    v2 = v * v
    u = _GELU_C * (v + 0.044715 * (v2 * v))
    th = np.tanh(u)
    y = 0.5 * v * (1.0 + th)
    out = Tensor(y, x.requires_grad, (x,))

    def _bw():
        if x.requires_grad:
            du = _GELU_C * (1.0 + 3 * 0.044715 * v2)
            dy = 0.5 * (1.0 + th) + 0.5 * v * (1.0 - th * th) * du
            x._accum(out.grad * dy)

    out._backward = _bw
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift per feature."""
    v = x.data
    mu = v.mean(axis=-1, keepdims=True)
    centered = v - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(xhat * gain.data + bias.data, x.requires_grad or gain.requires_grad
                 or bias.requires_grad, (x, gain, bias))
    d = v.shape[-1]

    def _bw():
        g = out.grad
        if gain.requires_grad:
            gain._accum((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accum(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            x._accum(dx)

    out._backward = _bw
    return out


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Eval mode is the identity, bit-exactly.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        out = Tensor(x.data, x.requires_grad, (x,))

        def _bw():
            if x.requires_grad:
                x._accum(out.grad)

        out._backward = _bw
        return out
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * mask, x.requires_grad, (x,))

    def _bw():
        if x.requires_grad:
            x._accum(out.grad * mask)

    out._backward = _bw
    return out


def cross_entropy(logits: Tensor, targets, pad_id: int) -> Tensor:
    """Mean of -log softmax(logits_t)[target_t] over non-pad positions.

    Positions whose target equals pad_id contribute nothing to the value
    or the gradient.
    """
    v = logits.data
    if v.ndim != 2:
        raise ShapeError(f"cross_entropy expects [T, V] logits, got {v.shape}")
    ids = np.asarray(targets, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != v.shape[0]:
        raise ShapeError(f"targets length {ids.shape} does not match logits rows {v.shape}")
    vocab = v.shape[1]
    if np.any((ids < 0) | (ids >= vocab)):
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise IndexError(f"target id {bad} out of range [0, {vocab})")
    keep = ids != pad_id
    n = int(keep.sum())
    if n == 0:
        raise DegenerateLossError("all target positions are padding")
    shifted = v - v.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + v.max(axis=-1)
    picked = v[np.arange(v.shape[0]), ids]
    losses = lse - picked
    out = Tensor((losses * keep).sum() / n, logits.requires_grad, (logits,))

    def _bw():
        if logits.requires_grad:
            p = np.exp(shifted)
            p /= p.sum(axis=-1, keepdims=True)
            p[np.arange(v.shape[0]), ids] -= 1.0
            p[~keep] = 0.0
            logits._accum(out.grad * p / n)

    out._backward = _bw
    return out


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack 2-D tensors along axis 0."""
    cols = parts[0].data.shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != cols:
            raise ShapeError(f"concat_rows needs matching column counts, got "
                             f"{[q.data.shape for q in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0),
                 any(p.requires_grad for p in parts), tuple(parts))

    def _bw():
        r = 0
        for p in parts:
            h = p.data.shape[0]
            if p.requires_grad:
                p._accum(out.grad[r:r + h])
            r += h

    out._backward = _bw
    return out


def slice_cols(x: Tensor, j0: int, j1: int) -> Tensor:
    out = Tensor(x.data[:, j0:j1].copy(), x.requires_grad, (x,))

    def _bw():
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[:, j0:j1] = out.grad
            x._accum(g)

    out._backward = _bw
    return out


def concat_cols(parts: list[Tensor]) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=1),
                 any(p.requires_grad for p in parts), tuple(parts))

    def _bw():
        c = 0
        for p in parts:
            w = p.data.shape[1]
            if p.requires_grad:
                p._accum(out.grad[:, c:c + w])
            c += w

    out._backward = _bw
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by id; backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    if np.any((idx < 0) | (idx >= table.data.shape[0])):
        bad = idx[(idx < 0) | (idx >= table.data.shape[0])][0]
        raise IndexError(f"token id {bad} out of range [0, {table.data.shape[0]})")
    out = Tensor(table.data[idx], table.requires_grad, (table,))

    def _bw():
        if table.requires_grad:
            g = np.zeros_like(table.data)
            np.add.at(g, idx, out.grad)
            table._accum(g)

    out._backward = _bw
    return out


def weighted_sum(stack: np.ndarray, w: Tensor) -> Tensor:
    """sum_k w[k] * stack[k] for a constant [K, ...] stack.

    Gradient flows to the weights only; the stack is held fixed.
    """
    wv = w.data.reshape(-1)
    if wv.shape[0] != stack.shape[0]:
        raise ShapeError(f"weight length {wv.shape[0]} does not match stack size {stack.shape[0]}")
    out = Tensor(np.tensordot(wv, stack, axes=1), w.requires_grad, (w,))

    def _bw():
        if w.requires_grad:
            axes = tuple(range(1, stack.ndim))
            gw = np.tensordot(stack, out.grad, axes=(axes, tuple(range(out.grad.ndim))))
            w._accum(gw.reshape(w.data.shape))

    out._backward = _bw
    return out
