"""Dense float64 tensors with reverse-mode automatic differentiation.

Covers exactly what the pipeline needs: fused linear, row-wise bias add,
elementwise ops, fused multi-head attention, layer norm, GELU, inverted
dropout, embedding lookup, row placement, and a per-sequence cross-entropy
with pad masking. Graphs are built eagerly and backpropagated
single-threaded.

A node's backward closure receives the node's gradient as its argument
and holds only the node's inputs, never the node itself, so a graph has
no reference cycles and is freed by reference counting as soon as its
root is dropped. A node that requires no gradient keeps neither its
inputs nor its closure, so a forward-only graph is freed op by op, as
soon as the caller drops each intermediate.
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

    def __init__(self, data, requires_grad: bool = False, _prev=(), _backward=None):
        self.data = _as_f64(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        if requires_grad:
            self._prev = tuple(_prev)
            self._backward = _backward
        else:  # no gradient passes through: hold nothing that backward would need
            self._prev = ()
            self._backward = None

    @property
    def is_leaf(self) -> bool:
        return not self._prev

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers ------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        # out of place: backward closures may hand one array to several inputs
        self.grad = g if self.grad is None else self.grad + g

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
                node._backward(node.grad)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            def _bw(g):
                if self.requires_grad:
                    self._accum(g)

            return Tensor(self.data + other, self.requires_grad, (self,), _bw)
        if self.data.shape == other.data.shape:
            def _bw(g):
                if self.requires_grad:
                    self._accum(g)
                if other.requires_grad:
                    other._accum(g)

            return Tensor(self.data + other.data, self.requires_grad or other.requires_grad,
                          (self, other), _bw)
        # row-wise bias: [T, d] + [d]
        if self.data.ndim == 2 and other.data.ndim == 1 and self.data.shape[1] == other.data.shape[0]:
            def _bw(g):
                if self.requires_grad:
                    self._accum(g)
                if other.requires_grad:
                    other._accum(g.sum(axis=0))

            return Tensor(self.data + other.data, self.requires_grad or other.requires_grad,
                          (self, other), _bw)
        raise ShapeError(f"cannot add shapes {self.data.shape} and {other.data.shape}")

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            def _bw(g):
                if self.requires_grad:
                    self._accum(g * other)

            return Tensor(self.data * other, self.requires_grad, (self,), _bw)
        if self.data.shape != other.data.shape:
            raise ShapeError(f"cannot multiply shapes {self.data.shape} and {other.data.shape}")

        def _bw(g):
            if self.requires_grad:
                self._accum(g * other.data)
            if other.requires_grad:
                other._accum(g * self.data)

        return Tensor(self.data * other.data, self.requires_grad or other.requires_grad,
                      (self, other), _bw)

    __rmul__ = __mul__
    __radd__ = __add__

# -- functional ops ------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for 2-D x; one graph node instead of two."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear shapes disagree: {x.data.shape} x {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"bias shape {b.data.shape} does not match output width "
                         f"{w.data.shape[1]}")

    def _bw(g):
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(x.data.T @ g)
        if b.requires_grad:
            b._accum(g.sum(axis=0))

    return Tensor(x.data @ w.data + b.data,
                  x.requires_grad or w.requires_grad or b.requires_grad, (x, w, b), _bw)


def attention_core(q: Tensor, k: Tensor, v: Tensor, add_mask: np.ndarray,
                   scale: float, batch: int = 1, heads: int = 1) -> Tensor:
    """softmax(q k^T * scale + mask) v for every example and head, as one
    fused graph node.

    q is [batch*Sq, heads*dh] and k, v are [batch*Sk, heads*dh]: each
    example's rows are contiguous, and so are each head's columns. The
    output has q's layout. `add_mask` is a constant additive mask (0 or a
    large negative number) that broadcasts against [batch, heads, Sq, Sk],
    so a 2-D [Sq, Sk] mask serves a single example; masked keys end up with
    exactly zero attention weight.
    """
    width = q.data.shape[1]
    if width % heads or any(x.data.ndim != 2 or x.data.shape[1] != width
                            or x.data.shape[0] % batch for x in (q, k, v)):
        raise ShapeError(f"attention operands {q.data.shape}, {k.data.shape}, "
                         f"{v.data.shape} do not split into {batch} examples of "
                         f"{heads} heads")
    dh = width // heads

    def split(m):  # [batch*S, heads*dh] -> [batch, heads, S, dh]
        return m.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge(m):  # inverse of split
        return m.transpose(0, 2, 1, 3).reshape(-1, width)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = qh @ kh.swapaxes(-1, -2) * scale + add_mask
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        gh = split(g)
        if v.requires_grad:
            v._accum(merge(a.swapaxes(-1, -2) @ gh))
        if q.requires_grad or k.requires_grad:
            da = gh @ vh.swapaxes(-1, -2)
            ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a
            if q.requires_grad:
                q._accum(merge(ds @ kh * scale))
            if k.requires_grad:
                k._accum(merge(ds.swapaxes(-1, -2) @ qh * scale))

    return Tensor(merge(a @ vh), q.requires_grad or k.requires_grad or v.requires_grad,
                  (q, k, v), _bw)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    """Smooth ramp nonlinearity (tanh-form GELU)."""
    v = x.data
    v2 = v * v
    u = _GELU_C * (v + 0.044715 * (v2 * v))
    th = np.tanh(u)
    y = 0.5 * v * (1.0 + th)

    def _bw(g):
        if x.requires_grad:
            du = _GELU_C * (1.0 + 3 * 0.044715 * v2)
            dy = 0.5 * (1.0 + th) + 0.5 * v * (1.0 - th * th) * du
            x._accum(g * dy)

    return Tensor(y, x.requires_grad, (x,), _bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift per feature."""
    v = x.data
    mu = v.mean(axis=-1, keepdims=True)
    centered = v - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    d = v.shape[-1]

    def _bw(g):
        if gain.requires_grad:
            gain._accum((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accum(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            x._accum(dx)

    return Tensor(xhat * gain.data + bias.data, x.requires_grad or gain.requires_grad
                  or bias.requires_grad, (x, gain, bias), _bw)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    In eval mode or at p == 0 it returns x itself, adding no graph node.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def _bw(g):
        if x.requires_grad:
            x._accum(g * mask)

    return Tensor(x.data * mask, x.requires_grad, (x,), _bw)


def _sequence_terms(v: np.ndarray, targets, pad_id: int):
    """The checked [B, T] target grid for [B*T, V] logits `v`, its non-pad
    mask and per-sequence counts, the max-shifted logits, and each
    sequence's mean loss over its non-pad positions."""
    if v.ndim != 2:
        raise ShapeError(f"cross_entropy expects [T, V] logits, got {v.shape}")
    ids = np.asarray(targets, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.size != v.shape[0]:
        raise ShapeError(f"targets length {ids.shape} does not match logits rows {v.shape}")
    if ids.ndim == 1:
        ids = ids[None]
    vocab = v.shape[1]
    if np.any((ids < 0) | (ids >= vocab)):
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise IndexError(f"target id {bad} out of range [0, {vocab})")
    keep = ids != pad_id
    n = keep.sum(axis=1)
    if np.any(n == 0):
        raise DegenerateLossError("all target positions are padding")
    shifted = v - v.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + v.max(axis=-1)
    losses = (lse - v[np.arange(v.shape[0]), ids.reshape(-1)]).reshape(ids.shape)
    return ids, keep, n, shifted, (losses * keep).sum(axis=1) / n


def sequence_losses(logits: np.ndarray, targets, pad_id: int) -> np.ndarray:
    """Each sequence's term of cross_entropy's mean, as a [B] array and
    without a graph."""
    return _sequence_terms(logits, targets, pad_id)[-1]


def cross_entropy(logits: Tensor, targets, pad_id: int) -> Tensor:
    """Mean over sequences of each sequence's mean -log softmax(logits_t)[target_t]
    over its non-pad positions.

    `targets` is one sequence of len(logits) ids, or a [B, T] grid whose
    row b labels logits rows b*T..b*T+T-1. Positions whose target equals
    pad_id contribute nothing to the value or the gradient.
    """
    ids, keep, n, shifted, per_sequence = _sequence_terms(logits.data, targets, pad_id)

    def _bw(g):
        if logits.requires_grad:
            p = np.exp(shifted)
            p /= p.sum(axis=-1, keepdims=True)
            p[np.arange(p.shape[0]), ids.reshape(-1)] -= 1.0
            p[~keep.reshape(-1)] = 0.0
            # a row's weight in the mean is 1 / (its sequence's positions * sequences)
            logits._accum(g * p / np.repeat(n * len(n), ids.shape[1])[:, None])

    return Tensor(per_sequence.mean(), logits.requires_grad, (logits,), _bw)


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack 2-D tensors along axis 0."""
    cols = parts[0].data.shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != cols:
            raise ShapeError(f"concat_rows needs matching column counts, got "
                             f"{[q.data.shape for q in parts]}")

    def _bw(g):
        r = 0
        for p in parts:
            h = p.data.shape[0]
            if p.requires_grad:
                p._accum(g[r:r + h])
            r += h

    return Tensor(np.concatenate([p.data for p in parts], axis=0),
                  any(p.requires_grad for p in parts), tuple(parts), _bw)


def scatter_rows(x: Tensor, index, rows: int) -> Tensor:
    """Row i of x placed at row index[i] of an otherwise zero [rows, cols]
    matrix; the indices must be distinct."""
    idx = np.asarray(index, dtype=np.int64)
    if x.data.ndim != 2 or idx.shape != x.data.shape[:1]:
        raise ShapeError(f"scatter_rows needs one index per row of {x.data.shape}, "
                         f"got {idx.shape}")
    data = np.zeros((rows, x.data.shape[1]))
    data[idx] = x.data

    def _bw(g):
        if x.requires_grad:
            x._accum(g[idx])

    return Tensor(data, x.requires_grad, (x,), _bw)


def slice_cols(x: Tensor, j0: int, j1: int) -> Tensor:
    def _bw(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[:, j0:j1] = g
            x._accum(full)

    return Tensor(x.data[:, j0:j1].copy(), x.requires_grad, (x,), _bw)


def concat_cols(parts: list[Tensor]) -> Tensor:
    def _bw(g):
        c = 0
        for p in parts:
            w = p.data.shape[1]
            if p.requires_grad:
                p._accum(g[:, c:c + w])
            c += w

    return Tensor(np.concatenate([p.data for p in parts], axis=1),
                  any(p.requires_grad for p in parts), tuple(parts), _bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by id; backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    if np.any((idx < 0) | (idx >= table.data.shape[0])):
        bad = idx[(idx < 0) | (idx >= table.data.shape[0])][0]
        raise IndexError(f"token id {bad} out of range [0, {table.data.shape[0]})")

    def _bw(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            table._accum(full)

    return Tensor(table.data[idx], table.requires_grad, (table,), _bw)


def weighted_sum(stack: np.ndarray, w: Tensor) -> Tensor:
    """sum_k w[k] * stack[k] for a constant [K, ...] stack.

    Gradient flows to the weights only; the stack is held fixed.
    """
    wv = w.data.reshape(-1)
    if wv.shape[0] != stack.shape[0]:
        raise ShapeError(f"weight length {wv.shape[0]} does not match stack size {stack.shape[0]}")

    def _bw(g):
        if w.requires_grad:
            axes = tuple(range(1, stack.ndim))
            gw = np.tensordot(stack, g, axes=(axes, tuple(range(g.ndim))))
            w._accum(gw.reshape(w.data.shape))

    return Tensor(np.tensordot(wv, stack, axes=1), w.requires_grad, (w,), _bw)
