"""Dense float64 tensors with reverse-mode automatic differentiation.

Covers exactly what the pipeline needs: fused linear, same-shape add,
elementwise ops, fused multi-head attention, layer norm, GELU, inverted
dropout, embedding lookup, row placement and a per-sequence cross-entropy
with pad masking. Graphs are built eagerly and backpropagated in one thread.

A Tensor is a value (`data`) and a graph node (`node`), and nodes, not
tensors, link the graph. An op's node holds its input nodes and a backward
closure, which is called with the gradient and those nodes (named as the
input tensors they shadow) and keeps only the arrays its formula reads. A
node keeps a gradient only if it wants one: Node.accum ignores any other, so
a closure tests an input's flag only to skip work. A value no formula reads,
such as a residual sum or a frozen linear's input, is freed as soon as the
caller drops its tensor. backward() consumes the graph: once a node's
closure has run, the node drops it and its input links, so each saved array
is freed once the last formula reading it has run. A graph has no reference
cycles and is freed by reference counting once its root is dropped; a node
that requires no gradient keeps neither its inputs nor its closure, so a
forward-only graph is freed op by op.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class DegenerateLossError(ValueError):
    """Raised when a loss has no positions to average over."""


class Node:
    """A tensor's place in the graph: its gradient, whether it wants one,
    and for an op's output, the input nodes and the closure that
    backward() calls as `backward(grad, *inputs)`, both None once it has."""

    __slots__ = ("grad", "requires_grad", "inputs", "backward")

    def __init__(self, requires_grad: bool, inputs: tuple = (), backward=None):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.inputs = inputs
        self.backward = backward

    def accum(self, g: np.ndarray) -> None:
        """Add g, out of place as closures may share it, if this node wants a gradient."""
        if self.requires_grad:
            self.grad = g if self.grad is None else self.grad + g


class Tensor:
    """A value and its graph node.

    `data` is a float64 ndarray (row-major). `grad`, once populated by
    backward(), has the same shape. A leaf wants a gradient if built with
    `requires_grad=True`, an op's output if one of its inputs `_prev` does.
    Leaf gradients accumulate across the backward() calls of separate
    graphs; callers reset them explicitly.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False, _prev=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        for p in _prev:
            if p.node.requires_grad:
                self.node = Node(True, tuple([p.node for p in _prev]), _backward)
                return
        self.node = Node(requires_grad)  # a leaf, or an op no gradient passes through

    grad = property(lambda self: self.node.grad,
                    lambda self, g: setattr(self.node, "grad", g))
    requires_grad = property(lambda self: self.node.requires_grad,
                             lambda self, flag: setattr(self.node, "requires_grad", flag))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Backpropagate from a scalar root, consuming its graph.

        Leaf grads are accumulated into, not reset. Once a non-leaf node's
        closure has run, the node drops its gradient, its closure and its
        input links, so every array the closure saved is freed as soon as
        no other closure reads it, and after backward() returns only leaves
        hold gradients. A second backward() through a consumed node raises
        RuntimeError.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar root, got shape {self.data.shape}")
        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node.inputs is None:
                raise RuntimeError("backward() through a graph that an earlier backward() "
                                   "consumed; build the graph again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node.inputs:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:  # a pass cut short may have left some behind
            if node.inputs:
                node.grad = None
        self.node.accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node.backward is not None and node.requires_grad:
                node.backward(node.grad, *node.inputs)
            if node.inputs:  # every consumer has run: nothing reads it again
                node.grad = node.inputs = node.backward = None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor) or self.data.shape != other.data.shape:
            raise ShapeError(f"cannot add {self!r} and {other!r}")

        def _bw(g, self, other):
            self.accum(g)
            other.accum(g)

        return Tensor(self.data + other.data, _prev=(self, other), _backward=_bw)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            def _bw(g, self):
                self.accum(g * other)

            return Tensor(self.data * other, _prev=(self,), _backward=_bw)
        if self.data.shape != other.data.shape:
            raise ShapeError(f"cannot multiply shapes {self.data.shape} and {other.data.shape}")

        x, y = self.data, other.data

        def _bw(g, self, other):
            if self.requires_grad:
                self.accum(g * y)
            if other.requires_grad:
                other.accum(g * x)

        return Tensor(self.data * other.data, _prev=(self, other), _backward=_bw)

    __rmul__ = __mul__

# -- functional ops ------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for 2-D x; one graph node instead of two."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear shapes disagree: {x.data.shape} x {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"bias shape {b.data.shape} does not match output width "
                         f"{w.data.shape[1]}")

    wd, xd = w.data, x.data if w.requires_grad else None  # x only for w's gradient

    def _bw(g, x, w, b):
        if x.requires_grad:
            x.accum(g @ wd.T)
        if xd is not None:
            w.accum(xd.T @ g)
        if b.requires_grad:
            b.accum(g.sum(axis=0))

    return Tensor(x.data @ w.data + b.data, _prev=(x, w, b), _backward=_bw)


def attention_core(q: Tensor, k: Tensor, v: Tensor, add_mask: np.ndarray,
                   batch: int, heads: int) -> Tensor:
    """softmax(q kᵀ/√dh + mask) v for every example and head, as one fused
    graph node.

    q is [batch*Sq, heads*dh] and k, v are [batch*Sk, heads*dh]: each
    example's rows are contiguous, and so are each head's columns. The
    output has q's layout. `add_mask` is a constant additive mask (0 or a
    large negative number) that broadcasts against [batch, heads, Sq, Sk],
    so a 2-D [Sq, Sk] mask serves every example alike; masked keys end up
    with exactly zero attention weight.
    """
    width = q.data.shape[1]
    if width % heads or any(x.data.ndim != 2 or x.data.shape[1] != width
                            or x.data.shape[0] % batch for x in (q, k, v)):
        raise ShapeError(f"attention operands {q.data.shape}, {k.data.shape}, "
                         f"{v.data.shape} do not split into {batch} examples of "
                         f"{heads} heads")
    dh = width // heads
    scale = 1.0 / np.sqrt(dh)

    def split(m):  # [batch*S, heads*dh] -> [batch, heads, S, dh]
        return m.reshape(batch, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge(m):  # inverse of split
        return m.transpose(0, 2, 1, 3).reshape(-1, width)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    a = qh @ kh.swapaxes(-1, -2)  # softmax(a * scale + mask), in place
    a *= scale
    a += add_mask
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)

    def _bw(g, q, k, v):
        gh = split(g)
        if v.requires_grad:
            v.accum(merge(a.swapaxes(-1, -2) @ gh))
        if q.requires_grad or k.requires_grad:
            da = gh @ vh.swapaxes(-1, -2)
            ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a
            if q.requires_grad:
                q.accum(merge(ds @ kh * scale))
            if k.requires_grad:
                k.accum(merge(ds.swapaxes(-1, -2) @ qh * scale))

    return Tensor(merge(a @ vh), _prev=(q, k, v), _backward=_bw)


_GELU_C = np.sqrt(2.0 / np.pi)
# GELU walks its input in blocks of this many rows, so each temporary stays
# in L2 instead of streaming a whole [rows, 256] array through memory once
# per elementwise op; a 64 x 256 block is 128 KB. Measured on a 2-vCPU Xeon
# (2 MB L2 per core) on the FFN's [690, 256] input: forward 3.2 -> 1.6 ms,
# and the gradient's formula 2.3 -> 1.0 ms; 32 to 128 rows time the same.
GELU_BLOCK_ROWS = 64


def _in_row_blocks(kernel, whole, scratch) -> None:
    """Run `kernel` on successive blocks of GELU_BLOCK_ROWS rows: row slices
    of the `whole` arrays, then the leading rows of the block-sized `scratch`
    arrays. An input of one block runs on the arrays themselves."""
    rows = whole[0].shape[0]
    if rows <= GELU_BLOCK_ROWS:
        kernel(*whole, *scratch)
        return
    for r in range(0, rows, GELU_BLOCK_ROWS):
        part = [a[r:r + GELU_BLOCK_ROWS] for a in whole]
        kernel(*part, *(a[:len(part[0])] for a in scratch))


def _gelu_rows(v, y, th, t) -> None:
    """y = 0.5 * v * (1 + th) with th = tanh(c * (v + 0.044715 * (v * v * v))),
    op for op; t is scratch. Each ufunc call's last argument is its output."""
    np.multiply(v, v, y)
    np.multiply(y, v, y)
    np.multiply(0.044715, y, y)
    np.add(v, y, y)
    np.multiply(_GELU_C, y, y)
    np.tanh(y, th)
    np.multiply(0.5, v, y)
    np.add(1.0, th, t)
    np.multiply(y, t, y)


def _gelu_slope_rows(v, y, slope, th, t, du) -> None:
    """_gelu_rows, then its derivative slope = 0.5 * (1 + th) + 0.5 * v *
    (1 - th * th) * du with du = c * (1 + 3 * 0.044715 * (v * v)), op for op;
    th, t and du are scratch."""
    _gelu_rows(v, y, th, t)  # leaves t = 1 + th
    np.multiply(v, v, du)
    np.multiply(3 * 0.044715, du, du)
    np.add(1.0, du, du)
    np.multiply(_GELU_C, du, du)
    np.multiply(th, th, th)
    np.subtract(1.0, th, th)
    np.multiply(0.5, v, slope)
    np.multiply(slope, th, slope)
    np.multiply(slope, du, slope)
    np.multiply(0.5, t, t)
    np.add(t, slope, slope)


def gelu(x: Tensor) -> Tensor:
    """Smooth ramp nonlinearity (tanh-form GELU) of a 2-D tensor, evaluated
    in row blocks with the op order of the whole-array expressions, so every
    output and gradient element is bit-identical to them. When x wants a
    gradient the forward also computes the slope, the one array backward
    reads; otherwise it computes none."""
    v = x.data
    if v.ndim != 2:
        raise ShapeError(f"gelu expects a 2-D tensor, got {v.shape}")
    block = (min(v.shape[0], GELU_BLOCK_ROWS), v.shape[1])
    y = np.empty(v.shape)
    if not x.requires_grad:
        _in_row_blocks(_gelu_rows, (v, y), (np.empty(block), np.empty(block)))
        return Tensor(y)
    slope = np.empty(v.shape)
    _in_row_blocks(_gelu_slope_rows, (v, y, slope), [np.empty(block) for _ in range(3)])

    def _bw(g, x):
        x.accum(g * slope)

    return Tensor(y, _prev=(x,), _backward=_bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of a 2-D tensor, then scale and shift per feature."""
    v = x.data
    if v.ndim != 2:
        raise ShapeError(f"layer_norm expects a 2-D tensor, got {v.shape}")
    xhat = v - v.mean(axis=-1, keepdims=True)  # centred, then normalized in place
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    gd = gain.data

    def _bw(g, x, gain, bias):
        if gain.requires_grad:
            gain.accum((g * xhat).sum(axis=0))
        if bias.requires_grad:
            bias.accum(g.sum(axis=0))
        if x.requires_grad:
            dxhat = g * gd
            dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            x.accum(dx)

    out = xhat * gd
    out += bias.data
    return Tensor(out, _prev=(x, gain, bias), _backward=_bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p),
    with the mask drawn from rng. Without an rng (eval mode), or at p == 0,
    it returns x itself, adding no graph node."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)

    def _bw(g, x):
        x.accum(g * mask)

    return Tensor(x.data * mask, _prev=(x,), _backward=_bw)


def _sequence_terms(v: np.ndarray, targets, pad_id: int):
    """The checked [B, T] target grid for [B*T, V] logits `v`, its non-pad
    mask and per-sequence counts, the max-shifted logits, and each
    sequence's mean loss over its non-pad positions."""
    if v.ndim != 2:
        raise ShapeError(f"cross_entropy expects [T, V] logits, got {v.shape}")
    ids = np.asarray(targets, dtype=np.int64)
    if ids.ndim != 2 or ids.size != v.shape[0]:
        raise ShapeError(f"targets grid {ids.shape} does not match logits rows {v.shape}")
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

    `targets` is a [B, T] grid whose row b labels logits rows b*T..b*T+T-1.
    Positions whose target equals pad_id contribute nothing to the value or
    the gradient.
    """
    ids, keep, n, shifted, per_sequence = _sequence_terms(logits.data, targets, pad_id)

    def _bw(g, logits):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(p.shape[0]), ids.reshape(-1)] -= 1.0
        p[~keep.reshape(-1)] = 0.0
        # a row's weight in the mean is 1 / (its sequence's positions * sequences)
        logits.accum(g * p / np.repeat(n * len(n), ids.shape[1])[:, None])

    return Tensor(per_sequence.mean(), _prev=(logits,), _backward=_bw)


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack 2-D tensors along axis 0."""
    cols = parts[0].data.shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != cols:
            raise ShapeError(f"concat_rows needs matching column counts, got "
                             f"{[q.data.shape for q in parts]}")

    heights = [p.data.shape[0] for p in parts]

    def _bw(g, *parts):
        r = 0
        for p, h in zip(parts, heights):
            p.accum(g[r:r + h])
            r += h

    return Tensor(np.concatenate([p.data for p in parts], axis=0), _prev=parts, _backward=_bw)


def scatter_rows(x: Tensor, index, rows: int) -> Tensor:
    """Row i of x placed at row index[i] of an otherwise zero [rows, cols]
    matrix; the indices must be distinct."""
    idx = np.asarray(index, dtype=np.int64)
    if x.data.ndim != 2 or idx.shape != x.data.shape[:1]:
        raise ShapeError(f"scatter_rows needs one index per row of {x.data.shape}, "
                         f"got {idx.shape}")
    data = np.zeros((rows, x.data.shape[1]))
    data[idx] = x.data

    def _bw(g, x):
        x.accum(g[idx])

    return Tensor(data, _prev=(x,), _backward=_bw)


def slice_cols(x: Tensor, j0: int, j1: int) -> Tensor:
    shape = x.data.shape

    def _bw(g, x):
        full = np.zeros(shape)
        full[:, j0:j1] = g
        x.accum(full)

    return Tensor(x.data[:, j0:j1].copy(), _prev=(x,), _backward=_bw)


def concat_cols(parts: list[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]

    def _bw(g, *parts):
        c = 0
        for p, w in zip(parts, widths):
            p.accum(g[:, c:c + w])
            c += w

    return Tensor(np.concatenate([p.data for p in parts], axis=1), _prev=parts, _backward=_bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by id; backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    if np.any((idx < 0) | (idx >= table.data.shape[0])):
        bad = idx[(idx < 0) | (idx >= table.data.shape[0])][0]
        raise IndexError(f"token id {bad} out of range [0, {table.data.shape[0]})")

    shape = table.data.shape

    def _bw(g, table):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        table.accum(full)

    return Tensor(table.data[idx], _prev=(table,), _backward=_bw)


def weighted_sum(stack: np.ndarray, w: Tensor) -> Tensor:
    """sum_k w[k] * stack[k] for a constant [K, ...] stack.

    Gradient flows to the weights only; the stack is held fixed.
    """
    wv = w.data.reshape(-1)
    if wv.shape[0] != stack.shape[0]:
        raise ShapeError(f"weight length {wv.shape[0]} does not match stack size {stack.shape[0]}")

    shape = w.data.shape

    def _bw(g, w):
        axes = tuple(range(1, stack.ndim))
        gw = np.tensordot(stack, g, axes=(axes, tuple(range(g.ndim))))
        w.accum(gw.reshape(shape))

    return Tensor(np.tensordot(wv, stack, axes=1), _prev=(w,), _backward=_bw)
