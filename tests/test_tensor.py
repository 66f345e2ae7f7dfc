import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptblend import rng as rngmod
from promptblend.tensor import (GELU_BLOCK_ROWS, DegenerateLossError, Node, ShapeError,
                                Tensor, attention_core, concat_cols, concat_rows, cross_entropy,
                                dropout, embedding_lookup, gelu, layer_norm, linear,
                                scatter_rows, slice_cols, weighted_sum)

from fdcheck import finite_difference, max_rel_error
from graphprobe import closure_arrays
import oracles
from oracles import matmul, mean, softmax, total, transpose


def _matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        x = Tensor(np.arange(9.0).reshape(3, 3))
        eye = Tensor(np.eye(3))
        assert np.array_equal(matmul(eye, x).data, x.data)

    def test_annihilator(self):
        z = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 2))))
        assert np.array_equal(z.data, np.zeros((2, 2)))

    def test_matches_triple_loop_oracle(self):
        gen = rngmod.stream(0, "matmul")
        a, b = gen.normal(size=(3, 3)), gen.normal(size=(3, 3))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - _matmul_oracle(a, b))) < 1e-12

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward_formulas(self):
        gen = rngmod.stream(1, "matmul-grad")
        a = Tensor(gen.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        total(matmul(a, b)).backward()
        fd = finite_difference(lambda: float(total(matmul(a, b)).data), [a, b])
        assert max_rel_error([a.grad, b.grad], fd) < 1e-6


def _softmax_oracle(row):
    e = [math.exp(v) for v in row]
    z = sum(e)
    return [v / z for v in e]


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((1, 8)))
        loss = cross_entropy(logits, [[5]], pad_id=0)
        assert abs(float(loss.data) - math.log(8)) < 1e-12

    def test_saturated_target(self):
        row = np.zeros((1, 6))
        row[0, 2] = 1e4
        assert float(cross_entropy(Tensor(row), [[2]], pad_id=0).data) < 1e-6

    def test_matches_softmax_oracle(self):
        # independent route: explicit softmax then -log of the picked prob
        row = [2.0, 0.0, 0.0]
        expected = -math.log(_softmax_oracle(row)[0])
        got = float(cross_entropy(Tensor(np.array([row])), [[0]], pad_id=1).data)
        assert abs(expected - 0.2395) < 1e-3  # sanity anchor for the oracle itself
        assert abs(got - expected) < 1e-12

    def test_all_pad_is_degenerate(self):
        with pytest.raises(DegenerateLossError):
            cross_entropy(Tensor(np.zeros((2, 4))), [[0, 0]], pad_id=0)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((1, 4))), [[4]], pad_id=0)

    def test_pad_positions_do_not_affect_value_or_grad(self):
        gen = rngmod.stream(2, "ce-pad")
        base = gen.normal(size=(4, 5))
        targets = [[2, 0, 3, 0]]  # positions 1 and 3 are padding
        x1 = Tensor(base.copy(), requires_grad=True)
        l1 = cross_entropy(x1, targets, pad_id=0)
        l1.backward()
        poked = base.copy()
        poked[1] += 100.0
        poked[3] -= 50.0
        x2 = Tensor(poked, requires_grad=True)
        l2 = cross_entropy(x2, targets, pad_id=0)
        l2.backward()
        assert float(l1.data) == float(l2.data)
        assert np.array_equal(x1.grad, x2.grad)
        assert np.all(x1.grad[1] == 0) and np.all(x1.grad[3] == 0)

    def test_non_negative(self):
        gen = rngmod.stream(3, "ce-pos")
        for _ in range(50):
            logits = Tensor(gen.normal(scale=3.0, size=(3, 7)))
            ids = gen.integers(1, 7, size=3)
            assert float(cross_entropy(logits, [ids], pad_id=0).data) >= 0.0

    @pytest.mark.parametrize("targets", [[1, 2, 3], [[1, 2], [3, 1]], [[[1, 2, 3]]]])
    def test_targets_must_be_a_grid_over_the_logit_rows(self, targets):
        with pytest.raises(ShapeError, match="targets grid"):
            cross_entropy(Tensor(np.zeros((3, 4))), targets, pad_id=0)

    def test_non_uniform_logits_leave_log_vocab(self):
        gen = rngmod.stream(12, "ce-uni")
        for _ in range(20):
            logits = gen.normal(scale=2.0, size=(2, 6))
            got = float(cross_entropy(Tensor(logits), [[1, 4]], pad_id=0).data)
            assert abs(got - math.log(6)) > 1e-12


class TestDropout:
    def test_zero_probability_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        y = dropout(x, 0.0, rngmod.stream(0, "d"))
        assert np.array_equal(y.data, x.data)

    def test_eval_mode_is_bit_exact_identity(self):
        gen = rngmod.stream(4, "drop-eval")
        x = Tensor(gen.normal(size=(5, 5)))
        y = dropout(x, 0.7, None)
        assert y.data.tobytes() == x.data.tobytes()

    def test_identity_adds_no_node(self):
        gen = rngmod.stream(4, "drop-eval")
        x = Tensor(gen.normal(size=(5, 5)), requires_grad=True)
        assert dropout(x, 0.7, None) is x
        assert dropout(x, 0.0, gen) is x

    def test_survivor_scaling_preserves_mean(self):
        x = Tensor(np.ones(100_000))
        y = dropout(x, 0.5, rngmod.stream(5, "drop-lln"))
        assert 0.97 <= float(y.data.mean()) <= 1.03

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0, rngmod.stream(0, "d"))

    def test_same_seed_same_mask(self):
        x = Tensor(np.ones((8, 8)))
        a = dropout(x, 0.4, rngmod.stream(6, "mask"))
        b = dropout(x, 0.4, rngmod.stream(6, "mask"))
        assert a.data.tobytes() == b.data.tobytes()

    def test_gradient_uses_the_same_mask(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)

        def run():
            return float(total(dropout(x, 0.5, rngmod.stream(7, "gm"))).data)

        y = dropout(x, 0.5, rngmod.stream(7, "gm"))
        total(y).backward()
        fd = finite_difference(run, [x])
        assert max_rel_error([x.grad], fd) < 1e-6


def _postorder(root: Tensor) -> list[Node]:
    order, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for p in node.inputs:
                visit(p)
            order.append(node)

    visit(root.node)
    return order


def _backward_releasing_nothing(root: Tensor) -> None:
    """Reverse-mode pass that leaves every node's gradient in place."""
    root.grad = np.ones_like(root.data)
    for node in reversed(_postorder(root)):
        if node.backward is not None:
            node.backward(node.grad, *node.inputs)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        total(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_elementwise_square(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        total(x * x).backward()
        assert np.array_equal(x.grad, np.array([2.0, 4.0, 6.0]))

    def test_repeated_backward_accumulates(self):
        # two graphs built on the same leaf add into its gradient
        x = Tensor(np.ones(3), requires_grad=True)
        total(x).backward()
        total(x).backward()
        assert np.array_equal(x.grad, 2 * np.ones(3))

    def test_shared_gradient_accumulates_out_of_place(self):
        # __add__ hands one gradient array to both inputs
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([5.0]), requires_grad=True)
        (a + b).backward()
        (a + b).backward()
        assert np.array_equal(a.grad, [2.0]) and np.array_equal(b.grad, [2.0])
        assert not np.shares_memory(a.grad, b.grad)

    def test_second_backward_through_a_consumed_graph_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = total(x * x)
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            total(loss * 2.0).backward()  # a new graph on top of a consumed node
        assert np.array_equal(x.grad, 2 * np.ones(3))

    @pytest.mark.parametrize("other", [1.0, Tensor(np.ones(3)), "x"],
                             ids=["scalar", "row-bias", "non-tensor"])
    def test_add_takes_only_a_same_shape_tensor(self, other):
        x = Tensor(np.ones((2, 3)))
        with pytest.raises(ShapeError, match=r"cannot add Tensor\(shape=\(2, 3\).* and "):
            x + other

    def test_only_leaves_keep_gradients(self):
        gen = rngmod.stream(4, "release")
        data = [gen.normal(size=s) for s in [(5, 4), (4, 3), (3,), (3,), (3,)]]

        def graph():
            leaves = [Tensor(d, requires_grad=True) for d in data]
            x, w, b, gain, bias = leaves
            h = gelu(linear(x, w, b))
            y = layer_norm(h, gain, bias)
            return leaves, total((y + h) * y)  # h and y each feed two nodes

        leaves, root = graph()
        inner = [n for n in _postorder(root) if n.inputs]
        root.backward()
        assert len(inner) == 6
        assert all(n.grad is None and n.inputs is None and n.backward is None for n in inner)
        kept_leaves, kept_root = graph()
        _backward_releasing_nothing(kept_root)
        for got, want in zip(leaves, kept_leaves):
            assert got.grad.tobytes() == want.grad.tobytes()

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 2)), requires_grad=True).backward()

    def test_a_root_that_wants_no_gradient_keeps_none(self):
        x = Tensor(np.ones(3))
        root = total(x * 2.0)
        root.backward()
        assert root.grad is None and x.grad is None

    def test_shared_subexpression(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        total(y * y).backward()
        assert abs(float(x.grad[0]) - 36.0) < 1e-12  # d/dx (3x)^2 = 18x


def _residual_block(x, w, b, gain, bias, w_out, keep):
    """linear -> residual sum -> layer norm -> linear -> loss; `keep` is
    handed each intermediate and returns it."""
    h = keep(linear(x, w, b))
    r = keep(h + x)
    n = keep(layer_norm(r, gain, bias))
    return cross_entropy(keep(linear(n, w_out, b)), [[1, 0, 3, 2, 1]], pad_id=0)


class TestSavedArrays:
    """A node keeps only the arrays its backward formula reads, so an
    intermediate no formula reads is freed once the caller drops its tensor."""

    @staticmethod
    def _leaves(trainable: bool):
        gen = rngmod.stream(12, "saved")
        shapes = [(5, 4), (4, 4), (4,), (4,), (4,), (4, 4)]
        x, w, b, gain, bias, w_out = [Tensor(gen.normal(size=s)) for s in shapes]
        x.requires_grad = True
        w.requires_grad = w_out.requires_grad = trainable
        return x, w, b, gain, bias, w_out

    def _run(self, trainable: bool, keep_all: bool):
        """The block's leaf gradients, and weak references to the arrays of
        the first linear's output, the residual sum and the normalized rows,
        taken while the loss is alive."""
        leaves = self._leaves(trainable)
        kept, refs = [], []

        def keep(t):
            refs.append(weakref.ref(t.data))
            if keep_all:
                kept.append(t)
            return t

        loss = _residual_block(*leaves, keep)
        alive = [ref() is not None for ref in refs[:3]]
        loss.backward()
        return alive, [None if p.grad is None else p.grad.tobytes() for p in leaves]

    def test_frozen_weights_keep_no_activation(self):
        # h feeds a sum, r a layer norm, n a linear whose weight is frozen
        alive, grads = self._run(trainable=False, keep_all=False)
        assert alive == [False, False, False]
        assert grads == self._run(trainable=False, keep_all=True)[1]

    def test_trainable_weight_keeps_its_input(self):
        # w_out's gradient reads n, the normalized rows
        alive, grads = self._run(trainable=True, keep_all=False)
        assert alive == [False, False, True]
        assert grads == self._run(trainable=True, keep_all=True)[1]
        assert None not in grads[:2] and grads[5] is not None

    def test_no_backward_closure_holds_a_tensor(self):
        gen = rngmod.stream(13, "closures")
        x = Tensor(gen.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(gen.normal(size=3), requires_grad=True)
        table = Tensor(gen.normal(size=(5, 6)), requires_grad=True)
        bias = Tensor(np.zeros(6), requires_grad=True)
        h = concat_rows([x, embedding_lookup(table, [1, 3]),
                         weighted_sum(gen.normal(size=(3, 2, 6)), w)])
        h = dropout(layer_norm(h, bias, bias), 0.5, gen) * 2.0
        h = concat_cols([slice_cols(h, 3, 6), slice_cols(h, 0, 3)])
        h = attention_core(h, h, h, np.zeros((8, 8)), 1, 2) + scatter_rows(h * h, range(8), 8)
        root = cross_entropy(gelu(linear(h, Tensor(gen.normal(size=(6, 6))), bias)),
                             [[1] * 8], pad_id=0)
        closures = [n.backward for n in _postorder(root) if n.backward is not None]
        assert {fn.__qualname__.split(".<locals>")[0] for fn in closures} == {
            "Tensor.__add__", "Tensor.__mul__", "attention_core", "concat_cols",
            "concat_rows", "cross_entropy", "dropout", "embedding_lookup", "gelu",
            "layer_norm", "linear", "scatter_rows", "slice_cols", "weighted_sum"}
        for fn in closures:
            held = [c.cell_contents for c in fn.__closure__ or ()]
            assert not any(isinstance(v, Tensor) for v in held), fn.__qualname__

    @pytest.mark.parametrize("rows", [3, GELU_BLOCK_ROWS + 5])
    def test_gelu_saves_only_its_slope(self, rows):
        x = Tensor(rngmod.stream(14, "gelu-saved").normal(size=(rows, 7)), requires_grad=True)
        saved = closure_arrays(gelu(x))
        assert [a.shape for a in saved] == [x.data.shape]
        assert not np.shares_memory(saved[0], x.data)


def _composite(x, w, b, gain, bias, targets):
    h = gelu(linear(x, w, b))
    h = layer_norm(h, gain, bias)
    s = softmax(h)
    return cross_entropy(matmul(s, transpose(w)), targets, pad_id=0)


class TestGradcheckComposite:
    def test_full_chain_matches_finite_differences(self):
        gen = rngmod.stream(8, "chain")
        x = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(gen.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(gen.normal(size=5), requires_grad=True)
        gain = Tensor(np.ones(5), requires_grad=True)
        bias = Tensor(np.zeros(5), requires_grad=True)
        targets = [[1, 3, 2]]
        params = [x, w, b, gain, bias]
        _composite(x, w, b, gain, bias, targets).backward()
        analytic = [p.grad for p in params]
        fd = finite_difference(
            lambda: float(_composite(x, w, b, gain, bias, targets).data), params)
        assert max_rel_error(analytic, fd) < 1e-4

    def test_structural_ops_match_finite_differences(self):
        gen = rngmod.stream(9, "struct")
        a = Tensor(gen.normal(size=(2, 6)), requires_grad=True)
        b = Tensor(gen.normal(size=(3, 6)), requires_grad=True)
        table = Tensor(gen.normal(size=(7, 6)), requires_grad=True)
        ids = [0, 4, 4, 6]
        stack = gen.normal(size=(3, 4, 6))
        w = Tensor(gen.normal(size=3), requires_grad=True)

        def forward():
            joined = concat_rows([a, b, embedding_lookup(table, ids)])
            left = slice_cols(joined, 0, 3)
            right = slice_cols(joined, 3, 6)
            mixed = concat_cols([right, left])
            return (mean(mixed) + total(weighted_sum(stack, w))) * 1.0

        params = [a, b, table, w]
        forward().backward()
        analytic = [p.grad for p in params]
        fd = finite_difference(lambda: float(forward().data), params)
        assert max_rel_error(analytic, fd) < 1e-4


class TestFusedOps:
    def test_linear_matches_unfused(self):
        gen = rngmod.stream(20, "lin")
        x = Tensor(gen.normal(size=(3, 4)))
        w = Tensor(gen.normal(size=(4, 5)))
        b = Tensor(gen.normal(size=5))
        assert np.array_equal(linear(x, w, b).data, matmul(x, w).data + b.data)

    def test_linear_gradcheck(self):
        gen = rngmod.stream(21, "lin-grad")
        x = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(gen.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(gen.normal(size=5), requires_grad=True)
        params = [x, w, b]
        total(linear(x, w, b)).backward()
        fd = finite_difference(lambda: float(total(linear(x, w, b)).data), params)
        assert max_rel_error([p.grad for p in params], fd) < 1e-6

    def test_attention_core_matches_unfused_route(self):
        gen = rngmod.stream(22, "attn")
        q = Tensor(gen.normal(size=(4, 3)))
        k = Tensor(gen.normal(size=(5, 3)))
        v = Tensor(gen.normal(size=(5, 3)))
        mask = np.zeros((4, 5))
        mask[:, 2] = -1e30
        fused = attention_core(q, k, v, mask, 1, 1)
        scale = 1 / np.sqrt(3)
        unfused = matmul(softmax(matmul(q, transpose(k)) * scale + Tensor(mask)), v)
        assert np.max(np.abs(fused.data - unfused.data)) < 1e-14
        assert np.all(np.exp((q.data @ k.data.T * scale + mask)
                             - (q.data @ k.data.T * scale + mask).max(-1, keepdims=True))[:, 2]
                      == 0)

    def test_attention_core_gradcheck(self):
        gen = rngmod.stream(23, "attn-grad")
        q = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        k = Tensor(gen.normal(size=(5, 4)), requires_grad=True)
        v = Tensor(gen.normal(size=(5, 4)), requires_grad=True)
        mask = np.zeros((3, 5))
        mask[:, 4] = -1e30
        params = [q, k, v]
        total(attention_core(q, k, v, mask, 1, 1)).backward()
        fd = finite_difference(
            lambda: float(total(attention_core(q, k, v, mask, 1, 1)).data), params)
        assert max_rel_error([p.grad for p in params], fd) < 1e-4
        assert np.all(k.grad[4] == 0) and np.all(v.grad[4] == 0)


_STACK = rngmod.stream(31, "chain-stack").normal(size=(3, 3, 4))
# each op of a chain on [3, 4] tensors: its operands' shapes (a [3, 4] operand
# comes from the chain so far, any other is a fresh leaf) and the op
_CHAIN_OPS = {
    "add": ([(3, 4), (3, 4)], lambda a, b: a + b),
    "mul": ([(3, 4), (3, 4)], lambda a, b: a * b),
    "scale": ([(3, 4)], lambda a: a * 2.0),
    "linear": ([(3, 4), (4, 4), (4,)], linear),
    "layer_norm": ([(3, 4), (4,), (4,)], layer_norm),
    "gelu": ([(3, 4)], gelu),
    "dropout": ([(3, 4)], lambda a: dropout(a, 0.5, rngmod.stream(0, "chain"))),
    "attention": ([(3, 4)] * 3, lambda q, k, v: attention_core(q, k, v, np.zeros((3, 3)), 1, 2)),
    "cols": ([(3, 4), (3, 4)], lambda a, b: concat_cols([slice_cols(a, 0, 1),
                                                         slice_cols(b, 1, 4)])),
    "rows": ([(3, 4), (3, 4)], lambda a, b: embedding_lookup(concat_rows([a, b]), [0, 4, 5])),
    "scatter": ([(3, 4)], lambda a: scatter_rows(a, [2, 0, 1], 3)),
    "weighted_sum": ([(3,)], lambda w: weighted_sum(_STACK, w)),
}


def _draw_chain(data, leaf_flags):
    """A chain of _CHAIN_OPS that starts from one [3, 4] leaf per flag: every
    leaf's value and flag, fresh leaves included, and each step's op name
    with its operands, ("chain", i) for entry i of the chain so far or
    ("leaf", j) for leaf j."""
    gen = rngmod.stream(32, "chain")
    values, flags = [gen.normal(size=(3, 4)) for _ in leaf_flags], list(leaf_flags)
    steps = []
    for name in data.draw(st.lists(st.sampled_from(sorted(_CHAIN_OPS)), max_size=8)):
        operands = []
        for shape in _CHAIN_OPS[name][0]:
            if shape == (3, 4):
                last = len(leaf_flags) + len(steps) - 1
                operands.append(("chain", data.draw(st.integers(0, last))))
            else:
                values.append(gen.normal(size=shape))
                flags.append(data.draw(st.booleans()))
                operands.append(("leaf", len(values) - 1))
        steps.append((name, operands))
    return values, flags, steps


def _run_chain(values, flags, steps, start):
    """The drawn chain on fresh leaves built with `flags`: the leaves, the
    chain (its `start` first leaves, then each step's output), each step's
    inputs, and a cross-entropy loss on the chain's last entry."""
    leaves = [Tensor(v, requires_grad=f) for v, f in zip(values, flags)]
    chain, inputs = leaves[:start], []
    with np.errstate(all="ignore"):  # long chains may overflow; the checks compare bits
        for name, operands in steps:
            inputs.append([chain[i] if kind == "chain" else leaves[i] for kind, i in operands])
            chain.append(_CHAIN_OPS[name][1](*inputs[-1]))
        loss = cross_entropy(chain[-1], [[1, 2, 3]], pad_id=0)
    return leaves, chain, inputs, loss


@settings(max_examples=60, deadline=None)
@given(data=st.data(), leaf_flags=st.lists(st.booleans(), min_size=1, max_size=3))
def test_an_op_output_wants_a_gradient_exactly_when_an_input_does(data, leaf_flags):
    values, flags, steps = _draw_chain(data, leaf_flags)
    _, chain, inputs, loss = _run_chain(values, flags, steps, len(leaf_flags))
    for (name, _), xs, out in zip(steps, inputs, chain[len(leaf_flags):]):
        assert out.requires_grad == any(x.requires_grad for x in xs), name
    assert loss.requires_grad == chain[-1].requires_grad


@settings(max_examples=60, deadline=None)
@given(data=st.data(), leaf_flags=st.lists(st.booleans(), min_size=1, max_size=3))
def test_a_leaf_gets_the_same_gradient_whatever_the_other_leaves_want(data, leaf_flags):
    # a closure's input-flag tests only skip work: a leaf that wants a gradient
    # gets the bits it gets when every leaf wants one, and a leaf that wants
    # none keeps None, also when the root wants none
    values, flags, steps = _draw_chain(data, leaf_flags)
    runs = []
    for run_flags in (flags, [True] * len(flags), [False] * len(flags)):
        leaves, _, _, loss = _run_chain(values, run_flags, steps, len(leaf_flags))
        with np.errstate(all="ignore"):
            loss.backward()
        runs.append([None if x.grad is None else x.grad.tobytes() for x in leaves])
    drawn, every, none = runs
    assert drawn == [g if f else None for g, f in zip(every, flags)]
    assert none == [None] * len(flags)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 4), inner=st.integers(1, 4), cols=st.integers(1, 4),
       seed=st.integers(0, 10_000))
# at h=1e-5 the forward's round-off moves a second-order stencil 1.3e-9 off
# one 6.2e-6 gradient entry of this draw, a relative error of 2.1e-4; at
# h=1e-4 its truncation error reaches 4e-2 on other draws, so fourth order
@example(rows=2, inner=4, cols=2, seed=3907)
def test_gradcheck_property_small_tensors(rows, inner, cols, seed):
    # any composition over <= 64 elements stays within 1e-4 of a fourth-order stencil
    gen = rngmod.stream(seed, "prop")
    x = Tensor(gen.normal(size=(rows, inner)), requires_grad=True)
    w = Tensor(gen.normal(size=(inner, cols)), requires_grad=True)
    g = Tensor(np.ones(cols), requires_grad=True)
    bias = Tensor(np.zeros(cols), requires_grad=True)
    targets = [list(gen.integers(0, cols, size=rows))]

    def forward():
        return cross_entropy(layer_norm(gelu(matmul(x, w)), g, bias), targets, pad_id=-1)

    params = [x, w, g, bias]
    forward().backward()
    analytic = [p.grad for p in params]
    fd = finite_difference(lambda: float(forward().data), params, h=1e-4, order=4)
    assert max_rel_error(analytic, fd) < 1e-4


@pytest.mark.parametrize("op", [gelu, lambda x: layer_norm(x, Tensor(np.ones(3)),
                                                           Tensor(np.zeros(3)))],
                         ids=["gelu", "layer_norm"])
@pytest.mark.parametrize("shape", [(3,), (2, 2, 3)])
def test_row_ops_take_only_2d_input(op, shape):
    with pytest.raises(ShapeError, match="2-D"):
        op(Tensor(np.ones(shape)))


def test_softmax_rows_sum_to_one():
    gen = rngmod.stream(10, "sm")
    y = softmax(Tensor(gen.normal(size=(6, 9)))).data
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(y >= 0)


def test_forward_ops_stay_finite():
    gen = rngmod.stream(11, "finite")
    x = Tensor(gen.normal(scale=50.0, size=(4, 8)))
    for out in (softmax(x), gelu(x), matmul(x, Tensor(gen.normal(size=(8, 3))))):
        assert np.all(np.isfinite(out.data))


_B = GELU_BLOCK_ROWS


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from([1, _B - 1, _B, _B + 1, 3 * _B + 1]),
       width=st.sampled_from([7, 64, 128, 256]), transposed=st.booleans(),
       scale=st.sampled_from([0.1, 1.0, 6.0]), seed=st.integers(0, 2**16))
def test_blocked_gelu_is_bitwise_the_whole_array_gelu(rows, width, transposed, scale, seed):
    gen = np.random.default_rng(seed)
    # a transposed input is a non-contiguous view of the same values
    data = gen.normal(scale=scale, size=(width, rows)).T if transposed \
        else gen.normal(scale=scale, size=(rows, width))
    g = gen.normal(size=(rows, width))
    got, want = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
    y, y_ref = gelu(got), oracles.gelu(want)
    assert y.data.tobytes() == y_ref.data.tobytes()
    y.node.backward(g, *y.node.inputs)
    y_ref.node.backward(g, *y_ref.node.inputs)
    assert got.grad.shape == want.grad.shape == (rows, width)
    assert got.grad.tobytes() == want.grad.tobytes()
