import math
import weakref

import numpy as np
import pytest

from promptblend import rng as rngmod
from promptblend.optim import BETA1, BETA2, EPS, AdamW, OptimizerStateError, descend
from promptblend.tensor import Tensor

from oracles import total


def _scalar_adamw_oracle(p, g, steps, lr, beta1, beta2, eps, wd):
    """Independent plain-float reference for a single parameter."""
    m = v = 0.0
    for t in range(1, steps + 1):
        p *= 1.0 - lr * wd
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p -= lr * mhat / (vhat ** 0.5 + eps)
    return p


def test_zero_grad_zero_decay_is_stationary():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    opt.step()
    assert np.array_equal(p.data, np.array([1.0, -2.0]))


def test_pure_decoupled_decay():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.zeros(1)
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    opt.step()
    assert abs(float(p.data[0]) - 0.999) < 1e-15


def test_first_step_matches_scalar_oracle():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.ones(1)
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    opt.step()
    expected = _scalar_adamw_oracle(1.0, 1.0, 1, 0.1, 0.9, 0.999, 1e-8, 0.0)
    assert abs(expected - 0.9) < 1e-6  # closed form: 1 - lr * 1/(1 + eps)
    assert abs(float(p.data[0]) - expected) < 1e-9


def test_many_steps_match_scalar_oracle():
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = AdamW([p], lr=0.05, weight_decay=0.02)
    for _ in range(25):
        p.grad = np.array([0.3])
        opt.step()
    expected = _scalar_adamw_oracle(0.5, 0.3, 25, 0.05, BETA1, BETA2, EPS, 0.02)
    assert abs(float(p.data[0]) - expected) < 1e-12


def test_step_count_and_grads_untouched():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0])
    opt = AdamW([p], lr=0.1)
    opt.step()
    opt.step()
    assert opt.step_count == 2
    assert np.array_equal(p.grad, np.array([2.0]))
    opt.zero_grad()
    assert p.grad is None


def test_missing_grad_raises_state_error():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW([p])
    with pytest.raises(OptimizerStateError):
        opt.step()


def test_moment_buffers_are_shape_congruent():
    shapes = [(3, 4), (7,), (2, 2)]
    params = [Tensor(np.zeros(s), requires_grad=True) for s in shapes]
    opt = AdamW(params)
    for p, m, v in zip(params, opt.m, opt.v):
        assert m.shape == p.data.shape
        assert v.shape == p.data.shape


# Ids follow the row numbers of the table when it also held beta1, beta2 and eps
# (rows 1-3); those are module constants now, so only lr and weight_decay remain.
@pytest.mark.parametrize("kwargs", [{"lr": -0.1}, {"weight_decay": -1.0},
                                    {"lr": math.nan}, {"weight_decay": math.nan}],
                         ids=["kwargs0", "kwargs4", "lr-nan", "weight_decay-nan"])
def test_invalid_hyperparameters(kwargs):
    p = Tensor(np.zeros(1), requires_grad=True)
    with pytest.raises(ValueError):
        AdamW([p], **kwargs)


def test_zero_lr_leaves_params_bitwise_unchanged():
    gen = rngmod.stream(0, "optim")
    p = Tensor(gen.normal(size=(4, 4)), requires_grad=True)
    before = p.data.tobytes()
    opt = AdamW([p], lr=0.0, weight_decay=0.01)
    for _ in range(3):
        p.grad = gen.normal(size=(4, 4))
        opt.step()
    assert p.data.tobytes() == before


class _Loss(Tensor):
    __slots__ = ("__weakref__",)  # Tensor itself takes no weak references


def test_descend_holds_one_step_graph_at_a_time():
    p = Tensor(np.ones(3), requires_grad=True)
    losses = []

    def all_dead():
        return all(ref() is None for ref in losses)

    def batch_loss(indices):
        assert all_dead(), f"step {len(losses)}'s graph is alive as step {len(losses) + 1} starts"
        inner = total(p * p)
        loss = _Loss(inner.data, True, (inner,), lambda g, inner: inner.accum(g))
        losses.append(weakref.ref(loss))
        return loss

    steps = descend(AdamW([p], lr=0.01), 6, 2, 2, rngmod.stream(0, "descend"), batch_loss,
                    "loss")
    for epoch, step, indices, value in steps:
        assert all_dead(), f"step {step}'s graph is alive at its yield"
    assert len(losses) == 6
