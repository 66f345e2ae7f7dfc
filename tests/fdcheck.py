"""Finite-difference gradient oracle shared by the test modules."""

import numpy as np


def finite_difference(f, params, h=1e-5, order=2):
    """Central-difference gradient of scalar f() w.r.t. each Tensor in params.

    f must re-run the forward pass from the current parameter data. Order 4
    takes the five-point stencil (8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h,
    whose truncation error falls as h^4 rather than h^2, at twice the calls.
    """
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]

            def at(steps):
                flat[i] = orig + steps * h
                return f()

            if order == 2:
                g[i] = (at(1) - at(-1)) / (2 * h)
            else:
                g[i] = (8 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12 * h)
            flat[i] = orig
        grads.append(g.reshape(p.data.shape))
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
