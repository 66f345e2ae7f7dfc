"""A fixed computation that measures how fast the host runs right now.

The benchmark runs it between CLI invocations and scales its timings by
how long this script took, so that a shared host that speeds up or slows
down between runs moves the reported times less. It imports numpy but not
the program, so no change to the program changes its cost. Its mix follows
the program's: small matrix products, row statistics and a softmax on
arrays of one example's size, a Python object per operation, and one
larger product per step that BLAS splits across threads.
"""

import numpy as np

STEPS = 150


class Node:
    __slots__ = ("data", "parents", "backward")

    def __init__(self, data, parents, backward):
        self.data, self.parents, self.backward = data, parents, backward


def main() -> None:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 64))
    w1, b1 = rng.standard_normal((64, 256)) * 0.1, np.zeros(256)
    w2, b2 = rng.standard_normal((256, 64)) * 0.1, np.zeros(64)
    batch, w_out = rng.standard_normal((400, 64)), rng.standard_normal((64, 512)) * 0.1
    graph = []
    for _ in range(STEPS):
        h = Node(np.tanh(x @ w1 + b1), (x,), lambda g: g)
        o = h.data @ w2 + b2
        y = (o - o.mean(axis=1, keepdims=True)) / np.sqrt(o.var(axis=1, keepdims=True) + 1e-5)
        s = y @ y.T
        s = np.exp(s - s.max(axis=1, keepdims=True))
        s /= s.sum(axis=1, keepdims=True)
        logits = batch @ w_out
        logits -= logits.max(axis=1, keepdims=True)
        graph.append(Node(s @ y + (logits.T @ batch).sum(), (h,), None))
        if len(graph) > 50:
            graph.clear()


if __name__ == "__main__":
    main()
