"""What an autodiff graph keeps alive, for the tests that check backward()
gives memory back, and which op outputs want a gradient."""

import weakref

import numpy as np

from promptblend import tensor


def closure_arrays(root) -> list[np.ndarray]:
    """Every ndarray held in a cell of a backward closure in root's graph,
    each once."""
    arrays, seen, stack = {}, set(), [root.node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.inputs or ())
        cells = node.backward.__closure__ if node.backward is not None else None
        for cell in cells or ():
            if isinstance(cell.cell_contents, np.ndarray):
                arrays[id(cell.cell_contents)] = cell.cell_contents
    return list(arrays.values())


def record_gradient_ops(monkeypatch) -> list[str]:
    """A list that, from now on, gets the backward closure's name of every op
    output made that wants a gradient (a graph node with inputs)."""
    made = []

    class RecordingNode(tensor.Node):
        def __init__(self, requires_grad, inputs=(), backward=None):
            super().__init__(requires_grad, inputs, backward)
            if requires_grad and inputs:
                made.append(backward.__qualname__)

    monkeypatch.setattr(tensor, "Node", RecordingNode)
    return made


def saved_array_refs(root, owned) -> list[weakref.ref]:
    """Weak references to the arrays closure_arrays finds, except those in
    `owned`: parameters and constants that outlive the graph."""
    kept = {id(a) for a in owned}
    return [weakref.ref(a) for a in closure_arrays(root) if id(a) not in kept]
