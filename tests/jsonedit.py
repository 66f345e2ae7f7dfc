"""One-edit mutations of a JSON document, shared by the file-contract tests.

A contract test picks a node of a valid document and one edit at it:
delete the node, add an "extra" key to it (an object only), or put one of
REPLACEMENTS in its place.
"""

import copy
import math
from functools import reduce
from operator import getitem

from hypothesis import strategies as st

# non-finite and huge numbers, a bool, null, a wrong type, empty containers,
# and a lone surrogate, which a JSON `\ud800` escape gives and UTF-8 cannot encode
REPLACEMENTS = [math.nan, math.inf, -math.inf, 10**400, True, None, "x", [], {}, "\ud800"]
MUTATIONS = st.sampled_from(["delete", "add", *range(len(REPLACEMENTS))])


def nodes(value, path=()):
    """The path of every node of a JSON value, the root's () first."""
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from nodes(child, path + (key,))


def edited(value, path: tuple, mutation):
    """A copy of `value` with `mutation` (an item of MUTATIONS) applied at
    `path`; deleting the root, or adding a key to a node that is not an
    object, leaves the copy as it was."""
    box = [copy.deepcopy(value)]  # so the root has a parent too
    parent, key = reduce(getitem, (0, *path)[:-1], box), (0, *path)[-1]
    if mutation == "add" and isinstance(parent[key], dict):
        parent[key]["extra"] = 1
    elif mutation == "delete" and path:
        del parent[key]
    elif isinstance(mutation, int):
        parent[key] = copy.deepcopy(REPLACEMENTS[mutation])
    return box[0]
