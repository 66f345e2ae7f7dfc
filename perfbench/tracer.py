"""Span tracer for the promptblend benchmark.

The tracer wraps public functions of the ``promptblend`` modules from
outside the program, so the program itself is unchanged. A module that
imports a function by name (``from .tensor import linear``) holds its own
binding, so every binding of an original function in every loaded
``promptblend`` module, and in the classes those modules define, is
replaced by the one wrapper.

A span records its name, start, end and parent. Spans stay in memory and
are written once, when the traced invocation exits. Garbage-collector
pauses are timed through ``gc.callbacks``.

Run as a script, it executes one CLI invocation under the tracer:

    python3 perfbench/tracer.py SPANS.json -- train --data d.jsonl --out o
"""

from __future__ import annotations

import functools
import gc
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# (span name, owner, attribute). The owner is a module, or "module:Class".
TARGETS = [
    ("tensor.linear", "promptblend.tensor", "linear"),
    ("tensor.attention_core", "promptblend.tensor", "attention_core"),
    ("tensor.layer_norm", "promptblend.tensor", "layer_norm"),
    ("tensor.gelu", "promptblend.tensor", "gelu"),
    ("tensor.cross_entropy", "promptblend.tensor", "cross_entropy"),
    ("tensor.glue", "promptblend.tensor", "concat_rows"),
    ("tensor.glue", "promptblend.tensor", "concat_cols"),
    ("tensor.glue", "promptblend.tensor", "slice_cols"),
    ("tensor.glue", "promptblend.tensor", "embedding_lookup"),
    ("tensor.glue", "promptblend.tensor", "weighted_sum"),
    ("tensor.glue", "promptblend.tensor", "dropout"),
    ("tensor.glue", "promptblend.tensor:Tensor", "__add__"),
    ("tensor.glue", "promptblend.tensor:Tensor", "__mul__"),
    ("tensor.backward", "promptblend.tensor:Tensor", "backward"),
    ("model.encode", "promptblend.model:FrozenLM", "encode"),
    ("model.loss", "promptblend.model:FrozenLM", "loss_with_prompt"),
    ("model.score_choices", "promptblend.model:FrozenLM", "score_choices"),
    ("model.param_hash", "promptblend.model:FrozenLM", "param_hash"),
    ("model.pretrain", "promptblend.model", "pretrain"),
    ("composer.question_repr", "promptblend.composer", "question_repr"),
    ("composer.predictor", "promptblend.composer:WeightPredictor", "forward"),
    ("composer.combine", "promptblend.composer", "combine"),
    ("composer.build_basis", "promptblend.composer", "build_basis"),
    ("composer.project_to_vocab", "promptblend.composer", "project_to_vocab"),
    ("optim.init", "promptblend.optim:AdamW", "__init__"),
    ("optim.step", "promptblend.optim:AdamW", "step"),
    ("train.train", "promptblend.train", "train"),
    ("train.prompted_eval", "promptblend.train", "prompted_eval"),
    ("train.control_eval", "promptblend.train", "control_eval"),
    ("textdata.tokenize", "promptblend.textdata", "tokenize"),
    ("textdata.load_dataset", "promptblend.textdata", "load_dataset"),
    ("checkpoint.load", "promptblend.checkpoint", "load_checkpoint"),
    ("checkpoint.save", "promptblend.checkpoint", "checkpoint_bytes"),
    ("report.render", "promptblend.report", "render_report"),
    ("report.render", "promptblend.report", "render_curve_csv"),
    ("cli.run", "promptblend.cli", "run_cli"),
]

MODULES = ("tensor", "model", "composer", "optim", "train", "textdata",
           "checkpoint", "report", "cli")


def _checkpoint_bytes(name, args, result):
    if name == "checkpoint.save":
        return len(result)
    if name == "checkpoint.load":
        return os.path.getsize(args[0])
    return 0


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = sys.modules.get(module_name)
    if obj is not None and class_name:
        obj = getattr(obj, class_name, None)
    return obj


def _binding_owners():
    """Every loaded promptblend module and the classes each one defines."""
    owners = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "promptblend" or name.startswith("promptblend.")):
            continue
        owners.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                owners.append(value)
    return owners


class Tracer:
    """In-memory spans plus node, byte and garbage-collector counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self._stack: list[int] = []
        self.nodes = [0]
        self.checkpoint_bytes = 0
        self.gc = {"ms": 0.0, "collections": 0, "collected": 0}
        self._gc_t0 = 0
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack = self._stack
        clock = time.perf_counter_ns
        counts_bytes = name.startswith("checkpoint.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counts_bytes:
                self.checkpoint_bytes += _checkpoint_bytes(name, args, result)
            return result

        return wrapper

    def _count_nodes(self, init):
        nodes = self.nodes

        @functools.wraps(init)
        def counting_init(*args, **kwargs):
            nodes[0] += 1
            init(*args, **kwargs)

        return counting_init

    def install(self) -> list[tuple[object, str, object]]:
        """Replace every binding of each target; returns what restore() undoes."""
        replacement: dict[int, object] = {}
        for name, owner, attr in TARGETS:
            obj = _resolve(owner)
            original = vars(obj).get(attr) if obj is not None else None
            if original is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            replacement[id(original)] = self.wrap(name, original)
        tensor_cls = _resolve("promptblend.tensor:Tensor")
        if tensor_cls is not None:
            init = vars(tensor_cls)["__init__"]
            replacement[id(init)] = self._count_nodes(init)
        undo = []
        for owner in _binding_owners():
            for key, value in list(vars(owner).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    undo.append((owner, key, value))
                    setattr(owner, key, wrapper)
        return undo

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        else:
            self.gc["ms"] += (time.perf_counter_ns() - self._gc_t0) / 1e6
            self.gc["collections"] += 1
            self.gc["collected"] += info.get("collected", 0)

    def document(self) -> dict:
        return {
            "run_id": f"{os.getpid()}-{time.time_ns()}",
            "names": self.names,
            "span_name": self.span_name,
            "span_parent": self.span_parent,
            "span_start": self.span_start,
            "span_end": self.span_end,
            "nodes": self.nodes[0],
            "checkpoint_bytes": self.checkpoint_bytes,
            "gc": self.gc,
            "missing": self.missing,
        }


def restore(undo) -> None:
    for owner, key, value in undo:
        setattr(owner, key, value)


def _steps(doc: dict) -> list[tuple[float, float, float, float]]:
    """(total, forward, backward, optimizer) ms per optimizer step.

    A training loop starts when its AdamW is built. A step's forward part
    runs from the end of the previous step (or the loop start) to the
    start of backward().
    """
    names = doc["names"]
    steps = []
    prev_end = None
    bw = None
    for nid, start, end in zip(doc["span_name"], doc["span_start"], doc["span_end"]):
        name = names[nid]
        if name == "optim.init":
            prev_end, bw = end, None
        elif name == "tensor.backward":
            bw = (start, end)
        elif name == "optim.step" and prev_end is not None and bw is not None:
            steps.append(((end - prev_end) / 1e6, (bw[0] - prev_end) / 1e6,
                          (bw[1] - bw[0]) / 1e6, (end - start) / 1e6))
            prev_end, bw = end, None
    return steps


def summarize(doc: dict, examples: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    `examples` is the workload's per-example denominator, fixed by its
    inputs. Self time is a span's duration minus its children's.
    """
    names = doc["names"]
    count = len(doc["span_name"])
    dur = [doc["span_end"][i] - doc["span_start"][i] for i in range(count)]
    child = [0] * count
    for i, parent in enumerate(doc["span_parent"]):
        if parent >= 0:
            child[parent] += dur[i]
    calls: dict[str, int] = defaultdict(int)
    total_ms: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    for i, nid in enumerate(doc["span_name"]):
        name = names[nid]
        calls[name] += 1
        total_ms[name] += dur[i] / 1e6
        self_ms[name] += (dur[i] - child[i]) / 1e6

    m: dict[str, float] = {}
    for op in ("linear", "attention_core", "layer_norm", "gelu", "cross_entropy", "glue",
               "backward"):
        m[f"tensor.{op}.calls"] = calls[f"tensor.{op}"]
        m[f"tensor.{op}.ms"] = total_ms[f"tensor.{op}"]
    m["tensor.nodes_per_example"] = doc["nodes"] / examples
    m["tensor.gc.ms"] = doc["gc"]["ms"]
    m["tensor.gc.collections"] = doc["gc"]["collections"]
    m["tensor.gc.collected"] = doc["gc"]["collected"]

    m["model.encode.calls"] = calls["model.encode"]
    m["model.encode.ms"] = total_ms["model.encode"]
    m["model.encode_per_example"] = calls["model.encode"] / examples
    for part in ("loss", "score_choices", "param_hash"):
        m[f"model.{part}.ms"] = total_ms[f"model.{part}"]

    for part in ("question_repr", "predictor", "combine", "build_basis", "project_to_vocab"):
        m[f"composer.{part}.ms"] = total_ms[f"composer.{part}"]
    m["composer.question_repr.calls"] = calls["composer.question_repr"]

    m["optim.step.calls"] = calls["optim.step"]
    m["optim.step.ms"] = total_ms["optim.step"]

    steps = _steps(doc)
    m["train.step.count"] = len(steps)
    if steps:
        totals = [s[0] for s in steps]
        m["train.step.p50_ms"] = statistics.median(totals)
        m["train.step.p90_ms"] = (statistics.quantiles(totals, n=10, method="inclusive")[8]
                                  if len(totals) > 1 else totals[0])
        for j, part in ((1, "forward"), (2, "backward"), (3, "optimizer")):
            m[f"train.step.{part}_ms"] = sum(s[j] for s in steps) / len(steps)
    else:
        for part in ("p50", "p90", "forward", "backward", "optimizer"):
            m[f"train.step.{part}_ms"] = 0.0
    m["train.prompted_eval.ms"] = total_ms["train.prompted_eval"]
    m["train.control_eval.ms"] = total_ms["train.control_eval"]

    m["textdata.tokenize.calls"] = calls["textdata.tokenize"]
    m["textdata.tokenize_per_example"] = calls["textdata.tokenize"] / examples
    m["textdata.load_dataset.ms"] = total_ms["textdata.load_dataset"]

    m["checkpoint.load.ms"] = total_ms["checkpoint.load"]
    m["checkpoint.save.ms"] = total_ms["checkpoint.save"]
    m["checkpoint.bytes"] = doc["checkpoint_bytes"]

    m["report.render.ms"] = total_ms["report.render"]

    root_ms = total_ms["cli.run"]
    m["cli.run.ms"] = root_ms
    m["cli.self.ms"] = self_ms["cli.run"]
    for module in MODULES:
        share = sum(v for k, v in self_ms.items() if k.split(".")[0] == module)
        m[f"{module}.self_share"] = share / root_ms if root_ms else 0.0
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json -- <promptblend CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[3:]
    import promptblend.cli  # loads every promptblend module

    tracer = Tracer()
    tracer.install()
    for missing in tracer.missing:
        print(f"tracer: {missing} not found; its spans read 0", file=sys.stderr)
    gc.callbacks.append(tracer.on_gc)
    try:
        return promptblend.cli.run_cli(cli_args)
    finally:
        gc.callbacks.remove(tracer.on_gc)
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.document(), f, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
