"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check that the tracer replaces every binding of a traced function,
that each per-layer metric is non-zero exactly where design.json says the
workload exercises it, that tracing leaves the program's outputs
unchanged, and that the canary chain reproduces the pinned losses. The
traced runs take about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracer  # noqa: E402

DESIGN = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_binding_site_holds_the_wrapper():
    import promptblend.cli  # noqa: F401  (loads every promptblend module)

    originals = {id(vars(tracer._resolve(owner))[attr]) for _, owner, attr in tracer.TARGETS}
    t = tracer.Tracer()
    undo = t.install()
    try:
        assert t.missing == []
        for owner in tracer._binding_owners():
            for key, value in vars(owner).items():
                assert id(value) not in originals, f"{owner.__name__}.{key} is not wrapped"
        cli, composer, model, train = (sys.modules[f"promptblend.{m}"]
                                       for m in ("cli", "composer", "model", "train"))
        for fn in (model.linear, composer.linear, train.combine, train.question_repr,
                   cli._control_eval, cli._prompted_eval, cli._train, cli.pretrain,
                   cli.load_checkpoint, model.load_checkpoint, cli.checkpoint_bytes,
                   model.FrozenLM.encode, model.Tensor.__radd__, model.Tensor.__init__):
            assert hasattr(fn, "__wrapped__"), fn
    finally:
        tracer.restore(undo)
    assert not hasattr(sys.modules["promptblend.model"].linear, "__wrapped__")


def test_benchmark_json_matches_design():
    layer_names = [n for group in DESIGN["per_layer"] for n in group["metrics"]]
    assert len(layer_names) == len(set(layer_names))
    assert [m["name"] for m in SPEC["per_layer"]] == layer_names
    assert {m["name"] for m in SPEC["end_to_end"]} == set(DESIGN["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.fixture(scope="module")
def traced_runs():
    return {w: bench.run_workload(w, seed=11, seconds=0, trace=True,
                                  deadline=time.perf_counter() + 170, setup_reps=1)
            for w in bench.WORKLOADS}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_output_checks_pass(traced_runs, workload):
    assert traced_runs[workload].failures == []


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_measured(traced_runs, workload):
    result = traced_runs[workload]
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(bench.end_to_end(result))
    assert {m["name"] for m in SPEC["per_layer"]} <= set(bench.per_layer(result))


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_per_layer_metrics_are_nonzero_where_exercised(traced_runs, workload):
    samples = bench.per_layer(traced_runs[workload])
    for group in DESIGN["per_layer"]:
        for name in group["metrics"]:
            if workload in group["nonzero_on"]:
                assert min(samples[name]) > 0, f"{name} is 0 on {workload}"
            if workload in group["zero_on"]:
                assert max(samples[name]) == 0, f"{name} is not 0 on {workload}"


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tracing_leaves_results_unchanged(traced_runs, workload):
    invocations = traced_runs[workload].invocations
    traced = [i for i in invocations if i.traced]
    plain = [i for i in invocations if not i.traced]
    assert traced and plain
    assert {i.quality for i in traced} == {i.quality for i in plain}
    assert all(i.digests == plain[0].digests for i in invocations)


def test_canary_pins_absolute_losses(tmp_path):
    result = bench.Result(workload="eval")
    runner = bench.Runner(time.perf_counter() + 170)
    got = bench.canary_losses(runner, "eval", tmp_path / "canary", result)
    assert result.failures == [] and set(got) == set(bench.WORKLOADS)
    doc = json.loads(bench.CANARY.read_text(encoding="utf-8"))
    assert bench.canary_problems(got, doc) == []
    # A forward that shifts prompted and control losses alike still fails.
    got["eval"]["control_eval_loss"] *= 1 + 1e-6
    got["eval"]["prompted_eval_loss"] *= 1 + 1e-6
    assert len(bench.canary_problems(got, doc)) == 2


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
