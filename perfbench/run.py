"""Benchmark of the promptblend CLI on three workloads.

    python3 perfbench/run.py --workload {pretrain,train_b10,eval,all} \\
        --seed N --seconds S --trace {0,1}

Each workload generates its dataset from the workload seed
(``textdata.make_fixture(seed, 200)`` written as JSONL), builds its set-up
checkpoints with the CLI, then runs one CLI invocation after another, each
in its own process, for ``--seconds`` after one warm-up invocation whose
outputs are checked but not measured (a closed loop with one client). The
program receives only the generated files and flags.

``--trace 0`` reports the end-to-end metrics of untraced invocations.
Their times are scaled to a reference host speed, measured by running
reference.py between set-ups and invocations, because the shared host's
speed drifts between runs by more than a program change should be allowed
to cost; the measured times and the scale are printed too.
``--trace 1`` alternates untraced and traced invocations (see tracer.py)
and reports the per-layer metrics and the tracing overhead. Every
invocation's outputs are checked. After measuring, the workload's CLI
chain also runs on a small canary dataset whose losses must match the
values pinned in canary.json, so a program whose forward or backward
computes something else fails even where it stays self-consistent. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any
invocation or output check failed; every failure is also written to
standard error.

    python3 perfbench/run.py --pin-canary

rewrites canary.json from the current program; do that only on a commit
whose results are known to be right.

The benchmark sets no thread variables and never imports numpy itself:
BLAS threading is the program's business, and the environment block
records what the program saw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH_DIR))
import tracer  # noqa: E402  (imports neither numpy nor the program)

WORKLOADS = ("pretrain", "train_b10", "eval")
FIXTURE_SIZE = 200
VAL_FRACTION = 0.2  # the CLI's default --val-fraction
N_EVAL = max(1, round(FIXTURE_SIZE * VAL_FRACTION))
N_TRAIN = FIXTURE_SIZE - N_EVAL
PRETRAIN_EPOCHS = 2
SETUP_LM_EPOCHS = 4
TRAIN_EPOCHS = 4
BUNDLE_EPOCHS = 1
TRAIN_LR = "0.003"
SETUP_REPS = 3
MIN_INVOCATIONS = 3
# A run must end within 180 s. No child outlives the deadline, and the
# measuring loop starts an invocation only if it should end, at 1.5 times
# the longest one so far, with CANARY_RESERVE_S still left for the canary.
DEADLINE_S = 165.0
CANARY_RESERVE_S = 40.0
# At this scale the prompted-vs-control gap is a fraction of a percent and
# its sign depends on the dataset (+0.7% at worst over 34 seeds), so the
# prompt may cost at most this much.
PROMPT_SLACK = 0.02
EVAL_MATCH_REL = 1e-9
CANARY = BENCH_DIR / "canary.json"
CANARY_SEED = 5
CANARY_SIZE = 40
CANARY_EPOCHS = 2
# Loose enough for a different BLAS summation order, far too tight for a
# float32 path or a changed forward.
CANARY_REL = 1e-8
# Host speed: reference.py runs before every set-up, and while measuring
# before an invocation once REF_EVERY_S have passed since the last one.
# Set-up, wall and CPU times are scaled by REF_SECONDS over the run's median
# reference wall time, so a shared host's drift between runs cancels out.
REFERENCE = BENCH_DIR / "reference.py"
REF_SECONDS = 0.5
REF_EVERY_S = 3.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

GEN_CODE = (
    "import sys\n"
    "from promptblend import textdata as td\n"
    "td.save_dataset(td.make_fixture(int(sys.argv[1]), int(sys.argv[2])), sys.argv[3])\n"
)
ENV_CODE = (
    "import json, sys\n"
    "import promptblend\n"
    "import numpy as np\n"
    "try:\n"
    "    blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "except Exception:\n"
    "    blas = {}\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': np.__version__,\n"
    "                  'blas': {k: blas.get(k) for k in ('name', 'version',\n"
    "                                                   'openblas configuration')}}))\n"
)


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


@dataclass
class Invocation:
    traced: bool
    child: Child
    digests: dict
    quality: float
    control: float | None
    layer: dict | None = None


@dataclass
class Result:
    workload: str
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    invocations: list[Invocation] = field(default_factory=list)
    accuracy: float | None = None
    ref_s: list[float] = field(default_factory=list)


class Runner:
    """Runs children one at a time under a shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv: list[str], log: Path) -> Child:
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return Child(rc=-1, wall_s=0.0, cpu_s=0.0, rss_mb=0.0, stderr="deadline passed")
        with open(log.with_suffix(".out"), "wb") as out, \
                open(log.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        if proc.returncode < 0:
            why = "the benchmark's deadline" if time.perf_counter() >= self.deadline \
                else "a signal from outside the benchmark"
            stderr += f"\nkilled by signal {-proc.returncode} ({why}) after {wall:.1f} s\n"
        return Child(rc=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss / 1024.0, stderr=stderr)

    def python(self, args: list[str], log: Path) -> Child:
        return self.run([sys.executable, *args], log)

    def cli(self, args: list[str], log: Path) -> Child:
        return self.python(["-m", "promptblend.cli", *args], log)


# -- output readers --------------------------------------------------------


def read_pbld(path: Path) -> tuple[dict[str, bytes], dict]:
    """Raw little-endian float64 payloads and metadata of a PBLD checkpoint."""
    blob = path.read_bytes()
    if blob[:4] != b"PBLD":
        raise ValueError(f"{path}: not a PBLD checkpoint")
    _, count = struct.unpack_from("<II", blob, 4)
    off = 12
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off:off + name_len].decode("utf-8")
        off += name_len + 1
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        size = 8 * math.prod(dims)
        tensors[name] = blob[off:off + size]
        off += size
    (meta_len,) = struct.unpack_from("<Q", blob, off)
    off += 8
    return tensors, json.loads(blob[off:off + meta_len].decode("utf-8"))


def lm_hash(path: Path) -> str:
    """The frozen-LM parameter hash, computed from the file alone."""
    tensors, _ = read_pbld(path)
    h = hashlib.sha256()
    for name in sorted(n for n in tensors if n.startswith("lm.")):
        h.update(name[3:].encode("utf-8"))
        h.update(tensors[name])
    return h.hexdigest()


def digest_outputs(out: Path) -> dict[str, str]:
    """sha256 per output file; record.json without its wall-clock field."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "record.json":
            record = json.loads(data)
            record.pop("wall_clock_seconds", None)
            data = json.dumps(record, sort_keys=True).encode("utf-8")
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def read_losses(workload: str, out: Path) -> dict[str, float]:
    """The losses (and eval accuracy) one invocation wrote."""
    if workload == "pretrain":
        rec = read_pbld(out / "checkpoint.pbld")[1]["lm"]["pretrain_record"]
        return {k: rec[k] for k in ("initial_loss", "final_loss")}
    name = "record.json" if workload == "train_b10" else "eval.json"
    data = json.loads((out / name).read_text(encoding="utf-8"))
    keys = ["prompted_eval_loss", "control_eval_loss"]
    return {k: data[k] for k in keys + (["prompted_accuracy"] if workload == "eval" else [])}


def read_quality(workload: str, out: Path) -> tuple[float, float | None]:
    """The workload's loss (lower is better) and, past pretrain, the control loss."""
    losses = read_losses(workload, out)
    if workload == "pretrain":
        return losses["final_loss"], None
    return losses["prompted_eval_loss"], losses["control_eval_loss"]


# -- workloads ---------------------------------------------------------------


def examples_per_invocation(workload: str) -> int:
    """Per-example denominator, fixed by the inputs alone."""
    return {"pretrain": N_TRAIN * PRETRAIN_EPOCHS,
            "train_b10": N_TRAIN * TRAIN_EPOCHS,
            "eval": N_EVAL}[workload]


def train_args(data: Path, lm: Path, epochs: int, seed: int, out: Path) -> list[str]:
    return ["train", "--data", str(data), "--checkpoint", str(lm), "--epochs", str(epochs),
            "--batch-size", "10", "--lr", TRAIN_LR, "--seed", str(seed), "--out", str(out)]


def workload_args(workload: str, setup: dict[str, Path], seed: int, out: Path) -> list[str]:
    if workload == "pretrain":
        return ["pretrain", "--data", str(setup["data"]), "--epochs", str(PRETRAIN_EPOCHS),
                "--seed", str(seed), "--out", str(out)]
    if workload == "train_b10":
        return train_args(setup["data"], setup["lm"], TRAIN_EPOCHS, seed, out)
    return ["eval", "--data", str(setup["data"]), "--checkpoint", str(setup["bundle"]),
            "--out", str(out)]


def child_failure(what: str, child: Child) -> str | None:
    if child.rc != 0:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        return f"{what}: exit code {child.rc}: {tail[0]}"
    if "Traceback" in child.stderr:
        return f"{what}: traceback on stderr"
    return None


def run_setup(runner: Runner, workload: str, seed: int, where: Path,
              result: Result) -> dict[str, Path] | None:
    """Dataset plus set-up checkpoints; the wall time is one setup_s sample."""
    where.mkdir(parents=True)
    paths = {"data": where / "data.jsonl"}
    steps = [("generate", ["-c", GEN_CODE, str(seed), str(FIXTURE_SIZE), str(paths["data"])],
              False)]
    if workload in ("train_b10", "eval"):
        paths["lm"] = where / "lm" / "checkpoint.pbld"
        steps.append(("setup pretrain", ["pretrain", "--data", str(paths["data"]), "--epochs",
                                         str(SETUP_LM_EPOCHS), "--seed", str(seed),
                                         "--out", str(paths["lm"].parent)], True))
    if workload == "eval":
        paths["bundle"] = where / "bundle" / "checkpoint.pbld"
        steps.append(("setup train", train_args(paths["data"], paths["lm"], BUNDLE_EPOCHS,
                                                seed, paths["bundle"].parent), True))
    t0 = time.perf_counter()
    for what, args, is_cli in steps:
        result.attempted += 1
        log = where / what.replace(" ", "_")
        child = runner.cli(args, log) if is_cli else runner.python(args, log)
        failure = child_failure(what, child)
        if failure:
            result.failures.append(failure)
            return None
    result.setup_s.append(time.perf_counter() - t0)
    return paths


def time_reference(runner: Runner, log: Path, result: Result) -> None:
    """One host-speed sample: the wall time of reference.py."""
    result.attempted += 1
    child = runner.python([str(REFERENCE)], log)
    failure = child_failure("reference", child)
    if failure:
        result.failures.append(failure)
    else:
        result.ref_s.append(child.wall_s)


def setup_digest(paths: dict[str, Path]) -> dict[str, str]:
    return {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()}


def check_outputs(workload: str, setup: dict[str, Path], out: Path) -> list[str]:
    """Workload-specific output checks on one invocation's files."""
    problems = []
    if workload == "pretrain":
        rec = read_pbld(out / "checkpoint.pbld")[1]["lm"]["pretrain_record"]
        if not rec["final_loss"] < rec["initial_loss"]:
            problems.append(f"pretrain final loss {rec['final_loss']} not below initial "
                            f"{rec['initial_loss']}")
    elif workload == "train_b10":
        record = json.loads((out / "record.json").read_text(encoding="utf-8"))
        if record["lm_param_hash"] != lm_hash(setup["lm"]):
            problems.append("record.lm_param_hash differs from the set-up LM's hash")
        curve = record["epoch_means"]
        if not curve[-1] < curve[0]:
            problems.append(f"training curve did not fall: {curve}")
        prompted, control = record["prompted_eval_loss"], record["control_eval_loss"]
        if not prompted <= control * (1.0 + PROMPT_SLACK):
            problems.append(f"prompted eval loss {prompted} exceeds control {control} "
                            f"by more than {PROMPT_SLACK:.0%}")
    else:
        got = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        want = json.loads((setup["bundle"].parent / "record.json").read_text(encoding="utf-8"))
        for key in ("prompted_eval_loss", "control_eval_loss"):
            if not abs(got[key] - want[key]) <= EVAL_MATCH_REL * abs(want[key]):
                problems.append(f"eval {key} {got[key]} differs from the training run's "
                                f"{want[key]}")
        if got["eval_examples"] != N_EVAL or not 0.0 <= got["prompted_accuracy"] <= 1.0:
            problems.append(f"eval summary out of range: {got}")
    return problems


def canary_losses(runner: Runner, workload: str, where: Path,
                  result: Result) -> dict[str, dict] | None:
    """Losses of the workload's CLI chain on the pinned canary dataset.

    pretrain runs pretrain; train_b10 adds train on that LM; eval adds eval
    of that bundle. None when a step failed (the failure is recorded).
    """
    where.mkdir(parents=True)
    data, lm, bundle, ev = (where / n for n in ("data.jsonl", "lm", "bundle", "eval"))
    steps = [
        ("pretrain", ["pretrain", "--data", str(data), "--epochs", str(CANARY_EPOCHS),
                      "--seed", str(CANARY_SEED), "--out", str(lm)], lm),
        ("train_b10", train_args(data, lm / "checkpoint.pbld", CANARY_EPOCHS, CANARY_SEED,
                                 bundle), bundle),
        ("eval", ["eval", "--data", str(data), "--checkpoint", str(bundle / "checkpoint.pbld"),
                  "--out", str(ev)], ev),
    ][:WORKLOADS.index(workload) + 1]
    result.attempted += 1
    child = runner.python(["-c", GEN_CODE, str(CANARY_SEED), str(CANARY_SIZE), str(data)],
                          where / "generate")
    failure = child_failure("canary generate", child)
    losses = {}
    for step, args, out in steps:
        if failure:
            break
        result.attempted += 1
        failure = child_failure(f"canary {step}", runner.cli(args, where / step))
        if not failure:
            try:
                losses[step] = read_losses(step, out)
            except (OSError, KeyError, ValueError, struct.error) as e:
                failure = f"canary {step}: unreadable outputs: {e!r}"
    if failure:
        result.failures.append(failure)
        return None
    return losses


def canary_problems(got: dict[str, dict], doc: dict) -> list[str]:
    """Where the canary chain's losses differ from the pinned ones."""
    if [doc["seed"], doc["size"], doc["epochs"]] != [CANARY_SEED, CANARY_SIZE, CANARY_EPOCHS]:
        return ["canary.json was pinned for another canary dataset"]
    problems = []
    for step, values in got.items():
        for key, value in values.items():
            want = doc["losses"][step][key]
            if not abs(value - want) <= CANARY_REL * abs(want):
                problems.append(f"canary {step}: {key} {value!r} differs from the "
                                f"pinned {want!r}")
    return problems


def check_canary(runner: Runner, workload: str, where: Path, result: Result) -> None:
    got = canary_losses(runner, workload, where, result)
    if got is not None:
        result.attempted += 1
        result.failures.extend(
            canary_problems(got, json.loads(CANARY.read_text(encoding="utf-8"))))


def pin_canary() -> int:
    """Write canary.json from the current program's canary chain."""
    result = Result(workload="eval")
    where = WORK / f"canary-pin-{os.getpid()}"
    try:
        losses = canary_losses(Runner(time.perf_counter() + DEADLINE_S), "eval", where, result)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    if losses is None:
        print("\n".join(result.failures), file=sys.stderr)
        return 1
    doc = {"how": "python3 perfbench/run.py --pin-canary",
           "seed": CANARY_SEED, "size": CANARY_SIZE, "epochs": CANARY_EPOCHS,
           "losses": losses}
    CANARY.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float, setup_reps: int = SETUP_REPS) -> Result:
    result = Result(workload=workload)
    runner = Runner(deadline)
    base = WORK / f"{workload}-{seed}-{os.getpid()}"
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    try:
        setups = []
        for rep in range(setup_reps):
            time_reference(runner, base / f"ref-setup{rep}", result)
            paths = run_setup(runner, workload, seed, base / f"setup{rep}", result)
            if paths is None:
                return result
            setups.append(paths)
        setup = setups[0]
        ref = setup_digest(setup)
        for rep, paths in enumerate(setups[1:], start=1):
            result.attempted += 1
            if setup_digest(paths) != ref:
                result.failures.append(f"set-up {rep} built different files than set-up 0")
        examples = examples_per_invocation(workload)
        ref_digests = None
        t_end = None  # measuring starts when the warm-up invocation ends
        k = 0
        longest = last_ref = 0.0
        while True:
            untraced = sum(not i.traced for i in result.invocations)
            traced_n = len(result.invocations) - untraced
            enough = (traced_n >= 2 and untraced >= 2) if trace else untraced >= MIN_INVOCATIONS
            now = time.perf_counter()
            if enough and t_end is not None and now >= t_end:
                break
            if now + 1.5 * longest + CANARY_RESERVE_S > deadline:
                print(f"{workload}: measuring stopped early at the deadline after "
                      f"{len(result.invocations)} invocations", file=sys.stderr)
                if not (untraced and (traced_n or not trace)):
                    result.failures.append("no invocation of each kind ended before the "
                                           "deadline")
                break
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                time_reference(runner, base / f"ref{k}", result)
                last_ref = time.perf_counter()
            traced = trace and k % 2 == 1
            out = base / f"inv{k}"
            spans = base / f"inv{k}.spans.json"
            args = workload_args(workload, setup, seed, out)
            argv = [str(BENCH_DIR / "tracer.py"), str(spans), "--", *args] if traced \
                else ["-m", "promptblend.cli", *args]
            result.attempted += 1
            child = runner.python(argv, base / f"inv{k}")
            longest = max(longest, child.wall_s)
            k += 1
            failure = child_failure(f"invocation {k}", child)
            if failure:
                result.failures.append(failure)
                break
            result.attempted += 1
            try:
                digests = digest_outputs(out)
                problems = check_outputs(workload, setup, out)
                quality, control = read_quality(workload, out)
            except (OSError, KeyError, IndexError, ValueError, struct.error) as e:
                result.failures.append(f"invocation {k}: unreadable outputs: {e!r}")
                break
            if ref_digests is None:
                ref_digests = digests
            elif digests != ref_digests:
                changed = sorted(n for n in set(digests) | set(ref_digests)
                                 if digests.get(n) != ref_digests.get(n))
                problems.append(f"outputs differ from the first invocation: {changed}")
            if problems:
                result.failures.extend(f"invocation {k}: {p}" for p in problems)
            layer = None
            if traced:
                doc = json.loads(spans.read_text(encoding="utf-8"))
                if doc["missing"]:
                    result.failures.append(f"invocation {k}: the tracer found no "
                                           f"{doc['missing']}, so their metrics would read 0")
                layer = tracer.summarize(doc, examples)
            if t_end is None:  # the first invocation warms up: checked, not measured
                t_end = time.perf_counter() + seconds
            else:
                result.invocations.append(Invocation(traced=traced, child=child,
                                                     digests=digests, quality=quality,
                                                     control=control, layer=layer))
            if workload == "eval":
                result.accuracy = json.loads(
                    (out / "eval.json").read_text(encoding="utf-8"))["prompted_accuracy"]
            shutil.rmtree(out)
        time_reference(runner, base / "ref-end", result)
        if not result.failures:
            check_canary(runner, workload, base / "canary", result)
    finally:
        if not result.failures:
            shutil.rmtree(base, ignore_errors=True)
    return result


# -- metrics -----------------------------------------------------------------


def end_to_end(result: Result) -> dict[str, list[float]]:
    """Samples of each end-to-end metric; the reported value is the median.

    Times are scaled to the host speed at which reference.py takes
    REF_SECONDS.
    """
    if not result.ref_s:  # no reference run ended, which is a failure already
        return {}
    plain = [i for i in result.invocations if not i.traced]
    speed = REF_SECONDS / statistics.median(result.ref_s)
    per_ex = 1000.0 / examples_per_invocation(result.workload) * speed
    return {
        "setup_s": [t * speed for t in result.setup_s],
        "wall_ms_per_example": [i.child.wall_s * per_ex for i in plain],
        "cpu_ms_per_example": [i.child.cpu_s * per_ex for i in plain],
        "peak_rss_mb": [i.child.rss_mb for i in plain],
        "quality_loss": [i.quality for i in plain],
    }


def per_layer(result: Result) -> dict[str, list[float]]:
    traced = [i for i in result.invocations if i.traced]
    plain = [i for i in result.invocations if not i.traced]
    samples: dict[str, list[float]] = {}
    for inv in traced:
        for name, value in inv.layer.items():
            samples.setdefault(name, []).append(value)
    if traced and plain:
        ratio = (statistics.median(i.child.wall_s for i in traced)
                 / statistics.median(i.child.wall_s for i in plain))
        samples["trace.overhead"] = [ratio]
    return samples


def tail_quantile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (1 - 10 / n)) / 100
    ordered = sorted(values)
    return q, ordered[min(n - 1, math.ceil(q * n) - 1)]


def environment() -> dict:
    try:
        probe = subprocess.run([sys.executable, "-c", ENV_CODE], capture_output=True,
                               text=True, env=Runner(0.0).env, cwd=ROOT, timeout=60)
        env = json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.stderr}
    except subprocess.TimeoutExpired:
        env = {"probe_error": "timed out"}
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, cwd=ROOT, timeout=10)
            env["git_commit"] = commit.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + data)
        lines += data.count(b"\n")
    env.update({
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": lines,
        "src_sha256": h.hexdigest(),
    })
    return env


def report(result: Result, spec: dict, trace: bool) -> dict[str, dict]:
    """Print every metric of the chosen kind; return the JSON metrics."""
    kind = "per_layer" if trace else "end_to_end"
    samples = per_layer(result) if trace else end_to_end(result)
    metrics = {}
    print(f"== {result.workload}: {kind} metrics")
    for entry in spec[kind]:
        values = samples.get(entry["name"])
        if not values:
            result.failures.append(f"metric {entry['name']} was not measured")
            continue
        value = statistics.median(values)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        line = f"{entry['name']}: {value:.6g} {entry['unit']} (median, n={len(values)}"
        if len(values) > 1:
            line += f", min {min(values):.6g}, max {max(values):.6g}"
        tail = tail_quantile(values)
        if tail:
            line += f", p{tail[0] * 100:g} {tail[1]:.6g}"
        print(line + ")")
    controls = [i.control for i in result.invocations if i.control is not None]
    if controls:
        print(f"control_eval_loss: {statistics.median(controls):.6g} nats "
              f"(median, n={len(controls)}, not gated)")
    if result.ref_s and not trace:
        ref = statistics.median(result.ref_s)
        print(f"reference.py: {ref:.6g} s (median, n={len(result.ref_s)}); set-up, wall and "
              f"CPU times above are measured ones x {REF_SECONDS / ref:.6g}")
    if result.accuracy is not None:
        print(f"accuracy: {result.accuracy:.6g} ratio (prompted, eval split, n=1)")
    failed = len(result.failures)
    print(f"failed_ratio: {failed / max(1, result.attempted):.6g} "
          f"({failed} of {result.attempted} invocations and checks)")
    for failure in result.failures:
        print(f"FAILED: {failure}")
        print(f"{result.workload}: FAILED: {failure}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-canary", action="store_true",
                        help="rewrite canary.json from the current program and exit")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "promptblend" / "cli.py").is_file():
        print(f"error: no promptblend sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.pin_canary:
        return pin_canary()
    if None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        deadline = (start if name == names[0] else time.perf_counter()) + DEADLINE_S
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        shown = report(result, spec, bool(args.trace))
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in shown.items()})
        attempted += max(1, result.attempted)
        failed += len(result.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
