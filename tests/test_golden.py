"""Pins the bytes of every artifact a small CLI chain writes.

The chain is pretrain -> train -> eval -> report on a small fixture, then an
eval of the LM-only bundle and ortho and embed of the trained one. The
SHA-256 of each artifact, and of each command's stdout with the run
directory replaced by `{d}`, is compared with `golden.json`, which also
records the environment the hashes were taken in: Python, numpy and
OpenBLAS versions, and the OpenBLAS core and thread count that run. Floating-point results may
differ under another BLAS core, thread count or library, so under any other
fingerprint the test runs the chain twice, checks only that the two runs
agree, and says so in a warning.

A change that moves artifact bits on purpose re-pins with

    PYTHONPATH=src python tests/test_golden.py

which prints each key whose hash moved, and says in CHANGES.md which
artifacts moved and why.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
import warnings
from pathlib import Path

import promptblend  # noqa: F401  # before numpy, so BLAS runs one thread here too
import numpy as np
import pytest
from promptblend.checkpoint import bundle_bytes, load_bundle
from promptblend.cli import run_cli

GOLDEN = Path(__file__).with_name("golden.json")
DATA = ["--fixture-size", "60", "--fixture-seed", "5"]
CHAIN = [
    ["pretrain", *DATA, "--epochs", "3", "--seed", "1", "--out", "{d}/pretrain"],
    ["train", *DATA, "--checkpoint", "{d}/pretrain/checkpoint.pbld", "--epochs", "3",
     "--eval-every", "4", "--seed", "1", "--out", "{d}/train"],
    ["eval", *DATA, "--checkpoint", "{d}/train/checkpoint.pbld", "--out", "{d}/eval"],
    ["report", "--record", "{d}/train/record.json", "--out", "{d}/report"],
    ["eval", *DATA, "--checkpoint", "{d}/pretrain/checkpoint.pbld", "--out", "{d}/eval-lm"],
    ["ortho", "--checkpoint", "{d}/train/checkpoint.pbld", "--out", "{d}/ortho"],
    ["embed", "--checkpoint", "{d}/train/checkpoint.pbld", "--out", "{d}/embed"],
]
# the one field that measures time rather than computing a result
WALL_CLOCK = re.compile(rb'\n  "wall_clock_seconds": [^\n]*')


class ForeignEnvironmentWarning(UserWarning):
    """The pin was taken under another fingerprint, so only reproducibility is checked."""


def fingerprint() -> dict:
    """Python, numpy and OpenBLAS versions, and the OpenBLAS core and thread
    count in use (None where numpy does not bundle scipy-openblas)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    core = threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        corename = lib.scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
        num_threads = lib.scipy_openblas_get_num_threads64_
        num_threads.argtypes, num_threads.restype = [], ctypes.c_int
        threads = num_threads()
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "openblas_core": core, "openblas_threads": threads}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_hashes(root: Path) -> dict:
    """Run the chain under `root` and hash each file it wrote, by relative
    path, and each command's stdout, as `stdout/<its --out directory>`."""
    hashes = {}
    for argv in CHAIN:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run_cli([a.format(d=root) for a in argv])
        assert code == 0, f"{argv[0]} exited {code}"
        out_dir = argv[argv.index("--out") + 1].rsplit("/", 1)[-1]
        hashes[f"stdout/{out_dir}"] = _sha256(out.getvalue().replace(str(root), "{d}").encode())
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "record.json":
            data = WALL_CLOCK.sub(b"", data)
        hashes[path.relative_to(root).as_posix()] = _sha256(data)
    return hashes


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The chain's run directory and its hashes."""
    root = tmp_path_factory.mktemp("golden") / "a"
    return root, artifact_hashes(root)


def moved(pinned: dict, got: dict) -> list[str]:
    """The keys whose hash differs between two hash maps, or that only one holds."""
    return sorted(k for k in pinned.keys() | got.keys() if pinned.get(k) != got.get(k))


def test_artifacts_match_the_pin(chain, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    _, got = chain
    if golden["fingerprint"] == fingerprint():
        keys = moved(golden["sha256"], got)
        assert not keys, f"artifacts differ from tests/golden.json: {keys}"
        return
    warnings.warn(ForeignEnvironmentWarning(
        f"golden.json was pinned under {golden['fingerprint']}, this is {fingerprint()}: "
        f"checking only that two runs agree"))
    assert artifact_hashes(tmp_path / "b") == got


def test_every_bundle_resaves_byte_identically(chain):
    bundles = sorted(chain[0].rglob("*.pbld"))
    assert len(bundles) == 2
    for path in bundles:
        assert bundle_bytes(*load_bundle(path)) == path.read_bytes(), path.name


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"sha256": {}}
    with tempfile.TemporaryDirectory() as tmp:
        pin = {"fingerprint": fingerprint(), "sha256": artifact_hashes(Path(tmp))}
    GOLDEN.write_text(json.dumps(pin, indent=2) + "\n")
    for key in moved(old["sha256"], pin["sha256"]):
        print(f"moved: {key}")
    print(f"pinned {len(pin['sha256'])} hashes under {pin['fingerprint']}", file=sys.stderr)
