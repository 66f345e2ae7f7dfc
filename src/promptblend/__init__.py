"""Continuous prompts as learned linear combinations of discrete prompt
embeddings, trained against a frozen seq2seq model.

Importing the package only sets the runtime; the rest is in its submodules.
BLAS runs on one thread unless the environment says otherwise: the matmuls
are small, and extra BLAS threads cost more than they save and make packed
results depend on the host's core count. OpenBLAS reads its thread count
when numpy first imports it, so the default is set in the environment here,
and if numpy is already imported, through the loaded library as well. The
heap policy below is set here too: every caller runs under both.
"""

import ctypes
import glob
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var


def _set_loaded_blas_threads(threads: int) -> None:
    """Set the thread count of the OpenBLAS an imported numpy loaded, and read
    it back; where no library takes it, say so on stderr."""
    root = os.path.dirname(sys.modules["numpy"].__file__)
    for path in sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            setter = getattr(lib, name.format("set"), None)
            getter = getattr(lib, name.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                setter(threads)
                if getter() == threads:
                    return
    print(f"promptblend: numpy was imported first and its BLAS thread count could not be "
          f"set to {threads}", file=sys.stderr)


_threads = os.environ["OPENBLAS_NUM_THREADS"]
if "numpy" in sys.modules and _threads.isdigit() and int(_threads) > 0:
    _set_loaded_blas_threads(int(_threads))
del _threads

# Each training step frees its graph just before the next step allocates arrays of
# the same sizes. glibc's defaults unmap each one on free and fault it in anew, so
# arrays up to 32 MiB come from the heap (M_MMAP_THRESHOLD, -3), which is trimmed
# only once 256 MiB sit free at its top (M_TRIM_THRESHOLD, -1). No result changes.
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:  # a C library without mallopt is left alone
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)
    _mallopt(-1, 256 << 20)
del _mallopt
