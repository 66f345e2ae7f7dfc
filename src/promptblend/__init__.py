"""Continuous prompts as learned linear combinations of discrete prompt
embeddings, trained against a frozen seq2seq model.

Importing the package only sets the runtime; the rest is in its submodules.
BLAS runs on one thread unless the environment says otherwise: the matmuls
are small, and extra BLAS threads cost more than they save and make packed
results depend on the host's core count. The default is set here, before
numpy is first imported, and so is the heap policy below: every caller runs
under both.
"""

import ctypes
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

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
