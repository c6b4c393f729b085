"""Build, load and call the Algorithm 1 kernel in ``alg1.c``.

The kernel is compiled with the system ``gcc`` on first use and cached in
``_build/`` beside the source, under a name that hashes the source, the
flags and the platform.  So one checkout compiles it once, whichever of its
processes (Spark workers included) gets there first; a concurrent build
writes a private temporary file and ``os.replace``-s it into place.  When
the kernel cannot be built or loaded, :func:`library` logs that once and
returns None, and ``optimal_partition`` runs its Python reference.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import subprocess
import tempfile

import numpy as np

__all__ = ["build", "library", "run"]

_log = logging.getLogger(__name__)

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "alg1.c")
_CACHE = os.path.join(os.path.dirname(_SRC), "_build")
#: No -ffast-math and no -march=native: the kernel must round exactly as
#: CPython's float arithmetic does, and -ffp-contract=off forbids fused
#: multiply-adds that would round once where Python rounds twice.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_I32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_U64 = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")


def build(cache_dir: str = _CACHE) -> str:
    """Compile ``alg1.c`` into ``cache_dir`` unless it is there; return the
    library's path.  Raises OSError or CalledProcessError on failure."""
    with open(_SRC, "rb") as f:
        source = f.read()
    key = b"\0".join([source, " ".join(_FLAGS).encode(), platform.machine().encode()])
    path = os.path.join(cache_dir, f"alg1-{hashlib.sha256(key).hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".alg1-", suffix=".so", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run(["gcc", *_FLAGS, "-o", tmp, _SRC, "-lm"],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.cache
def library():
    """The kernel's entry point, or None (logged once) if it cannot be had."""
    try:
        fn = ctypes.CDLL(build()).neats_alg1
    except subprocess.CalledProcessError as e:
        _log.warning("cannot compile %s (%s); Algorithm 1 runs in Python", _SRC, e.stderr.strip())
        return None
    except OSError as e:
        _log.warning("cannot build or load %s (%s); Algorithm 1 runs in Python", _SRC, e)
        return None
    fn.argtypes = [_I64, ctypes.c_long, _I32, _U64, _I64, _I64, ctypes.c_long,
                   _I64, _I64, _I32, _I64, _F64, _F64]
    fn.restype = ctypes.c_long
    return fn


def run(ys: np.ndarray, kinds, eps, corr_bits, kappa) -> list[tuple]:
    """Algorithm 1 over int64 ``ys`` and one (kind, eps) pair per entry of
    the other arguments (kind codes follow ``models.FAMILIES``).  An edge of
    pair q weighs ``len * corr_bits[q] + kappa[q]`` bits.  Returns the
    shortest path as rows ``(start, end, pair, fit_start, m, b, y0)``, where
    ``(m, b)`` is the fitted line and ``y0 = ys[fit_start]``."""
    fn = library()
    n = len(ys)
    start, end, fit = (np.empty(n, dtype=np.int64) for _ in range(3))
    pair = np.empty(n, dtype=np.int32)
    m, b = np.empty(n), np.empty(n)
    count = fn(ys, n, np.asarray(kinds, dtype=np.int32), np.asarray(eps, dtype=np.uint64),
               np.asarray(corr_bits, dtype=np.int64), np.asarray(kappa, dtype=np.int64), len(kinds),
               start, end, pair, fit, m, b)
    if count == -1:
        raise MemoryError("Algorithm 1 kernel: out of memory")
    if count < 0:
        raise AssertionError("a node is unreachable — partition invariant broken")
    cols = [c[:count].tolist() for c in (start, end, pair, fit, m, b)]
    return [(*row, int(ys[row[3]])) for row in zip(*cols)]
