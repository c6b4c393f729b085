"""Build, load and bind the C library of NeaTS.

The library holds Algorithm 1 with the Theorem 1 fitter (``alg1.c``), the
Table I evaluator with Algorithms 2 and 3 (``neats.c``), and the CPython
type ``Reader`` that answers NeaTS's reads (``reader.c``, which includes
``neats.c``).  It is compiled with the system ``gcc`` against the running
interpreter's headers on first use and cached in ``_build/`` beside the
sources, under a name that hashes the sources, the flags, the platform and
the interpreter's ABI.  So one checkout compiles it once per interpreter,
whichever of its processes (Spark workers included) gets there first; a
concurrent build writes a private temporary file and ``os.replace``-s it
into place.

The one shared object is loaded twice over: through ``ctypes`` for the
write path (``neats_alg1``, ``neats_eval``/``neats_approx``,
``neats_encode``; called once per block, each marshals a few numpy
arrays), and as the extension module ``repro.core._reader`` for the read
path, whose per-call cost is a method call with no marshalling.  Every
NeaTS encode and decode runs through it: when it cannot be built or
loaded, :func:`library` raises :class:`NativeLibraryError`.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.util
import os
import platform
import subprocess
import sysconfig
import tempfile

import numpy as np

__all__ = ["FRAG", "NativeLibraryError", "alg1", "build", "evaluate", "library"]

_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCES = ("alg1.c", "reader.c")
_HEADERS = ("families.h", "neats.c")  # neats.c is included by reader.c
_CACHE = os.path.join(_DIR, "_build")
#: No -ffast-math and no -march=native: the fitter must round exactly as
#: CPython's float arithmetic does, and the evaluator's rounding is part of
#: the payload format; -ffp-contract=off forbids fused multiply-adds that
#: would round once where Python rounds twice.  -pthread: Algorithm 1 fits
#: its pairs in threads.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
_INCLUDE = sysconfig.get_paths()["include"]  # Python.h of the running interpreter

_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_I32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_U64 = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_PTR, _INT = ctypes.c_void_p, ctypes.c_int64

#: ``frag`` of ``neats.c``: one fragment of a payload, decoded once.
FRAG = np.dtype([("start", "<i8"), ("off", "<i8"), ("delta", "<i8"), ("p", "<f8", 3),
                 ("kind", "<i8"), ("width", "<i8")])


class NativeLibraryError(RuntimeError):
    """The C library cannot be compiled or loaded (``gcc`` is required)."""


def build(cache_dir: str = _CACHE) -> str:
    """Compile the library into ``cache_dir`` unless it is there; return its
    path.  Raises OSError or CalledProcessError on failure."""
    parts = []
    for name in _SOURCES + _HEADERS:
        with open(os.path.join(_DIR, name), "rb") as f:
            parts.append(f.read())
    key = b"\0".join([*parts, " ".join(_FLAGS).encode(), platform.machine().encode(),
                      sysconfig.get_config_var("EXT_SUFFIX").encode(), _INCLUDE.encode()])
    path = os.path.join(cache_dir, f"neats-{hashlib.sha256(key).hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".neats-", suffix=".so", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run(["gcc", *_FLAGS, f"-I{_INCLUDE}", "-o", tmp,
                        *(os.path.join(_DIR, s) for s in _SOURCES), "-lm"],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.cache
def library() -> ctypes.CDLL:
    """The loaded library with its write-path entry points bound, and the
    read path's type as ``library().Reader``: ``Reader(payload)`` validates
    the ``bytes`` payload into ``FRAG`` rows of its own (one per fragment
    plus a sentinel, readable as a buffer) and holds the payload."""
    try:
        path = build()
        lib = ctypes.CDLL(path)
        spec = importlib.util.spec_from_file_location("repro.core._reader", path)
        reader = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reader)
        lib.Reader = reader.Reader
    except subprocess.CalledProcessError as e:
        raise NativeLibraryError(f"cannot compile the NeaTS library: {e.stderr.strip()}") from e
    except (OSError, ImportError) as e:
        raise NativeLibraryError(f"cannot build or load the NeaTS library: {e}") from e
    lib.neats_alg1.argtypes = [_I64, ctypes.c_long, _I32, _U64, _I64, _I64, ctypes.c_long,
                               _I64, _I64, _I32, _I64, _F64, _F64]
    lib.neats_alg1.restype = ctypes.c_long
    lib.neats_eval.argtypes = [_PTR, _INT, _PTR]
    lib.neats_eval.restype = None
    lib.neats_approx.argtypes = [_PTR, _INT, _PTR]
    lib.neats_approx.restype = None
    lib.neats_encode.argtypes = [_PTR, _INT, _PTR, _INT, _PTR, _INT]
    lib.neats_encode.restype = _INT
    return lib


def evaluate(frags: np.ndarray, *, floor: bool) -> np.ndarray:
    """f(x) at every index covered by the ``FRAG`` rows ``frags[:-1]``,
    whose last row is the sentinel ``start = n``.  With ``floor``, the int64
    ``floor(f(x))`` that the NeaTS encoder and decoder share; without, the
    float64 f(x) of a lossy reconstruction."""
    if frags.dtype != FRAG or not frags.flags.c_contiguous:
        raise TypeError("frags must be a contiguous FRAG array")
    lib = library()
    out = np.empty(int(frags["start"][-1]), dtype=np.int64 if floor else np.float64)
    (lib.neats_eval if floor else lib.neats_approx)(frags.ctypes.data, len(frags) - 1, out.ctypes.data)
    return out


def alg1(ys: np.ndarray, kinds, eps, corr_bits, kappa) -> list[tuple]:
    """Algorithm 1 over int64 ``ys`` and one (kind, eps) pair per entry of
    the other arguments (kind codes follow ``models.FAMILIES``).  An edge of
    pair q weighs ``len * corr_bits[q] + kappa[q]`` bits.  Returns the
    shortest path as rows ``(start, end, pair, fit_start, m, b, y0)``, where
    ``(m, b)`` is the fitted line and ``y0 = ys[fit_start]``.  The kernel
    fits the pairs in one thread per CPU of the process's affinity (at most
    one per pair), all joined before it returns; their count cannot change
    the result."""
    fn = library().neats_alg1
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
