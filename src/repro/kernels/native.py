"""Loader of the compiled sequential loops (``_seqloops.c``).

The ``hat-C^L`` work-function sweep (Section 3), the paper's offline
window DP (Section 2.2) and the threshold and memoryless walks are
per-step recurrences: NumPy can only run them as a few small array calls
per step.  ``_seqloops.c`` runs each whole loop in C with the same
floating-point operations in the same order, so the rows are
bit-identical to the NumPy/Python reference (``docs/KERNELS.md`` §7).

:func:`loops` is the one check that selects the path: it returns the
loaded library, or ``None`` — under ``REPRO_KERNEL=scalar``, without a
``cc`` on ``PATH``, when the build fails, or when the cache directory
is unusable — and callers then run their reference loop.  The system
``cc`` builds the library on first use into
``$XDG_CACHE_HOME/repro/seqloops-<sha256>.so`` (default
``~/.cache/repro``), keyed by the source and the flags, and each process
loads it once.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile

import numpy as np

from . import is_vectorized

__all__ = ["loops"]

#: the C source, shipped as package data next to this module
SOURCE = pathlib.Path(__file__).with_name("_seqloops.c")

#: compiler flags: no contraction into FMAs, no fast-math, no -march,
#: so every float operation rounds exactly as in the reference
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_F64P = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_I64P = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")

_SIGNATURES = {
    "workfunction_sweep": (None, [_I64, _I64, _F64P, _F64P, _F64P, _I64P,
                                  _I64P]),
    "window_dp": (_F64, [_I64, _I64, _I64P, _F64P, _F64, _I64P, _F64P,
                         _I64P]),
    "threshold_walk": (None, [_I64, _I64, _F64P, _F64P]),
    "memoryless_walk": (None, [_I64, _I64, _F64P, _I64P, _I64P, _F64, _F64,
                               _F64P]),
}


def loops():
    """The compiled loops as a :class:`ctypes.CDLL`, or ``None``.

    ``None`` under the scalar kernel (read on every call, like
    :func:`repro.kernels.active`) and whenever the library cannot be
    built or loaded; the build is attempted once per process.
    """
    if not is_vectorized():
        return None
    return _load()


def _cache_dir() -> pathlib.Path | None:
    """``$XDG_CACHE_HOME/repro``, created ``0700``; ``None`` unless the
    user owns it and neither group nor others can write it."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    path = pathlib.Path(root) / "repro"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return None
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    return path


def _build(cc: str, cache: pathlib.Path) -> pathlib.Path | None:
    """Path of the cached library, compiling it on a miss.

    The compiler writes to an ``mkstemp`` file in the cache directory
    that is renamed into place, so concurrent builders never load a
    half-written library.
    """
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()
    target = cache / f"seqloops-{key}.so"
    if target.exists():
        return target
    fd, tmp = tempfile.mkstemp(prefix=".seqloops-", suffix=".so",
                               dir=cache)
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE)], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True,
                       timeout=120)
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


@functools.lru_cache(maxsize=None)
def _load():
    """Build (on a cache miss) and load the library once per process."""
    cc = shutil.which("cc")
    cache = _cache_dir()
    if cc is None or cache is None:
        return None
    try:
        path = _build(cc, cache)
        if path is None:
            return None
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    for name, (restype, argtypes) in _SIGNATURES.items():
        # a cached library that lacks a symbol (a stale or foreign file
        # at the key path) is unusable, like one that fails to load
        fn = getattr(lib, name, None)
        if fn is None:
            return None
        fn.restype = restype
        fn.argtypes = argtypes
    return lib
