"""The compiled adaptation loop: ``_kernel.c``, built at first use and loaded with ctypes.

:func:`load` builds the library into ``$XDG_CACHE_HOME/daglms`` (else
``~/.cache/daglms``), one file per crc32 of the source, the flags and the
compiler, written under a temporary name and renamed into place, so that no
process loads half a library. Its dot products call the ``cblas_ddot`` of the
OpenBLAS that NumPy bundles, the function that ``np.dot`` calls, in this
process; a self-check compares the two for n = 1...64. Where any of this fails
(no compiler, no writable cache, another BLAS, a failed check), :func:`load`
returns None and logs why once at debug level, and runs take the Python loop,
which gives the same bits.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernel.c")
# no contraction into FMA and no -ffast-math: the C loop keeps the Python loop's bits
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_DDOT = "scipy_cblas_ddot64_"
_BUILD_TIMEOUT_S = 120

_kernel = None  # the loaded Kernel, False once it could not load


def _build() -> Path:
    """The library's path, compiled first unless the cache holds this build."""
    import shlex
    import sysconfig

    cc = sysconfig.get_config_var("CC") or "cc"
    key = zlib.crc32(b"\0".join((_SOURCE.read_bytes(), " ".join(_FLAGS).encode(), cc.encode())))
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "daglms")
    lib = cache / f"_kernel-{key:08x}.so"
    if lib.exists():
        return lib
    import subprocess
    import tempfile

    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        cmd = [*shlex.split(cc), *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"]
        subprocess.run(cmd, check=True, capture_output=True, timeout=_BUILD_TIMEOUT_S)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


class Kernel:
    """The loaded library, calling the ``ddot`` of NumPy's own OpenBLAS."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)  # a lookup here searches its libraries too
        self._ddot = ctypes.cast(getattr(blas, _DDOT), ctypes.c_void_p)
        self._adapt = lib.daglms_adapt
        self._adapt.restype, self._adapt.argtypes = ctypes.c_int64, (ctypes.c_void_p,) * 17
        self._dot = dot = lib.daglms_dot
        dot.restype, dot.argtypes = ctypes.c_double, (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)
        rng = np.random.default_rng(0)
        pairs = [np.split(rng.standard_normal(2 * n) * 10.0 ** rng.uniform(-3, 3), 2) for n in range(1, 65)]
        for x, y in [*pairs, (np.zeros(1), -np.ones(1))]:  # np.dot gives the last -0.0
            got, want = dot(self._ddot, x.size, x.ctypes.data, y.ctypes.data), float(np.dot(x, y))
            if got.hex() != want.hex():
                raise RuntimeError(f"{_DDOT} gives {got!r} where np.dot gives {want!r} (n = {x.size})")

    def adapt(self, state, sig, trace) -> tuple[int, float]:
        """:func:`daglms.sim._adapt_loop` in one call, with the same bits and the same contract."""
        T, n, path, target = sig.desired.size, state.n_params, sig.path, sig.target
        b = a = z = None
        if path is not None:  # its state is the copy that the kernel steps
            b, a, z = np.array(path._b), np.array(path._a), np.array(path._state, dtype=float)
        dim = [n, T, sig.prefix, len(state._hist), len(state._summed), state._depth, -1 if z is None else z.size]
        arrays = (
            np.array(dim, dtype=np.int64), np.array([state.policy.mu, *state._rule, state.divergence_limit]),
            sig.desired, sig.rev, sig.rev_f, state._weights, state._hist, b, a, z, target, trace.e0,
            trace.e_post if state.policy.kind == "posterior" else None,
            trace.param_err if target is not None else None, np.empty(2 * n),
        )
        for v in arrays[2:]:
            if v is not None and not (v.dtype == np.float64 and v.flags.c_contiguous):
                raise ValueError("the kernel takes C-contiguous float64 arrays")
        norm = ctypes.c_double()
        step = self._adapt(self._ddot, *(None if v is None else v.ctypes.data for v in arrays), ctypes.byref(norm))
        state.t += step or T - sig.prefix
        return step, norm.value


def load() -> Kernel | None:
    """The kernel, built and loaded at the first call of a process; None where it cannot run."""
    global _kernel
    if _kernel is None:
        try:
            _kernel = Kernel(_build())
        except Exception as exc:  # whatever stops the build, the load or the check, the Python loop gives the same bits
            import logging

            logging.getLogger(__name__).debug("running the Python adaptation loop: %s", exc, exc_info=True)
            _kernel = False
    return _kernel or None
