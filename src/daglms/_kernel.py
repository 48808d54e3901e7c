"""The compiled loops of ``_kernel.c``, built at first use and loaded with ctypes.

:class:`Kernel` has five entry points, each with the bits of the Python code
it stands in for: :meth:`Kernel.adapt` runs :func:`daglms.sim._adapt_loop`,
:meth:`Kernel.lfilter` runs :meth:`daglms.TransferOperator.filter_step` over a
whole signal, :meth:`Kernel.sosfilt` runs ``daglms.dsp_core._sosfilt``'s
loop over band-pass sections, :meth:`Kernel.trace_rows` writes the rows of
a trace CSV as ``daglms.cli._trace_rows`` does, with the bytes of ``repr``,
and :meth:`Kernel.real_part_minimum` finds the real-part minimum of
``daglms.spr_design._real_part_minimum``, to which ``daglms.spr_design._minimum``
falls back on the calls it declines.

:func:`load` builds the library into ``$XDG_CACHE_HOME/daglms`` (else
``~/.cache/daglms``), one file per crc32 of the source, the flags and the
compiler, written under a temporary name and renamed into place, so that no
process loads half a library. Its dot products call the ``cblas_ddot`` of the
OpenBLAS that NumPy bundles, the function that ``np.dot`` calls, in this
process; a self-check compares the two for n = 1...64, another compares
the row writer with ``repr`` on :func:`_repr_cases`, and a third the real-part
minimum with its twin on :func:`_design_cases`. Where any of this fails
(no compiler, no writable cache, another BLAS, a failed check), :func:`load`
returns None and logs why once at debug level, and runs, filters, trace
files and design verdicts take the Python code, which gives the same bits.
"""

from __future__ import annotations

import ctypes
import os
import random  # the stdlib's, which NumPy imports: numpy.random would be most of a load
import zlib
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernel.c")
# no contraction into FMA and no -ffast-math: the C loop keeps the Python loop's bits;
# -O3 vectorizes the loops over the taps, which keeps each tap's operations and their order
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_DDOT = "scipy_cblas_ddot64_"
_BUILD_TIMEOUT_S = 120

_kernel = None  # the loaded Kernel, False once it could not load

# the most float columns that one daglms_trace_rows call takes, its MAX_COLS
MAX_TRACE_COLUMNS = 16

# the decimal exponents of the powers of ten that daglms_trace_rows reads, from its POW10_MIN
_POW10_EXPONENTS = range(-292, 325)

# the most coefficients of a numerator or a denominator that daglms_real_part_minimum takes, its RPM_MAX_LEN
MAX_DESIGN_COEFFS = 8
_COEFFS, _PAIR = ctypes.c_double * (2 * MAX_DESIGN_COEFFS), ctypes.c_double * 2


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


def _pow10_table() -> np.ndarray:
    """Schubfach's table for ``daglms_trace_rows``: for each exponent E, the 128 bits of
    ``floor(10**E * 2**(127 - floor(log2(10**E)))) + 1`` as (high, low) words."""
    words = []
    for e in _POW10_EXPONENTS:
        if e >= 0:  # 10**E >> (r - 127), with r = floor(log2(10**E)) = bit_length - 1
            power = 10**e
            shift = 127 - (power.bit_length() - 1)
            g = power << shift if shift >= 0 else power >> -shift
        else:  # 2**(127 - r) // 10**-E, with r = -bit_length(10**-E): 10**-E is no power of two
            power = 10**-e
            g = (1 << (127 + power.bit_length())) // power
        g += 1
        words += (g >> 64, g & 0xFFFF_FFFF_FFFF_FFFF)
    return np.array(words, dtype=np.uint64)


def _repr_cases() -> np.ndarray:
    """The doubles the row writer's self-check formats: the fixed/scientific switch points
    1e-4, 1e-5, 1e16 and 9999999999999998.0 with two neighbours each side, the extremes and
    NaN, each of both signs, every power of two and a seeded sample of bit patterns."""
    switch = np.array([1e-4, 1e-5, 1e16, 9999999999999998.0])
    near = [switch]
    for direction in (-np.inf, np.inf):
        x = switch
        for _ in range(2):
            x = np.nextafter(x, direction)
            near.append(x)
    signed = np.concatenate([*near, [0.0, np.inf, np.nan, 5e-324, np.finfo(float).max, np.finfo(float).tiny]])
    rng = random.Random(19)
    drawn = np.array([rng.getrandbits(64) for _ in range(2000)], dtype=np.uint64).view(np.float64)
    return np.concatenate([signed, -signed, np.ldexp(1.0, np.arange(-1074, 1024)), drawn])


def _design_cases() -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """The (numerator, denominator) pairs of the real-part-minimum self-check: seeded cells
    ``(1 + c1 q^-1 + c2 q^-2) / (1 - d1p q^-1)`` with d1p at 0, +-0.5, 0.9, +-(1 - 1e-15) or
    drawn, the lossless cell (0.5, -0.5, 0.5) and the row whose response overflows the doubles."""
    rng = random.Random(24)
    pool = [0.0, 0.5, -0.5, 0.9, 1.0 - 1e-15, -(1.0 - 1e-15), *(rng.uniform(-1.0, 1.0) for _ in range(6))]
    cells = [(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), rng.choice(pool)) for _ in range(40)]
    cells += [(0.5, -0.5, 0.5), (1e308, 1e308, 0.0)]
    return [((1.0, c1, c2), (1.0, -p) if p else (1.0,)) for c1, c2, p in cells]


def _check(arrays) -> None:
    """Raise ValueError unless each of ``arrays`` is None or C-contiguous float64."""
    for v in arrays:
        if v is not None and not (v.dtype == np.float64 and v.flags.c_contiguous):
            raise ValueError("the kernel takes C-contiguous float64 arrays")


def _address(v: np.ndarray | None) -> int | None:
    """The address of a writable array's data, a few times quicker than ``v.ctypes.data``;
    None for None and for an empty array, which the kernel never reads."""
    return ctypes.addressof(ctypes.c_char.from_buffer(v)) if v is not None and v.size else None


class Kernel:
    """The loaded library, calling the ``ddot`` of NumPy's own OpenBLAS."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)  # a lookup here searches its libraries too
        self._ddot = ctypes.cast(getattr(blas, _DDOT), ctypes.c_void_p)
        ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        self._adapt = lib.daglms_adapt
        self._adapt.restype, self._adapt.argtypes = i64, (ptr, *(i64,) * 6, *(f64,) * 4, *(ptr,) * 14)
        self._lfilter, self._sosfilt = lib.daglms_lfilter, lib.daglms_sosfilt
        self._lfilter.restype, self._lfilter.argtypes = None, (i64, ptr, ptr, ptr, i64, ptr, ptr)
        self._sosfilt.restype, self._sosfilt.argtypes = None, (i64, ptr, ptr, i64, ptr, ptr)
        self._trace_rows = lib.daglms_trace_rows
        self._trace_rows.restype, self._trace_rows.argtypes = i64, (ptr, i64, i64, i64, ptr, ptr, i64, i64, i64, ptr)
        self._pow10 = _pow10_table()
        self._dot = dot = lib.daglms_dot
        dot.restype, dot.argtypes = ctypes.c_double, (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)
        rng = random.Random(0)
        pairs = [np.array([rng.gauss(0.0, 1.0) for _ in range(2 * n)]).reshape(2, n) for n in range(1, 65)]
        pairs = [xy * 10.0 ** rng.uniform(-3, 3) for xy in pairs]
        for x, y in [*pairs, (np.zeros(1), -np.ones(1))]:  # np.dot gives the last -0.0
            got, want = dot(self._ddot, x.size, x.ctypes.data, y.ctypes.data), float(np.dot(x, y))
            if got.hex() != want.hex():
                raise RuntimeError(f"{_DDOT} gives {got!r} where np.dot gives {want!r} (n = {x.size})")
        # the row writer on _repr_cases in three columns, the second a bit-for-bit repeat of the
        # first and the third its negation (0.0 against -0.0, NaNs of both signs; repr(-x) is
        # repr(x) with its sign flipped), and five-row windows from step 3 that end before the
        # last rows; in blocks of 512 rows, which split windows and keep the check's memory small
        cases = _repr_cases()
        columns, windows = [cases, cases, -cases], (cases.size - 3) // 5 - 1
        fields = ["" if v != v else repr(v) for v in cases.tolist()]
        for lo in range(0, cases.size, 512):
            want = "".join(
                f"{i},{f},{f},{f[1:] if f[:1] == '-' else f and '-' + f},"
                f"{fields[(i - 3) // 5] if 3 <= i < 3 + 5 * windows else ''}\r\n"
                for i, f in enumerate(fields[lo:lo + 512], lo)
            )
            if self.trace_rows(lo, [c[lo:lo + 512] for c in columns], (cases[:windows], 3, 5)) != want.encode():
                raise RuntimeError("daglms_trace_rows differs from repr")
        from .spr_design import _real_part_minimum

        self._real_part_minimum = lib.daglms_real_part_minimum
        self._real_part_minimum.restype, self._real_part_minimum.argtypes = i64, (i64, i64, ptr, i64, ptr)
        for num, den in _design_cases():  # each taken by the entry, none by the twin
            for unit_pole in (False, True):
                got = self.real_part_minimum(num, den, unit_pole)
                if got is None:
                    raise RuntimeError(f"daglms_real_part_minimum declines {num} / {den}")
                if [v.hex() for v in got] != [v.hex() for v in _real_part_minimum(num, den, unit_pole)]:
                    raise RuntimeError(f"daglms_real_part_minimum differs from its twin on {num} / {den}")

    def adapt(self, state, sig, trace) -> tuple[int, float]:
        """:func:`daglms.sim._adapt_loop` in one call, with the same bits and the same contract."""
        T, n, path, hist = sig.desired.size, state.n_params, sig.path, state._hist
        order, path_arrays = -1, (None, None, None)
        if path is not None:  # its state is the copy that the kernel steps
            path_arrays = np.array(path._b), np.array(path._a), np.array(path._state, dtype=float)
            order = path_arrays[2].size
        records = [None if record is sig.nan else record for record in (trace.e_post, trace.param_err)]
        work = np.empty((len(hist) + 2) * n)
        arrays = (state._weights, hist, *path_arrays, trace.e0, *records, work)
        _check(arrays)
        norm = ctypes.c_double()
        step = self._adapt(
            self._ddot, n, T, sig.prefix, len(hist), state._depth, order, state.policy.mu, *state._rule,
            state.divergence_limit, *sig.addresses, *map(_address, arrays), ctypes.byref(norm),
        )
        state.t += step or T - sig.prefix
        return step, norm.value

    def lfilter(self, b, a, x, z: np.ndarray) -> np.ndarray:
        """:meth:`daglms.TransferOperator.filter_step` of the operator ``b / a`` (``a[0] == 1``)
        over a 1-D ``x``, with the same bits; ``z``, a C-contiguous float64 state of
        ``len(b) - 1`` delays, is advanced in place."""
        b, a, x = (np.ascontiguousarray(v, dtype=float) for v in (b, a, x))
        if not (x.ndim == 1 and b.shape == a.shape == (z.size + 1,) and a[0] == 1.0):
            raise ValueError("lfilter takes a 1-D signal and len(b) == len(a) == len(z) + 1 with a[0] == 1")
        if not (z.dtype == np.float64 and z.flags.c_contiguous and z.flags.writeable):
            raise ValueError("lfilter advances a writable C-contiguous float64 state")
        y = np.empty_like(x)
        self._lfilter(z.size, b.ctypes.data, a.ctypes.data, z.ctypes.data, x.size, x.ctypes.data, y.ctypes.data)
        return y

    def sosfilt(self, sos: np.ndarray, x) -> np.ndarray:
        """``daglms.dsp_core._sosfilt``'s loop for a 1-D ``x`` and sections with ``a0 == 1``,
        from zero state, with the same bits."""
        sos, x = np.ascontiguousarray(sos, dtype=float), np.ascontiguousarray(x, dtype=float)
        if not (x.ndim == 1 and sos.ndim == 2 and sos.shape[1] == 6 and np.all(sos[:, 3] == 1.0)):
            raise ValueError("sosfilt takes a 1-D signal and (n, 6) sections with a0 == 1")
        zi, y = np.zeros((len(sos), 2)), np.empty_like(x)
        self._sosfilt(len(sos), sos.ctypes.data, zi.ctypes.data, x.size, x.ctypes.data, y.ctypes.data)
        return y

    def real_part_minimum(self, num, den, unit_pole: bool) -> tuple[float, float] | None:
        """``daglms.spr_design._real_part_minimum`` with its bits and its contract: the
        smallest real part of ``num / den`` on the unit circle (of ``num / ((1 - q^-1) den)``
        with ``unit_pole``) and the x = cos(omega) where it lies. None where the entry
        declines the call, for the twin to answer: more than :data:`MAX_DESIGN_COEFFS`
        coefficients, a critical series of degree 3 or more, a non-finite root or a pole
        on a candidate, which the twin raises on."""
        if len(num) <= MAX_DESIGN_COEFFS and len(den) <= MAX_DESIGN_COEFFS:
            out = _PAIR()
            if not self._real_part_minimum(len(num), len(den), _COEFFS(*num, *den), unit_pole, out):
                return out[0], out[1]
        return None

    def trace_rows(self, start: int, columns, window) -> memoryview:
        """Rows ``start``... of a trace CSV as bytes: the step, then a field for each of
        ``columns`` (at most :data:`MAX_TRACE_COLUMNS`), 1-D arrays of one length, each double
        as ``repr`` writes it and NaN as an empty field, then the field of ``window``, the
        fields joined by ``,`` and each row ending in ``\\r\\n``.

        ``window``, a ``(values, first, length)`` triple, holds one value per window of
        ``length`` steps: step ``s`` reads ``values[(s - first) // length]`` where
        ``s >= first`` and that index is in range, else an empty field; ``(np.empty(0), 0, 1)``
        leaves every such field empty. The writer formats each window once, and copies a
        field whose bits equal an earlier field of its row."""
        block = np.array(columns, dtype=np.float64)  # (columns, rows) in C order
        if not (block.ndim == 2 and block.shape[0] <= MAX_TRACE_COLUMNS and start >= 0):
            raise ValueError(f"trace_rows takes at most {MAX_TRACE_COLUMNS} columns of one length and a step from 0")
        values, first, length = window
        values = np.ascontiguousarray(values, dtype=np.float64)
        if not (values.ndim == 1 and first >= 0 and length >= 1):
            raise ValueError("a trace_rows window takes 1-D values, a first step from 0 and a length from 1")
        ncols, rows = block.shape
        out = np.empty(rows * (22 + 25 * (ncols + 1)) + 16, dtype=np.uint8)  # the bound of daglms_trace_rows
        size = self._trace_rows(
            self._pow10.ctypes.data, start, rows, ncols, block.ctypes.data,
            values.ctypes.data, values.size, first, length, out.ctypes.data,
        )
        return out[:size].data


def load() -> Kernel | None:
    """The kernel, built and loaded at the first call of a process; None where it cannot run."""
    global _kernel
    if _kernel is None:
        try:
            _kernel = Kernel(_build())
        except Exception as exc:  # whatever stops the build, the load or the check, the Python loop gives the same bits
            import logging

            logging.getLogger(__name__).debug(
                "running the Python adaptation loop, filters, trace writer and real-part minimum: %s",
                exc, exc_info=True,
            )
            _kernel = False
    return _kernel or None
