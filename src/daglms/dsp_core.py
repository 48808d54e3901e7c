"""Core discrete-time primitives.

Polynomials in the unit-delay operator, rational transfer operators with
per-sample filtering state, frequency response evaluation, seeded noise
generation and windowed variance metrics. Everything here is plain
float64; transfer-operator filtering state is mutable and single-owner.
Whole signals are filtered by the loops of the compiled kernel
(:mod:`daglms._kernel`) where it loads, else by the Python loops it
transcribes, :meth:`TransferOperator.filter_step` and ``_sosfilt``'s; both
give the same bits. The band-pass noise filter is designed in NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernel


class RootFindingError(RuntimeError):
    """A root solve failed or returned non-finite roots.

    Only the Chebyshev critical-point solve of :mod:`daglms.spr_design`
    raises it; the stability test solves for no roots.
    """


class SingularityError(ValueError):
    """A transfer operator was evaluated exactly on one of its poles."""


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in the unit-delay operator.

    ``coeffs[k]`` multiplies a delay of ``k`` samples, so ``(1.0, -0.9)``
    reads ``1 - 0.9 q^-1``. Trailing zero coefficients are permitted;
    :meth:`canonical` strips them.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient (0 for the zero polynomial)."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0.0:
                return k
        return 0

    def canonical(self) -> Polynomial:
        """Trailing zero coefficients stripped: ``self`` when there are none (it is frozen), else a copy."""
        size = self.degree + 1
        return self if size == len(self.coeffs) else Polynomial(self.coeffs[:size])

    def __call__(self, z_inv):
        """Evaluate at a value (or array) of the delay variable."""
        if np.ndim(z_inv) == 0:
            return np.polyval(self.coeffs[::-1], z_inv)
        # np.polyval's Horner steps, in place: on an 8192-point grid each temporary
        # would be 128 KiB, which glibc maps and unmaps, page faults included. Its first
        # step, 0 * x + top, is top for a finite x and a nonzero top, so the loop starts there
        x = np.asarray(z_inv)
        *rest, top = self.coeffs
        y = np.full(x.shape, top, np.result_type(x, np.float64))
        for c in reversed(rest):
            y *= x
            y += c
        return y

    def __mul__(self, other: Polynomial) -> Polynomial:
        return poly_mul(self, other)


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product of two delay-operator polynomials (coefficient convolution)."""
    return Polynomial(tuple(np.convolve(a.coeffs, b.coeffs)))


def roots_inside_unit_circle(p: Polynomial) -> bool:
    """True iff every zero of ``p`` lies strictly inside the unit circle.

    The coefficient vector doubles as the z-plane polynomial
    ``coeffs[0] z^n + ... + coeffs[n]`` whose roots are the delay-operator
    zeros; leading zeros are dropped first, as ``np.roots`` drops them. The
    verdict is exact: the Schur–Cohn recursion (Jury, 1964) runs on integers,
    the coefficients over their common power-of-two denominator. Each step
    needs ``|a_n| < |a_0|`` and keeps ``a_0 a_i - a_n a_{n-i}`` for i < n,
    whose zeros are inside iff those of the step before are. The circle is
    open: a root of modulus exactly 1 fails. Degree-0 polynomials have no
    zeros and return True. Finite coefficients raise nothing. The first step's
    comparison is exact on the floats themselves, and at degree 1 it is the
    whole test, so the integers are made only for the steps after it.
    """
    a = list(p.canonical().coeffs)
    while len(a) > 1 and not a[0]:
        del a[0]
    if len(a) > 1 and abs(a[-1]) >= abs(a[0]):
        return False
    if len(a) <= 2:
        return True
    ratios = [c.as_integer_ratio() for c in a]
    den = max(d for _, d in ratios)
    a = [n * (den // d) for n, d in ratios]
    while len(a) > 2:  # |a_n| < |a_0| holds here: step, then compare the next ends
        a0, an = a[0], a[-1]
        a = [a0 * a[i] - an * a[-1 - i] for i in range(len(a) - 1)]
        if abs(a[-1]) >= abs(a[0]):
            return False
    return True


class TransferOperator:
    """Rational transfer operator with direct-form II transposed state.

    Coefficients are stored literally: a recursion written with sign
    convention ``1 - d1 q^-1 - d2 q^-2`` in the denominator is constructed
    with denominator ``(1, -d1, -d2)``. The denominator leading coefficient
    must be exactly 1 (see :meth:`normalized` to divide through). The
    filter state has length ``max(deg num, deg den)`` and belongs to a
    single owner; use :meth:`fresh` for an independent zero-state copy.
    """

    def __init__(self, numerator, denominator=None):
        num = numerator if isinstance(numerator, Polynomial) else Polynomial(tuple(numerator))
        if denominator is None:
            den = Polynomial((1.0,))
        else:
            den = denominator if isinstance(denominator, Polynomial) else Polynomial(tuple(denominator))
        num = num.canonical()
        den = den.canonical()
        if den.coeffs[0] != 1.0:
            raise ValueError("denominator leading coefficient must be exactly 1")
        self._num = num
        self._den = den
        order = max(num.degree, den.degree)
        self._b = num.coeffs + (0.0,) * (order - num.degree)
        self._a = den.coeffs + (0.0,) * (order - den.degree)
        self._state: list[float] = [0.0] * order

    @classmethod
    def identity(cls) -> TransferOperator:
        return cls(Polynomial((1.0,)))

    @classmethod
    def normalized(cls, numerator, denominator) -> TransferOperator:
        """Build after dividing both polynomials by the denominator lead."""
        num = numerator if isinstance(numerator, Polynomial) else Polynomial(tuple(numerator))
        den = denominator if isinstance(denominator, Polynomial) else Polynomial(tuple(denominator))
        lead = den.coeffs[0]
        if lead == 0.0:
            raise ValueError("denominator leading coefficient is zero")
        return cls(
            Polynomial(tuple(c / lead for c in num.coeffs)),
            Polynomial(tuple(c / lead for c in den.coeffs)),
        )

    @property
    def numerator(self) -> Polynomial:
        return self._num

    @property
    def denominator(self) -> Polynomial:
        return self._den

    def __repr__(self):
        return f"TransferOperator(num={self._num.coeffs}, den={self._den.coeffs})"

    def fresh(self) -> TransferOperator:
        """Independent copy with zeroed filter state."""
        return TransferOperator(self._num, self._den)

    def reset(self) -> None:
        self._state = [0.0] * len(self._state)

    def filter_step(self, u: float) -> float:
        """Advance the difference equation by one input sample."""
        b = self._b
        a = self._a
        z = self._state
        n = len(z)
        y = b[0] * u + (z[0] if n else 0.0)
        for k in range(n - 1):
            z[k] = b[k + 1] * u + z[k + 1] - a[k + 1] * y
        if n:
            z[n - 1] = b[n] * u - a[n] * y
        return y

    def filter_signal(self, x) -> np.ndarray:
        """Filter a whole 1-D signal, advancing the same state as filter_step: by the
        kernel's loop where it loads, else by filter_step itself, with the same bits."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"filter_signal takes a 1-D signal, got {x.ndim}-D")
        kernel = _kernel.load()
        if kernel is None:
            return np.array([self.filter_step(u) for u in x.tolist()])
        z = np.array(self._state)
        y = kernel.lfilter(self._b, self._a, x, z)
        self._state = z.tolist()
        return y

    def impulse_response(self, n: int) -> np.ndarray:
        """First ``n`` samples of the impulse response (state untouched)."""
        if n < 1:
            raise ValueError("sample count must be positive")
        x = np.zeros(n)
        x[0] = 1.0
        return self.fresh().filter_signal(x)

    def response_at(self, z_inv):
        """Numerator/denominator ratio at delay-variable value(s) ``z_inv``."""
        den = self._den(z_inv)
        if not den.all():  # a value is zero where both parts are +-0; a NaN is not
            raise SingularityError("pole exactly on the evaluation point")
        num = self._num(z_inv)
        num /= den  # in place on an array, as in Polynomial.__call__
        return num

    def freq_response(self, omega):
        """Response on the unit circle at angular frequency ``omega`` [rad]."""
        om = np.asarray(omega, dtype=float)
        value = self.response_at(np.exp(-1j * om))
        if om.ndim == 0:
            return complex(value)
        return value


@dataclass(frozen=True)
class NoiseSpec:
    """Deterministic noise description: kind, band, sample rate, seed, RMS."""

    kind: str = "white"
    sample_rate_hz: float = 2500.0
    band_low_hz: float = 70.0
    band_high_hz: float = 170.0
    seed: int = 0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("white", "bandpass"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError("amplitude must be a finite non-negative RMS target")
        if not 0.0 < self.sample_rate_hz < math.inf:  # NaN included
            raise ValueError(f"sample_rate_hz must be finite and positive, got {self.sample_rate_hz!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.kind == "bandpass":
            if not (0.0 < self.band_low_hz < self.band_high_hz < self.sample_rate_hz / 2.0):
                raise ValueError(
                    f"invalid band [{self.band_low_hz}, {self.band_high_hz}] Hz "
                    f"at fs={self.sample_rate_hz} Hz"
                )


# Band-pass shaping: second-order sections from the bilinear transform of an
# analog Butterworth prototype. The design corners sit inside the target band
# by a tenth of its width per side so the half-power skirts stay in band;
# with four sections this puts >=97% of the noise power inside the target
# band (the >=95% contract fails at lower orders for bands this narrow).
_BANDPASS_HALF_ORDER = 4
_BANDPASS_CORNER_INSET = 0.10
_WARMUP_SAMPLES = 1024


def _sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The sections ``sos``, rows ``(b0, b1, b2, 1, a1, a2)``, run over ``x`` from zero state:
    by the kernel's loop where it loads, else by this loop, in ``daglms_sosfilt``'s expression order."""
    kernel = _kernel.load()
    if kernel is not None:
        return kernel.sosfilt(sos, x)
    sections, zi, y = sos.tolist(), [[0.0, 0.0] for _ in sos], []
    for v in x.tolist():
        for (b0, b1, b2, _, a1, a2), z in zip(sections, zi):
            w = b0 * v + z[0]
            z[0], z[1] = b1 * v - a1 * w + z[1], b2 * v - a2 * w
            v = w
        y.append(v)
    return np.array(y)


@lru_cache(maxsize=32)
def _bandpass_sos(low: float, high: float, fs: float) -> np.ndarray:
    """``scipy.signal.butter(4, band, "bandpass", fs=fs, output="sos")`` of the inset band,
    transcribed step for step into NumPy, with its bits: ``buttap``'s poles, ``lp2bp_zpk``,
    ``bilinear_zpk`` at fs = 2 (the eight zeros land on -1 and +1), ``_cplxreal``'s
    conjugate averaging, then ``zpk2sos``'s nearest pairing, with the gain in the first
    section. ``zpk2sos``'s two special cases need an odd count of real poles or a lone
    real zero, which this design never has."""
    n, inset = _BANDPASS_HALF_ORDER, _BANDPASS_CORNER_INSET * (high - low)
    wn = np.array([low + inset, high - inset]) / (fs / 2)
    if not 0.0 < wn[0] < wn[1] < 1.0:  # butter's check: the scaling can round the band away
        raise ValueError(f"band [{low}, {high}] Hz at fs={fs} Hz is too narrow to design")
    warped = 4.0 * np.tan(np.pi * wn / 2.0)  # pre-warped at fs = 2
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    p = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2, dtype=np.float64) / (2 * n)) * bw / 2
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    gain = bw**n * np.real(4.0**n / np.prod(4.0 - p))  # 4**n: prod(4 - z) over the n zeros at 0
    p = (4.0 + p) / (4.0 - p)
    tol = 100 * np.finfo(float).eps
    p = p[np.lexsort((abs(p.imag), p.real))]
    real = abs(p.imag) <= tol * abs(p)
    up, down = p[~real & (p.imag > 0)], p[~real & (p.imag < 0)]
    runs = np.diff(np.concatenate(([0], np.diff(up.real) <= tol * abs(up[:-1]), [0])))
    for start, stop in zip(np.flatnonzero(runs > 0), np.flatnonzero(runs < 0) + 1):
        for run in (up[start:stop], down[start:stop]):  # a run of equal real parts, by |imag|
            run[...] = run[np.lexsort([abs(run.imag)])]
    p = np.concatenate(((up + down.conj()) / 2, p[real].real))
    z, sos = np.repeat([-1.0, 1.0], n), np.zeros((n, 6))
    for s in range(n - 1, -1, -1):  # the poles nearest the circle go last
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):  # paired with the real pole nearest the circle
            reals = np.flatnonzero(np.isreal(p))
            i = reals[np.argmin(np.abs(1 - np.abs(p[reals])))]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        b, a = np.ones(1), np.ones(1, complex)
        for _ in range(2):  # the two zeros nearest p1
            nearest = np.argsort(np.abs(z - p1))[0]
            b, z = np.convolve(b, np.stack((1.0, -z[nearest]))), np.delete(z, nearest)
        for root in (p1, p2):
            a = np.convolve(a, np.stack((np.ones_like(root), -root)))
        sos[s] = *b, *a.real
    sos[0][:3] *= gain
    return sos


@lru_cache(maxsize=32)
def _bandpass_rms_gain(low: float, high: float, fs: float) -> float:
    # white-noise RMS gain = sqrt of the impulse-response energy
    imp = np.zeros(8192)
    imp[0] = 1.0
    h = _sosfilt(_bandpass_sos(low, high, fs), imp)
    return float(np.sqrt(np.dot(h, h)))


def gen_noise(spec: NoiseSpec, n: int) -> np.ndarray:
    """Generate ``n`` samples of seeded noise per ``spec``.

    Identical specs produce identical sequences, and longer requests extend
    shorter ones sample-for-sample. Band-pass noise is white noise shaped by
    the band-pass filter above, scaled so the stationary RMS equals
    ``spec.amplitude`` (a fixed warm-up stretch is discarded).
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "white":
        return spec.amplitude * rng.standard_normal(n)
    band = spec.band_low_hz, spec.band_high_hz, spec.sample_rate_hz
    gain = _bandpass_rms_gain(*band)
    if not 0.0 < gain < math.inf:  # it underflows at a rate far above the band
        raise ValueError(
            "band_low_hz = {!r}, band_high_hz = {!r} at sample_rate_hz = {!r}: the band-pass filter's RMS gain "
            "is {!r}, so the noise cannot be scaled to its amplitude".format(*band, gain)
        )
    raw = rng.standard_normal(n + _WARMUP_SAMPLES)
    shaped = _sosfilt(_bandpass_sos(*band), raw)[_WARMUP_SAMPLES:]
    return shaped * (spec.amplitude / gain)


# the samples that windowed_variance takes at a time, about 0.5 MB of doubles
_VARIANCE_CHUNK = 65536


def windowed_variance(x, window: int) -> np.ndarray:
    """Population variance of ``x`` per window, as the attenuation metric takes it:
    consecutive non-overlapping windows of ``window`` samples, with an incomplete
    tail dropped."""
    x = np.asarray(x, dtype=float)
    if not isinstance(window, (int, np.integer)) or window <= 0:
        raise ValueError(f"window must be a positive integer sample count, got {window!r}")
    window = int(window)
    if window > x.size:
        raise ValueError(f"window {window} exceeds signal length {x.size}")
    nblocks = x.size // window
    blocks = x[: nblocks * window].reshape(nblocks, window)
    # a few windows at a time: var's temporaries stay small, and each row keeps its bits
    rows = max(1, _VARIANCE_CHUNK // window)
    return np.concatenate([blocks[k:k + rows].var(axis=1) for k in range(0, nblocks, rows)])
