"""Core discrete-time primitives.

Polynomials in the unit-delay operator, rational transfer operators with
per-sample filtering state, frequency response evaluation, seeded noise
generation and windowed variance metrics. Everything here is plain
float64; transfer-operator filtering state is mutable and single-owner.
``scipy.signal`` is imported where it is used, so the design commands,
which never filter, start without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class RootFindingError(RuntimeError):
    """Polynomial root computation failed or returned non-finite roots."""


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
        """Copy with trailing zero coefficients stripped."""
        return Polynomial(self.coeffs[: self.degree + 1])

    def __call__(self, z_inv):
        """Evaluate at a value (or array) of the delay variable."""
        if np.ndim(z_inv) == 0:
            return np.polyval(self.coeffs[::-1], z_inv)
        # np.polyval's Horner steps, in place: on an 8192-point grid each temporary
        # would be 128 KiB, which glibc maps and unmaps, page faults included
        x = np.asarray(z_inv)
        y = np.zeros(x.shape, np.result_type(x, np.float64))
        for c in self.coeffs[::-1]:
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
    zeros. Roots come from companion-matrix eigenvalues; failures raise
    :class:`RootFindingError` instead of silently passing. The circle is
    open: a root of modulus exactly 1 fails. Degree-0 polynomials have no
    zeros and return True.
    """
    q = p.canonical()
    if q.degree == 0:
        return True
    try:
        roots = np.roots(q.coeffs)
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(f"eigenvalue solve failed for {q.coeffs}") from exc
    if not np.all(np.isfinite(roots)):
        raise RootFindingError(f"non-finite roots for {q.coeffs}")
    return bool(np.all(np.abs(roots) < 1.0))


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
        if lead == 1.0:
            return cls(num, den)
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
        """Filter a whole signal, advancing the same state as filter_step."""
        x = np.asarray(x, dtype=float)
        if not self._state:
            return self._b[0] * x + 0.0  # + 0.0: -0.0 becomes 0.0, as in filter_step
        import scipy.signal

        zi = np.asarray(self._state, dtype=float)
        y, zf = scipy.signal.lfilter(self._b, self._a, x, zi=zi)
        self._state = zf.tolist()
        return y

    def impulse_response(self, n: int) -> np.ndarray:
        """First ``n`` samples of the impulse response (state untouched)."""
        import scipy.signal

        x = np.zeros(n)
        x[0] = 1.0
        return scipy.signal.lfilter(self._b, self._a, x)

    def response_at(self, z_inv):
        """Numerator/denominator ratio at delay-variable value(s) ``z_inv``."""
        den = self._den(z_inv)
        if np.any(den == 0):
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


@lru_cache(maxsize=32)
def _bandpass_sos(low: float, high: float, fs: float):
    import scipy.signal

    inset = _BANDPASS_CORNER_INSET * (high - low)
    return scipy.signal.butter(
        _BANDPASS_HALF_ORDER, [low + inset, high - inset], btype="bandpass", fs=fs, output="sos"
    )


@lru_cache(maxsize=32)
def _bandpass_rms_gain(low: float, high: float, fs: float) -> float:
    # white-noise RMS gain = sqrt of the impulse-response energy
    import scipy.signal

    imp = np.zeros(8192)
    imp[0] = 1.0
    h = scipy.signal.sosfilt(_bandpass_sos(low, high, fs), imp)
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
    import scipy.signal

    sos = _bandpass_sos(spec.band_low_hz, spec.band_high_hz, spec.sample_rate_hz)
    raw = rng.standard_normal(n + _WARMUP_SAMPLES)
    shaped = scipy.signal.sosfilt(sos, raw)[_WARMUP_SAMPLES:]
    gain = _bandpass_rms_gain(spec.band_low_hz, spec.band_high_hz, spec.sample_rate_hz)
    return shaped * (spec.amplitude / gain)


def windowed_variance(x, window: int, mode: str = "block") -> np.ndarray:
    """Population variance of ``x`` per window.

    ``block`` mode (used for attenuation metrics) cuts the signal into
    consecutive non-overlapping windows and drops an incomplete tail;
    ``sliding`` mode returns one variance per window position.
    """
    x = np.asarray(x, dtype=float)
    window = int(window)
    if window <= 0:
        raise ValueError("window must be a positive sample count")
    if window > x.size:
        raise ValueError(f"window {window} exceeds signal length {x.size}")
    if mode == "block":
        nblocks = x.size // window
        return x[: nblocks * window].reshape(nblocks, window).var(axis=1)
    if mode == "sliding":
        c1 = np.cumsum(np.concatenate(([0.0], x)))
        c2 = np.cumsum(np.concatenate(([0.0], x * x)))
        mean = (c1[window:] - c1[:-window]) / window
        mean_sq = (c2[window:] - c2[:-window]) / window
        return np.maximum(mean_sq - mean * mean, 0.0)
    raise ValueError(f"unknown mode {mode!r}")
