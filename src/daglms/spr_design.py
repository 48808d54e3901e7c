"""Frequency-domain design and verification toolkit.

Strict-positive-realness tests from the exact real-part minimum on the
unit circle, the zero-average log-gain check, the closed-form SPR region
for the second-order-numerator / first-order-denominator gain filter,
construction of the integrator-cascaded filter, its positive-realness test
with the unit-circle pole factored out and that test's closed form for the
same family, plus region grids for contour plotting. All operations are
pure functions.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from . import _kernel
from .dsp_core import (
    Polynomial,
    RootFindingError,
    SingularityError,
    TransferOperator,
    poly_mul,
    roots_inside_unit_circle,
)

DEFAULT_SPR_GRID = 8192
DEFAULT_QUAD_POINTS = 4096
PR_TOL = 1e-9


def d_from_dprime(d_prime) -> tuple[float, ...]:
    """Recursion weights obtained by absorbing a discrete integrator.

    Returns ``d`` of length ``len(d_prime) + 1`` such that
    ``1 - d1 q^-1 - ... - dn q^-n`` equals ``(1 - q^-1)(1 - d'1 q^-1 - ...)``.
    The empty list maps to ``(1.0,)``, the plain integrator.
    """
    padded = (-1.0, *(float(v) for v in d_prime), 0.0)
    return tuple(padded[i] - padded[i - 1] for i in range(1, len(padded)))


@dataclass(frozen=True)
class DagConfig:
    """Coefficients of the dynamic adaptation gain filter.

    ``c`` holds the moving-average weights applied to past correction
    terms, ``d_prime`` the autoregressive weights; both empty denotes the
    plain integral/gradient algorithm. The derived recursion weights
    :attr:`d` always stay consistent with ``d_prime``.
    """

    c: tuple[float, ...] = ()
    d_prime: tuple[float, ...] = ()

    def __post_init__(self):
        c = tuple(float(v) for v in self.c)
        dp = tuple(float(v) for v in self.d_prime)
        if not all(math.isfinite(v) for v in c + dp):
            raise ValueError("gain filter coefficients must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d_prime", dp)

    @property
    def d(self) -> tuple[float, ...]:
        return d_from_dprime(self.d_prime)

    @property
    def numerator(self) -> Polynomial:
        return Polynomial((1.0, *self.c))


@dataclass(frozen=True)
class SprVerdict:
    """Outcome of a numerical strict-positive-realness sweep."""

    is_stable: bool
    is_spr: bool
    min_real_part: float
    argmin_omega: float


@dataclass(frozen=True)
class PrVerdict:
    """Outcome of the positive-realness test with a unit-circle pole."""

    is_pr: bool
    min_real_part_excluding_pole: float
    unit_pole_residue_positive: bool


def dag_transfer(cfg: DagConfig) -> TransferOperator:
    """The adaptation-gain filter itself (numerator over AR part)."""
    den = Polynomial((1.0, *(-v for v in cfg.d_prime)))
    return TransferOperator(cfg.numerator, den)


def integrated_dag(cfg: DagConfig) -> TransferOperator:
    """Gain filter cascaded with a discrete integrator.

    The denominator is built from :attr:`DagConfig.d`, whose weights telescope to sum 1.
    That product is rounded, and its root at z = 1 is exact only where the product is:
    at d1p = 0.9999999999999999, ``1 + d1p`` rounds to 2.0 and the root is double.
    """
    den = Polynomial((1.0, *(-v for v in cfg.d)))
    return TransferOperator(cfg.numerator, den)


@lru_cache(maxsize=8)
def _unit_circle_grid(grid_size: int):
    """``omega = linspace(0, pi, grid_size)`` and ``exp(-1j omega)``, shared read-only."""
    omega = np.linspace(0.0, np.pi, grid_size)
    z_inv = np.exp(-1j * omega)
    omega.flags.writeable = z_inv.flags.writeable = False
    return omega, z_inv


@lru_cache(maxsize=8)
def _midpoint_grid(quad_points: int):
    """``step = pi / quad_points`` and ``exp(-1j omega)`` at the midpoints, shared read-only."""
    step = math.pi / quad_points
    z_inv = np.exp(-1j * ((np.arange(quad_points) + 0.5) * step))
    z_inv.flags.writeable = False
    return step, z_inv


# The real part of a response on the unit circle, as a ratio of Chebyshev series
# in x = cos(omega). A series is a list: coefficient k multiplies T_k(x) =
# cos(k omega), or U_k(x) = sin((k + 1) omega) / sin(omega) in a U series. The
# series here have a handful of terms, where plain floats beat NumPy's per-call cost.


def _scaled(coeffs) -> tuple[list[float], int]:
    """``coeffs`` times the power of two that brings the largest magnitude into [1, 2), and the exponent removed.

    The scaling is exact, and it keeps the products of the series in range.
    """
    exponent = math.frexp(max(map(abs, coeffs)))[1] - 1
    return [math.ldexp(c, -exponent) for c in coeffs], exponent


def _lags(u: list[float], v: list[float], half: int) -> list[float]:
    """Coefficient ``w[half + k]`` of ``e^{-jk omega}`` in ``U(e^{-j omega}) conj V(e^{-j omega})``, |k| <= half."""
    w = [0.0] * (2 * half + 1)
    for i, a in enumerate(u):
        for k, b in enumerate(v):
            w[half + i - k] += a * b
    return w


def _cos_series(w: list[float]) -> list[float]:
    """T series of the real part ``sum_k w[half + k] cos(k omega)`` of :func:`_lags`' product."""
    half = len(w) // 2
    return [w[half]] + [w[half + k] + w[half - k] for k in range(1, half + 1)]


def _cheb_mul(a: list[float], b: list[float]) -> list[float]:
    """Product of two T series: T_i T_j = (T_{i+j} + T_{|i-j|}) / 2."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            half_product = 0.5 * x * y
            out[i + j] += half_product
            out[abs(i - j)] += half_product
    return out


def _cheb_der(a: list[float]) -> list[float]:
    """d/dx of a T series of two or more terms, one term shorter (the recurrence of numpy's chebder)."""
    a = list(a)
    n = len(a) - 1
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = 2 * j * a[j]
        a[j - 2] += j * a[j] / (j - 2)
    if n > 1:
        der[1] = 4 * a[2]
    der[0] = a[1]
    return der


def _u_to_t(b: list[float]) -> list[float]:
    """T series of the U series ``b``: U_k = 2 (T_k + T_{k-2} + ...), with T_0 counted once."""
    t = list(b)
    for k in range(len(t) - 3, -1, -1):
        t[k] += t[k + 2]
    return t[:1] + [2.0 * c for c in t[1:]]


def _cheb_val(a: list[float], x: float) -> float:
    """A T series at ``x``, by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for c in reversed(a[1:]):
        b1, b2 = 2.0 * x * b1 - b2 + c, b1
    return x * b1 - b2 + a[0]


def _at(coeffs: list[float], zr: float, zi: float) -> tuple[float, float]:
    """A delay polynomial at ``zr + j zi`` by Horner's rule, each step CPython 3.11's complex
    ``y * z + c`` on real and imaginary parts: ``_Py_c_prod``'s order, ``c`` added as ``complex(c, 0.0)``."""
    yr = yi = 0.0
    for c in reversed(coeffs):
        yr, yi = yr * zr - yi * zi + c, yr * zi + yi * zr + 0.0
    return yr, yi


def _smallest(values: list[float], exponent: int) -> tuple[float, int]:
    """The first smallest of ``values`` times ``2**exponent``, and its index.

    A NaN counts as the smallest, as for ``np.argmin``, so no verdict passes
    on it; a product beyond the double range is an infinity of its sign.
    """
    k = 0
    for i, value in enumerate(values):
        if value != value:
            k = i
            break
        if value < values[k]:
            k = i
    try:
        return math.ldexp(values[k], exponent), k
    except OverflowError:
        return math.copysign(math.inf, values[k]), k


def _root_real_parts(a: list[float]) -> list[float]:
    """Real parts of the roots of a T series.

    Leading coefficients within rounding of the largest one are dropped: the
    roots they add lie about 1/eps from [-1, 1]. Degrees 1 and 2 are solved in
    closed form, higher ones as eigenvalues of the colleague matrix, which stay
    accurate at the degrees of path ratios. A failed eigenvalue solve or a
    non-finite root raises :class:`RootFindingError`.
    """
    floor = sys.float_info.epsilon * max(map(abs, a))
    n = len(a) - 1
    while n > 0 and abs(a[n]) <= floor:
        n -= 1
    if n == 0:
        roots = []
    elif n == 1:
        roots = [-a[0] / a[1]]
    elif n == 2:
        # 2 a2 x^2 + a1 x + (a0 - a2) = 0, by the quadratic formula that does not cancel
        qa, qb, qc = 2.0 * a[2], a[1], a[0] - a[2]
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            roots = [-qb / (2.0 * qa)]  # the real part of the complex pair
        else:
            s = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
            roots = [s / qa, qc / s] if s else [0.0]
    else:
        # numpy.polynomial.chebyshev's colleague matrix, symmetric but for its last
        # column, rotated as chebroots rotates it for accuracy
        mat = np.zeros((n, n))
        off = np.full(n - 1, 0.5)
        off[0] = math.sqrt(0.5)
        i = np.arange(n - 1)
        mat[i, i + 1] = mat[i + 1, i] = off
        scale = np.full(n, math.sqrt(0.5))
        scale[0] = 1.0
        mat[:, -1] -= np.array(a[:n]) / a[n] * (scale / scale[-1]) * 0.5
        try:
            roots = np.linalg.eigvals(mat[::-1, ::-1]).real.tolist()
        except np.linalg.LinAlgError as exc:
            raise RootFindingError(f"eigenvalue solve failed for the Chebyshev series {a}") from exc
    if not all(map(math.isfinite, roots)):
        raise RootFindingError(f"non-finite roots for the Chebyshev series {a}")
    return roots


def _critical_points(p: list[float], q: list[float]) -> list[float]:
    """Where the minimum of ``p(x) / q(x)`` over [-1, 1] can lie, for T series of one length, two or more.

    It lies at x = +-1 or at a real root of ``p' q - p q'``. The real part of
    every root, clipped to [-1, 1], is a candidate: a point on the circle, so
    the smallest value never lies below the true minimum, and an error in a
    root enters it only quadratically. Where q nearly vanishes the product's
    coefficients cancel and its roots move, so the point that Newton steps on
    ``p' q - p q'``, evaluated from the series themselves, reach from each root
    is a candidate as well.
    """
    dp, dq = _cheb_der(p), _cheb_der(q)
    ddp, ddq = (_cheb_der(s) if len(s) > 1 else [0.0] for s in (dp, dq))
    critical = [s - t for s, t in zip(_cheb_mul(dp, q), _cheb_mul(p, dq))]
    candidates = [1.0, -1.0]
    for x in _root_real_parts(critical):
        x = min(1.0, max(-1.0, x))
        candidates.append(x)
        last = math.inf
        for _ in range(8):
            p0, p1, p2 = _cheb_val(p, x), _cheb_val(dp, x), _cheb_val(ddp, x)
            q0, q1, q2 = _cheb_val(q, x), _cheb_val(dq, x), _cheb_val(ddq, x)
            slope = p2 * q0 - p0 * q2  # d/dx (p' q - p q')
            step = (p1 * q0 - p0 * q1) / slope if slope else 0.0
            if not 0.0 < abs(step) < 0.5 * last:  # converged to rounding, or not converging
                break
            x = min(1.0, max(-1.0, x - step))
            last = abs(step)
        candidates.append(x)
    return candidates


def _real_part_minimum(num, den, unit_pole: bool) -> tuple[float, float]:
    """The smallest real part of ``N / D`` on the unit circle, N and D of coefficients ``num``
    and ``den``, or of ``N / ((1 - q^-1) D)`` with ``unit_pole``; and the x = cos(omega) where it lies.

    The real part is ``P(x)/Q(x)``: P the T series of ``Re{N conj D}`` and Q that of ``|D|^2``,
    or ``[R(x) + (1 + x) U(x)] / (2 |D|^2)`` with ``unit_pole``, U the U series of
    ``Im{N conj D}`` over sin(omega), as cot(omega/2) sin(omega) = 1 + x. At each point of
    :func:`_critical_points` it is taken from N and D, whose series cancel next to a zero of D,
    scaled by :func:`_scaled`; :func:`_smallest` undoes the scaling on the smallest value alone,
    so a response beyond the double range elsewhere does not overflow it. A pole at a candidate
    raises :class:`SingularityError`. ``daglms._kernel.Kernel.real_part_minimum`` has its bits.
    """
    n, n_exp = _scaled(num)
    d, d_exp = _scaled(den)
    half = max(len(n), len(d), 2) - 1
    w = _lags(n, d, half)
    p, q = _cos_series(w), _cos_series(_lags(d, d, half))
    if unit_pole:
        sine = _u_to_t([w[half - k] - w[half + k] for k in range(1, half + 1)])  # Im{N conj D} / sin(omega)
        p = [r + s for r, s in zip(p, _cheb_mul([1.0, 1.0], sine))]
        q = [2.0 * c for c in q]
    xs = _critical_points(p, q)
    values = []
    for x in xs:
        zi = -math.sqrt((1.0 - x) * (1.0 + x))  # exp(-j omega) = x + j zi
        (nr, ni), (dr, di) = _at(n, x, zi), _at(d, x, zi)
        abs2 = dr * dr + di * di
        if abs2 == 0.0:
            raise SingularityError("pole exactly on the evaluation point")
        re = nr * dr - ni * -di  # Re{N conj D}
        values.append((re + (1.0 + x) * _cheb_val(sine, x)) / (2.0 * abs2) if unit_pole else re / abs2)
    min_re, k = _smallest(values, n_exp - d_exp)
    return min_re, xs[k]


def _minimum(num, den, unit_pole: bool) -> tuple[float, float]:
    """:func:`_real_part_minimum`, by the kernel's entry where it loads and takes the call."""
    kernel = _kernel.load()
    return (kernel and kernel.real_part_minimum(num, den, unit_pole)) or _real_part_minimum(num, den, unit_pole)


def is_spr_numeric(h: TransferOperator, grid_size: int = DEFAULT_SPR_GRID) -> SprVerdict:
    """Strict-positive-realness test with the exact real-part minimum over [0, pi].

    Strict positive realness requires zeros and poles strictly inside the unit
    circle and a strictly positive real part on the whole circle, whose minimum
    :func:`_real_part_minimum` finds: ``argmin_omega`` is its frequency, and a
    NaN minimum is not SPR. No grid is sampled: ``grid_size`` is still
    validated (at least 256) but sets no resolution.
    """
    if grid_size < 256:
        raise ValueError("grid_size must be at least 256")
    stable = roots_inside_unit_circle(h.numerator) and roots_inside_unit_circle(h.denominator)
    min_re, x = _minimum(h.numerator.coeffs, h.denominator.coeffs, False)
    return SprVerdict(stable, stable and min_re > 0.0, min_re, math.acos(x))


def log_gain_integral(
    h: TransferOperator,
    quad_points: int = DEFAULT_QUAD_POINTS,
    check_stability: bool = True,
) -> float:
    """Integral of log-magnitude over (0, pi) by midpoint quadrature.

    When numerator and denominator both have all zeros strictly inside the
    unit circle this vanishes (Jensen's formula): the filter's average gain
    over the half band is 0 dB. With the default 4096 points the result is
    below 1e-3 in magnitude for such inputs. ``check_stability=False``
    skips the precondition and integrates whatever was passed in.
    """
    if quad_points < 1:
        raise ValueError("quad_points must be positive")
    if check_stability:
        if not roots_inside_unit_circle(h.numerator):
            raise ValueError("numerator has zeros on or outside the unit circle")
        if not roots_inside_unit_circle(h.denominator):
            raise ValueError("denominator has zeros on or outside the unit circle")
    step, z_inv = _midpoint_grid(int(quad_points))
    mag = np.abs(h.response_at(z_inv))
    return float(np.sum(np.log(mag)) * step)


def _over_coefficient_arrays(verdict):
    """Decide ``verdict(c1, c2, d1p)`` over broadcast float arrays of finite c1, c2; scalars give a ``bool``."""
    @wraps(verdict)
    def decide(c1, c2, d1p):
        c1, c2 = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
        if not (np.isfinite(c1).all() and np.isfinite(c2).all()):
            raise ValueError("c1 and c2 must be finite")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # NaN and inf fail comparisons
            flags = verdict(c1, c2, d1p)
        return flags if np.ndim(flags) else bool(flags)
    return decide


@_over_coefficient_arrays
def arima2_spr_closed_form(c1: float | np.ndarray, c2: float | np.ndarray, d1p: float) -> bool | np.ndarray:
    """Closed-form SPR verdict for ``(1 + c1 q^-1 + c2 q^-2)/(1 - d1p q^-1)``.

    On the unit circle the real part is the quadratic
    ``2 c2 x^2 + (c1 - d1p (1 + c2)) x + (1 - c1 d1p - c2)`` in ``x = cos(omega)``.
    For ``c2 <= 0`` its minimum over [-1, 1] sits at an endpoint, giving the band
    ``-1 - c2 < c1 < 1 + c2``; for ``0 < c2 < 1`` the interior vertex adds a bound
    of ``d1p - 3 d1p c2 +/- 2 s`` with ``s = sqrt(2 (c2 - c2^2)(1 - d1p^2))``,
    active exactly when the vertex lies inside the circle arc. The condition is
    open: boundaries are not SPR. With a stable pole, a positive real part puts
    the numerator zeros inside the circle (the inverse of an SPR filter is SPR),
    so no root test is needed; only ``c2 >= 1`` escapes the bounds, and it is
    guarded. Arrays broadcast to an array of verdicts, scalars give a ``bool``;
    non-finite ``c1`` or ``c2`` raise ValueError.
    """
    # where s is NaN (no real vertex bound) the comparisons with it fail and leave the band
    s = np.sqrt(2.0 * (c2 - c2 * c2) * (1.0 - d1p * d1p))
    lo, hi = 2.0 * c2 * (d1p - 1.0), 2.0 * c2 * (d1p + 1.0)
    upper = np.where((lo < s) & (s < hi), d1p - 3.0 * d1p * c2 + 2.0 * s, 1.0 + c2)
    lower = np.where((lo < -s) & (-s < hi), d1p - 3.0 * d1p * c2 - 2.0 * s, -1.0 - c2)
    return (abs(d1p) < 1.0) & (c2 < 1.0) & (lower < c1) & (c1 < upper)


@_over_coefficient_arrays
def integrated_pr_closed_form(c1: float | np.ndarray, c2: float | np.ndarray, d1p: float) -> bool | np.ndarray:
    """Closed-form PR verdict for ``(1 + c1 q^-1 + c2 q^-2)/((1 - q^-1)(1 - d1p q^-1))``.

    With ``v = sin^2(omega/2)`` in (0, 1] the real part on the circle is
    ``[1 - c1 - 3 c2 - d1p (c1 - c2 + 3) + 4 (c2 + d1p) v] / [2 ((1 - d1p)^2 + 4 d1p v)]``.
    Both brackets are linear in v and the denominator is positive for |d1p| < 1, so
    the real part is monotone: its infimum is the limit at omega -> 0 or the value at
    pi. PR as :func:`is_pr_unit_pole` defines it: |d1p| < 1, a positive residue
    ``(1 + c1 + c2)/(1 - d1p)`` at z = 1, and an infimum of at least ``-PR_TOL``, which
    keeps PR the boundary cells ``grid_axis`` leaves at +-1e-16.
    Inputs are handled as in :func:`arima2_spr_closed_form`.
    """
    at_zero = (1.0 - c1 - 3.0 * c2 - d1p * (c1 - c2 + 3.0)) / (2.0 * (1.0 - d1p) ** 2)
    at_pi = (1.0 - c1 + c2) / (2.0 * (1.0 + d1p))
    return (abs(d1p) < 1.0) & (1.0 + c1 + c2 > 0.0) & (np.minimum(at_zero, at_pi) >= -PR_TOL)


def _axis_count(start: float, stop: float, step: float) -> int:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"start, stop and step must be finite, got {start!r}, {stop!r}, {step!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError(f"stop {stop!r} is below start {start!r}")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ValueError(f"span from {start!r} to {stop!r} is too large for step {step!r}")
    return int(math.floor(span + 1e-9)) + 1


def grid_axis(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive uniform axis for region grids.

    A non-finite bound, step or cell count, or ``stop < start``, raises ValueError.
    """
    return start + step * np.arange(_axis_count(start, stop, step))


# the most cells spr_region_grid builds; its callers' default grid has 3321
MAX_REGION_CELLS = 10**6


def spr_region_grid(d1p: float, c1_range, c2_range):
    """Closed-form SPR verdict per cell of a (c1, c2) grid.

    ``c1_range`` and ``c2_range`` are ``(start, stop, step)`` triples; an
    invalid one raises ValueError naming its axis, and so does a grid of more
    than :data:`MAX_REGION_CELLS` cells, before anything is allocated.
    Returns ``(c1_values, c2_values, flags)`` with ``flags[i, j]`` the
    verdict at ``(c1_values[i], c2_values[j])``.
    """
    counts = []
    for name, axis_range in (("c1", c1_range), ("c2", c2_range)):
        try:
            counts.append(_axis_count(*axis_range))
        except ValueError as exc:
            raise ValueError(f"{name} axis: {exc}") from exc
    if counts[0] * counts[1] > MAX_REGION_CELLS:
        raise ValueError(
            f"c1 axis ({counts[0]} values) x c2 axis ({counts[1]} values) is more than {MAX_REGION_CELLS} cells"
        )
    c1_values, c2_values = grid_axis(*c1_range), grid_axis(*c2_range)
    return c1_values, c2_values, arima2_spr_closed_form(c1_values[:, None], c2_values[None, :], d1p)


def is_pr_unit_pole(
    h: TransferOperator,
    grid_size: int = DEFAULT_SPR_GRID,
    tol: float = PR_TOL,
) -> PrVerdict:
    """Positive-realness test for an operator ``N / D`` with a simple pole at z = 1: :func:`_pr_unit_pole`
    on N and ``A = D / (1 - q^-1)``, by synthetic division, which is exact only where D's coefficients
    are the exact product. ``grid_size`` is validated as in :func:`is_spr_numeric`."""
    if grid_size < 256:
        raise ValueError("grid_size must be at least 256")
    den = h.denominator.coeffs
    if abs(sum(den)) > 1e-9 * sum(map(abs, den)):
        raise ValueError("denominator has no root at z = 1")
    # synthetic division by (1 - q^-1): quotient coefficients are prefix sums
    return _pr_unit_pole(h.numerator.coeffs, tuple(itertools.accumulate(den[:-1])), tol)


def _pr_unit_pole(num, den, tol: float = PR_TOL) -> PrVerdict:
    """Positive realness of ``N / ((1 - q^-1) A)``, N and A of coefficients ``num`` and ``den``.

    A must be strictly stable. The real part on the circle is smooth on [-1, 1]
    in x = cos(omega), its omega -> 0 limit is its value at x = 1, and
    :func:`_real_part_minimum` finds its exact minimum from N and A. The operator
    is PR iff that minimum is at least ``-tol`` and the residue of the pole at
    z = 1 is positive.
    """
    if not roots_inside_unit_circle(Polynomial(den)):
        raise ValueError("unit pole is not simple or remaining denominator is unstable")
    residue = _at(num, 1.0, 0.0)[0] / _at(den, 1.0, 0.0)[0]
    min_re, _ = _minimum(num, den, True)
    residue_positive = residue > 0.0
    return PrVerdict(bool(min_re >= -tol and residue_positive), min_re, residue_positive)


def bode_points(h: TransferOperator, grid_size: int, sample_rate_hz: float):
    """Gain (dB) and phase (deg) versus frequency for CSV export.

    Returns ``(freq_hz, omega_rad, gain_db, phase_deg)`` on a uniform grid
    over [0, pi] (0 to half the sample rate).
    """
    omega, z_inv = _unit_circle_grid(int(grid_size))
    resp = h.response_at(z_inv)
    freq = omega * (sample_rate_hz / (2.0 * np.pi))
    gain_db = 20.0 * np.log10(np.abs(resp))
    phase_deg = np.degrees(np.angle(resp))
    return freq, omega.copy(), gain_db, phase_deg


def ratio_transfer(g: TransferOperator, g_model: TransferOperator) -> TransferOperator:
    """The operator ``g / g_model`` with a monic denominator."""
    num = poly_mul(g.numerator, g_model.denominator)
    den = poly_mul(g.denominator, g_model.numerator)
    return TransferOperator.normalized(num, den)
