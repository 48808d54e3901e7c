"""Frequency-domain design and verification toolkit.

Numerical strict-positive-realness tests, the zero-average log-gain check,
the closed-form SPR region for the second-order-numerator / first-order-
denominator gain filter, construction of the integrator-cascaded filter,
its positive-realness test with the unit-circle pole factored out and that
test's closed form for the same family, plus region grids for contour
plotting. All operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .dsp_core import Polynomial, TransferOperator, poly_mul, roots_inside_unit_circle

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

    The denominator is built from :func:`d_from_dprime`, so it carries a
    root at z = 1 exactly (the weights telescope to sum 1).
    """
    den = Polynomial((1.0, *(-v for v in d_from_dprime(cfg.d_prime))))
    return TransferOperator(cfg.numerator, den)


@lru_cache(maxsize=8)
def _unit_circle_grid(grid_size: int, start: float = 0.0):
    """``omega = linspace(start, pi, grid_size)`` and ``exp(-1j omega)``, shared read-only."""
    omega = np.linspace(start, np.pi, grid_size)
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


def is_spr_numeric(h: TransferOperator, grid_size: int = DEFAULT_SPR_GRID) -> SprVerdict:
    """Numerical SPR test on a uniform frequency grid over [0, pi].

    Strict positive realness requires zeros and poles strictly inside the
    unit circle and a strictly positive real part on the whole grid. The
    default grid resolves real-part minima down to roughly 1e-7.
    """
    if grid_size < 256:
        raise ValueError("grid_size must be at least 256")
    stable = roots_inside_unit_circle(h.numerator) and roots_inside_unit_circle(h.denominator)
    omega, z_inv = _unit_circle_grid(int(grid_size))
    re = np.real(h.response_at(z_inv))
    idx = int(np.argmin(re))
    min_re = float(re[idx])
    return SprVerdict(stable, bool(stable and min_re > 0.0), min_re, float(omega[idx]))


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
    """Positive-realness test for an operator with a simple pole at z = 1.

    The unit-circle factor is deflated from the denominator symbolically;
    the remaining denominator must be strictly stable. The operator is PR
    iff the real part stays above ``-tol`` on the punctured grid
    ``omega in (pi/grid_size, pi]`` and the residue of the pole at z = 1
    is positive.
    """
    if grid_size < 256:
        raise ValueError("grid_size must be at least 256")
    a = np.asarray(h.denominator.coeffs, dtype=float)
    if abs(a.sum()) > 1e-9 * np.abs(a).sum():
        raise ValueError("denominator has no root at z = 1")
    # synthetic division by (1 - q^-1): quotient coefficients are prefix sums
    quotient = Polynomial(tuple(np.cumsum(a[:-1]))) if a.size > 1 else Polynomial((1.0,))
    if not roots_inside_unit_circle(quotient):
        raise ValueError("unit pole is not simple or remaining denominator is unstable")
    residue = float(h.numerator(1.0)) / float(quotient(1.0))
    _, z_inv = _unit_circle_grid(int(grid_size), np.pi / grid_size)
    re = np.real(h.response_at(z_inv))
    min_re = float(re.min())
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
