"""Design toolkit tests: coefficient transform, SPR/PR verdicts, integrals."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from daglms import (
    DagConfig,
    Polynomial,
    SingularityError,
    TransferOperator,
    arima2_spr_closed_form,
    d_from_dprime,
    dag_transfer,
    integrated_dag,
    is_pr_unit_pole,
    is_spr_numeric,
    log_gain_integral,
    make_preset,
    poly_mul,
    spr_region_grid,
)
from daglms import _kernel, spr_design
from daglms.adapt import PRESET_ORDER, preset_triple
from daglms.spr_design import (
    MAX_REGION_CELLS,
    _unit_circle_grid,
    bode_points,
    grid_axis,
    integrated_pr_closed_form,
)
from conftest import random_stable_poly


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DagConfig((0.5, np.nan)), "gain filter coefficients must be finite"),
        (lambda: DagConfig((), (np.inf,)), "gain filter coefficients must be finite"),
        (lambda: log_gain_integral(dag_transfer(make_preset("ip")), quad_points=0), "quad_points must be positive"),
        (lambda: log_gain_integral(dag_transfer(make_preset("ip")), quad_points=-4), "quad_points must be positive"),
    ],
    ids=["c-nan", "d-prime-inf", "quad-points-0", "quad-points-minus-4"],
)
def test_bad_input_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestDFromDPrime:
    def test_empty_is_integrator(self):
        assert d_from_dprime(()) == (1.0,)

    def test_first_order(self):
        # cross-oracle: (1 - q^-1)(1 - 0.9 q^-1) = 1 - 1.9 q^-1 + 0.9 q^-2
        prod = poly_mul(Polynomial((1.0, -1.0)), Polynomial((1.0, -0.9)))
        d = d_from_dprime((0.9,))
        assert d == (1.9, -0.9)
        assert_allclose((1.0, *(-v for v in d)), prod.coeffs, atol=1e-15)

    def test_half(self):
        assert d_from_dprime((0.5,)) == (1.5, -0.5)

    def test_matches_integrator_product_random(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            dp = tuple(rng.uniform(-0.9, 0.9, rng.integers(0, 4)))
            dprime_poly = Polynomial((1.0, *(-v for v in dp)))
            prod = poly_mul(Polynomial((1.0, -1.0)), dprime_poly)
            built = (1.0, *(-v for v in d_from_dprime(dp)))
            assert_allclose(built, prod.coeffs, atol=1e-14)

    def test_dagconfig_consistency(self):
        cfg = DagConfig((0.99, 0.0), (0.9,))
        assert cfg.d == d_from_dprime(cfg.d_prime)
        assert len(cfg.d) == len(cfg.d_prime) + 1


DENSE_GRID = 2**16


def coefficients_with_zeros_within(max_radius):
    """Real delay-polynomial coefficients of degree <= 6 from up to two real zeros and two conjugate pairs."""
    pair = st.tuples(st.floats(0.0, max_radius), st.floats(0.0, np.pi))

    def coefficients(zeros):
        real, pairs = zeros
        roots = [*real, *(r * np.exp(s * 1j * a) for r, a in pairs for s in (1, -1))]
        return np.real(np.poly(roots)) if roots else np.ones(1)

    return st.tuples(st.lists(st.floats(-max_radius, max_radius), max_size=2), st.lists(pair, max_size=2)).map(
        coefficients
    )


def assert_exact_minimum(h):
    """The exact minimum is a value of the response, and a dense grid brackets it.

    The grid minimum lies above the true one by at most h^2 / 8 times the
    largest curvature (taken from second differences, with a factor 2 to
    spare); the exact minimum is never above the grid's. Both sides carry the
    rounding of evaluating N/D, bounded from Horner's rule on the circle:
    2 deg eps sum|coefficients| for N and D, divided by |D|.
    """
    omega = np.linspace(0.0, np.pi, DENSE_GRID)
    z_inv = np.exp(-1j * omega)
    response = h.response_at(z_inv)
    re = np.real(response)
    num, den = np.abs(h.numerator.coeffs), np.abs(h.denominator.coeffs)
    horner = 2.0 * np.finfo(float).eps * np.array([num.size * num.sum(), den.size * den.sum()])
    rounding = 4.0 * np.max((horner[0] + np.abs(response) * horner[1]) / np.abs(h.denominator(z_inv)))
    spacing_bound = 2.0 * np.abs(np.diff(re, 2)).max() / 8.0  # h^2 / 8 * max |f''|, f'' ~ diff2 / h^2
    v = is_spr_numeric(h)
    assert v.min_real_part <= re.min() + rounding
    assert v.min_real_part >= re.min() - spacing_bound - rounding
    assert 0.0 <= v.argmin_omega <= np.pi
    assert np.real(h.freq_response(v.argmin_omega)) == pytest.approx(v.min_real_part, abs=rounding)


def assert_value_at_argmin(h):
    """``min_real_part`` is the real part of the response at ``argmin_omega``, to the rounding of N/D there.

    The bound is that of :func:`assert_exact_minimum` at the one point: the
    argmin is a stationary point or an end of [0, pi], so the rounding of
    ``argmin_omega`` itself moves the real part only quadratically.
    """
    v = is_spr_numeric(h)
    z_inv = np.exp(-1j * v.argmin_omega)
    num, den = np.abs(h.numerator.coeffs), np.abs(h.denominator.coeffs)
    horner = 2.0 * np.finfo(float).eps * np.array([num.size * num.sum(), den.size * den.sum()])
    rounding = 4.0 * (horner[0] + abs(h.response_at(z_inv)) * horner[1]) / abs(h.denominator(z_inv))
    assert np.real(h.freq_response(v.argmin_omega)) == pytest.approx(v.min_real_part, abs=rounding)


class TestIsSprNumeric:
    def test_identity(self):
        v = is_spr_numeric(TransferOperator.identity())
        assert v.is_spr and v.is_stable
        assert v.min_real_part == pytest.approx(1.0)
        assert v.argmin_omega == 0.0  # every candidate ties; the first, x = 1, wins as in np.argmin

    def test_arima2_preset(self):
        v = is_spr_numeric(dag_transfer(make_preset("arima2")))
        assert v.is_spr

    def test_fir_minimum_location(self):
        # Re = c^2 + 1.4 c + 0.5 at c = cos(omega), minimized at c = -0.7
        v = is_spr_numeric(TransferOperator((1.0, 1.4, 0.5)))
        assert v.is_spr
        assert v.min_real_part == pytest.approx(0.01, abs=1e-6)
        assert v.argmin_omega == pytest.approx(np.arccos(-0.7), abs=np.pi / 4096)

    def test_unstable_not_spr(self):
        v = is_spr_numeric(TransferOperator((1.0, 1.5)))
        assert not v.is_stable and not v.is_spr

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            is_spr_numeric(TransferOperator.identity(), grid_size=64)

    def test_narrow_dip_between_grid_points(self):
        """Re H = K (cos w - x0)^2 - K delta^2 dips to -1e-6 halfway between two points of an 8192-point grid.

        Sampled on that grid, the minimum read +3.66e-4 and the filter SPR.
        """
        k, delta = 1e4, 1e-5
        omega = np.linspace(0.0, np.pi, 8192)
        w0 = 0.5 * (omega[4000] + omega[4001])
        x0 = np.cos(w0)
        h = TransferOperator((k / 2 + k * x0 * x0 - k * delta * delta, -2.0 * k * x0, k / 2))
        assert np.real(h.response_at(np.exp(-1j * omega))).min() > 3e-4
        v = is_spr_numeric(h)
        assert v.is_stable and not v.is_spr
        assert v.min_real_part == pytest.approx(-1e-6, abs=1e-9)
        assert v.argmin_omega == pytest.approx(w0, abs=1e-6)

    @pytest.mark.parametrize("den", [(1.0, -1.0), (1.0, 1.0)])
    def test_pole_on_the_circle_at_a_candidate(self, den):
        # omega = 0 and pi are candidates of every filter, and D vanishes there
        with pytest.raises(SingularityError):
            is_spr_numeric(TransferOperator((1.0,), den))

    @given(
        num=coefficients_with_zeros_within(1.3),
        den=coefficients_with_zeros_within(0.9),
        gain=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
    )
    # clustered poles near z = 1, where the roots of p' q - p q' need their Newton steps:
    # without them these read 1.9e-7 and 9.3e-5 above the grid's minimum
    @example(num=np.poly([0.8984375]), den=np.poly([0.890625] * 4), gain=0.109375)
    @example(num=np.poly([1.0, 1.0, 0.75, 0.75]), den=np.poly([0.5, 0.75, 0.75, 0.875, 0.875]), gain=3.0)
    # N = gain D: a constant response, read through rounding on the grid
    @example(num=np.poly([0.875] * 4), den=np.poly([0.875] * 4), gain=0.109375)
    @settings(max_examples=60, deadline=None)
    def test_rational_filters_against_a_dense_grid(self, num, den, gain):
        assert_exact_minimum(TransferOperator(gain * num, den))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degree_20_fir_against_a_dense_grid(self, seed):
        taps = np.random.default_rng(seed).standard_normal(21)
        taps[0] = 1.0 + abs(taps[0])
        assert_exact_minimum(TransferOperator(taps))

    @given(
        c1=st.floats(-3.0, 3.0),
        c2=st.floats(-2.0, 2.0),
        d1p=st.floats(-0.999, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_cells_read_the_response_at_their_argmin(self, c1, c2, d1p):
        assert_value_at_argmin(dag_transfer(DagConfig((c1, c2), (d1p,))))

    def test_filters_read_the_response_at_their_argmin(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            num = rng.standard_normal(rng.integers(1, 8)) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert_value_at_argmin(TransferOperator(num, random_stable_poly(rng, 6, 0.98)))

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_nan_candidate_is_not_spr(self, monkeypatch, at):
        """A NaN value at any candidate is the minimum, as np.argmin reads it, so no verdict passes on it.
        The candidates are replaced in the Python twin, so the kernel's entry is kept out of reach."""
        points = [1.0, -1.0]
        points.insert(at, float("nan"))
        monkeypatch.setattr(spr_design, "_critical_points", lambda p, q: list(points))
        monkeypatch.setattr(_kernel, "load", lambda: None)
        v = is_spr_numeric(TransferOperator.identity())
        assert v.is_stable and not v.is_spr and np.isnan(v.min_real_part)
        pr = is_pr_unit_pole(integrated_dag(make_preset("integral")))
        assert not pr.is_pr and np.isnan(pr.min_real_part_excluding_pole)

    def test_response_beyond_the_float_range_keeps_a_finite_minimum(self):
        """1 + 1e308 (cos w + cos 2w) exceeds the doubles near w = 0 but is lowest, -1.125e308, at cos w = -1/4."""
        v = is_spr_numeric(TransferOperator((1.0, 1e308, 1e308)))
        assert not v.is_stable and not v.is_spr
        assert v.min_real_part == pytest.approx(-1.125e308, rel=1e-15)
        assert v.argmin_omega == pytest.approx(np.arccos(-0.25), rel=1e-12)

    def test_spr_implies_stability_and_positive_min(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            h = TransferOperator(random_stable_poly(rng), random_stable_poly(rng, 1))
            v = is_spr_numeric(h, 2048)
            if v.is_spr:
                assert v.is_stable and v.min_real_part > 0


class TestLogGainIntegral:
    def test_identity_exact_zero(self):
        assert log_gain_integral(TransferOperator.identity()) == 0.0

    def test_arima2(self):
        h = dag_transfer(make_preset("arima2"))
        assert abs(log_gain_integral(h)) < 1e-3

    def test_unstable_bypass_matches_closed_form(self):
        # area theorem: integral of log|1 + 1.5 e^{-iw}| over (0, pi) is pi*ln(1.5)
        h = TransferOperator((1.0, 1.5))
        value = log_gain_integral(h, check_stability=False)
        assert value == pytest.approx(np.pi * np.log(1.5), abs=1e-9)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError, match="numerator"):
            log_gain_integral(TransferOperator((1.0, 1.5)))
        with pytest.raises(ValueError, match="numerator"):  # a zero at -1e318, beyond the float range
            log_gain_integral(TransferOperator((1e-10, 1e308)))
        with pytest.raises(ValueError, match="denominator"):
            log_gain_integral(TransferOperator((1.0,), (1.0, -1.0)))

    def test_random_stable_configs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            h = TransferOperator(
                random_stable_poly(rng, 2, 0.95), random_stable_poly(rng, 2, 0.95)
            )
            assert abs(log_gain_integral(h, 4096)) < 1e-3


class TestClosedForm:
    def test_table_row_arima2(self):
        assert arima2_spr_closed_form(0.99, 0.0, 0.9) is True

    def test_table_row_ipd(self):
        assert arima2_spr_closed_form(1.4, 0.5, 0.0) is True

    def test_band_violation(self):
        assert arima2_spr_closed_form(1.5, 0.0, 0.0) is False

    def test_unstable_pole(self):
        assert arima2_spr_closed_form(0.5, 0.0, 1.2) is False

    def test_agrees_with_numeric_sweep(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 1000:
            c1 = rng.uniform(-2.2, 2.2)
            c2 = rng.uniform(-1.2, 1.2)
            d1p = rng.uniform(-0.98, 0.98)
            num = Polynomial((1.0, c1, c2))
            if not (abs(d1p) < 1.0):
                continue
            from daglms import roots_inside_unit_circle

            if not roots_inside_unit_circle(num):
                continue
            checked += 1
            closed = arima2_spr_closed_form(c1, c2, d1p)
            verdict = is_spr_numeric(
                TransferOperator(num, Polynomial((1.0, -d1p))), 8192
            )
            if closed != verdict.is_spr:
                assert abs(verdict.min_real_part) < 1e-6, (c1, c2, d1p)


    def test_band_edge_cells_are_stable_where_spr(self):
        """Cells at c1 = +-nextafter(1 + c2), a step to either side of the numerator's band edge.

        Where the closed form says SPR and the real-part minimum is positive,
        the stability half must not read a numerator zero on or outside the circle.
        """
        rng = np.random.default_rng(23)
        spr_cells = 0
        for _ in range(1000):
            c2 = rng.uniform(-1.0, 1.0)
            c1 = float(rng.choice([-1.0, 1.0]) * np.nextafter(1.0 + c2, rng.choice([0.0, 3.0])))
            d1p = float(rng.choice([0.0, 0.5, -0.5, 0.9]))
            v = is_spr_numeric(TransferOperator((1.0, c1, c2), (1.0, -d1p)))
            if arima2_spr_closed_form(c1, c2, d1p) and v.min_real_part > 0.0:
                assert v.is_stable and v.is_spr, (c1, c2, d1p)
                spr_cells += 1
        assert spr_cells > 100

    @pytest.mark.parametrize("d1p", [0.0, 0.5, 0.9])
    def test_array_form_matches_scalar_form(self, d1p):
        # the default contour grid, cell by cell
        c1_values, c2_values = grid_axis(-2.0, 2.0, 0.05), grid_axis(-1.0, 1.0, 0.05)
        flags = arima2_spr_closed_form(c1_values[:, None], c2_values[None, :], d1p)
        assert flags.shape == (c1_values.size, c2_values.size) and flags.dtype == bool
        for i, c1 in enumerate(c1_values.tolist()):
            for j, c2 in enumerate(c2_values.tolist()):
                assert arima2_spr_closed_form(c1, c2, d1p) is bool(flags[i, j]), (c1, c2)

    @pytest.mark.parametrize("d1p", [0.0, 0.5, 0.9])
    def test_cell_next_to_the_band_edge_is_spr(self, d1p):
        """The grid point (-0.9, -0.1) lies just inside the band, in exact arithmetic.

        Its doubles give 1 + c1 + c2 = +1.1e-16. A companion-matrix root test
        put a numerator zero on or outside the circle there; the exact
        conditions below say the zeros are inside and the real part is positive.
        """
        c1, c2 = -0.8999999999999999, -0.09999999999999998
        assert arima2_spr_closed_form(c1, c2, d1p) is True
        a, b = Fraction(c1), Fraction(c2)
        # Jury conditions for z^2 + c1 z + c2: both zeros strictly inside the circle
        assert abs(b) < 1 and 1 + a + b > 0 and 1 - a + b > 0
        p = Fraction(d1p)
        quad, lin, const = 2 * b, a - p * (1 + b), 1 - a * p - b  # the real part in x = cos(omega)
        vertex = -lin / (2 * quad)
        for x in (Fraction(-1), Fraction(1), vertex):
            assert quad * x * x + lin * x + const > 0, x

    @pytest.mark.parametrize("d1p", [0.0, 0.5, 0.9, -0.7])
    def test_c2_at_least_one_is_not_spr(self, d1p):
        # a numerator zero on or outside the circle, where s is not real
        c1 = np.linspace(-3.0, 3.0, 61)
        for c2 in (1.0, 1.0 + 1e-12, 1.5, 4.0):
            assert not arima2_spr_closed_form(c1, c2, d1p).any()
            assert arima2_spr_closed_form(d1p - 3.0 * d1p * c2, c2, d1p) is False

    @pytest.mark.parametrize(
        "c1, c2",
        [
            (np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.5),
            (np.array([0.0, np.nan]), 0.0), (0.0, np.array([0.2, -np.inf])),
        ],
    )
    def test_non_finite_coefficients_rejected(self, c1, c2):
        for d1p in (0.5, 1.2):
            with pytest.raises(ValueError, match="finite"):
                arima2_spr_closed_form(c1, c2, d1p)


class TestUnitCircleGrid:
    def test_cached_arrays_are_read_only(self):
        omega, z_inv = _unit_circle_grid(512)
        assert omega[0] == 0.0 and omega[-1] == np.pi
        for array in (omega, z_inv):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_bode_omega_is_a_copy(self):
        h = dag_transfer(make_preset("arima2"))
        _, omega, _, _ = bode_points(h, 512, 2500.0)
        expected = omega.copy()
        omega[:] = -1.0
        _, again, _, _ = bode_points(h, 512, 2500.0)
        assert np.array_equal(again, expected)


class TestRegionGrid:
    def test_single_trivial_cell(self):
        c1, c2, flags = spr_region_grid(0.0, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
        assert flags.shape == (1, 1) and flags[0, 0]

    def test_table_cell(self):
        _, _, flags = spr_region_grid(0.9, (0.99, 0.99, 1.0), (0.0, 0.0, 1.0))
        assert flags[0, 0]

    def test_cell_limit(self):
        # 1000 x 1000 cells is the limit; one more c2 value is rejected before allocation
        assert MAX_REGION_CELLS == 10**6
        assert spr_region_grid(0.5, (0.0, 999.0, 1.0), (0.0, 999.0, 1.0))[2].shape == (1000, 1000)
        with pytest.raises(ValueError, match=r"c1 axis \(1000 values\) x c2 axis \(1001 values\)"):
            spr_region_grid(0.5, (0.0, 999.0, 1.0), (0.0, 1000.0, 1.0))

    def test_boundary_within_one_step_of_numeric(self):
        # disagreements with the numeric verdict only at cells adjacent to
        # a closed-form boundary (one grid step)
        d1p = 0.5
        c1_vals, c2_vals, flags = spr_region_grid(d1p, (-2.0, 2.0, 0.1), (-0.9, 0.9, 0.1))
        for i, c1 in enumerate(c1_vals):
            for j, c2 in enumerate(c2_vals):
                numeric = is_spr_numeric(
                    TransferOperator(Polynomial((1.0, c1, c2)), Polynomial((1.0, -d1p))),
                    2048,
                ).is_spr
                if numeric == flags[i, j]:
                    continue
                neighbors = [
                    flags[a, b]
                    for a, b in (
                        (i - 1, j),
                        (i + 1, j),
                        (i, j - 1),
                        (i, j + 1),
                    )
                    if 0 <= a < flags.shape[0] and 0 <= b < flags.shape[1]
                ]
                assert any(n != flags[i, j] for n in neighbors), (c1, c2)


class TestIntegratedDag:
    def test_trivial_integrator(self):
        h = integrated_dag(DagConfig())
        assert h.numerator.coeffs == (1.0,)
        assert h.denominator.coeffs == (1.0, -1.0)

    def test_arima2_product(self):
        h = integrated_dag(DagConfig((0.99,), (0.9,)))
        assert h.numerator.coeffs == (1.0, 0.99)
        assert_allclose(h.denominator.coeffs, (1.0, -1.9, 0.9), atol=1e-15)

    def test_ipd_structure(self):
        h = integrated_dag(DagConfig((1.4, 0.5), ()))
        assert h.numerator.coeffs == (1.0, 1.4, 0.5)
        assert h.denominator.coeffs == (1.0, -1.0)

    def test_denominator_vanishes_at_unit(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            dp = tuple(rng.uniform(-0.9, 0.9, rng.integers(0, 4)))
            h = integrated_dag(DagConfig((), dp))
            assert abs(float(h.denominator(1.0))) < 1e-12


class TestIsPrUnitPole:
    def test_integrator(self):
        v = is_pr_unit_pole(integrated_dag(make_preset("integral")))
        assert v.is_pr and v.unit_pole_residue_positive
        assert v.min_real_part_excluding_pole == pytest.approx(0.5)

    def test_ip(self):
        v = is_pr_unit_pole(integrated_dag(make_preset("ip")))
        assert v.is_pr
        # Re = 0.01 (1 - cos w) / (2 (1 - cos w)) = 0.005 at every frequency
        assert v.min_real_part_excluding_pole == pytest.approx(0.005, abs=1e-8)

    def test_arima2_not_pr(self):
        v = is_pr_unit_pole(integrated_dag(make_preset("arima2")))
        assert not v.is_pr
        assert v.min_real_part_excluding_pole < 0

    def test_no_unit_pole_rejected(self):
        with pytest.raises(ValueError, match="no root at z = 1"):
            is_pr_unit_pole(TransferOperator((1.0,), (1.0, -0.5)))

    def test_double_unit_pole_rejected(self):
        with pytest.raises(ValueError, match="not simple"):
            is_pr_unit_pole(TransferOperator((1.0,), (1.0, -2.0, 1.0)))

    def test_grid_floor(self):
        # the floor of is_spr_numeric, still checked though no grid is sampled
        with pytest.raises(ValueError, match="grid_size must be at least 256"):
            is_pr_unit_pole(integrated_dag(make_preset("integral")), grid_size=10)

    def test_exact_limits(self):
        # the infimum of integral is 1/2 everywhere; ipd's is its omega -> 0 limit, at x = 1
        assert is_pr_unit_pole(integrated_dag(make_preset("integral"))).min_real_part_excluding_pole == 0.5
        v = is_pr_unit_pole(integrated_dag(make_preset("ipd")))
        assert v.min_real_part_excluding_pole == pytest.approx(-0.95, abs=1e-12)
        assert integrated_pr_closed_form(*preset_triple("ipd")) is False

    def test_lossless_cell_is_pr(self):
        """(0.5, -0.5) at d1p 0.5 leaves ``(1 + q^-1)/(1 - q^-1)``, with a real part of 0 on the circle.

        The sampled test read a minimum of -3.1e-9 there and rejected it.
        """
        v = is_pr_unit_pole(integrated_dag(DagConfig((0.5, -0.5), (0.5,))))
        assert v.is_pr and v.unit_pole_residue_positive
        assert abs(v.min_real_part_excluding_pole) < 1e-15
        assert integrated_pr_closed_form(0.5, -0.5, 0.5) is True

    def test_unstable_remainder_rejected(self):
        den = poly_mul(Polynomial((1.0, -1.0)), Polynomial((1.0, -1.5)))
        with pytest.raises(ValueError, match="unstable|not simple"):
            is_pr_unit_pole(TransferOperator((1.0,), den))

    @pytest.mark.parametrize("engine", ["host", "python"])
    def test_high_order_minimum_matches_a_dense_grid(self, monkeypatch, engine):
        """Numerators of 4 to 6 coefficients, whose sine series runs ``_u_to_t``'s recurrence in
        the Python twin: the minimum is never above a 200 001-point grid over [1e-3, pi], and
        equals the grid's where that lies inside it. The grid stops short of omega -> 0, where
        1/(1 - e^{-j omega}) cancels and a grid loses about 1e-8 relative."""
        series = []
        if engine == "python":
            monkeypatch.setattr(_kernel, "load", lambda: None)
            u_to_t = spr_design._u_to_t
            monkeypatch.setattr(spr_design, "_u_to_t", lambda b: series.append(len(b)) or u_to_t(b))
        z_inv = np.exp(-1j * np.linspace(1e-3, np.pi, 200_001))
        rng = np.random.default_rng(28)
        inside = 0
        for _ in range(12):
            c = tuple(rng.uniform(-0.6, 0.6, rng.integers(3, 6)))
            dp = tuple(rng.uniform(-0.5, 0.5, rng.integers(0, 3)))
            h = integrated_dag(DagConfig(c, dp))
            min_re = is_pr_unit_pole(h).min_real_part_excluding_pole
            grid = np.real(h.response_at(z_inv))
            k = int(np.argmin(grid))
            assert grid[k] >= min_re - 1e-12 * max(1.0, abs(min_re)), (c, dp)
            if 0 < k < grid.size - 1:
                inside += 1
                assert grid[k] == pytest.approx(min_re, rel=1e-8, abs=1e-10), (c, dp)
        assert inside >= 6
        assert engine == "host" or max(series) >= 3


class TestIntegratedPrClosedForm:
    def test_agrees_with_numeric_test(self):
        # criterion 3's rule: disagreement only where the minimum is within 1e-6 of 0
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            c1, c2, d1p = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-0.99, 0.99)
            numeric = is_pr_unit_pole(integrated_dag(DagConfig((c1, c2), (d1p,))))
            if integrated_pr_closed_form(c1, c2, d1p) != numeric.is_pr:
                assert abs(numeric.min_real_part_excluding_pole) < 1e-6, (c1, c2, d1p)

    @pytest.mark.parametrize("d1p", [1.0 - 1e-8, 1.0 - 2.0**-52, -1.0 + 1e-10, -1.0 + 2.0**-52])
    def test_agrees_with_a_pole_next_to_the_circle(self, d1p):
        """|A|^2 = (1 - d1p)^2 at omega = 0 (or (1 + d1p)^2 at pi) cancels in its Chebyshev series.

        The real part and |A|^2 are taken from A on the circle, so the verdicts
        still follow the closed form, with real parts as large as 1e31.
        """
        rng = np.random.default_rng(7)
        for _ in range(300):
            c1, c2 = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
            numeric = is_pr_unit_pole(integrated_dag(DagConfig((c1, c2), (d1p,))))
            assert numeric.is_pr is integrated_pr_closed_form(c1, c2, d1p), (c1, c2)

    @pytest.mark.parametrize("d1p", [0.0, 0.5, 0.9])
    def test_array_form_matches_scalar_form(self, d1p):
        # the default contour grid, cell by cell
        c1_values, c2_values = grid_axis(-2.0, 2.0, 0.05), grid_axis(-1.0, 1.0, 0.05)
        flags = integrated_pr_closed_form(c1_values[:, None], c2_values[None, :], d1p)
        assert flags.shape == (c1_values.size, c2_values.size) and flags.dtype == bool
        for i, c1 in enumerate(c1_values.tolist()):
            for j, c2 in enumerate(c2_values.tolist()):
                assert integrated_pr_closed_form(c1, c2, d1p) is bool(flags[i, j]), (c1, c2)

    def test_presets_give_the_verdict_table(self):
        # criterion 1's integrated_pr column
        expected = {"integral": True, "conj_nesterov": False, "ipd": False, "ip": True, "arima2": False}
        for name in PRESET_ORDER:
            assert integrated_pr_closed_form(*preset_triple(name)) is expected[name], name

    def test_lossless_cell_is_pr(self):
        """(0.5, -0.5) at d1p 0.5: the numerator cancels the pole, leaving ``(1 + q^-1)/(1 - q^-1)``.

        On the circle that is ``-j cot(omega/2)``, with a real part of 0 at
        every omega != 0 and a residue of 2 at z = 1: lossless, hence PR.
        """
        c1, c2, d1p = 0.5, -0.5, 0.5
        assert integrated_pr_closed_form(c1, c2, d1p) is True
        a, b, p = Fraction(c1), Fraction(c2), Fraction(d1p)
        assert (a, b) == (1 - p, -p)  # 1 + c1 q^-1 + c2 q^-2 = (1 + q^-1)(1 - d1p q^-1)
        at_zero = (1 - a - 3 * b - p * (a - b + 3)) / (2 * (1 - p) ** 2)
        at_pi = (1 - a + b) / (2 * (1 + p))
        assert at_zero == 0 and at_pi == 0
        assert (1 + a + b) / (1 - p) == 2

    @pytest.mark.parametrize(
        "c1, c2",
        [
            (np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.5),
            (np.array([0.0, np.nan]), 0.0), (0.0, np.array([0.2, -np.inf])),
        ],
    )
    def test_non_finite_coefficients_rejected(self, c1, c2):
        for d1p in (0.5, 1.2):
            with pytest.raises(ValueError, match="finite"):
                integrated_pr_closed_form(c1, c2, d1p)

    @pytest.mark.parametrize("d1p", [1.0, -1.0, 1.2, -3.0])
    def test_pole_on_or_outside_the_circle_is_not_pr(self, d1p):
        assert integrated_pr_closed_form(0.0, 0.0, d1p) is False
        c1, c2 = np.meshgrid(np.linspace(-3.0, 3.0, 31), np.linspace(-2.0, 2.0, 21))
        assert not integrated_pr_closed_form(c1, c2, d1p).any()


def test_table_verdict_pairs():
    expected = {
        "integral": (True, True),
        "conj_nesterov": (False, True),
        "ipd": (False, True),
        "ip": (True, True),
        "arima2": (False, True),
    }
    for name in PRESET_ORDER:
        cfg = make_preset(name)
        pr = is_pr_unit_pole(integrated_dag(cfg)).is_pr
        spr = is_spr_numeric(dag_transfer(cfg)).is_spr
        assert (pr, spr) == expected[name], name


def test_spr_implies_phase_within_90deg():
    rng = np.random.default_rng(77)
    omega = np.linspace(0.0, np.pi, 8192)
    z_inv = np.exp(-1j * omega)
    candidates = [dag_transfer(make_preset(name)) for name in PRESET_ORDER]
    for _ in range(60):
        candidates.append(
            TransferOperator(random_stable_poly(rng), random_stable_poly(rng, 1))
        )
    spr_seen = 0
    for h in candidates:
        if is_spr_numeric(h).is_spr:
            spr_seen += 1
            phase = np.angle(h.response_at(z_inv))
            assert np.all(np.abs(phase) < np.pi / 2)
    assert spr_seen >= 5
