"""Adaptation engine tests: step sizes, predictions, updates, presets."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from daglms import (
    PRESET_ORDER,
    AdaptState,
    DagConfig,
    DivergenceError,
    StepSizePolicy,
    make_preset,
)
from daglms.adapt import DIVERGENCE_LIMIT, preset_triple, step_size
from conftest import reference_vslms


class TestStepSize:
    def test_posterior_zero_regressor(self):
        assert step_size(StepSizePolicy.plms(0.22), np.zeros(4)) == 0.22

    def test_posterior_unit_power(self):
        assert step_size(StepSizePolicy.plms(1.0), np.array([1.0])) == 0.5

    def test_normalized(self):
        mu = step_size(StepSizePolicy.nlms(0.1), np.array([1.0, 1.0, 1.0]))
        assert mu == pytest.approx(0.1 / 3.0, rel=1e-12)

    def test_constant(self):
        assert step_size(StepSizePolicy.lms(0.3), np.array([5.0, 5.0])) == 0.3

    def test_always_positive_finite(self):
        rng = np.random.default_rng(1)
        policies = [StepSizePolicy.lms(0.5), StepSizePolicy.nlms(0.5), StepSizePolicy.plms(0.5)]
        for _ in range(100):
            phi = rng.standard_normal(6) * 10.0 ** rng.integers(-8, 8)
            for pol in policies:
                mu = step_size(pol, phi)
                assert math.isfinite(mu) and mu > 0

    def test_each_rule_keeps_its_bits(self):
        # the (a, b) table gives each rule's own formula, bit for bit, on a seeded finite sample
        rng = np.random.default_rng(38)
        for _ in range(300):
            phi = rng.standard_normal(rng.integers(1, 9)) * 10.0 ** rng.integers(-100, 100)
            power = float(np.dot(phi, phi))
            for policy, want in [
                (StepSizePolicy.lms(0.3), 0.3),
                (StepSizePolicy.nlms(0.1, 1e-6), 0.1 / (1e-6 + power)),
                (StepSizePolicy.plms(0.22), 0.22 / (1.0 + 0.22 * power)),
            ]:
                assert step_size(policy, phi).hex() == want.hex(), (policy, phi)

    def test_overflow_is_taken_without_a_warning(self):
        """phi . phi that overflows gives a step of 0.0 with no NumPy warning, in step_size
        and in every public step of AdaptState, as in the run loop."""
        phi = np.array([1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert step_size(StepSizePolicy.lms(0.1), phi) == 0.1
            for policy in (StepSizePolicy.nlms(0.1), StepSizePolicy.plms(0.1)):
                assert step_size(policy, phi) == 0.0
                s = AdaptState(1, policy)
                assert s.update(phi, 1.0).e0 == 1.0 and s.update_from_error(phi, 1.0).e0 == 1.0
                assert s.theta.tolist() == [0.0]
                s.theta_hist[:] = 1e200  # an estimate . phi that overflows too
                assert s.a_priori_predict(phi).z0_hat == math.inf
                with pytest.raises(DivergenceError):  # the correction is 0 * inf: NaN
                    s.update(phi, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSizePolicy("constant", -0.1)
        with pytest.raises(ValueError):
            StepSizePolicy("bogus", 0.1)
        with pytest.raises(ValueError):
            StepSizePolicy("normalized", 0.1, delta=0.0)


class TestPresets:
    def test_arima2(self):
        cfg = make_preset("arima2")
        assert cfg.c == (0.99, 0.0) and cfg.d_prime == (0.9,)

    def test_integral(self):
        cfg = make_preset("integral")
        assert cfg.c == () and cfg.d_prime == ()

    def test_ipd(self):
        cfg = make_preset("ipd")
        assert cfg.c == (1.4, 0.5) and cfg.d_prime == ()

    def test_triples(self):
        assert preset_triple("integral") == (0.0, 0.0, 0.0)
        assert preset_triple("conj_nesterov") == (0.0, 0.0, 0.9)
        assert preset_triple("ip") == (0.99, 0.0, 0.0)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_preset("momentum")


class TestAPrioriPredict:
    def test_trivial_inner_product(self):
        s = AdaptState(2, StepSizePolicy.lms(0.1))
        s.theta_hist[:] = [1.0, 2.0]
        assert s.a_priori_predict([3.0, 4.0]).z0_hat == 11.0

    def test_recursion_fixed_point(self):
        # d = (1.9, -0.9): equal history rows give 1.9 - 0.9 = 1 times theta
        s = AdaptState(2, StepSizePolicy.lms(0.1), DagConfig((), (0.9,)))
        s.theta_hist[:] = [1.0, 0.0]
        assert s.a_priori_predict([1.0, 0.0]).z0_hat == pytest.approx(1.0, rel=1e-12)

    def test_correction_history_term(self):
        s = AdaptState(2, StepSizePolicy.lms(0.1), DagConfig((0.99,), ()))
        s.theta_hist[:] = [1.0, 0.0]
        s.corr_hist[0] = [0.1, 0.0]
        assert s.a_priori_predict([1.0, 0.0]).z0_hat == pytest.approx(1.099, rel=1e-12)

    def test_dimension_mismatch(self):
        s = AdaptState(2, StepSizePolicy.lms(0.1))
        with pytest.raises(ValueError, match="shape"):
            s.a_priori_predict([1.0, 2.0, 3.0])


class TestUpdate:
    def test_single_tap_step(self):
        s = AdaptState(1, StepSizePolicy.lms(0.5))
        pair = s.update([1.0], 1.0)
        assert pair.e0 == 1.0
        assert_allclose(s.theta, [0.5])

    def test_posterior_step(self):
        s = AdaptState(2, StepSizePolicy.plms(1.0))
        pair = s.update([1.0, 1.0], 2.0)
        assert pair.e0 == 2.0
        assert pair.e_post == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert_allclose(s.theta, [2.0 / 3.0, 2.0 / 3.0], rtol=1e-15)

    def test_history_depths(self):
        s = AdaptState(3, StepSizePolicy.lms(0.1), make_preset("arima2"))
        assert s.theta_hist.shape == (2, 3)
        assert s.corr_hist.shape == (2, 3)
        s_triv = AdaptState(3, StepSizePolicy.lms(0.1))
        assert s_triv.theta_hist.shape == (1, 3)
        assert s_triv.corr_hist.shape == (0, 3)

    def test_negative_zero_start_sums_every_weight(self):
        # -0.0 + (-0.5 * 0.0) is -0.0, and only the trailing 0.0 * 0.0 term makes it +0.0
        s = AdaptState(1, StepSizePolicy.lms(0.1), DagConfig((-0.5, 0.0)))
        s.theta_hist[:] = [-0.0]
        assert not np.signbit(s.effective_estimate()[0])

    def test_update_from_error_matches_update(self):
        rng = np.random.default_rng(8)
        a = AdaptState(4, StepSizePolicy.plms(0.01), make_preset("arima2"))
        b = AdaptState(4, StepSizePolicy.plms(0.01), make_preset("arima2"))
        for _ in range(200):
            phi = rng.standard_normal(4)
            x = rng.standard_normal()
            pair_a = a.update(phi, x)
            e0 = float(x) - b.a_priori_predict(phi).z0_hat
            pair_b = b.update_from_error(phi, e0)
            assert pair_a.e0 == pair_b.e0
            assert np.array_equal(a.theta, b.theta)

    def test_divergence_error_carries_step(self):
        s = AdaptState(1, StepSizePolicy.lms(10.0))
        with pytest.raises(DivergenceError) as err:
            for _ in range(1000):
                s.update([1.0], 1000.0)
        assert err.value.step >= 1
        assert err.value.norm > DIVERGENCE_LIMIT


POLICIES = {"lms": StepSizePolicy.lms(0.05), "nlms": StepSizePolicy.nlms(0.5), "plms": StepSizePolicy.plms(0.5)}
# zero c weights, a -0.0 one included, behind d[0] = 1 and behind d[0] = 1 + d'[0] < 1
ZERO_C_WEIGHTS = {"zero-c-tail": DagConfig((0.0, 0.5, 0.0, -0.0)), "d0-below-one": DagConfig((0.5, 0.0), (-0.5,))}


class TestDagIdentityReduction:
    # every preset against the list-based oracle; the integral preset is the
    # identity reduction the class is named for, and keeps the bare policy id
    @pytest.mark.parametrize(
        "algo, preset",
        [
            pytest.param(algo, preset, id=algo if preset == "integral" else f"{algo}-{preset}")
            for preset in (*PRESET_ORDER, *ZERO_C_WEIGHTS)
            for algo in POLICIES
        ],
    )
    def test_bit_for_bit(self, algo, preset):
        rng = np.random.default_rng(42)
        n, steps = 6, 1000
        theta_star = rng.standard_normal(n)
        phis = rng.standard_normal((steps, n))
        xs = phis @ theta_star + 0.01 * rng.standard_normal(steps)
        # the gain over the filter's DC gain, so the high-gain presets converge too
        cfg, policy = ZERO_C_WEIGHTS.get(preset) or make_preset(preset), POLICIES[algo]
        dc_gain = (1.0 + sum(cfg.c)) / (1.0 - sum(cfg.d_prime))
        policy = StepSizePolicy(policy.kind, policy.mu / dc_gain, policy.delta)
        ref = reference_vslms(policy, phis, xs, cfg)
        state = AdaptState(n, policy, cfg)
        for t in range(steps):
            state.update(phis[t], xs[t])
            # bytes, not values: np.array_equal would read -0.0 as +0.0
            assert state.theta.tobytes() == ref[t].tobytes(), f"ulp drift at step {t}"


class TestPosteriorIdentities:
    def test_error_relation_and_two_forms(self):
        rng = np.random.default_rng(13)
        n, steps, mu = 5, 5000, 0.5
        policy = StepSizePolicy.plms(mu)
        theta_star = rng.standard_normal(n)
        state = AdaptState(n, policy)
        for t in range(steps):
            phi = rng.standard_normal(n)
            x = float(phi @ theta_star) + 0.1 * rng.standard_normal()
            theta_prev = state.theta.copy()
            pair = state.update(phi, x)
            power = float(np.dot(phi, phi))
            assert abs(pair.e_post * (1.0 + mu * power) - pair.e0) < 1e-12
            posterior_form = theta_prev + (mu * pair.e_post) * phi
            variable_form = theta_prev + (mu / (1.0 + mu * power) * pair.e0) * phi
            assert np.max(np.abs(posterior_form - variable_form)) < 1e-12
            assert np.max(np.abs(state.theta - variable_form)) < 1e-12

    def test_posterior_never_larger(self):
        rng = np.random.default_rng(99)
        state = AdaptState(3, StepSizePolicy.plms(2.0))
        for _ in range(500):
            phi = rng.standard_normal(3)
            pair = state.update(phi, rng.standard_normal())
            assert abs(pair.e_post) <= abs(pair.e0)


@pytest.mark.parametrize(
    "n_params, message",
    [(0, "n_params must be at least 1"), (-2, "n_params must be at least 1"),
     (2.7, "n_params must be an integer, got 2.7"), (np.float64(3.0), "n_params must be an integer, got "),
     ("3", "n_params must be an integer, got '3'")],
    ids=["zero", "negative", "fractional", "float64", "string"],
)
def test_bad_tap_count_is_named(n_params, message):
    """A tap count that is not a positive integer is rejected, not truncated by ``int()``."""
    with pytest.raises(ValueError, match=re.escape(message)):
        AdaptState(n_params, StepSizePolicy.lms(0.1))


def test_numpy_tap_count_is_an_int():
    s = AdaptState(np.int64(3), StepSizePolicy.lms(0.1))
    assert type(s.n_params) is int and s.theta.shape == (3,)


def test_gradient_matches_regressor():
    # d e / d theta = -phi, by central finite differences
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        theta = rng.standard_normal(n)
        phi = rng.standard_normal(n)
        x = rng.standard_normal()
        h = 1e-6
        for j in range(n):
            bump = np.zeros(n)
            bump[j] = h
            e_plus = x - float((theta + bump) @ phi)
            e_minus = x - float((theta - bump) @ phi)
            grad = (e_plus - e_minus) / (2.0 * h)
            if phi[j] != 0.0:
                assert abs(grad + phi[j]) / abs(phi[j]) < 1e-6


def test_posterior_with_shaping_converges_fast():
    # posterior policy plus a PR-compatible shaping preset: error vanishes
    rng = np.random.default_rng(70)
    n = 8
    theta_star = rng.standard_normal(n)
    state = AdaptState(n, StepSizePolicy.plms(1.0), make_preset("ip"))
    reached = False
    for t in range(20000):
        phi = rng.standard_normal(n)
        pair = state.update(phi, float(phi @ theta_star))
        if abs(pair.e_post) < 1e-6:
            reached = True
            break
    assert reached
