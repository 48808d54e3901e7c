"""Adaptation engine tests: step sizes, predictions, updates, presets."""

import math

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
from daglms.adapt import preset_triple, step_size, summed_c
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
        s = AdaptState(2, StepSizePolicy.lms(0.1), theta0=[1.0, 2.0])
        assert s.a_priori_predict([3.0, 4.0]).z0_hat == 11.0

    def test_recursion_fixed_point(self):
        # d = (1.9, -0.9): equal history rows give 1.9 - 0.9 = 1 times theta
        s = AdaptState(2, StepSizePolicy.lms(0.1), DagConfig((), (0.9,)), theta0=[1.0, 0.0])
        assert s.a_priori_predict([1.0, 0.0]).z0_hat == pytest.approx(1.0, rel=1e-12)

    def test_correction_history_term(self):
        s = AdaptState(2, StepSizePolicy.lms(0.1), DagConfig((0.99,), ()), theta0=[1.0, 0.0])
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

    def test_trailing_zero_c_weights_left_out_of_the_sum(self):
        assert summed_c(make_preset("arima2")) == (0.99,)
        assert summed_c(DagConfig((0.0, 0.5, 0.0, -0.0))) == (0.0, 0.5)
        # d[0] = 1 + d'[0] < 1: a sum may be -0.0, so every weight stays
        assert summed_c(DagConfig((0.5, 0.0), (-0.5,))) == (0.5, 0.0)
        # the histories keep every slot
        s = AdaptState(3, StepSizePolicy.lms(0.1), make_preset("arima2"))
        assert s.corr_hist.shape == (2, 3)

    def test_negative_zero_start_sums_every_weight(self):
        # -0.0 + (-0.5 * 0.0) is -0.0, and only the trailing 0.0 * 0.0 term makes it +0.0
        s = AdaptState(1, StepSizePolicy.lms(0.1), DagConfig((-0.5, 0.0)), theta0=[-0.0])
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
        s = AdaptState(1, StepSizePolicy.lms(10.0), divergence_limit=100.0)
        with pytest.raises(DivergenceError) as err:
            for _ in range(1000):
                s.update([1.0], 1000.0)
        assert err.value.step >= 1
        assert err.value.norm > 100.0


POLICIES = {"lms": StepSizePolicy.lms(0.05), "nlms": StepSizePolicy.nlms(0.5), "plms": StepSizePolicy.plms(0.5)}


class TestDagIdentityReduction:
    # every preset against the list-based oracle; the integral preset is the
    # identity reduction the class is named for, and keeps the bare policy id
    @pytest.mark.parametrize(
        "algo, preset",
        [
            pytest.param(algo, preset, id=algo if preset == "integral" else f"{algo}-{preset}")
            for preset in PRESET_ORDER
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
        cfg, policy = make_preset(preset), POLICIES[algo]
        dc_gain = (1.0 + sum(cfg.c)) / (1.0 - sum(cfg.d_prime))
        policy = StepSizePolicy(policy.kind, policy.mu / dc_gain, policy.delta)
        ref = reference_vslms(policy, phis, xs, cfg)
        state = AdaptState(n, policy, cfg)
        for t in range(steps):
            state.update(phis[t], xs[t])
            assert np.array_equal(state.theta, ref[t]), f"ulp drift at step {t}"


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
