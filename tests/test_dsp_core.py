"""Core primitive tests: polynomials, transfer operators, noise, variance."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from numpy.testing import assert_allclose

import daglms
from daglms import (
    NoiseSpec,
    Polynomial,
    SingularityError,
    TransferOperator,
    gen_noise,
    poly_mul,
    roots_inside_unit_circle,
    windowed_variance,
)
from conftest import random_stable_poly, random_roots


def naive_convolve(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


class TestPolyMul:
    def test_identity_left(self):
        p = poly_mul(Polynomial((1.0,)), Polynomial((1.0, -0.9)))
        assert p.coeffs == (1.0, -0.9)

    def test_identity_right(self):
        p = poly_mul(Polynomial((1.0, 1.4, 0.5)), Polynomial((1.0,)))
        assert p.coeffs == (1.0, 1.4, 0.5)

    def test_hand_convolution(self):
        p = poly_mul(Polynomial((1.0, -1.0)), Polynomial((1.0, -0.9)))
        assert p.coeffs == naive_convolve((1.0, -1.0), (1.0, -0.9))
        assert p.coeffs == (1.0, -1.9, 0.9)

    def test_commutative_associative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = Polynomial(tuple(rng.standard_normal(rng.integers(1, 5))))
            b = Polynomial(tuple(rng.standard_normal(rng.integers(1, 5))))
            c = Polynomial(tuple(rng.standard_normal(rng.integers(1, 5))))
            assert_allclose(poly_mul(a, b).coeffs, poly_mul(b, a).coeffs, atol=1e-12)
            assert_allclose(
                poly_mul(poly_mul(a, b), c).coeffs,
                poly_mul(a, poly_mul(b, c)).coeffs,
                atol=1e-12,
            )

    def test_degree_adds(self):
        a = Polynomial((1.0, 2.0, 3.0))
        b = Polynomial((1.0, -1.0))
        assert poly_mul(a, b).degree == a.degree + b.degree

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(())


def quadratic_roots(c0, c1, c2):
    disc = complex(c1 * c1 - 4.0 * c0 * c2)
    s = disc ** 0.5
    return (-c1 + s) / (2.0 * c0), (-c1 - s) / (2.0 * c0)


class TestRootsInsideUnitCircle:
    def test_linear_inside(self):
        # z = -0.99 by the linear root formula
        assert roots_inside_unit_circle(Polynomial((1.0, 0.99))) is True

    def test_on_circle_fails(self):
        assert roots_inside_unit_circle(Polynomial((1.0, -1.0))) is False

    def test_complex_pair_inside(self):
        r1, r2 = quadratic_roots(1.0, 1.4, 0.5)
        assert abs(r1) < 1 and abs(r2) < 1
        assert roots_inside_unit_circle(Polynomial((1.0, 1.4, 0.5))) is True

    def test_degree_zero(self):
        assert roots_inside_unit_circle(Polynomial((3.0,))) is True
        assert roots_inside_unit_circle(Polynomial((1.0, 0.0, 0.0))) is True

    def test_outside(self):
        assert roots_inside_unit_circle(Polynomial((1.0, 1.5))) is False

    def test_product_property(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            radius_a = 0.9 if rng.random() < 0.5 else 1.4
            radius_b = 0.9 if rng.random() < 0.5 else 1.4
            a = Polynomial(tuple(np.real(np.poly(random_roots(rng, 2, radius_a)))))
            b = Polynomial(tuple(np.real(np.poly(random_roots(rng, 1, radius_b)))))
            assert roots_inside_unit_circle(poly_mul(a, b)) == (
                roots_inside_unit_circle(a) and roots_inside_unit_circle(b)
            )


class TestFreqResponse:
    def test_identity(self):
        h = TransferOperator.identity()
        for om in (0.0, 1.0, np.pi):
            assert h.freq_response(om) == pytest.approx(1.0 + 0j)

    def test_dc(self):
        h = TransferOperator((1.0, 0.99), (1.0, -0.9))
        assert h.freq_response(0.0) == pytest.approx(19.9, rel=1e-12)

    def test_nyquist(self):
        h = TransferOperator((1.0, 0.99), (1.0, -0.9))
        assert h.freq_response(np.pi) == pytest.approx(0.01 / 1.9, abs=1e-12)

    def test_singularity(self):
        h = TransferOperator((1.0,), (1.0, -1.0))
        with pytest.raises(SingularityError):
            h.freq_response(0.0)

    def test_monic_denominator_required(self):
        with pytest.raises(ValueError):
            TransferOperator((1.0,), (2.0, 1.0))
        h = TransferOperator.normalized((2.0,), (2.0, 1.0))
        assert h.denominator.coeffs == (1.0, 0.5)


class TestFilterStep:
    def test_identity(self):
        h = TransferOperator.identity()
        assert h.filter_step(5.0) == 5.0

    def test_first_order_recursion(self):
        # y(t) = u(t) + 0.5 y(t-1) by hand
        h = TransferOperator((1.0,), (1.0, -0.5))
        assert [h.filter_step(u) for u in (1.0, 0.0, 0.0)] == [1.0, 0.5, 0.25]

    def test_fir(self):
        h = TransferOperator((1.0, 1.0))
        assert [h.filter_step(u) for u in (1.0, 1.0)] == [1.0, 2.0]

    def test_signal_matches_steps(self):
        rng = np.random.default_rng(3)
        h1 = TransferOperator((0.5, 0.2, -0.1), (1.0, -1.1, 0.3))
        h2 = h1.fresh()
        x = rng.standard_normal(200)
        stepped = np.array([h1.filter_step(float(u)) for u in x])
        batch = h2.filter_signal(x)
        assert np.array_equal(stepped, batch)

    def test_signal_state_continues(self):
        h1 = TransferOperator((1.0,), (1.0, -0.5))
        h2 = h1.fresh()
        x = np.ones(10)
        a = np.concatenate([h1.filter_signal(x[:4]), h1.filter_signal(x[4:])])
        b = h2.filter_signal(x)
        assert np.array_equal(a, b)

    def test_fresh_and_reset(self):
        h = TransferOperator((1.0,), (1.0, -0.5))
        h.filter_step(1.0)
        g = h.fresh()
        assert g.filter_step(1.0) == 1.0
        h.reset()
        assert h.filter_step(1.0) == 1.0


def test_white_noise_leaves_scipy_signal_unloaded():
    """Only band-pass shaping needs ``scipy.signal``."""
    src = str(Path(daglms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (
        "import sys; from daglms import NoiseSpec, gen_noise; gen_noise(NoiseSpec(), 10); "
        "assert 'scipy.signal' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_impulse_response_matches_freq_response():
    # time/frequency consistency through the discrete Fourier transform
    rng = np.random.default_rng(17)
    npoints = 1 << 10
    for _ in range(20):
        num = random_stable_poly(rng, max_degree=3, max_radius=0.9)
        den = random_stable_poly(rng, max_degree=3, max_radius=0.9)
        h = TransferOperator(num, den)
        imp = h.impulse_response(npoints)
        spectrum = np.fft.fft(imp)
        omega = 2.0 * np.pi * np.arange(npoints // 2 + 1) / npoints
        assert_allclose(spectrum[: npoints // 2 + 1], h.freq_response(omega), atol=1e-9)


class TestGenNoise:
    def test_white_deterministic(self):
        spec = NoiseSpec(kind="white", seed=42)
        assert np.array_equal(gen_noise(spec, 10), gen_noise(spec, 10))

    def test_bandpass_deterministic_and_prefix_consistent(self):
        spec = NoiseSpec(kind="bandpass", seed=42)
        a = gen_noise(spec, 500)
        b = gen_noise(spec, 1000)
        assert np.array_equal(a, b[:500])

    def test_seed_changes_sequence(self):
        a = gen_noise(NoiseSpec(kind="white", seed=1), 64)
        b = gen_noise(NoiseSpec(kind="white", seed=2), 64)
        assert not np.array_equal(a, b)

    def test_bandpass_inband_power(self):
        spec = NoiseSpec(kind="bandpass", sample_rate_hz=2500.0, band_low_hz=70.0,
                         band_high_hz=170.0, seed=7)
        x = gen_noise(spec, 1 << 16)
        freq, power = scipy.signal.periodogram(x, fs=spec.sample_rate_hz)
        in_band = power[(freq >= 70.0) & (freq <= 170.0)].sum() / power.sum()
        assert in_band >= 0.95

    def test_rms_near_target(self):
        for kind in ("white", "bandpass"):
            spec = NoiseSpec(kind=kind, seed=5, amplitude=1.0)
            x = gen_noise(spec, 1 << 16)
            rms = float(np.sqrt(np.mean(x * x)))
            assert abs(rms - 1.0) < 0.05

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="bandpass", band_low_hz=170.0, band_high_hz=70.0)
        with pytest.raises(ValueError):
            NoiseSpec(kind="bandpass", band_low_hz=70.0, band_high_hz=1400.0)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            gen_noise(NoiseSpec(kind="white", seed=0), 0)


class TestWindowedVariance:
    def test_constant_signal(self):
        assert_allclose(windowed_variance(np.full(12, 3.0), 4), np.zeros(3))

    def test_alternating(self):
        assert_allclose(windowed_variance([1.0, -1.0, 1.0, -1.0], 4), [1.0])

    def test_zeros(self):
        assert_allclose(windowed_variance([0.0, 0.0, 0.0, 0.0], 2), [0.0, 0.0])

    def test_block_drops_tail(self):
        out = windowed_variance(np.arange(10.0), 4)
        assert out.size == 2

    def test_sliding_matches_direct(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(50)
        out = windowed_variance(x, 8, mode="sliding")
        direct = np.array([x[i : i + 8].var() for i in range(43)])
        assert_allclose(out, direct, atol=1e-12)

    def test_empty_window(self):
        with pytest.raises(ValueError):
            windowed_variance([1.0, 2.0], 0)

    def test_window_too_long(self):
        with pytest.raises(ValueError):
            windowed_variance([1.0, 2.0], 3)
