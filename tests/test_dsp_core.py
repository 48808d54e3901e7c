"""Core primitive tests: polynomials, transfer operators, noise, variance."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import daglms
from daglms import (
    NoiseSpec,
    Polynomial,
    SingularityError,
    TransferOperator,
    _kernel,
    cli,
    gen_noise,
    poly_mul,
    roots_inside_unit_circle,
    windowed_variance,
)
from daglms.dsp_core import (
    _BANDPASS_CORNER_INSET,
    _BANDPASS_HALF_ORDER,
    _bandpass_rms_gain,
    _bandpass_sos,
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


class TestCanonical:
    def test_returns_itself_without_trailing_zeros(self):
        for coeffs in ((1.0,), (0.0,), (1.0, -0.9), (0.0, 2.0), (1.0, 0.0, 0.5)):
            p = Polynomial(coeffs)
            assert p.canonical() is p

    def test_strips_trailing_zeros_into_a_copy(self):
        p = Polynomial((1.0, 0.5, 0.0, -0.0))
        q = p.canonical()
        assert q is not p
        assert q.coeffs == (1.0, 0.5) and p.coeffs == (1.0, 0.5, 0.0, -0.0)
        assert Polynomial((0.0, 0.0)).canonical().coeffs == (0.0,)


def degree_one_pairs():
    """Random (c0, c1) pairs over the whole exponent range, near |c1| = |c0| too, and boundary values."""
    rng = np.random.default_rng(2026)
    spread = rng.standard_normal((20_000, 2)) * 10.0 ** rng.uniform(-300.0, 300.0, (20_000, 2))
    c0 = rng.standard_normal(2_000)
    ulps = rng.integers(-4, 5, 2_000)
    near = np.stack([c0, np.where(rng.random(2_000) < 0.5, -1.0, 1.0) * c0 * (1.0 + ulps * 2.0**-52)], axis=1)
    above, below = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    boundary = [
        (1.0, 1.0), (1.0, -1.0), (-2.5, 2.5), (3.0, -3.0),
        (1.0, above), (1.0, below), (above, 1.0), (below, 1.0), (-1.0, above), (1.0, -below),
        (1.0, 5e-324), (5e-324, 5e-324), (5e-324, 1.0), (1e308, 5e-324), (2.2e-308, 1e-308),
        (1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (0.0, 1.0), (-0.0, 1.0), (0.0, -3.0),
        (1.0, 1e308), (1e308, 1e308), (-1e308, 1e308), (1e308, 1.0), (1e-10, 1e308),
    ]
    return [*map(tuple, spread.tolist()), *map(tuple, near.tolist()), *boundary]


class TestRootsInsideUnitCircle:
    def test_degree_one_against_np_roots_and_the_exact_oracle(self):
        """The zero z = -c1/c0 lies inside iff |c1| < |c0|; a zero c0 or c1 leaves no zero to test.

        np.roots' 1x1 companion eigenvalue gives the same verdict wherever its
        solve succeeds with a finite root.
        """
        pairs = degree_one_pairs()
        assert len(pairs) > 20_000
        solved = 0
        for c0, c1 in pairs:
            verdict = roots_inside_unit_circle(Polynomial((c0, c1)))
            assert verdict is bool(c0 == 0.0 or c1 == 0.0 or abs(c1) < abs(c0)), (c0, c1)
            if c1 == 0.0:  # a trailing zero is stripped before the root test
                continue
            with np.errstate(all="ignore"):
                try:
                    moduli = np.abs(np.roots((c0, c1)))
                except np.linalg.LinAlgError:
                    continue
            if np.all(np.isfinite(moduli)):
                assert verdict is bool(np.all(moduli < 1.0)), (c0, c1)
                solved += 1
        assert solved > 10_000

    def test_degree_one_takes_no_eigenvalue_solve(self, monkeypatch):
        def fail(*args):
            raise AssertionError("eigenvalue solve called")

        monkeypatch.setattr(np, "roots", fail)
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        assert roots_inside_unit_circle(Polynomial((1.0, -0.9, 0.0))) is True
        assert roots_inside_unit_circle(Polynomial((1.0, 1.0))) is False
        assert roots_inside_unit_circle(Polynomial((0.0, 1.0))) is True
        rng = np.random.default_rng(3)
        for degree in range(1, 7):
            inside = np.real(np.poly(random_roots(rng, degree, 0.95)))
            outside = np.real(np.poly([1.5, *random_roots(rng, degree - 1, 0.95)]))
            assert roots_inside_unit_circle(Polynomial(tuple(inside))) is True, degree
            assert roots_inside_unit_circle(Polynomial(tuple(outside))) is False, degree

    def test_boundary_band_against_jury_conditions(self):
        """``z^2 + c1 z + c2`` at c1 = +-nextafter(1 + c2), a step to either side of the band edge.

        There the rounded companion eigenvalues land on either side of the circle;
        the verdict follows Jury's conditions in exact arithmetic: |c2| < 1 and |c1| < 1 + c2.
        """
        rng = np.random.default_rng(17)
        c2 = rng.uniform(-1.0, 1.0, 2_000)
        c1 = rng.choice([-1.0, 1.0], 2_000) * np.nextafter(1.0 + c2, rng.choice([0.0, 3.0], 2_000))
        for c1, c2 in zip(c1.tolist(), c2.tolist()):
            a, b = Fraction(c1), Fraction(c2)
            expected = abs(b) < 1 and abs(a) < 1 + b
            assert roots_inside_unit_circle(Polynomial((1.0, c1, c2))) is expected, (c1, c2)

    def test_extreme_coefficients_get_a_verdict(self):
        # the eigenvalue solve of a companion matrix this badly scaled gave no finite roots
        assert roots_inside_unit_circle(Polynomial((1e-300, 1e300, 5e-324, 3.0, 1e308, 2.0, 1.0))) is False

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

    def test_float_first_step_matches_the_integer_recursion(self):
        """The first Schur–Cohn comparison, made on the floats, gives the verdict of every step on integers.

        Seeded polynomials of degrees 1 to 6 with zeros inside, on and outside the
        circle, each also with its last coefficient set to +-its first (a tie),
        with leading zeros, and with subnormal coefficients.
        """
        rng = np.random.default_rng(20)
        cases = []
        for degree in range(1, 7):
            for _ in range(300):
                radius = rng.choice([0.5, 0.95, 1.0, 1.05, 2.0])
                coeffs = np.real(np.poly(random_roots(rng, degree, radius))) * 10.0 ** rng.uniform(-300, 300)
                cases.append(coeffs.tolist())
                cases.append([*coeffs[:-1].tolist(), float(rng.choice([-1.0, 1.0]) * coeffs[0])])
                cases.append([rng.choice([0.0, -0.0])] * int(rng.integers(1, 3)) + coeffs.tolist())
                tiny = rng.integers(1, 2**52, degree + 1) * 5e-324
                cases.append(tiny.tolist())
                cases.append(np.where(rng.random(degree + 1) < 0.5, tiny, coeffs).tolist())
        outcomes = set()
        for coeffs in cases:
            verdict = roots_inside_unit_circle(Polynomial(tuple(coeffs)))
            assert verdict is schur_cohn_on_integers(coeffs), coeffs
            outcomes.add(verdict)
        assert outcomes == {True, False}


def schur_cohn_on_integers(coeffs) -> bool:
    """The stability test with every Schur–Cohn step, the first included, on exact integers."""
    ratios = [c.as_integer_ratio() for c in Polynomial(tuple(coeffs)).canonical().coeffs]
    den = max(d for _, d in ratios)
    a = [n * (den // d) for n, d in ratios]
    while len(a) > 1 and not a[0]:
        del a[0]
    while len(a) > 1:
        a0, an = a[0], a[-1]
        if abs(an) >= abs(a0):
            return False
        a = [a0 * a[i] - an * a[-1 - i] for i in range(len(a) - 1)]
    return True


@pytest.mark.parametrize("degree", range(5))
def test_array_evaluation_matches_polyval(degree):
    """Horner's rule from the leading coefficient gives np.polyval's bits, signed zeros included, on finite
    real and complex arrays: polyval's first step, 0 * x + top, is top for a nonzero top."""
    rng = np.random.default_rng(degree)
    p = Polynomial(tuple(rng.standard_normal(degree + 1)))
    for x in (rng.standard_normal(9), rng.standard_normal((3, 4)), np.exp(-1j * rng.uniform(0.0, np.pi, 9))):
        y, expected = p(x), np.polyval(p.coeffs[::-1], x)
        assert y.dtype == expected.dtype and y.shape == expected.shape
        assert y.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("zero", [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)])
    def test_a_pole_on_the_grid_raises(self, zero):
        """A value of the denominator is a pole where both of its parts are +-0."""
        h = TransferOperator((1.0,), (1.0, -1.0))
        with pytest.raises(SingularityError):
            h.response_at(np.array([0.5j, 1.0, -1.0]))  # 1 - q^-1 at q^-1 = 1
        h._den = lambda z_inv: np.array([1.0, zero, 2.0])
        with pytest.raises(SingularityError):
            h.response_at(np.zeros(3))

    def test_a_nan_is_not_a_pole(self):
        h = TransferOperator((1.0,), (1.0, -1.0))
        assert np.isnan(h.response_at(np.array([0.5, np.nan, 2.0]))).tolist() == [False, True, False]

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

    @pytest.mark.parametrize("engine", ["kernel", "python"])
    def test_signal_must_be_1d(self, engine, monkeypatch):
        """A 0-D or 2-D signal is a ValueError where it enters, on either engine, and the
        state is left as it was."""
        if engine == "kernel" and _kernel.load() is None:
            pytest.skip("the kernel does not build on this host")
        if engine == "python":
            monkeypatch.setattr(_kernel, "load", lambda: None)
        h = TransferOperator((1.0,), (1.0, -0.5))
        h.filter_step(1.0)
        for x in (1.0, np.ones((2, 3))):
            with pytest.raises(ValueError, match="1-D signal"):
                h.filter_signal(x)
        assert h._state == [0.5]

    def test_impulse_response_needs_a_sample(self):
        h = TransferOperator((1.0,), (1.0, -0.5))
        for n in (0, -3):
            with pytest.raises(ValueError, match="sample count must be positive"):
                h.impulse_response(n)
        assert h.impulse_response(1).tolist() == [1.0]


BANDPASS_COMPARE_CONFIG = """
[scenario]
kind = feedforward
noise_kind = bandpass
seed = 4
n_adaptive_params = 8
duration_samples = 3000
open_loop_prefix_samples = 500
primary_path = resonant_primary
secondary_path = resonant_secondary

[run]
algorithms = nlms
presets = integral
window_seconds = 0.2
"""


def source_env(**extra):
    """The environment with this checkout's ``src`` on ``PYTHONPATH``, plus ``extra``."""
    src = str(Path(daglms.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), **extra}


def test_signal_path_leaves_scipy_signal_unloaded(tmp_path):
    """Where the kernel loads, a band-pass ``daglms compare`` and white noise make their
    signals through its loops and the NumPy band-pass design, without ``scipy``."""
    if _kernel.load() is None:
        pytest.skip("the kernel does not build on this host")
    config = tmp_path / "bandpass.ini"
    config.write_text(BANDPASS_COMPARE_CONFIG)
    code = (
        "import sys; from daglms import NoiseSpec, _kernel, cli, gen_noise; gen_noise(NoiseSpec(), 10)\n"
        f"assert cli.main(['compare', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "assert _kernel._kernel and 'scipy' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=source_env())
    assert (tmp_path / "out" / "trace_nlms_integral.csv").exists()


def test_bandpass_compare_runs_without_kernel_or_scipy(tmp_path):
    """With no kernel (a regular file as the cache root) and ``scipy`` blocked, a band-pass
    ``daglms compare`` runs on the Python loops and writes the bytes of this host's run."""
    config = tmp_path / "bandpass.ini"
    config.write_text(BANDPASS_COMPARE_CONFIG)
    assert cli.main(["compare", "--config", str(config), "--out", str(tmp_path / "host")]) == 0
    (tmp_path / "no-cache").touch()
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from daglms import _kernel, cli\n"
        f"assert cli.main(['compare', '--config', {str(config)!r}, '--out', {str(tmp_path / 'python')!r}]) == 0\n"
        "assert _kernel.load() is None"
    )
    env = source_env(XDG_CACHE_HOME=str(tmp_path / "no-cache"))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    files = sorted(f.name for f in (tmp_path / "host").iterdir())
    assert files == sorted(f.name for f in (tmp_path / "python").iterdir()) and files
    for name in files:
        assert (tmp_path / "python" / name).read_bytes() == (tmp_path / "host" / name).read_bytes(), name


@settings(max_examples=300, deadline=None)
@given(
    fs=st.floats(1e-3, 1e9),
    low=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    width=st.floats(-17.0, 0.0),
)
@example(fs=2500.0, low=70.0 / 1250.0, width=np.log10(100.0 / 1180.0))  # the default band
@example(fs=2500.0, low=1e-15, width=-14.6)  # poles nearer z = 1 than scipy's real-pole tolerance
@example(fs=2500.0, low=1.0 - 2e-15, width=-0.3)  # and nearer z = -1
@example(fs=2500.0, low=1e-4, width=-1e-4)  # nearly the whole band
@example(fs=2500.0, low=0.3, width=-15.0)  # poles whose real parts differ by less than that tolerance
def test_bandpass_design_is_butter(fs, low, width):
    """The NumPy design gives the bits of ``scipy.signal.butter`` on the inset band, and
    rejects the bands it rejects; the band runs from ``low`` toward Nyquist, over
    ``10**width`` of the way, both as fractions of Nyquist."""
    low, high = fs / 2 * low, fs / 2 * (low + (1.0 - low) * 10.0**width)
    assume(0.0 < low < high < fs / 2)
    inset = _BANDPASS_CORNER_INSET * (high - low)
    with np.errstate(all="ignore"):  # the extreme bands over- and underflow alike in both
        try:
            want = scipy.signal.butter(
                _BANDPASS_HALF_ORDER, [low + inset, high - inset], btype="bandpass", fs=fs, output="sos"
            )
        except ValueError:
            with pytest.raises(ValueError, match="too narrow to design"):
                _bandpass_sos.__wrapped__(low, high, fs)
            return
        got = _bandpass_sos.__wrapped__(low, high, fs)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_bandpass_design_rejects_a_band_that_rounds_away():
    """A band one ulp wide is empty once butter scales it to Nyquist; both designs reject it."""
    low = 0.44999999999999996
    high = np.nextafter(low, 1.0)
    inset = _BANDPASS_CORNER_INSET * (high - low)
    with pytest.raises(ValueError, match="must be less than"):
        scipy.signal.butter(_BANDPASS_HALF_ORDER, [low + inset, high - inset], btype="bandpass", fs=3.0)
    with pytest.raises(ValueError, match="too narrow to design"):
        _bandpass_sos(low, high, 3.0)


@pytest.mark.parametrize("fs", [2500.0, 8000.0, 48000.0])
def test_signals_keep_their_bits_without_the_kernel(monkeypatch, fs):
    """Band-pass noise, path outputs (an empty signal included) and impulse responses have
    the same bytes from the kernel's loops and from the Python loops."""

    def outputs():
        _bandpass_rms_gain.cache_clear()
        w = gen_noise(NoiseSpec(kind="bandpass", sample_rate_hz=fs, band_low_hz=fs / 40, band_high_hz=fs / 15), 3000)
        out = [w]
        for make in cli._PATHS.values():
            op = make(fs)
            out += [op.filter_signal(w[:1000]), op.filter_signal(w[:0]), op.filter_signal(w[1000:])]
            out += [np.array(op._state), op.impulse_response(256)]
        return [(v.dtype.str, v.shape, v.tobytes()) for v in out]

    compiled = outputs()
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert outputs() == compiled


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

    @pytest.mark.parametrize("fs", [1e100, 1e200, np.finfo(float).max])
    def test_bandpass_gain_rounded_to_zero_names_the_band_and_rate(self, fs):
        # far above the band the filter's RMS gain underflows to 0.0: a ValueError naming
        # the keys, not a ZeroDivisionError
        message = f"band_low_hz = 70.0, band_high_hz = 170.0 at sample_rate_hz = {fs!r}: "
        with pytest.raises(ValueError, match=re.escape(message) + ".* RMS gain is 0.0,"):
            gen_noise(NoiseSpec(kind="bandpass", sample_rate_hz=fs), 16)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Polynomial((1.0, np.nan)), "polynomial coefficients must be finite"),
        (lambda: Polynomial((np.inf,)), "polynomial coefficients must be finite"),
        (lambda: TransferOperator((1.0,), (1.0, -np.inf)), "polynomial coefficients must be finite"),
        (lambda: NoiseSpec(kind="pink"), "unknown noise kind 'pink'"),
        (lambda: NoiseSpec(amplitude=-1.0), "amplitude must be a finite non-negative RMS target"),
        (lambda: NoiseSpec(amplitude=np.nan), "amplitude must be a finite non-negative RMS target"),
        (lambda: NoiseSpec(amplitude=np.inf), "amplitude must be a finite non-negative RMS target"),
    ],
    ids=["polynomial-nan", "polynomial-inf", "denominator-inf", "noise-kind", "amplitude-negative",
         "amplitude-nan", "amplitude-inf"],
)
def test_bad_input_is_named(build, message):
    """Coefficients and noise descriptions are checked where they are built."""
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


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

    def test_empty_window(self):
        with pytest.raises(ValueError):
            windowed_variance([1.0, 2.0], 0)

    def test_window_too_long(self):
        with pytest.raises(ValueError):
            windowed_variance([1.0, 2.0], 3)

    def test_window_must_be_an_integer(self):
        for window in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="integer sample count"):
                windowed_variance([1.0, 2.0, 3.0, 4.0], window)
        assert_allclose(windowed_variance([1.0, -1.0, 1.0, -1.0], np.int64(2)), [1.0, 1.0])

    @pytest.mark.parametrize("window", [1, 7, 750, 65536, 65537, 200000])
    def test_windows_in_chunks_keep_the_bits_of_one_var(self, window):
        """Windows taken a chunk at a time give each window the bits of one ``var`` over all
        of them, on a signal several chunks long with a tail."""
        x = np.random.default_rng(window).standard_normal(300_001) * 1e3
        nblocks = x.size // window
        whole = x[: nblocks * window].reshape(nblocks, window).var(axis=1)
        assert windowed_variance(x, window).tobytes() == whole.tobytes()
