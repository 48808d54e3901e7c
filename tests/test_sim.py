"""Scenario and metric tests: identification, feedforward loop, attenuation."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from daglms import (
    DagConfig,
    NoiseSpec,
    Polynomial,
    RunDiverged,
    RunTrace,
    ScenarioConfig,
    StepSizePolicy,
    TransferOperator,
    attenuation_db,
    gen_noise,
    make_preset,
    run_feedforward,
    run_many,
    run_sysid,
    sim,
    time_to_threshold,
)
from daglms.adapt import step_size
from daglms.sim import (
    default_feedforward_scenario,
    make_mismatched_model,
    make_primary_path,
    make_secondary_path,
)


def sysid_scenario(theta, seed=0, duration=5000, noise_rms=0.0, kind="white"):
    return ScenarioConfig(
        kind="sysid",
        noise=NoiseSpec(kind=kind, seed=seed),
        n_adaptive_params=len(theta),
        duration_samples=duration,
        true_params=np.asarray(theta, dtype=float),
        measurement_noise_rms=noise_rms,
    )


def scalar_loop_oracle(theta_true, d, mu):
    """Plain constant-step loop written independently of the engine."""
    n = len(theta_true)
    theta = np.zeros(n)
    phi = np.zeros(n)
    err = np.empty(len(d))
    for t in range(len(d)):
        phi[1:] = phi[:-1]
        phi[0] = d[t]
        x = float(np.dot(theta_true, phi))
        e0 = x - float(np.dot(theta, phi))
        theta = theta + (mu * e0) * phi
        err[t] = np.linalg.norm(theta_true - theta)
    return err


class TestRunSysid:
    def test_converges_and_matches_oracle(self):
        theta = [0.5, -0.3]
        scn = sysid_scenario(theta, seed=4, duration=5000)
        trace = run_sysid(scn, StepSizePolicy.lms(0.1))
        assert trace.param_err[-1] < 1e-3
        assert np.min(trace.param_err[:5000]) < 1e-3
        d = gen_noise(scn.noise, scn.duration_samples)
        oracle_err = scalar_loop_oracle(np.asarray(theta), d, 0.1)
        assert_allclose(trace.param_err, oracle_err, atol=1e-12)

    def test_already_converged_stays(self):
        scn = sysid_scenario([0.0, 0.0, 0.0], seed=1, duration=500)
        trace = run_sysid(scn, StepSizePolicy.lms(0.1))
        assert np.all(trace.e0 == 0.0)
        assert np.all(trace.param_err == 0.0)
        assert np.array_equal(trace.theta_final, np.zeros(3))

    def test_deterministic(self):
        scn = sysid_scenario([0.2, 0.1, -0.4], seed=9, duration=2000, noise_rms=0.01)
        a = run_sysid(scn, StepSizePolicy.nlms(0.5), make_preset("ip"))
        b = run_sysid(scn, StepSizePolicy.nlms(0.5), make_preset("ip"))
        assert np.array_equal(a.e0, b.e0)
        assert np.array_equal(a.param_err, b.param_err)
        assert np.array_equal(a.theta_final, b.theta_final)

    @pytest.mark.parametrize(
        "policy",
        [StepSizePolicy.lms(0.05), StepSizePolicy.nlms(0.2), StepSizePolicy.plms(0.05)],
        ids=["lms", "nlms", "plms"],
    )
    def test_consistency_all_policies(self, policy):
        scn = sysid_scenario([0.4, -0.2, 0.3, 0.1], seed=12, duration=20000)
        trace = run_sysid(scn, policy)
        assert not trace.diverged
        assert trace.param_err[-1] < 1e-3

    def test_divergence_raises_with_trace(self):
        scn = sysid_scenario([0.5], seed=2, duration=4000)
        scn.noise = NoiseSpec(kind="white", seed=2, amplitude=100.0)
        with pytest.raises(RunDiverged) as err:
            run_sysid(scn, StepSizePolicy.lms(5.0))
        assert err.value.trace.diverged
        assert err.value.trace.divergence_step == err.value.step
        assert err.value.step >= 1

    def test_wrong_kind(self):
        scn = default_feedforward_scenario(duration_s=10.0, prefix_s=1.0)
        with pytest.raises(ValueError):
            run_sysid(scn, StepSizePolicy.lms(0.1))

    def test_prefix_rejected(self):
        """A sysid run adapts from sample 0, so a prefix it would ignore is an error naming the key."""
        with pytest.raises(ValueError, match="open_loop_prefix_samples"):
            ScenarioConfig(
                kind="sysid",
                noise=NoiseSpec(kind="white"),
                n_adaptive_params=2,
                duration_samples=500,
                true_params=[0.5, -0.3],
                open_loop_prefix_samples=100,
            )

    @pytest.mark.parametrize("theta", [[0.5], [[0.5], [-0.3]]], ids=["short", "column"])
    def test_true_params_are_one_value_per_tap(self, theta):
        """A column of the right size is rejected where it enters, as a wrong length is, and
        as the signals reject a ``true_params`` assigned after construction."""
        with pytest.raises(ValueError, match="n_adaptive_params must match true_params length"):
            ScenarioConfig("sysid", NoiseSpec(kind="white"), 2, 500, true_params=theta)


@pytest.mark.parametrize(
    "kind, field",
    [("sysid", "primary_path"), ("sysid", "secondary_path"), ("sysid", "secondary_model"),
     ("sysid", "regressor_filter"), ("feedforward", "true_params")],
)
def test_field_the_kind_ignores_is_named(kind, field):
    """A field that the scenario's kind would drop is an error naming it."""
    unit, theta = TransferOperator.identity(), [0.5, -0.3]
    valid = {"sysid": {"true_params": theta}, "feedforward": {"primary_path": unit, "secondary_path": unit}}[kind]
    ignored = {field: theta if field == "true_params" else unit}
    with pytest.raises(ValueError, match=f"{field} must be unset for a {kind} scenario"):
        ScenarioConfig(kind, NoiseSpec(kind="white"), 2, 500, **valid, **ignored)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"kind": "arx"}, "unknown scenario kind 'arx'"),
        ({"n_adaptive_params": 0}, "n_adaptive_params must be at least 1"),
        ({"kind": "sysid", "primary_path": None, "secondary_path": None}, "sysid scenario needs true_params"),
        ({"primary_path": None}, "feedforward scenario needs primary and secondary paths"),
        ({"secondary_path": None}, "feedforward scenario needs primary and secondary paths"),
        ({"n_adaptive_params": 2.5}, "n_adaptive_params must be an integer, got 2.5"),
        ({"duration_samples": 100.5}, "duration_samples must be an integer, got 100.5"),
        ({"open_loop_prefix_samples": 10.5}, "open_loop_prefix_samples must be an integer, got 10.5"),
        ({"duration_samples": np.float64(500.0)}, "duration_samples must be an integer, got "),
        ({"n_adaptive_params": "2"}, "n_adaptive_params must be an integer, got '2'"),
    ],
    ids=["unknown-kind", "no-taps", "sysid-without-true-params", "no-primary-path", "no-secondary-path",
         "fractional-taps", "fractional-duration", "fractional-prefix", "float64-duration", "string-taps"],
)
def test_bad_scenario_is_named(changes, message):
    """A scenario that cannot run is rejected where it is built, with a message naming what is
    wrong; a count must be an integer, which ``int()`` would have truncated."""
    unit = TransferOperator.identity()
    fields = {"kind": "feedforward", "noise": NoiseSpec(kind="white"), "n_adaptive_params": 2,
              "duration_samples": 500, "primary_path": unit, "secondary_path": unit, **changes}
    with pytest.raises(ValueError, match=re.escape(message)):
        ScenarioConfig(**fields)


def feedforward_like_sysid(theta, seed, duration, taps):
    """Degenerate feedforward config: unit paths, FIR primary equal to theta."""
    return ScenarioConfig(
        kind="feedforward",
        noise=NoiseSpec(kind="white", seed=seed),
        n_adaptive_params=taps,
        duration_samples=duration,
        primary_path=TransferOperator(Polynomial(tuple(theta))),
        secondary_path=TransferOperator.identity(),
        secondary_model=TransferOperator.identity(),
        regressor_filter=TransferOperator.identity(),
        open_loop_prefix_samples=0,
    )


class TestFeedforward:
    def test_zero_disturbance(self):
        scn = default_feedforward_scenario(duration_s=4.0, prefix_s=1.0, n_taps=8)
        scn.noise = NoiseSpec(
            kind="bandpass", sample_rate_hz=2500.0, band_low_hz=70.0,
            band_high_hz=170.0, seed=0, amplitude=0.0,
        )
        trace = run_feedforward(scn, StepSizePolicy.nlms(0.0002))
        assert np.all(trace.residual == 0.0)
        assert np.array_equal(trace.theta_final, np.zeros(8))

    @pytest.mark.parametrize("preset", ["integral", "arima2"])
    @pytest.mark.parametrize("algo", ["lms", "nlms", "plms"])
    def test_equivalence_with_sysid(self, algo, preset):
        rng = np.random.default_rng(31)
        theta = 0.3 * rng.standard_normal(12)
        policy = {
            "lms": StepSizePolicy.lms(0.002),
            "nlms": StepSizePolicy.nlms(0.02),
            "plms": StepSizePolicy.plms(0.002),
        }[algo]
        cfg = make_preset(preset)
        ff = feedforward_like_sysid(theta, seed=5, duration=3000, taps=12)
        sy = sysid_scenario(theta, seed=5, duration=3000)
        trace_ff = run_feedforward(ff, policy, cfg)
        trace_sy = run_sysid(sy, policy, cfg)
        # with identical regressors, equal per-step errors give equal per-step estimates
        assert np.max(np.abs(trace_ff.theta_final - trace_sy.theta_final)) <= 1e-10
        assert np.max(np.abs(trace_ff.residual - trace_sy.residual)) <= 1e-10

    def test_degenerate_reaches_20db_monotone(self):
        # unit paths: pure identification of a one-tap primary through the
        # normalized policy; attenuation builds up smoothly past 20 dB
        scn = ScenarioConfig(
            kind="feedforward",
            noise=NoiseSpec(kind="bandpass", sample_rate_hz=2500.0,
                            band_low_hz=70.0, band_high_hz=170.0, seed=77),
            n_adaptive_params=8,
            duration_samples=97500,
            primary_path=TransferOperator.identity(),
            secondary_path=TransferOperator.identity(),
            open_loop_prefix_samples=7500,
        )
        trace = run_feedforward(scn, StepSizePolicy.nlms(0.0002))
        assert trace.atten_db is not None
        assert trace.atten_db.max() >= 20.0
        smoothed = np.convolve(trace.atten_db, np.ones(3) / 3.0, mode="valid")
        assert np.all(np.diff(smoothed) > -0.25)

    def test_deterministic(self):
        scn = default_feedforward_scenario(duration_s=10.0, prefix_s=3.0, n_taps=12)
        a = run_feedforward(scn, StepSizePolicy.nlms(0.0002), make_preset("arima2"))
        b = run_feedforward(scn, StepSizePolicy.nlms(0.0002), make_preset("arima2"))
        assert np.array_equal(a.residual, b.residual)
        assert np.array_equal(a.atten_db, b.atten_db)
        assert np.array_equal(a.theta_final, b.theta_final)

    def test_matched_model_spr_ok(self):
        scn = default_feedforward_scenario(duration_s=8.0, prefix_s=3.0, n_taps=8)
        trace = run_feedforward(scn, StepSizePolicy.nlms(0.0002))
        assert trace.spr_ok is True

    def test_mismatched_model_warns(self):
        scn = default_feedforward_scenario(
            duration_s=8.0, prefix_s=3.0, n_taps=8, mismatched_model=True
        )
        with pytest.warns(UserWarning, match="not strictly positive real"):
            trace = run_feedforward(scn, StepSizePolicy.nlms(0.0002))
        assert trace.spr_ok is False

    def test_divergence_raises_with_trace(self):
        scn = default_feedforward_scenario(duration_s=8.0, prefix_s=3.0, amplitude=1.0)
        with pytest.raises(RunDiverged) as err:
            run_feedforward(scn, StepSizePolicy.lms(500.0))
        assert err.value.trace.diverged
        assert err.value.trace.divergence_step == err.value.step

    def test_duration_must_exceed_prefix(self):
        with pytest.raises(ValueError, match="duration"):
            default_feedforward_scenario(duration_s=10.0, prefix_s=10.0)

    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError, match="open_loop_prefix_samples"):
            default_feedforward_scenario(duration_s=1.0, prefix_s=-0.02)

    def test_negative_measurement_noise_rejected(self):
        with pytest.raises(ValueError, match="measurement_noise_rms"):
            sysid_scenario([0.5, -0.3], noise_rms=-1.0)

    def test_nan_measurement_noise_rejected(self):
        # NaN > 0 is false, so a NaN level would silently mean no noise
        with pytest.raises(ValueError, match="measurement_noise_rms"):
            sysid_scenario([0.5, -0.3], noise_rms=float("nan"))

    def test_default_window_only_where_it_fits(self):
        # the 3 s window fits a 3 s prefix but not a 2 s one
        short = default_feedforward_scenario(duration_s=8.0, prefix_s=2.0, n_taps=4)
        trace = run_feedforward(short, StepSizePolicy.nlms(0.0002))
        assert trace.atten_db is None and trace.atten_window_samples is None
        fits = default_feedforward_scenario(duration_s=8.0, prefix_s=3.0, n_taps=4)
        trace = run_feedforward(fits, StepSizePolicy.nlms(0.0002))
        assert trace.atten_window_samples == 7500 and trace.atten_db.size == 1


def trace_with_residual(residual, prefix, fs=1000.0):
    n = len(residual)
    return RunTrace(
        sample_rate_hz=fs,
        open_loop_prefix_samples=prefix,
        e0=np.asarray(residual, dtype=float),
        e_post=np.full(n, np.nan),
        residual=np.asarray(residual, dtype=float),
        param_err=np.full(n, np.nan),
    )


class TestAttenuation:
    def test_definition_20db(self):
        rng = np.random.default_rng(0)
        open_loop = rng.standard_normal(1000)
        open_loop /= open_loop.std()  # variance exactly 1
        controlled = 0.1 * np.tile(open_loop, 2)  # variance exactly 0.01
        trace = trace_with_residual(np.concatenate([open_loop, controlled]), 1000)
        db = attenuation_db(trace, window_seconds=1.0)
        assert_allclose(db, [20.0, 20.0], rtol=1e-12)

    def test_unchanged_signal_is_zero_db(self):
        rng = np.random.default_rng(1)
        seg = rng.standard_normal(500)
        trace = trace_with_residual(np.tile(seg, 3), 500, fs=500.0)
        db = attenuation_db(trace, window_seconds=1.0)
        assert_allclose(db, [0.0, 0.0], atol=1e-12)

    def test_half_variance(self):
        rng = np.random.default_rng(2)
        seg = rng.standard_normal(800)
        seg /= seg.std()
        scaled = seg / np.sqrt(2.0)
        trace = trace_with_residual(np.concatenate([seg, scaled]), 800, fs=800.0)
        db = attenuation_db(trace, window_seconds=1.0)
        assert db[0] == pytest.approx(10.0 * np.log10(2.0), abs=1e-12)

    def test_zero_controlled_clamps(self):
        rng = np.random.default_rng(3)
        seg = rng.standard_normal(100)
        trace = trace_with_residual(np.concatenate([seg, np.zeros(100)]), 100, fs=100.0)
        db = attenuation_db(trace, window_seconds=1.0)
        assert db[0] == 120.0
        assert trace.atten_clamped[0]

    def test_no_full_controlled_window(self):
        # a 100-sample window fits the prefix but not the 50 controlled samples after it
        trace = trace_with_residual(np.ones(150), 100, fs=100.0)
        with pytest.raises(ValueError, match="no full controlled window in the trace"):
            attenuation_db(trace, window_seconds=1.0)
        assert trace.atten_db is None

    def test_silent_prefix(self):
        # nothing to attenuate: a window with any signal reads -120 dB and is clamped, a
        # silent one reads 0 dB and is not
        controlled = np.concatenate([np.arange(50.0), np.zeros(100), np.arange(100.0)])
        trace = trace_with_residual(np.concatenate([np.zeros(100), controlled]), 100, fs=100.0)
        db = attenuation_db(trace, window_seconds=0.5)
        assert db.tolist() == [-120.0, 0.0, 0.0, -120.0, -120.0]
        assert trace.atten_clamped.tolist() == [True, False, False, True, True]

    def test_window_must_fit(self):
        trace = trace_with_residual(np.ones(100), 10, fs=100.0)
        with pytest.raises(ValueError):
            attenuation_db(trace, window_seconds=0.5)

    @pytest.mark.parametrize("window_seconds, samples", [(0.01, 1), (0.0149, 1), (0.015, 2), (0.025, 2)])
    def test_window_of_one_sample(self, window_seconds, samples):
        # at 100 Hz: one sample has variance 0, and every window would clamp at +120 dB;
        # 1.5 and 2.5 samples both round, half to even, to two
        trace = trace_with_residual(np.arange(100.0), 10, fs=100.0)
        if samples == 1:
            with pytest.raises(ValueError, match="window_seconds must cover at least two samples"):
                attenuation_db(trace, window_seconds=window_seconds)
            assert trace.atten_db is None
        else:
            attenuation_db(trace, window_seconds=window_seconds)
            assert trace.atten_window_samples == 2 and not trace.atten_clamped.any()

    def test_window_of_infinite_samples(self):
        # 1e308 s at 100 Hz overflows to inf samples, which no trace holds
        trace = trace_with_residual(np.ones(100), 10, fs=100.0)
        with pytest.raises(ValueError, match="a finite number of them"):
            attenuation_db(trace, window_seconds=1e308)

    @pytest.mark.parametrize("amplitude", [0.006, 0.0])
    def test_runs_take_the_bits_of_attenuation_db(self, amplitude):
        """A run's series, whose open-loop variance its signals take once for all their runs,
        has the bits that attenuation_db gives on its trace: every run on one signal set, at
        two windows, and with a silent disturbance, whose open-loop variance is 0."""
        scn = default_feedforward_scenario(duration_s=2.0, prefix_s=0.5, n_taps=8, amplitude=amplitude)
        sig = sim._signals(scn)
        for window_seconds in (0.1, 0.24):
            for policy in (StepSizePolicy.lms(0.2), StepSizePolicy.nlms(0.0002), StepSizePolicy.plms(0.22)):
                for preset in ("integral", "arima2"):
                    trace = sim._run(scn, sig, policy, make_preset(preset), window_seconds)
                    series = [trace.atten_db.tobytes(), trace.atten_clamped.tobytes()]
                    again = dataclasses.replace(trace, atten_db=None, atten_clamped=None)
                    assert attenuation_db(again, window_seconds).tobytes() == series[0]
                    assert again.atten_clamped.tobytes() == series[1]


class TestTimeToThreshold:
    def test_first_sustained(self):
        assert time_to_threshold(np.array([0.0, 5.0, 21.0, 22.0, 25.0]), 20.0) == 2

    def test_never_reached(self):
        assert time_to_threshold(np.array([1.0, 2.0, 3.0]), 20.0) is None

    def test_unsustained_skipped(self):
        assert time_to_threshold(np.array([0.0, 21.0, 5.0, 21.0, 22.0]), 20.0) == 3

    def test_requires_computed_series(self):
        trace = trace_with_residual(np.ones(10), 5)
        with pytest.raises(ValueError, match="not computed"):
            time_to_threshold(trace, 20.0)


def test_synthetic_paths_are_stable_and_proper():
    from daglms import roots_inside_unit_circle

    for make in (make_primary_path, make_secondary_path, make_mismatched_model):
        h = make()
        assert roots_inside_unit_circle(h.denominator)
        assert h.numerator.coeffs[0] != 0.0
    # true paths are minimum phase; the mismatched model is deliberately not
    assert roots_inside_unit_circle(make_primary_path().numerator)
    assert roots_inside_unit_circle(make_secondary_path().numerator)
    assert not roots_inside_unit_circle(make_mismatched_model().numerator)


RECORDS = ("e0", "e_post", "residual", "param_err", "atten_db", "theta_final")


def trace_bits(trace):
    arrays = [None if getattr(trace, f) is None else getattr(trace, f).tobytes() for f in RECORDS]
    return arrays, trace.diverged, trace.divergence_step, trace.spr_ok


def delay_scenario(taps, amplitude=0.0, lead=0.0):
    """Silent band-free input through one-sample delays, where signed zeros reach ``e0``."""
    delay = TransferOperator((0.0, 1.0))
    return ScenarioConfig(
        "feedforward", NoiseSpec(seed=0, amplitude=amplitude), taps, 200,
        primary_path=delay, secondary_path=TransferOperator((lead, 1.0)), open_loop_prefix_samples=20,
    )


def set_params(scn):
    scn.true_params[0] += 0.25


def set_noise_rms(scn):
    scn.measurement_noise_rms = 0.02


def flip_amplitude(scn):
    noise = NoiseSpec(seed=0, amplitude=-0.0)
    assert noise == scn.noise and hash(noise) == hash(scn.noise)  # == cannot tell them apart
    scn.noise = noise


def flip_lead(scn):
    path = TransferOperator((-0.0, 1.0))
    assert path.numerator == scn.secondary_path.numerator
    scn.secondary_path = path


class TestSignalMemo:
    """``run_sysid`` and ``run_feedforward`` build a scenario's signals once across calls."""

    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        monkeypatch.setattr(sim, "_memo", None)
        calls, build = [], sim._build_signals
        monkeypatch.setattr(sim, "_build_signals", lambda scn: calls.append(scn) or build(scn))
        return calls

    @staticmethod
    def uncached(scn, policy, cfg=None):
        return sim._run(scn, sim._build_signals(scn), policy, cfg)

    def test_repeat_call_reuses_the_signals(self, builds):
        scn = sysid_scenario([0.5, -0.3, 0.1], duration=800, noise_rms=0.01)
        runs = [(StepSizePolicy.nlms(0.2), make_preset(p)) for p in ("integral", "ipd")] * 2
        for policy, cfg in runs:
            assert trace_bits(run_sysid(scn, policy, cfg)) == trace_bits(self.uncached(scn, policy, cfg))
        assert len(builds) == 1 + len(runs)  # one memo build, then one per uncached run

    @pytest.mark.parametrize(
        "make, change, run, policy",
        [
            (lambda: sysid_scenario([0.5, -0.3], duration=400, noise_rms=0.01), set_params, run_sysid, StepSizePolicy.nlms(0.2)),
            (lambda: sysid_scenario([0.5, -0.3], duration=400, noise_rms=0.01), set_noise_rms, run_sysid, StepSizePolicy.nlms(0.2)),
            (lambda: delay_scenario(2), flip_amplitude, run_feedforward, StepSizePolicy.nlms(0.1)),
            (lambda: delay_scenario(1), flip_lead, run_feedforward, StepSizePolicy.nlms(0.1)),
        ],
        ids=["true-params-in-place", "noise-rms", "amplitude-minus-zero", "path-minus-zero"],
    )
    @pytest.mark.filterwarnings("ignore:could not verify the secondary path ratio:UserWarning")
    def test_any_changed_bit_builds_anew(self, builds, make, change, run, policy):
        """A change that the memo must see, each one that moves some output bit: the call
        after it gives the bits of a call on signals built afresh."""
        scn = make()
        before = trace_bits(run(scn, policy))
        change(scn)
        after = trace_bits(run(scn, policy))
        assert after == trace_bits(self.uncached(scn, policy))
        assert after != before
        assert len(builds) == 3

    def test_true_params_stay_writable_and_unshared(self):
        scn = sysid_scenario([0.5, -0.3], duration=300)
        run_sysid(scn, StepSizePolicy.nlms(0.2))
        sig = sim._memo[1]
        assert scn.true_params.flags.writeable
        assert not np.shares_memory(scn.true_params, sig.target)
        assert not any(v.flags.writeable for v in (sig.desired, sig.rev, sig.rev_f, sig.target, sig.nan))

    def test_mismatched_model_warns_on_each_call(self, builds):
        scn = default_feedforward_scenario(duration_s=4.0, prefix_s=1.0, n_taps=4, mismatched_model=True)
        for _ in range(2):
            with pytest.warns(UserWarning, match="not strictly positive real"):
                assert run_feedforward(scn, StepSizePolicy.nlms(0.0002)).spr_ok is False
        assert len(builds) == 1

    def test_sweep_fills_the_memo(self, builds):
        """``run_many`` takes its signals from the memo, as a single run does: a sweep and then
        a single run on one scenario build them once, and the single run gives the sweep's bits."""
        scn = sysid_scenario([0.5, -0.3], duration=300)
        pair = StepSizePolicy.nlms(0.2), make_preset("ipd")
        [swept] = run_many(scn, [pair])
        assert sim._memo is not None
        assert trace_bits(run_sysid(scn, *pair)) == trace_bits(swept)
        assert len(builds) == 1

    @pytest.mark.parametrize("run", ["run_many", "run_feedforward"])
    def test_screen_warning_points_at_the_caller(self, builds, run):
        """The secondary-path screen's warning names the line that called the sweep or the run,
        on the call that builds the signals and on the one that takes them from the memo."""
        scn = default_feedforward_scenario(duration_s=4.0, prefix_s=1.0, n_taps=4, mismatched_model=True)
        call = {"run_many": lambda: run_many(scn, [(StepSizePolicy.nlms(0.0002), None)]),
                "run_feedforward": lambda: run_feedforward(scn, StepSizePolicy.nlms(0.0002))}[run]
        for _ in range(2):
            with pytest.warns(UserWarning, match="not strictly positive real") as record:
                call()
            assert [w.filename for w in record] == [__file__]
        assert len(builds) == 1


def plain_signals(**arrays):
    arrays = {"desired": np.zeros(4), "rev": np.zeros(5), "rev_f": np.zeros(5), "target": np.zeros(2),
              "nan": np.full(4, np.nan), **arrays}
    return sim._Signals(path=None, prefix=0, spr_ok=None, warning=None, **arrays)


class TestSignals:
    """``_Signals`` checks its arrays where they are built, for both loops, and is frozen."""

    @pytest.mark.parametrize(
        "name, array",
        [
            ("desired", np.zeros(4, dtype=np.int64)),
            ("rev", np.zeros(10)[::2]),
            ("rev_f", np.zeros(5, dtype=np.float32)),
            ("target", np.zeros((2, 2)).T[0]),
            ("nan", np.full(8, np.nan)[::2]),
        ],
        ids=["int-desired", "strided-rev", "float32-rev-f", "strided-target", "strided-nan"],
    )
    def test_rejects_an_array_the_loop_cannot_read(self, name, array):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            plain_signals(**{name: array})
        assert array.flags.writeable  # rejected before any array is made read-only

    def test_takes_the_addresses_once_and_cannot_be_reassigned(self):
        sig = sim._build_signals(sysid_scenario([0.5, -0.3], duration=50))
        read = (sig.desired, sig.rev, sig.rev_f, sig.target)
        assert sig.addresses == tuple(v.ctypes.data for v in read)
        assert plain_signals(target=None).addresses[3] is None
        for name in ("desired", "target", "addresses"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sig, name, np.zeros(2))
        assert not any(v.flags.writeable for v in (*read, sig.nan))
