"""Lockstep engine tests: ``run_many`` keeps the bits of the single-run loop."""

import warnings

import numpy as np
import pytest

from daglms import (
    PRESET_ORDER,
    DagConfig,
    NoiseSpec,
    RunDiverged,
    ScenarioConfig,
    StepSizePolicy,
    TransferOperator,
    make_preset,
    run_feedforward,
    run_many,
    run_sysid,
    sim,
)
from daglms.sim import default_feedforward_scenario


def bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def single(run, scn, policy, cfg):
    try:
        return run(scn, policy, cfg)
    except RunDiverged as exc:
        return exc.trace


def assert_same_runs(scn, runs, run):
    """``run_many``, and the lockstep loop over all of ``runs`` (which ``run_many``
    uses only for four or more runs of one group), equal the single-run loop
    ``run`` for each pair, bit for bit."""
    many = run_many(scn, runs)
    lockstep = sim._lockstep_loop(scn, sim._signals(scn), runs)
    assert len(many) == len(lockstep) == len(runs)
    for (policy, cfg), *traces in zip(runs, many, lockstep):
        want = single(run, scn, policy, cfg)
        for got in traces:
            for field in ("e0", "e_post", "residual", "param_err", "atten_db", "atten_clamped"):
                assert bits(getattr(got, field)) == bits(getattr(want, field)), (policy, cfg, field)
            assert (got.diverged, got.divergence_step) == (want.diverged, want.divergence_step), (policy, cfg)
            assert np.array_equal(got.theta_final, want.theta_final), (policy, cfg)
            assert (got.spr_ok, got.atten_window_samples, got.open_loop_prefix_samples) == (
                want.spr_ok, want.atten_window_samples, want.open_loop_prefix_samples
            )
    return many


def sweep(gains):
    return [(getattr(StepSizePolicy, algo)(mu), make_preset(p)) for algo, mu in gains for p in PRESET_ORDER]


@pytest.mark.parametrize("n", [12, 16, 60, 61])
@pytest.mark.parametrize("B", [1, 3, 15])
def test_stacked_matmul_gives_dot_bits(n, B):
    """The engine's dot products: each row of a stacked ``matmul`` is ``np.dot`` of that row."""
    rng = np.random.default_rng([n, B])
    for _ in range(50):
        base = rng.standard_normal((B, n)) * rng.uniform(1e-3, 1e3)
        phi = rng.standard_normal(n + 7)[3:3 + n]  # a slice of a longer signal, as a delay line is
        shared = np.matmul(base[:, None, :], phi[:, None])[:, 0, 0]
        own = np.matmul(base[:, None, :], base[:, :, None])[:, 0, 0]
        assert bits(shared) == bits(np.array([np.dot(row, phi) for row in base]))
        assert bits(own) == bits(np.array([np.dot(row, row) for row in base]))


@pytest.mark.parametrize(
    "mismatched, gains, diverged",
    [
        (False, [("lms", 0.2), ("nlms", 0.0002), ("plms", 0.22)], 0),
        (True, [("lms", 2.0), ("nlms", 0.01), ("plms", 3.0)], 9),
    ],
    ids=["default", "mismatched-diverging"],
)
def test_feedforward_sweep_matches_single_runs(mismatched, gains, diverged):
    """All 15 policy x preset runs of the 60-tap scenario, with attenuation windows."""
    scn = default_feedforward_scenario(duration_s=9.0, prefix_s=3.0, mismatched_model=mismatched)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the mismatched model's SPR screen
        many = assert_same_runs(scn, sweep(gains), run_feedforward)
    assert sum(trace.diverged for trace in many) == diverged
    assert all(trace.atten_db is not None for trace in many if not trace.diverged)


def sysid_scenario():
    rng = np.random.default_rng(7)
    return ScenarioConfig(
        kind="sysid",
        noise=NoiseSpec(kind="white", seed=5),
        n_adaptive_params=16,
        duration_samples=2000,
        true_params=0.5 * rng.standard_normal(16),
        measurement_noise_rms=0.01,
    )


def test_sysid_sweep_matches_single_runs():
    """``param_err`` included; arima2 and conj_nesterov diverge at plms(0.05), and a
    filter with ``d[0] < 1`` runs apart from the padded presets."""
    scn = sysid_scenario()
    runs = sweep([("lms", 0.01), ("nlms", 0.2), ("plms", 0.05)])
    runs += [(StepSizePolicy.nlms(0.2), DagConfig((0.3,), (-0.5,))), (StepSizePolicy.lms(0.01), None)]
    many = assert_same_runs(scn, runs, run_sysid)
    assert 0 < sum(trace.diverged for trace in many) < len(runs)


def test_one_diverging_run_returns_its_partial_trace():
    """``run_many`` of a single diverging run (the single-run loop) raises nothing."""
    [trace] = assert_same_runs(sysid_scenario(), [(StepSizePolicy.plms(0.05), make_preset("arima2"))], run_sysid)
    assert trace.diverged
    stop = trace.divergence_step - 1  # the diverging step stores no error
    assert not np.isnan(trace.e0[:stop]).any() and np.isnan(trace.e0[stop:]).all()


def test_silent_disturbance_matches_single_runs():
    """A zero disturbance: every error is a signed zero, kept as the single run signs it."""
    scn = default_feedforward_scenario(duration_s=4.0, prefix_s=1.0, n_taps=8, amplitude=0.0)
    assert_same_runs(scn, sweep([("lms", 0.2), ("nlms", 0.0002), ("plms", 0.22)]), run_feedforward)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_constant_step_ignores_overflowing_power():
    """An unstable regressor filter drives ``phi . phi`` to inf; the lms run never reads it."""
    scn = default_feedforward_scenario(duration_s=9.0, prefix_s=3.0, n_taps=12)
    scn.regressor_filter = TransferOperator((1.0,), (1.0, -1.02))
    runs = [(StepSizePolicy.lms(1e-300), None), (StepSizePolicy.nlms(0.01), None)]
    many = assert_same_runs(scn, runs, run_feedforward)
    assert not any(trace.diverged for trace in many)


def test_no_runs():
    assert run_many(default_feedforward_scenario(duration_s=2.0, prefix_s=1.0, n_taps=4), []) == []
