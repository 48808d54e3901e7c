"""Engine tests: the compiled kernel, through ``run_many``, ``run_sysid`` and
``run_feedforward``, keeps the bits of the Python loop ``sim._adapt_loop``, and
falls back to that loop wherever it cannot build or load."""

import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import daglms
from daglms import (
    PRESET_ORDER,
    DagConfig,
    NoiseSpec,
    RunDiverged,
    ScenarioConfig,
    StepSizePolicy,
    TransferOperator,
    _kernel,
    make_preset,
    run_feedforward,
    run_many,
    run_sysid,
    sim,
)
from daglms.sim import default_feedforward_scenario

FIELDS = ("e0", "e_post", "residual", "param_err", "atten_db", "atten_clamped", "theta_final")


def bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def single(run, *args):
    try:
        return run(*args)
    except RunDiverged as exc:
        return exc.trace


def oracle(scn, policy, cfg):
    """The run through the Python loop ``sim._adapt_loop``, on signals of its own."""
    with mock.patch.object(_kernel, "load", return_value=None):
        trace = single(sim._run, scn, sim._signals(scn), policy, cfg)
    assert trace.engine == "python"
    return trace


def assert_same_trace(got, want, label):
    for field in FIELDS:
        assert bits(getattr(got, field)) == bits(getattr(want, field)), (label, field)
    assert (got.diverged, got.divergence_step) == (want.diverged, want.divergence_step), label
    assert (got.spr_ok, got.atten_window_samples, got.open_loop_prefix_samples) == (
        want.spr_ok, want.atten_window_samples, want.open_loop_prefix_samples
    ), label


def host_engine():
    """The engine that runs here: the kernel wherever it builds (the CI workflow
    checks that it does), so these tests also hold on a host without a compiler."""
    return "kernel" if _kernel.load() is not None else "python"


def assert_same_runs(scn, runs, run, engine=None):
    """Each trace of ``run_many`` and of the single-run call ``run`` equals, bit for
    bit, the Python loop's on the same signals, and came from ``engine`` (default:
    the host's)."""
    engine = engine or host_engine()
    many = run_many(scn, runs)
    assert len(many) == len(runs)
    for (policy, cfg), got in zip(runs, many):
        want = oracle(scn, policy, cfg)
        for trace in (got, single(run, scn, policy, cfg)):
            assert_same_trace(trace, want, (policy, cfg))
            assert trace.engine == engine
    return many


def sweep(gains):
    return [(getattr(StepSizePolicy, algo)(mu), make_preset(p)) for algo, mu in gains for p in PRESET_ORDER]


@pytest.mark.parametrize("n", [12, 16, 60, 61])
@pytest.mark.parametrize("B", [1, 3, 15])
def test_stacked_matmul_gives_dot_bits(n, B):
    """Each row of a stacked ``(B, n)`` block, as the kernel's history block is, gives
    ``np.dot``'s bits through a stacked ``matmul`` and through the kernel's dot product,
    against a slice of a longer signal (as a delay line is) and against itself."""
    kernel = _kernel.load()
    rng = np.random.default_rng([n, B])
    for _ in range(50):
        base = rng.standard_normal((B, n)) * rng.uniform(1e-3, 1e3)
        phi = rng.standard_normal(n + 7)[3:3 + n]  # a slice of a longer signal, as a delay line is
        shared = np.matmul(base[:, None, :], phi[:, None])[:, 0, 0]
        own = np.matmul(base[:, None, :], base[:, :, None])[:, 0, 0]
        assert bits(shared) == bits(np.array([np.dot(row, phi) for row in base]))
        assert bits(own) == bits(np.array([np.dot(row, row) for row in base]))
        if kernel is not None:
            for row, s, o in zip(base, shared, own):
                assert kernel._dot(kernel._ddot, n, row.ctypes.data, phi.ctypes.data).hex() == float(s).hex()
                assert kernel._dot(kernel._ddot, n, row.ctypes.data, row.ctypes.data).hex() == float(o).hex()


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


def sysid_scenario(n=16, duration=2000):
    rng = np.random.default_rng(7)
    return ScenarioConfig(
        kind="sysid",
        noise=NoiseSpec(kind="white", seed=5),
        n_adaptive_params=n,
        duration_samples=duration,
        true_params=0.5 * rng.standard_normal(n),
        measurement_noise_rms=0.01,
    )


def test_sysid_sweep_matches_single_runs():
    """``param_err`` included; arima2 and conj_nesterov diverge at plms(0.05), and a
    filter with ``d[0] < 1`` sums every ``c`` weight."""
    scn = sysid_scenario()
    runs = sweep([("lms", 0.01), ("nlms", 0.2), ("plms", 0.05)])
    runs += [(StepSizePolicy.nlms(0.2), DagConfig((0.3,), (-0.5,))), (StepSizePolicy.lms(0.01), None)]
    many = assert_same_runs(scn, runs, run_sysid)
    assert 0 < sum(trace.diverged for trace in many) < len(runs)


SHAPES = {
    "sysid": (lambda n: sysid_scenario(n, 400), run_sysid),
    "feedforward": (lambda n: default_feedforward_scenario(duration_s=0.24, prefix_s=0.08, n_taps=n), run_feedforward),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_length_matches_the_python_loop(shape):
    """n = 1...64 and 128 taps: ``ddot``'s kernels change with n, and n = 1 is
    ``np.dot``'s plain product."""
    make, run = SHAPES[shape]
    runs = [
        (StepSizePolicy.lms(0.01), make_preset("integral")),
        (StepSizePolicy.nlms(0.2), make_preset("arima2")),
        (StepSizePolicy.plms(0.05), make_preset("ipd")),
    ]
    for n in [*range(1, 65), 128]:
        assert_same_runs(make(n), runs, run)


@pytest.mark.parametrize(
    "num, den",
    [((-0.7,), None), ((1.0, 1.0), None), ((0.5, 0.2, -0.1), (1.0, -1.1, 0.3)), ((0.0, 1.0), (1.0, -0.5, 0.2))],
    ids=["gain", "fir", "iir", "delayed-iir"],
)
def test_secondary_path_orders_match_the_python_loop(num, den):
    """The kernel steps a path of order 0, 1 and 2 as ``TransferOperator.filter_step`` does."""
    path = TransferOperator(num, den)
    scn = ScenarioConfig(
        "feedforward", NoiseSpec(kind="white", seed=3), 8, 1500,
        primary_path=TransferOperator((1.0, 0.5)), secondary_path=path, open_loop_prefix_samples=300,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the SPR screen of a delayed path
        assert_same_runs(scn, sweep([("nlms", 0.05)]), run_feedforward)


def test_one_diverging_run_returns_its_partial_trace():
    """``run_many`` of a single diverging run raises nothing."""
    [trace] = assert_same_runs(sysid_scenario(), [(StepSizePolicy.plms(0.05), make_preset("arima2"))], run_sysid)
    assert trace.diverged
    stop = trace.divergence_step - 1  # the diverging step stores no error
    assert not np.isnan(trace.e0[:stop]).any() and np.isnan(trace.e0[stop:]).all()


def test_divergence_keeps_the_norm(monkeypatch):
    """``RunDiverged`` carries the estimate norm that failed the check, the same from either engine."""
    args = (sysid_scenario(), StepSizePolicy.plms(0.05), make_preset("arima2"))
    engine = host_engine()
    with pytest.raises(RunDiverged) as kernel_run:
        run_sysid(*args)
    monkeypatch.setattr(sim._kernel, "load", lambda: None)
    with pytest.raises(RunDiverged) as python_run:
        run_sysid(*args)
    assert (kernel_run.value.trace.engine, python_run.value.trace.engine) == (engine, "python")
    assert kernel_run.value.step == python_run.value.step
    assert kernel_run.value.norm.hex() == python_run.value.norm.hex()
    assert not kernel_run.value.norm <= daglms.adapt.DIVERGENCE_LIMIT
    assert str(kernel_run.value) == f"run diverged at step {kernel_run.value.step}"


def test_silent_disturbance_matches_single_runs():
    """A zero disturbance: every error is a signed zero, kept as the single run signs it."""
    scn = default_feedforward_scenario(duration_s=4.0, prefix_s=1.0, n_taps=8, amplitude=0.0)
    assert_same_runs(scn, sweep([("lms", 0.2), ("nlms", 0.0002), ("plms", 0.22)]), run_feedforward)


@pytest.mark.filterwarnings("ignore:could not verify the secondary path ratio:UserWarning")
@pytest.mark.parametrize("kind, taps", [("sysid", 1), ("sysid", 2), ("sysid", 8), ("feedforward", 1), ("feedforward", 2)])
def test_silent_input_keeps_signed_zeros(kind, taps):
    """Zero input of both signs: with one tap, ``np.dot`` signs a product of zeros
    (``0.0 * -0.0`` is -0.0) where a BLAS sum from +0.0 would not, and one-sample
    delay paths carry that sign into ``e0``."""
    noise = NoiseSpec(kind="white", seed=0, amplitude=0.0)
    if kind == "sysid":
        scn = ScenarioConfig(kind, noise, taps, 1000, true_params=np.linspace(-0.5, 0.5, taps))
        run = run_sysid
    else:
        delay = TransferOperator((0.0, 1.0))
        scn = ScenarioConfig(kind, noise, taps, 400, primary_path=delay, secondary_path=delay, open_loop_prefix_samples=50)
        run = run_feedforward
    assert_same_runs(scn, sweep([("lms", 0.2), ("nlms", 0.1), ("plms", 0.22)]), run)


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


def fail(*args):
    raise OSError("no compiler here")


@pytest.mark.parametrize(
    "name, value, reason",
    [
        ("_build", fail, "no compiler here"),  # no compiler, or the build failed
        ("_DDOT", "no_such_ddot", "no_such_ddot"),  # a NumPy on another BLAS
        ("_DDOT", "scipy_cblas_dasum64_", "where np.dot gives"),  # a BLAS call with other bits
    ],
    ids=["build", "symbol", "self-check"],
)
def test_fallback_gives_the_same_bytes(monkeypatch, caplog, name, value, reason):
    """Where the kernel cannot load, runs take the Python loop, with the same bytes,
    and the reason is logged once."""
    scn = default_feedforward_scenario(duration_s=2.0, prefix_s=0.5, n_taps=12, mismatched_model=True)
    runs = sweep([("lms", 2.0), ("nlms", 0.01), ("plms", 3.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        engine, compiled = host_engine(), run_many(scn, runs)
        monkeypatch.setattr(_kernel, name, value)
        monkeypatch.setattr(_kernel, "_kernel", None)
        with caplog.at_level(logging.DEBUG, logger="daglms._kernel"):
            fallback = assert_same_runs(scn, runs, run_feedforward, engine="python")
    [record] = caplog.records
    assert record.getMessage().startswith("running the Python adaptation loop")
    assert reason in record.getMessage() or engine == "python"  # where nothing builds, the build fails first
    assert any(trace.diverged for trace in fallback)
    for got, want in zip(fallback, compiled):
        assert want.engine == engine
        assert_same_trace(got, want, "fallback")


def test_unwritable_cache_still_runs(monkeypatch, tmp_path):
    """A cache directory that cannot be made: the run takes the Python loop."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    monkeypatch.setattr(_kernel, "_kernel", None)
    [trace] = assert_same_runs(sysid_scenario(), [(StepSizePolicy.nlms(0.2), make_preset("ipd"))], run_sysid, "python")
    assert not trace.diverged and trace.param_err[-1] < 0.05


def test_cached_build_is_reused(monkeypatch, tmp_path):
    """A second process finds the build in the cache, named by the source, flags and compiler."""
    if host_engine() != "kernel":
        pytest.skip("the kernel does not build on this host")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = _kernel._build()
    assert path.parent == tmp_path / "daglms" and path.name.startswith("_kernel-")
    assert (path.parent.stat().st_mode & 0o777) == 0o700
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temporary file left
    built = path.stat()
    assert _kernel._build() == path
    assert (path.stat().st_ino, path.stat().st_mtime_ns) == (built.st_ino, built.st_mtime_ns)
    monkeypatch.setattr(_kernel, "_kernel", None)
    assert _kernel.load() is not None


def test_import_and_design_commands_leave_the_kernel_unbuilt(tmp_path):
    """``import daglms`` and ``check``/``contour``/``bode`` neither build nor load the kernel."""
    src = str(Path(daglms.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
    }
    out = tmp_path / "out"
    code = (
        "import sys, daglms; from daglms import _kernel, cli\n"
        "assert 'hashlib' not in sys.modules\n"
        f"for argv in (['check'], ['contour', '--d1p', '0.5', '--c1-step', '0.5'], ['bode', '--grid', '256']):\n"
        f"    assert cli.main([*argv, '--out', {str(out)!r}]) == 0\n"
        "assert _kernel._kernel is None\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)
    assert not (tmp_path / "cache").exists()
