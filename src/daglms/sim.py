"""Experiment scenarios and metrics.

Two desk-scale loops: a system-identification setup (tapped-delay regressor
against a known target vector) and a feedforward noise-cancellation setup
with synthetic primary/secondary paths, a filtered regressor and an
open-loop prefix. Plus block attenuation and time-to-threshold metrics.
Runs are deterministic given the scenario, policy, configuration and seed.
"""

from __future__ import annotations

import contextlib
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .adapt import AdaptState, DivergenceError, StepSizePolicy
from .dsp_core import NoiseSpec, Polynomial, TransferOperator, gen_noise, poly_mul, windowed_variance
from .spr_design import DagConfig, _unit_circle_grid, is_spr_numeric, ratio_transfer

DEFAULT_ATTEN_WINDOW_S = 3.0
ATTEN_CLAMP_DB = 120.0

# entropy tail for the measurement-noise stream, kept distinct from the
# disturbance stream that uses the bare scenario seed
_MEAS_NOISE_STREAM = 109


class RunDiverged(RuntimeError):
    """Adaptation diverged inside a scenario run; carries the partial trace."""

    def __init__(self, step: int, trace: "RunTrace"):
        super().__init__(f"run diverged at step {step}")
        self.step = step
        self.trace = trace


@dataclass
class ScenarioConfig:
    """Inputs of one experiment run.

    ``kind`` selects the loop: ``sysid`` needs ``true_params``;
    ``feedforward`` needs the primary and secondary paths (the secondary
    model defaults to the secondary path itself, and the regressor filter
    defaults to the secondary model).
    """

    kind: str
    noise: NoiseSpec
    n_adaptive_params: int
    duration_samples: int
    true_params: np.ndarray | None = None
    primary_path: TransferOperator | None = None
    secondary_path: TransferOperator | None = None
    secondary_model: TransferOperator | None = None
    regressor_filter: TransferOperator | None = None
    measurement_noise_rms: float = 0.0
    open_loop_prefix_samples: int = 0

    def __post_init__(self):
        if self.kind not in ("sysid", "feedforward"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.n_adaptive_params < 1:
            raise ValueError("n_adaptive_params must be at least 1")
        if self.open_loop_prefix_samples < 0:
            raise ValueError("open_loop_prefix_samples must be non-negative")
        if not self.measurement_noise_rms >= 0.0:  # NaN included
            raise ValueError("measurement_noise_rms must be non-negative")
        if self.duration_samples <= self.open_loop_prefix_samples:
            raise ValueError("duration must exceed the open-loop prefix")
        if self.kind == "sysid":
            if self.true_params is None:
                raise ValueError("sysid scenario needs true_params")
            self.true_params = np.asarray(self.true_params, dtype=float)
            if self.true_params.size != self.n_adaptive_params:
                raise ValueError("n_adaptive_params must match true_params length")
        else:
            if self.primary_path is None or self.secondary_path is None:
                raise ValueError("feedforward scenario needs primary and secondary paths")


@dataclass
class RunTrace:
    """Per-step records of one run plus run-level flags."""

    sample_rate_hz: float
    open_loop_prefix_samples: int
    e0: np.ndarray
    e_post: np.ndarray
    residual: np.ndarray
    param_err: np.ndarray
    diverged: bool = False
    divergence_step: int | None = None
    wall_time_s: float = 0.0
    spr_ok: bool | None = None
    atten_db: np.ndarray | None = None
    atten_clamped: np.ndarray | None = None
    atten_window_samples: int | None = None
    theta_final: np.ndarray | None = None


def _empty_trace(scn: ScenarioConfig) -> RunTrace:
    T = scn.duration_samples
    return RunTrace(
        sample_rate_hz=scn.noise.sample_rate_hz,
        open_loop_prefix_samples=scn.open_loop_prefix_samples,
        e0=np.full(T, np.nan),
        e_post=np.full(T, np.nan),
        residual=np.full(T, np.nan),
        param_err=np.full(T, np.nan),
    )


def _measured(scn: ScenarioConfig, x: np.ndarray) -> np.ndarray:
    """The signal at the sensor, plus the scenario's measurement noise."""
    if scn.measurement_noise_rms > 0.0:
        rng = np.random.default_rng([scn.noise.seed, _MEAS_NOISE_STREAM])
        x = x + scn.measurement_noise_rms * rng.standard_normal(scn.duration_samples)
    return x


def _adapt_loop(trace, state, desired, regressor, regressor_f, path_step, prefix, target) -> None:
    """The per-sample loop of both scenarios; fills ``trace``.

    The output ``effective_estimate . phi`` over the delay line of ``regressor``
    passes through ``path_step`` and is subtracted from ``desired``; the update
    uses the delay line of ``regressor_f``. Nothing adapts in the first
    ``prefix`` samples; ``param_err`` is filled when ``target`` is given.
    """
    n, T = state.n_params, desired.size
    # r[T-1-t:][:n] is (v[t], v[t-1], ..., v[t-n+1]) with zeros before the start:
    # a contiguous forward slice, which BLAS sums in the order of a delay line
    pad = np.zeros(n - 1)
    rev, rev_f = (np.concatenate((pad, v))[::-1].copy() for v in (regressor, regressor_f))
    x = desired.tolist()
    estimate, step = state.effective_estimate, state._step
    errors, posts, param_errs = [], [], []
    started = time.perf_counter()
    trace.residual[:prefix] = desired[:prefix]
    try:
        for t in range(prefix, T):
            k = T - 1 - t
            # the compensator runs the same effective estimate the update
            # law predicts with, so the measured residual is its a-priori error
            base = estimate()
            y = float(np.dot(base, rev[k:k + n]))
            e0 = x[t] - path_step(y)
            posts.append(step(rev_f[k:k + n], e0, base))
            errors.append(e0)
            if target is not None:
                diff = target - state.theta
                param_errs.append(math.sqrt(float(np.dot(diff, diff))))
    except DivergenceError as exc:
        trace.diverged = True
        trace.divergence_step = exc.step
        raise RunDiverged(exc.step, trace) from exc
    finally:
        trace.wall_time_s = time.perf_counter() - started
        trace.theta_final = state.theta.copy()
        stop = prefix + len(errors)
        trace.e0[prefix:stop] = trace.residual[prefix:stop] = errors
        if state.policy.kind == "posterior":
            trace.e_post[prefix:stop] = posts
        if target is not None:
            trace.param_err[prefix:stop] = param_errs


def run_sysid(
    scn: ScenarioConfig,
    policy: StepSizePolicy,
    cfg: DagConfig | None = None,
) -> RunTrace:
    """Identify ``scn.true_params`` from noisy input/output data.

    The regressor is the tapped delay line of the generated input; the
    desired output is the target filter's response plus optional
    measurement noise. Divergence raises :class:`RunDiverged` carrying the
    partial trace.
    """
    if scn.kind != "sysid":
        raise ValueError("scenario kind must be 'sysid'")
    d = gen_noise(scn.noise, scn.duration_samples)
    x = _measured(scn, np.convolve(scn.true_params, d)[: d.size])
    trace = _empty_trace(scn)
    state = AdaptState(scn.n_adaptive_params, policy, cfg)
    _adapt_loop(trace, state, x, d, d, float, 0, scn.true_params)  # float: no path
    return trace


def _screen_path_ratio(g: TransferOperator, g_model: TransferOperator) -> bool:
    """SPR screen of the secondary path over its model; warns, never fatal."""
    try:
        verdict = is_spr_numeric(ratio_transfer(g, g_model))
    except (ValueError, RuntimeError) as exc:
        warnings.warn(f"could not verify the secondary path ratio: {exc}", stacklevel=3)
        return False
    if not verdict.is_spr:
        warnings.warn(
            "secondary path over its model is not strictly positive real "
            f"(min real part {verdict.min_real_part:.3g}); adaptation may degrade",
            stacklevel=3,
        )
    return verdict.is_spr


def run_feedforward(
    scn: ScenarioConfig,
    policy: StepSizePolicy,
    cfg: DagConfig | None = None,
) -> RunTrace:
    """Adaptive feedforward cancellation of a filtered disturbance.

    The disturbance drives the primary path to produce the uncontrolled
    residual. An adaptive FIR filter fed by the raw disturbance produces
    the compensation signal, filtered through the secondary path and
    subtracted at the error point; the update uses the regressor filtered
    through the regressor filter (defaulting to the secondary-path model).
    During the open-loop prefix the compensator is disconnected and no
    adaptation happens. A block attenuation series at the default window is
    attached when one full window fits the prefix and the controlled span.
    """
    if scn.kind != "feedforward":
        raise ValueError("scenario kind must be 'feedforward'")
    T = scn.duration_samples
    prefix = scn.open_loop_prefix_samples
    w = gen_noise(scn.noise, T)
    x = _measured(scn, scn.primary_path.fresh().filter_signal(w))
    g_model = scn.secondary_model if scn.secondary_model is not None else scn.secondary_path
    reg_filter = scn.regressor_filter if scn.regressor_filter is not None else g_model

    trace = _empty_trace(scn)
    trace.spr_ok = _screen_path_ratio(scn.secondary_path, g_model)
    state = AdaptState(scn.n_adaptive_params, policy, cfg)
    g = scn.secondary_path.fresh()
    g.filter_signal(np.zeros(prefix))  # silence while the compensator is disconnected
    w_f = reg_filter.fresh().filter_signal(w)
    _adapt_loop(trace, state, x, w, w_f, g.filter_step, prefix, None)
    with contextlib.suppress(ValueError):  # no full window fits
        attenuation_db(trace, DEFAULT_ATTEN_WINDOW_S)
    return trace


def attenuation_db(
    trace: RunTrace,
    window_seconds: float = DEFAULT_ATTEN_WINDOW_S,
    sample_rate_hz: float | None = None,
) -> np.ndarray:
    """Block attenuation of the controlled residual, in dB.

    ``10 log10(var_open / var_controlled)`` per non-overlapping window of
    the controlled span, with the open-loop variance taken over the whole
    open-loop prefix. Zero controlled variance clamps at +120 dB with the
    companion ``atten_clamped`` mask set; a silent run (both variances
    zero) reads 0 dB. The series is stored on the trace and returned; a window
    that does not fit both the prefix and the controlled span raises ValueError.
    """
    fs = float(sample_rate_hz if sample_rate_hz is not None else trace.sample_rate_hz)
    win = int(round(window_seconds * fs))
    if win < 1:
        raise ValueError("window must cover at least one sample")
    prefix = trace.open_loop_prefix_samples
    if prefix < win:
        raise ValueError("open-loop prefix shorter than one window")
    if trace.residual.size - prefix < win:
        raise ValueError("no full controlled window in the trace")
    var_open = float(trace.residual[:prefix].var())
    var_ctrl = windowed_variance(trace.residual[prefix:], win, mode="block")
    quiet = var_ctrl == 0.0
    db = np.zeros(var_ctrl.size)
    if var_open > 0.0:
        db[~quiet] = 10.0 * np.log10(var_open / var_ctrl[~quiet])
        db[quiet] = ATTEN_CLAMP_DB
        clamped = quiet
    else:
        db[~quiet] = -ATTEN_CLAMP_DB
        clamped = ~quiet
    trace.atten_db = db
    trace.atten_clamped = clamped
    trace.atten_window_samples = win
    return db


def time_to_threshold(trace_or_series, threshold_db: float) -> int | None:
    """First attenuation-window index at or above the threshold, sustained.

    A crossing counts only when the following window also meets the
    threshold. Returns None when never reached (or never sustained).
    """
    if isinstance(trace_or_series, RunTrace):
        if trace_or_series.atten_db is None:
            raise ValueError("attenuation series not computed on this trace")
        series = trace_or_series.atten_db
    else:
        series = np.asarray(trace_or_series, dtype=float)
    for i in range(series.size - 1):
        if series[i] >= threshold_db and series[i + 1] >= threshold_db:
            return i
    return None


# --------------------------------------------------------------------------
# Synthetic paths and default scenarios
# --------------------------------------------------------------------------

def resonant_section(f0_hz: float, radius: float, sample_rate_hz: float) -> Polynomial:
    """Denominator of a single resonator: conjugate poles at the given radius."""
    w = 2.0 * math.pi * f0_hz / sample_rate_hz
    return Polynomial((1.0, -2.0 * radius * math.cos(w), radius * radius))


def _normalized_peak(num: Polynomial, den: Polynomial) -> TransferOperator:
    h = TransferOperator(num, den)
    _, z_inv = _unit_circle_grid(4096)
    peak = float(np.max(np.abs(h.response_at(z_inv))))
    return TransferOperator(Polynomial(tuple(c / peak for c in num.coeffs)), den)


def make_primary_path(sample_rate_hz: float = 2500.0) -> TransferOperator:
    """Lightly damped 4th-order path carrying the disturbance to the sensor."""
    den = poly_mul(
        resonant_section(95.0, 0.94, sample_rate_hz),
        resonant_section(120.0, 0.88, sample_rate_hz),
    )
    num = Polynomial((1.0, 0.2))
    return _normalized_peak(num, den)


def make_secondary_path(sample_rate_hz: float = 2500.0) -> TransferOperator:
    """Lightly damped 4th-order path from the compensator to the sensor."""
    den = poly_mul(
        resonant_section(85.0, 0.93, sample_rate_hz),
        resonant_section(140.0, 0.90, sample_rate_hz),
    )
    num = poly_mul(Polynomial((1.0, -0.3)), Polynomial((1.0, 0.4)))
    return _normalized_peak(num, den)


def make_mismatched_model(sample_rate_hz: float = 2500.0) -> TransferOperator:
    """Deliberately wrong secondary-path model for the SPR warning path.

    Shifted resonances plus a non-minimum-phase numerator zero, a common
    identification failure; the path-over-model ratio is then far from
    strictly positive real.
    """
    den = poly_mul(
        resonant_section(78.0, 0.88, sample_rate_hz),
        resonant_section(152.0, 0.86, sample_rate_hz),
    )
    num = poly_mul(Polynomial((1.0, -1.25)), Polynomial((1.0, 0.4)))
    return _normalized_peak(num, den)


def default_feedforward_scenario(
    seed: int = 20260810,
    duration_s: float = 60.0,
    prefix_s: float = 15.0,
    n_taps: int = 60,
    sample_rate_hz: float = 2500.0,
    amplitude: float = 0.006,
    mismatched_model: bool = False,
) -> ScenarioConfig:
    """Broadband 70-170 Hz cancellation scenario with synthetic paths."""
    noise = NoiseSpec(
        kind="bandpass",
        sample_rate_hz=sample_rate_hz,
        band_low_hz=70.0,
        band_high_hz=170.0,
        seed=seed,
        amplitude=amplitude,
    )
    model = make_mismatched_model(sample_rate_hz) if mismatched_model else None
    return ScenarioConfig(
        kind="feedforward",
        noise=noise,
        n_adaptive_params=n_taps,
        duration_samples=int(round(duration_s * sample_rate_hz)),
        primary_path=make_primary_path(sample_rate_hz),
        secondary_path=make_secondary_path(sample_rate_hz),
        secondary_model=model,
        open_loop_prefix_samples=int(round(prefix_s * sample_rate_hz)),
    )
