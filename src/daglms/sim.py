"""Experiment scenarios and metrics.

Two desk-scale loops: a system-identification setup (tapped-delay regressor
against a known target vector) and a feedforward noise-cancellation setup
with synthetic primary/secondary paths, a filtered regressor and an
open-loop prefix. Plus block attenuation and time-to-threshold metrics.
Runs are deterministic given the scenario, policy, configuration and seed.
"""

from __future__ import annotations

import contextlib
import copy
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .adapt import AdaptState, DivergenceError, StepSizePolicy
from .dsp_core import NoiseSpec, Polynomial, TransferOperator, gen_noise, poly_mul, windowed_variance
from .spr_design import DagConfig, _unit_circle_grid, is_spr_numeric, ratio_transfer

DEFAULT_ATTEN_WINDOW_S = 3.0
ATTEN_CLAMP_DB = 120.0

# entropy tail for the measurement-noise stream, kept distinct from the
# disturbance stream that uses the bare scenario seed
_MEAS_NOISE_STREAM = 109


class RunDiverged(RuntimeError):
    """Adaptation diverged inside a scenario run; carries the partial trace and the
    estimate norm that failed the divergence check."""

    def __init__(self, step: int, trace: "RunTrace", norm: float):
        super().__init__(f"run diverged at step {step}")
        self.step = step
        self.trace = trace
        self.norm = norm


@dataclass
class ScenarioConfig:
    """Inputs of one experiment run.

    ``kind`` selects the loop: ``sysid`` needs ``true_params`` and adapts
    from sample 0, so it takes no open-loop prefix;
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
            if self.open_loop_prefix_samples:
                raise ValueError("open_loop_prefix_samples must be 0 for a sysid scenario, which adapts from sample 0")
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
    """Per-step records of one run plus run-level flags; ``engine`` names the loop
    that ran it, ``"kernel"`` (compiled) or ``"python"``, which give the same bits."""

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
    engine: str = "python"


def _measured(scn: ScenarioConfig, x: np.ndarray) -> np.ndarray:
    """The signal at the sensor, plus the scenario's measurement noise."""
    if scn.measurement_noise_rms > 0.0:
        rng = np.random.default_rng([scn.noise.seed, _MEAS_NOISE_STREAM])
        x = x + scn.measurement_noise_rms * rng.standard_normal(scn.duration_samples)
    return x


def _delay_line(v: np.ndarray, n: int) -> np.ndarray:
    # r[T-1-t:][:n] is (v[t], v[t-1], ..., v[t-n+1]) with zeros before the start:
    # a contiguous forward slice, which BLAS sums in the order of a delay line
    return np.concatenate((np.zeros(n - 1), v))[::-1].copy()


@dataclass
class _Signals:
    """What a scenario feeds each of its runs, built once per call.

    The compensator output ``estimate . phi`` over the delay line ``rev`` passes
    through ``path`` (None: no path), whose state each run copies as the
    open-loop prefix left it, and is subtracted from ``desired``; the
    update uses the delay line ``rev_f``. Nothing adapts in the first ``prefix``
    samples; ``param_err`` is filled when ``target`` is given.
    """

    desired: np.ndarray
    rev: np.ndarray
    rev_f: np.ndarray
    path: TransferOperator | None
    prefix: int
    target: np.ndarray | None
    spr_ok: bool | None


def _signals(scn: ScenarioConfig) -> _Signals:
    n, T = scn.n_adaptive_params, scn.duration_samples
    if scn.kind == "sysid":
        d = gen_noise(scn.noise, T)
        x = _measured(scn, np.convolve(scn.true_params, d)[:T])
        rev = _delay_line(d, n)
        return _Signals(x, rev, rev, None, 0, np.ascontiguousarray(scn.true_params), None)
    prefix = scn.open_loop_prefix_samples
    w = gen_noise(scn.noise, T)
    x = _measured(scn, scn.primary_path.fresh().filter_signal(w))
    g_model = scn.secondary_model if scn.secondary_model is not None else scn.secondary_path
    reg_filter = scn.regressor_filter if scn.regressor_filter is not None else g_model
    spr_ok = _screen_path_ratio(scn.secondary_path, g_model)
    g = scn.secondary_path.fresh()
    g.filter_signal(np.zeros(prefix))  # silence while the compensator is disconnected
    w_f = reg_filter.fresh().filter_signal(w)
    return _Signals(x, _delay_line(w, n), _delay_line(w_f, n), g, prefix, None, spr_ok)


def _shared_nan(sig: _Signals) -> np.ndarray:
    """A read-only all-NaN record, for the records that a run never writes."""
    nan = np.full(sig.desired.size, np.nan)
    nan.flags.writeable = False
    return nan


def _adapt_loop(state: AdaptState, sig: _Signals, trace: RunTrace) -> tuple[int, float]:
    """The per-sample loop of one run, in Python: the fallback and the oracle of the
    compiled kernel, whose :meth:`~daglms._kernel.Kernel.adapt` runs the same steps.

    Records ``e0``, ``e_post`` (posterior rule) and ``param_err`` (with a target)
    into ``trace`` from ``sig.prefix`` on; returns the diverging step, 0 if none,
    and the estimate norm that failed the divergence check.
    """
    n, T, prefix, target = state.n_params, sig.desired.size, sig.prefix, sig.target
    rev, rev_f = sig.rev, sig.rev_f
    path_step = copy.deepcopy(sig.path).filter_step if sig.path is not None else float
    estimate, step = state.effective_estimate, state._step
    e0_rec, e_post, param_err = trace.e0, trace.e_post, trace.param_err
    try:
        for t, x in zip(range(prefix, T), sig.desired[prefix:].tolist()):
            k = T - 1 - t
            # the compensator runs the same effective estimate the update
            # law predicts with, so the measured residual is its a-priori error
            base = estimate()
            y = float(np.dot(base, rev[k:k + n]))
            e0 = x - path_step(y)
            post = step(rev_f[k:k + n], e0, base)
            e0_rec[t] = e0
            if post is not None:
                e_post[t] = post
            if target is not None:
                diff = target - state.theta
                param_err[t] = math.sqrt(float(np.dot(diff, diff)))
    except DivergenceError as exc:
        return exc.step, exc.norm
    return 0, math.nan


def _run(scn: ScenarioConfig, sig: _Signals, policy: StepSizePolicy, cfg: DagConfig | None, nan=None) -> RunTrace:
    """One run on ``sig``, through the compiled kernel where it loads, else through
    :func:`_adapt_loop`, with the same bits.

    The residual is the measured signal before ``sig.prefix`` and ``e0`` from there
    on, and a feedforward run that does not diverge gets its attenuation series at
    the default window, if one full window fits. Divergence raises
    :class:`RunDiverged` with the partial trace. A record the run never writes is
    ``nan``, a read-only all-NaN array (default: a new one).
    """
    T, prefix = sig.desired.size, sig.prefix
    nan = _shared_nan(sig) if nan is None else nan
    trace = RunTrace(
        sample_rate_hz=scn.noise.sample_rate_hz,
        open_loop_prefix_samples=prefix,
        e0=np.full(T, np.nan),
        e_post=np.full(T, np.nan) if policy.kind == "posterior" else nan,
        residual=np.full(T, np.nan),
        param_err=np.full(T, np.nan) if sig.target is not None else nan,
        spr_ok=sig.spr_ok,
    )
    state = AdaptState(scn.n_adaptive_params, policy, cfg)
    kernel = _kernel.load()
    started = time.perf_counter()
    step, norm = kernel.adapt(state, sig, trace) if kernel else _adapt_loop(state, sig, trace)
    trace.wall_time_s = time.perf_counter() - started
    trace.engine = "kernel" if kernel else "python"
    trace.theta_final = state.theta.copy()
    stop = prefix + step - 1 if step else T  # the diverging step stores nothing
    trace.residual[:prefix] = sig.desired[:prefix]
    trace.residual[prefix:stop] = trace.e0[prefix:stop]
    if step:
        trace.diverged, trace.divergence_step = True, step
        raise RunDiverged(step, trace, norm)
    if sig.path is not None:  # only a feedforward run has a path
        with contextlib.suppress(ValueError):  # no full window fits
            attenuation_db(trace, DEFAULT_ATTEN_WINDOW_S)
    return trace


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
    return _run(scn, _signals(scn), policy, cfg)


def _screen_path_ratio(g: TransferOperator, g_model: TransferOperator) -> bool:
    """SPR screen of the secondary path over its model; warns, never fatal."""
    try:
        verdict = is_spr_numeric(ratio_transfer(g, g_model))
    except (ValueError, RuntimeError) as exc:
        warnings.warn(f"could not verify the secondary path ratio: {exc}", stacklevel=4)
        return False
    if not verdict.is_spr:
        warnings.warn(
            "secondary path over its model is not strictly positive real "
            f"(min real part {verdict.min_real_part:.3g}); adaptation may degrade",
            stacklevel=4,
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
    return _run(scn, _signals(scn), policy, cfg)


def run_many(scn: ScenarioConfig, runs) -> list[RunTrace]:
    """Run each ``(policy, cfg)`` pair of ``runs`` on ``scn``, one after another.

    Returns one trace per pair, in order, each with the bits that
    :func:`run_sysid` or :func:`run_feedforward` gives that pair. The signals
    and the secondary-path SPR screen are built once and shared, and so is the
    read-only all-NaN array that stands for every record a run never writes
    (``e_post`` of a non-posterior rule, ``param_err`` of a feedforward
    scenario). A diverged run is returned with ``diverged=True`` and its partial
    trace, as :class:`RunDiverged` carries it, and the other runs go on;
    nothing is raised.
    """
    sig = _signals(scn)
    nan = _shared_nan(sig)
    traces = []
    for policy, cfg in runs:
        try:
            traces.append(_run(scn, sig, policy, cfg, nan))
        except RunDiverged as exc:  # the trace keeps the partial run
            traces.append(exc.trace)
    return traces


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
    win = window_seconds * fs
    if not 0.5 < win < math.inf:  # NaN included; round(win) >= 1 exactly when win > 0.5
        raise ValueError("window must cover at least one sample and a finite number of them")
    win = int(round(win))
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
