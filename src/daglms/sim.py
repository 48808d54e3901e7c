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
import pickle
import threading
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
    from sample 0, so it takes no open-loop prefix and no path;
    ``feedforward`` needs the primary and secondary paths (the secondary
    model defaults to the secondary path itself, and the regressor filter
    defaults to the secondary model) and takes no ``true_params``. A field
    that the kind would ignore is an error naming it.
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
            for field in ("primary_path", "secondary_path", "secondary_model", "regressor_filter"):
                if getattr(self, field) is not None:
                    raise ValueError(f"{field} must be unset for a sysid scenario, which runs no path")
            if self.true_params is None:
                raise ValueError("sysid scenario needs true_params")
            self.true_params = np.asarray(self.true_params, dtype=float)
            if self.true_params.size != self.n_adaptive_params:
                raise ValueError("n_adaptive_params must match true_params length")
        else:
            if self.true_params is not None:
                raise ValueError("true_params must be unset for a feedforward scenario, which has no target")
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
    """What a scenario feeds each of its runs, built once per scenario.

    The compensator output ``estimate . phi`` over the delay line ``rev`` passes
    through ``path`` (None: no path), whose state each run copies as the
    open-loop prefix left it, and is subtracted from ``desired``; the
    update uses the delay line ``rev_f``. Nothing adapts in the first ``prefix``
    samples; ``param_err`` is filled when ``target`` is given. ``nan`` is the
    all-NaN record that every run shares for the records it never
    writes (``e_post`` of a non-posterior rule, ``param_err`` without a target).
    Every array is read-only and private to these signals. ``spr_ok`` is the
    secondary-path SPR screen's verdict and ``warning`` the warning it calls for,
    None where it passes.
    """

    desired: np.ndarray
    rev: np.ndarray
    rev_f: np.ndarray
    path: TransferOperator | None
    prefix: int
    target: np.ndarray | None
    spr_ok: bool | None
    warning: str | None
    nan: np.ndarray

    def __post_init__(self):
        for v in (self.desired, self.rev, self.rev_f, self.target, self.nan):
            if v is not None:
                v.flags.writeable = False


def _build_signals(scn: ScenarioConfig) -> _Signals:
    n, T = scn.n_adaptive_params, scn.duration_samples
    nan = np.full(T, np.nan)
    if scn.kind == "sysid":
        d = gen_noise(scn.noise, T)
        x = _measured(scn, np.convolve(scn.true_params, d)[:T])
        rev = _delay_line(d, n)
        return _Signals(x, rev, rev, None, 0, np.array(scn.true_params, order="C"), None, None, nan)
    prefix = scn.open_loop_prefix_samples
    w = gen_noise(scn.noise, T)
    x = _measured(scn, scn.primary_path.fresh().filter_signal(w))
    g_model, reg_filter = _models(scn)
    spr_ok, warning = _screen_path_ratio(scn.secondary_path, g_model)
    g = scn.secondary_path.fresh()
    g.filter_signal(np.zeros(prefix))  # silence while the compensator is disconnected
    w_f = reg_filter.fresh().filter_signal(w)
    return _Signals(x, _delay_line(w, n), _delay_line(w_f, n), g, prefix, None, spr_ok, warning, nan)


def _models(scn: ScenarioConfig) -> tuple[TransferOperator, TransferOperator]:
    """A feedforward scenario's secondary-path model and regressor filter, defaults applied."""
    g_model = scn.secondary_model if scn.secondary_model is not None else scn.secondary_path
    return g_model, scn.regressor_filter if scn.regressor_filter is not None else g_model


def _signals(scn: ScenarioConfig) -> _Signals:
    """The signals of ``scn``, built afresh; warns, at the caller's caller, where the
    secondary path over its model fails the SPR screen."""
    sig = _build_signals(scn)
    if sig.warning:
        warnings.warn(sig.warning, stacklevel=3)
    return sig


# (key, signals) of the last scenario that run_sysid or run_feedforward ran, so that a
# series of single runs on one scenario builds its signals once
_memo: tuple | None = None


def _signal_key(scn: ScenarioConfig) -> bytes:
    """Every input of :func:`_build_signals` by its bits: pickled, which writes a float as
    its eight bytes, so that -0.0 and 0.0 differ where ``==`` holds, with ``true_params``
    as its dtype, shape and bytes and each path as its coefficients. Equal keys build
    equal signals."""
    params = scn.true_params
    if params is not None:
        params = np.asarray(params)
        params = params.dtype.str, params.shape, params.tobytes()
    paths = ()
    if scn.kind == "feedforward":
        ops = (scn.primary_path, scn.secondary_path, *_models(scn))
        paths = tuple((op.numerator.coeffs, op.denominator.coeffs) for op in ops)
    inputs = (scn.kind, scn.n_adaptive_params, scn.duration_samples, scn.open_loop_prefix_samples)
    return pickle.dumps((*inputs, scn.noise, scn.measurement_noise_rms, params, paths))


def _memo_signals(scn: ScenarioConfig) -> _Signals:
    """The signals of ``scn`` from a one-entry memo: built where the last call's scenario
    differs from ``scn`` in any bit of an input, else those of the last call. The memo holds
    one scenario's signals, the last, after the call returns. Warns as :func:`_signals`
    does, also where the signals come from the memo."""
    global _memo
    key, memo = _signal_key(scn), _memo
    if memo is None or memo[0] != key:
        memo = _memo = None  # the last scenario's arrays go before the new ones are built
        memo = _memo = key, _build_signals(scn)
    sig = memo[1]
    if sig.warning:
        warnings.warn(sig.warning, stacklevel=3)
    return sig


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


def _new_trace(scn: ScenarioConfig, sig: _Signals, policy: StepSizePolicy) -> RunTrace:
    """The trace of a run of ``policy`` on ``sig`` before it starts, every record NaN. A
    record the run never writes is ``sig.nan``, the read-only all-NaN array that the runs
    on ``sig`` share."""
    T, nan = sig.desired.size, sig.nan
    return RunTrace(
        sample_rate_hz=scn.noise.sample_rate_hz,
        open_loop_prefix_samples=sig.prefix,
        e0=np.full(T, np.nan),
        e_post=np.full(T, np.nan) if policy.kind == "posterior" else nan,
        residual=np.full(T, np.nan),
        param_err=np.full(T, np.nan) if sig.target is not None else nan,
        spr_ok=sig.spr_ok,
    )


def _run(
    scn: ScenarioConfig,
    sig: _Signals,
    policy: StepSizePolicy,
    cfg: DagConfig | None,
    window_seconds: float = DEFAULT_ATTEN_WINDOW_S,
    trace: RunTrace | None = None,
) -> RunTrace:
    """One run on ``sig`` into ``trace`` (default: a new :func:`_new_trace`), through the
    compiled kernel where it loads, else through :func:`_adapt_loop`, with the same bits.

    The residual is the measured signal before ``sig.prefix`` and ``e0`` from there
    on, and a feedforward run that does not diverge gets its attenuation series at
    ``window_seconds``, if one full window fits. Divergence raises
    :class:`RunDiverged` with the partial trace.
    """
    T, prefix = sig.desired.size, sig.prefix
    if trace is None:
        trace = _new_trace(scn, sig, policy)
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
            attenuation_db(trace, window_seconds)
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
    partial trace. A call on the scenario of the call before it, equal in
    every bit of its inputs, reuses that call's signals: after a call
    returns, the module holds the signals of its scenario, and of no other.
    """
    if scn.kind != "sysid":
        raise ValueError("scenario kind must be 'sysid'")
    return _run(scn, _memo_signals(scn), policy, cfg)


def _screen_path_ratio(g: TransferOperator, g_model: TransferOperator) -> tuple[bool, str | None]:
    """SPR screen of the secondary path over its model: the verdict, and the warning it
    calls for (None where it passes); never fatal."""
    try:
        verdict = is_spr_numeric(ratio_transfer(g, g_model))
    except (ValueError, RuntimeError) as exc:
        return False, f"could not verify the secondary path ratio: {exc}"
    if verdict.is_spr:
        return True, None
    return False, (
        "secondary path over its model is not strictly positive real "
        f"(min real part {verdict.min_real_part:.3g}); adaptation may degrade"
    )


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
    Signals are reused as :func:`run_sysid` reuses them; the SPR screen's
    warning is issued on every call.
    """
    if scn.kind != "feedforward":
        raise ValueError("scenario kind must be 'feedforward'")
    return _run(scn, _memo_signals(scn), policy, cfg)


def run_many(scn: ScenarioConfig, runs) -> list[RunTrace]:
    """Run each ``(policy, cfg)`` pair of ``runs`` on ``scn``, one after another on
    one worker thread.

    Returns one trace per pair, in order, each with the bits that
    :func:`run_sysid` or :func:`run_feedforward` gives that pair. The signals
    and the secondary-path SPR screen are built once and shared, and so is the
    read-only all-NaN array that stands for every record a run never writes
    (``e_post`` of a non-posterior rule, ``param_err`` of a feedforward
    scenario). A diverged run is returned with ``diverged=True`` and its partial
    trace, as :class:`RunDiverged` carries it, and the other runs go on;
    nothing is raised.
    """
    return list(_stream(scn, _signals(scn), runs))


def _stream(scn: ScenarioConfig, sig: _Signals, runs, window_seconds: float = DEFAULT_ATTEN_WINDOW_S):
    """Yield the trace of each ``(policy, cfg)`` pair of ``runs`` on ``sig``, in order, as
    :func:`run_many` returns them, with the attenuation series at ``window_seconds``.

    The runs go one after another on a single worker thread, and each starts once the
    consumer has taken the trace before it: the next run computes while the consumer
    handles this trace, so at most two traces are held at once where the consumer drops
    each before it asks for the next. Each run's records are allocated in the consumer's
    thread, so they can reuse the memory that the signals' temporaries and the dropped
    traces freed there; the worker thread's own malloc arena could not. When the consumer
    stops early or raises, the runs not yet started are cancelled and the worker is
    joined before the error goes on.
    """
    runs = list(runs)
    start, done = threading.Semaphore(0), threading.Semaphore(0)
    # the next run's empty trace on its way to the worker, then that trace filled, or what
    # the run raised, on its way back
    box = []
    cancelled = False

    def work():
        for policy, cfg in runs:
            start.acquire()
            if cancelled:
                return
            try:
                box.append(_run(scn, sig, policy, cfg, window_seconds, box.pop()))
            except RunDiverged as exc:  # the trace keeps the partial run
                box.append(exc.trace)
            except BaseException as exc:  # raised again in the consumer's thread
                box.append(exc)
            done.release()

    def begin(k):  # run k, on records made in this thread
        box.append(_new_trace(scn, sig, runs[k][0]))
        start.release()

    worker = threading.Thread(target=work, name="daglms-runs", daemon=True)
    worker.start()
    try:
        if runs:
            begin(0)
        for k in range(len(runs)):
            done.acquire()
            trace = box.pop()
            if isinstance(trace, BaseException):
                raise trace
            if k + 1 < len(runs):
                begin(k + 1)  # the next run computes while the consumer handles this one
            yield trace
    finally:
        cancelled = True
        start.release()
        worker.join()


def attenuation_db(
    trace: RunTrace,
    window_seconds: float = DEFAULT_ATTEN_WINDOW_S,
) -> np.ndarray:
    """Block attenuation of the controlled residual, in dB.

    ``10 log10(var_open / var_controlled)`` per non-overlapping window of
    the controlled span, with the open-loop variance taken over the whole
    open-loop prefix. Zero controlled variance clamps at +120 dB with the
    companion ``atten_clamped`` mask set; a silent run (both variances
    zero) reads 0 dB. Windows are counted in samples at ``trace.sample_rate_hz``.
    The series is stored on the trace and returned; a window that does not fit
    both the prefix and the controlled span raises ValueError.
    """
    win = window_seconds * float(trace.sample_rate_hz)
    if not 0.5 < win < math.inf:  # NaN included; round(win) >= 1 exactly when win > 0.5
        raise ValueError("window must cover at least one sample and a finite number of them")
    win = int(round(win))
    prefix = trace.open_loop_prefix_samples
    if prefix < win:
        raise ValueError("open-loop prefix shorter than one window")
    if trace.residual.size - prefix < win:
        raise ValueError("no full controlled window in the trace")
    var_open = float(trace.residual[:prefix].var())
    var_ctrl = windowed_variance(trace.residual[prefix:], win)
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


def _resonant_path(num: Polynomial, sections, sample_rate_hz: float) -> TransferOperator:
    """``num`` over two resonant sections ``(f0_hz, radius)``, scaled to a peak gain
    of 1 on the 4096-point circle."""
    (f1, r1), (f2, r2) = sections
    den = poly_mul(resonant_section(f1, r1, sample_rate_hz), resonant_section(f2, r2, sample_rate_hz))
    _, z_inv = _unit_circle_grid(4096)
    peak = float(np.max(np.abs(TransferOperator(num, den).response_at(z_inv))))
    return TransferOperator(Polynomial(tuple(c / peak for c in num.coeffs)), den)


def make_primary_path(sample_rate_hz: float = 2500.0) -> TransferOperator:
    """Lightly damped 4th-order path carrying the disturbance to the sensor."""
    return _resonant_path(Polynomial((1.0, 0.2)), ((95.0, 0.94), (120.0, 0.88)), sample_rate_hz)


def make_secondary_path(sample_rate_hz: float = 2500.0) -> TransferOperator:
    """Lightly damped 4th-order path from the compensator to the sensor."""
    num = poly_mul(Polynomial((1.0, -0.3)), Polynomial((1.0, 0.4)))
    return _resonant_path(num, ((85.0, 0.93), (140.0, 0.90)), sample_rate_hz)


def make_mismatched_model(sample_rate_hz: float = 2500.0) -> TransferOperator:
    """Deliberately wrong secondary-path model for the SPR warning path.

    Shifted resonances plus a non-minimum-phase numerator zero, a common
    identification failure; the path-over-model ratio is then far from
    strictly positive real.
    """
    num = poly_mul(Polynomial((1.0, -1.25)), Polynomial((1.0, 0.4)))
    return _resonant_path(num, ((78.0, 0.88), (152.0, 0.86)), sample_rate_hz)


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
