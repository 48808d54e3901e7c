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
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .adapt import AdaptState, DivergenceError, StepSizePolicy, _count
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


def _target(params, n: int) -> np.ndarray:
    """``params`` as float64, checked to be ``n`` finite values: a NaN or an infinite target
    would read as a divergence of every run."""
    params = np.asarray(params, dtype=float)
    if params.shape != (n,):
        raise ValueError("n_adaptive_params must match true_params length")
    if not np.isfinite(params).all():
        raise ValueError(f"true_params must be finite, got {params.tolist()}")
    return params


@dataclass
class ScenarioConfig:
    """Inputs of one experiment run.

    ``kind`` selects the loop: ``sysid`` needs ``true_params`` and adapts
    from sample 0, so it takes no open-loop prefix and no path;
    ``feedforward`` needs the primary and secondary paths (the secondary
    model defaults to the secondary path itself, and the regressor filter
    defaults to the secondary model) and takes no ``true_params``. A field
    that the kind would ignore is an error naming it, and so is a count that is not
    an integer; counts are stored as Python ``int``.
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
        for name in ("n_adaptive_params", "duration_samples", "open_loop_prefix_samples"):
            setattr(self, name, _count(getattr(self, name), name))
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
            for name in ("primary_path", "secondary_path", "secondary_model", "regressor_filter"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} must be unset for a sysid scenario, which runs no path")
            if self.true_params is None:
                raise ValueError("sysid scenario needs true_params")
            self.true_params = _target(self.true_params, self.n_adaptive_params)
        else:
            if self.true_params is not None:
                raise ValueError("true_params must be unset for a feedforward scenario, which has no target")
            if self.primary_path is None or self.secondary_path is None:
                raise ValueError("feedforward scenario needs primary and secondary paths")


@dataclass
class RunTrace:
    """Per-step records of one run plus run-level flags; ``engine`` names the loop
    that ran it, ``"kernel"`` (compiled) or ``"python"``, which give the same bits.
    ``divergence_norm`` is the estimate norm that failed the divergence check, as
    :class:`RunDiverged` carries it; None where the run did not diverge."""

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
    divergence_norm: float | None = None


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


@dataclass(frozen=True)
class _Signals:
    """What a scenario feeds each of its runs, built once per scenario.

    The compensator output ``estimate . phi`` over the delay line ``rev`` passes
    through ``path`` (None: no path), whose state each run copies as the
    open-loop prefix left it, and is subtracted from ``desired``; the
    update uses the delay line ``rev_f``. Nothing adapts in the first ``prefix``
    samples; ``param_err`` is filled when ``target`` is given. ``nan`` is the
    all-NaN record that every run shares for the records it never
    writes (``e_post`` of a non-posterior rule, ``param_err`` without a target).
    Every array is checked to be C-contiguous float64, made read-only and private to these
    signals; the compiled loop reads ``desired``, ``rev``, ``rev_f`` and ``target`` at
    ``addresses``. ``spr_ok`` is the secondary-path SPR screen's verdict and ``warning`` the
    warning it calls for, None where it passes. ``open_loop_var`` is the variance of
    ``desired`` before ``prefix``, the open-loop variance of every run's attenuation series
    (NaN with no prefix).
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
    addresses: tuple = field(init=False, repr=False)
    open_loop_var: float = field(init=False, repr=False)

    def __post_init__(self):
        read = (self.desired, self.rev, self.rev_f, self.target)
        _kernel._check((*read, self.nan))
        for v in (*read, self.nan):
            if v is not None:
                v.flags.writeable = False
        object.__setattr__(self, "addresses", tuple(None if v is None else v.ctypes.data for v in read))
        object.__setattr__(self, "open_loop_var", float(self.desired[:self.prefix].var()) if self.prefix else math.nan)


def _build_signals(scn: ScenarioConfig) -> _Signals:
    n, T = scn.n_adaptive_params, scn.duration_samples
    nan = np.full(T, np.nan)
    if scn.kind == "sysid":
        # true_params may have been reassigned since construction: coerced and checked as there,
        # into a copy that only these signals hold
        params = _target(scn.true_params, n).copy()
        d = gen_noise(scn.noise, T)
        x = _measured(scn, np.convolve(params, d)[:T])
        rev = _delay_line(d, n)
        return _Signals(x, rev, rev, None, 0, params, None, None, nan)
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


# (key, signals) of the last scenario that a run or a sweep ran, so that a series of
# runs on one scenario builds its signals once
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


def _signals(scn: ScenarioConfig) -> _Signals:
    """The signals of ``scn`` from a one-entry memo: built where the last call's scenario
    differs from ``scn`` in any bit of an input, else those of the last call. The memo holds
    one scenario's signals, the last, after the call returns. Warns, at the caller's caller,
    where the secondary path over its model fails the SPR screen, also where the signals
    come from the memo."""
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
    on ``sig`` share; so is ``residual``, which :func:`_run` builds when the loop ends."""
    T, nan = sig.desired.size, sig.nan
    return RunTrace(
        sample_rate_hz=scn.noise.sample_rate_hz,
        open_loop_prefix_samples=sig.prefix,
        e0=np.full(T, np.nan),
        e_post=np.full(T, np.nan) if policy.kind == "posterior" else nan,
        residual=nan,
        param_err=np.full(T, np.nan) if sig.target is not None else nan,
        spr_ok=sig.spr_ok,
    )


def _run(
    scn: ScenarioConfig,
    sig: _Signals,
    policy: StepSizePolicy,
    cfg: DagConfig | None,
    window_seconds: float = DEFAULT_ATTEN_WINDOW_S,
) -> RunTrace:
    """One run on ``sig``, in the calling thread, into a new :func:`_new_trace`, through
    the compiled kernel where it loads, else through :func:`_adapt_loop`, with the same bits.

    The residual is the measured signal before ``sig.prefix`` and ``e0`` from there
    on, and a feedforward run that does not diverge gets its attenuation series at
    ``window_seconds``, if one full window fits. A diverged run returns its partial
    trace, its divergence recorded on it; nothing is raised.
    """
    trace = _new_trace(scn, sig, policy)
    state = AdaptState(scn.n_adaptive_params, policy, cfg)
    kernel = _kernel.load()
    started = time.perf_counter()
    step, norm = kernel.adapt(state, sig, trace) if kernel else _adapt_loop(state, sig, trace)
    trace.wall_time_s = time.perf_counter() - started
    trace.engine = "kernel" if kernel else "python"
    trace.theta_final = state.theta.copy()
    # e0 is NaN from a diverging step on, since that step stores nothing, and so is the residual
    trace.residual = np.concatenate((sig.desired[:sig.prefix], trace.e0[sig.prefix:]))
    if step:
        trace.diverged, trace.divergence_step, trace.divergence_norm = True, step, norm
    elif sig.path is not None:  # only a feedforward run has a path
        with contextlib.suppress(ValueError):  # no full window fits
            _attenuation_db(trace, window_seconds, sig.open_loop_var)
    return trace


def _single(trace: RunTrace) -> RunTrace:
    """``trace`` as a single run returns it: a diverged one raises :class:`RunDiverged`."""
    if trace.diverged:
        raise RunDiverged(trace.divergence_step, trace, trace.divergence_norm)
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
    return _single(_run(scn, _signals(scn), policy, cfg))


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
    return _single(_run(scn, _signals(scn), policy, cfg))


def run_many(scn: ScenarioConfig, runs) -> list[RunTrace]:
    """Run each ``(policy, cfg)`` pair of ``runs`` on ``scn``, one after another in the
    calling thread.

    Returns one trace per pair, in order, each with the bits that
    :func:`run_sysid` or :func:`run_feedforward` gives that pair, and shares with them
    the memo of signals and the secondary-path SPR screen; the runs share those and the
    read-only all-NaN array that stands for every record a run never writes
    (``e_post`` of a non-posterior rule, ``param_err`` of a feedforward
    scenario). A diverged run is returned with ``diverged=True``, its partial trace
    and its ``divergence_norm``, as :class:`RunDiverged` carries them, and the other
    runs go on; nothing is raised.
    """
    sig = _signals(scn)
    return [_run(scn, sig, policy, cfg) for policy, cfg in runs]


def _window_samples(window_seconds: float, sample_rate_hz: float) -> float:
    """The attenuation window ``window_seconds`` in whole samples at ``sample_rate_hz``, inf
    where it is beyond the doubles. A window that rounds to fewer than two samples (NaN
    included) raises ValueError: one sample has variance 0, so every window would clamp."""
    win = window_seconds * float(sample_rate_hz)
    count = round(win) if abs(win) < math.inf else win  # round() rounds half to even
    if not count >= 2:
        raise ValueError(
            f"window_seconds must cover at least two samples; {window_seconds!r} s at {sample_rate_hz!r} Hz"
            f" is {win!r} samples"
        )
    return count


def attenuation_db(
    trace: RunTrace,
    window_seconds: float = DEFAULT_ATTEN_WINDOW_S,
) -> np.ndarray:
    """Block attenuation of the controlled residual, in dB.

    ``10 log10(var_open / var_controlled)`` per non-overlapping window of
    the controlled span, with the open-loop variance taken over the whole
    open-loop prefix. Zero controlled variance clamps at +120 dB with the
    companion ``atten_clamped`` mask set; a silent run (both variances
    zero) reads 0 dB. Windows are counted in samples at ``trace.sample_rate_hz``,
    at least two (:func:`_window_samples`). The series is stored on the trace and
    returned; a window that does not fit both the prefix and the controlled span
    raises ValueError.
    """
    return _attenuation_db(trace, window_seconds, None)


def _attenuation_db(trace: RunTrace, window_seconds: float, var_open: float | None) -> np.ndarray:
    """:func:`attenuation_db`, with the variance of ``trace.residual`` before its prefix
    given as ``var_open``, or taken here where it is None."""
    win = _window_samples(window_seconds, trace.sample_rate_hz)
    if win == math.inf:
        raise ValueError("window_seconds must cover at least two samples and a finite number of them")
    prefix = trace.open_loop_prefix_samples
    if prefix < win:
        raise ValueError("open-loop prefix shorter than one window")
    if trace.residual.size - prefix < win:
        raise ValueError("no full controlled window in the trace")
    if var_open is None:
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
