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

from .adapt import DIVERGENCE_LIMIT, AdaptState, DivergenceError, StepSizePolicy
from .adapt import gain_sum, gain_weights, push_history, step_rule, summed_c
from .dsp_core import NoiseSpec, Polynomial, TransferOperator, gen_noise, poly_mul, windowed_variance
from .spr_design import DagConfig, _unit_circle_grid, is_spr_numeric, ratio_transfer

DEFAULT_ATTEN_WINDOW_S = 3.0
ATTEN_CLAMP_DB = 120.0

# the lockstep loop costs about as much per sample as three single runs: on
# 60-, 12- and 4-tap sweeps it lost at two runs, tied at three and won from four
_LOCKSTEP_MIN_RUNS = 4

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
        return _Signals(x, rev, rev, None, 0, scn.true_params, None)
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


def _new_traces(scn: ScenarioConfig, sig: _Signals, policies: list):
    """Empty traces, one per policy, and the ``(B, T)`` blocks whose rows are their
    ``e0`` and ``param_err``; records a run never writes (``e_post`` of a
    non-posterior rule, ``param_err`` without a target) share one read-only NaN array."""
    B, T = len(policies), sig.desired.size
    nan = np.full(T, np.nan)
    nan.flags.writeable = False
    e0 = np.full((B, T), np.nan)
    param_err = np.full((B, T), np.nan) if sig.target is not None else None
    traces = [
        RunTrace(
            sample_rate_hz=scn.noise.sample_rate_hz,
            open_loop_prefix_samples=sig.prefix,
            e0=e0[i],
            e_post=np.full(T, np.nan) if policy.kind == "posterior" else nan,
            residual=np.full(T, np.nan),
            param_err=param_err[i] if param_err is not None else nan,
            spr_ok=sig.spr_ok,
        )
        for i, policy in enumerate(policies)
    ]
    return traces, e0, param_err


def _fill_trace(trace: RunTrace, sig: _Signals, stop: int, e_post=None) -> None:
    """Complete a run whose ``e0`` is stored up to ``stop``: the residual is the
    measured signal before ``sig.prefix`` and ``e0`` from there on, and a
    feedforward run that did not diverge gets its attenuation series at the
    default window, if one full window fits."""
    prefix = sig.prefix
    trace.residual[:prefix] = sig.desired[:prefix]
    trace.residual[prefix:stop] = trace.e0[prefix:stop]
    if e_post is not None:
        trace.e_post[prefix:stop] = e_post
    if sig.path is not None and not trace.diverged:  # only a feedforward run has a path
        with contextlib.suppress(ValueError):  # no full window fits
            attenuation_db(trace, DEFAULT_ATTEN_WINDOW_S)


def _adapt_loop(trace: RunTrace, state: AdaptState, sig: _Signals) -> None:
    """The per-sample loop of one run; fills ``trace``."""
    n, T, prefix, target = state.n_params, sig.desired.size, sig.prefix, sig.target
    rev, rev_f = sig.rev, sig.rev_f
    path_step = copy.deepcopy(sig.path).filter_step if sig.path is not None else float
    estimate, step = state.effective_estimate, state._step
    e0_rec, param_err, posts = trace.e0, trace.param_err, []
    started = time.perf_counter()
    try:
        for t, x in zip(range(prefix, T), sig.desired[prefix:].tolist()):
            k = T - 1 - t
            # the compensator runs the same effective estimate the update
            # law predicts with, so the measured residual is its a-priori error
            base = estimate()
            y = float(np.dot(base, rev[k:k + n]))
            e0 = x - path_step(y)
            posts.append(step(rev_f[k:k + n], e0, base))
            e0_rec[t] = e0
            if target is not None:
                diff = target - state.theta
                param_err[t] = math.sqrt(float(np.dot(diff, diff)))
    except DivergenceError as exc:
        trace.diverged = True
        trace.divergence_step = exc.step
        raise RunDiverged(exc.step, trace) from exc
    finally:
        trace.wall_time_s = time.perf_counter() - started
        trace.theta_final = state.theta.copy()
        stop = prefix + len(posts)  # a step that raised stored nothing
        _fill_trace(trace, sig, stop, posts if state.policy.kind == "posterior" else None)


def _run(scn: ScenarioConfig, sig: _Signals, policy: StepSizePolicy, cfg: DagConfig | None) -> RunTrace:
    [trace], _, _ = _new_traces(scn, sig, [policy])
    _adapt_loop(trace, AdaptState(scn.n_adaptive_params, policy, cfg), sig)
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


def _lockstep_loop(scn: ScenarioConfig, sig: _Signals, runs: list) -> list[RunTrace]:
    """The per-sample loop of ``_adapt_loop`` for all ``runs`` at once; one trace per run.

    Row i of every ``(B, ...)`` array, and of each slot of the ``(K, B, n)`` history
    block and its ``(K, B, 1)`` weights, is run i. Each operation is the scalar
    loop's, elementwise over runs, or a stacked ``matmul`` of one row with one
    vector, which gives each row ``np.dot``'s bits; so every run keeps its bits.
    A diverged run leaves the active rows and keeps its partial trace.
    """
    B, T, n, prefix, target = len(runs), sig.desired.size, scn.n_adaptive_params, sig.prefix, sig.target
    policies = [policy for policy, _ in runs]
    # the loop writes e0 and param_err straight into the traces' rows of these blocks
    traces, e0_block, err_block = _new_traces(scn, sig, policies)
    cfgs = [cfg if cfg is not None else DagConfig() for _, cfg in runs]
    depth = max(len(cfg.d) for cfg in cfgs)
    K = depth + max(len(summed_c(cfg)) for cfg in cfgs)
    weights = np.stack([gain_weights(cfg, depth, K) for cfg in cfgs], axis=1)
    hist = np.zeros((K, B, n))
    mu = np.array([p.mu for p in policies])
    a, b = np.array([step_rule(p) for p in policies]).T
    powered = bool(b.any())
    bank = sig.path.bank(B) if sig.path is not None else None
    rows = np.arange(B)  # the run of each active row
    cols = slice(None)  # the same, as an index into the blocks
    power_rec = np.full(T, np.nan)
    rev, rev_f, x = sig.rev, sig.rev_f, sig.desired.tolist()
    started = time.perf_counter()
    for t in range(prefix, T):
        k = T - 1 - t
        phi, phi_f = rev[k:k + n], rev_f[k:k + n]
        base = gain_sum(weights, hist)
        y = np.matmul(base[:, None, :], phi[:, None])[:, 0, 0]
        e0 = x[t] - (bank.step(y) if bank is not None else y)
        mu_t = mu
        if powered:
            power = power_rec[t] = float(np.dot(phi_f, phi_f))
            if power < math.inf:
                mu_t = mu / (a + b * power)
            else:  # 0 * inf is NaN, but the constant rule never reads the power
                with np.errstate(invalid="ignore"):
                    mu_t = mu / np.where(b == 0.0, 1.0, a + b * power)
        corr = (mu_t * e0)[:, None] * phi_f
        base += corr
        norm = np.sqrt(np.matmul(base[:, None, :], base[:, :, None])[:, 0, 0])
        if not norm.max() <= DIVERGENCE_LIMIT:  # NaN included
            ok = norm <= DIVERGENCE_LIMIT
            for i in np.flatnonzero(~ok).tolist():
                trace = traces[rows[i]]
                trace.diverged, trace.divergence_step = True, t - prefix + 1
                trace.theta_final = hist[0, i].copy()
            rows, mu, a, b, e0, base, corr = (v[ok] for v in (rows, mu, a, b, e0, base, corr))
            weights, hist = weights[:, ok], hist[:, ok]
            if not rows.size:
                break
            cols = rows
            if bank is not None:
                bank.keep(ok)
        e0_block[cols, t] = e0
        push_history(hist, depth, base, corr)
        if target is not None:
            diff = target - base
            err_block[cols, t] = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    wall = time.perf_counter() - started
    for i, r in enumerate(rows.tolist()):
        traces[r].theta_final = hist[0, i].copy()
    for trace, policy in zip(traces, policies):
        trace.wall_time_s = wall
        stop = T if not trace.diverged else prefix + trace.divergence_step - 1
        e_post = None
        if policy.kind == "posterior":  # the scalar rule's e0 / (1 + mu * power), elementwise
            e_post = trace.e0[prefix:stop] / (1.0 + policy.mu * power_rec[prefix:stop])
        _fill_trace(trace, sig, stop, e_post)
    return traces


def run_many(scn: ScenarioConfig, runs) -> list[RunTrace]:
    """Run each ``(policy, cfg)`` pair of ``runs`` on ``scn``.

    Returns one trace per pair, in order, each with the bits that
    :func:`run_sysid` or :func:`run_feedforward` gives that pair. The signals
    and the secondary-path SPR screen are built once and shared. The runs form
    one group, apart from gain filters with ``d[0] < 1`` (see below). A group of
    ``_LOCKSTEP_MIN_RUNS`` (4) or more runs advances together in one per-sample loop
    over ``(B, n)`` arrays, B runs of n taps, whose gain-filter histories share
    one ``(K, B, n)`` block, the :class:`~daglms.adapt.AdaptState` block with a
    run axis, summed and advanced by the same ``adapt`` helpers; each trace's
    ``wall_time_s`` is then the shared loop's. A smaller group runs one run
    after another through the single-run loop. A diverged run is returned with
    ``diverged=True`` and its partial trace, as :class:`RunDiverged` carries it,
    and the other runs go on; nothing is raised.
    A trace's ``e0`` and ``param_err`` are rows of one array per group, and a
    record that a run never writes (``e_post`` of a non-posterior rule,
    ``param_err`` of a feedforward scenario) is a read-only all-NaN array
    shared by the group.

    Runs of different gain-filter depths share the loop with zero-padded
    weights, and trailing zero ``c`` weights are left out of the sum
    (:func:`~daglms.adapt.summed_c`, which :class:`~daglms.adapt.AdaptState`
    applies too). A padded or left-out term ``0.0 * h`` (h a stored estimate or correction,
    always finite) is +-0.0, and adding +-0.0 to a running sum changes it only
    when the sum is -0.0, turning it into +0.0. When ``cfg.d[0] >= 1`` no sum
    is ever -0.0. A sum is -0.0 only when all its terms are, and its first
    term ``d[0] * theta`` is -0.0 only for a -0.0 estimate, since ``d[0] >= 1``
    cannot round a nonzero estimate to zero. Each new estimate is such a sum
    plus a correction, and estimates start at +0.0, so by induction none is
    -0.0. So neither can reach ``e0``, ``e_post``, ``residual`` or
    ``param_err``. Every preset has ``d[0] >= 1``; a configuration with
    ``d[0] < 1`` runs only with configurations of its own depths, which need
    no padding.
    """
    runs = list(runs)
    sig = _signals(scn)
    groups: dict = {}
    for i, (_, cfg) in enumerate(runs):
        cfg = cfg if cfg is not None else DagConfig()
        groups.setdefault(None if cfg.d[0] >= 1.0 else (len(cfg.d), len(cfg.c)), []).append(i)
    traces: list = [None] * len(runs)
    for group in groups.values():
        group_runs = [runs[i] for i in group]
        if len(group) >= _LOCKSTEP_MIN_RUNS:
            group_traces = _lockstep_loop(scn, sig, group_runs)
        else:
            group_traces = _new_traces(scn, sig, [policy for policy, _ in group_runs])[0]
            for trace, (policy, cfg) in zip(group_traces, group_runs):
                with contextlib.suppress(RunDiverged):  # the trace keeps the partial run
                    _adapt_loop(trace, AdaptState(scn.n_adaptive_params, policy, cfg), sig)
        for i, trace in zip(group, group_traces):
            traces[i] = trace
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
