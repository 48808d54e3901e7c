"""Parameter adaptation engine.

Tap-weight updates with pluggable step-size rules (constant, normalized by
regressor power, or derived from the a-posteriori error) and an optional
rational shaping filter applied to the correction sequence. The shaped
update keeps a short history of past estimates and past corrections; with
an empty :class:`~daglms.spr_design.DagConfig` it reduces exactly to the
plain update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spr_design import DagConfig

DEFAULT_DELTA = 1e-16
DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    """The estimate norm blew past the divergence guard."""

    def __init__(self, step: int, norm: float):
        super().__init__(f"estimate diverged at step {step} (norm {norm:.3e})")
        self.step = step
        self.norm = norm


@dataclass(frozen=True)
class StepSizePolicy:
    """Step-size rule: ``constant``, ``normalized`` or ``posterior``.

    ``normalized`` divides the base gain by ``delta + phi.phi``;
    ``posterior`` divides by ``1 + mu * phi.phi``, which makes the update
    equivalent to a gradient step on the a-posteriori error.
    """

    kind: str
    mu: float
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if self.kind not in ("constant", "normalized", "posterior"):
            raise ValueError(f"unknown step-size kind {self.kind!r}")
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError("mu must be a positive finite gain")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("delta must be a positive finite regularizer")

    @classmethod
    def lms(cls, mu: float) -> StepSizePolicy:
        return cls("constant", mu)

    @classmethod
    def nlms(cls, mu: float, delta: float = DEFAULT_DELTA) -> StepSizePolicy:
        return cls("normalized", mu, delta)

    @classmethod
    def plms(cls, mu: float) -> StepSizePolicy:
        return cls("posterior", mu)


def step_size(policy: StepSizePolicy, phi) -> float:
    """Per-step gain for the given regressor; always finite and positive."""
    if policy.kind == "constant":
        return policy.mu
    power = float(np.dot(phi, phi))
    if policy.kind == "normalized":
        return policy.mu / (policy.delta + power)
    return policy.mu / (1.0 + policy.mu * power)


@dataclass
class PredictionPair:
    """Predicted output and errors for one step.

    ``e_post`` is filled only by the posterior policy, where it satisfies
    ``e_post * (1 + mu * phi.phi) == e0``.
    """

    z0_hat: float
    e0: float | None = None
    e_post: float | None = None


PRESETS: dict[str, DagConfig] = {
    "integral": DagConfig(),
    "conj_nesterov": DagConfig((), (0.9,)),
    "ipd": DagConfig((1.4, 0.5), ()),
    "ip": DagConfig((0.99,), ()),
    "arima2": DagConfig((0.99, 0.0), (0.9,)),
}

PRESET_ORDER = ("integral", "conj_nesterov", "ipd", "ip", "arima2")


def make_preset(name: str) -> DagConfig:
    """Named gain-filter configuration (see :data:`PRESET_ORDER`)."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None


def preset_triple(name: str) -> tuple[float, float, float]:
    """The (c1, c2, d1p) coefficients of a preset, zero-padded."""
    cfg = make_preset(name)
    c1 = cfg.c[0] if len(cfg.c) > 0 else 0.0
    c2 = cfg.c[1] if len(cfg.c) > 1 else 0.0
    d1p = cfg.d_prime[0] if cfg.d_prime else 0.0
    return c1, c2, d1p


def summed_c(cfg: DagConfig) -> tuple[float, ...]:
    """The ``c`` weights a gain sum reads: all of ``cfg.c``, less its trailing zeros
    when ``d[0] >= 1``.

    A dropped term ``0.0 * h`` (h a stored estimate or correction, always finite)
    is +-0.0, and adding +-0.0 to a running sum changes it only when the sum is
    -0.0, turning it into +0.0. When ``d[0] >= 1`` no sum is ever -0.0. A sum is
    -0.0 only when all its terms are, and its first term ``d[0] * theta`` is -0.0
    only for a -0.0 estimate, since ``d[0] >= 1`` cannot round a nonzero estimate
    to zero. Each new estimate is such a sum plus a correction, and estimates
    start at +0.0, so by induction none is -0.0. So a dropped trailing term keeps
    every bit, and saves a multiply row and an add per step.
    """
    c = cfg.c
    if cfg.d[0] >= 1.0:
        while c and c[-1] == 0.0:
            c = c[:-1]
    return c


class AdaptState:
    """Mutable state of one adaptation loop.

    Keeps ``len(d)`` past estimates (1 for the trivial configuration) and
    ``len(c)`` past corrections, vectors of length ``n_params``, in one
    ``(K, n_params)`` history block; ``theta_hist`` and ``corr_hist`` are views
    of its two parts. Histories start from ``theta0`` (default zero) and zero
    corrections, which makes the first steps well-defined and reproducible.
    The gain sum leaves out the slots of trailing zero ``c`` weights
    (:func:`summed_c`). Single-owner: one loop per instance.
    """

    def __init__(
        self,
        n_params: int,
        policy: StepSizePolicy,
        cfg: DagConfig | None = None,
        theta0=None,
        divergence_limit: float = DIVERGENCE_LIMIT,
    ):
        n_params = int(n_params)
        if n_params < 1:
            raise ValueError("n_params must be at least 1")
        self.n_params = n_params
        self.policy = policy
        self.cfg = cfg if cfg is not None else DagConfig()
        init = np.zeros(n_params) if theta0 is None else np.asarray(theta0, dtype=float)
        if init.shape != (n_params,):
            raise ValueError(f"theta0 must have shape ({n_params},)")
        self._depth = depth = len(self.cfg.d)
        self._hist = np.zeros((depth + len(self.cfg.c), n_params))
        self._hist[:depth] = init
        self.theta_hist, self.corr_hist = self._hist[:depth], self._hist[depth:]
        # the sum reads the slots that summed_c keeps; its proof assumes no -0.0 start estimate
        c = self.cfg.c if np.signbit(init[init == 0.0]).any() else summed_c(self.cfg)
        self._weights = np.array((*self.cfg.d, *c))[:, None]
        self._summed = self._hist[:depth + len(c)]
        # (a, b) of the exact gain mu / (a + b * phi.phi)
        rules = {"constant": (1.0, 0.0), "normalized": (policy.delta, 1.0), "posterior": (1.0, policy.mu)}
        self._rule = rules[policy.kind]
        self.t = 0
        self.divergence_limit = float(divergence_limit)

    @property
    def theta(self) -> np.ndarray:
        """Latest estimate."""
        return self._hist[0]

    def _check_phi(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.n_params,):
            raise ValueError(f"regressor must have shape ({self.n_params},), got {phi.shape}")
        return phi

    def effective_estimate(self) -> np.ndarray:
        """Weighted combination of past estimates and past corrections.

        This is the vector the predictor uses before the new correction is
        added; with the trivial configuration it is just the latest
        estimate.
        """
        terms = self._weights * self._summed
        out = terms[0] if len(terms) == 1 else terms[0] + terms[1]
        for term in terms[2:]:
            out += term
        return out

    def a_priori_predict(self, phi) -> PredictionPair:
        """Predicted output before seeing the desired value."""
        phi = self._check_phi(phi)
        return PredictionPair(z0_hat=float(np.dot(self.effective_estimate(), phi)))

    def update(self, phi, x: float) -> PredictionPair:
        """One adaptation step against the desired output ``x``."""
        phi = self._check_phi(phi)
        base = self.effective_estimate()
        z0 = float(np.dot(base, phi))
        e0 = float(x) - z0
        return PredictionPair(z0, e0, self._step(phi, e0, base))

    def update_from_error(self, phi, e0: float) -> PredictionPair:
        """One adaptation step driven by an externally measured error.

        Used when the a-priori error is observed directly (e.g. a residual
        sensor) instead of being computed from a desired output.
        """
        phi = self._check_phi(phi)
        base = self.effective_estimate()
        z0 = float(np.dot(base, phi))
        e0 = float(e0)
        return PredictionPair(z0, e0, self._step(phi, e0, base))

    def _step(self, phi: np.ndarray, e0: float, base: np.ndarray) -> float | None:
        """Add the correction for ``e0`` to ``base`` (this step's effective
        estimate) in place, making it the new estimate; returns ``e_post``."""
        self.t += 1
        a, b = self._rule
        mu_t = self.policy.mu
        if b:  # the constant rule never reads the power
            scale = a + b * float(np.dot(phi, phi))
            mu_t /= scale
        corr = (mu_t * e0) * phi
        base += corr
        norm = math.sqrt(float(np.dot(base, base)))
        if not math.isfinite(norm) or norm > self.divergence_limit:
            raise DivergenceError(self.t, norm)
        hist = self._hist
        if len(hist) > 1:
            hist[1:] = hist[:-1]
        hist[0] = base
        if self._depth < len(hist):
            hist[self._depth] = corr
        return e0 / scale if self.policy.kind == "posterior" else None
