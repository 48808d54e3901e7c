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
import operator
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

    def _rule(self) -> tuple[float, float]:
        # (a, b) of the exact gain mu / (a + b * phi.phi); b is 0 for the constant rule alone
        return {"constant": (1.0, 0.0), "normalized": (self.delta, 1.0), "posterior": (1.0, self.mu)}[self.kind]


@np.errstate(over="ignore", invalid="ignore")
def step_size(policy: StepSizePolicy, phi) -> float:
    """Per-step gain ``mu / (a + b * phi.phi)`` for the given regressor and the ``(a, b)`` of
    the policy's rule: positive, or 0.0, with no warning, where a normalized or posterior
    policy's ``phi . phi`` overflows. The constant rule never reads the power."""
    a, b = policy._rule()
    return policy.mu / (a + b * float(np.dot(phi, phi))) if b else policy.mu


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

PRESET_ORDER = tuple(PRESETS)


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


def _count(value, name: str) -> int:
    """``value`` as a Python ``int`` by ``operator.index``, so a NumPy integer passes and a
    float, which ``int()`` would truncate, does not; else ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class AdaptState:
    """Mutable state of one adaptation loop.

    Keeps ``len(d)`` past estimates (1 for the trivial configuration) and
    ``len(c)`` past corrections, vectors of length ``n_params``, in one
    ``(K, n_params)`` history block; ``theta_hist`` and ``corr_hist`` are views
    of its two parts. Both histories start at zero, which makes the first steps
    well-defined and reproducible; a caller who wants another start writes it
    into ``theta_hist`` (``s.theta_hist[:] = start``) before the first step.
    The gain sum reads every slot, weighted by ``(*cfg.d, *cfg.c)`` in order.
    A step whose new estimate has a norm that is not finite or exceeds
    :data:`DIVERGENCE_LIMIT` raises :class:`DivergenceError`.
    Single-owner: one loop per instance.
    """

    divergence_limit = DIVERGENCE_LIMIT

    def __init__(self, n_params: int, policy: StepSizePolicy, cfg: DagConfig | None = None):
        n_params = _count(n_params, "n_params")
        if n_params < 1:
            raise ValueError("n_params must be at least 1")
        self.n_params = n_params
        self.policy = policy
        self.cfg = cfg if cfg is not None else DagConfig()
        d = self.cfg.d  # derived from d' at each read
        self._depth = depth = len(d)
        self._hist = np.zeros((depth + len(self.cfg.c), n_params))
        self.theta_hist, self.corr_hist = self._hist[:depth], self._hist[depth:]
        self._weights = np.array((*d, *self.cfg.c))[:, None]
        self._rule = policy._rule()
        self.t = 0

    @property
    def theta(self) -> np.ndarray:
        """Latest estimate."""
        return self._hist[0]

    def effective_estimate(self) -> np.ndarray:
        """Weighted combination of past estimates and past corrections.

        This is the vector the predictor uses before the new correction is
        added; with the trivial configuration it is just the latest
        estimate.
        """
        terms = self._weights * self._hist
        out = terms[0]
        for term in terms[1:]:
            out += term
        return out

    def _predict(self, phi) -> tuple[np.ndarray, np.ndarray, float]:
        """The checked regressor, this step's effective estimate and its prediction."""
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.n_params,):
            raise ValueError(f"regressor must have shape ({self.n_params},), got {phi.shape}")
        base = self.effective_estimate()
        return phi, base, float(np.dot(base, phi))

    # the public steps take an overflow without a warning, as the run loop does
    @np.errstate(over="ignore", invalid="ignore")
    def a_priori_predict(self, phi) -> PredictionPair:
        """Predicted output before seeing the desired value."""
        return PredictionPair(z0_hat=self._predict(phi)[2])

    @np.errstate(over="ignore", invalid="ignore")
    def update(self, phi, x: float) -> PredictionPair:
        """One adaptation step against the desired output ``x``."""
        phi, base, z0 = self._predict(phi)
        e0 = float(x) - z0
        return PredictionPair(z0, e0, self._step(phi, e0, base))

    @np.errstate(over="ignore", invalid="ignore")
    def update_from_error(self, phi, e0: float) -> PredictionPair:
        """One adaptation step driven by an externally measured error.

        Used when the a-priori error is observed directly (e.g. a residual
        sensor) instead of being computed from a desired output.
        """
        phi, base, z0 = self._predict(phi)
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
