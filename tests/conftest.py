"""Shared test helpers: random stable polynomials and a reference update loop."""

from __future__ import annotations

import numpy as np

from daglms import DagConfig, Polynomial, StepSizePolicy
from daglms.adapt import step_size


def random_roots(rng: np.random.Generator, degree: int, max_radius: float) -> list:
    """Random real-coefficient root set: real roots and conjugate pairs."""
    roots = []
    remaining = degree
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            r = max_radius * np.sqrt(rng.random())
            ang = rng.uniform(0.0, np.pi)
            z = r * np.exp(1j * ang)
            roots.extend([z, np.conj(z)])
            remaining -= 2
        else:
            roots.append(rng.uniform(-max_radius, max_radius))
            remaining -= 1
    return roots


def random_stable_poly(
    rng: np.random.Generator, max_degree: int = 2, max_radius: float = 0.95
) -> Polynomial:
    """Monic delay-operator polynomial with zeros inside ``max_radius``."""
    degree = int(rng.integers(0, max_degree + 1))
    if degree == 0:
        return Polynomial((1.0,))
    coeffs = np.poly(random_roots(rng, degree, max_radius))
    return Polynomial(tuple(np.real(coeffs)))


def reference_vslms(
    policy: StepSizePolicy, phis: np.ndarray, xs: np.ndarray, cfg: DagConfig | None = None
) -> np.ndarray:
    """Tap-weight update loop through the gain filter ``cfg`` (default: none), the engine's oracle.

    Past estimates and past corrections are kept in two separate lists, and the
    effective estimate sums the ``d`` terms and then the ``c`` terms in order: the
    engine's floating-point operation order, written apart from its history block,
    so trajectories can be compared bit for bit.
    """
    cfg = cfg if cfg is not None else DagConfig()
    n = phis.shape[1]
    thetas = [np.zeros(n)] * len(cfg.d)
    corrs = [np.zeros(n)] * len(cfg.c)
    out = np.empty_like(phis)
    for t in range(phis.shape[0]):
        phi = phis[t]
        terms = [d * theta for d, theta in zip(cfg.d, thetas)] + [c * corr for c, corr in zip(cfg.c, corrs)]
        base = terms[0]
        for term in terms[1:]:
            base = base + term
        e0 = float(xs[t]) - float(np.dot(base, phi))
        corr = (step_size(policy, phi) * e0) * phi
        theta = base + corr
        thetas = [theta, *thetas][:len(cfg.d)]
        corrs = [corr, *corrs][:len(cfg.c)]
        out[t] = theta
    return out
