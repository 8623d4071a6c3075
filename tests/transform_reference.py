"""Exact means of the truncated cluster through Laplace transforms, pointwise.

A reference the tests hold the sampler and the enumeration to; nothing here
calls either.  Write Lambda = sum_n L_n w^n and M = sum_n n L_n w^n for a
cluster of depth bound d, with edge probability pi = p, leaf weight w = p and
kappa = 1 - pi.  The root is a leaf (Lambda = 1, M = 0) with probability
kappa^2; otherwise each open edge adds w (Lambda', w (M' + Lambda')) of an
independent cluster of depth bound d - 1.  So the transforms

    omega_d(s) = 1 - E[exp(-s Lambda_d)],  eta_d(s) = E[Lambda_d exp(-s Lambda_d)],
    chi_d(s) = E[M_d exp(-s Lambda_d)]

satisfy, with primes for level d - 1 at the point w s,

    omega_d = kappa^2 (1 - e^-s) + 2 pi omega' - pi^2 omega'^2
    eta_d   = kappa^2 e^-s + 2 pi w eta' (kappa + pi (1 - omega'))
    chi_d   = 2 pi w (kappa + pi (1 - omega')) (chi' + eta')

from all zeros at level 0, and level j is needed only at s w^(d - j).  Over
clusters with a leaf, Lambda > 0, whose probability Y_d = 1 - Z_d is omega_d at
s = infinity, E[M / Lambda] is the integral of chi over s > 0 and, by Frullani's
integral, E[ln Lambda] that of (omega - Y (1 - e^-s)) / s.  A cluster's entropy
in bits is log2(Lambda) - log2(w) M / Lambda.

Both integrals are trapezoid sums in u = ln s over [-80, 120] at step 0.01,
written out (``np.trapz`` is gone from NumPy 2.4 and ``np.trapezoid`` absent
before 2.0).  ``1 - e^-s`` is computed as ``-expm1(-s)`` and omega is carried
itself, not 1 - omega: both keep the digits that cancel at small s.
"""

from __future__ import annotations

import math

import numpy as np

STEP = 0.01
# s = 0, where eta and chi are E[Lambda] and E[M], then the grid in u = ln s
_S = np.concatenate([[0.0], np.exp(np.arange(-8000, 12001) * STEP)])


def transform_means(p: float, depth: int) -> dict[str, float]:
    """E[Lambda], the leafless probability Z, and E[avg length] and E[entropy
    bits] over clusters with a leaf, keyed by ``oracle.ExactStats``' names.
    Where no cluster has a leaf (depth 0, or p = 1) both conditional means
    are 0.0, as ``exact_enumeration`` reports them."""
    pi = w = p
    kappa = 1.0 - p
    leafy = 0.0  # Y_j = omega_j(infinity), the probability of a leaf
    for _ in range(depth):
        leafy = kappa**2 + 2 * pi * leafy - pi**2 * leafy**2
    if leafy == 0.0:
        return {"mean_normalization": 0.0, "leafless_probability": 1.0,
                "mean_avg_length": 0.0, "mean_entropy_bits": 0.0}
    omega = eta = chi = np.zeros_like(_S)
    for j in range(1, depth + 1):
        s = _S * w ** (depth - j)
        live = kappa + pi * (1.0 - omega)
        omega, eta, chi = (
            kappa**2 * -np.expm1(-s) + 2 * pi * omega - pi**2 * omega**2,
            kappa**2 * np.exp(-s) + 2 * pi * w * eta * live,
            2 * pi * w * live * (chi + eta),
        )
    s = _S[1:]
    # the integral over s > 0 of f is that of f(e^u) e^u over u: each array is f s
    length, log = (
        STEP * (g.sum() - (g[0] + g[-1]) / 2) / leafy
        for g in (chi[1:] * s, omega[1:] - leafy * -np.expm1(-s))
    )
    # at p = 0 only the root carries weight: M = 0, and the log2(0) term drops
    entropy = log / math.log(2) - (math.log2(w) * length if w else 0.0)
    return {"mean_normalization": float(eta[0]), "leafless_probability": 1.0 - leafy,
            "mean_avg_length": float(length), "mean_entropy_bits": float(entropy)}
