"""Weighted eigenvalue sums on the z side of the resolvent set.

The paper's Lieb-Thirring-type bounds are sums over discrete eigenvalues z
of dist(z, sigma(H0)) times an explicit |z|-dependent weight, one weight per
kinetic symbol.  NAMED_WEIGHTS lists them, and weighted_blaschke_sum
evaluates the sum for a list of classified points.  The proof reaches these
weights through conformal disk charts and a disk-side Blaschke condition;
only the z-side sums are computed here.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .spectra import SpectralLabel, SpectralPoint

__all__ = ["NAMED_WEIGHTS", "weighted_blaschke_sum"]

#: Weight vocabulary for weighted_blaschke_sum.  Each name stands for the
#: z-side weight multiplying dist(z, sigma(H0)) in the eigenvalue sum:
#:   plain           1                                  (compact-region sums)
#:   inverse_sqrt    |z|^{-(1-eps)/2}                   (scalar slit plane)
#:   massless_dirac  (1+|z|)^{-alpha(d-1)/(d+1)-1-eps}
#:   massive_dirac   |z^2-1|^{alpha/2-1+eps} (1+|z|)^{-alpha-alpha(d-1)/(d+1)+1-eps}
#:   relativistic    |z|^{alpha/2-1+eps} (1+|z|)^{-2alpha(d-1)/(d+1)+1/2-alpha/2-eps}
NAMED_WEIGHTS = (
    "plain",
    "inverse_sqrt",
    "massless_dirac",
    "massive_dirac",
    "relativistic",
)


def _require(value, name: str, weight: str):
    if value is None:
        raise ValueError(f"named weight {weight!r} needs the {name} parameter")
    return float(value)


def weighted_blaschke_sum(
    points: Iterable[SpectralPoint],
    weight: str,
    *,
    d: int = None,
    alpha: float = None,
    eps: float = None,
) -> float:
    """Weighted sum over discrete eigenvalues.

    Each point contributes dist(z, sigma) times the named |z| weight (see
    NAMED_WEIGHTS), with alpha/eps/d bound from the run configuration.
    Summation uses numpy's deterministic pairwise reduction.
    """
    points = list(points)
    for p in points:
        if p.label is not SpectralLabel.DISCRETE:
            raise ValueError(f"point {p.z} is labeled {p.label.value}, need Discrete")
        if p.dist_sigma <= 0.0:
            raise ValueError(f"point {p.z} lies on the essential spectrum")
    if not points:
        return 0.0

    if weight == "plain":
        terms = [p.dist_sigma for p in points]
    elif weight == "inverse_sqrt":
        e = _require(eps, "eps", weight)
        terms = [p.dist_sigma * abs(p.z) ** (-(1.0 - e) / 2.0) for p in points]
    elif weight == "massless_dirac":
        a = _require(alpha, "alpha", weight)
        e = _require(eps, "eps", weight)
        dd = _require(d, "d", weight)
        ratio = (dd - 1.0) / (dd + 1.0)
        terms = [
            p.dist_sigma * (1.0 + abs(p.z)) ** (-a * ratio - 1.0 - e) for p in points
        ]
    elif weight == "massive_dirac":
        a = _require(alpha, "alpha", weight)
        e = _require(eps, "eps", weight)
        dd = _require(d, "d", weight)
        ratio = (dd - 1.0) / (dd + 1.0)
        terms = [
            p.dist_sigma
            * abs(p.z * p.z - 1.0) ** (a / 2.0 - 1.0 + e)
            * (1.0 + abs(p.z)) ** (-a - a * ratio + 1.0 - e)
            for p in points
        ]
    elif weight == "relativistic":
        a = _require(alpha, "alpha", weight)
        e = _require(eps, "eps", weight)
        dd = _require(d, "d", weight)
        ratio = (dd - 1.0) / (dd + 1.0)
        terms = [
            p.dist_sigma
            * abs(p.z) ** (a / 2.0 - 1.0 + e)
            * (1.0 + abs(p.z)) ** (-2.0 * a * ratio + 0.5 - a / 2.0 - e)
            for p in points
        ]
    else:
        raise ValueError(f"unknown weight {weight!r}; named weights: {NAMED_WEIGHTS}")
    return float(np.sum(np.asarray(terms)))
