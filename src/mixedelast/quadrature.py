"""Quadrature rules on the reference triangle and the unit edge.

Triangle rules are conical products of a Gauss-Legendre rule with a
Golub-Welsch Gauss-Jacobi rule (weight 1 - y), which gives positive weights,
interior points, and polynomial exactness for every requested degree,
without scipy.special.  Edge rules are plain Gauss-Legendre on [0, 1].
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError

MAX_DEGREE = 12


class QuadratureRule(NamedTuple):
    """Points and weights on a reference element, nothing more; unpacks as such.

    Triangle rules store barycentric points of shape (n, 3) with weights
    summing to 1/2 (the reference area); edge rules store parametric points
    of shape (n,) in [0, 1] with weights summing to 1.
    """

    points: np.ndarray
    weights: np.ndarray

    @property
    def xy(self) -> np.ndarray:
        """Cartesian reference coordinates (n, 2) of a triangle rule."""
        return self.points[:, 1:]


def _gauss_jacobi_10(m: int):
    """m-point Gauss-Jacobi rule on [-1, 1] for the weight 1 - x, exact for
    every polynomial of degree <= 2m - 1 times the weight, by Golub & Welsch
    (Math. Comp. 23, 1969): the nodes are the eigenvalues of the weight's
    Jacobi matrix, and the weights are 2 v_0^2, for the first components v_0
    of its unit eigenvectors and 2 the integral of the weight."""
    i, j = np.arange(m), np.arange(1, m)
    x, v = eigh_tridiagonal(-1.0 / ((2 * i + 1) * (2 * i + 3)),
                            np.sqrt(j * (j + 1)) / (2 * j + 1))
    return x, 2.0 * v[0] ** 2


@lru_cache(maxsize=None)
def triangle_rule(d: int) -> QuadratureRule:
    """Rule on the reference triangle exact for polynomials of degree <= d."""
    xg, wg = edge_rule(d)  # Gauss-Legendre on [0, 1], m = (d + 2) // 2 points; checks d
    m = len(xg)
    # Gauss-Jacobi on [0, 1] with weight (1 - y)
    yj, wj = _gauss_jacobi_10(m)
    yj = 0.5 * (yj + 1.0)
    wj = 0.25 * wj  # affine map scales both the measure and the weight factor
    x = np.outer(xg, 1.0 - yj).ravel()
    y = np.tile(yj, m)
    w = np.outer(wg, wj).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(points=bary, weights=w)


@lru_cache(maxsize=None)
def edge_rule(d: int) -> QuadratureRule:
    """Gauss rule on [0, 1] with ceil((d+1)/2) points, exact to degree d."""
    if not 1 <= d <= MAX_DEGREE:
        raise ConfigError(f"quadrature degree must be in 1..{MAX_DEGREE}, got {d}")
    m = (d + 1 + 1) // 2
    t, w = np.polynomial.legendre.leggauss(m)
    return QuadratureRule(points=0.5 * (t + 1.0), weights=0.5 * w)
