"""Quadrature rules on the reference triangle and the unit edge.

Triangle rules are conical products of a Gauss-Legendre rule with a
Gauss-Jacobi rule (weight 1 - y), which gives positive weights, interior
points, and certified polynomial exactness for every requested degree.
Edge rules are plain Gauss-Legendre on [0, 1].
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from math import comb

import numpy as np
from scipy.linalg import eigvals_banded

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


def _jacobi(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Jacobi polynomial P_n^(a, b)(x) for integer a, by the forward
    recurrence in the operation order of scipy.special.eval_jacobi."""
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return 0.5 * (2 * (a + 1) + (a + b + 2) * (x - 1))
    d = (a + b + 2) * (x - 1) / (2 * (a + 1))
    p = d + 1
    for j in range(1, n):
        t = 2 * j + a + b
        d = (((t * (t + 1) * (t + 2)) * (x - 1) * p + 2 * j * (j + b) * (t + 2) * d)
             / (2 * (j + a + 1) * (j + a + b + 1) * t))
        p = d + p
    return float(comb(n + int(a), n)) * p


def _gauss_jacobi_10(m: int):
    """m-point Gauss-Jacobi rule on [-1, 1] for the weight 1 - x.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    weight (1 - x)^a (1 + x)^b at a = 1, b = 0, refined by one Newton step;
    the weights come from P_m' and P_{m-1} at the nodes, scaled to sum to 2,
    the integral of the weight.  Every operation follows
    scipy.special.roots_jacobi, so the rule is bitwise the same as its
    rule, without importing scipy.special.
    """
    a, b = 1.0, 0.0
    k = np.arange(m, dtype=float)
    j = k[1:]
    band = np.zeros((2, m))
    band[0, 1:] = (2.0 / (2.0 * j + a + b) * np.sqrt((j + a) * (j + b) / (2 * j + a + b + 1))
                   * np.where(j == 1, 1.0, np.sqrt(j * (j + a + b) / (2.0 * j + a + b - 1))))
    band[1] = np.where(k == 0, (b - a) / (2 + a + b),
                       (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2)))
    x = eigvals_banded(band)
    dp = 0.5 * (m + a + b + 1) * _jacobi(m - 1, a + 1, b + 1, x)
    x -= _jacobi(m, a, b, x) / dp
    p = _jacobi(m - 1, a, b, x)
    # scale both factors to O(1) before their product, as roots_jacobi does
    log_p, log_dp = np.log(np.abs(p)), np.log(np.abs(dp))
    p /= np.exp((log_p.max() + log_p.min()) / 2.0)
    dp /= np.exp((log_dp.max() + log_dp.min()) / 2.0)
    w = 1.0 / (p * dp)
    return x, w * (2.0 / w.sum())


def _check_degree(d: int) -> None:
    if not 1 <= d <= MAX_DEGREE:
        raise ConfigError(f"quadrature degree must be in 1..{MAX_DEGREE}, got {d}")


@lru_cache(maxsize=None)
def triangle_rule(d: int) -> QuadratureRule:
    """Rule on the reference triangle exact for polynomials of degree <= d."""
    _check_degree(d)
    m = (d + 2) // 2
    # Gauss-Legendre on [0, 1]
    xg, wg = np.polynomial.legendre.leggauss(m)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
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
    _check_degree(d)
    m = (d + 1 + 1) // 2
    t, w = np.polynomial.legendre.leggauss(m)
    return QuadratureRule(points=0.5 * (t + 1.0), weights=0.5 * w)
