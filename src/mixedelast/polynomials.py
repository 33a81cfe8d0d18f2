"""Monomial and orthonormal polynomial bases on the reference triangle and edge.

The reference triangle is T = {(x, y): x >= 0, y >= 0, x + y <= 1}.  Scalar
bases for the discontinuous spaces are orthonormalized against the doubled
measure 2 dx on T, so that on a physical triangle of area |K| the Gram matrix
of the mapped basis is |K| times the identity.
"""

from __future__ import annotations

from math import factorial

import numpy as np


def monomial_exponents(degree: int) -> np.ndarray:
    """Exponent pairs (a, b) of all monomials x^a y^b with a + b <= degree."""
    exps = [(d - b, b) for d in range(degree + 1) for b in range(d + 1)]
    return np.array(exps, dtype=int)


def eval_monomials(exps: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values of each monomial at the given points, shape (n_mono,) + x.shape."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty((len(exps),) + x.shape, dtype=float)
    for i, (a, b) in enumerate(exps):
        out[i] = x**a * y**b
    return out


def monomial_derivative_matrices(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrices Dx, Dy with d/dx m_j = sum_i Dx[i, j] m_i (same exponent list)."""
    index = {(a, b): i for i, (a, b) in enumerate(map(tuple, exps))}
    n = len(exps)
    dx = np.zeros((n, n))
    dy = np.zeros((n, n))
    for j, (a, b) in enumerate(exps):
        if a > 0:
            dx[index[(a - 1, b)], j] = a
        if b > 0:
            dy[index[(a, b - 1)], j] = b
    return dx, dy


def reference_triangle_moment(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle: a! b! / (a+b+2)!."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def monomial_gram(exps: np.ndarray) -> np.ndarray:
    """Exact Gram matrix of the monomials against the doubled measure 2 dx on T."""
    n = len(exps)
    gram = np.empty((n, n))
    for i, (ai, bi) in enumerate(exps):
        for j, (aj, bj) in enumerate(exps):
            gram[i, j] = 2.0 * reference_triangle_moment(ai + aj, bi + bj)
    return gram


def orthonormal_scalar_basis(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of a basis of P_degree(T), orthonormal against 2 dx.

    Returns (exps, coef) with coef[i, :] the monomial coefficients of basis
    function i.  Rows are ordered by increasing polynomial degree, and the
    first function is the constant 1.
    """
    exps = monomial_exponents(degree)
    gram = monomial_gram(exps)
    chol = np.linalg.cholesky(gram)
    coef = np.linalg.solve(chol, np.eye(len(exps)))
    return exps, coef


def edge_legendre_basis(degree: int) -> np.ndarray:
    """Coefficients (in powers of t) of shifted Legendre polynomials on [0, 1],
    orthonormal in L2(0, 1).  Row i has degree i."""
    n = degree + 1
    # Gram of monomials t^i: 1 / (i + j + 1)
    gram = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    chol = np.linalg.cholesky(gram)
    return np.linalg.solve(chol, np.eye(n))


def eval_edge_polynomials(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Values of polynomials with coefficient rows ``coef`` at parameters t."""
    t = np.asarray(t, dtype=float)
    powers = t[None, :] ** np.arange(coef.shape[1])[:, None]
    return coef @ powers
