"""Elastostatic saddle solves, the weakly symmetric elliptic projection,
and discrete initial data for the dynamic solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import (BlockSystem, assemble_body_load, assemble_dirichlet_load,
                       assemble_stress_mass)
from .errors import SingularSystemError
from .quadrature import triangle_rule
from .spaces import DiscreteSpaces, l2_project_velocity


@dataclass
class StaticSolution:
    sigma: np.ndarray
    u: np.ndarray
    r: np.ndarray


@dataclass
class InitialData:
    """Discrete initial data: weakly symmetric sigma0, projected v0 and u0."""

    sigma0: np.ndarray
    v0: np.ndarray
    r0: np.ndarray
    u0: np.ndarray


def factorize(S: sps.spmatrix, what: str, **options):
    """Sparse LU of S by splu with ``options``; a singular S raises
    SingularSystemError."""
    try:
        return spla.splu(S, **options)
    except RuntimeError as exc:
        raise SingularSystemError(f"{what} factorization failed: {exc}") from exc


def checked_solve(solve, S: sps.spmatrix, rhs: np.ndarray, what: str) -> np.ndarray:
    """x = solve(rhs) for a solver of S, with the residual ||S x - rhs|| checked.

    The residual must stay within 1e-10 max(||rhs||, ||x||, 1); a non-finite
    or inaccurate solution raises SingularSystemError.
    """
    x = solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"{what} solve produced non-finite values")
    scale = max(np.linalg.norm(rhs), np.linalg.norm(x), 1.0)
    res = np.linalg.norm(S @ x - rhs)
    if res > 1e-10 * scale:
        raise SingularSystemError(f"{what} solve residual {res:.3e} exceeds tolerance")
    return x


def _solve_saddle(system: BlockSystem, top_left, rhs_sigma, rhs_v, rhs_r):
    """One checked solve of the saddle system; its LU is dropped on return,
    since no caller solves with the same matrix twice."""
    S = sps.bmat(
        [[top_left, system.Bmat.T, system.Cmat.T],
         [system.Bmat, None, None],
         [system.Cmat, None, None]],
        format="csc",
    )
    lu = factorize(S, "saddle")
    x = checked_solve(lu.solve, S, np.concatenate([rhs_sigma, rhs_v, rhs_r]), "saddle")
    nM, nV, _ = system.dims
    return x[:nM], x[nM:nM + nV], x[nM + nV:]


def solve_elastostatics(system: BlockSystem, rhs_sigma: np.ndarray,
                        rhs_v: np.ndarray, rhs_r: np.ndarray) -> StaticSolution:
    """Solve the weak-symmetry saddle system with the compliance pairing.

    Block rows: (A s, tau) + (div tau, u) + (r, tau) = rhs_sigma;
    (div s, w) = rhs_v; (s, q) = rhs_r.
    """
    sig, u, r = _solve_saddle(system, system.Amat, rhs_sigma, rhs_v, rhs_r)
    return StaticSolution(sigma=sig, u=u, r=r)


def elliptic_projection(system: BlockSystem, sigma: Callable,
                        div_sigma: Callable) -> np.ndarray:
    """Weakly symmetric elliptic projection of an exact stress field.

    Solves the saddle system with the plain L2 stress pairing and data
    ((sigma, tau), (div sigma, w), (sigma, q)); div_sigma must be supplied
    analytically; the data are integrated with the degree-12 rule.  The
    result preserves the divergence moments and the skew moments of sigma.
    """
    degree = 12
    spaces = system.spaces
    if "stress_mass" not in system._cache:
        system._cache["stress_mass"] = assemble_stress_mass(spaces)
    mass = system._cache["stress_mass"]

    rule = triangle_rule(degree)
    X = spaces.physical_points(rule)
    W = spaces.quad_weights(rule)
    vals = np.asarray(sigma(X[..., 0], X[..., 1]), dtype=float)  # (2, 2, T, nq)
    V = spaces.stress_row_values(rule)
    rhs_sigma = np.empty(spaces.dim_stress)
    for r in range(2):
        loc = np.einsum("tq,tbdq,dtq->tb", W, V, vals[r])
        vec = np.zeros(spaces.n_row_global)
        np.add.at(vec, spaces.row_dof_map, loc)
        rhs_sigma[r * spaces.n_row_global:(r + 1) * spaces.n_row_global] = vec

    rhs_v = assemble_body_load(spaces, lambda t, x, y: div_sigma(x, y), 0.0, degree=degree)

    psi = spaces.scalar_values(rule)
    skew = vals[0, 1] - vals[1, 0]
    rhs_r = np.einsum("tq,iq,tq->ti", W, psi, skew).ravel()

    sig, _, _ = _solve_saddle(system, mass, rhs_sigma, rhs_v, rhs_r)
    return sig


def build_initial_data(case, system: BlockSystem, spaces: DiscreteSpaces) -> InitialData:
    """Initial data: v0 and u0 by local L2 projection, (sigma0, r0) from the
    mixed elliptic system driven by div sigma(0), weakly symmetric by
    construction.  For inhomogeneous displacement data the boundary moment
    of u(0) enters the first block row.

    When every assembled right-hand side is exactly zero (u(0) = 0), the
    solution is sigma0 = r0 = 0 and no saddle matrix is built or factored.
    Such a run then never checks that B is onto, which the saddle LU did;
    `mixedelast infsup` measures the inf-sup constant of [B; C].  The step LU
    still fails if C is not onto.
    """
    v0 = l2_project_velocity(spaces, lambda x, y: case.v(0.0, x, y))
    u0 = l2_project_velocity(spaces, lambda x, y: case.u(0.0, x, y))

    if case.homogeneous:
        rhs_sigma = np.zeros(spaces.dim_stress)
    else:
        rhs_sigma = assemble_dirichlet_load(spaces, case.u, 0.0)
    rhs_v = assemble_body_load(spaces, case.div_sigma, 0.0)
    rhs_r = np.zeros(spaces.dim_rotation)

    if not (rhs_sigma.any() or rhs_v.any() or rhs_r.any()):
        return InitialData(sigma0=np.zeros(spaces.dim_stress), v0=v0,
                           r0=np.zeros(spaces.dim_rotation), u0=u0)
    sol = solve_elastostatics(system, rhs_sigma, rhs_v, rhs_r)
    return InitialData(sigma0=sol.sigma, v0=v0, r0=sol.r, u0=u0)


def infsup_constant(system: BlockSystem) -> float:
    """Discrete inf-sup constant of the (M_h; V_h x K_h) pairing.

    beta^2 is the smallest eigenvalue of N^{-1} Bb D^{-1} Bb^T with
    Bb = [B; C], D the H(div) Gram on M_h and N the V_h x K_h mass,
    the rotation measured in the scalar L2 norm of its stored component.
    Dense eigensolve; intended for small diagnostic meshes only.
    """
    import scipy.linalg as sla

    spaces = system.spaces
    mass = assemble_stress_mass(spaces)
    # velocity mass with rho = 1 is area * I per scalar block; same for rotation
    areas = spaces.areas
    m = spaces.n_scalar
    mv_diag = np.repeat(areas, 2 * m)
    mk_diag = np.repeat(areas, m)

    divdiv = system.Bmat.T @ sps.diags(1.0 / mv_diag) @ system.Bmat
    D = (mass + divdiv).toarray()
    Bb = sps.vstack([system.Bmat, system.Cmat]).toarray()
    N = np.diag(np.concatenate([mv_diag, mk_diag]))
    S = Bb @ np.linalg.solve(D, Bb.T)
    eigs = sla.eigh(S, N, eigvals_only=True)
    return float(np.sqrt(max(eigs[0], 0.0)))
