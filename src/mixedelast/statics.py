"""Elastostatic saddle solves, the weakly symmetric elliptic projection,
discrete initial data, and the Schur-complement LU the time steps share.

Every LU, static or time step, is of one family per system and stress
block T: the Schur complements S_r(s) = [[T + s^2 K, C^T], [C, 0]], with
K = B^T M^-1 B, on the stress and rotation unknowns x, which the spaces
number in a symmetric mesh-entity order.  S_r(s) is E_r(T) + s^2 K_r on the
range of x, E_r(T) = T + C + C^T, passed as its RangeOperator, and every
product with it is made from its local blocks.  Each triangle's interior
stresses and rotations are eliminated by dense class-block solves, so the
sparse LU is of the complement on the edge unknowns only, gathered through
the source maps of their pattern (see `assembly`).  No LU is kept with the
system: a saddle LU is dropped after its solve, and a step LU when
`dynamics.integrate` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import (BlockSystem, RangeOperator, _by_class, _by_parts, _gather,
                       assemble_body_load, assemble_dirichlet_load, l2_pairing)
from .errors import SingularSystemError
from .quadrature import triangle_rule
from .spaces import l2_project_velocity


@dataclass
class InitialData:
    """Discrete initial data: x0 holds the weakly symmetric sigma0 and its
    rotation r0 in the range of the spaces' stress and rotation maps; v0 and
    u0 are projected."""

    x0: np.ndarray
    v0: np.ndarray
    u0: np.ndarray


def factorize(S: sps.spmatrix, what: str):
    """Sparse LU of a condensed Schur complement S built in the entity order,
    which keeps that order and pivots on the diagonal; a singular S raises
    SingularSystemError.  In exact arithmetic every diagonal pivot is
    nonzero: for k >= 2 and a real shift S is SPD (the eliminated rotations
    took all negative inertia); at k = 1 each rotation follows half of its
    own triangle's stresses (a negative pivot)."""
    try:
        return spla.splu(S, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(f"{what} factorization failed: {exc}") from exc


def _norm(x: np.ndarray) -> float:
    """||x|| by BLAS nrm2, which scales as it sums: no overflow for a finite x."""
    return sla.norm(x, check_finite=False)


def checked_solve(solve, apply, rhs: np.ndarray, what: str) -> np.ndarray:
    """x = solve(rhs) for a solver of the matrix ``apply`` multiplies by.

    The residual ||apply(x) - rhs|| must stay within 1e-10 max(||rhs||,
    ||x||, 1); a non-finite or inaccurate solution raises SingularSystemError.
    """
    x = solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"{what} solve produced non-finite values")
    scale = max(_norm(rhs), _norm(x), 1.0)
    res = _norm(apply(x) - rhs)
    if res > 1e-10 * scale:
        raise SingularSystemError(f"{what} solve residual {res:.3e} exceeds tolerance")
    return x


def _condense(op: RangeOperator, K: np.ndarray, s2, what: str):
    """Eliminate each triangle's local unknowns L, those outside ``op.glob``,
    from S_r = E_r(T) + s2 K_r of E_r(T)'s RangeOperator and K_r's blocks by
    class blocks (Arnold & Brezzi, M2AN 19, 1985; Cockburn, Gopalakrishnan &
    Guzman, Math. Comp. 79, 2010): S_LL [Z | X] = [I | S_LG], solved densely,
    gives the CSC matrix of each class's S_GG - S_GL X, made symmetric, on
    op's pattern, and [Z^T | X] (class, nL, nL + nG).  A singular S_LL
    raises SingularSystemError."""
    S, loc = op.blocks + s2 * K, ~op.glob
    S_L, nL = S[:, loc], np.count_nonzero(loc)
    try:
        ZX = np.linalg.solve(S_L[:, :, loc], np.concatenate(
            [np.broadcast_to(np.eye(nL), (len(S), nL, nL)), S_L[:, :, op.glob]], axis=2))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what} factorization failed: local block: {exc}") from exc
    ZX[:, :, :nL] = ZX[:, :, :nL].swapaxes(1, 2).copy()
    G = S[:, op.glob][:, :, op.glob] - S_L[:, :, op.glob].swapaxes(1, 2) @ ZX[:, :, nL:]
    data = _gather(0.5 * (G + G.swapaxes(1, 2)), op.src, op.dup, op.src2)
    return sps.csc_matrix((data, op.indices, op.indptr), shape=(len(op.indptr) - 1,) * 2), ZX


class SchurLU:
    """Solver of S(s) = [[T, s B^T, C^T], [-s B, M, 0], [C, 0, 0]] on the
    (stress, velocity, rotation) unknowns of a system, for a stress block T,
    given by the RangeOperator E_op of its E_r(T) on the system's table and
    pattern, and a real or complex shift s.  The velocity is eliminated with
    the reciprocals of M's diagonal, leaving S_r(s) = E_r(T) + s^2 K_r on
    the range of x, and each triangle's interior stresses and rotations by
    its class block (`_condense`), so the one sparse LU is of the
    complement on the edge unknowns, in x's order.

    Vectors are (x, velocity).  Solves 1, 2, 4, 8, ... are
    residual-checked against S(s) applied block by block.  The LU lives as
    long as this object: its owner drops it after its last solve.
    """

    def __init__(self, system: BlockSystem, E_op: RangeOperator, s, what: str):
        if E_op.src is not system.Eop.src:
            raise ValueError("E_op must be on the system's E_r table and pattern")
        self.system, self.E_op, self.n = system, E_op, system.spaces.dim_x
        self._minv, self._BT = 1.0 / system.Mdiag, system.Bmat.T
        S, self._ZX = _condense(E_op, system.Kblocks, s * s, what)
        self._lu = factorize(S, what)
        self._local = E_op.table[:, ~E_op.glob]
        self._gtable = np.searchsorted(E_op.edge, E_op.table[:, E_op.glob])
        self._s, self._what, self._solves = s, what, 0

    def _apply(self, x: np.ndarray) -> np.ndarray:
        system, n, s = self.system, self.n, self._s
        x_r, v = x[:n], x[n:]
        return np.concatenate([self.E_op @ x_r + s * _by_parts(self._BT.dot, v),
                               system.Mdiag * v - s * _by_parts(system.Bmat.dot, x_r)])

    def _solve_range(self, b: np.ndarray) -> np.ndarray:
        """S_r(s)^-1 b: X^T b_L taken from the edge unknowns' right-hand
        side, one LU solve for x_e, then x_L = Z b_L - X x_e."""
        op, ZX, g, nL = self.E_op, self._ZX, self._gtable, self._ZX.shape[1]
        y = _by_class(b[self._local], ZX, op.bounds)
        x = np.empty(len(b), y.dtype)
        to_edge = partial(np.bincount, g.ravel(), minlength=len(op.edge))
        x_e = x[op.edge] = self._lu.solve(b[op.edge] - _by_parts(to_edge, y[:, nL:].ravel()))
        x[self._local] = y[:, :nL] - _by_class(x_e[g], ZX[:, :, nL:].swapaxes(1, 2), op.bounds)
        return x

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        # x_r = S_r^-1 (b_r - s B^T M^-1 b_v), x_v = M^-1 (b_v + s B x_sigma)
        n, s, minv = self.n, self._s, self._minv
        w = minv * rhs[n:]
        x = np.empty(len(rhs), dtype=np.result_type(rhs, s))
        x[:n] = self._solve_range(rhs[:n] - s * _by_parts(self._BT.dot, w))
        x_v = np.multiply(minv, _by_parts(self.system.Bmat.dot, x[:n]), out=x[n:])
        np.multiply(s, x_v, out=x_v)  # s first: a complex product is not commutative bitwise
        x_v += w
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self._solves += 1
        if self._solves & (self._solves - 1):
            return self._solve(rhs)
        return checked_solve(self._solve, self._apply, rhs, self._what)


_MAX_SWEEPS = 50  # augmented-Lagrangian sweeps per saddle solve, at most


def _solve_saddle(system: BlockSystem, E_op: RangeOperator, mu: float, rhs_x, rhs_v):
    """Checked solve of the saddle system S = [[E, B^T], [B, 0]] in (x,
    velocity), for E = E_r(T) given as SchurLU takes it, by
    augmented-Lagrangian sweeps (Fortin-Glowinski, 1983); returns (x,
    velocity).

    A sweep adds P^-1 (b - S x) to x, with P = [[E, B^T], [B, -M / tau^2]]
    solved as SchurLU's S(tau) on (rho_x, -tau rho_v), whose velocity part is
    then scaled by tau.  tau = sqrt(rho / mu), for the material's density rho
    and the shear modulus mu whose compliance T is, keeps tau^2 K on the scale
    of T.
    The sweeps stop at a 1e-13 relative residual or once it stops halving, so
    a B that is not onto fails the final residual check.  The LU is dropped.
    """
    n, B = system.spaces.dim_x, system.Bmat
    tau = np.sqrt(system.material.rho / mu)
    lu = SchurLU(system, E_op, tau, "saddle")

    def apply(x):
        return np.concatenate([E_op @ x[:n] + B.T @ x[n:], B @ x[:n]])

    def sweeps(b):
        x, res, last = np.zeros_like(b), b.copy(), np.inf
        for _ in range(_MAX_SWEEPS):
            res[n:] *= -tau
            step = lu.solve(res)
            step[n:] *= tau
            x += step
            res = b - apply(x)
            norm = _norm(res)
            if (norm <= 1e-13 * max(_norm(b), _norm(x), 1.0)
                    or norm > 0.5 * last):
                break
            last = norm
        return x

    x = checked_solve(sweeps, apply, np.concatenate([rhs_x, rhs_v]), "saddle")
    return x[:n], x[n:]


def elliptic_projection(system: BlockSystem, sigma: Callable,
                        div_sigma: Callable) -> np.ndarray:
    """Weakly symmetric elliptic projection of an exact stress field.

    Solves the saddle system with the plain L2 stress pairing and data
    ((sigma, tau), (div sigma, w), (sigma, q)); div_sigma must be supplied
    analytically; the data are integrated with the degree-12 rule.  The
    result, an x with zero rotation entries, preserves the divergence
    moments and the skew moments of sigma.
    """
    spaces = system.spaces
    rule = triangle_rule(12)
    X = spaces.physical_points(rule)
    W = spaces.quad_weights(rule)
    vals = np.asarray(sigma(X[..., 0], X[..., 1]), dtype=float)  # (2, 2, T, nq)
    V = spaces.stress_row_values(rule)[spaces.tri_class]
    loc = np.einsum("tq,tbdq,rdtq->trb", W, V, vals)
    rhs_x = np.bincount(spaces.stress_map.ravel(), loc.ravel(), spaces.dim_x)
    rhs_x[spaces.rotation_map.ravel()] = spaces.scalar_moments(W, rule, vals[0, 1] - vals[1, 0])
    rhs_v = spaces.scalar_moments(W, rule, np.asarray(div_sigma(X[..., 0], X[..., 1]),
                                                      dtype=float))

    # the L2 pairing is the compliance of mu = 1/2 (and lambda = 0)
    x, _ = _solve_saddle(system, l2_pairing(system), 0.5, rhs_x, rhs_v)
    x[spaces.rotation_map] = 0.0  # the multiplier
    return x


def build_initial_data(case, system: BlockSystem) -> InitialData:
    """Initial data: v0 and u0 by local L2 projection, (sigma0, r0) from the
    mixed elliptic system driven by div sigma(0), weakly symmetric by
    construction.  For inhomogeneous displacement data the boundary moment
    of u(0) enters the first block row.

    Nonzero data check that B is onto: the saddle sweeps converge only then.
    When every assembled right-hand side is exactly zero (u(0) = 0), sigma0 =
    r0 = 0 is returned without a solve, so B goes unchecked (`mixedelast
    infsup` measures the inf-sup constant of [B; C]); the step LU still fails
    if C is not onto.
    """
    spaces = system.spaces
    v0 = l2_project_velocity(spaces, lambda x, y: case.v(0.0, x, y))
    u0 = l2_project_velocity(spaces, lambda x, y: case.u(0.0, x, y))

    x0 = np.zeros(spaces.dim_x)  # also the right-hand side of a homogeneous case
    rhs_x = x0 if case.homogeneous else assemble_dirichlet_load(spaces, case.u, 0.0)
    rhs_v = assemble_body_load(spaces, case.div_sigma, 0.0)
    if rhs_x.any() or rhs_v.any():  # the rotation's right-hand side is zero
        x0, _ = _solve_saddle(system, system.Eop, system.material.mu, rhs_x, rhs_v)
    return InitialData(x0=x0, v0=v0, u0=u0)


def infsup_constant(system: BlockSystem) -> float:
    """Discrete inf-sup constant of the (M_h; V_h x K_h) pairing.

    beta^2 is the smallest eigenvalue of N^{-1} Bb D^{-1} Bb^T with
    Bb = [B; C], D the H(div) Gram on M_h and N the V_h x K_h mass,
    the rotation measured in the scalar L2 norm of its stored component.
    Dense eigensolve; intended for small diagnostic meshes only.
    """
    spaces, rho = system.spaces, system.material.rho
    B, C = system.Bmat, system.Cmat
    # the masses with rho = 1: M / rho for the velocity, area * I per rotation,
    # and D, the stress block of the L2 pairing plus rho K_r (K_r holds 1 / rho)
    stress, K_r = np.unique(spaces.stress_map), replace(system.Eop, blocks=system.Kblocks)
    D = (l2_pairing(system).tocsr() + rho * K_r.tocsr())[stress][:, stress].toarray()
    Bb = sps.vstack([B, C[spaces.rotation_map.ravel()]])[:, stress].toarray()
    N = np.diag(np.concatenate([system.Mdiag / rho, np.repeat(spaces.areas, spaces.n_scalar)]))
    S = Bb @ np.linalg.solve(D, Bb.T)
    eigs = sla.eigh(S, N, eigvals_only=True)
    return float(np.sqrt(max(eigs[0], 0.0)))
