"""Elastostatic saddle solves, discrete initial data, and the
Schur-complement LU the time steps share.

Every LU, static or time step, is of one family per system and stress
block T: the Schur complements S_r(s) = [[T + s^2 K, C^T], [C, 0]], with
K = B^T M^-1 B, on the stress and rotation unknowns x.  S_r(s) is E_r(T) +
s^2 K_r on the range of x, E_r(T) = T + C + C^T, the RangeOperator a system
holds as ``Eop``, and every product with it is made from its local blocks.
Its unknowns are eliminated level by level by dense class-block solves
(`assembly.Level`): each triangle's interior stresses and (k >= 2)
rotations, then, on cells of 2 x 2, 4 x 4, ... grid cells, each of at most
four cells below, the edges that its children share and (k = 1) the
rotations, up to the largest side <= max(4, n / 4) (nested dissection,
George, SIAM J. Numer. Anal. 10, 1973, with dense fronts, Duff & Reid, ACM
TOMS 9, 1983).  So the sparse LU is of the complement on the edge unknowns
of the largest cells' boundaries only, the domain's boundary included,
gathered through the source maps of their pattern and factored by
`factorize` in SuperLU's own minimum-degree order.  No LU is kept with the
system: a saddle LU is dropped after its solve, and a step LU when
`dynamics.integrate` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import (BlockSystem, Level, _by_class, _by_parts, _gather, assemble_body_load,
                       assemble_dirichlet_load, l2_pairing)
from .errors import SingularSystemError
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
    """Sparse LU of a condensed Schur complement S in SuperLU's minimum-degree
    order of S + S^T (Liu, ACM TOMS 11, 1985), applied symmetrically, with
    diagonal pivots; a singular S raises SingularSystemError.  S holds edge
    unknowns only: for a real shift it is SPD at every k (the eliminated
    rotations took all negative inertia), so in exact arithmetic every
    diagonal pivot is positive and the order sets the fill alone."""
    try:
        return spla.splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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


def _condense(level: Level, S: np.ndarray, what: str):
    """Eliminate the unknowns a level's patches do not keep from their class
    blocks S (class, W, W) (Arnold & Brezzi, M2AN 19, 1985; Cockburn,
    Gopalakrishnan & Guzman, Math. Comp. 79, 2010): one dense LU of each
    class's S_LL by LAPACK's getrf, and X = S_LL^-1 S_LG by its getrs,
    refined once in working precision (componentwise backward stable where
    a block is badly scaled, Skeel, Math. Comp. 35, 1980), give the
    complement S_GG - S_GL X, made symmetric.  Returns it and the
    level's elimination: for each class its LU and the slots of S_LL's rows
    in the order of its row interchanges; S_LG and X (class, nL, nG).  A
    singular S_LL raises SingularSystemError."""
    loc, glob = np.flatnonzero(~level.keep), np.flatnonzero(level.keep)
    S_LG = S[:, loc[:, None], glob]
    X, factors = np.empty_like(S_LG), []
    getrf, getrs = sla.get_lapack_funcs(("getrf", "getrs"), (S,))
    for c in range(len(S) if len(loc) else 0):
        S_LL = S[c].T[loc[:, None], loc].T  # Fortran order
        lu, piv, info = getrf(S_LL)
        if info:
            raise SingularSystemError(f"{what} factorization failed: local block: "
                                      f"class {c} is singular")
        X[c] = getrs(lu, piv, S_LG[c])[0]
        X[c] += getrs(lu, piv, S_LG[c] - S_LL @ X[c])[0]
        order = loc.tolist()
        for i, j in enumerate(piv.tolist()):  # row i swapped with row j, in turn
            order[i], order[j] = order[j], order[i]
        factors.append((lu, order))
    G = S[:, glob[:, None], glob] - S_LG.swapaxes(1, 2) @ X
    return 0.5 * (G + G.swapaxes(1, 2)), (factors, S_LG, X)


def _solve_by_class(factors, gathers, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows ``out`` (P, nL), grouped by class, of S_LL^-1 b_L for each
    patch: a class's right-hand sides b[gather].T, gathered in the order of
    its row interchanges and in Fortran order, are solved in place by two
    trsm with its LU from `_condense`, b_L^T L^-T U^-T."""
    if factors:
        trsm, = sla.get_blas_funcs(("trsm",), (factors[0][0], b))
    lo = 0
    for (lu, _), gather in zip(factors, gathers):
        hi = lo + gather.shape[1]
        y = trsm(1.0, lu, b[gather].T, side=1, lower=1, trans_a=1, diag=1, overwrite_b=True)
        out[lo:hi] = trsm(1.0, lu, y, side=1, trans_a=1, overwrite_b=True)
        lo = hi
    return out


def _condensed(system: BlockSystem, s2, what: str):
    """The complement of S_r = E_r(T) + s2 K_r, of the system's E_r(T)
    (``Eop``) and K_r blocks, on the unknowns that the last of its levels
    keeps, by `_condense` at each level, a cell level's blocks summed from
    the complements below: its CSC matrix on Eop's pattern, and each level's
    elimination."""
    op = system.Eop
    G, elimination = _condense(op.levels[0], op.blocks + s2 * system.Kblocks, what)
    eliminations = [elimination]
    for level in op.levels[1:]:
        G, elimination = _condense(level, level.blocks(G), what)
        eliminations.append(elimination)
    data = _gather(G, op.src, op.dup, op.src2)
    return (sps.csc_matrix((data, op.indices, op.indptr), shape=(len(op.indptr) - 1,) * 2),
            eliminations)


class SchurLU:
    """Solver of S(s) = [[T, s B^T, C^T], [-s B, M, 0], [C, 0, 0]] on the
    (stress, velocity, rotation) unknowns of a system, for the stress block T
    of the system's E_r(T) (``Eop``) and a real or complex shift s.  The
    velocity is eliminated with the reciprocals of M's diagonal, leaving
    S_r(s) = E_r(T) + s^2 K_r on the range of x; each level of Eop
    eliminates its patches' unknowns by their class blocks (`_condensed`):
    each triangle's interior stresses and (k >= 2) rotations, then, level by
    level, each cell's unknowns but those on its boundary.  So the one sparse
    LU is of the complement on the edge unknowns of the largest cells'
    boundaries (`factorize`).

    Vectors are (x, velocity).  Solves 1, 2, 4, 8, ... are
    residual-checked against S(s) applied block by block.  The LU lives as
    long as this object: its owner drops it after its last solve.
    """

    def __init__(self, system: BlockSystem, s, what: str):
        self.system, self.n = system, system.spaces.dim_x
        self._minv, self._BT = 1.0 / system.Mdiag, system.Bmat.T
        S, self._eliminations = _condensed(system, s * s, what)
        self._lu = factorize(S, what)
        self._maps = [(level.table[:, ~level.keep], level.front(),
                       [level.table[lo:hi, rows].T.copy() for (_, rows), lo, hi
                        in zip(factors, level.bounds, level.bounds[1:])])
                      for level, (factors, *_) in zip(system.Eop.levels, self._eliminations)]
        self._s, self._what, self._solves = s, what, 0

    def _apply(self, x: np.ndarray) -> np.ndarray:
        system, n, s = self.system, self.n, self._s
        x_r, v = x[:n], x[n:]
        return np.concatenate([system.Eop @ x_r + s * _by_parts(self._BT.dot, v),
                               system.Mdiag * v - s * _by_parts(system.Bmat.dot, x_r)])

    def _solve_range(self, b: np.ndarray) -> np.ndarray:
        """S_r(s)^-1 b: level by level, up from the triangles, z = S_LL^-1 b_L
        by the class LUs, and S_GL z taken from the kept unknowns'
        right-hand side; one LU solve; then level by level, down, x_L = z -
        X x_G.  Each kept right-hand side and solution ends in a 0, the
        value a cell's spare slots read."""
        levels = list(zip(self.system.Eop.levels, self._maps, self._eliminations))
        rhs, zs = [b], []
        for level, (local, front, gathers), (factors, S_LG, _) in levels:
            z = _solve_by_class(factors, gathers, b,
                                np.empty(local.shape, np.result_type(b, S_LG)))
            to_kept = partial(np.bincount, front.ravel(), minlength=len(level.kept) + 1)
            y = _by_class(z, S_LG, level.bounds)
            b = np.append(b[level.kept], 0.0) - _by_parts(to_kept, y.ravel())
            rhs.append(b)
            zs.append(z)
        x = np.append(self._lu.solve(b[:-1]), 0.0)
        for (level, (local, front, _), (*_, X)), z, below in zip(levels[::-1], zs[::-1],
                                                              rhs[-2::-1]):
            x_G = x
            x = np.zeros(len(below), np.result_type(z, x_G))
            x[level.kept] = x_G[:-1]
            x[local] = z - _by_class(x_G[front], X.swapaxes(1, 2), level.bounds)
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


def _solve_saddle(system: BlockSystem, rhs_x, rhs_v):
    """Checked solve of the saddle system S = [[E, B^T], [B, 0]] in (x,
    velocity), for the system's E = E_r(T) (``Eop``), by
    augmented-Lagrangian sweeps (Fortin-Glowinski, 1983); returns (x,
    velocity).

    A sweep adds P^-1 (b - S x) to x, with P = [[E, B^T], [B, -M / tau^2]]
    solved as SchurLU's S(tau) on (rho_x, -tau rho_v), whose velocity part is
    then scaled by tau.  tau = sqrt(rho / mu), for the density rho and shear
    modulus mu of the system's material, whose compliance T is, keeps tau^2 K
    on the scale of T.
    The sweeps stop at a 1e-13 relative residual or once it stops halving, so
    a B that is not onto fails the final residual check.  The LU is dropped.
    """
    n, B, E = system.spaces.dim_x, system.Bmat, system.Eop
    tau = np.sqrt(system.material.rho / system.material.mu)
    lu = SchurLU(system, tau, "saddle")

    def apply(x):
        return np.concatenate([E @ x[:n] + B.T @ x[n:], B @ x[:n]])

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
        x0, _ = _solve_saddle(system, rhs_x, rhs_v)
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
