"""Elastostatic saddle solves, the weakly symmetric elliptic projection,
discrete initial data, and the Schur-complement LU the time steps share.

Every LU, static or time step, is of one family per system and stress
block T: the Schur complements S_r(s) = [[T + s^2 K, C^T], [C, 0]], with
K = B^T M^-1 B, in a symmetric mesh-entity order.  S_r(s) is the sum
E_r + s^2 K_r of two permuted matrices, and E_r = S_r(0) is also the matrix
of the steps' E-products.
"""

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
from .spaces import l2_project_velocity


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


def checked_solve(solve, apply, rhs: np.ndarray, what: str) -> np.ndarray:
    """x = solve(rhs) for a solver of the matrix ``apply`` multiplies by.

    The residual ||apply(x) - rhs|| must stay within 1e-10 max(||rhs||,
    ||x||, 1); a non-finite or inaccurate solution raises SingularSystemError.
    """
    x = solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"{what} solve produced non-finite values")
    scale = max(np.linalg.norm(rhs), np.linalg.norm(x), 1.0)
    res = np.linalg.norm(apply(x) - rhs)
    if res > 1e-10 * scale:
        raise SingularSystemError(f"{what} solve residual {res:.3e} exceeds tolerance")
    return x


def _velocity_inverse(system: BlockSystem) -> sps.csr_matrix:
    """Exact inverse of the velocity mass M, cached on the system.

    M has one m x m block per triangle and velocity component (a spatial
    density makes the blocks full); all blocks are inverted by one batched
    np.linalg.inv.
    """
    cache = system._cache
    if "Minv" not in cache:
        m = system.spaces.n_scalar
        M = system.Mmat.tocoo()
        nb = M.shape[0] // m
        blocks = np.zeros((nb, m, m))
        blocks[M.row // m, M.row % m, M.col % m] = M.data
        cache["Minv"] = sps.bsr_matrix(
            (np.linalg.inv(blocks), np.arange(nb), np.arange(nb + 1)), shape=M.shape
        ).tocsr()
    return cache["Minv"]


def _divergence_gram(system: BlockSystem) -> sps.csr_matrix:
    """K = B^T M^-1 B."""
    return (system.Bmat.T @ (_velocity_inverse(system) @ system.Bmat)).tocsr()


def _step_order(system: BlockSystem) -> np.ndarray:
    """Symmetric fill-reducing order of the (stress, rotation) unknowns of
    a Schur complement [[T + s^2 K, C^T], [C, 0]], cached on the system.

    The mesh entities (edges and triangles) are ranked by a minimum-degree
    ordering of the graph with one clique {T, e1, e2, e3} per triangle,
    the column order SuperLU picks for a diagonally dominant matrix of that
    graph (an ordering aid, not a solve LU).  The stress unknowns follow their
    entities' ranks, row 0 before row 1.  A triangle's rotation unknowns,
    whose diagonal block is zero and which couple only to that triangle's
    stresses, come right after the first half of them.
    """
    cache = system._cache
    if "order" not in cache:
        spaces = system.spaces
        mesh = spaces.mesh
        ne, nt, k = mesh.num_edges, mesh.num_triangles, spaces.k
        cliques = np.column_stack([mesh.triangle_edges, ne + np.arange(nt)])
        graph = sps.csc_matrix(
            (np.ones(16 * nt), (np.repeat(cliques, 4, axis=1).ravel(),
                                np.tile(cliques, 4).ravel())),
            shape=(ne + nt, ne + nt)) + 20.0 * sps.identity(ne + nt, format="csc")
        rank = spla.splu(graph, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True}).perm_c
        entity = np.concatenate([np.repeat(np.arange(ne), k + 1),
                                 ne + np.repeat(np.arange(nt), k * k - 1)])
        pos = np.empty(spaces.dim_stress)
        pos[np.argsort(np.tile(rank[entity], 2), kind="stable")] = np.arange(spaces.dim_stress)
        tri = np.sort(pos[spaces.stress_map].reshape(nt, -1), axis=1)
        median = tri[:, tri.shape[1] // 2 - 1] + 0.5
        cache["order"] = np.argsort(
            np.concatenate([pos, np.repeat(median, spaces.n_scalar)]), kind="stable")
    return cache["order"]


class _SchurPattern:
    """The Schur complements S_r(s) = [[T + s^2 K, C^T], [C, 0]] of a system
    and a stress block T, for any shift s, in the order of _step_order;
    K = B^T M^-1 B.

    With P the permutation into that order, S_r(s) = E_r + s^2 K_r for the
    CSR matrices ``E`` = E_r = P [[T, C^T], [C, 0]] P^T, which the steps'
    E-products also apply, and ``K`` = K_r = P [[K, 0], [0, 0]] P^T, built
    once per system and shared by every T.  Vectors live in the layout
    [(stress, rotation) in that order, velocity]: ``pos`` gives the layout
    position of each natural (stress, rotation) index and ``perm`` the
    natural index of each layout position.  ``B`` is B with its columns in
    the layout (``BT`` its transpose, both CSR).
    """

    def __init__(self, system: BlockSystem, T: sps.spmatrix):
        nM, nV, nK = system.dims
        order = _step_order(system)
        self.n = n = nM + nK
        # int32 where it fits halves the index arrays of the builds below
        self.pos = np.empty(n, dtype=np.int32 if n < 2 ** 31 else np.int64)
        self.pos[order] = np.arange(n)
        self.perm = np.concatenate([
            np.concatenate([np.arange(nM), nM + nV + np.arange(nK)])[order],
            nM + np.arange(nV)])
        B = system.Bmat.tocsr()
        self.B = sps.csr_matrix((B.data, self.pos[B.indices], B.indptr), shape=(nV, n))
        self.BT = self.B.T.tocsr()

        def permuted(row, col, data):  # P (the entries at (row, col)) P^T
            return sps.csr_matrix((data, (self.pos[row], self.pos[col])), shape=(n, n))

        T, C = T.tocoo(), system.Cmat.tocoo()
        self.E = permuted(np.concatenate([T.row, nM + C.row, C.col]),
                          np.concatenate([T.col, C.col, nM + C.row]),
                          np.concatenate([T.data, C.data, C.data]))
        if "K" not in system._cache:
            K = _divergence_gram(system).tocoo()
            system._cache["K"] = permuted(K.row, K.col, K.data)
        self.K = system._cache["K"]

    def matrix(self, s) -> sps.csc_matrix:
        """S_r(s); an entry that cancels exactly is dropped, as sparse sums do."""
        return (self.E + (s * s) * self.K).tocsc()


def _schur_pattern(system: BlockSystem, T: sps.spmatrix) -> _SchurPattern:
    """The _SchurPattern of T; cached on the system when T is its compliance
    A, the stress block of the initial data and of every step."""
    if T is not system.Amat:
        return _SchurPattern(system, T)
    if "schur" not in system._cache:
        system._cache["schur"] = _SchurPattern(system, T)
    return system._cache["schur"]


# SuperLU options for a Schur complement built in the entity order: keep that
# order and pivot on the diagonal.  In exact arithmetic every diagonal pivot
# is nonzero: the stress block is SPD (positive pivots), and each rotation
# follows half of its own triangle's stresses (a negative pivot).
_ORDERED_LU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})


class SchurLU:
    """Solver of S(s) = [[T, s B^T, C^T], [-s B, M, 0], [C, 0, 0]] on the
    (stress, velocity, rotation) unknowns, for a stress block T and a real or
    complex shift s.  The velocity is eliminated with the exact M^-1, so the
    LU is of the Schur complement S_r = [[T + s^2 K, C^T], [C, 0]] with
    K = B^T M^-1 B, formed by the system's _SchurPattern of T.

    Vectors are in the pattern's layout: the stress and rotation unknowns in
    the order of _step_order, then the velocity.  Solves 1, 2, 4, 8, ... are
    residual-checked against S(s) applied block by block.
    """

    def __init__(self, system: BlockSystem, T: sps.spmatrix, s, what: str):
        self.pattern = _schur_pattern(system, T)
        self._lu = factorize(self.pattern.matrix(s), what, **_ORDERED_LU)
        self._M, self._Minv = system.Mmat, _velocity_inverse(system)
        self._s, self._what, self._solves = s, what, 0

    def _apply(self, x: np.ndarray) -> np.ndarray:
        p, s = self.pattern, self._s
        x_r, v = x[:p.n], x[p.n:]
        return np.concatenate([p.E @ x_r + s * (p.BT @ v), self._M @ v - s * (p.B @ x_r)])

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        # x_r = S_r^-1 (b_r - s B^T M^-1 b_v), x_v = M^-1 (b_v + s B x_sigma)
        p, s = self.pattern, self._s
        w = self._Minv @ rhs[p.n:]
        x_r = self._lu.solve(rhs[:p.n] - s * (p.BT @ w))
        return np.concatenate([x_r, w + s * (self._Minv @ (p.B @ x_r))])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self._solves += 1
        if self._solves & (self._solves - 1):
            return self._solve(rhs)
        return checked_solve(self._solve, self._apply, rhs, self._what)


_MAX_SWEEPS = 50  # augmented-Lagrangian sweeps per saddle solve, at most


def _solve_saddle(system: BlockSystem, T, mu: float, rhs_sigma, rhs_v, rhs_r):
    """Checked solve of the saddle system S = [[T, B^T, C^T], [B, 0, 0], [C, 0, 0]]
    by augmented-Lagrangian sweeps (Fortin-Glowinski, 1983); the LU is dropped.

    A sweep adds P^-1 (b - S x) to x, with P = [[T, B^T, C^T], [B, -M / tau^2,
    0], [C, 0, 0]] solved as SchurLU's S(tau) on (rho_sigma, -tau rho_v, rho_r),
    whose velocity part is then scaled by tau.  tau = sqrt(rho1 / mu), for the
    shear modulus mu whose compliance T is, keeps tau^2 K on the scale of T.
    The sweeps stop at a 1e-13 relative residual or once it stops halving, so
    a B that is not onto fails the final residual check.
    """
    nM, nV, _ = system.dims
    B, C, vel = system.Bmat, system.Cmat, slice(nM, nM + nV)
    tau = np.sqrt(system.material.rho1 / mu)
    lu = SchurLU(system, T, tau, "saddle")
    perm = lu.pattern.perm

    def apply(x):
        return np.concatenate([T @ x[:nM] + B.T @ x[vel] + C.T @ x[vel.stop:],
                               B @ x[:nM], C @ x[:nM]])

    def sweeps(b):
        x, res, last = np.zeros_like(b), b.copy(), np.inf
        for _ in range(_MAX_SWEEPS):
            res[vel] *= -tau
            step = np.empty_like(res)
            step[perm] = lu.solve(res[perm])
            step[vel] *= tau
            x += step
            res = b - apply(x)
            norm = np.linalg.norm(res)
            if (norm <= 1e-13 * max(np.linalg.norm(b), np.linalg.norm(x), 1.0)
                    or norm > 0.5 * last):
                break
            last = norm
        return x

    x = checked_solve(sweeps, apply, np.concatenate([rhs_sigma, rhs_v, rhs_r]), "saddle")
    return x[:nM], x[vel], x[vel.stop:]


def solve_elastostatics(system: BlockSystem, rhs_sigma: np.ndarray,
                        rhs_v: np.ndarray, rhs_r: np.ndarray):
    """Solve the weak-symmetry saddle system with the compliance pairing;
    returns (sigma, u, r).

    Block rows: (A s, tau) + (div tau, u) + (r, tau) = rhs_sigma;
    (div s, w) = rhs_v; (s, q) = rhs_r.
    """
    return _solve_saddle(system, system.Amat, system.material.mu, rhs_sigma, rhs_v, rhs_r)


def stress_mass(system: BlockSystem) -> sps.csr_matrix:
    """The plain L2 mass matrix of the system's stress space, cached on the
    system."""
    if "stress_mass" not in system._cache:
        system._cache["stress_mass"] = assemble_stress_mass(system.spaces)
    return system._cache["stress_mass"]


def elliptic_projection(system: BlockSystem, sigma: Callable,
                        div_sigma: Callable) -> np.ndarray:
    """Weakly symmetric elliptic projection of an exact stress field.

    Solves the saddle system with the plain L2 stress pairing and data
    ((sigma, tau), (div sigma, w), (sigma, q)); div_sigma must be supplied
    analytically; the data are integrated with the degree-12 rule.  The
    result preserves the divergence moments and the skew moments of sigma.
    """
    spaces = system.spaces
    rule = triangle_rule(12)
    X = spaces.physical_points(rule)
    W = spaces.quad_weights(rule)
    vals = np.asarray(sigma(X[..., 0], X[..., 1]), dtype=float)  # (2, 2, T, nq)
    loc = np.einsum("tq,tbdq,rdtq->trb", W, spaces.stress_row_values(rule), vals)
    rhs_sigma = np.bincount(spaces.stress_map.ravel(), loc.ravel(), spaces.dim_stress)
    rhs_v = spaces.scalar_moments(W, rule, np.asarray(div_sigma(X[..., 0], X[..., 1]),
                                                      dtype=float))
    rhs_r = spaces.scalar_moments(W, rule, vals[0, 1] - vals[1, 0])

    # the L2 pairing is the compliance of mu = 1/2 (and lambda = 0)
    sig, _, _ = _solve_saddle(system, stress_mass(system), 0.5, rhs_sigma, rhs_v, rhs_r)
    return sig


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

    if case.homogeneous:
        rhs_sigma = np.zeros(spaces.dim_stress)
    else:
        rhs_sigma = assemble_dirichlet_load(spaces, case.u, 0.0)
    rhs_v = assemble_body_load(spaces, case.div_sigma, 0.0)
    rhs_r = np.zeros(spaces.dim_rotation)

    if not (rhs_sigma.any() or rhs_v.any() or rhs_r.any()):
        return InitialData(sigma0=np.zeros(spaces.dim_stress), v0=v0,
                           r0=np.zeros(spaces.dim_rotation), u0=u0)
    sigma0, _, r0 = solve_elastostatics(system, rhs_sigma, rhs_v, rhs_r)
    return InitialData(sigma0=sigma0, v0=v0, r0=r0, u0=u0)


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
