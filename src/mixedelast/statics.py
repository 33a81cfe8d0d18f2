"""Elastostatic saddle solves, the weakly symmetric elliptic projection,
discrete initial data, and the Schur-complement LU the time steps share.

Every LU, static or time step, is of one family per system and stress
block T: the Schur complements S_r(s) = [[T + s^2 K, C^T], [C, 0]], with
K = B^T M^-1 B, in a symmetric mesh-entity order.  S_r(s) is the sum
E_r + s^2 K_r of two permuted matrices, and E_r = S_r(0) is also the matrix
of the steps' E-products.  A system keeps one ReducedSystem, built on its
first solve, that takes the operators over: the order, B in it, C, M^-1,
K_r and E_r of the compliance.  No LU is kept with it: a saddle LU is
dropped after its solve, and a step LU when `dynamics.integrate` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import (BlockSystem, _scatter, assemble_body_load, assemble_dirichlet_load,
                       assemble_stress_mass)
from .errors import SingularSystemError
from .quadrature import triangle_rule
from .spaces import DiscreteSpaces, l2_project_velocity


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


def _step_order(spaces: DiscreteSpaces) -> np.ndarray:
    """Symmetric fill-reducing order of the (stress, rotation) unknowns of
    a Schur complement [[T + s^2 K, C^T], [C, 0]].

    The mesh entities (edges and triangles) are ranked by a minimum-degree
    ordering of the graph with one clique {T, e1, e2, e3} per triangle,
    the column order SuperLU picks for a diagonally dominant matrix of that
    graph (an ordering aid, not a solve LU).  The stress unknowns follow their
    entities' ranks, row 0 before row 1.  A triangle's rotation unknowns,
    whose diagonal block is zero and which couple only to that triangle's
    stresses, come right after the first half of them.
    """
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
    return np.argsort(np.concatenate([pos, np.repeat(median, spaces.n_scalar)]), kind="stable")


class ReducedSystem:
    """A system with its velocity eliminated: the parts of every Schur
    complement S_r(s) = [[T + s^2 K, C^T], [C, 0]], K = B^T M^-1 B, of the
    system, for any stress block T and shift s, in the order of _step_order.

    The velocity mass ``M`` is block diagonal (the velocity space is
    discontinuous), and ``Minv`` is its exact inverse.  With P the
    permutation into the order, S_r(s) = E_r(T) + s^2 K_r for the CSR
    matrices E_r(T) = P [[T, C^T], [C, 0]] P^T and ``K`` = K_r =
    P [[K, 0], [0, 0]] P^T.  ``E`` is E_r(A) for the compliance A, the
    stress block of the initial data and of every step, whose E-products
    also apply it; `e_matrix` forms E_r(T) for another T from ``C``.
    Vectors live in the layout [(stress, rotation) in that order, velocity]:
    ``pos`` gives the layout position of each natural (stress, rotation)
    index and ``perm`` the natural index of each layout position.  ``B`` is
    B with its columns in the layout (CSR; B^T is the view ``B.T``).
    """

    def __init__(self, system: BlockSystem):
        nM, nV, nK = system.dims
        order = _step_order(system.spaces)
        self.n = n = nM + nK
        # int32 where it fits halves the index arrays of the builds below
        self.pos = np.empty(n, dtype=np.int32 if n < 2 ** 31 else np.int64)
        self.pos[order] = np.arange(n)
        self.perm = np.concatenate([
            np.concatenate([np.arange(nM), nM + nV + np.arange(nK)])[order],
            nM + np.arange(nV)])
        B = system.Bmat
        self.B = sps.csr_matrix((B.data, self.pos[B.indices], B.indptr), shape=(nV, n))
        self.C = system.Cmat
        self.E = self.e_matrix(system.Amat)
        self.M = system.Mmat
        # M^-1 from the inverses of M's m x m blocks, one per triangle and
        # velocity component
        vmap = system.spaces.velocity_map
        rows, cols = np.broadcast_arrays(vmap[..., :, None], vmap[..., None, :])
        blocks = np.asarray(self.M[rows.ravel(), cols.ravel()]).reshape(rows.shape)
        self.Minv = _scatter(np.linalg.inv(blocks), vmap, vmap, self.M.shape)
        K = (B.T @ (self.Minv @ B)).tocoo()
        self.K = sps.csr_matrix((K.data, (self.pos[K.row], self.pos[K.col])), shape=(n, n))

    def e_matrix(self, T: sps.spmatrix) -> sps.csr_matrix:
        """E_r(T) = P [[T, C^T], [C, 0]] P^T for the stress block T."""
        nM, pos = T.shape[0], self.pos
        T, C = T.tocoo(), self.C.tocoo()
        return sps.csr_matrix((np.concatenate([T.data, C.data, C.data]),
                               (pos[np.concatenate([T.row, nM + C.row, C.col])],
                                pos[np.concatenate([T.col, C.col, nM + C.row])])),
                              shape=(self.n, self.n))


def reduced_system(system: BlockSystem) -> ReducedSystem:
    """The ReducedSystem of a system, built on its first solve; it is the
    only entry of ``system._cache`` and takes over A, B and C."""
    if "reduced" not in system._cache:
        system._cache["reduced"] = ReducedSystem(system)
        system.Amat = system.Bmat = system.Cmat = None
    return system._cache["reduced"]


def _product(A: sps.spmatrix, x: np.ndarray) -> np.ndarray:
    """A @ x for a real sparse A, without casting A to complex for a complex x."""
    if np.isrealobj(x):
        return A @ x
    y = np.empty(A.shape[0], dtype=x.dtype)
    y.real, y.imag = A @ x.real, A @ x.imag
    return y


# SuperLU options for a Schur complement built in the entity order: keep that
# order and pivot on the diagonal.  In exact arithmetic every diagonal pivot
# is nonzero: the stress block is SPD (positive pivots), and each rotation
# follows half of its own triangle's stresses (a negative pivot).
_ORDERED_LU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})


class SchurLU:
    """Solver of S(s) = [[T, s B^T, C^T], [-s B, M, 0], [C, 0, 0]] on the
    (stress, velocity, rotation) unknowns of a reduced system, for a stress
    block T, given by its E_r(T), and a real or complex shift s.  The
    velocity is eliminated with the exact M^-1, so the LU is of the Schur
    complement S_r(s) = E_r(T) + s^2 K_r; an entry of the sum that cancels
    exactly is dropped, as sparse sums do.

    Vectors are in the reduced system's layout.  Solves 1, 2, 4, 8, ... are
    residual-checked against S(s) applied block by block.  The LU lives as
    long as this object: its owner drops it after its last solve.
    """

    def __init__(self, reduced: ReducedSystem, E: sps.csr_matrix, s, what: str):
        self.reduced, self.E = reduced, E
        self._lu = factorize((E + (s * s) * reduced.K).tocsc(), what, **_ORDERED_LU)
        self._s, self._what, self._solves = s, what, 0

    def _apply(self, x: np.ndarray) -> np.ndarray:
        r, s = self.reduced, self._s
        x_r, v = x[:r.n], x[r.n:]
        return np.concatenate([_product(self.E, x_r) + s * _product(r.B.T, v),
                               _product(r.M, v) - s * _product(r.B, x_r)])

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        # x_r = S_r^-1 (b_r - s B^T M^-1 b_v), x_v = M^-1 (b_v + s B x_sigma)
        r, s = self.reduced, self._s
        w = _product(r.Minv, rhs[r.n:])
        x_r = self._lu.solve(rhs[:r.n] - s * _product(r.B.T, w))
        return np.concatenate([x_r, w + s * _product(r.Minv, _product(r.B, x_r))])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self._solves += 1
        if self._solves & (self._solves - 1):
            return self._solve(rhs)
        return checked_solve(self._solve, self._apply, rhs, self._what)


_MAX_SWEEPS = 50  # augmented-Lagrangian sweeps per saddle solve, at most


def _solve_saddle(system: BlockSystem, E, mu: float, rhs_sigma, rhs_v, rhs_r):
    """Checked solve of the saddle system S = [[T, B^T, C^T], [B, 0, 0], [C, 0, 0]],
    for E = E_r(T), by augmented-Lagrangian sweeps (Fortin-Glowinski, 1983).

    A sweep adds P^-1 (b - S x) to x, with P = [[T, B^T, C^T], [B, -M / tau^2,
    0], [C, 0, 0]] solved as SchurLU's S(tau) on (rho_sigma, -tau rho_v, rho_r),
    whose velocity part is then scaled by tau.  tau = sqrt(rho1 / mu), for the
    shear modulus mu whose compliance T is, keeps tau^2 K on the scale of T.
    The sweeps stop at a 1e-13 relative residual or once it stops halving, so
    a B that is not onto fails the final residual check.  Both run in the
    reduced layout, where S = [[E, B_r^T], [B_r, 0]]; the LU is dropped.
    """
    reduced = reduced_system(system)
    n, B = reduced.n, reduced.B
    tau = np.sqrt(system.material.rho1 / mu)
    lu = SchurLU(reduced, E, tau, "saddle")

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
            norm = np.linalg.norm(res)
            if (norm <= 1e-13 * max(np.linalg.norm(b), np.linalg.norm(x), 1.0)
                    or norm > 0.5 * last):
                break
            last = norm
        return x

    b = np.concatenate([rhs_sigma, rhs_v, rhs_r])[reduced.perm]
    x = np.empty_like(b)
    x[reduced.perm] = checked_solve(sweeps, apply, b, "saddle")
    return np.split(x, np.cumsum(system.dims[:2]))


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
    mass = reduced_system(system).e_matrix(assemble_stress_mass(spaces))
    sig, _, _ = _solve_saddle(system, mass, 0.5, rhs_sigma, rhs_v, rhs_r)
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

    rhs_sigma = (np.zeros(spaces.dim_stress) if case.homogeneous
                 else assemble_dirichlet_load(spaces, case.u, 0.0))
    rhs_v = assemble_body_load(spaces, case.div_sigma, 0.0)
    sigma0, r0 = np.zeros(spaces.dim_stress), np.zeros(spaces.dim_rotation)
    if rhs_sigma.any() or rhs_v.any():  # the rotation's right-hand side is zero
        sigma0, _, r0 = _solve_saddle(system, reduced_system(system).E, system.material.mu,
                                      rhs_sigma, rhs_v, r0)
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
    mv_diag = np.empty(spaces.dim_velocity)
    mv_diag[spaces.velocity_map] = spaces.areas[:, None, None]
    mk_diag = np.empty(spaces.dim_rotation)
    mk_diag[spaces.rotation_map] = spaces.areas[:, None]

    r = reduced_system(system)  # it holds C, and B with its columns in the layout
    B, C = sps.csr_matrix((r.B.data, r.perm[r.B.indices], r.B.indptr),
                          shape=(spaces.dim_velocity, spaces.dim_stress)), r.C
    divdiv = B.T @ sps.diags(1.0 / mv_diag) @ B
    D = (mass + divdiv).toarray()
    Bb = sps.vstack([B, C]).toarray()
    N = np.diag(np.concatenate([mv_diag, mk_diag]))
    S = Bb @ np.linalg.solve(D, Bb.T)
    eigs = sla.eigh(S, N, eigvals_only=True)
    return float(np.sqrt(max(eigs[0], 0.0)))
