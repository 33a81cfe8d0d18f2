"""Sparse block matrices and load vectors of the semidiscrete system.

The block ODE reads  E ydot = G y + F(t)  with

    E = [[A, 0, C^T], [0, M, 0], [C, 0, 0]],
    G = [[0, -B^T, 0], [B, 0, 0], [0, 0, 0]],
    F = (dirichlet_load(t), load(t), 0),

where the entries are (A phi_j, phi_i), (div phi_j, psi_i), (phi_j, chi_i)
and (rho psi_j, psi_i) over the stress, velocity and rotation bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sps

from . import polynomials as poly
from .errors import AssemblyError, MixedElastError
from .mesh import Mesh
from .quadrature import edge_rule, triangle_rule
from .spaces import DiscreteSpaces, _rotate_minus90


@dataclass
class MaterialModel:
    """Isotropic material data: Lame coefficients and density.

    ``rho`` may be a positive constant or a callable rho(x, y); for a
    callable the bounds rho0 <= rho <= rho1 must be supplied and are checked
    at the quadrature points during assembly.
    """

    mu: float
    lambda_: float
    rho: float | Callable = 1.0
    rho0: float | None = None
    rho1: float | None = None

    def __post_init__(self):
        if not (0 < self.mu < np.inf and 0 < self.lambda_ < np.inf):
            raise MixedElastError("mu and lambda_ must be positive and finite")
        if callable(self.rho):
            if self.rho0 is None or self.rho1 is None:
                raise MixedElastError("rho bounds rho0, rho1 required for a spatial density")
        else:
            value = float(self.rho)
            if not 0 < value < np.inf:
                raise MixedElastError("rho must be positive and finite")
            self.rho0 = value if self.rho0 is None else self.rho0
            self.rho1 = value if self.rho1 is None else self.rho1
        if not 0 < self.rho0 <= self.rho1 < np.inf:
            raise MixedElastError("need 0 < rho0 <= rho1 < inf")

    def rho_at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if callable(self.rho):
            return np.broadcast_to(np.asarray(self.rho(x, y), dtype=float), np.shape(x)).copy()
        return np.full(np.shape(x), float(self.rho))


@dataclass(frozen=True)
class SeparatedField:
    """A time-space field f(t, x, y) = sum_i phi(t)[i] psi(x, y)[i].

    Calls go to ``fn``, the field itself.  ``phi(t)`` returns the n time
    factors and ``psi(x, y)`` the n space parts, shape (n, 2) + the broadcast
    shape of x.  `assemble` builds the load of each space part once, so that
    a load call only combines fixed vectors.
    """

    fn: Callable
    phi: Callable
    psi: Callable

    def __call__(self, t, x, y):
        return self.fn(t, x, y)


@dataclass
class BlockSystem:
    """Assembled matrices and time-dependent loads of the matrix ODE."""

    Amat: sps.csr_matrix
    Bmat: sps.csr_matrix
    Cmat: sps.csr_matrix
    Mmat: sps.csr_matrix
    load: Callable[[float], np.ndarray]
    dirichlet_load: Callable[[float], np.ndarray]
    spaces: DiscreteSpaces
    material: MaterialModel
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.Amat.shape[0], self.Mmat.shape[0], self.Cmat.shape[0])


def _coo(vals, rows, cols, shape):
    return sps.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    ).tocsr()


def _stress_block_matrices(spaces: DiscreteSpaces, material: MaterialModel | None):
    """Stress-stress matrix: compliance pairing, or plain L2 mass if material is None."""
    rule = triangle_rule(2 * spaces.k + 2)
    V = spaces.stress_row_values(rule)
    W = spaces.quad_weights(rule)
    VW = V * W[:, None, None, :]
    G = np.einsum("tapq,tbrq->prtab", VW, V)  # test comp p, trial comp r
    dot = G[0, 0] + G[1, 1]

    nrow = spaces.n_row_global
    dim = spaces.dim_stress
    gmap = spaces.row_dof_map
    rows_loc = np.broadcast_to(gmap[:, :, None], G.shape[2:])
    cols_loc = np.broadcast_to(gmap[:, None, :], G.shape[2:])

    blocks = {}
    if material is None:
        for s in range(2):
            for r in range(2):
                blocks[s, r] = dot if s == r else None
    else:
        mu, lam = material.mu, material.lambda_
        c = lam / (2.0 * mu * (2.0 * mu + 2.0 * lam))
        for s in range(2):
            for r in range(2):
                blk = (1.0 / (4.0 * mu)) * G[r, s] - c * G[s, r] - 0.5 * G[r, s]
                if s == r:
                    blk = blk + (1.0 / (4.0 * mu) + 0.5) * dot
                blocks[s, r] = blk

    parts = []
    for s in range(2):
        for r in range(2):
            blk = blocks[s, r]
            if blk is None:
                continue
            parts.append(_coo(blk, rows_loc + s * nrow, cols_loc + r * nrow, (dim, dim)))
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


def _b_matrix(spaces: DiscreteSpaces, degree: int) -> sps.csr_matrix:
    rule = triangle_rule(degree)
    DV = spaces.stress_row_div_values(rule)
    W = spaces.quad_weights(rule)
    psi = spaces.scalar_values(rule)
    loc = np.einsum("tq,iq,tbq->tib", W, psi, DV)  # (T, m, nd)

    nt = spaces.mesh.num_triangles
    m = spaces.n_scalar
    vel_rows = (np.arange(nt)[:, None] * 2 * m + np.arange(m)[None, :])  # comp 0
    rows0 = np.broadcast_to(vel_rows[:, :, None], loc.shape)
    cols = np.broadcast_to(spaces.row_dof_map[:, None, :], loc.shape)
    shape = (spaces.dim_velocity, spaces.dim_stress)
    B = _coo(loc, rows0, cols, shape)
    B = B + _coo(loc, rows0 + m, cols + spaces.n_row_global, shape)
    return B


def _c_matrix(spaces: DiscreteSpaces, degree: int) -> sps.csr_matrix:
    # (phi, S(chi)) with S(q) = [[0, q], [-q, 0]]: rotation chi pairs with
    # phi[0, 1] - phi[1, 0], i.e. +v_y for row-0 fields, -v_x for row-1 fields.
    rule = triangle_rule(degree)
    V = spaces.stress_row_values(rule)
    W = spaces.quad_weights(rule)
    psi = spaces.scalar_values(rule)
    loc0 = np.einsum("tq,iq,tbq->tib", W, psi, V[:, :, 1, :])
    loc1 = -np.einsum("tq,iq,tbq->tib", W, psi, V[:, :, 0, :])

    nt = spaces.mesh.num_triangles
    m = spaces.n_scalar
    rot_rows = np.arange(nt)[:, None] * m + np.arange(m)[None, :]
    rows = np.broadcast_to(rot_rows[:, :, None], loc0.shape)
    cols = np.broadcast_to(spaces.row_dof_map[:, None, :], loc0.shape)
    shape = (spaces.dim_rotation, spaces.dim_stress)
    C = _coo(loc0, rows, cols, shape)
    C = C + _coo(loc1, rows, cols + spaces.n_row_global, shape)
    return C


def _m_matrix(spaces: DiscreteSpaces, material: MaterialModel, degree: int) -> sps.csr_matrix:
    rule = triangle_rule(degree)
    X = spaces.physical_points(rule)
    rho = material.rho_at(X[..., 0], X[..., 1])
    if np.any(rho < material.rho0 - 1e-12) or np.any(rho > material.rho1 + 1e-12):
        raise AssemblyError("density out of declared bounds at quadrature points")
    W = spaces.quad_weights(rule) * rho
    psi = spaces.scalar_values(rule)
    loc = np.einsum("tq,iq,jq->tij", W, psi, psi)  # (T, m, m)

    nt = spaces.mesh.num_triangles
    m = spaces.n_scalar
    base = np.arange(nt)[:, None] * 2 * m + np.arange(m)[None, :]
    rows = np.broadcast_to(base[:, :, None], loc.shape)
    cols = np.broadcast_to(base[:, None, :], loc.shape)
    shape = (spaces.dim_velocity, spaces.dim_velocity)
    M = _coo(loc, rows, cols, shape)
    M = M + _coo(loc, rows + m, cols + m, shape)
    return M


def assemble_stress_mass(spaces: DiscreteSpaces) -> sps.csr_matrix:
    """Plain L2 mass matrix (phi_j, phi_i) on the stress space."""
    return _stress_block_matrices(spaces, None)


def assemble(mesh: Mesh, spaces: DiscreteSpaces, material: MaterialModel,
             body_force: Callable | None = None,
             dirichlet_velocity: Callable | None = None) -> BlockSystem:
    """Assemble the four block matrices and the load closures.

    ``body_force(t, x, y)`` and ``dirichlet_velocity(t, x, y)`` are optional
    time-space callables returning (2,) + broadcast shape; omitted loads are
    identically zero, and the loads of a SeparatedField are precomputed per
    term.  The matrices use quadrature of degree 2k + 2, the loads degree
    2k + 4.
    """
    if spaces.mesh is not mesh:
        raise MixedElastError("spaces were built on a different mesh")
    degree = 2 * spaces.k + 2

    Amat = _stress_block_matrices(spaces, material)
    Bmat = _b_matrix(spaces, degree)
    Cmat = _c_matrix(spaces, degree)
    Mmat = _m_matrix(spaces, material, degree)

    load = _load_closure(body_force, spaces.dim_velocity,
                         lambda g, t: assemble_body_load(spaces, g, t))
    dload = _load_closure(dirichlet_velocity, spaces.dim_stress,
                          lambda g, t: assemble_dirichlet_load(spaces, g, t))
    return BlockSystem(Amat=Amat, Bmat=Bmat, Cmat=Cmat, Mmat=Mmat,
                       load=load, dirichlet_load=dload,
                       spaces=spaces, material=material)


def _load_closure(field: Callable | None, dim: int, assemble_at: Callable):
    """t -> load vector of a field, where assemble_at(g, t) assembles the load
    of g(t, ., .).  No field gives zero.  For a SeparatedField the load of
    each space part is assembled once, as a column of L, and a call is
    L @ phi(t); any other callable is assembled at every call."""
    if field is None:
        zero = np.zeros(dim)
        return lambda t: zero
    if not isinstance(field, SeparatedField):
        return lambda t: assemble_at(field, t)
    # assemble_at samples every part at the same points, so the space parts
    # are evaluated there once and handed out one by one
    parts = []

    def part(i):
        def g(t, x, y):
            if not parts:
                parts.append(field.psi(x, y))
            return parts[0][i]
        return g

    L = np.column_stack([assemble_at(part(i), 0.0) for i in range(len(field.phi(0.0)))])
    return lambda t: L @ np.asarray(field.phi(t), dtype=float)


def assemble_body_load(spaces: DiscreteSpaces, f: Callable, t: float,
                       degree: int | None = None) -> np.ndarray:
    """Velocity-space load vector with entries (f(t, .), psi_i)."""
    if degree is None:
        degree = 2 * spaces.k + 4
    rule = triangle_rule(degree)
    X = spaces.physical_points(rule)
    vals = np.asarray(f(t, X[..., 0], X[..., 1]), dtype=float)  # (2, T, nq)
    W = spaces.quad_weights(rule)
    psi = spaces.scalar_values(rule)
    coeffs = np.einsum("tq,jq,ctq->tcj", W, psi, vals)
    return coeffs.ravel()


def _dirichlet_operator(spaces: DiscreteSpaces, degree: int):
    """Boundary quadrature points (nbe, nqe, 2) and the sparse operator that
    maps g sampled there, flattened from (2, nbe, nqe), to the stress-space
    boundary load; cached on the spaces per degree."""
    key = ("dirichlet", degree)
    if key in spaces._cache:
        return spaces._cache[key]
    mesh = spaces.mesh
    edges = mesh.boundary_edges
    inc = mesh.edge_triangles()
    tris = inc[edges, 0]
    # local edge index and outward-normal sign of each boundary edge
    loc = np.argmax(mesh.triangle_edges[tris] == edges[:, None], axis=1)
    sign = mesh.edge_signs[tris, loc]

    rule = edge_rule(degree)
    tq, wq = rule.points, rule.weights
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    tang = b - a
    length = np.linalg.norm(tang, axis=1)
    nu = sign[:, None] * _rotate_minus90(tang / length[:, None])
    pts = a[:, None, :] + tq[None, :, None] * tang[:, None, :]

    nm = len(spaces.stress_exps)
    xi = (pts - spaces.centers[tris, None, :]) / spaces.scales[tris, None, None]
    mv = poly.eval_monomials(spaces.stress_exps, xi[..., 0], xi[..., 1])
    coef = spaces.stress_coef[tris]
    vx = np.einsum("ebm,meq->ebq", coef[:, :, :nm], mv)
    vy = np.einsum("ebm,meq->ebq", coef[:, :, nm:], mv)
    vdotnu = vx * nu[:, None, None, 0] + vy * nu[:, None, None, 1]

    # entry for stress dof (r, b) and sample (r, e, q): length_e w_q (v_b . nu)(q)
    weights = length[:, None, None] * wq[None, None, :] * vdotnu  # (nbe, nd, nqe)
    nbe, nd, nqe = weights.shape
    rows = np.broadcast_to(spaces.row_dof_map[tris][:, :, None], weights.shape)
    cols = np.broadcast_to(np.arange(nbe * nqe).reshape(nbe, 1, nqe), weights.shape)
    shape = (spaces.dim_stress, 2 * nbe * nqe)
    op = _coo(weights, rows, cols, shape)
    op = op + _coo(weights, rows + spaces.n_row_global, cols + nbe * nqe, shape)
    spaces._cache[key] = (pts, op)
    return pts, op


def assemble_dirichlet_load(spaces: DiscreteSpaces, g: Callable, t: float,
                            degree: int | None = None) -> np.ndarray:
    """Stress-space boundary load with entries int_Gamma g . (phi_i nu) ds.

    Every boundary edge carries the velocity data: traction conditions are
    essential in this formulation and are not supported.  The boundary
    geometry and basis traces are built once per spaces and degree; a call
    samples g and applies one sparse operator.
    """
    if degree is None:
        degree = 2 * spaces.k + 4
    pts, op = _dirichlet_operator(spaces, degree)
    gv = np.asarray(g(t, pts[..., 0], pts[..., 1]), dtype=float)  # (2, nbe, nqe)
    return op @ gv.ravel()
