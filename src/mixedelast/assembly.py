"""Sparse block matrices and load vectors of the semidiscrete system.

The block ODE reads  E ydot = G y + F(t)  with

    E = [[A, 0, C^T], [0, M, 0], [C, 0, 0]],
    G = [[0, -B^T, 0], [B, 0, 0], [0, 0, 0]],
    F = (dirichlet_load(t), load(t), 0),

where the entries are (A phi_j, phi_i), (div phi_j, psi_i), (phi_j, chi_i)
and (rho psi_j, psi_i) over the stress, velocity and rotation bases.

Every matrix and the boundary operator are summed from local matrices by one
`_scatter` through the global numbering that `DiscreteSpaces` states and
carries as ``stress_map``, ``velocity_map`` and ``rotation_map``; the loads
are moments in the same numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sps

from .errors import AssemblyError, MixedElastError
from .quadrature import edge_rule, triangle_rule
from .spaces import DiscreteSpaces, _unit_normals


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


def _scatter(local: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> sps.csr_matrix:
    """Sum of the local matrices local[..., i, j] at the global entries
    (rows[..., i], cols[..., j]), whose leading batch axes broadcast.  Exact
    zeros are dropped, so the CSR result is canonical with no stored zeros."""
    local, rows, cols = np.broadcast_arrays(local, rows[..., :, None], cols[..., None, :])
    idx = np.int32 if max(shape) < 2**31 else np.int64  # the index copies at half the size
    out = sps.coo_matrix((local.ravel(), (rows.astype(idx, order="C").ravel(),
                                          cols.astype(idx, order="C").ravel())),
                         shape=shape).tocsr()
    out.eliminate_zeros()
    return out.copy()  # a compact copy: the CSR arrays still have room for the duplicates


def _stress_block_matrices(spaces: DiscreteSpaces, material: MaterialModel | None):
    """Stress-stress matrix: compliance pairing, or plain L2 mass if material is None."""
    rule = triangle_rule(2 * spaces.k + 2)
    V = spaces.stress_row_values(rule)
    W = spaces.quad_weights(rule)
    VW = V * W[:, None, None, :]
    G = np.einsum("tapq,tbrq->prtab", VW, V)  # test comp p, trial comp r
    dot = G[0, 0] + G[1, 1]
    shape = (spaces.dim_stress, spaces.dim_stress)
    if material is None:  # row r of a test function pairs with row r only
        return _scatter(dot[:, None], spaces.stress_map, spaces.stress_map, shape)
    mu, lam = material.mu, material.lambda_
    c = lam / (2.0 * mu * (2.0 * mu + 2.0 * lam))
    Gt = G.swapaxes(0, 1)
    blocks = (1.0 / (4.0 * mu)) * Gt - c * G - 0.5 * Gt  # (test row s, trial row r, T, a, b)
    for s in range(2):
        blocks[s, s] += (1.0 / (4.0 * mu) + 0.5) * dot
    rows = spaces.stress_map.transpose(1, 0, 2)
    return _scatter(blocks, rows[:, None], rows[None], shape)


def _b_matrix(spaces: DiscreteSpaces, degree: int) -> sps.csr_matrix:
    rule = triangle_rule(degree)
    DV = spaces.stress_row_div_values(rule)
    W = spaces.quad_weights(rule)
    psi = spaces.scalar_values(rule)
    loc = np.einsum("tq,iq,tbq->tib", W, psi, DV)  # (T, m, nd), one per component
    return _scatter(loc[:, None], spaces.velocity_map, spaces.stress_map,
                    (spaces.dim_velocity, spaces.dim_stress))


def _c_matrix(spaces: DiscreteSpaces, degree: int) -> sps.csr_matrix:
    # (phi, S(chi)) with S(q) = [[0, q], [-q, 0]]: rotation chi pairs with
    # phi[0, 1] - phi[1, 0], i.e. +v_y for row-0 fields, -v_x for row-1 fields.
    rule = triangle_rule(degree)
    V = spaces.stress_row_values(rule)
    W = spaces.quad_weights(rule)
    psi = spaces.scalar_values(rule)
    loc = np.stack([np.einsum("tq,iq,tbq->tib", W, psi, V[:, :, 1, :]),
                    -np.einsum("tq,iq,tbq->tib", W, psi, V[:, :, 0, :])], axis=1)
    return _scatter(loc, spaces.rotation_map[:, None], spaces.stress_map,
                    (spaces.dim_rotation, spaces.dim_stress))


def _m_matrix(spaces: DiscreteSpaces, material: MaterialModel, degree: int) -> sps.csr_matrix:
    rule = triangle_rule(degree)
    X = spaces.physical_points(rule)
    rho = material.rho_at(X[..., 0], X[..., 1])
    if np.any(rho < material.rho0 - 1e-12) or np.any(rho > material.rho1 + 1e-12):
        raise AssemblyError("density out of declared bounds at quadrature points")
    W = spaces.quad_weights(rule) * rho
    psi = spaces.scalar_values(rule)
    loc = np.einsum("tq,iq,jq->tij", W, psi, psi)  # (T, m, m), one per component
    return _scatter(loc[:, None], spaces.velocity_map, spaces.velocity_map,
                    (spaces.dim_velocity, spaces.dim_velocity))


def assemble_stress_mass(spaces: DiscreteSpaces) -> sps.csr_matrix:
    """Plain L2 mass matrix (phi_j, phi_i) on the stress space."""
    return _stress_block_matrices(spaces, None)


def assemble(spaces: DiscreteSpaces, material: MaterialModel,
             body_force: Callable | None = None,
             dirichlet_velocity: Callable | None = None) -> BlockSystem:
    """Assemble the four block matrices and the load closures.

    ``body_force(t, x, y)`` and ``dirichlet_velocity(t, x, y)`` are optional
    time-space callables returning (2,) + broadcast shape; omitted loads are
    identically zero, and the loads of a SeparatedField are precomputed per
    term.  The matrices use quadrature of degree 2k + 2, the loads degree
    2k + 4.
    """
    degree = 2 * spaces.k + 2
    return BlockSystem(
        Amat=_stress_block_matrices(spaces, material), Bmat=_b_matrix(spaces, degree),
        Cmat=_c_matrix(spaces, degree), Mmat=_m_matrix(spaces, material, degree),
        load=_load_closure(body_force, spaces.dim_velocity,
                           lambda: _body_load_map(spaces)),
        dirichlet_load=_load_closure(dirichlet_velocity, spaces.dim_stress,
                                     lambda: _dirichlet_load_map(spaces)),
        spaces=spaces, material=material)


def _sample(f: Callable, t: float, pts: np.ndarray) -> np.ndarray:
    return np.asarray(f(t, pts[..., 0], pts[..., 1]), dtype=float)


def _load_closure(field: Callable | None, dim: int, load_map: Callable):
    """t -> load vector of a field, where load_map() gives the sample points
    of the load and its linear map from the field sampled there to the load
    vector.  No field gives zero.  For a SeparatedField each sampled space
    part is mapped once, as a column of L, and a call is L @ phi(t); any
    other callable is sampled and mapped at every call."""
    if field is None:
        zero = np.zeros(dim)
        return lambda t: zero
    pts, apply = load_map()
    if not isinstance(field, SeparatedField):
        return lambda t: apply(_sample(field, t, pts))
    parts = np.asarray(field.psi(pts[..., 0], pts[..., 1]), dtype=float)
    L = np.column_stack([apply(part) for part in parts])
    return lambda t: L @ np.asarray(field.phi(t), dtype=float)


def _body_load_map(spaces: DiscreteSpaces, degree: int | None = None):
    """Sample points (T, nq, 2) of the body load and its map from f sampled
    there, (2, T, nq), to the velocity-space load."""
    rule = triangle_rule(2 * spaces.k + 4 if degree is None else degree)
    W = spaces.quad_weights(rule)
    return spaces.physical_points(rule), lambda vals: spaces.scalar_moments(W, rule, vals)


def assemble_body_load(spaces: DiscreteSpaces, f: Callable, t: float,
                       degree: int | None = None) -> np.ndarray:
    """Velocity-space load vector with entries (f(t, .), psi_i)."""
    pts, apply = _body_load_map(spaces, degree)
    return apply(_sample(f, t, pts))


def _dirichlet_operator(spaces: DiscreteSpaces, degree: int):
    """Boundary quadrature points (nbe, nqe, 2) and the sparse operator that
    maps g sampled there, flattened from (2, nbe, nqe), to the stress-space
    boundary load; cached on the spaces per degree."""
    key = ("dirichlet", degree)
    if key in spaces._cache:
        return spaces._cache[key]
    mesh = spaces.mesh
    edges = mesh.boundary_edges
    tris = mesh.edge_triangles()[edges, 0]
    # local edge index and outward-normal sign of each boundary edge
    loc = np.argmax(mesh.triangle_edges[tris] == edges[:, None], axis=1)
    sign = mesh.edge_signs[tris, loc]

    rule = edge_rule(degree)
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    tang = b - a
    length = np.linalg.norm(tang, axis=1)
    nu = sign[:, None] * _unit_normals(a, b)
    pts = a[:, None, :] + rule.points[None, :, None] * tang[:, None, :]
    V = spaces.stress_basis(pts, tris)  # (nbe, nd, 2, nqe)
    vdotnu = V[:, :, 0] * nu[:, None, None, 0] + V[:, :, 1] * nu[:, None, None, 1]

    # entry for stress dof (r, b) and sample (r, e, q): length_e w_q (v_b . nu)(q)
    weights = length[:, None, None] * rule.weights[None, None, :] * vdotnu  # (nbe, nd, nqe)
    nbe, _, nqe = weights.shape
    samples = np.arange(2 * nbe * nqe).reshape(2, nbe, nqe).transpose(1, 0, 2)
    op = _scatter(weights[:, None], spaces.stress_map[tris], samples,
                  (spaces.dim_stress, 2 * nbe * nqe))
    spaces._cache[key] = (pts, op)
    return pts, op


def _dirichlet_load_map(spaces: DiscreteSpaces, degree: int | None = None):
    """Sample points (nbe, nqe, 2) of the boundary load and its map from g
    sampled there, (2, nbe, nqe), to the stress-space load."""
    pts, op = _dirichlet_operator(spaces, 2 * spaces.k + 4 if degree is None else degree)
    return pts, lambda vals: op @ vals.ravel()


def assemble_dirichlet_load(spaces: DiscreteSpaces, g: Callable, t: float,
                            degree: int | None = None) -> np.ndarray:
    """Stress-space boundary load with entries int_Gamma g . (phi_i nu) ds.

    Every boundary edge carries the velocity data: traction conditions are
    essential in this formulation and are not supported.  The boundary
    geometry and basis traces are built once per spaces and degree; a call
    samples g and applies one sparse operator.
    """
    pts, apply = _dirichlet_load_map(spaces, degree)
    return apply(_sample(g, t, pts))
