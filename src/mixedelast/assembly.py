"""Sparse block matrices and load vectors of the semidiscrete system.

The block ODE in y = (x, v), x the stress and rotation unknowns in their
one range of the spaces, reads  E ydot = G y + F(t)  with

    E = [[E_r, 0], [0, M]],  E_r = A + C + C^T,   G = [[0, -B^T], [B, 0]],
    F = (dirichlet_load(t), load(t)),

where the entries are (A phi_j, phi_i), (div phi_j, psi_i), (phi_j, chi_i)
and (rho psi_j, psi_i) over the stress, velocity and rotation bases.  A and
C are square on the range of x: A couples stresses and C is nonzero in the
rotation rows and stress columns only.  `assemble` builds the system once,
with the two operators every solve with a velocity eliminated needs: the
exact inverse M^-1 of the block-diagonal M and K_r = B^T M^-1 B.

Every matrix and the boundary operator are summed from local matrices by one
`_scatter` through the global numbering that `DiscreteSpaces` states and
carries as ``stress_map``, ``velocity_map`` and ``rotation_map``; the loads
are moments in the same numbering.  Every local matrix is formed once per
congruence class of triangles (see `DiscreteSpaces`) from one set of class
tables and gathered by ``tri_class``; the compliance has one formula, and the
L2 stress mass is its value at mu = 1/2, lambda = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Callable

import numpy as np
import scipy.sparse as sps

from .errors import ConfigError
from .quadrature import edge_rule, triangle_rule
from .spaces import DiscreteSpaces, _unit_normals


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic material data: the Lame coefficients and the density, each a
    positive finite constant; frozen, so a model stays valid."""

    mu: float
    lambda_: float
    rho: float = 1.0

    def __post_init__(self):
        for name in ("mu", "lambda_", "rho"):
            value = getattr(self, name)  # a bool is an int, but no material constant
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < np.inf:
                raise ConfigError(f"{name} must be a positive finite constant, got {value!r}")


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
    """The assembled matrix ODE: ``Emat`` = E_r = A + C + C^T on the range of
    x, B, C, the velocity mass M, its inverse ``Minv`` and ``Kmat`` = K_r =
    B^T M^-1 B, with the time-dependent loads.  Every solve reads these
    matrices and none changes them.  Unlike the spaces it is not frozen, so
    that a profiler can rebind the two load closures to time them."""

    Emat: sps.csr_matrix
    Bmat: sps.csr_matrix
    Cmat: sps.csr_matrix
    Mmat: sps.csr_matrix
    Minv: sps.csr_matrix
    Kmat: sps.csr_matrix
    load: Callable[[float], np.ndarray]
    dirichlet_load: Callable[[float], np.ndarray]
    spaces: DiscreteSpaces
    material: MaterialModel

    @property
    def Amat(self) -> sps.csr_matrix:
        """The compliance A, formed from E_r.  A, C and C^T have disjoint
        patterns, so this is the assembled A exactly."""
        return self.Emat - self.Cmat - self.Cmat.T


def _scatter(local: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> sps.csr_matrix:
    """Sum of the local matrices local[..., i, j] at the global entries
    (rows[..., i], cols[..., j]), whose leading batch axes broadcast.  Exact
    zeros are dropped, so the CSR result is canonical with no stored zeros.  It
    is not compacted: only A keeps much room for duplicates, and `assemble`
    frees A once E_r is formed."""
    local, rows, cols = np.broadcast_arrays(local, rows[..., :, None], cols[..., None, :])
    idx = np.int32 if max(shape) < 2**31 else np.int64  # the index copies at half the size
    out = sps.coo_matrix((local.ravel(), (rows.astype(idx, order="C").ravel(),
                                          cols.astype(idx, order="C").ravel())),
                         shape=shape).tocsr()
    out.eliminate_zeros()
    return out


def _class_tables(spaces: DiscreteSpaces):
    """The tables every local matrix is formed from, at the degree 2k + 2
    rule: the weights W (class, nq) of each class's triangle, its stress row
    values V (class, n_row_dofs, 2, nq) and divergences DV (class,
    n_row_dofs, nq), and the P_{k-1} basis psi (m, nq)."""
    rule = triangle_rule(2 * spaces.k + 2)
    return (spaces.dets[spaces.class_tris, None] * rule.weights, spaces.stress_row_values(rule),
            spaces.stress_row_div_values(rule), spaces.scalar_values(rule))


def _compliance(spaces: DiscreteSpaces, W: np.ndarray, V: np.ndarray, mu: float,
                lam: float) -> sps.csr_matrix:
    """Stress-stress compliance matrix (A phi_j, phi_i) of the Lame
    coefficients (mu, lam), from the class weights W and row values V."""
    G = np.einsum("tapq,tbrq->prtab", V * W[:, None, None, :], V)  # test comp p, trial comp r
    c = lam / (2.0 * mu * (2.0 * mu + 2.0 * lam))
    Gt = G.swapaxes(0, 1)
    blocks = Gt * (1.0 / (4.0 * mu))
    blocks -= c * G  # (test row s, trial row r, class, a, b)
    blocks -= 0.5 * Gt
    for s in range(2):
        blocks[s, s] += (1.0 / (4.0 * mu) + 0.5) * (G[0, 0] + G[1, 1])
    rows = spaces.stress_map.transpose(1, 0, 2)
    # gathered in C order, so that _scatter needs no copy
    return _scatter(np.take(blocks, spaces.tri_class, axis=2), rows[:, None], rows[None],
                    (spaces.dim_x, spaces.dim_x))


def assemble_stress_mass(spaces: DiscreteSpaces) -> sps.csr_matrix:
    """Plain L2 mass matrix (phi_j, phi_i) of the stresses, on the range of x.

    It is the compliance of mu = 1/2, lambda = 0, exactly: the blocks that
    couple different tensor rows are 0.5 G^T - 0 G - 0.5 G^T = 0, which
    `_scatter` drops, and the factor of the row-by-row pairing is 1."""
    W, V, _, _ = _class_tables(spaces)
    return _compliance(spaces, W, V, 0.5, 0.0)


def assemble(spaces: DiscreteSpaces, material: MaterialModel,
             body_force: SeparatedField | None = None,
             dirichlet_velocity: SeparatedField | None = None) -> BlockSystem:
    """Assemble the block system: its matrices and the load closures.

    ``body_force`` and ``dirichlet_velocity`` are optional SeparatedFields
    whose values have shape (2,) + broadcast; an omitted load is identically
    zero, and any other load raises ConfigError.  The load of each
    space part is built once.  The matrices use quadrature of degree 2k + 2,
    the loads degree 2k + 4.
    """
    for name, field in (("body_force", body_force), ("dirichlet_velocity", dirichlet_velocity)):
        if field is not None and not isinstance(field, SeparatedField):
            raise ConfigError(f"{name} must be a SeparatedField or None")
    W, V, DV, psi = _class_tables(spaces)
    velocity, stress, tc = spaces.velocity_map, spaces.stress_map, spaces.tri_class
    shape_v = (spaces.dim_velocity, spaces.dim_velocity)
    # (phi, S(chi)) with S(q) = [[0, q], [-q, 0]]: rotation chi pairs with
    # phi[0, 1] - phi[1, 0], i.e. +v_y for row-0 fields, -v_x for row-1 fields.
    C_T = np.stack([np.einsum("tq,iq,tbq->tib", W, psi, V[:, :, 1, :]),
                    -np.einsum("tq,iq,tbq->tib", W, psi, V[:, :, 0, :])], axis=1)
    C = _scatter(C_T[tc], spaces.rotation_map[:, None], stress, (spaces.dim_x, spaces.dim_x))
    E = _compliance(spaces, W, V, material.mu, material.lambda_) + C + C.T
    B_T = np.einsum("tq,iq,tbq->tib", W, psi, DV)  # (class, m, nd), one per component
    B = _scatter(B_T[tc, None], velocity, stress, (spaces.dim_velocity, spaces.dim_x))
    # M and its exact inverse from the m x m local mass blocks, one per component
    M_T = np.einsum("tq,iq,jq->tij", W * material.rho, psi, psi)
    M = _scatter(M_T[tc, None], velocity, velocity, shape_v)
    Minv = _scatter(np.linalg.inv(M_T)[tc, None], velocity, velocity, shape_v)
    return BlockSystem(
        # as CSR, so that each E_r + s^2 K_r adds two canonical CSR matrices
        Emat=E, Bmat=B, Cmat=C, Mmat=M, Minv=Minv, Kmat=(B.T @ (Minv @ B)).tocsr(),
        load=_load_closure(body_force, spaces.dim_velocity,
                           lambda: _body_load_map(spaces)),
        dirichlet_load=_load_closure(dirichlet_velocity, spaces.dim_x,
                                     lambda: _dirichlet_load_map(spaces)),
        spaces=spaces, material=material)


def _sample(f: Callable, t: float, pts: np.ndarray) -> np.ndarray:
    return np.asarray(f(t, pts[..., 0], pts[..., 1]), dtype=float)


def _load_closure(field: SeparatedField | None, dim: int, load_map: Callable):
    """t -> load vector of a field, where load_map() gives the sample points
    of the load and its linear map from the field sampled there to the load
    vector.  No field gives zero.  Each sampled space part is mapped once,
    as a column of L, and a call is L.dot(phi(t))."""
    if field is None:
        zero = np.zeros(dim)
        return lambda t: zero
    pts, apply = load_map()
    parts = np.asarray(field.psi(pts[..., 0], pts[..., 1]), dtype=float)
    L = np.array([apply(part) for part in parts]).T  # column-major: .dot is fastest on it
    return lambda t: L.dot(np.asarray(field.phi(t), dtype=float))


def _body_load_map(spaces: DiscreteSpaces):
    """Sample points (T, nq, 2) of the body load and its map from f sampled
    there, (2, T, nq), to the velocity-space load, at degree 2k + 4."""
    rule = triangle_rule(2 * spaces.k + 4)
    W = spaces.quad_weights(rule)
    return spaces.physical_points(rule), lambda vals: spaces.scalar_moments(W, rule, vals)


def assemble_body_load(spaces: DiscreteSpaces, f: Callable, t: float) -> np.ndarray:
    """Velocity-space load vector with entries (f(t, .), psi_i)."""
    pts, apply = _body_load_map(spaces)
    return apply(_sample(f, t, pts))


def _dirichlet_operator(spaces: DiscreteSpaces):
    """Boundary quadrature points (nbe, nqe, 2) of the degree 2k + 4 rule and
    the sparse operator that maps g sampled there, flattened from (2, nbe,
    nqe), to the boundary load on the range of x; built where it is used."""
    mesh = spaces.mesh
    edges = mesh.boundary_edges
    tris = mesh.edge_triangles()[edges, 0]
    # local edge index and outward-normal sign of each boundary edge
    loc = np.argmax(mesh.triangle_edges[tris] == edges[:, None], axis=1)
    sign = mesh.edge_signs[tris, loc]

    rule = edge_rule(2 * spaces.k + 4)
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
    return pts, _scatter(weights[:, None], spaces.stress_map[tris], samples,
                         (spaces.dim_x, 2 * nbe * nqe))


def _dirichlet_load_map(spaces: DiscreteSpaces):
    """Sample points (nbe, nqe, 2) of the boundary load and its map from g
    sampled there, (2, nbe, nqe), to the load on the range of x."""
    pts, op = _dirichlet_operator(spaces)
    return pts, lambda vals: op @ vals.ravel()


def assemble_dirichlet_load(spaces: DiscreteSpaces, g: Callable, t: float) -> np.ndarray:
    """Boundary load on the range of x with entries int_Gamma g . (phi_i nu) ds
    at the stresses and zeros at the rotations.

    Every boundary edge carries the velocity data: traction conditions are
    essential in this formulation and are not supported.  A call builds the
    boundary operator, samples g and applies the operator once.
    """
    pts, apply = _dirichlet_load_map(spaces)
    return apply(_sample(g, t, pts))
