"""Discrete spaces for the weakly symmetric mixed method of degree k.

The triple is: stress fields whose rows are normal-continuous piecewise
P_k vector fields (edge moments against P_k per edge plus interior moments),
discontinuous vector P_{k-1} velocities, and discontinuous scalar P_{k-1}
rotations (the scalar q stands for the skew matrix [[0, q], [-q, 0]]).

Stress row bases are constructed on each physical triangle by inverting the
matrix of the degree-of-freedom functionals.  The edge functionals use the
global low-to-high edge parameterization and a fixed normal per edge, so a
shared edge carries the same functionals from both sides and the assembled
space is H(div)-conforming with no orientation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import polynomials as poly
from .errors import GeometryError, MixedElastError
from .mesh import Mesh
from .quadrature import QuadratureRule, edge_rule, triangle_rule

SUPPORTED_DEGREES = (1, 2, 3)


def _rotate_minus90(v: np.ndarray) -> np.ndarray:
    """Right-hand normal (t_y, -t_x) of tangent vectors in the last axis."""
    return np.stack([v[..., 1], -v[..., 0]], axis=-1)


def _triangle_geometry(verts: np.ndarray):
    """Centers, scales (longest edge), doubled areas and barycentric gradients."""
    e = np.stack(
        [verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 1], verts[:, 0] - verts[:, 2]],
        axis=1,
    )
    d1 = verts[:, 1] - verts[:, 0]
    d2 = verts[:, 2] - verts[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(det <= 0.0):
        raise GeometryError("triangle with nonpositive area")
    centers = verts.mean(axis=1)
    scales = np.linalg.norm(e, axis=2).max(axis=1)
    # grad lambda_i = perp(P_{i+2} - P_{i+1}) / det with perp(v) = (-v_y, v_x)
    opp = np.stack([e[:, 1], e[:, 2], e[:, 0]], axis=1)
    grad_lam = np.stack([-opp[..., 1], opp[..., 0]], axis=-1) / det[:, None, None]
    return centers, scales, det, grad_lam


def _unit_normals(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    tang = end - start
    return _rotate_minus90(tang / np.linalg.norm(tang, axis=-1)[..., None])


def _edge_frames(verts: np.ndarray, signs: np.ndarray):
    """Globally oriented start/end points and unit normals of the local edges,
    each of shape (3, T, 2)."""
    a = verts.transpose(1, 0, 2)
    b = np.roll(a, -1, axis=0)
    flip = (signs.T < 0)[..., None]
    start = np.where(flip, b, a)
    end = np.where(flip, a, b)
    return start, end, _unit_normals(start, end)


def _stress_functionals(k: int, degree: int, edges, verts: np.ndarray,
                        sample: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Apply the stress-row DOF functionals of degree k to sampled vector fields.

    ``edges`` is (start, end, unit normal) of globally oriented edges, arrays
    of shape S + (2,); ``verts`` (T, 3, 2) are the triangles of the interior
    functionals.  ``sample(pts)`` returns the x and y components of J vector
    fields at points of shape P + (2,) as an array (2, J) + P.  The edges are
    sampled once, and the interiors once if k >= 2.

    Returns the edge moments, shape (J,) + S + (k+1,): mean-normalized
    moments of the normal trace against orthonormal Legendre polynomials in
    the global edge parameter; and the interior moments, shape
    (J, T, k^2 - 1): against scaled gradients of nonconstant P_{k-1}, then
    against curls of bubble-times-P_{k-2}, with gradients taken in centered,
    scaled local coordinates.
    """
    start, end, normal = edges
    erule = edge_rule(degree)
    tq, wq = erule.points, erule.weights
    leg = poly.eval_edge_polynomials(poly.edge_legendre_basis(k), tq)  # (k+1, nqe)
    fx, fy = sample(start[..., None, :] + tq[:, None] * (end - start)[..., None, :])
    mom_x = np.einsum("q,iq,j...q->j...i", wq, leg, fx)
    mom_y = np.einsum("q,iq,j...q->j...i", wq, leg, fy)
    edge = normal[..., 0, None] * mom_x + normal[..., 1, None] * mom_y
    if k < 2:
        return edge, np.zeros((len(fx), len(verts), 0))

    trule = triangle_rule(degree)
    bary, wt = trule.points, trule.weights
    centers, scales, _, grad_lam = _triangle_geometry(verts)
    X = np.einsum("ql,tld->tqd", bary, verts)
    xi = (X - centers[:, None, :]) / scales[:, None, None]
    exps = poly.monomial_exponents(k)
    mv = poly.eval_monomials(exps, xi[..., 0], xi[..., 1])  # (nm, T, nq)
    dxm, dym = poly.monomial_derivative_matrices(exps)
    dmx = np.einsum("ij,itq->jtq", dxm, mv)  # d/dxi_x of monomial j
    dmy = np.einsum("ij,itq->jtq", dym, mv)
    degs = exps.sum(axis=1)
    grad_ix = np.flatnonzero((degs >= 1) & (degs <= k - 1))
    curl_ix = np.flatnonzero(degs <= k - 2)
    fx, fy = sample(X)

    grad = 2.0 * (np.einsum("q,ptq,jtq->jtp", wt, dmx[grad_ix], fx)
                  + np.einsum("q,ptq,jtq->jtp", wt, dmy[grad_ix], fy))

    lam = bary.T  # (3, nq), triangle independent
    bub = lam[0] * lam[1] * lam[2]
    partials = np.stack([lam[1] * lam[2], lam[0] * lam[2], lam[0] * lam[1]])
    grad_bub = np.einsum("t,tid,iq->tqd", scales, grad_lam, partials)
    curl = np.empty((len(fx), len(verts), len(curl_ix)))
    for p, j_mono in enumerate(curl_ix):
        dwx = grad_bub[..., 0] * mv[j_mono] + bub[None, :] * dmx[j_mono]
        dwy = grad_bub[..., 1] * mv[j_mono] + bub[None, :] * dmy[j_mono]
        curl[:, :, p] = 2.0 * (np.einsum("q,tq,jtq->jt", wt, dwy, fx)
                               - np.einsum("q,tq,jtq->jt", wt, dwx, fy))
    return edge, np.concatenate([grad, curl], axis=2)


def _stress_dof_matrices(k: int, verts: np.ndarray, signs: np.ndarray,
                         degree: int | None = None) -> np.ndarray:
    """DOF matrices D[t, i, j] = functional_i(vector monomial j) per triangle.

    Vector monomials are (m, 0) for the first n_mono columns and (0, m) for
    the rest, with m the monomials of degree <= k in centered, scaled local
    coordinates.  Rows are the functionals of ``_stress_functionals``: the
    edge moments of local edges 0, 1, 2, then the interior moments.
    """
    if degree is None:
        degree = 2 * k + 2
    exps = poly.monomial_exponents(k)
    centers, scales, _, _ = _triangle_geometry(verts)

    def vector_monomials(pts):
        xi = (pts - centers[:, None, :]) / scales[:, None, None]
        mv = poly.eval_monomials(exps, xi[..., 0], xi[..., 1])
        zero = np.zeros_like(mv)
        return np.stack([np.concatenate([mv, zero]), np.concatenate([zero, mv])])

    edge, interior = _stress_functionals(k, degree, _edge_frames(verts, signs), verts,
                                         vector_monomials)
    nt, nj = len(verts), len(edge)
    edge_rows = edge.transpose(2, 1, 3, 0).reshape(nt, 3 * (k + 1), nj)
    return np.concatenate([edge_rows, interior.transpose(1, 2, 0)], axis=1)


@dataclass
class DiscreteSpaces:
    """Global DOF maps and per-triangle bases for the degree-k triple.

    The stress rows are combinations of the monomials ``stress_exps`` in
    centered, scaled triangle coordinates.  The velocity and rotation basis
    is the orthonormal P_{k-1} basis ``scalar_coef`` @ monomials
    ``scalar_exps`` against the doubled reference measure, so its Gram matrix
    on a physical triangle is area * identity.

    Global numbering, with m = n_scalar and E, T the edge and triangle counts:

    - stress: row 0 of the tensor, then row 1, each ``n_row_global`` long.
      Within a row, edge e holds e (k+1) + i, i < k+1, and triangle t the
      interior DOFs (k+1) E + t (k^2-1) + i.  ``row_dof_map`` gives the row
      index of each local DOF and ``stress_map`` (T, 2, n_row_dofs) its
      global index in row r, ``row_dof_map + r n_row_global``;
    - velocity: ``velocity_map`` (T, 2, m), t 2m + c m + j for component c;
    - rotation: ``rotation_map`` (T, m), t m + j.

    Every matrix, boundary operator and load is scattered through these
    three maps.
    """

    mesh: Mesh
    k: int
    stress_exps: np.ndarray      # (n_mono, 2)
    scalar_exps: np.ndarray
    scalar_coef: np.ndarray      # (n_scalar, n_scalar)
    stress_coef: np.ndarray      # (T, n_row_dofs, 2 * n_mono)
    row_dof_map: np.ndarray      # (T, n_row_dofs) -> global row-space index
    stress_map: np.ndarray       # (T, 2, n_row_dofs)
    velocity_map: np.ndarray     # (T, 2, n_scalar)
    rotation_map: np.ndarray     # (T, n_scalar)
    tri_verts: np.ndarray        # (T, 3, 2)
    centers: np.ndarray
    scales: np.ndarray
    dets: np.ndarray             # 2 * triangle areas
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_row_global(self) -> int:
        k, m = self.k, self.mesh
        return (k + 1) * m.num_edges + (k**2 - 1) * m.num_triangles

    @property
    def dim_stress(self) -> int:
        return 2 * self.n_row_global

    @property
    def n_scalar(self) -> int:
        return self.k * (self.k + 1) // 2

    @property
    def dim_velocity(self) -> int:
        return self.mesh.num_triangles * self.k * (self.k + 1)

    @property
    def dim_rotation(self) -> int:
        return self.mesh.num_triangles * self.k * (self.k + 1) // 2

    @property
    def areas(self) -> np.ndarray:
        return 0.5 * self.dets

    # -- evaluation -------------------------------------------------------

    def physical_points(self, rule: QuadratureRule) -> np.ndarray:
        key = ("pts", rule.exactness)
        if key not in self._cache:
            self._cache[key] = np.einsum("ql,tld->tqd", rule.points, self.tri_verts)
        return self._cache[key]

    def quad_weights(self, rule: QuadratureRule) -> np.ndarray:
        """Physical integration weights (T, nq): sum_q W f(x_q) = int_T f."""
        key = ("w", rule.exactness)
        if key not in self._cache:
            self._cache[key] = self.dets[:, None] * rule.weights[None, :]
        return self._cache[key]

    def _xi(self, pts: np.ndarray, tris=slice(None)) -> np.ndarray:
        return (pts - self.centers[tris, None, :]) / self.scales[tris, None, None]

    def stress_basis(self, pts: np.ndarray, tris=slice(None)) -> np.ndarray:
        """Row basis values at points pts (len(tris), nq, 2), pts[i] in
        triangle tris[i]; shape (len(tris), n_row_dofs, 2, nq)."""
        nm = len(self.stress_exps)
        xi = self._xi(pts, tris)
        mv = poly.eval_monomials(self.stress_exps, xi[..., 0], xi[..., 1])
        coef = self.stress_coef[tris]
        vx = np.einsum("tbm,mtq->tbq", coef[:, :, :nm], mv)
        vy = np.einsum("tbm,mtq->tbq", coef[:, :, nm:], mv)
        return np.stack([vx, vy], axis=2)

    def stress_row_values(self, rule: QuadratureRule) -> np.ndarray:
        """Row basis values at rule points, shape (T, n_row_dofs, 2, nq)."""
        key = ("sv", rule.exactness)
        if key not in self._cache:
            self._cache[key] = self.stress_basis(self.physical_points(rule))
        return self._cache[key]

    def stress_row_div_values(self, rule: QuadratureRule) -> np.ndarray:
        """Divergence of each row basis function at rule points, (T, n_row_dofs, nq)."""
        key = ("sdiv", rule.exactness)
        if key not in self._cache:
            nm = len(self.stress_exps)
            dxm, dym = poly.monomial_derivative_matrices(self.stress_exps)
            dcoef = (self.stress_coef[:, :, :nm] @ dxm.T
                     + self.stress_coef[:, :, nm:] @ dym.T)
            dcoef /= self.scales[:, None, None]
            xi = self._xi(self.physical_points(rule))
            mv = poly.eval_monomials(self.stress_exps, xi[..., 0], xi[..., 1])
            self._cache[key] = np.einsum("tbm,mtq->tbq", dcoef, mv)
        return self._cache[key]

    def scalar_values(self, rule: QuadratureRule) -> np.ndarray:
        """P_{k-1} basis values at reference rule points, shape (m, nq)."""
        key = ("psi", rule.exactness)
        if key not in self._cache:
            mv = poly.eval_monomials(self.scalar_exps, rule.xy[:, 0], rule.xy[:, 1])
            self._cache[key] = np.tensordot(self.scalar_coef, mv, axes=(1, 0))
        return self._cache[key]

    def scalar_moments(self, W: np.ndarray, rule: QuadratureRule,
                       vals: np.ndarray) -> np.ndarray:
        """sum_q W[t, q] psi_j(q) vals[..., t, q]: the moments of fields
        sampled at rule points against the P_{k-1} basis, a V_h vector for
        vals (2, T, nq) and a K_h vector for vals (T, nq), in global order."""
        return np.einsum("tq,jq,...tq->t...j", W, self.scalar_values(rule), vals).ravel()

    def stress_values(self, alpha: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Field values of a stress coefficient vector, shape (T, 2, 2, nq)."""
        return np.einsum("trb,tbdq->trdq", alpha[self.stress_map], self.stress_row_values(rule))

    def stress_div_values(self, alpha: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Row-wise divergence of a stress field, shape (T, 2, nq)."""
        return np.einsum("trb,tbq->trq", alpha[self.stress_map], self.stress_row_div_values(rule))

    def velocity_values(self, coeffs: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Field values of a V_h coefficient vector, shape (T, 2, nq)."""
        psi = self.scalar_values(rule)
        c = coeffs.reshape(self.mesh.num_triangles, 2, self.n_scalar)
        return np.einsum("tcj,jq->tcq", c, psi)

    def rotation_values(self, gamma: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Scalar rotation values of a K_h coefficient vector, shape (T, nq)."""
        psi = self.scalar_values(rule)
        c = gamma.reshape(self.mesh.num_triangles, self.n_scalar)
        return np.einsum("tj,jq->tq", c, psi)


def build_spaces(mesh: Mesh, k: int) -> DiscreteSpaces:
    """Build the degree-k triple on a mesh; k must be 1, 2, or 3."""
    if k not in SUPPORTED_DEGREES:
        raise MixedElastError(f"unsupported degree k={k}; expected one of {SUPPORTED_DEGREES}")
    verts = mesh.vertices[mesh.triangles]
    dof = _stress_dof_matrices(k, verts, mesh.edge_signs)
    coef = np.transpose(np.linalg.inv(dof), (0, 2, 1))
    centers, scales, dets, _ = _triangle_geometry(verts)
    scalar_exps, scalar_coef = poly.orthonormal_scalar_basis(k - 1)

    nt, m, n_int = mesh.num_triangles, len(scalar_exps), k**2 - 1
    base = (k + 1) * mesh.num_edges
    edge_dofs = mesh.triangle_edges[:, :, None] * (k + 1) + np.arange(k + 1)
    row_map = np.concatenate([edge_dofs.reshape(nt, -1),
                              base + np.arange(nt)[:, None] * n_int + np.arange(n_int)], axis=1)
    return DiscreteSpaces(
        mesh=mesh, k=k, stress_exps=poly.monomial_exponents(k), scalar_exps=scalar_exps,
        scalar_coef=scalar_coef, stress_coef=coef, row_dof_map=row_map,
        stress_map=row_map[:, None, :] + (base + n_int * nt) * np.arange(2)[:, None],
        velocity_map=np.arange(2 * nt * m).reshape(nt, 2, m),
        rotation_map=np.arange(nt * m).reshape(nt, m),
        tri_verts=verts, centers=centers, scales=scales, dets=dets,
    )


# -- canonical interpolation and local projections -------------------------


def canonical_interpolation(spaces: DiscreteSpaces, sigma: Callable,
                            degree: int = 12) -> np.ndarray:
    """Coefficients of the canonical stress interpolant of a matrix field.

    ``sigma(x, y)`` must return (2, 2) + broadcast shape and be continuous on
    each closed triangle.  The interpolant commutes with the divergence:
    div of the result is the V_h projection of div sigma.
    """
    mesh = spaces.mesh
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]

    def rows_of_sigma(pts):
        return np.swapaxes(np.asarray(sigma(pts[..., 0], pts[..., 1]), dtype=float), 0, 1)

    edge, interior = _stress_functionals(spaces.k, degree, (a, b, _unit_normals(a, b)),
                                         spaces.tri_verts, rows_of_sigma)
    return np.concatenate([edge.reshape(2, -1), interior.reshape(2, -1)], axis=1).ravel()


def _l2_project(spaces: DiscreteSpaces, fn: Callable, degree: int | None) -> np.ndarray:
    # the basis is orthonormal against the doubled reference measure, so the
    # projection's coefficients are the moments with weights 2 w_q
    rule = triangle_rule(2 * spaces.k + 4 if degree is None else degree)
    X = spaces.physical_points(rule)
    vals = np.asarray(fn(X[..., 0], X[..., 1]), dtype=float)
    return spaces.scalar_moments(np.broadcast_to(2.0 * rule.weights, X.shape[:2]), rule, vals)


def l2_project_velocity(spaces: DiscreteSpaces, v: Callable,
                        degree: int | None = None) -> np.ndarray:
    """Elementwise L2 projection of a vector field onto V_h."""
    return _l2_project(spaces, v, degree)


def l2_project_rotation(spaces: DiscreteSpaces, q: Callable,
                        degree: int | None = None) -> np.ndarray:
    """Elementwise L2 projection of a scalar rotation field onto K_h."""
    return _l2_project(spaces, q, degree)
