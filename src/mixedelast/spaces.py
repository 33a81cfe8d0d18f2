"""Discrete spaces for the weakly symmetric mixed method of degree k.

The triple is: stress fields whose rows are normal-continuous piecewise
P_k vector fields (edge moments against P_k per edge plus interior moments),
discontinuous vector P_{k-1} velocities, and discontinuous scalar P_{k-1}
rotations (the scalar q stands for the skew matrix [[0, q], [-q, 0]]).

Stress row bases, in centered, scaled local coordinates, are constructed once
per congruence class of triangles (the same edge vectors and edge signs; the
uniform mesh has two) by inverting the matrix of the DOF functionals.  The edge
functionals use the global low-to-high edge parameterization and a fixed normal
per edge, so a shared edge carries the same functionals from both sides and the
assembled space is H(div)-conforming with no orientation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import polynomials as poly
from .errors import ConfigError, GeometryError
from .mesh import Mesh
from .quadrature import QuadratureRule, edge_rule, triangle_rule

SUPPORTED_DEGREES = (1, 2, 3)


def _rotate_minus90(v: np.ndarray) -> np.ndarray:
    """Right-hand normal (t_y, -t_x) of tangent vectors in the last axis."""
    return np.stack([v[..., 1], -v[..., 0]], axis=-1)


def _triangle_geometry(verts: np.ndarray):
    """Centers, scales (longest edge), doubled areas and barycentric gradients."""
    e = verts[:, [1, 2, 0]] - verts  # edge l from local vertex l to l + 1
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


def _rule_points(bary: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Points (T, nq, 2) of barycentric rule points bary (nq, 3) on triangles
    verts (T, 3, 2): the products of np.einsum("ql,tld->tqd", bary, verts) summed
    in its order, so bitwise its points, into one (T, nq) array per coordinate."""
    v = verts.transpose(2, 0, 1)[..., None]
    xy = v[:, :, 0] * bary[:, 0] + v[:, :, 1] * bary[:, 1] + v[:, :, 2] * bary[:, 2]
    return xy.transpose(1, 2, 0)


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
    tq, wq = edge_rule(degree)
    leg = poly.eval_edge_polynomials(poly.edge_legendre_basis(k), tq)  # (k+1, nqe)
    fx, fy = sample(start[..., None, :] + tq[:, None] * (end - start)[..., None, :])
    mom_x = np.einsum("q,iq,j...q->j...i", wq, leg, fx)
    mom_y = np.einsum("q,iq,j...q->j...i", wq, leg, fy)
    edge = normal[..., 0, None] * mom_x + normal[..., 1, None] * mom_y
    if k < 2:
        return edge, np.zeros((len(fx), len(verts), 0))

    bary, wt = triangle_rule(degree)
    centers, scales, _, grad_lam = _triangle_geometry(verts)
    X = _rule_points(bary, verts)
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
                         degree: int) -> np.ndarray:
    """DOF matrices D[t, i, j] = functional_i(vector monomial j) per triangle.

    Vector monomials are (m, 0) for the first n_mono columns and (0, m) for
    the rest, with m the monomials of degree <= k in centered, scaled local
    coordinates.  Rows are the functionals of ``_stress_functionals``: the
    edge moments of local edges 0, 1, 2, then the interior moments.
    """
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


@dataclass(frozen=True)
class DiscreteSpaces:
    """Global DOF maps and the bases of the degree-k triple.

    The stress rows are combinations of the monomials ``stress_exps`` in
    centered, scaled coordinates: ``stress_coef[tri_class[t]]`` on triangle t,
    one set per class, tabulated at the rule points of ``class_tris``.  The
    velocity and rotation basis is the orthonormal P_{k-1} basis
    ``scalar_coef`` @ monomials ``scalar_exps`` against the doubled reference
    measure, so its Gram matrix on a physical triangle is area * identity.

    Global numbering, with m = n_scalar: the stress and rotation unknowns
    share one range of length ``dim_x`` = dim_stress + dim_rotation, the
    stresses first, then the rotations; a coefficient vector x of that
    range holds a stress and a rotation at once.

    - stress: ``stress_map`` (T, 2, n_row_dofs) gives the position of each
      local DOF of tensor row r, r n_row + e (k + 1) + j for moment j of
      edge e and r n_row + (k + 1) n_edges + t (k^2 - 1) + i for interior
      moment i of triangle t, n_row the DOFs of one tensor row; a shared
      edge DOF has one position, met from both of its triangles;
    - rotation: ``rotation_map`` (T, m), in the same range;
    - velocity: ``velocity_map`` (T, 2, m), t 2m + c m + j for component c,
      a range of its own.

    Every matrix, boundary operator and load is scattered through these
    three maps.  The spaces are an immutable value, frozen like `Mesh`, and
    keep no table: `physical_points`, `quad_weights` and `scalar_values`
    compute theirs on each call.
    """

    mesh: Mesh
    k: int
    stress_exps: np.ndarray      # (n_mono, 2)
    scalar_exps: np.ndarray
    scalar_coef: np.ndarray      # (n_scalar, n_scalar)
    stress_coef: np.ndarray      # (n_classes, n_row_dofs, 2 * n_mono)
    tri_class: np.ndarray        # (T,) class of each triangle
    class_tris: np.ndarray       # (n_classes,) one triangle of each class
    stress_map: np.ndarray       # (T, 2, n_row_dofs)
    velocity_map: np.ndarray     # (T, 2, n_scalar)
    rotation_map: np.ndarray     # (T, n_scalar)
    tri_verts: np.ndarray        # (T, 3, 2)
    centers: np.ndarray
    scales: np.ndarray
    dets: np.ndarray             # 2 * triangle areas
    dim_x: int                   # length of the stress and rotation range

    @property
    def dim_stress(self) -> int:
        return self.dim_x - self.dim_rotation

    @property
    def n_scalar(self) -> int:
        return self.rotation_map.shape[1]

    @property
    def dim_velocity(self) -> int:
        return self.velocity_map.size

    @property
    def dim_rotation(self) -> int:
        return self.rotation_map.size

    @property
    def areas(self) -> np.ndarray:
        return 0.5 * self.dets

    # -- evaluation -------------------------------------------------------

    def physical_points(self, rule: QuadratureRule) -> np.ndarray:
        return _rule_points(rule.points, self.tri_verts)

    def quad_weights(self, rule: QuadratureRule) -> np.ndarray:
        """Physical integration weights (T, nq): sum_q W f(x_q) = int_T f."""
        return self.dets[:, None] * rule.weights[None, :]

    def _monomials(self, pts: np.ndarray, tris: np.ndarray) -> np.ndarray:
        xi = (pts - self.centers[tris, None, :]) / self.scales[tris, None, None]
        return poly.eval_monomials(self.stress_exps, xi[..., 0], xi[..., 1])

    def stress_basis(self, pts: np.ndarray, tris: np.ndarray) -> np.ndarray:
        """Row basis values at points pts (len(tris), nq, 2), pts[i] in
        triangle tris[i]; shape (len(tris), n_row_dofs, 2, nq)."""
        nm = len(self.stress_exps)
        mv = self._monomials(pts, tris)
        coef = self.stress_coef[self.tri_class[tris]]
        vx = np.einsum("tbm,mtq->tbq", coef[:, :, :nm], mv)
        vy = np.einsum("tbm,mtq->tbq", coef[:, :, nm:], mv)
        return np.stack([vx, vy], axis=2)

    def _class_points(self, rule: QuadratureRule) -> np.ndarray:
        """Rule points (n_classes, nq, 2) of the triangles ``class_tris``."""
        return _rule_points(rule.points, self.tri_verts[self.class_tris])

    def stress_row_values(self, rule: QuadratureRule) -> np.ndarray:
        """Row basis values at rule points per class, (n_classes, n_row_dofs, 2, nq)."""
        return self.stress_basis(self._class_points(rule), self.class_tris)

    def stress_row_div_values(self, rule: QuadratureRule) -> np.ndarray:
        """Row basis divergences at rule points per class, (n_classes, n_row_dofs, nq)."""
        nm, reps = len(self.stress_exps), self.class_tris
        dxm, dym = poly.monomial_derivative_matrices(self.stress_exps)
        dcoef = self.stress_coef[:, :, :nm] @ dxm.T + self.stress_coef[:, :, nm:] @ dym.T
        dcoef /= self.scales[reps, None, None]
        return np.einsum("tbm,mtq->tbq", dcoef, self._monomials(self._class_points(rule), reps))

    def scalar_values(self, rule: QuadratureRule) -> np.ndarray:
        """P_{k-1} basis values at reference rule points, shape (m, nq)."""
        mv = poly.eval_monomials(self.scalar_exps, rule.xy[:, 0], rule.xy[:, 1])
        return np.tensordot(self.scalar_coef, mv, axes=(1, 0))

    def scalar_moments(self, W: np.ndarray, rule: QuadratureRule,
                       vals: np.ndarray) -> np.ndarray:
        """sum_q W[t, q] psi_j(q) vals[..., t, q]: the moments of fields
        sampled at rule points against the P_{k-1} basis.  For vals (2, T,
        nq) they are a V_h vector in global order; for vals (T, nq) they
        are a K_h vector, the rotation part x[dim_stress:] of x."""
        return np.einsum("tq,jq,...tq->t...j", W, self.scalar_values(rule), vals).ravel()

    def stress_values(self, x: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Stress field values of a coefficient vector x, shape (T, 2, 2, nq)."""
        return np.einsum("trb,tbdq->trdq", x[self.stress_map],
                         self.stress_row_values(rule)[self.tri_class])

    def velocity_values(self, coeffs: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Field values of a V_h coefficient vector, shape (T, 2, nq)."""
        return np.einsum("tcj,jq->tcq", coeffs[self.velocity_map], self.scalar_values(rule))

    def rotation_values(self, x: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Scalar rotation values of a coefficient vector x, shape (T, nq)."""
        return np.einsum("tj,jq->tq", x[self.rotation_map], self.scalar_values(rule))


def build_spaces(mesh: Mesh, k: int) -> DiscreteSpaces:
    """Build the degree-k triple on a mesh; k must be 1, 2, or 3."""
    if k not in SUPPORTED_DEGREES:
        raise ConfigError(f"unsupported degree k={k}; expected one of {SUPPORTED_DEGREES}")
    verts, nt = mesh.vertices[mesh.triangles], mesh.num_triangles
    # a class: the same edge vectors and the same edge signs; the vectors are
    # divided by the largest absolute component of them all and rounded, so
    # that roundoff in the vertices does not split a class (+ 0.0 folds -0.0)
    edges = (verts[:, 1:] - verts[:, :1]).reshape(nt, 4)
    key = np.column_stack([np.round(edges / np.abs(edges).max(), 12) + 0.0, mesh.edge_signs])
    _, reps, tri_class = np.unique(key, axis=0, return_index=True, return_inverse=True)
    dof = _stress_dof_matrices(k, verts[reps], mesh.edge_signs[reps], 2 * k + 2)
    coef = np.transpose(np.linalg.inv(dof), (0, 2, 1))
    centers, scales, dets, _ = _triangle_geometry(verts)
    scalar_exps, scalar_coef = poly.orthonormal_scalar_basis(k - 1)

    m, n_int = len(scalar_exps), k**2 - 1
    # one tensor row's DOFs: k + 1 per edge, then n_int per triangle
    base = (k + 1) * mesh.num_edges
    n_row = base + n_int * nt
    edge_dofs = mesh.triangle_edges[:, :, None] * (k + 1) + np.arange(k + 1)
    row_map = np.concatenate([edge_dofs.reshape(nt, -1),
                              base + np.arange(nt)[:, None] * n_int + np.arange(n_int)], axis=1)
    return DiscreteSpaces(
        mesh=mesh, k=k, stress_exps=poly.monomial_exponents(k), scalar_exps=scalar_exps,
        scalar_coef=scalar_coef, stress_coef=coef, tri_class=tri_class, class_tris=reps,
        stress_map=row_map[:, None, :] + n_row * np.arange(2)[:, None],
        velocity_map=np.arange(2 * nt * m).reshape(nt, 2, m),
        rotation_map=2 * n_row + np.arange(nt * m).reshape(nt, m),  # after the stresses
        tri_verts=verts, centers=centers, scales=scales, dets=dets, dim_x=2 * n_row + nt * m,
    )


def l2_project_velocity(spaces: DiscreteSpaces, v: Callable,
                        degree: int | None = None) -> np.ndarray:
    """Elementwise L2 projection of a vector field onto V_h."""
    # the basis is orthonormal against the doubled reference measure, so the
    # projection's coefficients are the moments with weights 2 w_q
    rule = triangle_rule(2 * spaces.k + 4 if degree is None else degree)
    X = spaces.physical_points(rule)
    vals = np.asarray(v(X[..., 0], X[..., 1]), dtype=float)
    return spaces.scalar_moments(np.broadcast_to(2.0 * rule.weights, X.shape[:2]), rule, vals)
