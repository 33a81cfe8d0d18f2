import dataclasses

import numpy as np
import pytest

from mixedelast import MixedElastError, build_spaces, l2_project_velocity
from mixedelast.quadrature import MAX_DEGREE, triangle_rule
from mixedelast.spaces import _rule_points, _stress_dof_matrices

from _oracles import (canonical_interpolation, l2_project_rotation, refine,
                      stress_div_values, stress_values_at)
from conftest import make_matrix_field


def test_dimension_examples(spaces_cache):
    sp1 = spaces_cache(1, 1)
    assert (sp1.dim_stress, sp1.dim_velocity, sp1.dim_rotation) == (20, 4, 2)
    sp2 = spaces_cache(1, 2)
    assert (sp2.dim_stress, sp2.dim_velocity, sp2.dim_rotation) == (42, 12, 6)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_dimension_formulas(spaces_cache, mesh_cache, n, k):
    # the dimensions are read from the DOF maps; the per-entity counts cross-check them
    sp = spaces_cache(n, k)
    m = mesh_cache(n)
    assert sp.dim_stress == 2 * ((k + 1) * m.num_edges + (k**2 - 1) * m.num_triangles)
    assert sp.dim_velocity == m.num_triangles * k * (k + 1)
    assert sp.dim_rotation == sp.dim_velocity // 2


def test_unsupported_degree(mesh_cache):
    with pytest.raises(MixedElastError):
        build_spaces(mesh_cache(1), 4)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reference_element_counts(spaces_cache, k):
    sp = spaces_cache(1, k)
    nd = (k + 1) * (k + 2)
    assert sp.stress_map.shape == (2, 2, nd)
    assert sp.stress_coef.shape == (2, nd, nd)
    assert sp.scalar_coef.shape == (sp.n_scalar, sp.n_scalar) == (k * (k + 1) // 2,) * 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stress_and_rotation_maps_number_one_range(spaces_cache, mesh_cache, k):
    # every index of range(dim_stress + dim_rotation) belongs to exactly one
    # field, and a shared edge DOF has one index, met from both triangles
    sp, mesh = spaces_cache(4, k), mesh_cache(4)
    stress, rotation = np.unique(sp.stress_map), sp.rotation_map.ravel()
    assert len(stress) == sp.dim_stress and len(rotation) == sp.dim_rotation
    assert np.array_equal(np.sort(np.concatenate([stress, rotation])),
                          np.arange(sp.dim_stress + sp.dim_rotation))

    def edge_dofs(t, e):
        first = list(mesh.triangle_edges[t]).index(e) * (k + 1)
        return sp.stress_map[t, :, first:first + k + 1]

    seen = np.bincount(sp.stress_map.ravel(), minlength=sp.dim_x)
    shared = 0
    for e, (t1, t2) in enumerate(mesh.edge_triangles()):
        if t2 >= 0:
            assert np.array_equal(edge_dofs(t1, e), edge_dofs(t2, e))
            assert np.all(seen[edge_dofs(t1, e)] == 2)
            shared += edge_dofs(t1, e).size
    assert np.count_nonzero(seen == 2) == shared
    assert np.count_nonzero(seen == 1) == sp.dim_stress - shared


@pytest.mark.parametrize("n", [1, 2, 4, 32])
def test_uniform_mesh_has_two_triangle_classes(mesh_cache, n):
    # the two halves of a grid cell: every triangle is a translate of one
    sp = build_spaces(mesh_cache(n), 1)
    assert sp.stress_coef.shape[0] == len(sp.class_tris) == 2
    assert np.array_equal(np.unique(sp.tri_class), [0, 1])
    assert np.array_equal(sp.tri_class[sp.class_tris], [0, 1])
    assert np.bincount(sp.tri_class).tolist() == [n * n, n * n]


def test_spaces_are_frozen(spaces_cache):
    sp = spaces_cache(1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.k = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.dim_x = 0
    assert sp.k == 1 and not hasattr(sp, "_cache")


@pytest.mark.parametrize("n", [1, 3, 8])
def test_rule_points_equal_the_einsum_bitwise(spaces_cache, n):
    # the one map of rule points onto triangles sums the einsum's products in
    # its order, so every point table it feeds is unchanged to the last bit
    sp = spaces_cache(n, 1)
    for d in range(1, MAX_DEGREE + 1):
        rule = triangle_rule(d)
        for verts in (sp.tri_verts, sp.tri_verts[sp.class_tris]):
            pts = _rule_points(rule.points, verts)
            assert pts.shape == (len(verts), len(rule.weights), 2)
            assert np.array_equal(pts, np.einsum("ql,tld->tqd", rule.points, verts))
        assert np.array_equal(sp.physical_points(rule),
                              np.einsum("ql,tld->tqd", rule.points, sp.tri_verts))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_physical_duality(spaces_cache, mesh_cache, n, k):
    # DOF functionals re-applied at an independent quadrature degree
    sp = spaces_cache(n, k)
    D = _stress_dof_matrices(k, sp.tri_verts, mesh_cache(n).edge_signs, degree=2 * k + 6)
    # each triangle's own DOF matrix against its class's coefficients
    prod = np.einsum("tij,tlj->til", D, sp.stress_coef[sp.tri_class])
    eye = np.eye(sp.stress_map.shape[2])
    assert np.abs(prod - eye).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_normal_trace_continuity(spaces_cache, mesh_cache, k):
    # On each interior edge: traces of functions not owned by the edge vanish,
    # and the shared edge DOFs give identical traces from both sides.
    n = 2
    m = mesh_cache(n)
    sp = spaces_cache(n, k)
    inc = m.edge_triangles()
    tq = np.linspace(0.1, 0.9, k + 2)
    for e in range(m.num_edges):
        t1, t2 = inc[e]
        if t2 < 0:
            continue
        a, b = m.vertices[m.edges[e]]
        pts = a[None, :] + tq[:, None] * (b - a)[None, :]
        nrm = np.array([(b - a)[1], -(b - a)[0]])
        nrm /= np.linalg.norm(nrm)
        traces = {}
        for t in (t1, t2):
            alpha = np.zeros(sp.dim_stress)
            nm = len(sp.stress_exps)
            xi = (pts - sp.centers[t]) / sp.scales[t]
            from mixedelast.polynomials import eval_monomials
            mv = eval_monomials(sp.stress_exps, xi[:, 0], xi[:, 1])
            coef = sp.stress_coef[sp.tri_class[t]]
            vx = coef[:, :nm] @ mv
            vy = coef[:, nm:] @ mv
            vn = vx * nrm[0] + vy * nrm[1]  # (nd, npts)
            for loc, gdof in enumerate(sp.stress_map[t, 0]):
                if gdof in traces:
                    assert np.abs(traces[gdof] - vn[loc]).max() <= 1e-12
                else:
                    traces[gdof] = vn[loc]
            first = list(m.triangle_edges[t]).index(e) * (k + 1)
            own = set(sp.stress_map[t, 0, first:first + k + 1])
            for loc, gdof in enumerate(sp.stress_map[t, 0]):
                if gdof not in own:
                    assert np.abs(vn[loc]).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 4])
def test_commutativity_random_fields(spaces_cache, n, k):
    rng = np.random.default_rng(42)
    sp = spaces_cache(n, k)
    rule = triangle_rule(12)
    W = sp.quad_weights(rule)
    for _ in range(3):
        sigma, div_sigma = make_matrix_field(rng)
        alpha = canonical_interpolation(sp, sigma)
        ph = l2_project_velocity(sp, div_sigma, degree=12)
        dv = stress_div_values(sp, alpha, rule)
        pv = sp.velocity_values(ph, rule)
        err = np.sqrt((W[:, None, :] * (dv - pv) ** 2).sum())
        assert err <= 1e-10


def test_commutativity_on_refined_mesh():
    # k=3 on a mesh produced by refinement (generic edge orientations)
    from mixedelast import build_uniform_square_mesh

    rng = np.random.default_rng(6)
    mesh = refine(build_uniform_square_mesh(2))
    sp = build_spaces(mesh, 3)
    rule = triangle_rule(12)
    W = sp.quad_weights(rule)
    sigma, div_sigma = make_matrix_field(rng)
    alpha = canonical_interpolation(sp, sigma)
    ph = l2_project_velocity(sp, div_sigma, degree=12)
    dv = stress_div_values(sp, alpha, rule)
    pv = sp.velocity_values(ph, rule)
    assert np.sqrt((W[:, None, :] * (dv - pv) ** 2).sum()) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_reproduces_space(spaces_cache, mesh_cache, k):
    # a field already in M_h, evaluated per triangle (interior points) and per
    # edge (normal traces are single valued): coefficients come back unchanged
    m = mesh_cache(2)
    sp = spaces_cache(2, k)
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal(sp.dim_x)
    alpha[sp.rotation_map] = 0.0  # the interpolant has no rotation
    rule = triangle_rule(12)
    vals_tri = np.moveaxis(sp.stress_values(alpha, rule), (1, 2), (0, 1))  # (2,2,T,nq)
    X = sp.physical_points(rule)
    inc = m.edge_triangles()

    def sigma(xx, yy):
        if np.shape(xx) == X[..., 0].shape:
            return vals_tri
        out = np.empty((2, 2) + np.shape(xx))
        for e in range(m.num_edges):
            pts = np.column_stack([xx[e], yy[e]])
            out[:, :, e, :] = stress_values_at(sp, inc[e, 0], pts, alpha)
        return out

    alpha2 = canonical_interpolation(sp, sigma)
    assert np.abs(alpha2 - alpha).max() <= 1e-12 * max(1.0, np.abs(alpha).max())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_error_decay(mesh_cache, k):
    # smooth field: O(h^m) with m up to k+1 for the full P_k rows
    def sigma(x, y):
        x = np.asarray(x, dtype=float)
        out = np.empty((2, 2) + x.shape)
        out[0, 0] = np.sin(x)
        out[0, 1] = np.cos(y)
        out[1, 0] = np.sin(x) * np.cos(y)
        out[1, 1] = x * np.cos(y)
        return out

    errs = []
    for n in (2, 4, 8):
        sp = build_spaces(mesh_cache(n), k)
        alpha = canonical_interpolation(sp, sigma)
        rule = triangle_rule(12)
        vals = sp.stress_values(alpha, rule)
        X = sp.physical_points(rule)
        exact = np.moveaxis(sigma(X[..., 0], X[..., 1]), (0, 1), (1, 2))
        W = sp.quad_weights(rule)
        errs.append(np.sqrt((W[:, None, None, :] * (vals - exact) ** 2).sum()))
    slope = np.log2(errs[-2] / errs[-1])
    assert slope >= k + 0.7


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projection_exactness_and_orthogonality(spaces_cache, k):
    sp = spaces_cache(2, k)
    rule = triangle_rule(2 * k + 4)
    W = sp.quad_weights(rule)

    const = lambda x, y: np.stack([np.full(np.shape(x), 2.0), np.full(np.shape(x), -1.0)])
    beta = l2_project_velocity(sp, const)
    vals = sp.velocity_values(beta, rule)
    assert np.abs(vals[:, 0] - 2.0).max() <= 1e-13
    assert np.abs(vals[:, 1] + 1.0).max() <= 1e-13

    if k >= 2:
        fld = lambda x, y: np.stack([x + 2 * y, np.asarray(x) * 0.0 - y])
        beta = l2_project_velocity(sp, fld)
        vals = sp.velocity_values(beta, rule)
        X = sp.physical_points(rule)
        exact = np.moveaxis(fld(X[..., 0], X[..., 1]), 0, 1)
        assert np.abs(vals - exact).max() <= 1e-12

    # residual orthogonal to every basis function
    smooth = lambda x, y: np.stack([np.sin(3 * x) * y, np.cos(2 * np.asarray(y)) + x])
    beta = l2_project_velocity(sp, smooth, degree=2 * k + 6)
    rule_hi = triangle_rule(2 * k + 6)
    X = sp.physical_points(rule_hi)
    W_hi = sp.quad_weights(rule_hi)
    resid = (np.moveaxis(smooth(X[..., 0], X[..., 1]), 0, 1)
             - sp.velocity_values(beta, rule_hi))
    psi = sp.scalar_values(rule_hi)
    moments = np.einsum("tq,jq,tcq->tcj", W_hi, psi, resid)
    assert np.abs(moments).max() <= 1e-12

    q = lambda x, y: np.sin(x + y)
    gamma = l2_project_rotation(sp, q, degree=2 * k + 6)
    residr = q(X[..., 0], X[..., 1]) - sp.rotation_values(gamma, rule_hi)
    momr = np.einsum("tq,jq,tq->tj", W_hi, psi, residr)
    assert np.abs(momr).max() <= 1e-12


def test_velocity_projection_convergence(mesh_cache):
    k = 2
    errs = []
    for n in (2, 4, 8):
        sp = build_spaces(mesh_cache(n), k)
        fld = lambda x, y: np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                                     np.zeros(np.shape(x))])
        beta = l2_project_velocity(sp, fld, degree=12)
        rule = triangle_rule(12)
        X = sp.physical_points(rule)
        W = sp.quad_weights(rule)
        diff = np.moveaxis(fld(X[..., 0], X[..., 1]), 0, 1) - sp.velocity_values(beta, rule)
        errs.append(np.sqrt((W[:, None, :] * diff**2).sum()))
    assert np.log2(errs[-2] / errs[-1]) == pytest.approx(k, abs=0.2)
