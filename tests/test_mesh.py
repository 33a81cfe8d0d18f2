import numpy as np
import pytest

from mixedelast import GeometryError, build_uniform_square_mesh, mesh_diameter
from mixedelast.mesh import _connect

from _oracles import reference_connect, refine, triangle_areas


def test_single_cell_counts():
    m = build_uniform_square_mesh(1)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (4, 2, 5)


def test_n2_counts_euler():
    m = build_uniform_square_mesh(2)
    # E = V + T - 1 with V = (n+1)^2, T = 2 n^2
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (9, 8, 16)


def test_table_mesh_counts():
    m = build_uniform_square_mesh(4)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (25, 32, 56)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
def test_invariants(n):
    m = build_uniform_square_mesh(n)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    areas = triangle_areas(m)
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) <= 1e-12
    counts = (n + 1) ** 2, 2 * n**2, (n + 1) ** 2 + 2 * n**2 - 1
    assert (m.num_vertices, m.num_triangles, m.num_edges) == counts


def test_boundary_edges_tagged_dirichlet():
    m = build_uniform_square_mesh(3)
    assert len(m.boundary_edges) == 4 * 3


def test_edge_incidence_signs_opposite():
    m = build_uniform_square_mesh(3)
    inc = m.edge_triangles()
    for e in range(m.num_edges):
        t1, t2 = inc[e]
        if t2 < 0:
            continue
        s1 = m.edge_signs[t1, list(m.triangle_edges[t1]).index(e)]
        s2 = m.edge_signs[t2, list(m.triangle_edges[t2]).index(e)]
        assert s1 == -s2


def test_interior_edges_shared_by_two():
    m = build_uniform_square_mesh(4)
    inc = m.edge_triangles()
    n_boundary = (inc[:, 1] < 0).sum()
    assert n_boundary == len(m.boundary_edges)
    assert np.all(inc[:, 0] >= 0)


def test_zero_subdivisions_rejected():
    with pytest.raises(GeometryError):
        build_uniform_square_mesh(0)


def test_refine_matches_next_uniform():
    r = refine(build_uniform_square_mesh(1))
    m2 = build_uniform_square_mesh(2)
    assert (r.num_vertices, r.num_triangles, r.num_edges) == (
        m2.num_vertices, m2.num_triangles, m2.num_edges)
    assert abs(triangle_areas(r).sum() - 1.0) <= 1e-12


def test_refine_quadruples_triangles():
    m = build_uniform_square_mesh(1)
    counts = [m.num_triangles]
    for _ in range(2):
        m = refine(m)
        counts.append(m.num_triangles)
    assert counts == [2, 8, 32]


def test_refine_preserves_invariants_and_tags():
    m = refine(build_uniform_square_mesh(3))
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert np.all(triangle_areas(m) > 0)
    assert len(m.boundary_edges) == 4 * 6


def test_mesh_diameter():
    assert mesh_diameter(build_uniform_square_mesh(4)) == pytest.approx(np.sqrt(2) / 4, abs=1e-15)
    assert mesh_diameter(build_uniform_square_mesh(8)) == pytest.approx(np.sqrt(2) / 8, abs=1e-15)
    m = build_uniform_square_mesh(2)
    assert mesh_diameter(refine(m)) == pytest.approx(mesh_diameter(m) / 2, abs=1e-15)


def _jittered(n, seed=4):
    """The uniform n x n mesh with its interior vertices moved off the grid."""
    mesh = build_uniform_square_mesh(n)
    vertices = mesh.vertices.copy()
    inner = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    vertices[inner] += np.random.default_rng(seed).uniform(-0.2 / n, 0.2 / n, (inner.sum(), 2))
    return _connect(vertices, mesh.triangles)


@pytest.mark.parametrize("build", [
    lambda: build_uniform_square_mesh(1), lambda: build_uniform_square_mesh(3),
    lambda: build_uniform_square_mesh(8), lambda: refine(build_uniform_square_mesh(3)),
    lambda: _jittered(4)], ids=["uniform-1", "uniform-3", "uniform-8", "refined-3", "jittered-4"])
def test_connectivity_matches_reference_numbering(build):
    mesh = build()
    ref = reference_connect(mesh.vertices, mesh.triangles)
    for name in ("vertices", "triangles", "edges", "triangle_edges", "edge_signs",
                 "boundary_edges"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(mesh.edge_triangles(), ref.edge_triangles())


def test_clockwise_triangle_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(GeometryError, match="counterclockwise"):
        _connect(vertices, np.array([[0, 2, 1]]))


def test_edge_of_three_triangles_rejected():
    # three counterclockwise triangles on the edge from (0, 0) to (1, 0)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(GeometryError, match="non-manifold"):
        _connect(vertices, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))
