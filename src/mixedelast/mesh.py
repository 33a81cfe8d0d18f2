"""Conforming triangulations of rectangular domains.

Meshes are immutable after construction.  Edges carry a global orientation
(lower vertex index -> higher vertex index); per-triangle incidence signs
record whether the counterclockwise traversal of a triangle agrees with that
orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class Mesh:
    """Triangulation with globally oriented edges.

    Attributes:
        vertices: (V, 2) coordinates.
        triangles: (T, 3) vertex indices, counterclockwise.
        edges: (E, 2) vertex pairs with edges[:, 0] < edges[:, 1].
        triangle_edges: (T, 3) edge indices; local edge l joins local
            vertices l and (l + 1) % 3.
        edge_signs: (T, 3) incidence signs, +1 when the local traversal
            agrees with the global low-to-high orientation.
        boundary_edges: indices of edges lying on the domain boundary.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray
    edge_signs: np.ndarray
    boundary_edges: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_triangles(self) -> np.ndarray:
        """(E, 2) incident triangle indices, -1 in column 1 for boundary edges."""
        edges = self.triangle_edges.ravel()
        # a stable sort keeps each edge's incidences in triangle order, so the
        # lower triangle index goes to column 0
        order = np.argsort(edges, kind="stable")
        column = np.zeros(len(edges), dtype=int)
        column[order[1:]] = edges[order[1:]] == edges[order[:-1]]
        inc = -np.ones((self.num_edges, 2), dtype=int)
        inc[edges, column] = np.arange(len(edges)) // 3
        return inc


def _connect(vertices: np.ndarray, triangles: np.ndarray) -> Mesh:
    """Derive edges, incidence and boundary data from a vertex/triangle list."""
    areas = 0.5 * _cross2(
        vertices[triangles[:, 1]] - vertices[triangles[:, 0]],
        vertices[triangles[:, 2]] - vertices[triangles[:, 0]],
    )
    if np.any(areas <= 0.0):
        raise GeometryError("all triangles must be counterclockwise with positive area")

    # local edge l runs from local vertex l to l + 1; its sorted vertex pair
    # is one integer, and an edge is numbered at its first appearance in
    # triangle-major order
    start, end = triangles.ravel(), np.roll(triangles, -1, axis=1).ravel()
    low, high = np.minimum(start, end), np.maximum(start, end)
    _, first, inverse, edge_count = np.unique(low * len(vertices) + high, return_index=True,
                                              return_inverse=True, return_counts=True)
    rank = np.argsort(first)
    number = np.empty_like(rank)
    number[rank] = np.arange(len(rank))
    if np.any(edge_count > 2):
        raise GeometryError("non-manifold edge found")
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=np.column_stack([low, high])[first[rank]].astype(int),
        triangle_edges=number[inverse].reshape(triangles.shape).astype(triangles.dtype),
        edge_signs=np.where(start < end, 1, -1).reshape(triangles.shape).astype(triangles.dtype),
        boundary_edges=np.flatnonzero(edge_count[rank] == 1),
    )


def build_uniform_square_mesh(n: int) -> Mesh:
    """Uniform n x n triangulation of the unit square.

    Each grid cell is split along its lower-left to upper-right diagonal,
    giving (n+1)^2 vertices, 2 n^2 triangles, and h = sqrt(2)/n.
    """
    if n < 1:
        raise GeometryError(f"subdivision count must be >= 1, got {n}")
    s = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(s, s, indexing="ij")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)  # vertex (i, j) at i (n+1) + j
    a, b, c, d = vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]
    # cell (i, j) in row-major order gives triangles (a, b, c) and (a, c, d)
    triangles = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return _connect(vertices, triangles)


def mesh_diameter(mesh: Mesh) -> float:
    """Maximum over triangles of the longest edge length."""
    d = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    return float(np.hypot(d[:, 0], d[:, 1]).max())
