"""Sparse block matrices and load vectors of the semidiscrete system.

The block ODE in y = (x, v), x the stress and rotation unknowns in their
one range of the spaces, reads  E ydot = G y + F(t)  with

    E = [[E_r, 0], [0, M]],  E_r = A + C + C^T,   G = [[0, -B^T], [B, 0]],
    F = (dirichlet_load(t), load(t)),

where the entries are (A phi_j, phi_i), (div phi_j, psi_i), (phi_j, chi_i)
and (rho psi_j, psi_i) over the stress, velocity and rotation bases.  A and
C are square on the range of x: A couples stresses and C is nonzero in the
rotation rows and stress columns only.  `assemble` builds the system once,
with M as its diagonal (the velocity basis is orthonormal, so M^-1 is 1/m
entrywise) and K_r = B^T M^-1 B, which every solve that eliminates v needs.

Every local matrix is formed once per congruence class of triangles (see
`DiscreteSpaces`) from one set of class tables; the compliance has one
formula, and the L2 stress mass is its value at mu = 1/2, lambda = 0.  A
matrix on the range of x (E_r, K_r, the L2 pairing) is held as those blocks
only (`RangeOperator`): products use the blocks, a Schur complement LU's
condensed matrix, left by the levels of elimination of triangles and of
cells of 2 x 2, 4 x 4, ... grid cells (`Level`), is gathered through the
source maps of its pattern, and a CSR is formed from the table when asked for.  B and the boundary
operator are summed by one `_scatter` through the spaces' global numbering,
in which the loads are moments too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real
from typing import Callable

import numpy as np
import scipy.sparse as sps

from .errors import ConfigError
from .mesh import Mesh
from .quadrature import edge_rule, triangle_rule
from .spaces import DiscreteSpaces, _unit_normals


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic material data: the Lame coefficients and the density, each a
    positive finite constant, with a compliance that does not overflow;
    frozen, so a model stays valid."""

    mu: float
    lambda_: float
    rho: float = 1.0

    def __post_init__(self):
        for name in ("mu", "lambda_", "rho"):
            value = getattr(self, name)  # a bool is an int, but no material constant
            if (isinstance(value, bool) or not isinstance(value, Real)
                    or not 0 < value <= float(np.finfo(float).max)):  # exact for any int
                raise ConfigError(f"{name} must be a positive finite constant, got {value!r}")
        # the compliance's coefficients a and c must be finite and a > 0; c
        # is 0 where its denominator overflows, the lambda = 0 material, which
        # is right to roundoff only where lambda is below mu's last bit
        with np.errstate(all="ignore"):
            a, c = _lame_coefficients(np.float64(self.mu), np.float64(self.lambda_))
        if not (0 < a < np.inf and c < np.inf and (c > 0 or self.mu + self.lambda_ == self.mu)):
            raise ConfigError(f"the compliance of {self} overflows")


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


@dataclass(frozen=True)
class Level:
    """One level of elimination by class blocks.  Its patches, the triangles
    at the first level and the cells of 2 x 2, 4 x 4, ... grid cells above
    it (`_cells`), each hold W unknowns of x, listed by ``table`` (P, W) in
    patch rows grouped by class at ``bounds``; ``tri`` (P,) is a triangle of
    each row's patch, which names its cell on every level.  ``keep`` (W,)
    marks the unknowns a patch keeps, ``table[:, keep]``; it eliminates the
    others.  A cell level's patches hold the unknowns that the level below
    keeps.

    A cell level's class blocks are summed from the complements (class,
    nG, nG) of the level below: blocks.flat[dest] += below.flat[source].
    Its patches have slots for the most unknowns any class holds, interior
    ones first; a smaller cell's spare slots hold dim_x, one past x, where a
    solve holds 0, and ``unit`` puts ones on the diagonal of the spare
    interior slots, while a spare kept slot's row and column of the
    complement stay 0."""

    bounds: tuple
    table: np.ndarray
    keep: np.ndarray
    tri: np.ndarray
    dest: np.ndarray | None = None
    source: np.ndarray | None = None
    unit: np.ndarray | None = None

    def blocks(self, below: np.ndarray) -> np.ndarray:
        """The class blocks (class, W, W) of a cell level from the
        complements ``below`` of the level below."""
        W = len(self.keep)
        size = (len(self.bounds) - 1) * W * W
        flat = _by_parts(lambda part: np.bincount(self.dest, part, size),
                         below.reshape(-1)[self.source])
        flat[self.unit] = 1.0
        return flat.reshape(-1, W, W)


def _cells(mesh: Mesh) -> np.ndarray:
    """The cells of each triangle, (levels, T), each level numbered 0, 1,
    ...: the blocks of side x side grid cells that hold the centroids, on
    the n x n grid of the mesh's bounding box with 2 n^2 triangles, the grid
    of `build_uniform_square_mesh`, which moving its interior vertices a
    little or refining a coarser one keeps.  Where side does not divide n,
    the last blocks of each row and column are smaller.  The sides are 2,
    4, 8, ... up to the largest with side <= max(4, n / 4), so a cell above
    the first level is at most four cells of the level below, and a level
    whose every cell holds a single one is skipped (nested dissection,
    George, SIAM J. Numer. Anal. 10, 1973)."""
    n = max(1, round(np.sqrt(mesh.num_triangles / 2)))
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    grid = np.clip(((centroids - lo) / (hi - lo) * n).astype(int), 0, n - 1)
    levels, side = [np.arange(mesh.num_triangles)], 2
    while side <= max(4, n / 4):
        block = grid // side
        cells = np.unique(block[:, 0] * n + block[:, 1], return_inverse=True)[1]
        if cells.max() < levels[-1].max():
            levels.append(cells)
        side *= 2
    return np.array(levels[1:])


def _macro_level(below: Level, cell: np.ndarray, dim_stress: int, dim_x: int) -> Level:
    """The Level of the cells ``cell`` (P,) of the rows of ``below``, on x of
    length ``dim_x`` whose rotations follow its ``dim_stress`` stresses.

    A cell eliminates the unknowns that no other patch holds: those that
    two of its rows share (of the edges between two of its triangles) and
    the rotations.  It keeps those of its boundary edges, the domain's
    boundary included, so that a uniform mesh has one class per level, and
    one more per smaller size where the side does not divide n.  A cell's
    slots are numbered interior first, then boundary, each in the order
    that its rows, by triangle, meet them; cells with the same counts and,
    row by row, the same class below and the same slots are one class."""
    front = below.table[:, below.keep]
    (P, nG), nc = front.shape, len(below.bounds) - 1
    rows = np.lexsort((below.tri, cell))  # by cell, then by triangle
    front, row_cell, tri = front[rows], cell[rows], below.tri[rows]
    row_class = np.repeat(np.arange(nc), np.diff(below.bounds))[rows]
    filled = front < dim_x  # not a spare slot below
    unknowns = front[filled]
    # one slot per (cell, unknown): interior first, each part in meeting order
    pair, meet, slot = np.unique(np.repeat(row_cell, nG)[filled.ravel()] * dim_x + unknowns,
                                 return_index=True, return_inverse=True)
    cell, unknown = np.divmod(pair, dim_x)
    own = np.bincount(unknowns, minlength=dim_x) == 2  # of two rows, or a rotation,
    own[dim_stress:] = True
    own &= np.bincount(unknown, minlength=dim_x) == 1  # and of one cell
    order = np.lexsort((meet, ~own[unknown], cell))
    size = np.bincount(cell)
    n_int = np.bincount(cell, own[unknown]).astype(int)
    nI, nB = n_int.max(), (size - n_int).max()
    rank = np.empty(len(pair), int)
    rank[order] = np.arange(len(pair)) - np.repeat(np.cumsum(size) - size, size)
    rank += np.where(own[unknown], 0, nI - n_int[cell])
    pos = np.full((P, nG), -1)
    pos[filled] = rank[slot]
    # a class: row by row, the same class below and the same slots
    per_cell = np.bincount(row_cell)
    R, col = per_cell.max(), np.arange(P) - np.repeat(np.cumsum(per_cell) - per_cell, per_cell)
    key = np.full((len(size), R * (1 + nG)), -1)
    key[row_cell, col] = row_class
    key[row_cell[:, None], R + nG * col[:, None] + np.arange(nG)] = pos
    _, reps, mclass = np.unique(key, axis=0, return_index=True, return_inverse=True)
    W, by_class = nI + nB, np.argsort(mclass, kind="stable")
    table = np.full((len(size), W), dim_x)
    table[cell, rank] = unknown
    cell_tri = np.empty(len(size), int)
    cell_tri[row_cell] = tri
    # each class's sum maps from the filled slots of its first cell's rows
    rep = np.full(len(size), -1)
    rep[reps] = np.arange(len(reps))
    c, at = rep[row_cell], np.arange(nG)
    p, c, below_class, f = pos[c >= 0], c[c >= 0], row_class[c >= 0], filled[c >= 0]
    pairs = f[:, :, None] & f[:, None, :]
    c_spare, i_spare = np.nonzero(np.arange(nI) >= n_int[reps][:, None])
    return Level(tuple(np.searchsorted(mclass[by_class], np.arange(len(reps) + 1)).tolist()),
                 table[by_class], np.arange(W) >= nI, cell_tri[by_class],
                 dest=((c[:, None, None] * W + p[:, :, None]) * W + p[:, None, :])[pairs],
                 source=((below_class[:, None, None] * nG + at[:, None]) * nG + at)[pairs],
                 unit=(c_spare * W + i_spare) * W + i_spare)


@dataclass(frozen=True)
class RangeOperator:
    """A matrix on the range of x held as its local blocks, one per congruence
    class: L x = sum_T P_T^T L_c(T) P_T x, where P_T gathers the stress and
    rotation unknowns of triangle T (Hughes, Levit & Winget, CMAME 36, 1983).
    ``table`` (T, W) lists each triangle's unknowns, ``rotation`` (W,) marks
    its rotations, and its rows are grouped by class: those of class c are
    ``table[bounds[c]:bounds[c + 1]]``, and ``blocks`` (class, W, W) holds
    their local matrix.  A Schur complement LU eliminates unknowns by the
    ``levels`` of class blocks: each triangle's interior stresses and, where
    they pair with them (k >= 2), its rotations, then, level by level, the
    unknowns that each cell's children share, and the rotations left
    (`Level`).  It keeps ``kept`` (N_e,), the unknowns of the largest cells'
    boundary edges, sorted; ``indptr``, ``indices``, ``src``, ``dup`` and
    ``src2`` are the `_pattern` of the top level's complements (class, nG,
    nG), numbered 0..N_e-1 by their positions in ``kept``.  A system's
    operators share all but their blocks."""

    blocks: np.ndarray
    table: np.ndarray
    bounds: tuple
    rotation: np.ndarray
    levels: tuple
    kept: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    src: np.ndarray
    dup: np.ndarray
    src2: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        def product(part):
            out = _by_class(part[self.table], self.blocks.swapaxes(1, 2), self.bounds)
            return np.bincount(self.table.ravel(), out.ravel(), minlength=len(part))
        return _by_parts(product, x)

    def tocsr(self) -> sps.csr_matrix:
        """The CSR of every pair of a triangle's unknowns but two rotations,
        formed on each call by `_pattern` on the table, each entry its local
        value or the sum of its two, as a scatter sums them."""
        pairs = ~(self.rotation[:, None] & self.rotation)
        indptr, indices, *maps = _pattern(self.table, self.bounds, pairs, int(self.table.max()) + 1)
        return sps.csr_matrix((_gather(self.blocks, *maps), indices, indptr),
                              shape=(len(indptr) - 1,) * 2)


def _by_parts(apply: Callable, x: np.ndarray) -> np.ndarray:
    """apply(x) for a real linear map ``apply``; a complex x is mapped part by
    part into one complex array, so that no real operator is cast to complex
    (and np.bincount, which sums real weights only, serves a complex x)."""
    if np.isrealobj(x):
        return apply(x)
    real = apply(x.real)
    y = np.empty(real.shape, np.result_type(real, 1j))
    y.real, y.imag = real, apply(x.imag)
    return y


def _by_class(rows: np.ndarray, blocks: np.ndarray, bounds) -> np.ndarray:
    """rows @ blocks[c] for the rows of each class c, one matmul per class."""
    out = np.empty((len(rows), blocks.shape[2]), np.result_type(rows, blocks))
    for block, lo, hi in zip(blocks, bounds, bounds[1:]):
        np.matmul(rows[lo:hi], block, out=out[lo:hi])
    return out


def _gather(blocks: np.ndarray, src: np.ndarray, dup: np.ndarray, src2: np.ndarray):
    """The values of a pattern's entries from local blocks through its maps."""
    flat = blocks.reshape(-1)
    data = flat[src]
    data[dup] += flat[src2]
    return data


def _pattern(table: np.ndarray, bounds, pairs: np.ndarray, n: int):
    """The int32 CSR pattern (n, n) of the local entries (i, j) of blocks
    (class, w, w) on ``table`` (P, w), whose rows are grouped by class at
    ``bounds``, those where ``pairs`` (class, w, w), or (w, w) for every
    class, is set, and its source maps into the flat blocks: entry p is
    blocks.flat[src[p]], plus blocks.flat[src2[q]] where two patches share
    it, p = dup[q]; int16 when every block entry fits, else int32.  Returns
    (indptr, indices, src, dup, src2).

    A local entry's id is its (class, local row, local column).  One
    counting sort of the ids gives the pattern and the maps with no value
    scatter (Davis, Direct Methods for Sparse Linear Systems, SIAM 2006,
    cs_compress): the (patch, local row) slots are grouped by global row,
    scipy's per-row sort of the columns carries the ids along, and equal
    neighbours are one entry."""
    nc, w = len(bounds) - 1, table.shape[1]
    pairs = np.broadcast_to(pairs, (nc, w, w))
    row_class = np.repeat(np.arange(nc), np.diff(bounds))
    t, i = np.divmod(np.argsort(table.ravel(), kind="stable"), w)
    mask = pairs[row_class[t], i]
    dtype = np.int16 if nc * w * w < 2**15 else np.int32
    ids = (((row_class[t] * w + i) * w).astype(dtype)[:, None] + np.arange(w, dtype=dtype))[mask]
    size = np.bincount(table.ravel(), pairs.sum(axis=2)[row_class].ravel(), n + 1)[:n]
    indptr = np.concatenate([[0], np.cumsum(size)]).astype(np.int32)
    local = sps.csr_matrix((ids, table.astype(np.int32)[t][mask], indptr), shape=(n, n))
    local.sort_indices()
    cols, ids, indptr = local.indices, local.data, local.indptr
    new = np.concatenate([[True], cols[1:] != cols[:-1]])
    new[indptr[:-1]] = True
    second = np.flatnonzero(~new)  # each follows its first source
    return (indptr - np.searchsorted(second, indptr).astype(np.int32), cols[new], ids[new],
            (second - np.arange(1, len(second) + 1)).astype(np.int32), ids[second])


@dataclass
class BlockSystem:
    """The assembled matrix ODE: ``Eop``, E_r = A + C + C^T on the range of x,
    B, the diagonal ``Mdiag`` of the velocity mass M and the local blocks
    ``Kblocks`` of K_r = B^T M^-1 B on Eop's table, with the time-dependent
    loads.  Every solve reads these matrices and none changes them.  Unlike
    the spaces it is not frozen, so that a profiler can rebind the two load
    closures to time them."""

    Eop: RangeOperator
    Bmat: sps.csr_matrix
    Mdiag: np.ndarray
    Kblocks: np.ndarray
    load: Callable[[float], np.ndarray]
    dirichlet_load: Callable[[float], np.ndarray]
    spaces: DiscreteSpaces
    material: MaterialModel

    @property
    def Amat(self) -> sps.csr_matrix:
        """The compliance A on E_r's pattern, with C's and C^T's entries zero,
        formed on each read; no solve reads it."""
        ns, blocks = self.spaces.stress_map[0].size, self.Eop.blocks.copy()
        blocks[:, ns:] = blocks[:, :, ns:] = 0.0
        return replace(self.Eop, blocks=blocks).tocsr()

    @property
    def Cmat(self) -> sps.csr_matrix:
        """The rotation coupling C: E_r's rotation rows, whose entries are C's
        alone, with every other row empty, scattered from the rotation rows
        of E_r's local blocks on each read."""
        spaces, ns = self.spaces, self.spaces.stress_map[0].size
        return _scatter(self.Eop.blocks[spaces.tri_class][:, ns:, :ns],
                        spaces.rotation_map[:, :, None],
                        spaces.stress_map.reshape(len(spaces.tri_class), 1, -1),
                        (spaces.dim_x,) * 2)

    @property
    def Mmat(self) -> sps.csr_matrix:
        """The velocity mass M, formed from its diagonal; no solve reads it."""
        return sps.diags(self.Mdiag, format="csr")


def _scatter(local: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> sps.csr_matrix:
    """Sum of the local entries local[...] at the global entries (rows[...],
    cols[...]), the three broadcast together, as canonical CSR.  Every entry
    is kept, an exact zero too, so the pattern follows from rows and cols
    alone."""
    local, rows, cols = np.broadcast_arrays(local, rows, cols)
    idx = np.int32 if max(shape) < 2**31 else np.int64  # the index copies at half the size
    return sps.coo_matrix((local.ravel(), (rows.astype(idx, order="C").ravel(),
                                           cols.astype(idx, order="C").ravel())),
                          shape=shape).tocsr()


def _class_tables(spaces: DiscreteSpaces):
    """The tables every local matrix is formed from, at the degree 2k + 2
    rule: the weights W (class, nq) of each class's triangle, its stress row
    values V (class, n_row_dofs, 2, nq) and divergences DV (class,
    n_row_dofs, nq), and the P_{k-1} basis psi (m, nq)."""
    rule = triangle_rule(2 * spaces.k + 2)
    return (spaces.dets[spaces.class_tris, None] * rule.weights, spaces.stress_row_values(rule),
            spaces.stress_row_div_values(rule), spaces.scalar_values(rule))


def _lame_coefficients(mu, lam):
    """The compliance's coefficients a = 1/(4 mu) and c = lam / (2 mu (2 mu + 2 lam))."""
    return 1.0 / (4.0 * mu), lam / (2.0 * mu * (2.0 * mu + 2.0 * lam))


def _compliance(W: np.ndarray, V: np.ndarray, mu: float, lam: float) -> np.ndarray:
    """Local stress-stress compliance matrices (A phi_j, phi_i) of the Lame
    coefficients (mu, lam), from the class weights W and row values V: shape
    (class, 2 nd, 2 nd), the unknowns by tensor row, then by row DOF."""
    G = np.einsum("tapq,tbrq->prtab", V * W[:, None, None, :], V)  # test comp p, trial comp r
    a, c = _lame_coefficients(mu, lam)
    Gt = G.swapaxes(0, 1)
    blocks = Gt * a
    blocks -= c * G  # (test row s, trial row r, class, a, b)
    blocks -= 0.5 * Gt
    for s in range(2):
        blocks[s, s] += (a + 0.5) * (G[0, 0] + G[1, 1])
    _, _, nc, nd, _ = blocks.shape
    return blocks.transpose(2, 0, 3, 1, 4).reshape(nc, 2 * nd, 2 * nd)


def _local_blocks(T: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The local blocks [[T, C^T], [C, 0]] (class, 2 nd + m, 2 nd + m) of E_r(T)
    = T + C + C^T, of the stress blocks T (class, 2 nd, 2 nd) and couplings C
    (class, m, 2 nd); each T is made bitwise symmetric, 1/2 (T + T^T)."""
    nc, m = len(T), C.shape[1]
    return np.block([[0.5 * (T + T.swapaxes(1, 2)), C.swapaxes(1, 2)], [C, np.zeros((nc, m, m))]])


def _range_operator(spaces: DiscreteSpaces, blocks: np.ndarray) -> RangeOperator:
    """The RangeOperator of local blocks (class, W, W), W = 2 nd + m, with the
    triangles' (stress, rotation) unknowns as its table, grouped by class,
    the levels of a Schur complement LU, whose tables hold x's unknowns, and
    the pattern of what the top level keeps, numbered by position in its
    kept set: the one numbering besides x's own."""
    order = np.argsort(spaces.tri_class, kind="stable")
    table = np.concatenate([spaces.stress_map.reshape(len(order), -1), spaces.rotation_map],
                           axis=1)[order]
    ns, nd, m = spaces.stress_map[0].size, spaces.stress_map.shape[2], spaces.n_scalar
    bounds = tuple(np.searchsorted(spaces.tri_class[order], np.arange(len(blocks) + 1)).tolist())
    edge = np.arange(ns) % nd < 3 * (spaces.k + 1)  # a row's edge DOFs come first
    rotation, keep = np.arange(ns + m) >= ns, np.concatenate([edge, np.full(m, edge.all())])
    levels = [Level(bounds, table, keep, order)]
    for cells in _cells(spaces.mesh):  # the first cells eliminate every rotation left
        levels.append(_macro_level(levels[-1], cells[levels[-1].tri], spaces.dim_stress,
                                   spaces.dim_x))
    top = levels[-1]
    front = top.table[:, top.keep]
    kept = np.unique(front[front < spaces.dim_x])
    front = np.searchsorted(kept, front)  # a spare slot as N_e
    filled = front[list(top.bounds[:-1])] < len(kept)  # the kept slots of each class
    return RangeOperator(blocks, table, bounds, rotation, tuple(levels), kept,
                         *_pattern(front, top.bounds, filled[:, :, None] & filled[:, None],
                                   len(kept)))


def l2_pairing(system: BlockSystem) -> RangeOperator:
    """E_r(mass) = mass + C + C^T, the weakly symmetric L2 stress pairing: E_r's
    blocks with the compliance's replaced by the L2 stress mass's, which is
    the compliance of mu = 1/2, lambda = 0 exactly (its blocks that couple
    tensor rows are 0.5 G^T - 0 G - 0.5 G^T = 0)."""
    op, ns = system.Eop, system.spaces.stress_map[0].size
    W, V, _, _ = _class_tables(system.spaces)
    return replace(op, blocks=_local_blocks(_compliance(W, V, 0.5, 0.0),
                                            op.blocks[:, ns:, :ns]))  # C from E_r


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
    # (phi, S(chi)) with S(q) = [[0, q], [-q, 0]]: rotation chi pairs with
    # phi[0, 1] - phi[1, 0], i.e. +v_y for row-0 fields, -v_x for row-1 fields.
    C_T = np.concatenate([np.einsum("tq,iq,tbq->tib", W, psi, V[:, :, 1, :]),
                          -np.einsum("tq,iq,tbq->tib", W, psi, V[:, :, 0, :])], axis=2)
    Eop = _range_operator(spaces, _local_blocks(_compliance(W, V, material.mu,
                                                            material.lambda_), C_T))
    B_T = np.einsum("tq,iq,tbq->tib", W, psi, DV)  # (class, m, nd), one per component
    B = _scatter(B_T[tc, None], velocity[..., None], stress[:, :, None],
                 (spaces.dim_velocity, spaces.dim_x))
    # psi is orthonormal, so each local mass is diagonal up to roundoff
    m_T = np.einsum("tq,iq,iq->ti", W * material.rho, psi, psi)
    Mdiag = np.empty(spaces.dim_velocity)
    Mdiag[velocity] = m_T[tc, None]
    # K_r from the local B_T^T M_T^-1 B_T, which pair the stresses of one
    # tensor row: the same symmetric block in each row's diagonal block
    K_T = (B_T * (1.0 / m_T)[:, :, None]).swapaxes(1, 2) @ B_T
    Kblocks = _local_blocks(np.kron(np.eye(2), K_T), np.zeros_like(C_T))
    return BlockSystem(
        Eop=Eop, Bmat=B, Mdiag=Mdiag, Kblocks=Kblocks,
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
    return pts, _scatter(weights[:, None], spaces.stress_map[tris][..., None], samples[:, :, None],
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
