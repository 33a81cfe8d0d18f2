"""Brute-force dense reimplementations used as assembly/stepping oracles.

Everything here is written as plain per-element loops with its own
quadrature degree and its own compliance formula, independent of the
vectorized production kernels.  The exception is the bare-(E, G) step
kernels at the end: they run the solver's own update per tableau, with an
LU of the full step matrix, so that the scalar checks test that code.
The edge numbering, mesh refinement, triangle areas and the energy of a
state are reference formulas that only the tests use.  So are the canonical
stress interpolant, the rotation projection, the row-wise stress divergence,
the compliance saddle solve, the weakly symmetric elliptic projection of
the paper's error analysis, the RadauIIA displacement update, and the
error decomposition that the criterion-4 diagnosis runs: no command of the
package needs them.  The scatter-sum references of the matrices on the range
of x (E_r's CSR, the stress mass and S_r(s)) sum every local entry with
scipy's COO-to-CSR conversion and add K_r with np.add.at, so that the
package's gathers through its source maps are checked bit for bit; so is
the condensed matrix the Schur complement LU factors, against a scatter of
its top level's class blocks, and its values against a dense condensation.  The
manufactured cases have a symbolic reference here too: sympy differentiates
a displacement, splits the loads into time-space terms and lambdifies every
field, so that the closed forms of the built-in cases are checked against an
independent derivation.
"""

import functools
from dataclasses import replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla
import sympy as sp

from mixedelast import assembly, dynamics, statics
from mixedelast.assembly import (MaterialModel, SeparatedField, _local_blocks, _range_operator,
                                 _scatter, l2_pairing)
from mixedelast.dynamics import CN, integrate
from mixedelast.mesh import Mesh, _connect
from mixedelast.quadrature import edge_rule, triangle_rule
from mixedelast.polynomials import (edge_legendre_basis, eval_edge_polynomials,
                                    eval_monomials)
from mixedelast.spaces import _stress_functionals, _unit_normals, l2_project_velocity
from mixedelast.statics import build_initial_data, checked_solve
from mixedelast.verification import MmsCase, _build_system, l2_error


def _compliance(tau, mu, lam):
    sym = 0.5 * (tau + tau.T)
    skw = tau - sym
    return (sym - lam / (2 * mu + 2 * lam) * np.trace(tau) * np.eye(2)) / (2 * mu) + skw


def isotropic_stiffness_apply(tau, material):
    """C tau = 2 mu sym(tau) + lambda tr(tau) I + skw(tau) for one 2x2 tensor:
    the inverse of the compliance, extended to skew parts by the identity."""
    sym = 0.5 * (tau + tau.T)
    return (2 * material.mu * sym + material.lambda_ * np.trace(tau) * np.eye(2)
            + (tau - sym))


def reference_connect(vertices, triangles):
    """`mesh._connect` as a per-triangle dictionary loop: each edge is numbered
    at its first appearance, local edge l joining local vertices l and l + 1."""
    edge_index, edge_list = {}, []
    tri_edges = np.empty_like(triangles)
    signs = np.empty_like(triangles)
    edge_count = np.zeros(3 * len(triangles), dtype=int)
    for t, tri in enumerate(triangles):
        for loc in range(3):
            a, b = int(tri[loc]), int(tri[(loc + 1) % 3])
            key = (min(a, b), max(a, b))
            e = edge_index.get(key)
            if e is None:
                e = len(edge_list)
                edge_index[key] = e
                edge_list.append(key)
            tri_edges[t, loc] = e
            signs[t, loc] = 1 if a < b else -1
            edge_count[e] += 1
    return Mesh(vertices=vertices, triangles=triangles, edges=np.array(edge_list, dtype=int),
                triangle_edges=tri_edges, edge_signs=signs,
                boundary_edges=np.flatnonzero(edge_count[:len(edge_list)] == 1))


def refine(mesh):
    """Regular 1 -> 4 refinement through edge midpoints.

    Children of a counterclockwise parent are counterclockwise.
    """
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    tris = []
    for t, (v0, v1, v2) in enumerate(mesh.triangles):
        m01 = nv + mesh.triangle_edges[t, 0]
        m12 = nv + mesh.triangle_edges[t, 1]
        m20 = nv + mesh.triangle_edges[t, 2]
        tris.extend([(v0, m01, m20), (m01, v1, m12), (m20, m12, v2), (m01, m12, m20)])
    return _connect(vertices, np.array(tris, dtype=int))


def triangle_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def rotation_mask(spaces):
    """True at the rotation entries of the range of x."""
    mask = np.zeros(spaces.dim_x, dtype=bool)
    mask[spaces.rotation_map] = True
    return mask


def stress_part(spaces, x):
    """x with its rotation entries set to zero."""
    return np.where(rotation_mask(spaces), 0.0, x)


def scatter_range_matrix(spaces, op):
    """The CSR of a RangeOperator by one `_scatter` of its local entries: every
    pair of a triangle's unknowns but one of two rotations, summed where
    triangles share it."""
    stress = np.arange(op.blocks.shape[1]) < spaces.stress_map[0].size
    i, j = np.nonzero(stress[:, None] | stress)
    return _scatter(np.repeat(op.blocks[:, i, j], np.diff(op.bounds), axis=0),
                    np.take(op.table, i, axis=1), np.take(op.table, j, axis=1),
                    (spaces.dim_x, spaces.dim_x))


def stress_mass(spaces):
    """The L2 stress mass (phi_j, phi_i) on E_r's pattern by scatter-sum; its
    blocks that couple different tensor rows, and the entries of C and C^T,
    are stored exact zeros."""
    W, V, _, _ = assembly._class_tables(spaces)
    T = assembly._compliance(W, V, 0.5, 0.0)
    blocks = _local_blocks(T, np.zeros((len(T), spaces.n_scalar, T.shape[1])))
    return scatter_range_matrix(spaces, _range_operator(spaces, blocks))


def scatter_schur_complement(system, blocks, s2):
    """S_r = E_r(T) + s2 K_r of E_r(T)'s local blocks by scatter-sum: E_r(T)
    scattered on its own, K_r scattered from its row blocks over the stress
    pairs of one tensor row, and K_r's values added with np.add.at at their
    positions in E_r(T)'s pattern, which hold them in the same order."""
    spaces = system.spaces
    E = scatter_range_matrix(spaces, replace(system.Eop, blocks=blocks))
    stress = spaces.stress_map
    nd = stress.shape[2]
    K = _scatter(system.Kblocks[:, :nd, :nd][spaces.tri_class, None], stress[..., None],
                 stress[:, :, None], E.shape)
    row = np.full(spaces.dim_x, 2)
    row[stress] = np.arange(2)[:, None]
    rows, cols = np.repeat(row, np.diff(E.indptr)), row[E.indices]
    Kpos = np.flatnonzero((rows == cols) & (cols < 2))
    assert len(Kpos) == K.nnz
    data = E.data.astype(np.result_type(E.data, s2))
    np.add.at(data, Kpos, s2 * K.data)
    return sps.csc_matrix((data, E.indices, E.indptr), shape=E.shape)


def dense_condensation(S, edge, extended=False):
    """The Schur complement S_EE - S_EL S_LL^-1 S_LE of a matrix S onto the
    unknowns ``edge``, every patch's local unknowns at once, X = S_LL^-1
    S_LE by one dense LU.  ``extended`` refines X by two steps whose
    residuals, and the complement, are formed in long double, so that it is
    exact to a few ulps even where S_LL is ill-conditioned (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 12); those
    products run without BLAS, seconds for a few thousand unknowns."""
    S = S.toarray() if sps.issparse(S) else S
    loc = np.setdiff1d(np.arange(len(S)), edge)
    if not len(loc):
        return S[np.ix_(edge, edge)]
    S_LL, S_LE = S[np.ix_(loc, loc)], S[np.ix_(loc, edge)]
    lu = sla.lu_factor(S_LL)
    X = sla.lu_solve(lu, S_LE)
    if extended:
        wide = np.longdouble if np.isrealobj(S) else np.clongdouble
        X = X.astype(wide)
        for _ in range(2):
            X += sla.lu_solve(lu, (S_LE - S_LL.astype(wide) @ X).astype(S.dtype))
    return (S[np.ix_(edge, edge)] - S[np.ix_(edge, loc)] @ X).astype(S.dtype)


def scatter_complement(level, G):
    """The matrix of a level's complements G (class, nG, nG) by one `_scatter`
    over each patch's kept unknowns in their numbering 0..N-1, every pair of
    filled slots, so that the gather through the source maps of the top
    level's pattern is checked bit for bit."""
    front, n = level.front(), len(level.kept)
    values = np.repeat(G, np.diff(level.bounds), axis=0)
    rows, cols = np.broadcast_arrays(front[:, :, None], front[:, None, :])
    filled = (rows < n) & (cols < n)
    return _scatter(values[filled], rows[filled], cols[filled], (n, n))


def condensed_levels(op, K, s2):
    """Each level's complements (class, nG, nG) of S_r = op + s2 K_r, from
    `statics._condense` level by level."""
    G, _ = statics._condense(op.levels[0], op.blocks + s2 * K, "test")
    out = [G]
    for level in op.levels[1:]:
        G, _ = statics._condense(level, level.blocks(G), "test")
        out.append(G)
    return out


def full_schur_solve(system, lu, s, rhs):
    """A solve with S(s) on (x, velocity) through ``lu``, a sparse LU of the
    whole scatter-summed S_r(s) = E_r(T) + s^2 K_r, its velocity eliminated
    with the reciprocals of M's diagonal."""
    n, B, minv = system.spaces.dim_x, system.Bmat, 1.0 / system.Mdiag
    w = minv * rhs[n:]
    x_r = lu.solve(rhs[:n] - s * (B.T @ w))
    return np.concatenate([x_r, w + s * (minv * (B @ x_r))])


def energy(system, state):
    """Discrete energy 1/2 (A sigma, sigma) + 1/2 (rho v, v) of a state."""
    return 0.5 * float(state.x @ (system.Amat @ state.x) + state.beta @ (system.Mmat @ state.beta))


def _scalar_basis_at(spaces, x, y):
    """The orthonormal P_{k-1} basis at one reference point (x, y)."""
    mv = eval_monomials(spaces.scalar_exps, np.array(x), np.array(y))
    return np.tensordot(spaces.scalar_coef, mv, axes=(1, 0))


def stress_values_at(spaces, tri, pts, x):
    """Stress field of coefficients x, evaluated with triangle tri's
    polynomial at physical points pts (n, 2); shape (2 rows, 2 comps, n)."""
    nm = len(spaces.stress_exps)
    xi = (pts - spaces.centers[tri]) / spaces.scales[tri]
    mv = eval_monomials(spaces.stress_exps, xi[:, 0], xi[:, 1])
    local = x[spaces.stress_map[tri]]
    coef = spaces.stress_coef[spaces.tri_class[tri]]
    vx = local @ (coef[:, :nm] @ mv)
    vy = local @ (coef[:, nm:] @ mv)
    return np.stack([vx, vy], axis=1)


def _row_basis_at_point(spaces, t, x, y):
    """Values of all local row-basis functions at one point, shape (nd, 2)."""
    nd = spaces.stress_map.shape[2]
    out = np.empty((nd, 2))
    nm = len(spaces.stress_exps)
    xi = (np.array([x, y]) - spaces.centers[t]) / spaces.scales[t]
    mono = np.array([xi[0] ** a * xi[1] ** b for a, b in spaces.stress_exps])
    coef = spaces.stress_coef[spaces.tri_class[t]]
    out[:, 0] = coef[:, :nm] @ mono
    out[:, 1] = coef[:, nm:] @ mono
    return out


def _row_div_at_point(spaces, t, x, y, h=1e-20):
    """Divergence of each local row basis by complex-step differentiation."""
    nm = len(spaces.stress_exps)
    xi = (np.array([x, y]) - spaces.centers[t]) / spaces.scales[t]
    step = 1j * h

    def mono(z0, z1):
        return np.array([z0 ** a * z1 ** b for a, b in spaces.stress_exps])

    coef = spaces.stress_coef[spaces.tri_class[t]]
    dx = (coef[:, :nm] @ mono(xi[0] + step / spaces.scales[t], xi[1])).imag / h
    dy = (coef[:, nm:] @ mono(xi[0], xi[1] + step / spaces.scales[t])).imag / h
    return dx + dy


def dense_assemble(spaces, material, degree=None):
    """Per-element looped assembly of the four block matrices, A, B and C on
    the range of x."""
    mesh = spaces.mesh
    k = spaces.k
    if degree is None:
        degree = 2 * k + 4
    rule = triangle_rule(degree)
    nd = spaces.stress_map.shape[2]
    m = spaces.n_scalar
    dim_x, dim_v = spaces.dim_x, spaces.dim_velocity
    A = np.zeros((dim_x, dim_x))
    B = np.zeros((dim_v, dim_x))
    C = np.zeros((dim_x, dim_x))
    M = np.zeros((dim_v, dim_v))

    for t in range(mesh.num_triangles):
        verts = spaces.tri_verts[t]
        det = spaces.dets[t]
        for q, bary in enumerate(rule.points):
            xq, yq = bary @ verts
            w = det * rule.weights[q]
            vals = _row_basis_at_point(spaces, t, xq, yq)  # (nd, 2)
            divs = _row_div_at_point(spaces, t, xq, yq)
            psi = _scalar_basis_at(spaces, bary[1], bary[2])

            for r in range(2):
                for b in range(nd):
                    gj = spaces.stress_map[t, r, b]
                    tau = np.zeros((2, 2))
                    tau[r] = vals[b]
                    atau = _compliance(tau, material.mu, material.lambda_)
                    for s in range(2):
                        for a in range(nd):
                            gi = spaces.stress_map[t, s, a]
                            phi = np.zeros((2, 2))
                            phi[s] = vals[a]
                            A[gi, gj] += w * np.tensordot(atau, phi)
                    for i in range(m):
                        gv = t * 2 * m + r * m + i
                        B[gv, gj] += w * psi[i] * divs[b]
                        gr = spaces.rotation_map[t, i]
                        C[gr, gj] += w * psi[i] * (tau[0, 1] - tau[1, 0])
            for i in range(m):
                for j in range(m):
                    val = w * material.rho * psi[i] * psi[j]
                    M[t * 2 * m + i, t * 2 * m + j] += val
                    M[t * 2 * m + m + i, t * 2 * m + m + j] += val
    return A, B, C, M


def dense_body_load(spaces, f, t_time, degree=None):
    mesh = spaces.mesh
    if degree is None:
        degree = 2 * spaces.k + 6
    rule = triangle_rule(degree)
    m = spaces.n_scalar
    out = np.zeros(spaces.dim_velocity)
    for t in range(mesh.num_triangles):
        verts = spaces.tri_verts[t]
        det = spaces.dets[t]
        for q, bary in enumerate(rule.points):
            xq, yq = bary @ verts
            w = det * rule.weights[q]
            fv = np.asarray(f(t_time, np.array(xq), np.array(yq)), dtype=float).reshape(2)
            psi = _scalar_basis_at(spaces, bary[1], bary[2])
            for c in range(2):
                for i in range(m):
                    out[t * 2 * m + c * m + i] += w * fv[c] * psi[i]
    return out


def dense_dirichlet_load(spaces, g, t_time, degree=None):
    """Edge-quadrature oracle using the dual property of the edge DOFs.

    The basis function of edge moment (e, i, row r) has normal trace equal to
    the i-th orthonormal Legendre polynomial in the global edge parameter, so
    the load entry is length * sign * int_0^1 g_r(p(s)) q_i(s) ds.
    """
    mesh = spaces.mesh
    k = spaces.k
    if degree is None:
        degree = 2 * k + 6
    rule = edge_rule(degree)
    leg = eval_edge_polynomials(edge_legendre_basis(k), rule.points)
    inc = mesh.edge_triangles()
    out = np.zeros(spaces.dim_x)
    for e in mesh.boundary_edges:
        t = inc[e, 0]
        loc = list(mesh.triangle_edges[t]).index(e)
        sign = mesh.edge_signs[t, loc]
        a, b = mesh.vertices[mesh.edges[e]]
        length = np.linalg.norm(b - a)
        for q, s in enumerate(rule.points):
            pt = a + s * (b - a)
            gv = np.asarray(g(t_time, np.array(pt[0]), np.array(pt[1])), dtype=float).reshape(2)
            for r in range(2):
                for i in range(k + 1):
                    gi = spaces.stress_map[t, r, loc * (k + 1) + i]
                    out[gi] += length * sign * rule.weights[q] * gv[r] * leg[i, q]
    return out


def dense_system_blocks(system):
    """Dense E and G of the block ODE in y = (x, v)."""
    A, B, C, M = (op.toarray() for op in (system.Amat, system.Bmat, system.Cmat, system.Mmat))
    n = A.shape[0]
    E = np.zeros((n + M.shape[0],) * 2)
    G = np.zeros_like(E)
    E[:n, :n] = A + C + C.T
    E[n:, n:] = M
    G[:n, n:] = -B.T
    G[n:, :n] = B
    return E, G


def dense_cn_trajectory(system, y0, dt, n_steps, loads=None):
    E, G = dense_system_blocks(system)
    lhs = E - 0.5 * dt * G
    rhs_op = E + 0.5 * dt * G
    y = y0.copy()
    out = [y.copy()]
    for i in range(n_steps):
        f = np.zeros(len(y)) if loads is None else loads(i * dt + dt / 2)
        y = np.linalg.solve(lhs, rhs_op @ y + dt * f)
        out.append(y.copy())
    return np.array(out)


def dense_radau_trajectory(system, y0, dt, n_steps, loads=None):
    E, G = dense_system_blocks(system)
    a = np.array([[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]])
    b = np.array([3.0 / 4.0, 1.0 / 4.0])
    n = len(y0)
    S = np.zeros((2 * n, 2 * n))
    S[:n, :n] = E - dt * a[0, 0] * G
    S[:n, n:] = -dt * a[0, 1] * G
    S[n:, :n] = -dt * a[1, 0] * G
    S[n:, n:] = E - dt * a[1, 1] * G
    y = y0.copy()
    out = [y.copy()]
    for i in range(n_steps):
        t = i * dt
        f1 = np.zeros(n) if loads is None else loads(t + dt / 3)
        f2 = np.zeros(n) if loads is None else loads(t + dt)
        gy = G @ y
        kk = np.linalg.solve(S, np.concatenate([gy + f1, gy + f2]))
        y = y + dt * (b[0] * kk[:n] + b[1] * kk[n:])
        out.append(y.copy())
    return np.array(out)


def step_matrix(E, G, scheme, dt):
    """The matrix E - dt c G a step of the scheme solves with: c = 1/2 for
    Crank-Nicolson, and for RadauIIA the complex eigenvalue of RADAU2_A with
    positive imaginary part, 1/3 + i sqrt(2)/6."""
    return E - (dt * dynamics._SHIFT[scheme]) * G


def _unreduced_solver(E, G, scheme, dt):
    """Checked solve with an LU of the full step matrix of a bare (E, G)
    pair, which carries no block structure to eliminate, in SuperLU's own
    order."""
    S = sps.csc_matrix(step_matrix(E, G, scheme, dt))
    return lambda rhs: checked_solve(spla.splu(S).solve, S.__matmul__, rhs, "step")


def cn_kernel(E, G, y, dt, f_mid):
    """One Crank-Nicolson update (E - dt/2 G) y1 = (E + dt/2 G) y + dt f_mid
    of a bare (E, G) pair."""
    return dynamics._cn_update(y, E @ y, dt, f_mid, _unreduced_solver(E, G, dynamics.CN, dt))


def radau2_kernel(E, G, y, dt, f1, f2):
    """One 2-stage RadauIIA update of a bare (E, G) pair with stage loads f1,
    f2; returns (y1, first stage derivative K1)."""
    return dynamics._radau2_update(y, E @ y, dt, f1, f2,
                                   _unreduced_solver(E, G, dynamics.RADAU2_NAME, dt))


# -- reference operators and the error decomposition ---------------------------


def canonical_interpolation(spaces, sigma, degree=12):
    """Coefficients x of the canonical stress interpolant of a matrix field;
    its rotation entries are zero.

    ``sigma(x, y)`` must return (2, 2) + broadcast shape and be continuous on
    each closed triangle.  The interpolant commutes with the divergence:
    div of the result is the V_h projection of div sigma.  It applies the
    package's own stress DOF functionals.
    """
    mesh = spaces.mesh
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]

    def rows_of_sigma(pts):
        return np.swapaxes(np.asarray(sigma(pts[..., 0], pts[..., 1]), dtype=float), 0, 1)

    edge, interior = _stress_functionals(spaces.k, degree, (a, b, _unit_normals(a, b)),
                                         spaces.tri_verts, rows_of_sigma)
    # an edge's DOF positions, read from its first triangle, (2, E, k+1)
    k, tri = spaces.k, mesh.edge_triangles()[:, 0]
    loc = np.argmax(mesh.triangle_edges[tri] == np.arange(mesh.num_edges)[:, None], axis=1)
    local = loc[:, None] * (k + 1) + np.arange(k + 1)
    x = np.zeros(spaces.dim_x)
    x[np.moveaxis(spaces.stress_map[tri[:, None], :, local], 2, 0)] = edge
    x[np.moveaxis(spaces.stress_map[:, :, 3 * (k + 1):], 1, 0)] = interior
    return x


def stress_div_values(spaces, x, rule):
    """Row-wise divergence of the stress of a coefficient vector x, shape (T, 2, nq)."""
    return np.einsum("trb,tbq->trq", x[spaces.stress_map],
                     spaces.stress_row_div_values(rule)[spaces.tri_class])


def l2_project_rotation(spaces, q, degree=None):
    """Elementwise L2 projection of a scalar rotation field onto K_h, as the
    rotation entries of an x whose stress entries are zero: the moments that
    project a velocity, taken of a scalar field."""
    x = np.zeros(spaces.dim_x)
    x[spaces.rotation_map.ravel()] = l2_project_velocity(spaces, q, degree)
    return x


def solve_elastostatics(system, rhs_x, rhs_v):
    """The compliance saddle solve of the initial data; returns (x, u)."""
    return statics._solve_saddle(system, rhs_x, rhs_v)


def elliptic_projection(system, sigma, div_sigma):
    """Weakly symmetric elliptic projection of an exact stress field, the
    projection of the paper's error analysis.

    Solves the saddle system with the plain L2 stress pairing and data
    ((sigma, tau), (div sigma, w), (sigma, q)); div_sigma must be supplied
    analytically; the data are integrated with the degree-12 rule.  The
    result, an x with zero rotation entries, preserves the divergence
    moments and the skew moments of sigma.  The solve runs on the system of
    the pairing, which is the compliance of mu = 1/2 (lambda enters only
    E_r, which the pairing replaces), so its saddle shift is mu = 1/2's.
    """
    spaces = system.spaces
    rule = triangle_rule(12)
    X = spaces.physical_points(rule)
    W = spaces.quad_weights(rule)
    vals = np.asarray(sigma(X[..., 0], X[..., 1]), dtype=float)  # (2, 2, T, nq)
    V = spaces.stress_row_values(rule)[spaces.tri_class]
    loc = np.einsum("tq,tbdq,rdtq->trb", W, V, vals)
    rhs_x = np.bincount(spaces.stress_map.ravel(), loc.ravel(), spaces.dim_x)
    rhs_x[spaces.rotation_map.ravel()] = spaces.scalar_moments(W, rule, vals[0, 1] - vals[1, 0])
    rhs_v = spaces.scalar_moments(W, rule, np.asarray(div_sigma(X[..., 0], X[..., 1]),
                                                      dtype=float))
    pairing = replace(system, Eop=l2_pairing(system), material=replace(system.material, mu=0.5))
    x, _ = statics._solve_saddle(pairing, rhs_x, rhs_v)
    x[spaces.rotation_map] = 0.0  # the multiplier
    return x


def reconstruct_displacement_third_order(u, v, vdot, dt):
    """The RadauIIA displacement update u + dt v + dt^2/2 vdot(t + dt/3)."""
    return u + dt * v + 0.5 * dt * dt * vdot


def coefficient_l2(spaces, diff, fieldkind):
    """L2 norm of a V_h coefficient difference, or of the rotation of an x
    difference, via the diagonal Gram."""
    areas = spaces.areas
    if fieldkind == "velocity":
        c2 = diff[spaces.velocity_map].reshape(len(areas), -1) ** 2
        return float(np.sqrt((areas * c2.sum(axis=1)).sum()))
    c2 = diff[spaces.rotation_map] ** 2
    return float(np.sqrt(2.0 * (areas * c2.sum(axis=1)).sum()))


def error_decomposition_diagnostic(case, k, n, t):
    """Split each field error at time t into projection and approximation parts.

    The stress splits against the weakly symmetric elliptic projection, the
    velocity against P_h, the rotation against P'_h.  t must be a positive
    multiple of 1/n, the CN step; `integrate` checks it.  Returns
    {field: (projection_error, approximation_error)}.
    """
    system = _build_system(case.material, k, n, case.f, case.g)
    spaces = system.spaces
    st = integrate(system, build_initial_data(case, system), CN, 1.0 / n, t).final_state

    proj_sigma = elliptic_projection(system, lambda x, y: case.sigma(t, x, y),
                                     lambda x, y: case.div_sigma(t, x, y))
    ph_v = l2_project_velocity(spaces, lambda x, y: case.v(t, x, y), degree=12)
    ph_r = l2_project_rotation(spaces, lambda x, y: case.rotation(t, x, y), degree=12)

    e_sigma_p = l2_error(spaces, proj_sigma, case.sigma, t, "stress")
    e_v_p = l2_error(spaces, ph_v, case.v, t, "velocity")
    e_r_p = l2_error(spaces, ph_r, case.rotation, t, "rotation")

    d = proj_sigma - st.x
    e_sigma_h = float(np.sqrt(d @ (stress_mass(spaces) @ d)))
    e_v_h = coefficient_l2(spaces, ph_v - st.beta, "velocity")
    e_r_h = coefficient_l2(spaces, ph_r - st.x, "rotation")

    return {
        "sigma": (e_sigma_p, e_sigma_h),
        "v": (e_v_p, e_v_h),
        "r": (e_r_p, e_r_h),
    }


# -- symbolic reference of the manufactured cases ------------------------------


def _lambdify(exprs, args):
    """Vectorized callable of a scalar or an (n,) or (n, m) nested list of
    expressions: (t, x, y) -> exprs' shape + the broadcast shape of x."""
    exprs = np.array(exprs, dtype=object)
    fn = sp.lambdify(args, list(exprs.flat), modules="numpy")

    def call(t, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.empty((exprs.size,) + x.shape)
        for i, value in enumerate(fn(t, x, y)):
            out[i] = np.broadcast_to(value, x.shape)
        return out.reshape(exprs.shape + x.shape)

    return call


def _separate(exprs, t, space):
    """Split a vector of expressions into terms phi_i(t) psi_i(space).

    Each component is expanded and its terms are grouped by their t-dependent
    factor.  Returns [(phi_i, psi_i)] with psi_i a list of one expression per
    component, or None when a factor of some term mixes t with the space
    symbols (sin(x t), say).
    """
    groups: dict = {}
    for c, e in enumerate(exprs):
        for term in sp.Add.make_args(sp.expand(e)):
            psi, phi = term.as_independent(t, as_Add=False)
            if phi.has(*space):
                return None
            groups.setdefault(phi, [sp.S.Zero] * len(exprs))[c] += psi
    return list(groups.items())


def _load_field(exprs, args):
    """Callable of a vector field of (t, x, y); a SeparatedField when its
    terms separate, so that assemble can precompute their loads."""
    fn = _lambdify(exprs, args)
    t, *space = args
    terms = _separate(exprs, t, space)
    if terms is None:
        return fn
    phi = sp.lambdify(t, [phi for phi, _ in terms], modules="numpy")
    psi = _lambdify([psi for _, psi in terms], args)
    return SeparatedField(fn, phi, functools.partial(psi, 0.0))


def case_from_displacement(name, u_exprs, material: MaterialModel, homogeneous: bool,
                           T0=1.0, rebuild=None) -> MmsCase:
    """Derive all fields of a case from a symbolic displacement pair."""
    t, x, y = sp.symbols("t x y", real=True)
    u = sp.Matrix(u_exprs)
    grad_u = sp.Matrix([[sp.diff(u[0], x), sp.diff(u[0], y)],
                        [sp.diff(u[1], x), sp.diff(u[1], y)]])
    eps = (grad_u + grad_u.T) / 2
    mu, lam = sp.nsimplify(material.mu), sp.nsimplify(material.lambda_)
    sigma = 2 * mu * eps + lam * sp.trace(eps) * sp.eye(2)
    rot = (grad_u[0, 1] - grad_u[1, 0]) / 2
    v = u.diff(t)
    div_sigma = sp.Matrix([sp.diff(sigma[0, 0], x) + sp.diff(sigma[0, 1], y),
                           sp.diff(sigma[1, 0], x) + sp.diff(sigma[1, 1], y)])
    f = sp.nsimplify(material.rho) * u.diff(t, 2) - div_sigma

    args = (t, x, y)
    return MmsCase(
        name=name,
        material=material,
        u=_lambdify(list(u), args),
        v=(_lambdify if homogeneous else _load_field)(list(v), args),
        sigma=_lambdify(sigma.tolist(), args),
        rotation=_lambdify(rot, args),
        f=_load_field(list(f), args),
        div_sigma=_lambdify(list(div_sigma), args),
        homogeneous=homogeneous,
        T0=T0,
        rebuild=rebuild,
    )


def builtin_displacement(name, alpha=None):
    """The symbolic displacement of a built-in case."""
    t, x, y = sp.symbols("t x y", real=True)
    if name in ("eg1", "eg3"):
        return [sp.sin(sp.pi * x) * sp.sin(sp.pi * y) * sp.sin(t),
                x * (1 - x) * y * (1 - y) * sp.sin(t)]
    if name == "eg2":
        return [(1 + t**2) * x**alpha * y**2, (1 + sp.cos(t)) * x**2 * y**alpha]
    psi = (sp.sin(sp.pi * x) * sp.sin(sp.pi * y))**2 * sp.sin(t)
    return [sp.diff(psi, y), -sp.diff(psi, x)]


def sympy_builtin_case(name, alpha=None, mu=1.0, lam=1.0, rho=1.0) -> MmsCase:
    """A built-in case derived symbolically, as a reference for the closed forms."""
    return case_from_displacement(name, builtin_displacement(name, alpha),
                                  MaterialModel(mu=mu, lambda_=lam, rho=rho),
                                  homogeneous=name != "eg2")
