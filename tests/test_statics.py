import dataclasses

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
import sympy

from mixedelast import (MaterialModel, SingularSystemError, assemble,
                        assemble_body_load, assemble_dirichlet_load,
                        build_initial_data, build_spaces,
                        build_uniform_square_mesh, builtin_case, infsup_constant,
                        integrate, l2_error, l2_project_velocity)
from mixedelast import assembly, statics
from mixedelast.assembly import RangeOperator, l2_pairing
from mixedelast.quadrature import triangle_rule

from conftest import _reachable, make_matrix_field, pattern_arrays
from test_mesh import _jittered
from _oracles import (canonical_interpolation, case_from_displacement, condensed_levels,
                      dense_condensation, elliptic_projection, full_schur_solve,
                      kept, scatter_complement, scatter_range_matrix, scatter_schur_complement,
                      solve_elastostatics, stress_div_values, stress_mass, stress_part)


def _static_case(mu=1.0, lam=1.0):
    """Stationary manufactured solution via the time-dependent pipeline at t=0."""
    t, x, y = sympy.symbols("t x y", real=True)
    u = [sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y) * (1 + 0 * t),
         x * (1 - x) * y * (1 - y) * (1 + 0 * t)]
    return case_from_displacement("static", u, MaterialModel(mu=mu, lambda_=lam),
                                  homogeneous=True)


def _wrap_coefficient_stress(spaces, alpha, degree=12):
    """Evaluators for a coefficient stress field usable by elliptic_projection."""
    rule = triangle_rule(degree)
    vals = np.moveaxis(spaces.stress_values(alpha, rule), (1, 2), (0, 1))
    dvals = np.moveaxis(stress_div_values(spaces, alpha, rule), 1, 0)
    shape = spaces.physical_points(rule)[..., 0].shape

    def sigma(xx, yy):
        assert np.shape(xx) == shape
        return vals

    def div_sigma(xx, yy):
        assert np.shape(xx) == shape
        return dvals

    return sigma, div_sigma


def test_zero_rhs_gives_zero(spaces_cache, unit_material):
    system = assemble(spaces_cache(2, 1), unit_material)
    spaces = system.spaces
    sol = solve_elastostatics(system, np.zeros(spaces.dim_x), np.zeros(spaces.dim_velocity))
    assert all(np.abs(part).max() <= 1e-12 for part in sol)


def test_constant_load_matches_dense_solve(mesh_cache, spaces_cache, unit_material):
    mesh, spaces = mesh_cache(1), spaces_cache(1, 1)
    system = assemble(spaces, unit_material)
    f = lambda t, x, y: np.stack([np.ones(np.shape(x)), 2.0 * np.ones(np.shape(x))])
    rhs_v = -assemble_body_load(spaces, f, 0.0)
    rhs_x = np.zeros(spaces.dim_x)
    sol = solve_elastostatics(system, rhs_x, rhs_v)

    A, B, C = (op.toarray() for op in (system.Amat, system.Bmat, system.Cmat))
    S = np.block([
        [A + C + C.T, B.T],
        [B, np.zeros((4, 4))],
    ])
    x = np.linalg.solve(S, np.concatenate([rhs_x, rhs_v]))
    assert np.abs(np.concatenate(sol) - x).max() <= 1e-10


def test_static_mms_convergence(mesh_cache):
    case = _static_case()
    k = 2
    errs_sigma, errs_u, errs_r = [], [], []
    for n in (2, 4, 8):
        mesh = mesh_cache(n)
        spaces = build_spaces(mesh, k)
        system = assemble(spaces, case.material)
        # -(div sigma_h, w) = (f, w) with f = -div sigma
        rhs_v = assemble_body_load(spaces, case.div_sigma, 0.0)
        x, u = solve_elastostatics(system, np.zeros(spaces.dim_x), rhs_v)
        errs_sigma.append(l2_error(spaces, x, case.sigma, 0.0, "stress"))
        errs_u.append(l2_error(spaces, u, case.u, 0.0, "velocity"))
        errs_r.append(l2_error(spaces, x, case.rotation, 0.0, "rotation"))
    for errs in (errs_sigma, errs_u, errs_r):
        assert np.log2(errs[-2] / errs[-1]) >= k - 0.25


def test_singular_pairing_detected(spaces_cache, unit_material):
    system = assemble(spaces_cache(1, 1), unit_material)
    n = system.spaces.dim_x
    broken = dataclasses.replace(system, Bmat=sps.csr_matrix(system.Bmat.shape),
                                 Kblocks=np.zeros_like(system.Kblocks))
    with pytest.raises(SingularSystemError):
        solve_elastostatics(broken, np.zeros(system.spaces.dim_x),
                            np.ones(system.spaces.dim_velocity))


def test_elliptic_projection_reproduces_mh(spaces_cache, unit_material):
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, unit_material)
    rng = np.random.default_rng(11)
    alpha = stress_part(spaces, rng.standard_normal(spaces.dim_x))
    sigma, div_sigma = _wrap_coefficient_stress(spaces, alpha)
    proj = elliptic_projection(system, sigma, div_sigma)
    assert np.abs(proj - alpha).max() <= 1e-10 * max(1.0, np.abs(alpha).max())


def test_elliptic_projection_idempotent(spaces_cache, unit_material):
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, unit_material)
    sigma, div_sigma = make_matrix_field(np.random.default_rng(5))
    once = elliptic_projection(system, sigma, div_sigma)
    sig2, div2 = _wrap_coefficient_stress(spaces, once)
    twice = elliptic_projection(system, sig2, div2)
    assert np.abs(twice - once).max() <= 1e-12 * max(1.0, np.abs(once).max())


@pytest.mark.parametrize("seed", range(4))
def test_elliptic_projection_lemma_identities(mesh_cache, unit_material, seed):
    # div ProjTilde sigma = P_h div sigma and skew moments preserved
    mesh = build_uniform_square_mesh(3)
    spaces = build_spaces(mesh, 2)
    system = assemble(spaces, unit_material)
    sigma, div_sigma = make_matrix_field(np.random.default_rng(100 + seed))
    proj = elliptic_projection(system, sigma, div_sigma)

    rule = triangle_rule(12)
    W = spaces.quad_weights(rule)
    dv = stress_div_values(spaces, proj, rule)
    ph = l2_project_velocity(spaces, div_sigma, degree=12)
    pv = spaces.velocity_values(ph, rule)
    assert np.sqrt((W[:, None, :] * (dv - pv) ** 2).sum()) <= 1e-10

    X = spaces.physical_points(rule)
    vals = sigma(X[..., 0], X[..., 1])
    skew_exact = vals[0, 1] - vals[1, 0]
    hv = spaces.stress_values(proj, rule)
    skew_h = hv[:, 0, 1, :] - hv[:, 1, 0, :]
    psi = spaces.scalar_values(rule)
    moments = np.einsum("tq,iq,tq->ti", W, psi, skew_exact - skew_h)
    assert np.abs(moments).max() <= 1e-10


def test_elliptic_projection_quasi_optimal(mesh_cache, unit_material):
    # || sigma - ProjTilde sigma || <= c || sigma - Pi sigma || with c <= 10
    sigma, div_sigma = make_matrix_field(np.random.default_rng(21))
    for n in (2, 4, 8):
        mesh = build_uniform_square_mesh(n)
        spaces = build_spaces(mesh, 2)
        system = assemble(spaces, unit_material)
        proj = elliptic_projection(system, sigma, div_sigma)
        interp = canonical_interpolation(spaces, sigma)
        wrap = lambda t, x, y: sigma(x, y)
        e_proj = l2_error(spaces, proj, wrap, 0.0, "stress")
        e_interp = l2_error(spaces, interp, wrap, 0.0, "stress")
        assert e_proj <= 10.0 * e_interp


def test_elliptic_projection_div_stability(mesh_cache, unit_material):
    # || ProjTilde sigma ||_div <= c || sigma ||_div with c <= 10
    sigma, div_sigma = make_matrix_field(np.random.default_rng(33))
    mesh = build_uniform_square_mesh(4)
    spaces = build_spaces(mesh, 2)
    system = assemble(spaces, unit_material)
    proj = elliptic_projection(system, sigma, div_sigma)
    rule = triangle_rule(12)
    W = spaces.quad_weights(rule)
    X = spaces.physical_points(rule)
    exact_sq = (np.asarray(sigma(X[..., 0], X[..., 1])) ** 2).sum(axis=(0, 1))
    exact_div_sq = (np.asarray(div_sigma(X[..., 0], X[..., 1])) ** 2).sum(axis=0)
    norm_exact = np.sqrt((W * (exact_sq + exact_div_sq)).sum())
    hv_sq = (spaces.stress_values(proj, rule) ** 2).sum(axis=(1, 2))
    hd_sq = (stress_div_values(spaces, proj, rule) ** 2).sum(axis=1)
    norm_proj = np.sqrt((W * (hv_sq + hd_sq)).sum())
    assert norm_proj <= 10.0 * norm_exact


def test_initial_data_eg1_zero_stress(spaces_cache, unit_material):
    # EG1 displacement vanishes at t = 0, so sigma0, r0, u0 are all zero and
    # v0 is the projection of the nonzero initial velocity
    case = builtin_case("eg1")
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, case.material)
    init = build_initial_data(case, system)
    assert np.abs(init.x0[spaces.stress_map]).max() <= 1e-12
    assert np.abs(init.x0[spaces.rotation_map]).max() <= 1e-12
    assert np.abs(init.u0).max() <= 1e-12
    assert np.abs(init.v0).max() > 0.1


def test_initial_data_eg2_weak_symmetry(spaces_cache):
    case = builtin_case("eg2", alpha=2.7)
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, case.material,
                      body_force=case.f, dirichlet_velocity=case.g)
    init = build_initial_data(case, system)
    sigma0 = stress_part(spaces, init.x0)
    assert np.abs(sigma0).max() > 0.1
    cnorm = np.linalg.norm(system.Cmat @ sigma0)
    assert cnorm <= 1e-12 * np.linalg.norm(sigma0)


def test_saddle_factorizations_not_kept(spaces_cache, unit_material):
    # the system is assembled once: its saddle solves, both schemes' steps
    # and the elliptic projection read its operators and change none, and
    # each LU is dropped after its solves; no array as long as E_r's stored
    # entries, a value or an index array of E_r, S_r or their LU, is left
    # reachable from the system
    case = builtin_case("eg2", alpha=2.7)
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, case.material,
                      body_force=case.f, dirichlet_velocity=case.g)

    def arrays(op):  # the arrays that hold an operator's values
        if isinstance(op, RangeOperator):
            return op.blocks, op.table, *pattern_arrays(op)
        return (op,) if isinstance(op, np.ndarray) else (op.indptr, op.indices, op.data)

    # A and C are formed from E_r's blocks on each read, so those hold them
    before = {name: getattr(system, name) for name in ("Eop", "Bmat", "Kblocks", "Mdiag")}
    saved = {name: [a.copy() for a in arrays(op)] for name, op in before.items()}
    init = build_initial_data(case, system)
    for scheme in ("cn", "radau2"):
        integrate(system, init, scheme, 0.5, 0.5)
    sigma, div_sigma = make_matrix_field(np.random.default_rng(2))
    elliptic_projection(system, sigma, div_sigma)
    for name, op in before.items():
        assert getattr(system, name) is op
        for got, ref in zip(arrays(op), saved[name]):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    held = _reachable(system)
    assert not any(isinstance(value, (statics.SchurLU, spla.SuperLU)) for value in held)
    nnz = system.Eop.tocsr().nnz  # E_r's stored entries
    assert not [a.shape for a in held if isinstance(a, np.ndarray) and a.size >= nnz]


@pytest.mark.parametrize("name,n,k", [("eg3", 4, 3), ("locking", 4, 2)])
def test_zero_initial_data_skip_saddle_lu(mesh_cache, monkeypatch, name, n, k):
    # u(0) = 0 makes every right-hand side exactly zero, so x0 = 0
    # without a factorization
    def no_factorization(S, what):
        raise AssertionError(f"{what} factorization")

    monkeypatch.setattr(statics, "factorize", no_factorization)
    case = builtin_case(name)
    spaces = build_spaces(mesh_cache(n), k)
    system = assemble(spaces, case.material, body_force=case.f)
    init = build_initial_data(case, system)
    assert init.x0.shape == (spaces.dim_x,)
    assert not init.x0[spaces.stress_map].any() and not init.x0[spaces.rotation_map].any()
    assert np.abs(init.v0).max() > 0.1


def test_nonzero_initial_data_factor_the_saddle(spaces_cache, monkeypatch):
    case = builtin_case("eg2", alpha=2.2)
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, case.material,
                      body_force=case.f, dirichlet_velocity=case.g)
    x, _ = solve_elastostatics(system, assemble_dirichlet_load(spaces, case.u, 0.0),
                               assemble_body_load(spaces, case.div_sigma, 0.0))
    calls = []
    factorize = statics.factorize
    monkeypatch.setattr(statics, "factorize", lambda S, what:
                        calls.append((what, S.shape)) or factorize(S, what))
    init = build_initial_data(case, system)
    # the LU keeps the stresses of the largest cells' boundary edges only, here
    # those of the domain's boundary: k + 1 moments per edge and tensor row
    n_e = 2 * 3 * len(spaces.mesh.boundary_edges)
    assert calls == [("saddle", (n_e, n_e))] and n_e == len(system.Eop.kept)
    assert n_e < spaces.dim_x
    assert np.array_equal(init.x0, x)


def test_initial_stress_convergence(mesh_cache):
    case = builtin_case("eg2", alpha=2.7)
    k = 2
    errs = []
    for n in (2, 4, 8):
        mesh = mesh_cache(n)
        spaces = build_spaces(mesh, k)
        system = assemble(spaces, case.material)
        init = build_initial_data(case, system)
        errs.append(l2_error(spaces, init.x0, case.sigma, 0.0, "stress"))
    assert np.log2(errs[-2] / errs[-1]) >= k - 0.4


@pytest.mark.parametrize("k", [1, 2])
def test_infsup_stable_under_refinement(mesh_cache, unit_material, k):
    betas = []
    for n in (1, 2, 4):
        mesh = mesh_cache(n)
        spaces = build_spaces(mesh, k)
        system = assemble(spaces, unit_material)
        betas.append(infsup_constant(system))
    assert all(b > 0.5 for b in betas)
    for prev, cur in zip(betas, betas[1:]):
        assert cur >= 0.9 * prev


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e160, 1e200])
def test_checked_solve_rejects_a_wrong_solve_at_any_scale(scale):
    # a solve that returns twice the solution is caught at every scale: above
    # about 1e154 the sum of squares overflows, and an infinite norm would
    # make the tolerance infinite too
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = scale * np.array([1.0, -2.0, 0.5])
    x = statics.checked_solve(lambda r: np.linalg.solve(A, r), A.dot, b, "probe")
    assert np.linalg.norm(A @ (x / scale) - b / scale) <= 1e-14
    with pytest.raises(SingularSystemError, match="^probe solve residual"):
        statics.checked_solve(lambda r: 2.0 * np.linalg.solve(A, r), A.dot, b, "probe")


def test_checked_solve_rejects_a_non_finite_solve():
    # an inf in the solution raises before the residual is formed
    with pytest.raises(SingularSystemError, match="^probe solve produced non-finite values$"):
        statics.checked_solve(lambda r: np.array([1.0, np.inf]),
                              lambda x: pytest.fail("applied"), np.ones(2), "probe")


@pytest.mark.parametrize("name,k", [("eg2", 2), ("eg3", 3)])
def test_complex_products_match_the_cast_product(mesh_cache, name, k):
    # a real operator meets a complex vector part by part (assembly._by_parts):
    # bit for bit, that is scipy's product, which casts a sparse operator to
    # complex, and for a bincount the complex np.add.at; E_r's element-by-
    # element product is the products of the two parts, as a complex matmul
    # of its blocks sums in another order at k = 3
    case = builtin_case(name, alpha=2.2 if name == "eg2" else None)
    system = assemble(build_spaces(mesh_cache(4), k), case.material)
    rng = np.random.default_rng(k)

    def vector(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def same(got, ref):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    for op in (system.Eop.tocsr(), system.Bmat, system.Bmat.T):
        x = vector(op.shape[1])
        same(assembly._by_parts(op.dot, x), op @ x)
    x = vector(system.spaces.dim_x)
    y = system.Eop @ x
    same(y.real, system.Eop @ x.real)
    same(y.imag, system.Eop @ x.imag)
    table = system.Eop.table.ravel()
    w, ref = vector(table.size), np.zeros(len(x), complex)
    np.add.at(ref, table, w)
    same(assembly._by_parts(lambda v: np.bincount(table, v, len(x)), w), ref)


def _dense_saddle_solve(system, T, b):
    B, C = system.Bmat.toarray(), system.Cmat.toarray()
    nV = B.shape[0]
    S = np.block([[T.toarray() + C + C.T, B.T],
                  [B, np.zeros((nV, nV))]])
    return np.linalg.solve(S, b)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_saddle_sweeps_match_dense_solve(mesh_cache, monkeypatch, k):
    # the augmented-Lagrangian sweeps solve the saddle system itself, for the
    # compliance (initial data) and for the stress mass (elliptic projection)
    case = builtin_case("eg2", alpha=2.2)
    spaces = build_spaces(mesh_cache(4), k)
    system = assemble(spaces, case.material)
    n = spaces.dim_x
    rng = np.random.default_rng(k)
    b = rng.standard_normal(n + spaces.dim_velocity)
    got = np.concatenate(solve_elastostatics(system, b[:n], b[n:]))
    ref = _dense_saddle_solve(system, system.Amat, b)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    seen = []
    solve_saddle = statics._solve_saddle
    monkeypatch.setattr(statics, "_solve_saddle", lambda *args: seen.append(args)
                        or solve_saddle(*args))
    sigma, div_sigma = make_matrix_field(rng)
    proj = elliptic_projection(system, sigma, div_sigma)
    *_, rhs_x, rhs_v = seen[0]
    assert np.abs(rhs_x[spaces.rotation_map]).max() > 1e-3
    ref = stress_part(spaces, _dense_saddle_solve(system, stress_mass(spaces),
                                                  np.concatenate([rhs_x, rhs_v]))[:n])
    assert np.linalg.norm(proj - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("lam", [1.0, 1e4])
@pytest.mark.parametrize("mu,rho", [(1.0, 1.0), (100.0, 1.0), (1.0, 100.0), (0.01, 1.0)])
def test_saddle_sweep_count_robust_in_material(spaces_cache, monkeypatch, lam, mu, rho):
    # tau = sqrt(rho / mu) keeps the penalty on the scale of A, so the
    # number of sweeps does not grow with the material's scales or with
    # near incompressibility
    system = assemble(spaces_cache(8, 2),
                      MaterialModel(mu=mu, lambda_=lam, rho=rho))
    solves = []
    solve = statics.SchurLU.solve
    monkeypatch.setattr(statics.SchurLU, "solve",
                        lambda lu, rhs: solves.append(1) or solve(lu, rhs))
    rng = np.random.default_rng(0)
    n = system.spaces.dim_x
    b = rng.standard_normal(n + system.spaces.dim_velocity)
    solve_elastostatics(system, b[:n], b[n:])
    assert 1 <= len(solves) <= 12


def test_saddle_lu_pivots_on_its_diagonal(spaces_cache, monkeypatch):
    case = builtin_case("eg2", alpha=2.2)
    spaces = spaces_cache(8, 2)
    system = assemble(spaces, case.material,
                      body_force=case.f, dirichlet_velocity=case.g)
    lus = []
    factorize = statics.factorize
    monkeypatch.setattr(statics, "factorize", lambda S, what:
                        lus.append(factorize(S, what)) or lus[-1])
    build_initial_data(case, system)
    (lu,) = lus  # the row order is the column order: diagonal pivots
    assert np.array_equal(lu.perm_r, lu.perm_c)


MESHES = ["uniform-1", "uniform-3", "uniform-4", "uniform-6", "uniform-8", "jittered-4"]


def _mesh(name):
    return _jittered(4) if name == "jittered-4" else build_uniform_square_mesh(int(name[8:]))


def _check_condensation(got, full, op, levels):
    """The matrix ``got`` that an LU of op's S_r = ``full`` factors against
    dense condensations, level by level, each at roundoff, 2e-14 relative.
    ``levels`` holds each level's complements (class, nG, nG).  The
    triangles', from one dense solve per triangle class, are checked against
    one dense solve of all triangles' interiors; each cell level's, which
    eliminates each cell's interior from the sums of the complements below,
    against one elimination of all those interiors from the scatter-sum of
    the level below, exact to a few ulps (`dense_condensation`, extended);
    the top level's is ``got``.

    Each reference starts from the computed level below, not from the exact
    complement of ``full``: a cell's interior block S_II has kappa_1 up to
    3e5 (augmented-Lagrangian shift), and a complement moves with the
    roundoff below it by up to 30 times as much, as it would in any
    elimination in double precision; the solve test bounds that end to end.
    The worst error is 0.21 of the bound (jittered-4, k = 3, the triangle
    level) and 0.08 on a cell level; with X unrefined (`statics._condense`)
    a 2 x 2 cell's reached 1.02 (n = 6, k = 1, the L2 pairing's
    augmented-Lagrangian shift).  Each level's kept set, of x's unknowns,
    is mapped to its positions in the level below's.  Returns the top
    level's reference."""
    n = full.shape[0]
    ref = dense_condensation(full, kept(op.levels[0], n))
    for i, (level, G) in enumerate(zip(op.levels, levels)):
        if i:
            edge = np.searchsorted(kept(op.levels[i - 1], n), kept(level, n))
            ref = dense_condensation(below, edge, extended=True)
        below = (got if level is op.levels[-1] else scatter_complement(level, G, n)).toarray()
        assert np.abs(below - ref).max() <= 2e-14 * np.abs(ref).max()
    return ref


def _bmat_schur_complement(system, T, s):
    """S_r = [[T + s^2 K, C^T], [C, 0]], K = B^T M^-1 B with M^-1 the
    reciprocals of the system's diagonal M, on the range of x:
    that 2 x 2 sps.bmat acts on two copies of the range, the first for the
    stresses and the second for the rotations, and [I, I] folds it back.
    No two of its blocks share an entry, so the fold sums nothing (sorted in
    place, as SuperLU sorts its input)."""
    B, C = system.Bmat, system.Cmat
    K = (B.T @ (sps.diags(1.0 / system.Mdiag) @ B)).tocsr()
    fold = sps.vstack([sps.identity(C.shape[0])] * 2, format="csr")
    S = (fold.T @ sps.bmat([[T + (s * s) * K, C.T], [C, None]]) @ fold).tocsc()
    S.sort_indices()
    return S


@pytest.mark.parametrize("k", [1, 2, 3])
def test_schur_pattern_fill_matches_bmat_build(mesh_cache, monkeypatch, k):
    # the matrix each SchurLU factors is the complement of S_r(s) = E_r(T) +
    # s^2 K_r on the edge unknowns of the largest cells' boundaries: s = 0 (the
    # E-product matrix), real CN and complex RadauIIA step shifts with T =
    # A, and the static shifts of both saddle stress blocks (A and the
    # stress mass).  It is gathered onto the system's condensed pattern, so
    # its pattern is that whatever the values, and it covers every nonzero
    # of the dense condensation of the sparse-product S_r.  The class-block
    # solves and the reference's one dense solve round differently, so they
    # agree to roundoff (`_check_condensation`), not bit for bit; at k = 1
    # the triangles eliminate nothing and the 2 x 2 cells every rotation
    case = builtin_case("eg2", alpha=2.2)
    system = assemble(build_spaces(mesh_cache(4), k), case.material,
                      body_force=case.f, dirichlet_velocity=case.g)
    factored, factorize = [], statics.factorize
    monkeypatch.setattr(statics, "factorize", lambda S, what:
                        factored.append(S) or factorize(S, what))
    lam = complex(1.0 / 3.0, np.sqrt(2.0) / 6.0)
    E, A, mass, p = system.Eop.tocsr(), system.Amat, stress_mass(system.spaces), system.Eop
    for T, s in ((A, 0.0), (A, 0.125), (A, 0.25 * lam),
                 (A, np.sqrt(system.material.rho / system.material.mu)),
                 (mass, np.sqrt(system.material.rho / 0.5))):
        op = p if T is A else l2_pairing(system)
        statics.SchurLU(dataclasses.replace(system, Eop=op), s, "test")
        got = factored.pop()
        ref = _check_condensation(got, _bmat_schur_complement(system, T, s), op,
                                  condensed_levels(op, system.Kblocks, s * s))
        assert got.format == "csc" and got.dtype == ref.dtype
        assert np.shares_memory(got.indices, p.indices) and got.has_canonical_format
        assert got.shape == ref.shape == (len(p.kept),) * 2
        assert got.nnz == len(p.indices)
        pattern = sps.csc_matrix((np.ones(got.nnz), got.indices, got.indptr), shape=got.shape)
        assert not ref[pattern.toarray() == 0.0].any()
    ref = _bmat_schur_complement(system, A, 0.0).toarray()
    assert np.abs(E.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gathered_schur_complement_is_e_plus_shifted_k(mesh_cache, k):
    # the condensed matrix is one value array on the system's condensed
    # pattern, real or complex as s is, and equals the complement on the
    # kept edge unknowns of E_r + s^2 K_r, K_r = B^T M^-1 B as a sparse
    # product.  Every rotation is eliminated, with its triangle's interior
    # stresses for k >= 2 and with its 2 x 2 cell's interior at k = 1, and
    # took all of S_r's negative inertia: for a real s it is SPD at every k
    case = builtin_case("eg2", alpha=2.2)
    system = assemble(build_spaces(mesh_cache(4), k), case.material)
    p, E, B = system.Eop, system.Eop.tocsr(), system.Bmat
    K = (B.T @ (sps.diags(1.0 / system.Mdiag) @ B)).toarray()
    for s in (0.0, 0.3, 0.25 * complex(1.0 / 3.0, np.sqrt(2.0) / 6.0)):
        S, eliminations = statics._condensed(system, s * s, "test")
        assert S.format == "csc" and S.dtype == np.result_type(E.dtype, s)
        assert [X.dtype for *_, X in eliminations] == [S.dtype] * len(p.levels)
        assert np.shares_memory(S.indices, p.indices) and np.shares_memory(S.indptr, p.indptr)
        _check_condensation(S, E.toarray() + (s * s) * K, p,
                            condensed_levels(p, system.Kblocks, s * s))
        if np.isrealobj(s):
            assert np.linalg.eigvalsh(S.toarray()).min() > 0.0


def test_complex_schur_build_allocates_one_value_array(mesh_cache, monkeypatch):
    # a complex condensed matrix allocates class-sized blocks while it
    # eliminates, at most eight of the size of each level's class blocks at
    # once, and no array that grows with the mesh; then its gather allocates
    # its complex values, 16 bytes per entry of the condensed pattern, the
    # maps cast to intp, and temporaries of the shared entries, under a
    # fifth of them (two cells share the entries of an edge's own
    # unknowns): no sparse sum, no CSC copy
    import tracemalloc
    case = builtin_case("eg3")
    system = assemble(build_spaces(mesh_cache(8), 3), case.material)
    p = system.Eop
    s = 0.125 * complex(1.0 / 3.0, np.sqrt(2.0) / 6.0)
    marks, gather = [], statics._gather

    def marked(*args):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return gather(*args)

    monkeypatch.setattr(statics, "_gather", marked)
    tracemalloc.start()
    try:
        S, _ = statics._condensed(system, s * s, "test")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (held, eliminating), = marks
    assert S.dtype == np.complex128
    assert len(p.dup) <= 0.2 * len(p.indices)
    blocks = sum((len(lv.bounds) - 1) * len(lv.keep) ** 2 for lv in p.levels)
    assert eliminating <= 16 * 8 * blocks + 2**16
    assert peak - held <= 24 * len(p.indices) + 32 * len(p.dup) + 2**16


@pytest.mark.parametrize("s", [0.25, 0.25 * complex(1.0 / 3.0, np.sqrt(2.0) / 6.0)])
def test_schur_solve_fills_one_array_bitwise(spaces_cache, s):
    # SchurLU's solve writes x_v = w + s (M^-1 B x_r) into one output array;
    # it must equal the concatenation of the two parts bit for bit (numpy's
    # complex scalar product is not commutative bitwise, so the order counts)
    case = builtin_case("eg2", alpha=2.2)
    system = assemble(spaces_cache(4, 2), case.material)
    lu = statics.SchurLU(system, s, "test")
    n, B, minv = lu.n, system.Bmat, 1.0 / system.Mdiag
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(n + len(minv))
    if not np.isrealobj(s):
        rhs = rhs + 1j * rng.standard_normal(n + len(minv))
    w = minv * rhs[n:]
    x_r = lu._solve_range(rhs[:n] - s * assembly._by_parts(B.T.dot, w))
    ref = np.concatenate([x_r, w + s * (minv * assembly._by_parts(B.dot, x_r))])
    got = lu.solve(rhs)
    assert got.dtype == ref.dtype and np.array_equal(got.view(np.uint8), ref.view(np.uint8))


@pytest.mark.parametrize("k,mesh", [(k, mesh) for k in (1, 2, 3)
                                    for mesh in ("uniform-4", "jittered-4")] + [(1, "uniform-6")])
def test_gathered_matrices_are_the_scatter_sums(k, mesh):
    # every matrix on the range of x, and the condensed matrix each LU
    # factors, is gathered from local blocks through source maps, and each
    # equals, bit for bit and in all three CSR arrays, the scatter-sum of its
    # local entries: the condensed matrix of the CN shift, the complex
    # RadauIIA shift and the augmented-Lagrangian shift tau, for E_r and for
    # the L2 pairing, whose values are also the dense condensation of the
    # scatter-summed S_r(s) (`_check_condensation`); E_r itself, A, C and the
    # L2 pairing.  The maps are int16 where every id of their blocks fits;
    # the jittered mesh has one class per triangle, and on the n = 6 mesh the
    # top cells of 4 x 4, 4 x 2, 2 x 4 and 2 x 2 grid cells are four
    # classes, with spare slots, that share the entries of their common edges
    # and hold one to four 2 x 2 cells
    # (at k = 1 only: its dense references take seconds at k >= 2)
    spaces = build_spaces(_mesh(mesh), k)
    system = assemble(spaces, MaterialModel(mu=0.7, lambda_=3.0, rho=1.3))
    p, top = system.Eop, system.Eop.levels[-1]
    nc, nG = len(top.bounds) - 1, np.count_nonzero(top.keep)
    assert p.src.dtype == p.src2.dtype == (np.int16 if nc * nG * nG < 2**15 else np.int32)
    full = assembly._pattern(p.table, p.bounds, ~(p.rotation[:, None] & p.rotation), spaces.dim_x)
    nc, W = len(p.blocks), len(p.rotation)
    assert full[2].dtype == full[4].dtype == (np.int16 if nc * W * W < 2**15 else np.int32)

    def same(got, ref):
        for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices), (got.data, ref.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    dt, lam, rho = 0.125, complex(1.0 / 3.0, np.sqrt(2.0) / 6.0), system.material.rho
    pairing = l2_pairing(system)
    for op, mu in ((p, system.material.mu), (pairing, 0.5)):
        for s in (0.5 * dt, lam * dt, np.sqrt(rho / mu)):
            got, _ = statics._condensed(dataclasses.replace(system, Eop=op), s * s, "test")
            levels = condensed_levels(op, system.Kblocks, s * s)
            same(got, scatter_complement(top, levels[-1], spaces.dim_x))
            _check_condensation(got, scatter_schur_complement(system, op.blocks, s * s), op,
                                levels)
        same(op.tocsr(), scatter_range_matrix(spaces, op))
    E = scatter_range_matrix(spaces, system.Eop)
    row = np.full(spaces.dim_x, 2)
    row[spaces.stress_map] = np.arange(2)[:, None]
    rows, cols = np.repeat(row, np.diff(E.indptr)), row[E.indices]
    same(system.Amat, sps.csr_matrix((np.where((rows < 2) & (cols < 2), E.data, 0.0), E.indices,
                                      E.indptr), shape=E.shape))
    keep = rows == 2
    indptr = np.concatenate([[0], np.cumsum(keep)])[E.indptr]
    same(system.Cmat, sps.csr_matrix((E.data[keep], E.indices[keep], indptr), shape=E.shape))


@pytest.mark.parametrize("k,mesh", [(k, mesh) for mesh in MESHES for k in (1, 2, 3)]
                         + [(1, "uniform-32")])
def test_condensed_solve_matches_the_full_schur_lu(mesh, k):
    # SchurLU eliminates each triangle's interior stresses and rotations,
    # then each cell's interior, level by level, by their class blocks and
    # factors the complement on the largest cells' boundaries only; its
    # solve equals one through a sparse LU of the whole scatter-summed
    # S_r(s), in SuperLU's default order with partial pivoting, for the CN,
    # complex RadauIIA and augmented-Lagrangian shifts, for E_r and for the
    # L2 pairing, on meshes of one 4 x 4 cell (n = 1, 3, 4), of smaller
    # cells at the right and top (n = 6), of four (n = 8) and of 16 8 x 8
    # cells, three cell levels (n = 32, k = 1), and with one class per
    # triangle and per cell (jittered), to the forward error a
    # backward-stable solve may have: kappa_1(S_r) eps in the 1-norm
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 7).
    # kappa_1 takes ||S_r^-1||_1 from Hager's estimator, onenormest with t =
    # 1, which draws no random vectors; it runs from 54 (k = 1) to 4e7 (k =
    # 3, jittered, augmented Lagrangian), and the worst error is 0.06 of the
    # bound (n = 8, k = 1).  Its x_r is backward stable too: ||S_r x_r -
    # b_r||_1 <= eps (||S_r||_1 ||x_r||_1 + ||b_r||_1), at most 0.25 of that;
    # a solve through explicit inverses of the 4 x 4 interiors reached 25
    # times it (n = 8, k = 2)
    spaces = build_spaces(_mesh(mesh), k)
    system = assemble(spaces, MaterialModel(mu=0.7, lambda_=3.0, rho=1.3))
    rng = np.random.default_rng(k)
    rhs = rng.standard_normal(spaces.dim_x + spaces.dim_velocity)
    lam, rho = complex(1.0 / 3.0, np.sqrt(2.0) / 6.0), system.material.rho
    eps = np.finfo(float).eps
    for op, mu in ((system.Eop, system.material.mu), (l2_pairing(system), 0.5)):
        for s in (0.0625, 0.125 * lam, np.sqrt(rho / mu)):
            b = rhs if np.isrealobj(s) else rhs + 1j * rng.standard_normal(rhs.size)
            got = statics.SchurLU(dataclasses.replace(system, Eop=op), s, "test").solve(b)
            S = scatter_schur_complement(system, op.blocks, s * s)
            lu = spla.splu(S)  # SuperLU's default order, partial pivoting
            ref = full_schur_solve(system, lu, s, b)
            assert got.dtype == ref.dtype
            inv = spla.LinearOperator(S.shape, lu.solve, dtype=S.dtype,
                                      rmatvec=lambda y: lu.solve(y, "H"))
            kappa = spla.norm(S, 1) * spla.onenormest(inv, t=1)
            assert np.abs(got - ref).sum() <= kappa * eps * np.abs(ref).sum()
            n = spaces.dim_x
            b_r, x_r = b[:n] - s * (system.Bmat.T @ (b[n:] / system.Mdiag)), got[:n]
            assert (np.abs(S @ x_r - b_r).sum()
                    <= eps * (spla.norm(S, 1) * np.abs(x_r).sum() + np.abs(b_r).sum()))


# lu.nnz and the factored dimension of each mesh and k: 2 (k + 1) unknowns
# per edge of the 4 x 4 cells' boundaries, the largest cells for n < 32,
# the domain's boundary included; one cell (n <= 4) leaves a dense
# complement
FILLS = {
    "uniform-1": {1: (272, 16), 2: (600, 24), 3: (1056, 32)},
    "uniform-3": {1: (2352, 48), 2: (5256, 72), 3: (9312, 96)},
    "uniform-4": {1: (4160, 64), 2: (9312, 96), 3: (16512, 128)},
    "uniform-6": {1: (9488, 144), 2: (21240, 216), 3: (37664, 288)},
    "uniform-8": {1: (16064, 192), 2: (36000, 288), 3: (63872, 384)},
    "jittered-4": {1: (4160, 64), 2: (9312, 96), 3: (16512, 128)},
}


@pytest.mark.parametrize("mesh", MESHES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_lu_fill_is_structural(k, mesh):
    # the fill of the step and saddle LUs depends on the pattern only, not on
    # the values: one lu.nnz per mesh and k for two materials, E_r and the L2
    # pairing, and the CN, complex RadauIIA and augmented-Lagrangian shifts.
    # The L+U count that perfbench traces drops exact zeros, so it moves
    # with roundoff
    spaces = build_spaces(_mesh(mesh), k)
    lam, fills = complex(1.0 / 3.0, np.sqrt(2.0) / 6.0), set()
    for material in (MaterialModel(mu=1.0, lambda_=1.0), MaterialModel(0.7, 3.0, 1.3)):
        system = assemble(spaces, material)
        for op, mu in ((system.Eop, material.mu), (l2_pairing(system), 0.5)):
            for s in (0.0625, 0.125 * lam, np.sqrt(material.rho / mu)):
                lu = statics.SchurLU(dataclasses.replace(system, Eop=op), s, "test")._lu
                fills.add((lu.nnz, lu.shape[0]))
    assert fills == {FILLS[mesh][k]}


@pytest.mark.parametrize("s", [0.25, 0.25 * complex(1.0 / 3.0, np.sqrt(2.0) / 6.0)])
def test_singular_local_block_raises_when_the_lu_is_built(spaces_cache, monkeypatch, s):
    # with one rotation's row and column of a class block zeroed, C is not
    # onto and that class's local block [[T_II + s^2 K_II, C_I^T], [C_I, 0]]
    # is singular: the LU's construction raises before any sparse
    # factorization
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, MaterialModel(mu=1.0, lambda_=1.0))
    op, ns = system.Eop, spaces.stress_map[0].size
    blocks = op.blocks.copy()
    blocks[1, ns] = blocks[1, :, ns] = 0.0
    monkeypatch.setattr(statics, "factorize", lambda S, what: pytest.fail("factorized"))
    with pytest.raises(SingularSystemError, match="^step factorization failed: local block"):
        statics.SchurLU(dataclasses.replace(system, Eop=dataclasses.replace(op, blocks=blocks)),
                        s, "step")


@pytest.mark.parametrize("mesh", ["uniform-6", "jittered-4"])
def test_splu_calls_per_schur_lu_and_per_integrate(monkeypatch, mesh):
    # a tracer of scipy.sparse.linalg.splu counts each call as one
    # factorization: building the spaces calls it never, each SchurLU once,
    # on its condensed matrix, the initial data once, for the saddle LU, and
    # each integrate call once, for its step LU, on meshes with smaller
    # cells and with one class per cell
    calls, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, *args, **kwargs:
                        calls.append(A.shape) or splu(A, *args, **kwargs))
    case = builtin_case("eg2", alpha=2.2)
    system = assemble(build_spaces(_mesh(mesh), 2), case.material, body_force=case.f,
                      dirichlet_velocity=case.g)
    n_e = len(system.Eop.kept)
    assert calls == [] and n_e >= 1
    for s in (0.25, 0.25 * complex(1.0 / 3.0, np.sqrt(2.0) / 6.0)):
        statics.SchurLU(system, s, "test")
        assert calls == [(n_e, n_e)]
        calls.clear()
    init = build_initial_data(case, system)
    assert calls == [(n_e, n_e)]
    for scheme in ("cn", "radau2"):
        calls.clear()
        integrate(system, init, scheme, 0.25, 0.5)
        assert calls == [(n_e, n_e)]


def test_one_sparse_factorization_per_schur_lu(mesh_cache, monkeypatch):
    # the local eliminations are dense class-block solves, so each SchurLU
    # makes exactly one call of scipy.sparse.linalg.splu, the call that a
    # tracer of splu counts as one factorization: the saddle LU of the
    # initial data and one step LU per integrate call
    case = builtin_case("eg2", alpha=2.2)
    factored, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, *args, **kwargs:
                        factored.append(A.shape) or splu(A, *args, **kwargs))
    lus, schur_lu = [], statics.SchurLU.__init__
    monkeypatch.setattr(statics.SchurLU, "__init__",
                        lambda lu, *args: lus.append(lu) or schur_lu(lu, *args))
    for k in (1, 2, 3):
        spaces = build_spaces(mesh_cache(2), k)
        system = assemble(spaces, case.material, body_force=case.f, dirichlet_velocity=case.g)
        init = build_initial_data(case, system)
        for scheme in ("cn", "radau2"):
            integrate(system, init, scheme, 0.5, 0.5)
        sigma, div_sigma = make_matrix_field(np.random.default_rng(k))
        elliptic_projection(system, sigma, div_sigma)
        n_e = len(system.Eop.kept)
        assert factored == [(n_e, n_e)] * 4 and len(lus) == 4
        factored.clear(), lus.clear()
