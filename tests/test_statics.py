import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
import sympy

from mixedelast import (MaterialModel, SingularSystemError, assemble,
                        assemble_body_load, assemble_dirichlet_load, assemble_stress_mass,
                        build_initial_data, build_spaces,
                        build_uniform_square_mesh, builtin_case,
                        canonical_interpolation, elliptic_projection, infsup_constant,
                        l2_error, l2_project_velocity, solve_elastostatics)
from mixedelast import statics
from mixedelast.quadrature import triangle_rule

from conftest import make_matrix_field
from _oracles import case_from_displacement


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
    dvals = np.moveaxis(spaces.stress_div_values(alpha, rule), 1, 0)
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
    sol = solve_elastostatics(system, np.zeros(system.dims[0]),
                              np.zeros(system.dims[1]), np.zeros(system.dims[2]))
    assert all(np.abs(part).max() <= 1e-12 for part in sol)


def test_constant_load_matches_dense_solve(mesh_cache, spaces_cache, unit_material):
    mesh, spaces = mesh_cache(1), spaces_cache(1, 1)
    system = assemble(spaces, unit_material)
    f = lambda t, x, y: np.stack([np.ones(np.shape(x)), 2.0 * np.ones(np.shape(x))])
    rhs_v = -assemble_body_load(spaces, f, 0.0)
    rhs_s = np.zeros(spaces.dim_stress)
    rhs_r = np.zeros(spaces.dim_rotation)
    sol = solve_elastostatics(system, rhs_s, rhs_v, rhs_r)

    S = np.block([
        [system.Amat.toarray(), system.Bmat.toarray().T, system.Cmat.toarray().T],
        [system.Bmat.toarray(), np.zeros((4, 4)), np.zeros((4, 2))],
        [system.Cmat.toarray(), np.zeros((2, 4)), np.zeros((2, 2))],
    ])
    x = np.linalg.solve(S, np.concatenate([rhs_s, rhs_v, rhs_r]))
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
        rhs_v = assemble_body_load(spaces, case.div_sigma, 0.0, degree=12)
        sigma, u, r = solve_elastostatics(system, np.zeros(spaces.dim_stress), rhs_v,
                                          np.zeros(spaces.dim_rotation))
        errs_sigma.append(l2_error(spaces, sigma, case.sigma, 0.0, "stress"))
        errs_u.append(l2_error(spaces, u, case.u, 0.0, "velocity"))
        errs_r.append(l2_error(spaces, r, case.rotation, 0.0, "rotation"))
    for errs in (errs_sigma, errs_u, errs_r):
        assert np.log2(errs[-2] / errs[-1]) >= k - 0.25


def test_singular_pairing_detected(spaces_cache, unit_material):
    system = assemble(spaces_cache(1, 1), unit_material)
    broken = type(system)(
        Amat=system.Amat, Bmat=sps.csr_matrix(system.Bmat.shape),
        Cmat=system.Cmat, Mmat=system.Mmat, load=system.load,
        dirichlet_load=system.dirichlet_load, spaces=system.spaces,
        material=system.material)
    with pytest.raises(SingularSystemError):
        solve_elastostatics(broken, np.zeros(system.dims[0]),
                            np.ones(system.dims[1]), np.zeros(system.dims[2]))


def test_elliptic_projection_reproduces_mh(spaces_cache, unit_material):
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, unit_material)
    rng = np.random.default_rng(11)
    alpha = rng.standard_normal(spaces.dim_stress)
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
    dv = spaces.stress_div_values(proj, rule)
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
        e_proj = l2_error(spaces, proj, wrap, 0.0, "stress", degree=12)
        e_interp = l2_error(spaces, interp, wrap, 0.0, "stress", degree=12)
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
    hd_sq = (spaces.stress_div_values(proj, rule) ** 2).sum(axis=1)
    norm_proj = np.sqrt((W * (hv_sq + hd_sq)).sum())
    assert norm_proj <= 10.0 * norm_exact


def test_initial_data_eg1_zero_stress(spaces_cache, unit_material):
    # EG1 displacement vanishes at t = 0, so sigma0, r0, u0 are all zero and
    # v0 is the projection of the nonzero initial velocity
    case = builtin_case("eg1")
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, case.material)
    init = build_initial_data(case, system)
    assert np.abs(init.sigma0).max() <= 1e-12
    assert np.abs(init.r0).max() <= 1e-12
    assert np.abs(init.u0).max() <= 1e-12
    assert np.abs(init.v0).max() > 0.1


def test_initial_data_eg2_weak_symmetry(spaces_cache):
    case = builtin_case("eg2", alpha=2.7)
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, case.material,
                      body_force=case.f, dirichlet_velocity=case.g)
    init = build_initial_data(case, system)
    assert np.abs(init.sigma0).max() > 0.1
    cnorm = np.linalg.norm(system.Cmat @ init.sigma0)
    assert cnorm <= 1e-12 * np.linalg.norm(init.sigma0)


def test_saddle_factorizations_not_kept(spaces_cache, unit_material):
    # each saddle matrix is solved with once per system, so its LU is dropped;
    # only the order, M^-1, K = B^T M^-1 B in that order and the Schur
    # pattern of A, which the step LUs share, stay
    case = builtin_case("eg2", alpha=2.7)
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, case.material,
                      body_force=case.f, dirichlet_velocity=case.g)
    build_initial_data(case, system)
    assert set(system._cache) == {"order", "Minv", "K", "schur"}
    sigma, div_sigma = make_matrix_field(np.random.default_rng(2))
    elliptic_projection(system, sigma, div_sigma)
    assert set(system._cache) == {"order", "Minv", "K", "schur", "stress_mass"}
    assert not any(isinstance(value, (statics.SchurLU, spla.SuperLU))
                   for value in system._cache.values())


@pytest.mark.parametrize("name,n,k", [("eg3", 4, 3), ("locking", 4, 2)])
def test_zero_initial_data_skip_saddle_lu(mesh_cache, monkeypatch, name, n, k):
    # u(0) = 0 makes every right-hand side exactly zero, so sigma0 = r0 = 0
    # without a factorization
    def no_factorization(S, what):
        raise AssertionError(f"{what} factorization")

    monkeypatch.setattr(statics, "factorize", no_factorization)
    case = builtin_case(name)
    spaces = build_spaces(mesh_cache(n), k)
    system = assemble(spaces, case.material, body_force=case.f)
    init = build_initial_data(case, system)
    assert init.sigma0.shape == (spaces.dim_stress,) and not init.sigma0.any()
    assert init.r0.shape == (spaces.dim_rotation,) and not init.r0.any()
    assert np.abs(init.v0).max() > 0.1


def test_nonzero_initial_data_factor_the_saddle(spaces_cache, monkeypatch):
    case = builtin_case("eg2", alpha=2.2)
    spaces = spaces_cache(2, 2)
    system = assemble(spaces, case.material,
                      body_force=case.f, dirichlet_velocity=case.g)
    sigma, _, r = solve_elastostatics(system, assemble_dirichlet_load(spaces, case.u, 0.0),
                                      assemble_body_load(spaces, case.div_sigma, 0.0),
                                      np.zeros(spaces.dim_rotation))
    calls = []
    factorize = statics.factorize
    monkeypatch.setattr(statics, "factorize", lambda S, what, **options:
                        calls.append((what, S.shape)) or factorize(S, what, **options))
    init = build_initial_data(case, system)
    nM, _, nK = system.dims
    assert calls == [("saddle", (nM + nK, nM + nK))]
    assert np.array_equal(init.sigma0, sigma)
    assert np.array_equal(init.r0, r)


def test_initial_stress_convergence(mesh_cache):
    case = builtin_case("eg2", alpha=2.7)
    k = 2
    errs = []
    for n in (2, 4, 8):
        mesh = mesh_cache(n)
        spaces = build_spaces(mesh, k)
        system = assemble(spaces, case.material)
        init = build_initial_data(case, system)
        errs.append(l2_error(spaces, init.sigma0, case.sigma, 0.0, "stress"))
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


def _dense_saddle_solve(system, T, b):
    B, C = system.Bmat.toarray(), system.Cmat.toarray()
    nV, nK = B.shape[0], C.shape[0]
    S = np.block([[T.toarray(), B.T, C.T],
                  [B, np.zeros((nV, nV)), np.zeros((nV, nK))],
                  [C, np.zeros((nK, nV)), np.zeros((nK, nK))]])
    return np.linalg.solve(S, b)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_saddle_sweeps_match_dense_solve(mesh_cache, monkeypatch, k):
    # the augmented-Lagrangian sweeps solve the saddle system itself, for the
    # compliance (initial data) and for the stress mass (elliptic projection)
    case = builtin_case("eg2", alpha=2.2)
    spaces = build_spaces(mesh_cache(4), k)
    system = assemble(spaces, case.material)
    nM, nV, nK = system.dims
    rng = np.random.default_rng(k)
    b = rng.standard_normal(nM + nV + nK)
    got = np.concatenate(solve_elastostatics(system, b[:nM], b[nM:nM + nV], b[nM + nV:]))
    ref = _dense_saddle_solve(system, system.Amat, b)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    seen = []
    solve_saddle = statics._solve_saddle
    monkeypatch.setattr(statics, "_solve_saddle", lambda *args: seen.append(args)
                        or solve_saddle(*args))
    sigma, div_sigma = make_matrix_field(rng)
    proj = elliptic_projection(system, sigma, div_sigma)
    _, mass, _, rhs_sigma, rhs_v, rhs_r = seen[0]
    assert np.abs(rhs_r).max() > 1e-3
    ref = _dense_saddle_solve(system, assemble_stress_mass(spaces),
                              np.concatenate([rhs_sigma, rhs_v, rhs_r]))[:nM]
    assert np.linalg.norm(proj - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("lam", [1.0, 1e4])
@pytest.mark.parametrize("mu,rho", [(1.0, 1.0), (100.0, 1.0), (1.0, 100.0), (0.01, 1.0)])
def test_saddle_sweep_count_robust_in_material(spaces_cache, monkeypatch, lam, mu, rho):
    # tau = sqrt(rho1 / mu) keeps the penalty on the scale of A, so the
    # number of sweeps does not grow with the material's scales or with
    # near incompressibility
    system = assemble(spaces_cache(8, 2),
                      MaterialModel(mu=mu, lambda_=lam, rho=rho))
    solves = []
    solve = statics.SchurLU.solve
    monkeypatch.setattr(statics.SchurLU, "solve",
                        lambda lu, rhs: solves.append(1) or solve(lu, rhs))
    rng = np.random.default_rng(0)
    nM, nV, nK = system.dims
    b = rng.standard_normal(nM + nV + nK)
    solve_elastostatics(system, b[:nM], b[nM:nM + nV], b[nM + nV:])
    assert 1 <= len(solves) <= 12


def test_saddle_lu_pivots_on_its_diagonal(spaces_cache, monkeypatch):
    case = builtin_case("eg2", alpha=2.2)
    spaces = spaces_cache(8, 2)
    system = assemble(spaces, case.material,
                      body_force=case.f, dirichlet_velocity=case.g)
    lus = []
    factorize = statics.factorize
    monkeypatch.setattr(statics, "factorize", lambda S, what, **options:
                        lus.append(factorize(S, what, **options)) or lus[-1])
    build_initial_data(case, system)
    (lu,) = lus
    assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))


def _bmat_schur_complement(system, T, s):
    """S_r = [[T + s^2 K, C^T], [C, 0]] in the order of _step_order, formed by
    sps.bmat, a column gather and a row renumbering (sorted in place, as
    SuperLU sorts its input)."""
    order, C = statics._step_order(system), system.Cmat
    S = sps.bmat([[T + (s * s) * statics._divergence_gram(system), C.T], [C, None]],
                 format="csc")[:, order]
    S = sps.csc_matrix((S.data, np.argsort(order)[S.indices], S.indptr), shape=S.shape)
    S.sort_indices()
    return S


@pytest.mark.parametrize("k", [1, 2, 3])
def test_schur_pattern_fill_matches_bmat_build(mesh_cache, k):
    # s = 0 (the E-product matrix), real CN and complex RadauIIA step shifts
    # with T = A, and the static shifts of both saddle stress blocks (A and
    # the stress mass); at k = 2 an entry of A + (1/8)^2 K cancels exactly and
    # must be dropped
    case = builtin_case("eg2", alpha=2.2)
    system = assemble(build_spaces(mesh_cache(4), k), case.material,
                      body_force=case.f, dirichlet_velocity=case.g)
    lam = complex(1.0 / 3.0, np.sqrt(2.0) / 6.0)
    mass = assemble_stress_mass(system.spaces)
    for T, s in ((system.Amat, 0.0), (system.Amat, 0.125), (system.Amat, 0.25 * lam),
                 (system.Amat, np.sqrt(system.material.rho1 / system.material.mu)),
                 (mass, np.sqrt(system.material.rho1 / 0.5))):
        got = statics._schur_pattern(system, T).matrix(s)
        ref = _bmat_schur_complement(system, T, s)
        assert got.dtype == ref.dtype
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data.view(np.uint8), ref.data.view(np.uint8))
    E = statics._schur_pattern(system, system.Amat).E
    ref = _bmat_schur_complement(system, system.Amat, 0.0).tocsr()
    assert np.array_equal(E.indptr, ref.indptr)
    assert np.array_equal(E.indices, ref.indices)
    assert np.array_equal(E.data.view(np.uint8), ref.data.view(np.uint8))
    assert statics._schur_pattern(system, system.Amat) is system._cache["schur"]
