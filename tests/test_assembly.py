import dataclasses

import numpy as np
import pytest
import scipy.sparse as sps
import sympy as sp

from mixedelast import (ConfigError, MaterialModel, MixedElastError, assemble,
                        assemble_body_load, assemble_dirichlet_load,
                        build_spaces, build_uniform_square_mesh, builtin_case)
from mixedelast.assembly import (SeparatedField, _class_tables, _compliance, _dirichlet_operator,
                                 _scatter, l2_pairing)
from mixedelast.mesh import _connect

from conftest import _reachable, pattern_arrays
from test_mesh import _jittered
from _oracles import (_load_field, _separate, canonical_interpolation, dense_assemble,
                      dense_body_load, dense_dirichlet_load, dense_system_blocks,
                      isotropic_stiffness_apply, kept, rotation_mask, scatter_complement,
                      stress_mass, triangle_areas)


def _stress_block(spaces, op):
    """The dense stress-stress block of an operator on the range of x."""
    stress = ~rotation_mask(spaces)
    return op.toarray()[np.ix_(stress, stress)]


def _compliance_residual(spaces, material, tau, image):
    """max |(A tau, phi) - (image, phi)| over the stress basis, relative to
    the largest (image, phi), for constant tensors tau and image and the
    solver's assembled compliance A."""
    def interpolant(c):
        return canonical_interpolation(
            spaces, lambda x, y: np.multiply.outer(c, np.ones(np.shape(x))))

    A = assemble(spaces, material).Amat
    rhs = stress_mass(spaces) @ interpolant(image)
    return np.abs(A @ interpolant(tau) - rhs).max() / np.abs(rhs).max()


def test_compliance_identity_tensor(spaces_cache, unit_material):
    assert _compliance_residual(spaces_cache(2, 2), unit_material, np.eye(2),
                                0.25 * np.eye(2)) <= 1e-13


def test_stiffness_identity_tensor(unit_material):
    out = isotropic_stiffness_apply(np.eye(2), unit_material)
    assert np.abs(out - 4.0 * np.eye(2)).max() <= 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_compliance_inverts_stiffness_on_symmetric(spaces_cache, seed):
    rng = np.random.default_rng(seed)
    mat = MaterialModel(mu=rng.uniform(0.5, 3.0), lambda_=rng.uniform(0.5, 5.0))
    tau = rng.standard_normal((2, 2))
    tau = 0.5 * (tau + tau.T)
    assert _compliance_residual(spaces_cache(2, 2), mat, isotropic_stiffness_apply(tau, mat),
                                tau) <= 1e-12


def test_compliance_identity_on_skew(spaces_cache, unit_material):
    q = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert _compliance_residual(spaces_cache(2, 2), unit_material, q, q) <= 1e-13


def test_material_validation():
    with pytest.raises(MixedElastError):
        MaterialModel(mu=0.0, lambda_=1.0)
    with pytest.raises(MixedElastError):
        MaterialModel(mu=1.0, lambda_=1.0, rho=-2.0)
    with pytest.raises(MixedElastError):
        MaterialModel(mu=1.0, lambda_=1.0, rho=lambda x, y: 1.0 + x)
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"mu": nan}, {"mu": inf}, {"lambda_": nan}, {"lambda_": inf},
                   {"rho": nan}, {"rho": inf},
                   # not real numbers: each must fail as a MixedElastError, not a
                   # TypeError, and True is no density of 1
                   {"rho": "2"}, {"rho": None}, {"rho": 1 + 0j}, {"rho": True},
                   {"mu": "2"}, {"mu": None}, {"lambda_": 2j}, {"lambda_": True}):
        with pytest.raises(MixedElastError):
            MaterialModel(**{"mu": 1.0, "lambda_": 1.0, **kwargs})


@pytest.mark.parametrize("name", ["mu", "lambda_", "rho"])
def test_material_constant_above_the_float_range_is_rejected(name):
    # a Python int converts to a float only up to the largest float: 10**400
    # is a ConfigError (exit 2), not an OverflowError from the conversion
    with pytest.raises(ConfigError, match=f"^{name} must be a positive finite constant"):
        MaterialModel(**{"mu": 1.0, "lambda_": 1.0, name: 10**400})


@pytest.mark.parametrize("mu,lam", [(1.0, 1e308), (1.0, 4.6e307), (1e160, 1e159),
                                    (1e-200, 1e-200), (1e308, 1.0)])
def test_material_whose_compliance_overflows_is_rejected(mu, lam):
    # c = lambda / (2 mu (2 mu + 2 lambda)) is 0 where its denominator
    # overflows, the compliance of lambda = 0, and inf where it underflows;
    # 1/(4 mu) is 0 for mu = 1e308
    with pytest.raises(MixedElastError, match="compliance"):
        MaterialModel(mu=mu, lambda_=lam)


@pytest.mark.parametrize("mu,lam", [(1.0, 1e300), (1e300, 1.0), (1.0, 5e-324)])
def test_material_with_a_finite_compliance_is_accepted(mu, lam):
    # c is 0 for mu = 1e300 or lambda = 5e-324 too, but there lambda is below
    # mu's last bit, so it is the lambda = 0 material to roundoff
    MaterialModel(mu=mu, lambda_=lam)


@pytest.mark.parametrize("name", ["mu", "lambda_", "rho"])
def test_material_is_frozen(name):
    # a validated material cannot be made invalid after the fact
    material = MaterialModel(mu=1.0, lambda_=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(material, name, -1.0)
    assert (material.mu, material.lambda_, material.rho) == (1.0, 1.0, 1.0)


def test_block_sizes(spaces_cache, unit_material):
    # A, B and C act on the range of x: 20 stresses and 2 rotations
    system = assemble(spaces_cache(1, 1), unit_material)
    assert system.Amat.shape == (22, 22)
    assert system.Bmat.shape == (4, 22)
    assert system.Cmat.shape == (22, 22)
    assert system.Mmat.shape == (4, 4)


def test_mass_matrix_is_area_blocks(mesh_cache, spaces_cache, unit_material):
    mesh = mesh_cache(2)
    system = assemble(spaces_cache(2, 1), unit_material)
    M = system.Mmat.toarray()
    expected = np.zeros_like(M)
    for t, area in enumerate(triangle_areas(mesh)):
        expected[2 * t:2 * t + 2, 2 * t:2 * t + 2] = area * np.eye(2)
    assert np.abs(M - expected).max() <= 1e-14


def test_amat_positive_definite(spaces_cache, unit_material):
    system = assemble(spaces_cache(2, 2), unit_material)
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal(system.Amat.shape[0])
        assert a @ (system.Amat @ a) > 0.0
    A = system.Amat
    assert abs(A - A.T).max() <= 1e-12
    M = system.Mmat
    assert abs(M - M.T).max() <= 1e-14


def test_bmat_full_row_rank(spaces_cache, unit_material):
    for n, k in ((1, 1), (2, 1), (2, 2)):
        system = assemble(spaces_cache(n, k), unit_material)
        sv = np.linalg.svd(system.Bmat.toarray(), compute_uv=False)
        assert sv.min() > 1e-10 * sv.max()


def test_block_ode_matrix_invertible(spaces_cache, unit_material):
    system = assemble(spaces_cache(1, 1), unit_material)
    E, _ = dense_system_blocks(system)
    assert np.linalg.cond(E) < 1e3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_amat_is_the_compliance_scatter(mesh_cache, k):
    # the system holds E_r = A + C + C^T, and A, C and C^T have disjoint
    # local blocks, so the A formed from it, on E_r's pattern, is the
    # assembled (symmetrized) compliance exactly
    case = builtin_case("eg2", alpha=2.2)
    spaces = build_spaces(mesh_cache(4), k)
    system = assemble(spaces, case.material)
    got, E = system.Amat, system.Eop.tocsr()
    assert np.array_equal(got.indptr, E.indptr) and np.array_equal(got.indices, E.indices)
    W, V, _, _ = _class_tables(spaces)
    T = _compliance(W, V, case.material.mu, case.material.lambda_)
    stress = spaces.stress_map.reshape(len(spaces.tri_class), -1)
    ref = _scatter(0.5 * (T + T.swapaxes(1, 2))[spaces.tri_class], stress[:, :, None],
                   stress[:, None, :], got.shape)
    assert np.array_equal(got.toarray().view(np.uint8), ref.toarray().view(np.uint8))


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1)])
def test_oracle_equivalence(spaces_cache, unit_material, n, k):
    # brute-force looped assembly on meshes of up to 8 triangles
    spaces = spaces_cache(n, k)
    system = assemble(spaces, unit_material)
    A, B, C, M = dense_assemble(spaces, unit_material)
    assert np.abs(system.Amat.toarray() - A).max() <= 1e-12
    assert np.abs(system.Bmat.toarray() - B).max() <= 1e-12
    assert np.abs(system.Cmat.toarray() - C).max() <= 1e-12
    assert np.abs(system.Mmat.toarray() - M).max() <= 1e-12


def _mesh_without_congruent_triangles(seed):
    """The n=2 mesh with its interior vertex moved off the grid: no two of its
    8 triangles are congruent, so each is a class of its own."""
    mesh = build_uniform_square_mesh(2)
    vertices = mesh.vertices.copy()
    vertices[4] += np.random.default_rng(seed).uniform(-0.1, 0.1, 2)
    return _connect(vertices, mesh.triangles)


@pytest.mark.parametrize("k", [1, 2])
def test_oracle_equivalence_without_congruent_triangles(unit_material, k):
    spaces = build_spaces(_mesh_without_congruent_triangles(k), k)
    assert np.array_equal(spaces.tri_class[spaces.class_tris], np.arange(8))
    system = assemble(spaces, unit_material)
    A, B, C, M = dense_assemble(spaces, unit_material)
    assert np.abs(system.Amat.toarray() - A).max() <= 1e-12
    assert np.abs(system.Bmat.toarray() - B).max() <= 1e-12
    assert np.abs(system.Cmat.toarray() - C).max() <= 1e-12
    assert np.abs(system.Mmat.toarray() - M).max() <= 1e-12


@pytest.mark.parametrize("which", ["uniform", "no-congruent"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_velocity_mass_is_held_as_its_diagonal(mesh_cache, k, which):
    # the P_{k-1} basis is orthonormal on every triangle, so the full local
    # mass has only roundoff off its diagonal, and the system holds that
    # diagonal, bit for bit, as one 1-D array
    mesh = mesh_cache(4) if which == "uniform" else _mesh_without_congruent_triangles(k)
    spaces = build_spaces(mesh, k)
    rho = 2.5
    system = assemble(spaces, MaterialModel(mu=1.0, lambda_=1.0, rho=rho))
    W, _, _, psi = _class_tables(spaces)
    local = np.einsum("tq,iq,jq->tij", W * rho, psi, psi)[spaces.tri_class]
    diag = np.einsum("tii->ti", local)
    off = local - diag[:, :, None] * np.eye(len(psi))
    assert np.all(np.abs(off) <= 1e-14 * diag[:, :, None])
    expected = np.empty(spaces.dim_velocity)
    expected[spaces.velocity_map] = diag[:, None]
    assert system.Mdiag.shape == (spaces.dim_velocity,)
    assert np.array_equal(system.Mdiag.view(np.uint8), expected.view(np.uint8))
    assert np.array_equal(system.Mmat.toarray(), np.diag(expected))


def test_compliance_inverts_stiffness_on_general_tensors(spaces_cache, unit_material):
    rng = np.random.default_rng(9)
    tau = rng.standard_normal((2, 2))
    assert _compliance_residual(spaces_cache(2, 2), unit_material,
                                isotropic_stiffness_apply(tau, unit_material), tau) <= 1e-12


def test_amat_mmat_smallest_eigenvalue_positive(spaces_cache, unit_material):
    spaces = spaces_cache(1, 1)
    system = assemble(spaces, unit_material)
    assert np.linalg.eigvalsh(_stress_block(spaces, system.Amat)).min() > 0.0
    assert np.linalg.eigvalsh(system.Mmat.toarray()).min() > 0.0


def test_rho_scaling(spaces_cache):
    base = assemble(spaces_cache(2, 1), MaterialModel(mu=1, lambda_=1, rho=1.0))
    scaled = assemble(spaces_cache(2, 1), MaterialModel(mu=1, lambda_=1, rho=3.0))
    assert abs(scaled.Mmat - 3.0 * base.Mmat).max() <= 1e-14


def test_body_load_zero(spaces_cache, unit_material):
    spaces = spaces_cache(2, 1)
    zero = assemble_body_load(spaces, lambda t, x, y: np.zeros((2,) + np.shape(x)), 0.0)
    assert np.all(zero == 0.0)


def test_body_load_constant(mesh_cache, spaces_cache):
    mesh = mesh_cache(2)
    spaces = spaces_cache(2, 1)

    def f(t, x, y):
        return np.stack([np.ones(np.shape(x)), np.zeros(np.shape(x))])

    zeta = assemble_body_load(spaces, f, 0.0)
    areas = triangle_areas(mesh)
    # per-triangle layout [x-const, y-const]; entry for the constant basis
    # on triangle T is its area
    expected = np.zeros_like(zeta)
    for t, a in enumerate(areas):
        expected[2 * t] = a
    assert np.abs(zeta - expected).max() <= 1e-14


def test_body_load_oracle(spaces_cache, unit_material):
    spaces = spaces_cache(1, 2)

    def f(t, x, y):
        return np.stack([2.0 * np.asarray(x), np.zeros(np.shape(x))])

    production = assemble_body_load(spaces, f, 0.0)
    oracle = dense_body_load(spaces, f, 0.0)
    assert np.abs(production - oracle).max() <= 1e-12


def test_dirichlet_load_zero(spaces_cache):
    spaces = spaces_cache(2, 2)
    zero = assemble_dirichlet_load(
        spaces, lambda t, x, y: np.zeros((2,) + np.shape(x)), 0.0)
    assert np.all(zero == 0.0)


def test_homogeneous_case_never_assembles_boundary_load(spaces_cache, unit_material):
    case = builtin_case("eg1")
    assert case.homogeneous and case.g is None
    system = assemble(spaces_cache(1, 1), unit_material,
                      body_force=case.f, dirichlet_velocity=case.g)
    assert np.all(system.dirichlet_load(0.37) == 0.0)


def test_dirichlet_load_oracle(spaces_cache):
    spaces = spaces_cache(2, 2)
    case = builtin_case("eg2", alpha=2.7)
    production = assemble_dirichlet_load(spaces, case.v, 0.0)
    oracle = dense_dirichlet_load(spaces, case.v, 0.0, 2 * spaces.k + 4)
    assert np.abs(production - oracle).max() <= 1e-12


def test_dirichlet_load_cached_operator_matches_oracle(mesh_cache):
    # each call builds the boundary operator where it is used
    spaces = build_spaces(mesh_cache(2), 2)
    case = builtin_case("eg2", alpha=2.7)
    for t in (0.0, 0.6):
        production = assemble_dirichlet_load(spaces, case.v, t)
        oracle = dense_dirichlet_load(spaces, case.v, t, 2 * spaces.k + 4)
        assert np.abs(production - oracle).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_no_stress_basis_table_outlives_assemble(mesh_cache, k):
    # the stress basis and its tables at the quadrature points are held once
    # per congruence class, never per triangle, (T, n_row_dofs, ...), and
    # nothing reads the tables after assembly, so neither the spaces nor the
    # system keeps one
    case = builtin_case("eg2", alpha=2.2)
    spaces = build_spaces(mesh_cache(4), k)
    system = assemble(spaces, case.material, body_force=case.f, dirichlet_velocity=case.g)
    assert spaces.stress_coef.shape[0] == len(np.unique(spaces.tri_class)) == 2
    nt, _, nd = spaces.stress_map.shape
    held = [a for a in _reachable(spaces) + _reachable(system) if isinstance(a, np.ndarray)]
    assert [a for a in held if a is spaces.stress_map]  # the scan reaches the spaces' arrays
    assert not [a.shape for a in held if a.shape[:2] == (nt, nd)]


@pytest.mark.parametrize("rho", [1.0, 2.5], ids=["constant-rho", "scaled-rho"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_operators_are_canonical_without_stored_zeros(spaces_cache, k, rho):
    # sorted column indices and no duplicates; every local entry is kept,
    # so the stored zeros are the structural ones of E_r's one pattern
    spaces = spaces_cache(2, k)
    system = assemble(spaces, MaterialModel(mu=1.0, lambda_=1.0, rho=rho))
    _, dirichlet = _dirichlet_operator(spaces)
    E, pairing = system.Eop.tocsr(), l2_pairing(system).tocsr()
    for op in (E, system.Amat, system.Bmat, system.Cmat, system.Mmat, pairing, dirichlet):
        assert op.format == "csr"
        assert sps.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape).has_canonical_format
    assert np.array_equal(pairing.indptr, E.indptr)
    assert np.array_equal(pairing.indices, E.indices)
    # the L2 mass pairs each tensor row with itself only: the entries of the
    # L2 pairing that couple a row-0 stress with a row-1 stress are stored
    # exact zeros, not roundoff and not absent
    row = np.full(spaces.dim_x, -1)
    row[spaces.stress_map] = np.arange(2)[:, None]
    mass = pairing.tocoo()
    cross = (row[mass.row] + row[mass.col] == 1) & (row[mass.row] >= 0) & (row[mass.col] >= 0)
    assert cross.sum() > 0
    assert np.array_equal(mass.data[cross].view(np.uint8), np.zeros(cross.sum()).view(np.uint8))


def test_stress_mass_spd(spaces_cache, unit_material):
    # the stress block of the L2 pairing is the stress mass
    spaces = spaces_cache(1, 1)
    dense = _stress_block(spaces, l2_pairing(assemble(spaces, unit_material)).tocsr())
    assert np.abs(dense - dense.T).max() <= 1e-13
    assert np.linalg.eigvalsh(dense).min() > 0.0


@pytest.mark.parametrize("name,alpha,k", [("eg1", None, 1), ("eg2", 2.2, 2),
                                          ("eg3", None, 3), ("locking", None, 2)])
def test_separated_loads_match_oracle_and_sampled_path(mesh_cache, name, alpha, k):
    # the body force and the boundary data split into time factors times
    # space parts, whose loads are built once; the velocity is split only
    # where it is boundary data, so the homogeneous cases use their body
    # force as separated boundary data
    case = builtin_case(name, alpha=alpha)
    assert isinstance(case.f, SeparatedField)
    assert isinstance(case.v, SeparatedField) == (not case.homogeneous)
    g = case.f if case.homogeneous else case.v
    spaces = build_spaces(mesh_cache(2), k)
    system = assemble(spaces, case.material,
                      body_force=case.f, dirichlet_velocity=g)
    degree = 2 * k + 4
    for t in (0.0, 0.37, 1.0):
        body = system.load(t)
        assert np.abs(body - dense_body_load(spaces, case.f, t, degree)).max() <= 1e-12
        assert np.abs(body - assemble_body_load(spaces, case.f, t)).max() <= 1e-12
        bdry = system.dirichlet_load(t)
        assert np.abs(bdry - dense_dirichlet_load(spaces, g, t, degree)).max() <= 1e-12
        assert np.abs(bdry - assemble_dirichlet_load(spaces, g, t)).max() <= 1e-12


def test_separated_load_evaluates_space_parts_once(mesh_cache):
    # eg2 has three body-force terms and two velocity terms: each field's
    # space parts are evaluated once, and the loads equal those assembled
    # term by term bitwise, combined as the closure does (column-major .dot)
    case = builtin_case("eg2", alpha=2.2)
    calls = []

    def counted(field, label):
        def psi(x, y):
            calls.append(label)
            return field.psi(x, y)
        return SeparatedField(field.fn, field.phi, psi)

    spaces = build_spaces(mesh_cache(2), 2)
    system = assemble(spaces, case.material,
                      body_force=counted(case.f, "f"),
                      dirichlet_velocity=counted(case.v, "v"))
    assert sorted(calls) == ["f", "v"]

    def term_by_term(assemble_at, field):
        return np.asfortranarray(np.column_stack([
            assemble_at(spaces, lambda t, x, y, i=i: field.psi(x, y)[i], 0.0)
            for i in range(len(field.phi(0.0)))]))

    body = term_by_term(assemble_body_load, case.f)
    bdry = term_by_term(assemble_dirichlet_load, case.v)
    for t in (0.0, 0.37, 1.0):
        assert np.array_equal(system.load(t), body.dot(np.asarray(case.f.phi(t), dtype=float)))
        assert np.array_equal(system.dirichlet_load(t),
                              bdry.dot(np.asarray(case.v.phi(t), dtype=float)))


@pytest.mark.parametrize("name,alpha", [("eg1", None), ("eg2", 2.2), ("locking", None),
                                        ("eg3", None), ("eg2", 2.7)])
def test_separated_terms_sum_to_field(name, alpha):
    rng = np.random.default_rng(5)
    x, y = rng.random((2, 2000))
    for mu, lam, rho in [(1.0, 1.0, 1.0), (1.0, 1e4, 1.0), (2.5, 0.3, 7.0)]:
        case = builtin_case(name, alpha=alpha, mu=mu, lam=lam, rho=rho)
        for field in (case.f,) if case.homogeneous else (case.f, case.v):
            for t in (0.0, 0.37, 1.0):
                total = np.einsum("i,ic...->c...", np.asarray(field.phi(t), dtype=float),
                                  field.psi(x, y))
                exact = field(t, x, y)
                assert np.abs(total - exact).max() <= 1e-14 * np.abs(exact).max()


def test_separate_is_exact_and_groups_by_time_factor():
    t, x, y = sp.symbols("t x y", real=True)
    u = [(1 + t**2) * x**2.2 * y**2, (1 + sp.cos(t)) * x**2 * y**2.2]
    exprs = [sp.diff(u[0], x, 2), sp.diff(u[1], y) + sp.sin(t) * x]
    terms = _separate(exprs, t, (x, y))
    assert sorted(map(str, (phi for phi, _ in terms))) == ["1", "cos(t)", "sin(t)", "t**2"]
    for c, e in enumerate(exprs):
        assert sp.expand(sum(phi * psi[c] for phi, psi in terms) - e) == 0


def test_unseparated_loads_are_rejected(mesh_cache):
    # a load must split into time factors times space parts: sin(x t) does
    # not, and neither does a plain callable
    t, x, y = sp.symbols("t x y", real=True)
    mixed = _load_field([sp.sin(x * t), y], (t, x, y))
    assert not isinstance(mixed, SeparatedField)
    plain = lambda t, x, y: np.stack([np.cos(t) * x * y, np.ones(np.shape(x))])
    spaces = build_spaces(mesh_cache(2), 2)
    for field in (mixed, plain):
        for load in ("body_force", "dirichlet_velocity"):
            with pytest.raises(MixedElastError, match=load):
                assemble(spaces, MaterialModel(mu=1.0, lambda_=1.0), **{load: field})


@pytest.mark.parametrize("which", ["uniform", "no-congruent"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_range_pattern_does_not_depend_on_values(mesh_cache, k, which):
    # every local entry is kept, so E_r's pattern, and the condensed pattern
    # of the Schur complement LU with its source maps, follow from the DOF
    # maps alone; E_r is bitwise symmetric, so its CSR arrays are its CSC
    # arrays; K_r on E_r's pattern is B^T M^-1 B
    mesh = mesh_cache(2) if which == "uniform" else _mesh_without_congruent_triangles(k)
    spaces = build_spaces(mesh, k)
    systems = [assemble(spaces, MaterialModel(mu=mu, lambda_=lam, rho=rho))
               for mu, lam, rho in ((1.0, 1.0, 1.0), (0.3, 1e4, 2.5))]
    first, first_E = systems[0].Eop, systems[0].Eop.tocsr()
    for system in systems:
        E = system.Eop.tocsr()
        K = dataclasses.replace(system.Eop, blocks=system.Kblocks).tocsr()
        for op in (E, K):
            assert np.array_equal(op.indptr, first_E.indptr)
            assert np.array_equal(op.indices, first_E.indices)
        for a, b in zip(pattern_arrays(system.Eop) + [system.Eop.kept]
                        + [lv.table for lv in system.Eop.levels],
                        pattern_arrays(first) + [first.kept] + [lv.table for lv in first.levels]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        Et = E.T.tocsr()
        Et.sort_indices()
        assert np.array_equal(Et.indptr, E.indptr) and np.array_equal(Et.indices, E.indices)
        assert np.array_equal(Et.data.view(np.uint8), E.data.view(np.uint8))
        B = system.Bmat
        ref = (B.T @ (sps.diags(1.0 / system.Mdiag) @ B)).toarray()
        assert np.abs(K.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("mesh", ["uniform-1", "uniform-3", "uniform-4", "jittered-4"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_range_operator_matches_its_csr(mesh, k):
    # E_r, and the L2 pairing of the elliptic projection, are applied from
    # their local blocks, one per congruence class (on the jittered mesh each
    # triangle is a class of its own); the product is the CSR product up to
    # the order of its sums, for a real and for a complex x
    jittered = mesh == "jittered-4"
    mesh = _jittered(4) if jittered else build_uniform_square_mesh(int(mesh[-1]))
    spaces = build_spaces(mesh, k)
    if jittered:
        assert len(spaces.class_tris) == len(mesh.triangles)
    system = assemble(spaces, MaterialModel(mu=0.7, lambda_=3.0, rho=1.3))
    rng = np.random.default_rng(k)
    for op in (system.Eop, l2_pairing(system)):
        E, x = op.tocsr(), rng.standard_normal(spaces.dim_x)
        for x in (x, x + 1j * rng.standard_normal(spaces.dim_x)):
            got, ref = op @ x, E @ x
            assert got.dtype == ref.dtype
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_l2_pairing_is_exact_entry_by_entry(spaces_cache, k):
    # E_r of the L2 mass, E_r's blocks with the compliance's replaced by the
    # mass's, is E_r - A + mass exactly, on E_r's pattern; its operator
    # shares E_r's table and condensed pattern
    system = assemble(spaces_cache(4, k), MaterialModel(mu=0.7, lambda_=3.0))
    E, A, mass = system.Eop.tocsr(), system.Amat, stress_mass(system.spaces)
    op = l2_pairing(system)
    got = op.tocsr()
    assert np.array_equal(got.indices, E.indices) and np.array_equal(got.indptr, E.indptr)
    assert np.array_equal(got.data, E.data - A.data + mass.data)
    assert op.table is system.Eop.table and op.bounds == system.Eop.bounds
    assert all(a is b for a, b in zip(pattern_arrays(op), pattern_arrays(system.Eop)))


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (8, 3), (16, 2)])
def test_c_is_held_as_the_rotation_rows_of_e_r(spaces_cache, n, k):
    # C is not scattered on its own: Cmat is formed from E_r's rotation rows,
    # and its arrays are bitwise those of the local couplings' own scatter
    spaces = spaces_cache(n, k)
    system = assemble(spaces, MaterialModel(mu=0.7, lambda_=3.0))
    ns, tc = spaces.stress_map[0].size, spaces.tri_class
    ref = _scatter(system.Eop.blocks[tc, ns:, :ns], spaces.rotation_map[:, :, None],
                   spaces.stress_map.reshape(len(tc), 1, -1), (spaces.dim_x, spaces.dim_x))
    got = system.Cmat
    for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices), (got.data, ref.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_range_operator_holds_class_blocks_and_one_table(mesh_cache, k):
    # the system holds E_r's local blocks once per class, no (T, 2 nd + m,
    # 2 nd + m) array of them, and its DOF table once; the pattern's arrays
    # are held at their own length, not as views of the sorted local entries
    spaces = build_spaces(mesh_cache(4), k)
    system = assemble(spaces, MaterialModel(mu=0.7, lambda_=3.0))
    nt, width = len(spaces.tri_class), spaces.stress_map[0].size + spaces.n_scalar
    assert system.Eop.blocks.shape == (2, width, width)
    held = [a for a in _reachable(system) if isinstance(a, np.ndarray)]
    assert not [a for a in held if a.shape == (nt, width, width)]
    assert sum(a.shape == (nt, width) for a in held) == 1
    assert all(a.base is None for a in pattern_arrays(system.Eop))


@pytest.mark.parametrize("name", ["uniform-1", "uniform-6", "jittered-4", "uniform-32"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_levels_hold_x_unknowns(name, k):
    # every level numbers its unknowns as x does: the triangles' table holds
    # all of x, and a cell level's only the unknowns that the level below
    # keeps, each of them, or dim_x, one past x, at a spare slot (n = 6 has
    # smaller cells at the right and top); the top pattern's indices are
    # positions in the top's kept set, the one other numbering
    mesh = _jittered(4) if name == "jittered-4" else build_uniform_square_mesh(int(name[8:]))
    spaces = build_spaces(mesh, k)
    op, n = assemble(spaces, MaterialModel(mu=1.0, lambda_=1.0)).Eop, spaces.dim_x
    assert np.array_equal(np.unique(op.levels[0].table), np.arange(n))
    for below, level in zip(op.levels, op.levels[1:]):
        held = np.unique(level.table)
        assert np.array_equal(held[held < n], kept(below, n)) and held.max() <= n
    assert any(level.table.max() == n for level in op.levels) == (name == "uniform-6")
    assert np.array_equal(op.kept, kept(op.levels[-1], n))
    ones = np.ones((len(op.levels[-1].bounds) - 1,) + (np.count_nonzero(op.levels[-1].keep),) * 2)
    ref = scatter_complement(op.levels[-1], ones, n)
    assert np.array_equal(ref.indptr, op.indptr) and np.array_equal(ref.indices, op.indices)
