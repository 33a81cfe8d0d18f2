import dataclasses

import numpy as np
import pytest
import scipy.sparse as sps
import sympy as sp

from mixedelast import (MaterialModel, MixedElastError, assemble,
                        assemble_body_load, assemble_dirichlet_load,
                        assemble_stress_mass, build_spaces, build_uniform_square_mesh,
                        builtin_case)
from mixedelast.assembly import SeparatedField, _class_tables, _compliance, _dirichlet_operator
from mixedelast.mesh import _connect

from conftest import _reachable
from _oracles import (_load_field, _separate, canonical_interpolation, dense_assemble,
                      dense_body_load, dense_dirichlet_load, dense_system_blocks,
                      isotropic_stiffness_apply, rotation_mask, triangle_areas)


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
    rhs = assemble_stress_mass(spaces) @ interpolant(image)
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
    # patterns, so the A formed from it is the assembled compliance exactly
    case = builtin_case("eg2", alpha=2.2)
    spaces = build_spaces(mesh_cache(4), k)
    got = assemble(spaces, case.material).Amat
    W, V, _, _ = _class_tables(spaces)
    ref = _compliance(spaces, W, V, case.material.mu, case.material.lambda_)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data.view(np.uint8), ref.data.view(np.uint8))


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


@pytest.mark.parametrize("k", [1, 2])
def test_oracle_equivalence_without_congruent_triangles(unit_material, k):
    # the interior vertex of the n=2 mesh moved off the grid: no two of the 8
    # triangles are congruent, so each is a class of its own
    mesh = build_uniform_square_mesh(2)
    vertices = mesh.vertices.copy()
    vertices[4] += np.random.default_rng(k).uniform(-0.1, 0.1, 2)
    spaces = build_spaces(_connect(vertices, mesh.triangles), k)
    assert np.array_equal(spaces.tri_class[spaces.class_tris], np.arange(8))
    system = assemble(spaces, unit_material)
    A, B, C, M = dense_assemble(spaces, unit_material)
    assert np.abs(system.Amat.toarray() - A).max() <= 1e-12
    assert np.abs(system.Bmat.toarray() - B).max() <= 1e-12
    assert np.abs(system.Cmat.toarray() - C).max() <= 1e-12
    assert np.abs(system.Mmat.toarray() - M).max() <= 1e-12


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
    # sorted column indices, no duplicates and no explicit zeros: the fill of
    # the entity-ordered step LU depends on this structure
    spaces = spaces_cache(2, k)
    system = assemble(spaces, MaterialModel(mu=1.0, lambda_=1.0, rho=rho))
    _, dirichlet = _dirichlet_operator(spaces)
    for op in (system.Amat, system.Bmat, system.Cmat, system.Mmat, system.Minv,
               assemble_stress_mass(spaces), dirichlet):
        assert op.format == "csr"
        assert sps.csr_matrix((op.data, op.indices, op.indptr), shape=op.shape).has_canonical_format
        assert np.all(op.data != 0.0)
    # the L2 mass pairs each tensor row with itself only: no stored entry, not
    # even a roundoff one, couples a row-0 stress with a row-1 stress
    row = np.full(spaces.dim_x, -1)
    row[spaces.stress_map] = np.arange(2)[:, None]
    mass = assemble_stress_mass(spaces).tocoo()
    assert not np.any(row[mass.row] + row[mass.col] == 1)


def test_stress_mass_spd(mesh_cache, spaces_cache):
    spaces = spaces_cache(1, 1)
    dense = _stress_block(spaces, assemble_stress_mass(spaces))
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
