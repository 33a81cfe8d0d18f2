import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps

from mixedelast import (InitialData, MixedElastError, assemble, build_initial_data,
                        builtin_case, canonical_interpolation, dynamics, integrate,
                        l2_project_velocity, reconstruct_displacement_third_order)
from mixedelast.dynamics import RADAU2_A, RADAU2_B, RADAU2_C, step_count
from _oracles import (cn_kernel, dense_cn_trajectory, dense_radau_trajectory,
                      dense_system_blocks, energy, radau2_kernel, step_matrix)


def _scalar_system():
    E = sps.csr_matrix(np.array([[1.0]]))
    G = sps.csr_matrix(np.array([[-1.0]]))
    return E, G


def test_tableau_invariants():
    assert np.abs(RADAU2_A.sum(axis=1) - RADAU2_C).max() <= 1e-15
    assert abs(RADAU2_B.sum() - 1.0) <= 1e-15
    assert np.allclose(RADAU2_C, [1.0 / 3.0, 1.0])
    assert np.allclose(RADAU2_A, [[5 / 12, -1 / 12], [3 / 4, 1 / 4]])
    assert np.allclose(RADAU2_B, [3 / 4, 1 / 4])


def test_cn_scalar_decay():
    E, G = _scalar_system()
    y1 = cn_kernel(E, G, np.array([1.0]), 1.0, np.zeros(1))
    assert y1[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_radau_scalar_decay():
    E, G = _scalar_system()
    y1, k1 = radau2_kernel(E, G, np.array([1.0]), 1.0, np.zeros(1), np.zeros(1))
    assert abs(y1[0] - 4.0 / 11.0) <= 1e-14


def test_radau_zero_derivative_keeps_state():
    E = sps.csr_matrix(np.array([[1.0]]))
    G = sps.csr_matrix(np.array([[0.0]]))
    y1, k1 = radau2_kernel(E, G, np.array([0.7]), 0.5, np.zeros(1), np.zeros(1))
    assert y1[0] == 0.7 and k1[0] == 0.0


def test_radau_exact_on_quadratic_forcing():
    # ydot = 3 t^2 integrates exactly (order >= 3 on polynomials)
    E = sps.csr_matrix(np.array([[1.0]]))
    G = sps.csr_matrix(np.array([[0.0]]))
    y = np.array([0.0])
    dt = 0.25
    for i in range(4):
        t = i * dt
        f1 = np.array([3.0 * (t + dt / 3.0) ** 2])
        f2 = np.array([3.0 * (t + dt) ** 2])
        y, _ = radau2_kernel(E, G, y, dt, f1, f2)
    assert y[0] == pytest.approx(1.0, abs=1e-14)


def test_reconstruction_rule():
    # v(t) = t: V0 = 0, Vdot = 1
    u1 = reconstruct_displacement_third_order(np.zeros(1), np.zeros(1), np.ones(1), 1.0)
    assert u1[0] == pytest.approx(0.5, abs=1e-15)
    # v(t) = t^2: V0 = 0, Vdot(1/3) = 2/3
    u1 = reconstruct_displacement_third_order(np.zeros(1), np.zeros(1),
                                              np.array([2.0 / 3.0]), 1.0)
    assert u1[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    # v(t) = t^3: exact 1/4, rule gives (1/2) * 3 * (1/3)^2 = 1/6
    u1 = reconstruct_displacement_third_order(np.zeros(1), np.zeros(1),
                                              np.array([3.0 / 9.0]), 1.0)
    assert abs(0.25 - u1[0]) == pytest.approx(1.0 / 12.0, abs=1e-15)


@pytest.fixture(scope="module")
def small_system():
    case = builtin_case("eg1")
    mesh = __import__("mixedelast").build_uniform_square_mesh(1)
    spaces = __import__("mixedelast").build_spaces(mesh, 1)
    return assemble(spaces, case.material, body_force=case.f), spaces, case


def _zero_initial_data(spaces):
    return InitialData(sigma0=np.zeros(spaces.dim_stress), v0=np.zeros(spaces.dim_velocity),
                       r0=np.zeros(spaces.dim_rotation), u0=np.zeros(spaces.dim_velocity))


def test_zero_data_zero_trajectory(small_system):
    system, spaces, _ = small_system
    sysz = assemble(spaces, system.material)  # no loads
    init = _zero_initial_data(spaces)
    traj = integrate(sysz, init, "cn", 0.1, 1.0)
    st = traj.final_state
    assert np.abs(st.alpha).max() <= 1e-14
    assert np.abs(st.beta).max() <= 1e-14
    assert np.abs(st.u).max() <= 1e-14


def test_energy_zero_state_and_scaling(small_system):
    # the energy integrate records for its initial state
    system, spaces, case = small_system
    nM, nV, nK = system.dims

    def recorded_energy(sigma0, v0):
        init = InitialData(sigma0=sigma0, v0=v0, r0=np.zeros(nK), u0=np.zeros(nV))
        return integrate(system, init, "cn", 0.5, 0.5).energies[0]

    assert recorded_energy(np.zeros(nM), np.zeros(nV)) == 0.0
    rng = np.random.default_rng(0)
    sigma0, v0 = rng.standard_normal(nM), rng.standard_normal(nV)
    e1 = recorded_energy(sigma0, v0)
    assert e1 > 0.0
    assert recorded_energy(3.0 * sigma0, 3.0 * v0) == pytest.approx(9.0 * e1, rel=1e-13)


def test_cn_energy_conservation_and_expm_oracle(small_system):
    system, spaces, case = small_system
    sysz = assemble(spaces, system.material)
    v0 = l2_project_velocity(spaces, lambda x, y: case.v(0.0, x, y), degree=12)
    init = InitialData(sigma0=np.zeros(spaces.dim_stress), v0=v0,
                       r0=np.zeros(spaces.dim_rotation),
                       u0=np.zeros(spaces.dim_velocity))
    traj = integrate(sysz, init, "cn", 0.05, 5.0)
    e = traj.energies
    assert np.abs(e - e[0]).max() <= 1e-10 * e[0]

    # exact propagator conserves the same energy
    E, G = dense_system_blocks(sysz)
    y0 = np.concatenate([init.sigma0, init.v0, init.r0])
    yT = scipy.linalg.expm(5.0 * np.linalg.solve(E, G)) @ y0
    nM, nV = spaces.dim_stress, spaces.dim_velocity
    eT = 0.5 * (yT[:nM] @ (sysz.Amat @ yT[:nM]) + yT[nM:nM + nV] @ (sysz.Mmat @ yT[nM:nM + nV]))
    assert eT == pytest.approx(e[0], rel=1e-9)


def test_radau_energy_never_increases(small_system):
    system, spaces, case = small_system
    sysz = assemble(spaces, system.material)
    v0 = l2_project_velocity(spaces, lambda x, y: case.v(0.0, x, y), degree=12)
    init = InitialData(sigma0=np.zeros(spaces.dim_stress), v0=v0,
                       r0=np.zeros(spaces.dim_rotation),
                       u0=np.zeros(spaces.dim_velocity))
    traj = integrate(sysz, init, "radau2", 0.05, 5.0)
    growth = np.diff(traj.energies).max()
    assert growth <= 1e-12 * traj.energies[0]


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_constraint_preserved(scheme):
    import mixedelast as me
    case = builtin_case("eg1")
    mesh = me.build_uniform_square_mesh(4)
    spaces = me.build_spaces(mesh, 2)
    system = assemble(spaces, case.material, body_force=case.f)
    init = build_initial_data(case, system)
    traj = integrate(system, init, scheme, 0.25, 1.0)
    assert traj.max_constraint_rel <= 1e-12


def test_trace_moment_conserved():
    # (A sigma_h, I) is constant in time for homogeneous boundary data
    import mixedelast as me
    case = builtin_case("eg1")
    mesh = me.build_uniform_square_mesh(4)
    spaces = me.build_spaces(mesh, 2)
    system = assemble(spaces, case.material, body_force=case.f)
    init = build_initial_data(case, system)

    def identity_field(x, y):
        out = np.zeros((2, 2) + np.shape(x))
        out[0, 0] = 1.0
        out[1, 1] = 1.0
        return out

    iota = canonical_interpolation(spaces, identity_field)
    vals = []

    def observer(step, t, st, system):
        vals.append(iota @ (system.Amat @ st.alpha))

    traj = integrate(system, init, "cn", 0.25, 2.0, observers=[observer])
    vals = np.array(vals)
    scale = max(np.abs(vals).max(), np.abs(traj.final_state.alpha).max())
    assert np.abs(vals - vals[0]).max() <= 1e-10 * scale


def _load_fn(system):
    nM, nV, nK = system.dims

    def loads(t):
        F = np.zeros(nM + nV + nK)
        F[:nM] = system.dirichlet_load(t)
        F[nM:nM + nV] = system.load(t)
        return F

    return loads


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_step_matches_dense(small_system, scheme):
    # the body load varies in time, so the two RadauIIA stage loads differ
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    y0 = np.concatenate([init.sigma0, init.v0, init.r0])
    st1 = integrate(system, init, scheme, 0.1, 0.1).final_state
    dense_trajectory = dense_cn_trajectory if scheme == "cn" else dense_radau_trajectory
    dense = dense_trajectory(system, y0, 0.1, 1, _load_fn(system))[-1]
    got = np.concatenate([st1.alpha, st1.beta, st1.gamma])
    assert np.abs(got - dense).max() <= 1e-10


def test_full_trajectories_match_dense(small_system):
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    y0 = np.concatenate([init.sigma0, init.v0, init.r0])
    loads = _load_fn(system)

    traj = integrate(system, init, "cn", 0.125, 1.0)
    dense = dense_cn_trajectory(system, y0, 0.125, 8, loads)[-1]
    got = np.concatenate([traj.final_state.alpha, traj.final_state.beta,
                          traj.final_state.gamma])
    assert np.abs(got - dense).max() <= 1e-9

    trajr = integrate(system, init, "radau2", 0.125, 1.0)
    denser = dense_radau_trajectory(system, y0, 0.125, 8, loads)[-1]
    gotr = np.concatenate([trajr.final_state.alpha, trajr.final_state.beta,
                           trajr.final_state.gamma])
    assert np.abs(gotr - denser).max() <= 1e-9


def test_radau_step_returns_stage_derivative(small_system):
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    stepper = dynamics._Stepper(system, "radau2", 0.1)
    y = stepper.pack(init.sigma0, init.v0, init.r0)
    _, u1, k1_beta = stepper.advance(0.0, y, stepper.eprod(y), init.u0)
    assert k1_beta.shape == (spaces.dim_velocity,)
    expect_u = reconstruct_displacement_third_order(init.u0, init.v0, k1_beta, 0.1)
    assert np.abs(u1 - expect_u).max() == 0.0


def test_integrate_validates_dt(small_system):
    system, spaces, _ = small_system
    init = _zero_initial_data(spaces)
    with pytest.raises(MixedElastError):
        integrate(system, init, "cn", 0.3, 1.0)
    with pytest.raises(MixedElastError):
        integrate(system, init, "leapfrog", 0.5, 1.0)


@pytest.mark.parametrize("dt,T0", [(float("nan"), 1.0), (1.0, float("nan")),
                                   (1.0, float("inf")), (float("inf"), 1.0)])
def test_step_count_rejects_non_finite(dt, T0):
    with pytest.raises(MixedElastError):
        step_count(dt, T0)


def test_singular_step_detected(small_system):
    # zeroed stress and symmetry blocks make E - dt/2 G exactly singular
    from mixedelast import SingularSystemError
    system, spaces, _ = small_system
    broken = type(system)(
        Amat=sps.csr_matrix(system.Amat.shape), Bmat=sps.csr_matrix(system.Bmat.shape),
        Cmat=sps.csr_matrix(system.Cmat.shape), Mmat=system.Mmat, load=system.load,
        dirichlet_load=system.dirichlet_load, spaces=system.spaces,
        material=system.material)
    with pytest.raises(SingularSystemError):
        integrate(broken, _zero_initial_data(spaces), "cn", 0.1, 0.1)


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_factorization_cached(small_system, scheme):
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    integrate(system, init, scheme, 0.1, 0.1)
    factors = system._cache["factors"]
    assert (scheme, 0.1) in factors
    before = factors[(scheme, 0.1)]
    integrate(system, init, scheme, 0.1, 0.1)
    assert factors[(scheme, 0.1)] is before
    # the LU holds the (sigma, gamma) Schur complement only: the velocity block
    # is eliminated, and RadauIIA needs no real 2N x 2N stage matrix
    nM, _, nK = system.dims
    assert before._lu.shape == (nM + nK, nM + nK)


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_step_matches_dense_variable_density(scheme):
    # rho = 1 + x makes each m x m velocity mass block full (m = 3 at k = 2),
    # so the eliminated velocity needs the exact block inverse of M
    import mixedelast as me
    case = builtin_case("eg1")
    material = me.MaterialModel(mu=1.0, lambda_=1.0, rho=lambda x, y: 1.0 + x,
                                rho0=1.0, rho1=2.0)
    mesh = me.build_uniform_square_mesh(1)
    spaces = me.build_spaces(mesh, 2)
    system = assemble(spaces, material, body_force=case.f)
    rng = np.random.default_rng(3)
    nM, nV, nK = system.dims
    y0 = rng.standard_normal(nM + nV + nK)
    init = InitialData(sigma0=y0[:nM], v0=y0[nM:nM + nV], r0=y0[nM + nV:], u0=np.zeros(nV))
    st1 = integrate(system, init, scheme, 0.1, 0.1).final_state
    dense_trajectory = dense_cn_trajectory if scheme == "cn" else dense_radau_trajectory
    dense = dense_trajectory(system, y0, 0.1, 1, _load_fn(system))[-1]
    got = np.concatenate([st1.alpha, st1.beta, st1.gamma])
    assert np.abs(got - dense).max() <= 1e-10


def test_step_residual_checked_on_first_solve(small_system, monkeypatch):
    # an LU of a perturbed step matrix solves without error, so only the
    # residual check against the true step matrix can catch it
    import scipy.sparse.linalg as spla
    from mixedelast import SingularSystemError
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, *args, **kwargs: splu(
        (A + 1e-3 * sps.identity(A.shape[0], format="csc")).tocsc(), *args, **kwargs))
    fresh = assemble(spaces, system.material, body_force=case.f)
    with pytest.raises(SingularSystemError, match="residual"):
        integrate(fresh, init, "cn", 0.1, 0.1)
    with pytest.raises(SingularSystemError, match="residual"):
        integrate(fresh, init, "radau2", 0.1, 0.1)


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_step_lu_detects_rotation_constraint_not_onto(small_system, scheme):
    # with one row of C zeroed, C is not onto, so the (sigma, gamma) Schur
    # complement [[A + (dt c)^2 B^T M^-1 B, C^T], [C, 0]] is singular; zero
    # initial data skip the saddle LU, so this is the run's check of C
    from mixedelast import SingularSystemError
    system, spaces, _ = small_system
    C = system.Cmat.tolil()
    C[0, :] = 0.0
    broken = type(system)(
        Amat=system.Amat, Bmat=system.Bmat, Cmat=C.tocsr(), Mmat=system.Mmat,
        load=system.load, dirichlet_load=system.dirichlet_load,
        spaces=system.spaces, material=system.material)
    with pytest.raises(SingularSystemError, match="step factorization"):
        integrate(broken, _zero_initial_data(spaces), scheme, 0.1, 0.1)


def _eg2_system(n, k):
    import mixedelast as me
    case = builtin_case("eg2", alpha=2.2)
    mesh = me.build_uniform_square_mesh(n)
    return assemble(me.build_spaces(mesh, k), case.material,
                    body_force=case.f, dirichlet_velocity=case.g)


def test_step_order_built_once_per_system(monkeypatch):
    # both schemes and every dt of a system factor in the one cached order
    import scipy.sparse.linalg as spla
    from mixedelast.dynamics import _factorize
    system = _eg2_system(2, 2)
    splu, orderings = spla.splu, []

    def counting(A, *args, **kwargs):
        if kwargs.get("permc_spec") == "MMD_AT_PLUS_A":
            orderings.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    for scheme, dt in (("cn", 0.1), ("radau2", 0.1), ("cn", 0.05)):
        _factorize(system, scheme, dt)
    assert len(orderings) == 1
    order = system._cache["order"]
    nM, _, nK = system.dims
    assert np.array_equal(np.sort(order), np.arange(nM + nK))
    assert all(lu.pattern is system._cache["schur"] for lu in system._cache["factors"].values())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rotations_follow_half_their_stresses(k):
    from mixedelast.statics import _step_order
    system = _eg2_system(4, k)
    spaces = system.spaces
    nM, _, nK = system.dims
    position = np.empty(nM + nK, dtype=int)
    position[_step_order(system)] = np.arange(nM + nK)
    nrow, m = spaces.n_row_global, spaces.n_scalar
    stress = position[np.hstack([spaces.row_dof_map, spaces.row_dof_map + nrow])]
    rotation = position[nM:].reshape(-1, m)
    before = (stress[:, None, :] < rotation[:, :, None]).sum(axis=2)
    # at least half, and not all: a rotation after all its stresses fills more
    assert before.min() >= stress.shape[1] // 2
    assert before.max() < stress.shape[1]


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_ordered_step_solve_matches_colamd(k, scheme):
    import scipy.sparse.linalg as spla
    from mixedelast.dynamics import _factorize
    system = _eg2_system(4, k)
    dt = 0.25
    rng = np.random.default_rng(k)
    rhs = rng.standard_normal(sum(system.dims))
    if scheme == "radau2":
        rhs = rhs + 1j * rng.standard_normal(rhs.size)
    lu = _factorize(system, scheme, dt)
    perm = lu.pattern.perm  # the natural index of each position of the LU's layout
    got = np.empty_like(rhs)
    got[perm] = lu.solve(rhs[perm])
    S = step_matrix(*dense_system_blocks(system), scheme, dt)
    ref = spla.splu(sps.csc_matrix(S)).solve(rhs)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_ordered_step_lu_fill():
    # eg2, k=2, n=16, dt=1/16: 2,957,511 L+U nonzeros in SuperLU's default
    # COLAMD order, 735,598 in the mesh-entity order
    from mixedelast.dynamics import _factorize
    lu = _factorize(_eg2_system(16, 2), "cn", 1.0 / 16)._lu
    assert lu.L.nnz + lu.U.nnz <= 1_000_000


@pytest.mark.parametrize("name,n,k,scheme", [("eg2", 8, 2, "cn"), ("eg3", 4, 3, "radau2")])
def test_step_lu_pivots_on_its_diagonal(name, n, k, scheme):
    # the entity order's symmetric pivot sequence is kept: SuperLU makes no
    # row interchange
    import mixedelast as me
    from mixedelast.dynamics import _factorize
    case = builtin_case(name, alpha=2.2 if name == "eg2" else None)
    mesh = me.build_uniform_square_mesh(n)
    system = assemble(me.build_spaces(mesh, k), case.material, body_force=case.f,
                      dirichlet_velocity=case.g)
    lu = _factorize(system, scheme, 1.0 / n)._lu
    assert np.array_equal(lu.perm_r, np.arange(lu.shape[0]))


def test_step_residual_checked_on_a_doubling_cadence():
    # an LU that goes wrong after step 1 is caught by the check of solve 2;
    # solves 1, 2, 4, 8, ... are checked
    from mixedelast import SingularSystemError
    system = _eg2_system(2, 2)
    nM, nV, nK = system.dims
    rng = np.random.default_rng(5)
    init = InitialData(sigma0=rng.standard_normal(nM), v0=rng.standard_normal(nV),
                       r0=rng.standard_normal(nK), u0=np.zeros(nV))

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1e-6)

    steps = []

    def swap_after_step_1(step, t, st, system):
        steps.append(step)
        if step == 1:
            lu = system._cache["factors"]["cn", 0.125]
            lu._lu = Perturbed(lu._lu)

    with pytest.raises(SingularSystemError, match="residual"):
        integrate(system, init, "cn", 0.125, 1.0, observers=[swap_after_step_1])
    assert steps == [0, 1]


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_records_match_observed_states(scheme):
    # energy and constraint drift come from each state's own E-product
    system = _eg2_system(4, 2)
    nM, nV, nK = system.dims
    rng = np.random.default_rng(7)
    init = InitialData(sigma0=rng.standard_normal(nM), v0=rng.standard_normal(nV),
                       r0=rng.standard_normal(nK), u0=np.zeros(nV))
    states = []
    traj = integrate(system, init, scheme, 0.125, 1.0,
                     observers=[lambda step, t, st, system: states.append(st)])
    C = system.Cmat
    c0 = C @ init.sigma0
    energies = np.array([energy(system, st) for st in states])
    cnorms = np.array([np.linalg.norm(C @ st.alpha - c0) for st in states])
    anorms = np.array([np.linalg.norm(st.alpha) for st in states])
    assert np.abs(traj.energies - energies).max() <= 1e-13 * energies.max()
    assert np.abs(traj.constraint_norms - cnorms).max() <= 1e-13 * np.linalg.norm(c0)
    assert np.abs(traj.alpha_norms - anorms).max() <= 1e-13 * anorms.max()
    assert np.array_equal(traj.times, [st.t for st in states])


def test_no_full_step_matrix_cached():
    # the steps apply the (sigma, gamma) block of E and eliminate the velocity;
    # no N x N matrix is built or kept
    system = _eg2_system(2, 2)
    nM, nV, nK = system.dims
    N = nM + nV + nK
    init = InitialData(sigma0=np.zeros(nM), v0=np.ones(nV), r0=np.zeros(nK),
                       u0=np.zeros(nV))
    integrate(system, init, "cn", 0.25, 0.5)
    integrate(system, init, "cn", 0.1, 0.1)
    integrate(system, init, "radau2", 0.1, 0.1)

    seen = set()

    def matrices(value):
        if id(value) in seen:
            return
        seen.add(id(value))
        if sps.issparse(value) or isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (dict, tuple)):
            for v in (value.values() if isinstance(value, dict) else value):
                yield from matrices(v)
        elif hasattr(value, "__dict__"):
            yield from matrices(vars(value))

    shapes = [m.shape for m in matrices(system._cache)]
    assert shapes and (N, N) not in shapes
    assert all(max(shape, default=0) < N for shape in shapes if len(shape) == 2)
