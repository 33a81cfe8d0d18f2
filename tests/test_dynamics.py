import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps

from mixedelast import (InitialData, MixedElastError, SingularSystemError, assemble,
                        build_initial_data, builtin_case, dynamics, integrate,
                        l2_project_velocity, statics)
from mixedelast.dynamics import RADAU2_A, RADAU2_B, RADAU2_C, step_count
from conftest import _reachable
from _oracles import (canonical_interpolation, cn_kernel, dense_cn_trajectory,
                      dense_radau_trajectory, dense_system_blocks, energy, radau2_kernel,
                      reconstruct_displacement_third_order, step_matrix, stress_part)


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


def test_radau_eigenpair_diagonalises_the_tableau():
    # the constants the RadauIIA update reads: A v = lam v for the first
    # column v of V, and the first row w of V^-1 gives w.v = 1
    v, w = np.array(dynamics._RADAU_V0), np.array(dynamics._RADAU_W0)
    assert np.abs(RADAU2_A @ v - dynamics._RADAU_LAMBDA * v).max() <= 1e-15
    assert abs(w @ v - 1.0) <= 1e-15


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
    # the oracle's formula; test_radau_step_returns_stage_derivative holds
    # the stepper's update to it bitwise
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
    return InitialData(x0=np.zeros(spaces.dim_x), v0=np.zeros(spaces.dim_velocity),
                       u0=np.zeros(spaces.dim_velocity))


def test_zero_data_zero_trajectory(small_system):
    system, spaces, _ = small_system
    sysz = assemble(spaces, system.material)  # no loads
    init = _zero_initial_data(spaces)
    traj = integrate(sysz, init, "cn", 0.1, 1.0)
    st = traj.final_state
    assert np.abs(st.x).max() <= 1e-14
    assert np.abs(st.beta).max() <= 1e-14
    assert np.abs(st.u).max() <= 1e-14


def test_energy_zero_state_and_scaling(small_system):
    # the energy integrate records for its initial state
    system, spaces, case = small_system
    n, nV = spaces.dim_x, spaces.dim_velocity

    def recorded_energy(sigma0, v0):
        init = InitialData(x0=sigma0, v0=v0, u0=np.zeros(nV))
        return integrate(system, init, "cn", 0.5, 0.5).energies[0]

    assert recorded_energy(np.zeros(n), np.zeros(nV)) == 0.0
    rng = np.random.default_rng(0)
    sigma0, v0 = stress_part(spaces, rng.standard_normal(n)), rng.standard_normal(nV)
    e1 = recorded_energy(sigma0, v0)
    assert e1 > 0.0
    assert recorded_energy(3.0 * sigma0, 3.0 * v0) == pytest.approx(9.0 * e1, rel=1e-13)


def test_cn_energy_conservation_and_expm_oracle(small_system):
    system, spaces, case = small_system
    sysz = assemble(spaces, system.material)
    v0 = l2_project_velocity(spaces, lambda x, y: case.v(0.0, x, y), degree=12)
    init = InitialData(x0=np.zeros(spaces.dim_x), v0=v0, u0=np.zeros(spaces.dim_velocity))
    traj = integrate(sysz, init, "cn", 0.05, 5.0)
    e = traj.energies
    assert np.abs(e - e[0]).max() <= 1e-10 * e[0]

    # exact propagator conserves the same energy
    E, G = dense_system_blocks(sysz)
    y0 = np.concatenate([init.x0, init.v0])
    yT = scipy.linalg.expm(5.0 * np.linalg.solve(E, G)) @ y0
    n = spaces.dim_x
    A = sysz.Amat
    eT = 0.5 * (yT[:n] @ (A @ yT[:n]) + yT[n:] @ (sysz.Mmat @ yT[n:]))
    assert eT == pytest.approx(e[0], rel=1e-9)


def test_radau_energy_never_increases(small_system):
    system, spaces, case = small_system
    sysz = assemble(spaces, system.material)
    v0 = l2_project_velocity(spaces, lambda x, y: case.v(0.0, x, y), degree=12)
    init = InitialData(x0=np.zeros(spaces.dim_x), v0=v0, u0=np.zeros(spaces.dim_velocity))
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
    A = system.Amat
    vals = []

    def observer(step, t, st, system):
        vals.append(iota @ (A @ st.x))

    traj = integrate(system, init, "cn", 0.25, 2.0, observers=[observer])
    vals = np.array(vals)
    scale = max(np.abs(vals).max(), np.abs(traj.final_state.x[spaces.stress_map]).max())
    assert np.abs(vals - vals[0]).max() <= 1e-10 * scale


def _load_fn(system):
    return lambda t: np.concatenate([system.dirichlet_load(t), system.load(t)])


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_step_matches_dense(small_system, scheme):
    # the body load varies in time, so the two RadauIIA stage loads differ
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    y0 = np.concatenate([init.x0, init.v0])
    st1 = integrate(system, init, scheme, 0.1, 0.1).final_state
    dense_trajectory = dense_cn_trajectory if scheme == "cn" else dense_radau_trajectory
    dense = dense_trajectory(system, y0, 0.1, 1, _load_fn(system))[-1]
    got = np.concatenate([st1.x, st1.beta])
    assert np.abs(got - dense).max() <= 1e-10


def test_full_trajectories_match_dense(small_system):
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    y0 = np.concatenate([init.x0, init.v0])
    loads = _load_fn(system)

    traj = integrate(system, init, "cn", 0.125, 1.0)
    dense = dense_cn_trajectory(system, y0, 0.125, 8, loads)[-1]
    got = np.concatenate([traj.final_state.x, traj.final_state.beta])
    assert np.abs(got - dense).max() <= 1e-9

    trajr = integrate(system, init, "radau2", 0.125, 1.0)
    denser = dense_radau_trajectory(system, y0, 0.125, 8, loads)[-1]
    gotr = np.concatenate([trajr.final_state.x, trajr.final_state.beta])
    assert np.abs(gotr - denser).max() <= 1e-9


def test_radau_step_returns_stage_derivative(small_system):
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    stepper = dynamics._Stepper(system, "radau2", 0.1)
    y = np.concatenate([init.x0, init.v0])
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
    n, nV, E = spaces.dim_x, spaces.dim_velocity, system.Eop
    zero = dataclasses.replace(E, blocks=np.zeros_like(E.blocks))
    broken = dataclasses.replace(system, Eop=zero, Bmat=sps.csr_matrix((nV, n)),
                                 Kblocks=np.zeros_like(system.Kblocks))
    assert broken.Cmat.nnz == system.Cmat.nnz and not broken.Cmat.data.any()
    with pytest.raises(SingularSystemError):
        integrate(broken, _zero_initial_data(spaces), "cn", 0.1, 0.1)


def test_non_finite_record_stops_at_its_step(monkeypatch):
    # with mu = 1e300 the energy of the first step overflows: integrate
    # raises there, with no numpy warning, and does not step on to T0
    import mixedelast as me
    case = builtin_case("eg1", mu=1e300)
    system = assemble(me.build_spaces(me.build_uniform_square_mesh(2), 1), case.material,
                      body_force=case.f)
    steps, advance = [], dynamics._Stepper.advance
    monkeypatch.setattr(dynamics._Stepper, "advance",
                        lambda *args: steps.append(1) or advance(*args))
    with pytest.raises(MixedElastError, match="^non-finite energy at step 1$"):
        integrate(system, build_initial_data(case, system), "cn", 0.1, 1.0)
    assert len(steps) == 1


def test_non_finite_step_stops_at_its_step(small_system, monkeypatch):
    # SchurLU residual-checks solves 1, 2, 4, 8, ... only: an inf from the
    # step LU's third solve is caught by the step's own check, and integrate
    # raises at step 3, after observing steps 0 to 2
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    solve = statics.SchurLU._solve

    def solve_inf_at_3(lu, rhs):
        x = solve(lu, rhs)
        if lu._solves == 3:
            x[0] = np.inf
        return x

    monkeypatch.setattr(statics.SchurLU, "_solve", solve_inf_at_3)
    steps = []
    with pytest.raises(SingularSystemError, match="^Crank-Nicolson step produced non-finite"):
        integrate(system, init, "cn", 0.1, 1.0, [lambda i, *args: steps.append(i)])
    assert steps == [0, 1, 2]


def test_non_finite_radau_step_stops_at_its_step(small_system, monkeypatch):
    # the RadauIIA twin: an inf in the third complex stage solve makes the
    # real stages inf and nan with no numpy warning, and the step's own check
    # raises at step 3, after observing steps 0 to 2
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    solve = statics.SchurLU._solve

    def solve_inf_at_3(lu, rhs):
        x = solve(lu, rhs)
        if lu._solves == 3:
            x[0] = np.inf
        return x

    monkeypatch.setattr(statics.SchurLU, "_solve", solve_inf_at_3)
    steps = []
    with pytest.raises(SingularSystemError, match="^RadauIIA step produced non-finite"):
        integrate(system, init, "radau2", 0.1, 1.0, [lambda i, *args: steps.append(i)])
    assert steps == [0, 1, 2]


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_step_lu_factors_the_schur_complement(small_system, monkeypatch, scheme):
    # the LU holds the complement of the (sigma, gamma) Schur complement on
    # the edge unknowns of the largest cells' boundaries only, here the 4 edges
    # of the n = 1 domain's boundary: the velocity block is eliminated, the
    # diagonal edge and the rotations by class blocks, and RadauIIA needs no
    # real 2N x 2N stage matrix; each integrate call factors its own
    system, spaces, case = small_system
    init = build_initial_data(case, system)
    calls, factorize = [], statics.factorize
    monkeypatch.setattr(statics, "factorize", lambda S, what:
                        calls.append((what, S.shape)) or factorize(S, what))
    integrate(system, init, scheme, 0.1, 0.1)
    integrate(system, init, scheme, 0.1, 0.1)
    n_e = len(system.Eop.levels[-1].kept)
    assert calls == [("step", (n_e, n_e))] * 2 and n_e == 4 * 2 * 2 < spaces.dim_x


def test_step_lu_freed_when_integrate_returns():
    # the step LU lives in the stepper of one integrate call; the system keeps
    # only its assembled operators
    import scipy.sparse.linalg as spla
    system = _eg2_system(2, 2)
    nV = system.spaces.dim_velocity
    init = InitialData(x0=np.zeros(system.spaces.dim_x), v0=np.ones(nV), u0=np.zeros(nV))
    for scheme in ("cn", "radau2"):
        integrate(system, init, scheme, 0.25, 0.5)
    assert not any(isinstance(value, (spla.SuperLU, statics.SchurLU))
                   for value in _reachable(system))


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_step_matches_dense_nonunit_density(scheme):
    # at rho = 2.5 the eliminated velocity needs M^-1 of the m x m velocity
    # mass blocks (m = 3 at k = 2) scaled by 1 / rho, not the unit-density one
    import mixedelast as me
    case = builtin_case("eg1")
    material = me.MaterialModel(mu=1.0, lambda_=1.0, rho=2.5)
    mesh = me.build_uniform_square_mesh(1)
    spaces = me.build_spaces(mesh, 2)
    system = assemble(spaces, material, body_force=case.f)
    rng = np.random.default_rng(3)
    n, nV = spaces.dim_x, spaces.dim_velocity
    y0 = rng.standard_normal(n + nV)
    init = InitialData(x0=y0[:n], v0=y0[n:], u0=np.zeros(nV))
    st1 = integrate(system, init, scheme, 0.1, 0.1).final_state
    dense_trajectory = dense_cn_trajectory if scheme == "cn" else dense_radau_trajectory
    dense = dense_trajectory(system, y0, 0.1, 1, _load_fn(system))[-1]
    got = np.concatenate([st1.x, st1.beta])
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
    # with the row of one rotation of C zeroed, C is not onto, so the (sigma,
    # gamma) Schur complement [[A + (dt c)^2 B^T M^-1 B, C^T], [C, 0]] is
    # singular; zero initial data skip the saddle LU, so this is the run's
    # check of C.  C is E_r's rotation rows, so breaking E_r breaks C: the
    # local row and column of the rotation in its triangle's class block are
    # C's and C^T's (each of the mesh's two triangles is a class of its own)
    from mixedelast import SingularSystemError
    system, spaces, _ = small_system
    rot = spaces.rotation_map[0, 0]
    E, ns = system.Eop, spaces.stress_map[0].size
    assert len(E.blocks) == len(spaces.tri_class)
    blocks = E.blocks.copy()
    blocks[spaces.tri_class[0], ns] = blocks[spaces.tri_class[0], :, ns] = 0.0
    broken = dataclasses.replace(system, Eop=dataclasses.replace(E, blocks=blocks))
    C = broken.Cmat
    assert C.indptr[rot + 1] > C.indptr[rot] and not C.data[C.indptr[rot]:C.indptr[rot + 1]].any()
    with pytest.raises(SingularSystemError, match="step factorization"):
        integrate(broken, _zero_initial_data(spaces), scheme, 0.1, 0.1)


def _eg2_system(n, k):
    import mixedelast as me
    case = builtin_case("eg2", alpha=2.2)
    mesh = me.build_uniform_square_mesh(n)
    return assemble(me.build_spaces(mesh, k), case.material,
                    body_force=case.f, dirichlet_velocity=case.g)


def test_step_order_built_once_per_system(monkeypatch):
    # the initial data, both schemes and every dt of a system factor with
    # the levels built once with it, and the saddle LU and the step LUs
    # share its E_r
    case = builtin_case("eg2", alpha=2.2)
    system = _eg2_system(2, 2)
    lus, schur_lu = [], statics.SchurLU.__init__
    monkeypatch.setattr(statics.SchurLU, "__init__",
                        lambda lu, *args: lus.append(lu) or schur_lu(lu, *args))
    init = build_initial_data(case, system)
    for scheme, dt in (("cn", 0.5), ("radau2", 0.5), ("cn", 0.25)):
        integrate(system, init, scheme, dt, 0.5)
    assert [lu._what for lu in lus] == ["saddle", "step", "step", "step"]
    assert all(lu.system.Eop is system.Eop for lu in lus)


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_ordered_step_solve_matches_colamd(k, scheme):
    import scipy.sparse.linalg as spla
    system = _eg2_system(4, k)
    dt = 0.25
    rng = np.random.default_rng(k)
    rhs = rng.standard_normal(system.spaces.dim_x + system.spaces.dim_velocity)
    if scheme == "radau2":
        rhs = rhs + 1j * rng.standard_normal(rhs.size)
    got = dynamics._Stepper(system, scheme, dt).lu.solve(rhs)
    S = step_matrix(*dense_system_blocks(system), scheme, dt)
    ref = spla.splu(sps.csc_matrix(S)).solve(rhs)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_ordered_step_lu_fill():
    # eg2, k=2, n=16, dt=1/16: the whole 9,408 x 9,408 S_r held 2,957,511 L+U
    # nonzeros in SuperLU's default COLAMD order and 735,618 (lu.nnz) in a
    # minimum-degree order of the mesh entities, and its complement on all
    # 4,800 edge unknowns 490,152; its complement on the 960 unknowns of the
    # 160 edges of the 4 x 4 cells' boundaries, the largest cells at n = 16,
    # in SuperLU's minimum-degree order, holds 176,064
    lu = dynamics._Stepper(_eg2_system(16, 2), "cn", 1.0 / 16).lu._lu
    assert lu.shape == (960, 960) and lu.nnz == 176_064
    # at n = 32 the 8 x 8 cells keep the 320 edges of their boundaries:
    # 1,920 unknowns, where the 4 x 4 cells kept 3,456 with 1,157,760
    lu = dynamics._Stepper(_eg2_system(32, 2), "cn", 1.0 / 32).lu._lu
    assert lu.shape == (1920, 1920) and lu.nnz == 702_336


@pytest.mark.parametrize("name,n,k,scheme", [("eg2", 8, 2, "cn"), ("eg3", 4, 3, "radau2")])
def test_step_lu_pivots_on_its_diagonal(name, n, k, scheme):
    # the complement on the edge unknowns of the 4 x 4 cells' boundaries,
    # 2 n (n / 4 + 1) edges, is factored with diagonal pivots: SuperLU
    # permutes the rows as it orders the columns
    import mixedelast as me
    case = builtin_case(name, alpha=2.2 if name == "eg2" else None)
    mesh = me.build_uniform_square_mesh(n)
    system = assemble(me.build_spaces(mesh, k), case.material, body_force=case.f,
                      dirichlet_velocity=case.g)
    lu = dynamics._Stepper(system, scheme, 1.0 / n).lu._lu
    assert lu.shape == (len(system.Eop.levels[-1].kept),) * 2
    assert lu.shape == (2 * (k + 1) * 2 * n * (n // 4 + 1),) * 2
    assert np.array_equal(lu.perm_r, lu.perm_c)


def test_step_residual_checked_on_a_doubling_cadence(monkeypatch):
    # an LU that goes wrong after step 1 is caught by the check of solve 2;
    # solves 1, 2, 4, 8, ... are checked
    from mixedelast import SingularSystemError
    system = _eg2_system(2, 2)
    nV = system.spaces.dim_velocity
    rng = np.random.default_rng(5)
    init = InitialData(x0=rng.standard_normal(system.spaces.dim_x),
                       v0=rng.standard_normal(nV), u0=np.zeros(nV))

    class Drifting:  # exact on its first solve, off by a factor 1 + 1e-6 after it
        def __init__(self, lu):
            self.lu, self.solves = lu, 0

        def solve(self, b):
            self.solves += 1
            return self.lu.solve(b) * (1.0 if self.solves == 1 else 1.0 + 1e-6)

    factorize = statics.factorize
    monkeypatch.setattr(statics, "factorize", lambda S, what:
                        Drifting(factorize(S, what)))
    steps = []
    with pytest.raises(SingularSystemError, match="residual"):
        integrate(system, init, "cn", 0.125, 1.0,
                  observers=[lambda step, t, st, system: steps.append(step)])
    assert steps == [0, 1]


@pytest.mark.parametrize("scheme", ["cn", "radau2"])
def test_records_match_observed_states(scheme):
    # energy and constraint drift come from each state's own E-product
    system = _eg2_system(4, 2)
    spaces = system.spaces
    nV = spaces.dim_velocity
    rng = np.random.default_rng(7)
    init = InitialData(x0=rng.standard_normal(spaces.dim_x), v0=rng.standard_normal(nV),
                       u0=np.zeros(nV))
    states = []
    traj = integrate(system, init, scheme, 0.125, 1.0,
                     observers=[lambda step, t, st, system: states.append(st)])
    C = system.Cmat
    c0 = C @ init.x0
    energies = np.array([energy(system, st) for st in states])
    cnorms = np.array([np.linalg.norm(C @ st.x - c0) for st in states])
    anorms = np.array([np.linalg.norm(stress_part(spaces, st.x)) for st in states])
    assert np.abs(traj.energies - energies).max() <= 1e-13 * energies.max()
    assert np.abs(traj.constraint_norms - cnorms).max() <= 1e-13 * np.linalg.norm(c0)
    assert np.abs(traj.alpha_norms - anorms).max() <= 1e-13 * anorms.max()
    assert np.array_equal(traj.times, [st.t for st in states])


def test_no_full_step_matrix_cached():
    # the steps apply the (sigma, gamma) block of E and eliminate the velocity;
    # no N x N matrix is built or kept
    system = _eg2_system(2, 2)
    n, nV = system.spaces.dim_x, system.spaces.dim_velocity
    N = n + nV
    init = InitialData(x0=np.zeros(n), v0=np.ones(nV), u0=np.zeros(nV))
    integrate(system, init, "cn", 0.25, 0.5)
    integrate(system, init, "cn", 0.1, 0.1)
    integrate(system, init, "radau2", 0.1, 0.1)

    shapes = [value.shape for value in _reachable(system)
              if sps.issparse(value) or isinstance(value, np.ndarray)]
    assert shapes and (N, N) not in shapes
    assert all(max(shape, default=0) < N for shape in shapes if len(shape) == 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_eprod_rotation_entries_are_c_sigma(k):
    # the steps' E-product applies E_r from its local blocks; its rotation
    # entries are the weak-symmetry moments C sigma, and its velocity
    # entries M v
    system = _eg2_system(4, k)
    stepper = dynamics._Stepper(system, "cn", 0.25)
    n, rot = stepper.n, system.spaces.rotation_map.ravel()
    y = np.random.default_rng(k).standard_normal(n + system.spaces.dim_velocity)
    ey, ref = stepper.eprod(y), system.Cmat @ y[:n]
    assert np.abs(ey[rot] - ref[rot]).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(ey[n:], system.Mdiag * y[n:])


@pytest.mark.parametrize("name,n,k", [("eg2", 8, 2), ("eg3", 4, 3)])
def test_each_operator_held_once(name, n, k):
    # the system holds E_r, which stands for A and C, and K_r as their class
    # blocks, with the condensed pattern of the Schur complement LU and its
    # int16 source maps, B, the velocity mass as its diagonal, and one load
    # matrix in each load closure; no operator and no load matrix is held
    # twice, and no array is as long as E_r's stored entries
    import mixedelast as me
    case = builtin_case(name, alpha=2.2 if name == "eg2" else None)
    mesh = me.build_uniform_square_mesh(n)
    system = assemble(me.build_spaces(mesh, k), case.material, body_force=case.f,
                      dirichlet_velocity=case.g)
    integrate(system, build_initial_data(case, system), "cn", 1.0 / n, 2.0 / n)
    n, nV = system.spaces.dim_x, system.spaces.dim_velocity
    held = [value for value in _reachable(system) if sps.issparse(value)]
    shapes = [op.shape for op in held]
    assert shapes.count((n, n)) == 0  # E_r and K_r are class blocks; A and C are formed on read
    assert shapes.count((nV, n)) == 1  # B
    assert shapes.count((nV, nV)) == 0  # M is the 1-D Mdiag, and M^-1 is not held
    for i, a in enumerate(held):
        for b in held[i + 1:]:
            assert not (a.data.shape == b.data.shape and np.array_equal(a.data, b.data))
    arrays = [value for value in _reachable(system) if isinstance(value, np.ndarray)]
    # E_r's pattern is formed on read only: the condensed pattern is shorter
    p, nnz = system.Eop, system.Eop.tocsr().nnz
    assert not [a.shape for a in arrays if a.size >= nnz]
    assert len(p.indices) < nnz / 2
    assert p.src.dtype == p.src2.dtype == np.int16 and p.indices.dtype == np.int32
    assert system.Kblocks.shape == system.Eop.blocks.shape
    loads = [cell.cell_contents for load in (system.load, system.dirichlet_load)
             for cell in load.__closure__ if isinstance(cell.cell_contents, np.ndarray)]
    assert sorted(L.shape[0] for L in loads) == sorted([nV, n])
    for L in loads:
        assert sum(a.shape == L.shape and np.array_equal(a, L) for a in arrays) == 1
