import dataclasses

import numpy as np
import pytest
import sympy

from mixedelast import (MaterialModel, MixedElastError, assemble, builtin_case,
                        build_spaces, build_uniform_square_mesh, convergence_study,
                        l2_error, l2_project_velocity, locking_study, run_case)
from mixedelast.quadrature import triangle_rule
from mixedelast.verification import ConvergenceTable

from _oracles import (case_from_displacement, error_decomposition_diagnostic,
                      sympy_builtin_case)


def test_eg1_fields_at_t0():
    case = builtin_case("eg1")
    x = np.array([0.3, 0.7])
    y = np.array([0.25, 0.5])
    assert np.abs(case.u(0.0, x, y)).max() <= 1e-15
    v = case.v(0.0, x, y)
    assert np.allclose(v[0], np.sin(np.pi * x) * np.sin(np.pi * y))
    assert np.allclose(v[1], x * (1 - x) * y * (1 - y))
    assert case.homogeneous and case.g is None


def test_probe_field_load():
    # u = (t^2 x, 0) has constant stress, so f = rho * u_tt = (2x, 0)
    t, x, y = sympy.symbols("t x y", real=True)
    case = case_from_displacement("probe", [t**2 * x, 0 * x],
                                  MaterialModel(mu=1.0, lambda_=1.0),
                                  homogeneous=False)
    xs = np.array([0.2, 0.8])
    ys = np.array([0.5, 0.1])
    f = case.f(0.7, xs, ys)
    assert np.allclose(f[0], 2.0 * xs, atol=1e-14)
    assert np.abs(f[1]).max() <= 1e-14


def test_eg2_boundary_data_inhomogeneous():
    case = builtin_case("eg2", alpha=2.7)
    assert not case.homogeneous
    y = np.array([0.3, 0.9])
    g = case.g(0.5, np.ones_like(y), y)  # x = 1 edge, t = 0.5
    assert np.abs(g).max() > 0.1


def test_eg2_requires_valid_alpha():
    for alpha in (1.2, None, float("nan"), float("inf")):
        with pytest.raises(MixedElastError):
            builtin_case("eg2", alpha=alpha)


def test_builtin_cases_leave_sympy_out():
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mixedelast; "
            "[mixedelast.builtin_case(c, alpha=2.2) for c in ('eg1', 'eg2', 'eg3')]; "
            "mixedelast.builtin_case('locking').rebuild(1e4); "
            "print('sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("mu,lam,rho", [(1.0, 1.0, 1.0), (1.0, 1e4, 1.0), (2.5, 0.3, 7.0)])
@pytest.mark.parametrize("name,alpha", [("eg1", None), ("eg3", None), ("eg2", 2.2),
                                        ("eg2", 2.7), ("locking", None)])
def test_closed_forms_match_sympy_derivation(name, alpha, mu, lam, rho):
    # every field of a built-in case against the same displacement
    # differentiated and lambdified by sympy
    case = builtin_case(name, alpha=alpha, mu=mu, lam=lam, rho=rho)
    ref = sympy_builtin_case(name, alpha, mu, lam, rho)
    x, y = np.random.default_rng(3).random((2, 2000))
    for f in ("u", "v", "sigma", "rotation", "f", "div_sigma"):
        for t in (0.0, 0.37, 1.0):
            got, want = getattr(case, f)(t, x, y), getattr(ref, f)(t, x, y)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (f, t)


def test_unknown_case_rejected():
    with pytest.raises(MixedElastError):
        builtin_case("eg9")


@pytest.mark.parametrize("name,alpha", [("eg1", None), ("eg3", None), ("eg2", 2.2),
                                        ("eg2", 2.7), ("locking", None)])
def test_case_internal_consistency(name, alpha):
    # v against a central difference of u in t; f against rho u_tt - div sigma
    # with the divergence taken by central differences of the case's own sigma
    case = builtin_case(name, alpha=alpha)
    rng = np.random.default_rng(8)
    t = 0.6
    x = rng.uniform(0.2, 0.8, size=7)
    y = rng.uniform(0.2, 0.8, size=7)
    ht = 1e-5
    v_fd = (case.u(t + ht, x, y) - case.u(t - ht, x, y)) / (2 * ht)
    assert np.abs(v_fd - case.v(t, x, y)).max() <= 1e-6

    hs = 1e-5
    u_tt = (case.u(t + ht, x, y) - 2 * case.u(t, x, y) + case.u(t - ht, x, y)) / ht**2
    div_fd = np.empty((2,) + x.shape)
    sxp = case.sigma(t, x + hs, y)
    sxm = case.sigma(t, x - hs, y)
    syp = case.sigma(t, x, y + hs)
    sym_ = case.sigma(t, x, y - hs)
    for r in range(2):
        div_fd[r] = (sxp[r, 0] - sxm[r, 0]) / (2 * hs) + (syp[r, 1] - sym_[r, 1]) / (2 * hs)
    f_ref = 1.0 * u_tt - div_fd
    assert np.abs(f_ref - case.f(t, x, y)).max() <= 1e-5
    assert np.abs(div_fd - case.div_sigma(t, x, y)).max() <= 1e-5


def test_rotation_scalar_consistent_with_gradient():
    case = builtin_case("eg1")
    t = 0.4
    x = np.array([0.3, 0.6])
    y = np.array([0.2, 0.7])
    h = 1e-6
    du0_dy = (case.u(t, x, y + h)[0] - case.u(t, x, y - h)[0]) / (2 * h)
    du1_dx = (case.u(t, x + h, y)[1] - case.u(t, x - h, y)[1]) / (2 * h)
    assert np.abs(0.5 * (du0_dy - du1_dx) - case.rotation(t, x, y)).max() <= 1e-8


def test_l2_error_zero_for_represented_field(spaces_cache):
    spaces = spaces_cache(2, 2)
    const = lambda t, x, y: np.stack([np.full(np.shape(x), 1.5),
                                      np.full(np.shape(x), -2.0)])
    beta = l2_project_velocity(spaces, lambda x, y: const(0, x, y))
    assert l2_error(spaces, beta, const, 0.0, "velocity") <= 1e-13


def test_l2_error_unknown_kind(spaces_cache):
    spaces = spaces_cache(1, 1)
    with pytest.raises(MixedElastError):
        l2_error(spaces, np.zeros(spaces.dim_velocity),
                 lambda t, x, y: np.zeros((2,) + np.shape(x)), 0.0, "pressure")


def test_eg1_n4_sigma_error_near_reference_value():
    # reference magnitude for the k=2 smooth run on the n=4 mesh
    errs, _, _ = run_case(builtin_case("eg1"), 2, "cn", 4)
    assert 0.5 * 5.73e-02 <= errs["sigma"] <= 2.0 * 5.73e-02


def test_convergence_table_layout_and_csv():
    tab = ConvergenceTable(
        inv_h=[4, 8],
        errors={"sigma": [1.0, 0.25], "v": [0.5, 0.125],
                "u": [0.4, 0.1], "r": [0.2, 0.05]},
    )
    csv = tab.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "inv_h,err_sigma,ord_sigma,err_v,ord_v,err_u,ord_u,err_r,ord_r"
    first = lines[1].split(",")
    assert first[0] == "4" and first[2] == "" and first[4] == ""
    second = lines[2].split(",")
    assert second[2] == "2.00" and second[1] == "2.50e-01"
    assert "--" in tab.format_table()
    table = tab.format_table().split("\n")
    assert table[0].split() == ["1/h", "err_sigma", "order", "err_v", "order", "err_u", "order",
                                "err_r", "order"]
    assert table[1].split() == ["4", "1.00e+00", "--", "5.00e-01", "--", "4.00e-01", "--",
                                "2.00e-01", "--"]


def test_convergence_study_validates_n_list():
    with pytest.raises(MixedElastError):
        convergence_study(builtin_case("eg1"), 1, "cn", [2, 3])


def test_convergence_monotone_and_deterministic():
    case = builtin_case("eg1")
    t1 = convergence_study(case, 1, "cn", [2, 4])
    t2 = convergence_study(case, 1, "cn", [2, 4])
    assert t1.to_csv() == t2.to_csv()
    for f in ConvergenceTable.FIELDS:
        errs = t1.errors[f]
        assert errs[1] < errs[0]


def test_order_never_exceeds_scheme_space_bound():
    # k=1 spatial order 1 with a second-order scheme: observed order at the
    # finer pair stays within min(scheme, space) + 0.3 (sigma rides a
    # preasymptotic transient on the coarsest pair)
    tab = convergence_study(builtin_case("eg1"), 1, "cn", [4, 8, 16])
    assert tab.orders("sigma")[-1] <= 1.35
    assert tab.orders("v")[-1] <= 1.3
    assert tab.orders("u")[-1] <= 1.3
    assert tab.orders("r")[-1] <= 1.3


def test_locking_lambda_one_matches_plain_run():
    case = builtin_case("eg1")
    rows = locking_study(case, 1, [1.0], n=4)
    errs, _, _ = run_case(builtin_case("eg1"), 1, "cn", 4)
    assert rows[0][0] == 1.0
    for f in ("sigma", "v", "u", "r"):
        assert rows[0][1][f] == pytest.approx(errs[f], rel=1e-12)


def test_locking_keeps_final_time():
    # the per-lambda rebuild must integrate to the case's T0, not the default 1
    case = dataclasses.replace(builtin_case("locking"), T0=0.5)
    rows = locking_study(case, 1, [1.0], n=4)
    errs, _, _ = run_case(case, 1, "cn", 4)
    for f in ("sigma", "v", "u", "r"):
        assert rows[0][1][f] == pytest.approx(errs[f], rel=1e-12)


def test_velocity_split_only_for_boundary_data():
    # homogeneous data use v only through v(0), so v is not split; its values
    # are those of the split field bitwise
    from mixedelast.assembly import SeparatedField
    assert not isinstance(builtin_case("eg3").v, SeparatedField)
    assert isinstance(builtin_case("eg2", alpha=2.2).v, SeparatedField)
    t, x, y = sympy.symbols("t x y", real=True)
    u = [sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y) * sympy.sin(t),
         x * (1 - x) * y * (1 - y) * sympy.sin(t)]
    material = MaterialModel(mu=1.0, lambda_=1.0)
    plain = case_from_displacement("c", u, material, homogeneous=True).v
    split = case_from_displacement("c", u, material, homogeneous=False).v
    assert not isinstance(plain, SeparatedField) and isinstance(split, SeparatedField)
    xs, ys = np.random.default_rng(2).random((2, 50))
    for s in (0.0, 0.37, 1.0):
        assert np.array_equal(plain(s, xs, ys), split(s, xs, ys))


def test_locking_requires_rebuildable_case():
    case = dataclasses.replace(builtin_case("eg1"), rebuild=None)
    with pytest.raises(MixedElastError):
        locking_study(case, 1, [1.0, 10.0])


def test_case_is_frozen():
    case = builtin_case("eg1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.T0 = 0.5
    assert case.T0 == 1.0


def test_locking_case_divergence_free():
    case = builtin_case("locking", lam=1e4)
    x = np.linspace(0.1, 0.9, 5)
    y = np.linspace(0.2, 0.8, 5)
    s = case.sigma(0.5, x, y)
    # sigma = 2 mu eps(u) for the stream-function field: trace = 2 mu div u = 0
    assert np.abs(s[0, 0] + s[1, 1]).max() <= 1e-12
    assert np.abs(case.u(0.5, np.zeros(3), np.array([0.1, 0.5, 0.9]))).max() <= 1e-14


def test_error_decomposition():
    case = builtin_case("eg1")
    parts8 = error_decomposition_diagnostic(case, 1, 8, 1.0)
    for f, (ep, eh) in parts8.items():
        assert ep >= 0 and eh >= 0
    errs, _, spaces = run_case(case, 1, "cn", 8)
    # triangle inequality against the true error
    assert errs["sigma"] <= parts8["sigma"][0] + parts8["sigma"][1] + 1e-12
    assert errs["v"] <= parts8["v"][0] + parts8["v"][1] + 1e-12
    assert errs["r"] <= parts8["r"][0] + parts8["r"][1] + 1e-12

    # both the projection and approximation parts decay at order >= k = 1
    # (the superclose velocity part needs one refinement to settle)
    parts16 = error_decomposition_diagnostic(case, 1, 16, 1.0)
    for f in ("sigma", "v", "r"):
        assert np.log2(parts8[f][0] / parts16[f][0]) >= 0.7
        assert np.log2(parts8[f][1] / parts16[f][1]) >= 0.7


@pytest.mark.parametrize("t", [0.3, 0.0])
def test_error_decomposition_rejects_t_off_the_step_grid(t):
    # t must be a positive multiple of the CN step 1/n
    with pytest.raises(MixedElastError):
        error_decomposition_diagnostic(builtin_case("eg1"), 1, 4, t)


def test_radau_with_inhomogeneous_boundary_converges():
    # stage-time Dirichlet loads drive the RadauIIA path; spatial order k
    case = builtin_case("eg2", alpha=2.7)
    tab = convergence_study(case, 2, "radau2", [2, 4, 8])
    assert 1.7 <= tab.orders("v")[-1] <= 2.3
    assert 1.7 <= tab.orders("u")[-1] <= 2.3


def test_refined_mesh_matches_uniform_run():
    # refine(build(2)) is build(4) up to renumbering; the whole pipeline must
    # produce the same errors through the generic connectivity path
    from mixedelast import build_initial_data, integrate
    from _oracles import refine

    case = builtin_case("eg1")
    mesh = refine(build_uniform_square_mesh(2))
    spaces = build_spaces(mesh, 2)
    system = assemble(spaces, case.material, body_force=case.f)
    init = build_initial_data(case, system)
    traj = integrate(system, init, "cn", 0.25, 1.0)
    err = l2_error(spaces, traj.final_state.x, case.sigma, 1.0, "stress")
    reference, _, _ = run_case(case, 2, "cn", 4)
    # renumbering changes summation and pivoting order; roundoff-level match
    assert err == pytest.approx(reference["sigma"], rel=1e-8)


def test_projection_error_orthogonal_to_divergence():
    # (div tau, v - P_h v) = 0 for all tau in M_h
    case = builtin_case("eg1")
    mesh = build_uniform_square_mesh(3)
    spaces = build_spaces(mesh, 2)
    t = 0.5
    ph = l2_project_velocity(spaces, lambda x, y: case.v(t, x, y), degree=12)
    rule = triangle_rule(12)
    W = spaces.quad_weights(rule)
    X = spaces.physical_points(rule)
    resid = (np.moveaxis(case.v(t, X[..., 0], X[..., 1]), 0, 1)
             - spaces.velocity_values(ph, rule))
    DV = spaces.stress_row_div_values(rule)[spaces.tri_class]
    # moments (div phi_(r,b), e_v^P) per triangle and row dof
    mom = np.einsum("tq,tbq,trq->rtb", W, DV, resid)
    out = np.zeros(spaces.dim_x)
    np.add.at(out, spaces.stress_map, np.moveaxis(mom, 0, 1))
    assert np.abs(out).max() <= 1e-10


@pytest.mark.parametrize("name,alpha,k,scheme,expected",
                         [("eg3", None, 3, "radau2", ["step"]),
                          ("eg2", 2.2, 2, "cn", ["saddle", "step"])],
                         ids=["eg3", "eg2"])
def test_factorizations_per_run(monkeypatch, name, alpha, k, scheme, expected):
    # zero initial data need only the step LU; a saddle LU must not come back
    from mixedelast import statics
    calls = []
    factorize = statics.factorize
    monkeypatch.setattr(statics, "factorize", lambda S, what:
                        calls.append(what) or factorize(S, what))
    run_case(builtin_case(name, alpha=alpha), k, scheme, 4)
    assert calls == expected


def test_readme_library_example():
    # the python block under "## Library example" in README.md runs as written
    from pathlib import Path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert namespace["err"] == pytest.approx(0.01355, rel=1e-3)
