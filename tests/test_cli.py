import dataclasses
import json

import numpy as np
import pytest

from mixedelast import (InitialData, MaterialModel, assemble, build_spaces,
                        build_uniform_square_mesh, cli, integrate, verification)
from mixedelast.cli import main, parse_config
from mixedelast.dynamics import step_count
from mixedelast.errors import ConfigError
from mixedelast.quadrature import edge_rule, triangle_rule

# verification attributes that a benchmark tracer wraps from outside the package
TRACED_STAGES = ("builtin_case", "build_uniform_square_mesh", "build_spaces", "assemble",
                 "build_initial_data", "integrate", "l2_error")


def test_converge_defaults():
    cfg = parse_config(["converge"])
    assert cfg.case == "eg1"
    assert cfg.k == 2
    assert cfg.scheme == "cn"
    assert cfg.n_list == [4, 8, 16, 32]
    assert cfg.t0 == 1.0
    assert (cfg.mu, cfg.lambda_, cfg.rho) == (1.0, 1.0, 1.0)


def test_eg2_alpha_flag():
    cfg = parse_config(["converge", "--case", "eg2", "--alpha", "2.7"])
    assert cfg.case == "eg2" and cfg.alpha == 2.7
    assert cfg.k == 2 and cfg.scheme == "cn"


def test_eg3_defaults_forced():
    cfg = parse_config(["converge", "--case", "eg3"])
    assert cfg.k == 3 and cfg.scheme == "radau2"
    assert cfg.n_list == [4, 8, 16]


def test_eg3_cn_pairing_rejected():
    with pytest.raises(ConfigError):
        parse_config(["converge", "--case", "eg3", "--scheme", "cn"])
    assert main(["converge", "--case", "eg3", "--scheme", "cn"]) == 2


def test_unknown_config_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"case": "eg1", "nsteps": 7}))
    with pytest.raises(ConfigError, match="nsteps"):
        parse_config(["converge", "--config", str(path)])


@pytest.mark.parametrize("content", [None, b"{\"n\": 4", b"\xff{\"n\": 4}",
                                     b"[" * 100_000 + b"]" * 100_000],
                         ids=["missing", "bad-json", "not-utf8", "nested-too-deep"])
def test_unreadable_config_file_is_config_error(tmp_path, content, capsys):
    path = tmp_path / "c.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["run", "--config", str(path)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"alpha": "x", "case": "eg2"},
    {"n_list": 4},
    {"dt": "0.1"},
    {"lambda_list": "1,2"},
], ids=json.dumps)
def test_config_values_of_wrong_type_are_config_errors(tmp_path, data, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and repr(next(iter(data))) in err


@pytest.mark.parametrize("command,key", [("converge", "n_list"), ("infsup", "n_list"),
                                         ("locking", "lambda_list")])
def test_empty_lists_in_config_file_are_config_errors(tmp_path, command, key, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: []}))
    assert main([command, "--config", str(path)]) == 2
    assert "must not be empty" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"case": "eg2", "alpha": 2.2, "n": 4}))
    cfg = parse_config(["run", "--config", str(path), "--alpha", "3.2"])
    assert cfg.case == "eg2" and cfg.alpha == 3.2 and cfg.n == 4


def test_mesh_info(capsys):
    assert main(["mesh-info", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "V=25" in out and "T=32" in out and "E=56" in out
    assert main(["mesh-info", "--n", "5"]) == 0
    assert capsys.readouterr().out == "V=36 T=50 E=85 h=0.282843\n"


def test_converge_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["converge", "--k", "1", "--n-list", "2,4", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "err_sigma" in printed
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "inv_h,err_sigma,ord_sigma,err_v,ord_v,err_u,ord_u,err_r,ord_r"
    assert len(lines) == 3

    out2 = tmp_path / "table2.csv"
    assert main(["converge", "--k", "1", "--n-list", "2,4", "--out", str(out2)]) == 0
    assert out2.read_text() == text  # byte-identical rerun


_HEADER = "inv_h,err_sigma,ord_sigma,err_v,ord_v,err_u,ord_u,err_r,ord_r\n"
GOLDEN_CSV = {  # the CSV bytes of two converge runs; a refactor must not move them
    ("--case", "eg2", "--alpha", "2.2"): _HEADER
    + "2,7.11e-02,,5.19e-02,,5.77e-02,,3.69e-02,\n"
    + "4,1.25e-02,2.51,1.33e-02,1.97,1.49e-02,1.95,8.87e-03,2.06\n",
    ("--case", "eg3"): _HEADER
    + "2,4.83e-02,,9.64e-03,,1.38e-02,,3.08e-02,\n"
    + "4,4.53e-03,3.41,1.22e-03,2.98,1.82e-03,2.91,4.03e-03,2.93\n",
    # a non-unit density and shear modulus reach M, the body force and the
    # shift of the static saddle solve
    ("--case", "eg2", "--alpha", "2.2", "--rho", "2.5", "--mu", "0.3"): _HEADER
    + "2,4.45e-02,,5.05e-02,,5.78e-02,,4.16e-02,\n"
    + "4,1.10e-02,2.01,1.30e-02,1.96,1.50e-02,1.95,1.04e-02,2.01\n",
}


@pytest.mark.parametrize("case_args", list(GOLDEN_CSV), ids=["eg2", "eg3", "eg2-rho-mu"])
def test_converge_csv_bytes_are_pinned(tmp_path, capsys, case_args):
    out = tmp_path / "table.csv"
    assert main(["converge", *case_args, "--n-list", "2,4", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_CSV[case_args].encode()


def test_run_single_mesh(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", "--k", "1", "--n", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "err_sigma" in printed
    assert out.read_bytes() == (_HEADER + "2,1.48e+00,,1.61e-01,,2.26e-01,,5.23e-01,\n").encode()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns on the overflow first
@pytest.mark.parametrize("argv", [
    ["run", "--n", "2", "--k", "1", "--mu", "1e300"],
    ["run", "--n", "2", "--k", "1", "--lambda", "1e300"],
    ["run", "--n", "2", "--k", "1", "--rho", "1e-300"],
], ids=" ".join)
def test_non_finite_results_are_solver_errors(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "solver error: non-finite" in err


def test_energy_audit(capsys):
    assert main(["energy-audit", "--n", "2", "--steps", "5"]) == 0
    out = capsys.readouterr().out
    assert "energy drift" in out


def test_energy_audit_rejects_zero_initial_energy(capsys):
    # eg2 starts at rest with sigma0 = 0, so there is no energy to measure drift against
    assert main(["energy-audit", "--case", "eg2", "--alpha", "2.2", "--n", "2",
                 "--steps", "2"]) == 2
    assert "zero initial energy" in capsys.readouterr().err


def test_locking_command(tmp_path, capsys):
    out = tmp_path / "lock.csv"
    assert main(["locking", "--n", "2", "--k", "1",
                 "--lambda-list", "1,100", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "lambda" in printed
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,err_sigma,err_v,err_u,err_r"
    assert len(lines) == 3


def test_locking_csv_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "lock.csv"
    assert main(["locking", "--n", "2", "--lambda-list", "1,1e4", "--out", str(out)]) == 0
    assert out.read_bytes() == (b"lambda,err_sigma,err_v,err_u,err_r\n"
                                b"1,1.105010e+01,7.288030e-01,1.163660e+00,7.780506e+00\n"
                                b"10000,1.118586e+01,7.257928e-01,1.171274e+00,7.794860e+00\n")


def test_infsup_command(tmp_path, capsys):
    out = tmp_path / "infsup.csv"
    assert main(["infsup", "--n-list", "1,2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ("n=1    beta=0.964017\n"
                                       "n=2    beta=0.958157  ratio=0.9939\n")
    assert out.read_bytes() == b"n,beta\n1,0.9640173054\n2,0.9581573385\n"


def test_default_case_per_command():
    assert parse_config(["locking"]).case == "locking"
    assert parse_config(["locking", "--case", "eg1"]).case == "eg1"
    assert parse_config(["converge"]).case == "eg1"
    assert parse_config(["infsup"]).case == "eg1"


def test_commands_build_through_verification_stages(monkeypatch, capsys):
    calls = {}
    for name in TRACED_STAGES:
        def counted(*args, _fn=getattr(verification, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verification, name, counted)
    built = ("build_uniform_square_mesh", "build_spaces", "assemble")

    verification.run_case(verification.builtin_case("eg1"), 1, "cn", 2)
    assert {s: calls.get(s) for s in built} == dict.fromkeys(built, 1)
    assert (calls["builtin_case"], calls["build_initial_data"], calls["integrate"],
            calls["l2_error"]) == (1, 1, 1, 4)

    calls.clear()
    assert main(["energy-audit", "--n", "2", "--steps", "2"]) == 0
    assert {s: calls.get(s) for s in built} == dict.fromkeys(built, 1)

    calls.clear()
    assert main(["infsup", "--n-list", "1"]) == 0
    assert {s: calls.get(s) for s in built} == dict.fromkeys(built, 1)


def test_locking_and_infsup_default_to_k1():
    assert parse_config(["locking"]).k == 1
    cfg = parse_config(["infsup"])
    assert cfg.k == 1 and cfg.n_list == [1, 2, 4]
    assert parse_config(["locking", "--k", "2"]).k == 2


def test_solver_error_exit_code(capsys, monkeypatch):
    # a step LU that finds its matrix singular -> solver error, exit 3
    import scipy.sparse.linalg as spla
    splu = spla.splu

    def singular(A, *args, **kwargs):
        if kwargs.get("permc_spec") == "NATURAL":  # the ordered step LU
            raise RuntimeError("Factor is exactly singular")
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", singular)
    assert main(["run", "--k", "1", "--n", "2"]) == 3
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--dt", "0.3"],  # dt does not divide t0 = 1
    ["run", "--t0", "0.3"],  # nor does dt = 1/n
    ["run", "--dt", "-0.5"],
    ["run", "--t0", "0"],
    ["run", "--n", "0"],
    ["converge", "--n-list", "0,0"],
    ["converge", "--n-list", ","],  # empty lists
    ["infsup", "--n-list", ","],
    ["locking", "--lambda-list", ","],
    ["mesh-info", "--n", "-3"],
    ["energy-audit", "--steps", "0"],
    ["run", "--mu", "-1"],  # invalid real inputs
    ["run", "--rho", "0"],
    ["run", "--lambda", "0"],
    ["locking", "--lambda-list", "0"],
    ["run", "--rho", "inf"],
    ["run", "--mu", "nan"],
    ["run", "--t0", "nan"],
    ["run", "--dt", "nan"],
    ["converge", "--case", "eg2", "--alpha", "nan"],
    ["run", "--n", "2", "--dt", "1e-300"],  # dt cannot advance t: t0 + dt == t0
    ["run", "--n", "2", "--t0", "1e300"],
], ids=" ".join)
def test_invalid_sizes_are_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def _integrate_with_unknown_scheme():
    system = verification._build_system(MaterialModel(mu=1.0, lambda_=1.0), 1, 1)
    nx, nv = system.spaces.dim_x, system.spaces.dim_velocity
    initial = InitialData(x0=np.zeros(nx), v0=np.zeros(nv), u0=np.zeros(nv))
    integrate(system, initial, "euler", 0.5, 1.0)


# each input check of the library raises ConfigError, so that the command line
# exits 2 wherever an invalid input is caught
@pytest.mark.parametrize("call", [
    lambda: MaterialModel(mu=-1, lambda_=1),
    lambda: step_count(0.3, 1.0),
    lambda: step_count(1e-300, 1.0),
    _integrate_with_unknown_scheme,
    lambda: build_spaces(build_uniform_square_mesh(1), 4),
    lambda: verification.builtin_case("eg9"),
    lambda: verification.builtin_case("eg2", alpha=1.2),
    lambda: verification.convergence_study(verification.builtin_case("eg1"), 1, "cn", [2, 5]),
    lambda: build_uniform_square_mesh(0),
    lambda: triangle_rule(13),
    lambda: edge_rule(0),
    lambda: assemble(build_spaces(build_uniform_square_mesh(1), 1),
                     MaterialModel(mu=1, lambda_=1), body_force=lambda t, x, y: 0 * x),
    lambda: verification.l2_error(build_spaces(build_uniform_square_mesh(1), 1), np.zeros(6),
                                  lambda t, x, y: 0 * x, 0.0, "pressure"),
    lambda: verification.locking_study(
        dataclasses.replace(verification.builtin_case("eg1"), rebuild=None), 1, [1.0]),
], ids=["material", "step-not-dividing", "step-below-resolution", "scheme", "degree",
        "case", "eg2-alpha", "doubling", "geometry", "triangle-rule-degree",
        "edge-rule-degree", "unseparated-load", "field-kind", "locking-without-rebuild"])
def test_library_input_checks_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


def test_out_of_memory_is_solver_error(monkeypatch, capsys):
    # never a real huge allocation: on a host that overcommits it could hang
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 7.11 PiB")

    monkeypatch.setitem(cli._DISPATCH, "run", exhausted)
    assert main(["run", "--n", "2"]) == 3
    assert "solver error: out of memory" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        parse_config(["simulate"]).resolved()


def test_bad_n_list_is_config_error():
    assert main(["converge", "--n-list", "2,5"]) == 2


def test_bad_alpha_is_config_error():
    assert main(["converge", "--case", "eg2", "--alpha", "1.2"]) == 2
