import json

import pytest

from mixedelast import verification
from mixedelast.cli import main, parse_config
from mixedelast.errors import ConfigError

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


def test_run_single_mesh(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", "--k", "1", "--n", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "err_sigma" in printed
    assert len(out.read_text().strip().split("\n")) == 2


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


def test_infsup_command(capsys):
    assert main(["infsup", "--n-list", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "beta=" in out


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
], ids=" ".join)
def test_invalid_sizes_are_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        parse_config(["simulate"]).resolved()


def test_bad_n_list_is_config_error():
    assert main(["converge", "--n-list", "2,5"]) == 2


def test_bad_alpha_is_config_error():
    assert main(["converge", "--case", "eg2", "--alpha", "1.2"]) == 2
