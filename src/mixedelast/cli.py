"""Command-line front end: experiment orchestration and table/CSV emission.

Subcommands: mesh-info, converge, run, energy-audit, locking, infsup.
A bare ``converge`` reproduces the default smooth-case convergence table
(k=2, Crank-Nicolson, n = 4..32, T0 = 1, mu = lambda = rho = 1).
Exit codes: 0 success, 2 configuration error, 3 solver error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .assembly import MaterialModel
from .dynamics import CN, RADAU2_NAME, SCHEMES, integrate, step_count
from .errors import ConfigError, MixedElastError
from .mesh import build_uniform_square_mesh, mesh_diameter
from .spaces import SUPPORTED_DEGREES, l2_project_velocity
from .statics import InitialData, infsup_constant
from .verification import (ConvergenceTable, _build_system, builtin_case,
                           convergence_study, locking_study, run_case)

_CASE_DEFAULTS = {  # case -> (k, scheme, n_list)
    "eg1": (2, CN, [4, 8, 16, 32]),
    "eg2": (2, CN, [4, 8, 16, 32]),
    "eg3": (3, RADAU2_NAME, [4, 8, 16]),
    "locking": (1, CN, [4, 8, 16, 32]),
}


@dataclass
class RunConfig:
    command: str
    case: str | None = None  # None: "locking" for the locking command, else "eg1"
    alpha: float = 2.7
    k: int | None = None
    scheme: str | None = None
    n: int = 8
    n_list: list[int] | None = None
    t0: float = 1.0
    dt: float | None = None  # None means dt = 1/n
    mu: float = 1.0
    lambda_: float = 1.0
    rho: float = 1.0
    steps: int = 100
    lambda_list: list[float] | None = None
    out: str | None = None

    def resolved(self) -> "RunConfig":
        """Apply the per-case defaults and check the inputs before any work;
        the material and step rules are the library's own checks."""
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        cfg = RunConfig(**asdict(self))
        if cfg.case is None:
            cfg.case = "locking" if cfg.command == "locking" else "eg1"
        if cfg.case not in _CASE_DEFAULTS:
            raise ConfigError(f"unknown case {cfg.case!r}")
        k_def, scheme_def, nlist_def = _CASE_DEFAULTS[cfg.case]
        if cfg.command == "locking":
            k_def = 1  # the robustness sweep's reference setting
        elif cfg.command == "infsup":
            k_def, nlist_def = 1, [1, 2, 4]
        cfg.k = k_def if self.k is None else self.k
        cfg.scheme = scheme_def if self.scheme is None else self.scheme
        cfg.n_list = list(nlist_def) if self.n_list is None else list(self.n_list)
        if cfg.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {cfg.scheme!r}")
        if cfg.case == "eg3" and (cfg.k != 3 or cfg.scheme != RADAU2_NAME):
            raise ConfigError("case eg3 is paired with k=3 and the radau2 scheme")
        if cfg.k not in SUPPORTED_DEGREES:
            raise ConfigError(f"k must be one of {SUPPORTED_DEGREES}, got {cfg.k}")
        if cfg.case == "eg2" and cfg.alpha <= 1.5:
            raise ConfigError("case eg2 needs alpha > 3/2 for a square-integrable stress")
        if cfg.lambda_list is None:
            cfg.lambda_list = [1.0, 1e2, 1e4, 1e6]
        if not (cfg.n_list and cfg.lambda_list):
            raise ConfigError("the mesh and lambda lists must not be empty")
        for lam in [cfg.lambda_, *cfg.lambda_list]:
            MaterialModel(mu=cfg.mu, lambda_=lam, rho=cfg.rho)
        if not all(np.isfinite(x) for x in (cfg.alpha, cfg.t0, cfg.dt) if x is not None):
            raise ConfigError("alpha, t0 and dt must be finite")
        if cfg.n < 1 or min(cfg.n_list) < 1:
            raise ConfigError("mesh sizes n must be at least 1")
        if cfg.steps < 1:
            raise ConfigError(f"steps must be at least 1, got {cfg.steps}")
        if cfg.t0 <= 0 or (cfg.dt is not None and cfg.dt <= 0):
            raise ConfigError("t0 and dt must be positive")
        # the commands that step from 0 to t0 need a dt that divides it; dt is
        # 1/n unless given, and always 1/n for locking
        dt = None if cfg.command == "locking" else cfg.dt
        for n in {"run": [cfg.n], "locking": [cfg.n], "converge": cfg.n_list}.get(cfg.command, []):
            step_count(1.0 / n if dt is None else dt, cfg.t0)
        return cfg


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _has_type(value, annotation: str) -> bool:
    """Whether a JSON value fits a RunConfig annotation ("int | None", say)."""
    kind, _, optional = annotation.partition(" | ")
    if value is None or isinstance(value, bool):
        return value is None and optional == "None"
    if kind.startswith("list["):
        return isinstance(value, list) and all(_has_type(v, kind[5:-1]) for v in value)
    return isinstance(value, {"int": int, "float": (int, float), "str": str}[kind])


def _config_from_dict(data: dict) -> dict:
    unknown = set(data) - _FIELD_TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(sorted(unknown))}")
    for key, value in data.items():
        if not _has_type(value, _FIELD_TYPES[key]):
            raise ConfigError(f"configuration key {key!r} must be {_FIELD_TYPES[key]}, "
                              f"got {value!r}")
    return data


def _list_of(kind):
    """An argparse type: a comma-separated list of ``kind`` values."""
    def parse(text):
        return [kind(v) for v in str(text).split(",") if v != ""]
    parse.__name__ = f"{kind.__name__} list"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mixedelast", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--case", choices=sorted(_CASE_DEFAULTS))
    p.add_argument("--alpha", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--n", type=int)
    p.add_argument("--n-list", type=_list_of(int), dest="n_list")
    p.add_argument("--t0", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--lambda", type=float, dest="lambda_")
    p.add_argument("--rho", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--lambda-list", type=_list_of(float), dest="lambda_list")
    p.add_argument("--out")
    return p


def parse_config(argv) -> RunConfig:
    """Parse flags (and an optional --config JSON file) into a RunConfig."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise ConfigError("invalid command line") from exc
        raise
    data = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a flat JSON object")
        data.update(_config_from_dict(loaded))
    for f in _FIELD_TYPES:
        value = getattr(ns, f, None)
        if value is not None:
            data[f] = value
    data["command"] = ns.command
    return RunConfig(**data).resolved()


def _case_of(cfg: RunConfig):
    case = builtin_case(cfg.case, alpha=cfg.alpha, mu=cfg.mu, lam=cfg.lambda_, rho=cfg.rho)
    return replace(case, T0=cfg.t0)


def _write_out(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)


def _below(value: float, tol: float) -> str:
    """A drift below the tolerance of its check is roundoff: only the bound prints."""
    return f"< {tol:g}" if value < tol else f"{value:.3e}"


def _cmd_mesh_info(cfg: RunConfig) -> int:
    mesh = build_uniform_square_mesh(cfg.n)
    print(f"V={mesh.num_vertices} T={mesh.num_triangles} E={mesh.num_edges} "
          f"h={mesh_diameter(mesh):.6g}")
    return 0


def _cmd_converge(cfg: RunConfig) -> int:
    table = convergence_study(_case_of(cfg), cfg.k, cfg.scheme, cfg.n_list, cfg.dt)
    print(table.format_table())
    _write_out(cfg, table.to_csv())
    return 0


def _cmd_run(cfg: RunConfig) -> int:
    errs, traj, _ = run_case(_case_of(cfg), cfg.k, cfg.scheme, cfg.n, cfg.dt)
    table = ConvergenceTable(inv_h=[cfg.n],
                             errors={f: [errs[f]] for f in ConvergenceTable.FIELDS})
    print(table.format_table())
    print(f"max constraint drift (relative): {_below(traj.max_constraint_rel, 1e-12)}")
    _write_out(cfg, table.to_csv())
    return 0


def _cmd_energy_audit(cfg: RunConfig) -> int:
    case = _case_of(cfg)
    system = _build_system(case.material, cfg.k, cfg.n)  # zero loads
    spaces = system.spaces
    v0 = l2_project_velocity(spaces, lambda x, y: case.v(0.0, x, y), degree=12)
    if not np.any(v0):
        # sigma0 = 0, so the energy (M v0, v0)/2 that drift is measured against is 0
        raise ConfigError(f"case {cfg.case} has zero initial energy (v(0) = 0); "
                          "the energy audit needs a nonzero initial velocity")
    initial = InitialData(x0=np.zeros(spaces.dim_x), v0=v0, u0=np.zeros(spaces.dim_velocity))
    dt = cfg.dt if cfg.dt is not None else 1.0 / cfg.n
    traj = integrate(system, initial, cfg.scheme, dt, cfg.steps * dt)
    e0 = traj.energies[0]
    drift = np.abs(traj.energies - e0).max() / e0
    growth = np.diff(traj.energies).max() / e0
    # criterion 5's tolerances: 1e-10 for the CN drift, 1e-12 for the rest
    print(f"initial energy: {e0:.6e}")
    print(f"max relative energy drift over {cfg.steps} steps: {_below(drift, 1e-10)}")
    print(f"max relative per-step energy growth: {_below(growth, 1e-12)}")
    print(f"max constraint drift (relative): {_below(traj.max_constraint_rel, 1e-12)}")
    if cfg.out:
        lines = ["step,t,energy,constraint_rel"]
        for i, (t, e, c) in enumerate(zip(traj.times, traj.energies, traj.constraint_rel)):
            lines.append(f"{i},{t:.12g},{e:.6e},{_below(c, 1e-12)}")
        _write_out(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_locking(cfg: RunConfig) -> int:
    rows = locking_study(_case_of(cfg), cfg.k, cfg.lambda_list, n=cfg.n, scheme=cfg.scheme)
    header = f"{'lambda':>12}{'err_sigma':>12}{'err_v':>12}{'err_u':>12}{'err_r':>12}"
    print(header)
    lines = ["lambda,err_sigma,err_v,err_u,err_r"]
    for lam, errs in rows:
        print(f"{lam:12.4g}{errs['sigma']:12.3e}{errs['v']:12.3e}"
              f"{errs['u']:12.3e}{errs['r']:12.3e}")
        lines.append(f"{lam:.6g},{errs['sigma']:.6e},{errs['v']:.6e},"
                     f"{errs['u']:.6e},{errs['r']:.6e}")
    _write_out(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_infsup(cfg: RunConfig) -> int:
    material = _case_of(cfg).material
    lines = ["n,beta"]
    prev = None
    for n in cfg.n_list:
        beta = infsup_constant(_build_system(material, cfg.k, n))
        note = "" if prev is None else f"  ratio={beta / prev:.4f}"
        print(f"n={n:<4d} beta={beta:.6f}{note}")
        lines.append(f"{n},{beta:.10f}")
        prev = beta
    _write_out(cfg, "\n".join(lines) + "\n")
    return 0


_DISPATCH = {
    "mesh-info": _cmd_mesh_info,
    "converge": _cmd_converge,
    "run": _cmd_run,
    "energy-audit": _cmd_energy_audit,
    "locking": _cmd_locking,
    "infsup": _cmd_infsup,
}
COMMANDS = tuple(_DISPATCH)


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return _DISPATCH[cfg.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MixedElastError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("solver error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
