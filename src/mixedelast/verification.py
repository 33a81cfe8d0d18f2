"""Manufactured solutions, error norms, convergence and locking studies.

Each built-in case carries a closed-form displacement sum_g a_g(t) U_g(x, y);
every derived field (velocity, stress, rotation, body force, stress
divergence) is formed in numpy by the product rule from the first and second
derivatives of 1-D factors.  The body force, and the velocity where it is
boundary data, are SeparatedFields of terms phi_i(t) psi_i(x, y), from which
assembly precomputes the loads.
Rebuilding a case for a different Lame lambda forms sigma = C eps(u) and
the load anew, which is what the locking sweep needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .assembly import MaterialModel, SeparatedField, assemble
from .dynamics import CN, integrate
from .errors import MixedElastError
from .mesh import build_uniform_square_mesh
from .quadrature import triangle_rule
from .spaces import (DiscreteSpaces, build_spaces, l2_project_rotation,
                     l2_project_velocity)
from .statics import build_initial_data, elliptic_projection, stress_mass

BUILTIN_CASES = ("eg1", "eg2", "eg3", "locking")


@dataclass
class MmsCase:
    """A manufactured solution with all derived fields in closed form.

    Field callables take (t, x, y) with array-broadcast x, y and return
    shape (2,) + broadcast for vectors, (2, 2) + broadcast for the stress,
    and plain broadcast shape for the scalar rotation.
    """

    name: str
    material: MaterialModel
    u: Callable
    v: Callable
    sigma: Callable
    rotation: Callable
    f: Callable
    div_sigma: Callable
    homogeneous: bool
    T0: float = 1.0
    alpha: float | None = None
    rebuild: Callable | None = field(default=None, repr=False)

    @property
    def g(self) -> Callable | None:
        """Dirichlet velocity data; None when the boundary data vanish."""
        return None if self.homogeneous else self.v


# -- built-in cases in closed form ---------------------------------------------
# A built-in displacement is sum_g a_g(t) U_g(x, y), each component of U_g a
# product g(x) h(y) of 1-D factors.  A space factor is the tuple of its
# value and its first and second derivatives; a time factor is (a, a', a''),
# each a sum of terms c b(t), so that load terms of one time function b merge.

_SIN = (lambda x: np.sin(np.pi * x), lambda x: np.pi * np.cos(np.pi * x),
        lambda x: -np.pi**2 * np.sin(np.pi * x))
_BUBBLE = (lambda x: x * (1 - x), lambda x: 1 - 2 * x, lambda x: np.full_like(x, -2.0))
# pi sin(2 pi x), the derivative of sin^2(pi x)
_DSIN2 = (lambda x: np.pi * np.sin(2 * np.pi * x),
          lambda x: 2 * np.pi**2 * np.cos(2 * np.pi * x),
          lambda x: -4 * np.pi**3 * np.sin(2 * np.pi * x))
_SIN2 = (lambda x: np.sin(np.pi * x)**2,) + _DSIN2[:2]
_NEG_DSIN2 = tuple(lambda x, d=d: -d(x) for d in _DSIN2)
_ONE, _T, _T2 = (lambda t: 1.0), (lambda t: t), (lambda t: t**2)
_SIN_T = (((1, np.sin),), ((1, np.cos),), ((-1, np.sin),))
_power = lambda p: (lambda x: x**p, lambda x: p * x**(p - 1),
                    lambda x: p * (p - 1) * x**(p - 2))
# the (x, y) derivative orders (i, j) that a field reads
_VALUE, _GRADIENT, _HESSIAN = ((0, 0),), ((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2))


def _jet(product, x, y, orders):
    """{(i, j): d^i/dx^i d^j/dy^j of g(x) h(y)} for the orders listed, with
    product = (g, h), or None for zero."""
    if product is None:
        return dict.fromkeys(orders, np.zeros(x.shape))
    g, h = product
    return {(i, j): g[i](x) * h[j](y) for i, j in orders}


# The fields of one group from the jets J of U's two components
_displacement = lambda J, mu, lam: np.array([J[0][0, 0], J[1][0, 0]])
_rotation = lambda J, mu, lam: (J[0][0, 1] - J[1][1, 0]) / 2


def _stress(J, mu, lam):
    ux, uy, vx, vy = J[0][1, 0], J[0][0, 1], J[1][1, 0], J[1][0, 1]
    tr, shear = ux + vy, mu * (uy + vx)
    return np.array([[2 * mu * ux + lam * tr, shear], [shear, 2 * mu * vy + lam * tr]])


def _div_stress(J, mu, lam):
    """mu (Laplace U + grad div U) + lambda grad div U."""
    (uxx, uxy, uyy), (vxx, vxy, vyy) = ([j[o] for o in _HESSIAN] for j in J)
    grad_div = np.array([uxx + vxy, uxy + vyy])
    return mu * (np.array([uxx + uyy, vxx + vyy]) + grad_div) + lam * grad_div


def _case_from_groups(name: str, groups, material: MaterialModel, homogeneous: bool,
                      alpha, rebuild) -> MmsCase:
    """All fields of the displacement sum_g a_g(t) U_g(x, y), with ``groups``
    holding (a_g, product of U_g's x component, product of its y component).
    sigma and div sigma are formed per group from both components, so that
    lambda tr eps cancels exactly where it vanishes (the locking case)."""
    mu, lam, rho = material.mu, material.lambda_, material.rho

    def jets(x, y, orders):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return [[_jet(p, x, y, orders) for p in products] for _, *products in groups]

    def field(part, orders):
        return lambda t, x, y: sum(sum(c * b(t) for c, b in a[0]) * part(J, mu, lam)
                                   for (a, *_), J in zip(groups, jets(x, y, orders)))

    def separated(parts, orders):
        """sum_g sum_(k, part) a_g^(k)(t) part(J_g), one term per time function."""
        basis = list(dict.fromkeys(b for a, *_ in groups for k, _ in parts for _, b in a[k]))

        def psi(x, y):
            out = dict.fromkeys(basis, 0.0)
            for (a, *_), J in zip(groups, jets(x, y, orders)):
                for k, part in parts:
                    value = part(J)
                    for c, b in a[k]:
                        out[b] = out[b] + c * value
            return np.array(list(out.values()))

        phi = lambda t: [b(t) for b in basis]
        return SeparatedField(lambda t, x, y: np.tensordot(phi(t), psi(x, y), axes=1),
                              phi, psi)

    # f = sum_g rho a_g'' U_g - a_g div sigma_g and v = sum_g a_g' U_g
    f = separated([(2, lambda J: rho * _displacement(J, mu, lam)),
                   (0, lambda J: -_div_stress(J, mu, lam))], _VALUE + _HESSIAN)
    v = separated([(1, lambda J: _displacement(J, mu, lam))], _VALUE)
    # v is a load (the Dirichlet data g) only for inhomogeneous data;
    # otherwise only v(0) is projected, so it is not split
    return MmsCase(name=name, material=material, u=field(_displacement, _VALUE),
                   v=v.fn if homogeneous else v, sigma=field(_stress, _GRADIENT),
                   rotation=field(_rotation, _GRADIENT), f=f,
                   div_sigma=field(_div_stress, _HESSIAN),
                   homogeneous=homogeneous, alpha=alpha, rebuild=rebuild)


def builtin_case(name: str, alpha: float | None = None, mu: float = 1.0,
                 lam: float = 1.0, rho: float = 1.0) -> MmsCase:
    """Built-in manufactured cases.

    eg1/eg3: smooth field (sin(pi x) sin(pi y) sin t, x(1-x)y(1-y) sin t)
    vanishing on the boundary; eg2: reduced-regularity field
    ((1+t^2) x^alpha y^2, (1+cos t) x^2 y^alpha) with inhomogeneous
    displacement data, requiring a finite alpha > 3/2; locking: the
    divergence-free field of the stream function sin^2(pi x) sin^2(pi y) sin t
    for the lambda sweep (sigma independent of lambda).
    """
    name = name.lower()
    if name not in BUILTIN_CASES:
        raise MixedElastError(f"unknown case {name!r}; expected one of {BUILTIN_CASES}")
    material = MaterialModel(mu=mu, lambda_=lam, rho=rho)
    rebuild = lambda lam_new: builtin_case(name, alpha=alpha, mu=mu, lam=lam_new, rho=rho)

    if name in ("eg1", "eg3"):
        groups = [(_SIN_T, (_SIN, _SIN), (_BUBBLE, _BUBBLE))]
    elif name == "eg2":
        if alpha is None or not (np.isfinite(alpha) and alpha > 1.5):
            raise MixedElastError("eg2 requires a finite regularity parameter alpha > 3/2")
        x_alpha, x2 = _power(alpha), _power(2)
        groups = [((((1, _ONE), (1, _T2)), ((2, _T),), ((2, _ONE),)),  # 1 + t^2
                   (x_alpha, x2), None),
                  ((((1, _ONE), (1, np.cos)), ((-1, np.sin),), ((-1, np.cos),)),  # 1 + cos t
                   None, (x2, x_alpha))]
    else:
        groups = [(_SIN_T, (_SIN2, _DSIN2), (_NEG_DSIN2, _SIN2))]
    eg2 = name == "eg2"
    return _case_from_groups(name, groups, material, not eg2, alpha if eg2 else None, rebuild)


# -- error norms ------------------------------------------------------------


def l2_error(spaces: DiscreteSpaces, coefficients: np.ndarray, exact: Callable,
             t: float, fieldkind: str, degree: int | None = None) -> float:
    """L2 norm of (exact - discrete) at time t by elementwise quadrature.

    fieldkind is one of "stress", "velocity", "displacement", "rotation";
    the rotation error is measured in the skew-matrix Frobenius norm.
    """
    if degree is None:
        degree = 2 * spaces.k + 4
    rule = triangle_rule(degree)
    X = spaces.physical_points(rule)
    W = spaces.quad_weights(rule)
    if fieldkind == "stress":
        vals_h = spaces.stress_values(coefficients, rule)
        vals_e = np.moveaxis(np.asarray(exact(t, X[..., 0], X[..., 1])), (0, 1), (1, 2))
        diff2 = ((vals_e - vals_h) ** 2).sum(axis=(1, 2))
    elif fieldkind in ("velocity", "displacement"):
        vals_h = spaces.velocity_values(coefficients, rule)
        vals_e = np.moveaxis(np.asarray(exact(t, X[..., 0], X[..., 1])), 0, 1)
        diff2 = ((vals_e - vals_h) ** 2).sum(axis=1)
    elif fieldkind == "rotation":
        vals_h = spaces.rotation_values(coefficients, rule)
        vals_e = np.asarray(exact(t, X[..., 0], X[..., 1]))
        diff2 = 2.0 * (vals_e - vals_h) ** 2
    else:
        raise MixedElastError(f"unknown field kind {fieldkind!r}")
    return float(np.sqrt((W * diff2).sum()))


def _coefficient_l2(spaces: DiscreteSpaces, diff: np.ndarray, fieldkind: str) -> float:
    """L2 norm of a V_h/K_h coefficient difference via the diagonal Gram."""
    areas = spaces.areas
    m = spaces.n_scalar
    if fieldkind == "velocity":
        c2 = diff.reshape(-1, 2 * m) ** 2
        return float(np.sqrt((areas * c2.sum(axis=1)).sum()))
    c2 = diff.reshape(-1, m) ** 2
    return float(np.sqrt(2.0 * (areas * c2.sum(axis=1)).sum()))


# -- convergence machinery ----------------------------------------------------


@dataclass
class ConvergenceTable:
    """Rows of (1/h, error, order) pairs, one error/order column per field."""

    inv_h: list
    errors: dict  # field -> list of errors, fields sigma, v, u, r

    FIELDS = ("sigma", "v", "u", "r")

    def orders(self, fieldname: str) -> list:
        errs = self.errors[fieldname]
        out = [None]
        for prev, cur in zip(errs, errs[1:]):
            out.append(np.log2(prev / cur))
        return out

    def row_tuples(self):
        rows = []
        ords = {f: self.orders(f) for f in self.FIELDS}
        for i, n in enumerate(self.inv_h):
            row = [n]
            for f in self.FIELDS:
                row.append(self.errors[f][i])
                row.append(ords[f][i])
            rows.append(tuple(row))
        return rows

    def to_csv(self) -> str:
        lines = ["inv_h,err_sigma,ord_sigma,err_v,ord_v,err_u,ord_u,err_r,ord_r"]
        for row in self.row_tuples():
            cells = [str(row[0])]
            for err, order in zip(row[1::2], row[2::2]):
                cells.append(f"{err:.2e}")
                cells.append("" if order is None else f"{order:.2f}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        header = ["1/h"]
        for f in self.FIELDS:
            header += [f"err_{f}", "order"]
        widths = [9] * len(header)
        lines = ["".join(h.rjust(w) for h, w in zip(header, widths))]
        for row in self.row_tuples():
            cells = [str(row[0])]
            for err, order in zip(row[1::2], row[2::2]):
                cells.append(f"{err:.2e}")
                cells.append("--" if order is None else f"{order:.2f}")
            lines.append("".join(c.rjust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


def _resolve_dt(dt_rule, n: int) -> float:
    if dt_rule is None:
        return 1.0 / n
    return float(dt_rule)


def _build_system(material: MaterialModel, k: int, n: int,
                  body_force: Callable | None = None,
                  dirichlet_velocity: Callable | None = None):
    """Degree-k spaces and the assembled system on the uniform n x n mesh.

    Every command builds its system here.  The stages are looked up by their
    module-global names at call time, so they can be wrapped from outside.
    """
    spaces = build_spaces(build_uniform_square_mesh(n), k)
    return assemble(spaces, material, body_force=body_force,
                    dirichlet_velocity=dirichlet_velocity)


def _build_case(case: MmsCase, k: int, n: int):
    """Spaces, assembled system and discrete initial data of a case on the
    uniform n x n mesh."""
    system = _build_system(case.material, k, n, case.f, case.g)
    return system.spaces, system, build_initial_data(case, system)


def run_case(case: MmsCase, k: int, scheme: str, n: int, dt_rule=None,
             linf_in_time: bool = False):
    """Integrate one case on one mesh and measure errors.

    Errors are taken at the final time; with ``linf_in_time`` they are the
    maxima over all step times instead (a discrete stand-in for the
    L-infinity-in-time norms).  Returns (errors dict, trajectory summary,
    spaces).
    """
    spaces, system, initial = _build_case(case, k, n)
    dt = _resolve_dt(dt_rule, n)

    def errors_at(st):
        return {
            "sigma": l2_error(spaces, st.alpha, case.sigma, st.t, "stress"),
            "v": l2_error(spaces, st.beta, case.v, st.t, "velocity"),
            "u": l2_error(spaces, st.u, case.u, st.t, "displacement"),
            "r": l2_error(spaces, st.gamma, case.rotation, st.t, "rotation"),
        }

    observers = []
    running = {}
    if linf_in_time:
        def track(step, t, st, system):
            for f, e in errors_at(st).items():
                running[f] = max(running.get(f, 0.0), e)

        observers.append(track)
    traj = integrate(system, initial, scheme, dt, case.T0, observers=observers)
    errors = dict(running) if linf_in_time else errors_at(traj.final_state)
    return errors, traj, spaces


def convergence_study(case: MmsCase, k: int, scheme: str, n_list: Sequence[int],
                      dt_rule=None) -> ConvergenceTable:
    """One integrate-and-measure run per mesh of a doubling sequence."""
    n_list = list(n_list)
    for prev, cur in zip(n_list, n_list[1:]):
        if cur != 2 * prev:
            raise MixedElastError("n_list must double at each refinement")
    errors = {f: [] for f in ConvergenceTable.FIELDS}
    for n in n_list:
        errs, _, _ = run_case(case, k, scheme, n, dt_rule)
        for f in ConvergenceTable.FIELDS:
            errors[f].append(errs[f])
    return ConvergenceTable(inv_h=n_list, errors=errors)


def locking_study(case: MmsCase, k: int, lambda_list: Sequence[float],
                  n: int = 8, scheme: str = CN) -> list:
    """Fixed-mesh error sweep over the Lame parameter lambda.

    The exact solution is rebuilt per lambda (sigma = C eps(u) depends on
    it) and keeps the case's final time T0.  Returns rows (lambda, errors
    dict).
    """
    if case.rebuild is None:
        raise MixedElastError("case does not support lambda overrides")
    rows = []
    for lam in lambda_list:
        sub = case.rebuild(float(lam))
        sub.T0 = case.T0
        errs, _, _ = run_case(sub, k, scheme, n)
        rows.append((float(lam), errs))
    return rows


def error_decomposition_diagnostic(case: MmsCase, k: int, n: int, t: float):
    """Split each field error at time t into projection and approximation parts.

    The stress splits against the weakly symmetric elliptic projection, the
    velocity against P_h, the rotation against P'_h.  Returns
    {field: (projection_error, approximation_error)}.
    """
    spaces, system, initial = _build_case(case, k, n)
    dt = 1.0 / n
    n_steps = round(t / dt)
    if abs(n_steps * dt - t) > 1e-12:
        raise MixedElastError("t must be a multiple of 1/n")
    traj = integrate(system, initial, CN, dt, t)
    st = traj.final_state

    proj_sigma = elliptic_projection(system, lambda x, y: case.sigma(t, x, y),
                                     lambda x, y: case.div_sigma(t, x, y))
    ph_v = l2_project_velocity(spaces, lambda x, y: case.v(t, x, y), degree=12)
    ph_r = l2_project_rotation(spaces, lambda x, y: case.rotation(t, x, y), degree=12)

    e_sigma_p = l2_error(spaces, proj_sigma, case.sigma, t, "stress")
    e_v_p = l2_error(spaces, ph_v, case.v, t, "velocity")
    e_r_p = l2_error(spaces, ph_r, case.rotation, t, "rotation")

    d = proj_sigma - st.alpha
    e_sigma_h = float(np.sqrt(d @ (stress_mass(system) @ d)))
    e_v_h = _coefficient_l2(spaces, ph_v - st.beta, "velocity")
    e_r_h = _coefficient_l2(spaces, ph_r - st.gamma, "rotation")

    return {
        "sigma": (e_sigma_p, e_sigma_h),
        "v": (e_v_p, e_v_h),
        "r": (e_r_p, e_r_h),
    }
