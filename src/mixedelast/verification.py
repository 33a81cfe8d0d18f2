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

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .assembly import MaterialModel, SeparatedField, assemble
from .dynamics import CN, integrate
from .errors import ConfigError, MixedElastError
from .mesh import build_uniform_square_mesh
from .quadrature import triangle_rule
from .spaces import DiscreteSpaces, build_spaces
from .statics import build_initial_data

BUILTIN_CASES = ("eg1", "eg2", "eg3", "locking")


@dataclass(frozen=True)
class MmsCase:
    """A manufactured solution with all derived fields in closed form.

    Field callables take (t, x, y) with array-broadcast x, y and return
    shape (2,) + broadcast for vectors, (2, 2) + broadcast for the stress,
    and plain broadcast shape for the scalar rotation.  A case is frozen:
    ``dataclasses.replace(case, T0=...)`` is the case of another final time.
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
                      rebuild) -> MmsCase:
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
                   homogeneous=homogeneous, rebuild=rebuild)


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
        raise ConfigError(f"unknown case {name!r}; expected one of {BUILTIN_CASES}")
    material = MaterialModel(mu=mu, lambda_=lam, rho=rho)
    rebuild = lambda lam_new: builtin_case(name, alpha=alpha, mu=mu, lam=lam_new, rho=rho)

    if name in ("eg1", "eg3"):
        groups = [(_SIN_T, (_SIN, _SIN), (_BUBBLE, _BUBBLE))]
    elif name == "eg2":
        if alpha is None or not (np.isfinite(alpha) and alpha > 1.5):
            raise ConfigError("eg2 requires a finite regularity parameter alpha > 3/2")
        x_alpha, x2 = _power(alpha), _power(2)
        groups = [((((1, _ONE), (1, _T2)), ((2, _T),), ((2, _ONE),)),  # 1 + t^2
                   (x_alpha, x2), None),
                  ((((1, _ONE), (1, np.cos)), ((-1, np.sin),), ((-1, np.cos),)),  # 1 + cos t
                   None, (x2, x_alpha))]
    else:
        groups = [(_SIN_T, (_SIN2, _DSIN2), (_NEG_DSIN2, _SIN2))]
    return _case_from_groups(name, groups, material, name != "eg2", rebuild)


# -- error norms ------------------------------------------------------------


def l2_error(spaces: DiscreteSpaces, coefficients: np.ndarray, exact: Callable,
             t: float, fieldkind: str) -> float:
    """L2 norm of (exact - discrete) at time t by elementwise quadrature of
    degree 2k + 4.

    fieldkind is one of "stress", "velocity", "displacement", "rotation";
    the rotation error is measured in the skew-matrix Frobenius norm.
    """
    rule = triangle_rule(2 * spaces.k + 4)
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
        raise ConfigError(f"unknown field kind {fieldkind!r}")
    return float(np.sqrt((W * diff2).sum()))


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

    def _rows(self, blank: str):
        """The cells of each row: 1/h, then each field's error and order, with
        ``blank`` for the orders of the first row."""
        ords = {f: self.orders(f) for f in self.FIELDS}
        for i, n in enumerate(self.inv_h):
            cells = [str(n)]
            for f in self.FIELDS:
                order = ords[f][i]
                cells += [f"{self.errors[f][i]:.2e}", blank if order is None else f"{order:.2f}"]
            yield cells

    def to_csv(self) -> str:
        lines = ["inv_h,err_sigma,ord_sigma,err_v,ord_v,err_u,ord_u,err_r,ord_r"]
        lines += [",".join(cells) for cells in self._rows("")]
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        """The rows right-justified in columns of 10, so that the longest
        cell, 9 characters, stays one space from the one before."""
        header = ["1/h"] + [h for f in self.FIELDS for h in (f"err_{f}", "order")]
        return "\n".join("".join(c.rjust(10) for c in cells)
                         for cells in [header, *self._rows("--")])


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


def run_case(case: MmsCase, k: int, scheme: str, n: int, dt_rule=None):
    """Integrate one case on one mesh, with dt = 1/n unless ``dt_rule``
    gives it, and measure the errors at the final time (a non-finite one
    raises MixedElastError).  Returns (errors dict, trajectory, spaces).
    """
    system = _build_system(case.material, k, n, case.f, case.g)
    spaces = system.spaces
    initial = build_initial_data(case, system)
    dt = 1.0 / n if dt_rule is None else float(dt_rule)
    traj = integrate(system, initial, scheme, dt, case.T0)
    st = traj.final_state
    errors = {
        "sigma": l2_error(spaces, st.x, case.sigma, st.t, "stress"),
        "v": l2_error(spaces, st.beta, case.v, st.t, "velocity"),
        "u": l2_error(spaces, st.u, case.u, st.t, "displacement"),
        "r": l2_error(spaces, st.x, case.rotation, st.t, "rotation"),
    }
    for f, err in errors.items():
        if not np.isfinite(err):
            raise MixedElastError(f"non-finite {f} error at t={st.t}")
    return errors, traj, spaces


def convergence_study(case: MmsCase, k: int, scheme: str, n_list: Sequence[int],
                      dt_rule=None) -> ConvergenceTable:
    """One integrate-and-measure run per mesh of a doubling sequence."""
    n_list = list(n_list)
    for prev, cur in zip(n_list, n_list[1:]):
        if cur != 2 * prev:
            raise ConfigError("n_list must double at each refinement")
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
        raise ConfigError("case does not support lambda overrides")
    rows = []
    for lam in lambda_list:
        errs, _, _ = run_case(replace(case.rebuild(float(lam)), T0=case.T0), k, scheme, n)
        rows.append((float(lam), errs))
    return rows
