"""Time integration of the semidiscrete block ODE.

`integrate` steps it from 0 to T0 with Crank-Nicolson (energy conserving
for f = 0) or the 2-stage RadauIIA method (third order, stiffly accurate,
algebraically stable), and records the energy and the weak-symmetry
constraint of every state.  The displacement follows the trapezoidal rule
(CN) or the third-order reconstruction that consumes the RadauIIA
first-stage velocity derivative.

Each step solves with a shifted matrix S = E - dt c G.  For RadauIIA, c is a
complex eigenvalue of the tableau matrix A: diagonalising A over C decouples
the real 2N x 2N stage system into one complex N x N system and its complex
conjugate (Hairer-Wanner, Solving ODEs II, IV.8).  The velocity block of S is
the velocity mass M, which is block diagonal because the velocity space is
discontinuous; M^-1 is applied exactly, so only the Schur complement of S on
the stress and rotation unknowns is factored by a sparse LU: statics.SchurLU,
shared with the static saddle solve, in a symmetric fill-reducing order of
the mesh entities (George, SIAM J. Numer. Anal. 10, 1973).  The parts of
that LU that every scheme and dt share, E_r, K_r = B^T M^-1 B and M^-1,
are assembled with the system; each `integrate` call factors its own step
LU and frees it when it returns.

Both updates are written with E-products and solves only, so a system's
steps keep the state y = (x, v) in the spaces' numbering, apply the (stress,
rotation) block of E as one sparse matrix, and build no N x N E or G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .assembly import BlockSystem
from .errors import ConfigError, MixedElastError, SingularSystemError
from . import statics
from .statics import InitialData


# the 2-stage RadauIIA tableau: abscissae, stage matrix and weights
RADAU2_C = np.array([1.0 / 3.0, 1.0])
RADAU2_A = np.array([[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]])
RADAU2_B = np.array([3.0 / 4.0, 1.0 / 4.0])


def _complex_eigenpair(A: np.ndarray):
    """For a real 2 x 2 matrix with a complex eigenvalue pair: the eigenvalue
    lam with positive imaginary part, V = [v, conj(v)] and V^-1, so that
    A = V diag(lam, conj(lam)) V^-1.

    Closed form on purpose: an np.linalg call here would initialise LAPACK at
    import, which adds 1-2 MB of resident memory to runs that never use it.
    """
    half_trace = 0.5 * (A[0, 0] + A[1, 1])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    lam = complex(half_trace, np.sqrt(det - half_trace ** 2))
    p, q = A[0, 1], lam - A[0, 0]  # v = (p, q) solves (A - lam I) v = 0
    V = np.array([[p, p], [q, q.conjugate()]])
    return lam, V, np.array([[q.conjugate(), -p], [-q, p]]) / (p * (q.conjugate() - q))


_RADAU_LAMBDA, _RADAU_V, _RADAU_VINV = _complex_eigenpair(RADAU2_A)

CN = "cn"
RADAU2_NAME = "radau2"
SCHEMES = (CN, RADAU2_NAME)
_SHIFT = {CN: 0.5, RADAU2_NAME: _RADAU_LAMBDA}  # c of the step matrix E - dt c G


@dataclass
class SemidiscreteState:
    """Coefficient vectors at one time: x holds the stress and the rotation
    in the range of the spaces' stress and rotation maps; beta is the
    velocity and u the displacement."""

    t: float
    x: np.ndarray
    beta: np.ndarray
    u: np.ndarray

    alpha = gamma = property(lambda self: self.x, doc=(
        "x, read-only under the stress's and the rotation's former names for "
        "readers of final_state.alpha and .gamma outside the package (the "
        "benchmark harness)."))


@dataclass
class TrajectorySummary:
    final_state: SemidiscreteState
    times: np.ndarray
    energies: np.ndarray
    constraint_norms: np.ndarray
    alpha_norms: np.ndarray

    @property
    def max_constraint_rel(self) -> float:
        scale = np.maximum(self.alpha_norms, 1e-300)
        return float((self.constraint_norms / scale).max())


def _cn_update(y, ey, dt: float, f_mid, solve):
    """One Crank-Nicolson update of y, given its E-product ey = E y.

    (E - dt/2 G) y1 = (E + dt/2 G) y + dt f_mid is solved in midpoint form,
    y1 = 2 (E - dt/2 G)^-1 (E y + dt/2 f_mid) - y, which needs no G product.
    """
    return 2.0 * solve(ey + (dt / 2.0) * f_mid) - y


def _radau2_update(y, ey, dt: float, f1, f2, solve):
    """One 2-stage RadauIIA update of y, given ey = E y; returns (y1, K1).

    The stage equations (I (x) E - dt A (x) G) K = R, R_i = G y + f_i, are
    solved in the eigenbasis A = V diag(lam, conj(lam)) V^-1: one complex solve
    z = S^-1 ((V^-1)_00 R_1 + (V^-1)_01 R_2), S = E - dt lam G, gives the real
    stages K_i = 2 Re(V_i0 z).  As G y = (E y - S y) / (dt lam),
    z = S^-1 (q E y + (V^-1)_00 f_1 + (V^-1)_01 f_2) - q y with
    q = ((V^-1)_00 + (V^-1)_01) / (dt lam), which needs no G product.
    """
    w0, w1 = _RADAU_VINV[0]
    q = (w0 + w1) / (dt * _RADAU_LAMBDA)
    z = solve(q * ey + w0 * f1 + w1 * f2) - q * y
    k1, k2 = (2.0 * (_RADAU_V[i, 0] * z).real for i in (0, 1))
    return y + dt * (RADAU2_B[0] * k1 + RADAU2_B[1] * k2), k1


class _Stepper:
    """Steps of one scheme and dt on a system.  The step LU, statics.SchurLU's
    S(dt c) for the stress block A, solves E - dt c G; it is built here and
    lives as long as the stepper.

    A state is carried as y = (x, v) with its E-product ey = (E_r x, M v),
    E_r = A + C + C^T.  ey is computed once per state and serves the next
    step's right-hand side, the energy 1/2 (sigma.A sigma + v.M v) =
    1/2 y.ey - gamma.C sigma and the weak-symmetry moments C sigma, which
    are the rotation entries of E_r x.
    """

    def __init__(self, system: BlockSystem, scheme: str, dt: float):
        self.system, self.scheme, self.dt = system, scheme, dt
        self.lu = statics.SchurLU(system, system.Emat, dt * _SHIFT[scheme], "step")
        self.n = system.spaces.dim_x

    def eprod(self, y: np.ndarray) -> np.ndarray:
        return np.concatenate([self.system.Emat @ y[:self.n], self.system.Mmat @ y[self.n:]])

    def _load(self, t: float) -> np.ndarray:
        return np.concatenate([self.system.dirichlet_load(t), self.system.load(t)])

    def advance(self, t: float, y: np.ndarray, ey: np.ndarray, u: np.ndarray):
        """One step from the state (y, ey, u) at time t.  Returns (y1, u1,
        RadauIIA first stage velocity derivative, None for Crank-Nicolson).
        The displacement follows the trapezoidal rule in the velocity (CN) or
        the third-order reconstruction u + dt v + dt^2/2 vdot(t + dt/3)
        (RadauIIA)."""
        dt, v = self.dt, y[self.n:]
        if self.scheme == CN:
            y1 = _cn_update(y, ey, dt, self._load(t + dt / 2.0), self.lu.solve)
            k1, u1 = None, u + (dt / 2.0) * (v + y1[self.n:])
        else:
            f1, f2 = (self._load(t + c * dt) for c in RADAU2_C)
            y1, k1 = _radau2_update(y, ey, dt, f1, f2, self.lu.solve)
            k1 = k1[self.n:]
            u1 = u + dt * v + 0.5 * dt * dt * k1
        if not np.all(np.isfinite(y1)):
            label = "Crank-Nicolson" if self.scheme == CN else "RadauIIA"
            raise SingularSystemError(f"{label} step produced non-finite values")
        return y1, u1, k1


def step_count(dt: float, T0: float) -> int:
    """The number of steps of size dt from 0 to T0.  T0 and dt must be
    positive and finite, dt must advance t at T0 (T0 + dt > T0), and dt must
    divide T0 within 1e-12 max(1, T0)."""
    if not (0 < T0 < np.inf and 0 < dt < np.inf):
        raise ConfigError("T0 and dt must be positive and finite")
    if T0 + dt == T0:
        raise ConfigError(f"dt={dt} is below the resolution of T0={T0}")
    n_steps = int(round(T0 / dt))
    if n_steps < 1 or abs(n_steps * dt - T0) > 1e-12 * max(1.0, T0):
        raise ConfigError(f"dt={dt} does not divide T0={T0}")
    return n_steps


def integrate(system: BlockSystem, initial: InitialData, scheme: str, dt: float,
              T0: float, observers: Sequence[Callable] = ()) -> TrajectorySummary:
    """Step the block ODE from 0 to T0; dt must divide T0 within 1e-12.

    Observers are called as observer(step, t, state, system) after the
    initial state and after every step.  The summary records the energy, the
    weak-symmetry drift ||C sigma_n - C sigma_0|| and the stress norm per step,
    and a non-finite one raises MixedElastError."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    n_steps = step_count(dt, T0)
    stepper = _Stepper(system, scheme, dt)
    n, rot = stepper.n, system.spaces.rotation_map.ravel()
    stress = np.delete(np.arange(n), rot)
    y = np.concatenate([initial.x0, initial.v0])
    ey, u = stepper.eprod(y), initial.u0.copy()
    c_ref = ey[rot]

    times = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)
    cnorms = np.empty(n_steps + 1)
    anorms = np.empty(n_steps + 1)

    def record(i, t, y, ey, u):
        state = SemidiscreteState(t=t, x=y[:n], beta=y[n:], u=u)
        c_sigma = ey[rot]
        times[i] = t
        energies[i] = 0.5 * float(y @ ey) - float(state.x[rot] @ c_sigma)
        cnorms[i] = np.linalg.norm(c_sigma - c_ref)
        anorms[i] = np.linalg.norm(state.x[stress])
        for obs in observers:
            obs(i, t, state, system)
        return state

    t = 0.0
    state = record(0, t, y, ey, u)
    for i in range(1, n_steps + 1):
        y, u, _ = stepper.advance(t, y, ey, u)
        t, ey = t + dt, stepper.eprod(y)
        state = record(i, t, y, ey, u)
    for name, a in (("energy", energies), ("constraint norm", cnorms), ("stress norm", anorms)):
        if not np.all(np.isfinite(a)):
            raise MixedElastError(f"non-finite {name} in the trajectory")
    return TrajectorySummary(final_state=state, times=times, energies=energies,
                             constraint_norms=cnorms, alpha_norms=anorms)
