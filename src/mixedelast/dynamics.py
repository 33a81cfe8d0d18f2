"""Time integration of the semidiscrete block ODE.

Crank-Nicolson (energy conserving for f = 0) and the 2-stage RadauIIA
method (third order, stiffly accurate, algebraically stable), plus the
third-order displacement reconstruction that consumes the RadauIIA
first-stage velocity derivative.

Each step solves with a shifted matrix S = E - dt c G.  For RadauIIA, c is a
complex eigenvalue of the tableau matrix A: diagonalising A over C decouples
the real 2N x 2N stage system into one complex N x N system and its complex
conjugate (Hairer-Wanner, Solving ODEs II, IV.8).  The velocity block of S is
the velocity mass M, which is block diagonal because the velocity space is
discontinuous; M^-1 is applied exactly, so only the Schur complement of S on
the stress and rotation unknowns is factored by a sparse LU: statics.SchurLU,
shared with the static saddle solve, in a symmetric fill-reducing order of
the mesh entities (George, SIAM J. Numer. Anal. 10, 1973).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sps

from .assembly import BlockSystem
from .errors import MixedElastError, SingularSystemError
from . import statics
from .statics import InitialData, checked_solve


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients; row sums of A must equal c and sum(b) = 1."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if not np.allclose(self.A.sum(axis=1), self.c, atol=1e-15):
            raise MixedElastError("tableau row sums do not match the abscissae")
        if abs(self.b.sum() - 1.0) > 1e-15:
            raise MixedElastError("tableau weights must sum to 1")


RADAU2 = ButcherTableau(
    c=np.array([1.0 / 3.0, 1.0]),
    A=np.array([[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]]),
    b=np.array([3.0 / 4.0, 1.0 / 4.0]),
)


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


_RADAU_LAMBDA, _RADAU_V, _RADAU_VINV = _complex_eigenpair(RADAU2.A)

CN = "cn"
RADAU2_NAME = "radau2"
SCHEMES = (CN, RADAU2_NAME)
_SHIFT = {CN: 0.5, RADAU2_NAME: _RADAU_LAMBDA}  # c of the step matrix E - dt c G


@dataclass
class SemidiscreteState:
    """Coefficient vectors at one time: stress, velocity, rotation, displacement."""

    t: float
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    u: np.ndarray


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


def _system_blocks(system: BlockSystem):
    cache = system._cache
    if "EG" not in cache:
        A, B, C, M = system.Amat, system.Bmat, system.Cmat, system.Mmat
        nM, nV, nK = system.dims
        E = sps.bmat([[A, None, C.T], [None, M, None], [C, None, None]], format="csr")
        G = sps.bmat(
            [[sps.csr_matrix((nM, nM)), -B.T, sps.csr_matrix((nM, nK))],
             [B, None, None],
             [sps.csr_matrix((nK, nM)), None, sps.csr_matrix((nK, nK))]],
            format="csr",
        )
        cache["EG"] = (E, G)
    return cache["EG"]


def _step_matrix(E, G, scheme: str, dt: float) -> sps.csr_matrix:
    """The N x N matrix E - dt c G a step of the scheme solves with: c = 1/2
    for Crank-Nicolson, and for RadauIIA the complex eigenvalue of RADAU2.A
    with positive imaginary part, 1/3 + i sqrt(2)/6."""
    return E - (dt * _SHIFT[scheme]) * G


def _factorize(system: BlockSystem, scheme: str, dt: float) -> statics.SchurLU:
    """The solver of E - dt c G, which is SchurLU's S(dt c) with the stress
    block A, cached on the system per (scheme, dt)."""
    cache = system._cache.setdefault("factors", {})
    if (scheme, dt) not in cache:
        cache[scheme, dt] = statics.SchurLU(system, system.Amat, dt * _SHIFT[scheme], "step")
    return cache[scheme, dt]


def _unreduced_solver(E, G, scheme: str, dt: float):
    """Checked solve with an LU of the full step matrix, for a bare (E, G)
    pair, which carries no block structure to eliminate."""
    S = _step_matrix(E, G, scheme, dt)
    return lambda rhs: checked_solve(statics.factorize(S.tocsc(), "step").solve,
                                     S.__matmul__, rhs, "step")


def _load_vector(system: BlockSystem, t: float) -> np.ndarray:
    nM, nV, nK = system.dims
    F = np.zeros(nM + nV + nK)
    F[:nM] = system.dirichlet_load(t)
    F[nM:nM + nV] = system.load(t)
    return F


def _unpack(system: BlockSystem, y: np.ndarray):
    nM, nV, _ = system.dims
    return y[:nM], y[nM:nM + nV], y[nM + nV:]


def cn_kernel(E, G, y: np.ndarray, dt: float, f_mid: np.ndarray, lu=None) -> np.ndarray:
    """One Crank-Nicolson update (E - dt/2 G) y1 = (E + dt/2 G) y + dt f_mid."""
    solve = lu.solve if lu is not None else _unreduced_solver(E, G, CN, dt)
    return solve(E @ y + (dt / 2.0) * (G @ y) + dt * f_mid)


def radau2_kernel(E, G, y: np.ndarray, dt: float, f1: np.ndarray, f2: np.ndarray,
                  lu=None):
    """One 2-stage RadauIIA update; returns (y1, first stage derivative K1).

    The stage equations (I (x) E - dt A (x) G) K = R, R_i = G y + f_i, are
    solved in the eigenbasis A = V diag(lam, conj(lam)) V^-1: one complex solve
    z = (E - dt lam G)^-1 ((V^-1)_00 R_1 + (V^-1)_01 R_2) gives the real
    stages K_i = 2 Re(V_i0 z).
    """
    solve = lu.solve if lu is not None else _unreduced_solver(E, G, RADAU2_NAME, dt)
    b = RADAU2.b
    gy = G @ y
    z = solve(_RADAU_VINV[0, 0] * (gy + f1) + _RADAU_VINV[0, 1] * (gy + f2))
    k1, k2 = (2.0 * (_RADAU_V[i, 0] * z).real for i in (0, 1))
    return y + dt * (b[0] * k1 + b[1] * k2), k1


def _advance(system: BlockSystem, state: SemidiscreteState, scheme: str, dt: float):
    """The part of a step both schemes share: solve with the cached LU and
    check the result.  Returns the new (alpha, beta, gamma) and the RadauIIA
    first stage derivative K1 (None for Crank-Nicolson)."""
    if dt <= 0:
        raise MixedElastError("dt must be positive")
    E, G = _system_blocks(system)
    lu = _factorize(system, scheme, dt)
    y = np.concatenate([state.alpha, state.beta, state.gamma])
    if scheme == CN:
        y1, k1 = cn_kernel(E, G, y, dt, _load_vector(system, state.t + dt / 2.0), lu=lu), None
    else:
        f1, f2 = (_load_vector(system, state.t + c * dt) for c in RADAU2.c)
        y1, k1 = radau2_kernel(E, G, y, dt, f1, f2, lu=lu)
    if not np.all(np.isfinite(y1)):
        label = "Crank-Nicolson" if scheme == CN else "RadauIIA"
        raise SingularSystemError(f"{label} step produced non-finite values")
    return _unpack(system, y1), k1


def cn_step(system: BlockSystem, state: SemidiscreteState, dt: float) -> SemidiscreteState:
    """Advance one Crank-Nicolson step with midpoint load evaluation.

    The displacement is updated by the trapezoidal rule in the velocity.
    The solver of E - dt/2 G is cached on the system per (scheme, dt).
    """
    (alpha, beta, gamma), _ = _advance(system, state, CN, dt)
    u = state.u + (dt / 2.0) * (state.beta + beta)
    return SemidiscreteState(t=state.t + dt, alpha=alpha, beta=beta, gamma=gamma, u=u)


def radau2_step(system: BlockSystem, state: SemidiscreteState, dt: float):
    """Advance one 2-stage RadauIIA step.

    Returns (new state, stage velocity derivative at t + dt/3).  The
    displacement is updated with the third-order reconstruction
    u1 = u + dt v + dt^2/2 vdot(t + dt/3).
    """
    (alpha, beta, gamma), k1 = _advance(system, state, RADAU2_NAME, dt)
    _, k1_beta, _ = _unpack(system, k1)
    u = reconstruct_displacement_third_order(state.u, state.beta, k1_beta, dt)
    new = SemidiscreteState(t=state.t + dt, alpha=alpha, beta=beta, gamma=gamma, u=u)
    return new, k1_beta


def reconstruct_displacement_third_order(u_i: np.ndarray, beta_i: np.ndarray,
                                         stage_beta_derivative: np.ndarray,
                                         dt: float) -> np.ndarray:
    """Taylor-type update u_{i+1} = u_i + dt v_i + dt^2/2 vdot(t_i + dt/3)."""
    return u_i + dt * beta_i + 0.5 * dt * dt * stage_beta_derivative


def energy(system: BlockSystem, state: SemidiscreteState) -> float:
    """Discrete energy 1/2 (A sigma, sigma) + 1/2 (rho v, v)."""
    return 0.5 * float(state.alpha @ (system.Amat @ state.alpha)
                       + state.beta @ (system.Mmat @ state.beta))


def integrate(system: BlockSystem, initial: InitialData, scheme: str, dt: float,
              T0: float, observers: Sequence[Callable] = ()) -> TrajectorySummary:
    """Step the block ODE from 0 to T0; dt must divide T0 within 1e-12.

    Observers are called as observer(step, t, state, system) after the
    initial state and after every step.  The summary records energy and the
    weak-symmetry constraint drift ||C alpha_n - C alpha_0|| per step.
    """
    if scheme not in SCHEMES:
        raise MixedElastError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if T0 <= 0 or dt <= 0:
        raise MixedElastError("T0 and dt must be positive")
    n_steps = int(round(T0 / dt))
    if n_steps < 1 or abs(n_steps * dt - T0) > 1e-12 * max(1.0, T0):
        raise MixedElastError(f"dt={dt} does not divide T0={T0}")

    state = SemidiscreteState(
        t=0.0, alpha=initial.sigma0.copy(), beta=initial.v0.copy(),
        gamma=initial.r0.copy(), u=initial.u0.copy(),
    )
    c_ref = system.Cmat @ state.alpha

    times = np.empty(n_steps + 1)
    energies = np.empty(n_steps + 1)
    cnorms = np.empty(n_steps + 1)
    anorms = np.empty(n_steps + 1)

    def record(i, st):
        times[i] = st.t
        energies[i] = energy(system, st)
        cnorms[i] = np.linalg.norm(system.Cmat @ st.alpha - c_ref)
        anorms[i] = np.linalg.norm(st.alpha)
        for obs in observers:
            obs(i, st.t, st, system)

    record(0, state)
    for i in range(1, n_steps + 1):
        if scheme == CN:
            state = cn_step(system, state, dt)
        else:
            state, _ = radau2_step(system, state, dt)
        record(i, state)

    return TrajectorySummary(final_state=state, times=times, energies=energies,
                             constraint_norms=cnorms, alpha_norms=anorms)
