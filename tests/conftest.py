import types

import numpy as np
import pytest
import sympy as sp

from mixedelast import MaterialModel, build_spaces, build_uniform_square_mesh


@pytest.fixture(scope="session")
def mesh_cache():
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_uniform_square_mesh(n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def spaces_cache(mesh_cache):
    cache = {}

    def get(n, k):
        if (n, k) not in cache:
            cache[(n, k)] = build_spaces(mesh_cache(n), k)
        return cache[(n, k)]

    return get


@pytest.fixture
def unit_material():
    return MaterialModel(mu=1.0, lambda_=1.0)


def _reachable(root):
    """Every object reachable from root through attributes, dicts, lists,
    tuples and the closure cells of functions (the arrays a load closure
    holds)."""
    seen, stack = {}, [root]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen[id(value)] = value
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif hasattr(value, "__dict__"):
            stack.extend(vars(value).values())
        if isinstance(value, types.FunctionType):
            stack.extend(cell.cell_contents for cell in value.__closure__ or ())
    return list(seen.values())


def pattern_arrays(op):
    """The pattern and source-map arrays of a RangeOperator."""
    return [getattr(op, name) for name in ("indptr", "indices", "src", "dup", "src2")]


def make_matrix_field(rng):
    """A random smooth polynomial-plus-trig matrix field with analytic divergence.

    Returns (sigma, div_sigma) callables of (x, y) with shapes
    (2, 2) + broadcast and (2,) + broadcast.
    """
    x, y = sp.symbols("x y", real=True)
    entries = []
    for _ in range(4):
        c = rng.uniform(-1.0, 1.0, size=6)
        a = rng.uniform(0.5, 2.0, size=2)
        e = (c[0] + c[1] * x + c[2] * y + c[3] * x * y
             + c[4] * sp.sin(a[0] * x + a[1] * y) + c[5] * sp.cos(a[1] * x - a[0] * y))
        entries.append(e)
    S = [[entries[0], entries[1]], [entries[2], entries[3]]]
    div = [sp.diff(S[0][0], x) + sp.diff(S[0][1], y),
           sp.diff(S[1][0], x) + sp.diff(S[1][1], y)]
    fs = [[sp.lambdify((x, y), e, "numpy") for e in row] for row in S]
    fd = [sp.lambdify((x, y), e, "numpy") for e in div]

    def sigma(xx, yy):
        xx = np.asarray(xx, dtype=float)
        out = np.empty((2, 2) + xx.shape)
        for i in range(2):
            for j in range(2):
                out[i, j] = np.broadcast_to(fs[i][j](xx, yy), xx.shape)
        return out

    def div_sigma(xx, yy):
        xx = np.asarray(xx, dtype=float)
        out = np.empty((2,) + xx.shape)
        for i in range(2):
            out[i] = np.broadcast_to(fd[i](xx, yy), xx.shape)
        return out

    return sigma, div_sigma
