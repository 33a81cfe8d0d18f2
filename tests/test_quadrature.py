from math import factorial

import numpy as np
import pytest

from mixedelast import MixedElastError, edge_rule, triangle_rule


def tri_moment(a, b):
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_triangle_basic_moments():
    r = triangle_rule(2)
    x, y = r.xy[:, 0], r.xy[:, 1]
    assert r.weights.sum() == pytest.approx(0.5, rel=1e-15)
    assert (r.weights * x).sum() == pytest.approx(1.0 / 6.0, rel=1e-14)
    r = triangle_rule(4)
    x, y = r.xy[:, 0], r.xy[:, 1]
    assert (r.weights * x**2 * y**2).sum() == pytest.approx(tri_moment(2, 2), rel=1e-13)


@pytest.mark.parametrize("d", range(1, 13))
def test_triangle_monomial_exactness(d):
    r = triangle_rule(d)
    x, y = r.xy[:, 0], r.xy[:, 1]
    for a in range(d + 1):
        for b in range(d + 1 - a):
            val = (r.weights * x**a * y**b).sum()
            assert val == pytest.approx(tri_moment(a, b), rel=1e-13)


@pytest.mark.parametrize("d", range(1, 13))
def test_triangle_points_inside_weights_positive(d):
    r = triangle_rule(d)
    assert np.all(r.weights > 0)
    assert np.all(r.points >= 0.0) and np.all(r.points <= 1.0)
    assert np.allclose(r.points.sum(axis=1), 1.0, atol=1e-14)


def test_edge_basic_moments():
    r = edge_rule(3)
    assert len(r.points) == 2
    assert r.weights.sum() == pytest.approx(1.0, rel=1e-15)
    assert (r.weights * r.points**3).sum() == pytest.approx(0.25, rel=1e-14)
    r = edge_rule(6)
    assert len(r.points) == 4
    assert (r.weights * r.points**6).sum() == pytest.approx(1.0 / 7.0, rel=1e-13)


@pytest.mark.parametrize("d", range(1, 13))
def test_edge_monomial_exactness(d):
    r = edge_rule(d)
    assert len(r.points) == (d + 2) // 2
    for j in range(d + 1):
        assert (r.weights * r.points**j).sum() == pytest.approx(1.0 / (j + 1), rel=1e-13)
    assert np.all(r.weights > 0)
    assert np.all((r.points > 0) & (r.points < 1))


@pytest.mark.parametrize("d", [0, 13, -1])
def test_unsupported_degree(d):
    with pytest.raises(MixedElastError):
        triangle_rule(d)
    with pytest.raises(MixedElastError):
        edge_rule(d)


@pytest.mark.parametrize("m", range(1, 8))
def test_gauss_jacobi_matches_scipy(m):
    # the Golub-Welsch rule is scipy's rule up to roundoff, not bit for bit:
    # nodes within 1e-15, weights within 1e-14 relative, and it integrates
    # (1 - x) x^j over [-1, 1] for every j <= 2m - 1 to 1e-14 relative
    from scipy.special import roots_jacobi
    from mixedelast.quadrature import _gauss_jacobi_10
    x, w = _gauss_jacobi_10(m)
    x_ref, w_ref = roots_jacobi(m, 1.0, 0.0)
    assert np.abs(x - x_ref).max() <= 1e-15
    assert np.abs(w / w_ref - 1.0).max() <= 1e-14
    for j in range(2 * m):
        exact = 2.0 / (j + 1) if j % 2 == 0 else -2.0 / (j + 2)
        assert abs((w * x**j).sum() / exact - 1.0) <= 1e-14


def test_import_leaves_scipy_special_out():
    # the rules are built lazily, so the subprocess builds every one of them
    # before it looks for scipy.special
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mixedelast; "
            "[(mixedelast.triangle_rule(d), mixedelast.edge_rule(d)) for d in range(1, 13)]; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
