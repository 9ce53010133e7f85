import numpy as np
import pytest

from rdmix import Grid, default_half_width, derivative1, integrate
from rdmix.errors import DomainError


def test_grid_construction():
    g = Grid(2.0, 5)
    assert g.h == 1.0
    np.testing.assert_allclose(g.nodes, [-2, -1, 0, 1, 2])
    assert np.max(np.abs(np.diff(g.nodes) - g.h)) <= 1e-12 * g.h


@pytest.mark.parametrize("bad", [(0.0, 5), (-1.0, 5), (1.0, 2), (1.0, 4), (1.0, 1)])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(DomainError):
        Grid(*bad)


def test_default_half_width():
    assert default_half_width(1.0, 2.0) == 16.0
    assert default_half_width(0.3, 0.5) == 8.0


def test_derivative1_constant_and_linear():
    g = Grid(3.0, 31)
    np.testing.assert_allclose(derivative1(g, np.full(g.n, 4.2)), 0.0, atol=1e-14)
    np.testing.assert_allclose(derivative1(g, g.nodes), 1.0, atol=1e-13)


def test_derivative1_exact_on_quadratics():
    g = Grid(1.0, 101)
    err = derivative1(g, g.nodes**2) - 2.0 * g.nodes
    assert np.max(np.abs(err)) <= 1e-10
    # rows of a stacked array are differentiated as if one by one
    rows = np.stack((g.nodes**2, np.exp(g.nodes)))
    stacked = derivative1(g, rows)
    assert np.array_equal(stacked[0], derivative1(g, rows[0]))
    assert np.array_equal(stacked[1], derivative1(g, rows[1]))


def test_integrate_constant():
    g = Grid(5.0, 11)
    assert integrate(g, np.ones(g.n)) == pytest.approx(10.0, abs=1e-12)


def test_integrate_gaussian():
    g = Grid(8.0, 2001)
    assert integrate(g, np.exp(-(g.nodes**2))) == pytest.approx(np.sqrt(np.pi), abs=1e-8)


def test_integrate_odd_function_vanishes():
    g = Grid(4.0, 401)
    f = g.nodes**3 * np.exp(-np.abs(g.nodes))
    assert abs(integrate(g, f)) <= 1e-12


def test_integrate_linearity(rng):
    g = Grid(2.0, 201)
    f, h = rng.normal(size=g.n), rng.normal(size=g.n)
    a, b = 1.7, -0.3
    lhs = integrate(g, a * f + b * h)
    rhs = a * integrate(g, f) + b * integrate(g, h)
    scale = abs(lhs) + abs(rhs) + 1.0
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_fundamental_theorem_consistency():
    g = Grid(3.0, 401)
    f = np.tanh(g.nodes)
    assert integrate(g, derivative1(g, f)) == pytest.approx(f[-1] - f[0], abs=5 * g.h**2)


def test_value_validation():
    g = Grid(1.0, 11)
    with pytest.raises(DomainError):
        derivative1(g, np.ones(g.n - 1))
    with pytest.raises(DomainError):
        derivative1(g, np.ones((2, g.n - 1)))
    with pytest.raises(DomainError):
        integrate(g, np.ones((2, g.n)))
    with pytest.raises(DomainError):
        integrate(g, np.array([np.nan] * g.n))
