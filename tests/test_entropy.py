import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rdmix import (
    F_p,
    F_p_conjugate,
    Grid,
    ProblemData,
    State,
    dissipation_total,
    fisher_information,
    gamma_fn,
    hellinger_sq,
    mixed_term,
    reactive_dissipation,
    relative_densities,
    relative_entropy,
    solve_profile,
    split_mixed_term,
)
from rdmix.conjugate import numeric_sup
from rdmix.errors import DomainError
from tests.conftest import flat_profile


# ---------------------------------------------------------------- scalars


def test_boltzmann_values():
    assert F_p(1.0, 1.0) == 0.0
    assert F_p(math.e, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert F_p(0.0, 1.0) == 1.0
    with pytest.raises(DomainError):
        F_p(-0.1, 1.0)


@given(st.floats(min_value=1e-6, max_value=1e3))
def test_boltzmann_nonnegative(z):
    assert F_p(z, 1.0) >= 0.0


def test_F_p_values():
    assert F_p(3.0, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert F_p(4.0, 0.5) == pytest.approx(2.0, abs=1e-14)  # 2 (sqrt z - 1)^2
    for z in (0.25, 1.0, 2.5):
        assert F_p(z, 1.0) == pytest.approx(z * math.log(z) - z + 1.0, abs=1e-15)
    assert F_p(1.0, 0.7) == 0.0
    with pytest.raises(DomainError):
        F_p(-1.0, 2.0)
    with pytest.raises(DomainError):
        F_p(0.0, -1.0)


def test_generators_on_arrays_equal_scalar_calls():
    # one definition serves floats and arrays: an array gives, element by
    # element, exactly the float of a scalar call
    z = np.array([0.0, 1e-310, 1e-300, 0.25, 1.0, math.e, 7.5, 1e6])
    for p in (1.0, 0.5, 2.0, 0.0, -1.0):
        zp = z if p > 0 else z[3:]
        vals = F_p(zp, p)
        assert isinstance(vals, np.ndarray) and vals.shape == zp.shape
        scalars = [F_p(float(x), p) for x in zp]
        assert all(type(s) is float for s in scalars)
        assert [v.hex() for v in vals.tolist()] == [s.hex() for s in scalars], p
    assert F_p(z, 1.0)[0] == 1.0
    with pytest.raises(DomainError):
        F_p(np.array([0.5, -1e-3, 2.0]), 1.0)
    with pytest.raises(DomainError):
        F_p(np.array([0.5, -1e-3, 2.0]), 2.0)
    with pytest.raises(DomainError):
        F_p(np.array([0.5, 0.0]), 0.0)
    for p in (1.0, 2.0):  # a NaN is not extended like z = 0
        with pytest.raises(DomainError):
            F_p(math.nan, p)
        with pytest.raises(DomainError):
            F_p(np.array([0.5, math.nan]), p)


@settings(max_examples=200)
@given(
    st.floats(min_value=1e-4, max_value=10.0),
    st.floats(min_value=1e-3, max_value=0.999),
)
@example(z=0.999999001, p=0.999)
def test_F_p_boltzmann_comparison(z, p):
    # for p in (0, 1) the Boltzmann function dominates: p F_p(z) <= F_p(z, 1)
    assert p * F_p(z, p) <= F_p(z, 1.0) * (1.0 + 1e-12) + 1e-15


@settings(max_examples=200)
@given(
    st.floats(min_value=1e-4, max_value=10.0),
    st.floats(min_value=1e-3, max_value=3.0),
)
def test_F_p_lower_bound_hellinger(z, p):
    assert F_p(z, p) >= (0.5 / max(p, 1.0 - p)) * F_p(z, 0.5) * (1.0 - 1e-12)


def _F_p_decimal(z: float, p: float) -> float:
    """(z^p - p z + p - 1) / (p (p - 1)) in 50-digit decimal arithmetic at the float z."""
    with localcontext() as ctx:
        ctx.prec = 50
        z, p = Decimal(z), Decimal(p)
        return float(((z.ln() * p).exp() - p * z + p - 1) / (p * (p - 1)))


@pytest.mark.parametrize("z", [1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 1e-5, 1.0 - 1e-5])
def test_F_p_half_has_no_cancellation(z):
    assert F_p(z, 0.5) == pytest.approx(_F_p_decimal(z, 0.5), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [-1.0, 1e-3, 0.25, 0.999, 1.001, 3.0])
@pytest.mark.parametrize("z", [1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 1e-5, 1.0 - 1e-5, 1e-3, 50.0])
def test_F_p_general_forms_near_one(z, p):
    # the expm1 forms lose digits like 1/|z - 1|, as the Boltzmann function
    # does; the closed form lost them like 1/(p (1 - p) (z - 1)^2)
    expected = _F_p_decimal(z, p)
    assert F_p(z, p) == pytest.approx(expected, rel=max(1e-15 / abs(z - 1.0), 1e-15), abs=0.0)


def test_F_p_conjugate_closed_form():
    assert F_p_conjugate(1.0, 0.5) == pytest.approx(2.0, abs=1e-14)
    assert F_p_conjugate(0.0, 0.5) == 0.0
    zeta = 1.0 / math.sqrt(2.0)
    expected = 2.0 * zeta / (2.0 - zeta)
    assert F_p_conjugate(zeta, 0.5) == pytest.approx(expected, abs=1e-14)
    with pytest.raises(DomainError):
        F_p_conjugate(2.0, 0.5)


def test_F_p_conjugate_matches_grid_search():
    # independent sup over a dense grid
    for p, zeta in ((0.5, 1.0 / math.sqrt(2.0)), (0.75, 1.2), (2.0, -0.5), (2.0, 1.5)):
        z = np.linspace(1e-9, 60.0, 2_000_001)
        vals = zeta * z - ((z**p - p * z + p - 1.0) / (p * (p - 1.0)))
        brute = float(np.max(vals))
        assert F_p_conjugate(zeta, p) == pytest.approx(brute, abs=1e-6)


def test_numeric_sup_matches_closed_form_conjugates():
    # a log-grid sweep of the conjugate's objective, refined, against the
    # closed form, where the maximiser lies inside the sweep
    sweep = np.logspace(-12.0, 12.0, 4001)
    for p, zetas in ((0.5, (-3.0, -1.0, 0.0, 0.5, 1.0, 1.5, 1.9)),
                     (2.0, (-0.9, -0.5, 0.0, 1.0, 3.0, 10.0))):
        for zeta in zetas:
            sup = numeric_sup(lambda z: zeta * z - F_p(z, p), sweep)
            assert sup == pytest.approx(F_p_conjugate(zeta, p), rel=1e-12, abs=1e-12)


def _F_p_conjugate_decimal(zeta: float, p: float) -> float:
    """((1 + (p-1) zeta)^(p/(p-1)) - 1) / p and its limits, in 400-digit decimal arithmetic.

    400 digits keep those of any |zeta| >= 1e-200 in 1 + (p-1) zeta.
    """
    with localcontext() as ctx:
        ctx.prec = 400
        z, q = Decimal(zeta), Decimal(p)
        if p == 1.0:
            return float(z.exp() - 1)
        if p == 0.0:
            return float(-(1 - z).ln())
        base = 1 + (q - 1) * z
        if base <= 0:  # p > 1: the maximiser is z = 0
            return float(-1 / q)
        return float(((base.ln() * q / (q - 1)).exp() - 1) / q)


CONJUGATE_P = [-1.0, 0.0, 1e-3, 0.25, 0.5, 0.75, 0.999, 1.0, 1.001, 2.0, 3.0]


def _conjugate_zetas(p: float) -> list[float]:
    """+-1e-8 and a spread of zeta; the kink for p > 1, and 0.9 / (1 - p) for p < 1."""
    zetas = [-30.0, -3.0, -0.5, -1e-8, 0.0, 1e-8, 0.5, 3.0, 10.0]
    if p > 1.0:
        kink = -1.0 / (p - 1.0)
        return zetas + [1.5 * kink, kink, 0.5 * kink]
    if p < 1.0:
        pole = 1.0 / (1.0 - p)
        return [z for z in zetas if z < pole] + [0.9 * pole]
    return zetas


@pytest.mark.parametrize("p", CONJUGATE_P)
def test_F_p_conjugate_matches_decimal_reference(p):
    for zeta in _conjugate_zetas(p):
        expected = _F_p_conjugate_decimal(zeta, p)
        assert F_p_conjugate(zeta, p) == pytest.approx(expected, rel=1e-15, abs=0.0), zeta


def test_F_p_conjugate_past_the_float_range_is_inf():
    assert F_p_conjugate(30.0, 1.0) == math.expm1(30.0)
    assert F_p_conjugate(800.0, 1.0) == math.inf
    assert F_p_conjugate(2000.0, 1.001) == math.inf
    with pytest.raises(DomainError):
        F_p_conjugate(1.0 / 0.75, 0.25)
    with pytest.raises(DomainError):
        F_p_conjugate(1.0, 0.0)


def _conjugate_condition(zeta: float, p: float) -> float:
    """The condition of the float closed form, in units of one rounding.

    With b = 1 + (p-1) zeta and x = p/(p-1) log b: a relative error in x moves
    the value by at most 1 + max(x, 0) times as much, and a relative error in
    (p-1) zeta moves x by |b - 1| / (b |log b|) times as much.
    """
    if p == 1.0:
        x, b = zeta, 1.0
    elif p == 0.0:
        x, b = 0.0, 1.0 - zeta
    else:
        b = 1.0 + (p - 1.0) * zeta
        if b <= 0.0:
            return 1.0
        x = p / (p - 1.0) * math.log(b)
    spread = 1.0 if b == 1.0 else 1.0 + abs(b - 1.0) / (b * abs(math.log(b)))
    return (1.0 + max(x, 0.0)) * spread


# p and zeta of normal size: where p zeta / (p - 1) underflows the float
# range, so do the digits of the closed form
@settings(max_examples=200)
@given(
    st.one_of(
        st.sampled_from(CONJUGATE_P),
        st.floats(min_value=-2.0, max_value=-1e-6),
        st.floats(min_value=1e-6, max_value=4.0),
    ),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=-1e3, max_value=-1e-200),
        st.floats(min_value=1e-200, max_value=1e3),
    ),
)
@example(zeta=1e-8, p=0.999)
@example(zeta=-1.0, p=2.0)
def test_F_p_conjugate_closed_form_against_reference(p, zeta):
    # like the F_p forms near z = 1, the closed form loses digits only where
    # the conjugate itself is ill-conditioned: large values, and zeta near 1/(1-p)
    assume(p >= 1.0 or zeta < 1.0 / (1.0 - p))
    expected = _F_p_conjugate_decimal(zeta, p)
    assume(abs(expected) < 1e300)
    rel = 1e-15 * _conjugate_condition(zeta, p)
    assert F_p_conjugate(zeta, p) == pytest.approx(expected, rel=rel, abs=0.0)


def test_F_p_conjugate_zero_at_origin():
    for p in (0.3, 0.5, 1.5, 2.0):
        assert F_p_conjugate(0.0, p) == pytest.approx(0.0, abs=1e-12)


def test_gamma_fn():
    assert gamma_fn(3.7, 3.7) == 0.0
    assert gamma_fn(math.e, 1.0) == pytest.approx(math.e - 1.0, abs=1e-14)
    assert gamma_fn(0.0, 1.0) == math.inf
    assert gamma_fn(1.0, 0.0) == math.inf
    assert gamma_fn(0.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        gamma_fn(-1.0, 2.0)


@given(
    st.floats(min_value=1e-8, max_value=1e6),
    st.floats(min_value=1e-8, max_value=1e6),
)
@example(1e6, 999999.9999999999)  # log a == log b in floating point
def test_gamma_symmetry_positivity(a, b):
    assert gamma_fn(a, b) == gamma_fn(b, a)
    assert gamma_fn(a, b) >= 0.0
    if a != b:
        assert gamma_fn(a, b) > 0.0


# ------------------------------------------------------------- functionals


def _perturbed_state(profile, eps_u=0.1, eps_v=0.0):
    y = profile.grid.nodes
    u = profile.U * (1.0 + eps_u * np.exp(-(y**2)))
    v = profile.V * (1.0 + eps_v * np.exp(-(y**2)))
    return State(profile.grid, u, v, 0.0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_state_rejects_values_that_are_not_positive_and_finite(value):
    g = Grid(1.0, 11)
    bad = np.ones(g.n)
    bad[5] = value
    message = "must be positive nodewise" if math.isfinite(value) else "must be finite"
    for u, v in ((bad, np.ones(g.n)), (np.ones(g.n), bad)):
        with pytest.raises(DomainError, match=message):
            State(g, u, v, 0.0)


def test_relative_densities_need_one_grid():
    state = State(Grid(1.0, 11), np.ones(11), np.ones(11), 0.0)
    for grid in (Grid(2.0, 11), Grid(1.0, 13)):
        with pytest.raises(DomainError, match="must share one grid"):
            relative_densities(state, flat_profile(grid))


def test_relative_entropy_zero_at_profile(equal_orders_profile):
    state = State(
        equal_orders_profile.grid,
        equal_orders_profile.U.copy(),
        equal_orders_profile.V.copy(),
        0.0,
    )
    assert relative_entropy(state, equal_orders_profile, 1.0) == 0.0
    assert hellinger_sq(state, equal_orders_profile) == 0.0


def test_relative_entropy_scaled_state():
    g = Grid(1.0, 201)
    prof = flat_profile(g)
    state = State(g, np.full(g.n, math.e), np.ones(g.n), 0.0)
    # F_p(e, 1) = 1, so the u-term integrates U over [-1, 1]
    assert relative_entropy(state, prof, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_relative_entropy_refinement_oracle():
    data = ProblemData(2, 2, 1, 3, 1, 1, 2)
    vals = []
    for n in (2001, 8001):
        g = Grid(16.0, n)
        prof = solve_profile(data, g)
        state = _perturbed_state(prof)
        vals.append(relative_entropy(state, prof, 1.0))
    assert vals[0] == pytest.approx(vals[1], rel=1e-6)
    assert vals[0] > 0.0


def test_fisher_information_flat_density(equal_orders_profile):
    dens = relative_densities(
        State(
            equal_orders_profile.grid,
            equal_orders_profile.U.copy(),
            equal_orders_profile.V.copy(),
            0.0,
        ),
        equal_orders_profile,
    )
    assert fisher_information(dens, equal_orders_profile) == 0.0


@pytest.mark.parametrize("L, n", [(8.0, 32001), (16.0, 2001)])
def test_fisher_information_analytic_oracle(L, n):
    # rho = 1 + 0.1 e^{-y^2}, zeta = 1, U = V = 1, d1 = 1:
    # integrand = rho_y^2 / rho with rho_y = -0.2 y e^{-y^2}
    g = Grid(L, n)
    prof = flat_profile(g, data=ProblemData(1, 1, 1, 1, 1, 1, 1))
    y = g.nodes
    state = State(g, 1.0 + 0.1 * np.exp(-(y**2)), np.ones(g.n), 0.0)
    dens = relative_densities(state, prof)
    got = fisher_information(dens, prof)
    rho = 1.0 + 0.1 * np.exp(-(y**2))
    rho_y = -0.2 * y * np.exp(-(y**2))
    expected = np.trapezoid(rho_y**2 / rho, y)
    assert got == pytest.approx(float(expected), abs=1e-8)


def test_fisher_information_linear_in_diffusivity():
    g = Grid(8.0, 801)
    y = g.nodes
    state_vals = 1.0 + 0.1 * np.exp(-(y**2))
    one = flat_profile(g, data=ProblemData(1, 1, 1, 1, 1, 1, 1))
    two = flat_profile(g, data=ProblemData(1, 1, 2, 1, 1, 1, 1))
    dens_state = State(g, state_vals, np.ones(g.n), 0.0)
    d1 = fisher_information(relative_densities(dens_state, one), one)
    d2 = fisher_information(relative_densities(dens_state, two), two)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-14)


def test_reactive_dissipation_constant_integrand():
    g = Grid(1.0, 1001)
    prof = flat_profile(g, data=ProblemData(2, 1, 1, 1, 1, 1, 1))
    state = State(g, np.full(g.n, 2.0), np.ones(g.n), 0.0)
    dens = relative_densities(state, prof)
    expected = 2.0 * gamma_fn(4.0, 1.0)  # integrand Gamma(rho^2, zeta) over length 2
    assert reactive_dissipation(dens, prof) == pytest.approx(expected, rel=1e-14)


def test_reactive_dissipation_zero_on_manifold():
    g = Grid(1.0, 101)
    prof = flat_profile(g, data=ProblemData(2, 1, 1, 1, 1, 1, 1))
    rho = np.full(g.n, 1.21)
    state = State(g, rho, rho**2, 0.0)  # zeta = rho^alpha/beta keeps rho^a = zeta^b
    dens = relative_densities(state, prof)
    assert reactive_dissipation(dens, prof) == pytest.approx(0.0, abs=1e-13)


def test_mixed_term_zero_cases(equal_orders_profile):
    state = _perturbed_state(equal_orders_profile, 0.1, 0.1)
    dens = relative_densities(state, equal_orders_profile)
    # rho = zeta and alpha = beta: the integrand vanishes nodewise
    assert mixed_term(dens, equal_orders_profile) == pytest.approx(0.0, abs=1e-14)
    g = Grid(1.0, 101)
    flat = flat_profile(g)
    state2 = State(g, np.full(g.n, 1.3), np.full(g.n, 0.8), 0.0)
    assert mixed_term(relative_densities(state2, flat), flat) == 0.0  # Lambda = 0


def test_split_mixed_term(unequal_orders_profile, rng):
    prof = unequal_orders_profile
    y = prof.grid.nodes
    u = prof.U * (1.0 + 0.2 * np.exp(-(y**2)))
    v = prof.V * (1.0 - 0.15 * np.exp(-((y - 1.0) ** 2)))
    state = State(prof.grid, u, v, 0.0)
    dens = relative_densities(state, prof)
    part1, part2 = split_mixed_term(dens, prof)
    total = mixed_term(dens, prof)
    assert part1 + part2 == pytest.approx(total, rel=1e-12, abs=1e-15)
    # the rho-side of the remainder vanishes identically
    a = prof.data.alpha
    rho_side = a * (dens.rho - 1.0 - (a * (dens.rho**a) ** (1.0 / a) - a) / a)
    assert np.max(np.abs(rho_side)) <= 1e-12


def test_split_mixed_term_requires_unequal_orders(equal_orders_profile):
    state = _perturbed_state(equal_orders_profile)
    dens = relative_densities(state, equal_orders_profile)
    with pytest.raises(DomainError):
        split_mixed_term(dens, equal_orders_profile)


def test_remainder_bound_random_states(unequal_orders_profile, rng):
    # entropy-controlled part of the mixed term stays below theta * E_B
    prof = unequal_orders_profile
    d = prof.data
    theta = (d.alpha - d.beta) * float(np.max(np.abs(prof.Lambda / prof.V)))
    y = prof.grid.nodes
    for _ in range(20):
        au, av = rng.uniform(-0.5, 1.0, size=2)
        wu, wv = rng.uniform(0.5, 2.0, size=2)
        u = prof.U * (1.0 + au * np.exp(-((y / wu) ** 2)))
        v = prof.V * (1.0 + av * np.exp(-((y / wv) ** 2)))
        state = State(prof.grid, u, v, 0.0)
        dens = relative_densities(state, prof)
        _, part2 = split_mixed_term(dens, prof)
        E_B = relative_entropy(state, prof, 1.0)
        assert part2 <= theta * E_B + 1e-10


def test_hellinger_identities(equal_orders_profile, rng):
    g = Grid(1.0, 501)
    prof = flat_profile(g)
    state = State(g, np.full(g.n, 4.0), np.ones(g.n), 0.0)
    assert hellinger_sq(state, prof) == pytest.approx(2.0, rel=1e-14)
    # half the p = 1/2 entropy, and below max(p, 1-p) E_p
    prof2 = equal_orders_profile
    y = prof2.grid.nodes
    for _ in range(10):
        a_u, a_v = rng.uniform(-0.4, 0.8, size=2)
        u = prof2.U * (1.0 + a_u * np.exp(-(y**2)))
        v = prof2.V * (1.0 + a_v * np.exp(-((y + 0.5) ** 2)))
        state = State(prof2.grid, u, v, 0.0)
        he = hellinger_sq(state, prof2)
        assert he == pytest.approx(0.5 * relative_entropy(state, prof2, 0.5), rel=1e-10)
        for p in (0.25, 0.5, 0.75):
            assert he <= max(p, 1.0 - p) * relative_entropy(state, prof2, p) * (1 + 1e-12)


def test_entropy_zero_iff_at_profile(equal_orders_profile, rng):
    prof = equal_orders_profile
    y = prof.grid.nodes
    state = State(prof.grid, prof.U * (1 + 0.05 * np.exp(-(y**2))), prof.V.copy(), 0.0)
    assert relative_entropy(state, prof, 1.0) > 1e-6
    exact = State(prof.grid, prof.U.copy(), prof.V.copy(), 0.0)
    assert relative_entropy(exact, prof, 1.0) <= 1e-10


def test_dissipation_total_assembly(equal_orders_profile):
    prof = equal_orders_profile
    state = _perturbed_state(prof, 0.1, -0.05)
    rec = dissipation_total(state, prof, (1.0, 0.5))
    reconstructed = rec.I_Fisher + 0.5 * rec.E_B - rec.I_Lambda + math.exp(rec.tau) * rec.D_react
    assert rec.D_B_total == reconstructed  # identity by construction
    assert rec.E_B >= 0 and rec.I_Fisher >= 0 and rec.D_react >= 0
    assert rec.hellinger_sq >= 0
    assert set(rec.E_p) == {1.0, 0.5}
    assert rec.I_Lambda_1 == rec.I_Lambda and rec.I_Lambda_2 == 0.0  # equal orders


def test_dissipation_total_equilibrium_zero():
    data = ProblemData(2, 2, 1, 1, 1, 1, 2)
    g = Grid(16.0, 801)
    prof = solve_profile(data, g)
    state = State(g, prof.U.copy(), prof.V.copy(), 0.0)
    rec = dissipation_total(state, prof)
    assert rec.E_B == 0.0 and rec.I_Fisher == 0.0
    assert abs(rec.D_react) <= 1e-12 and abs(rec.I_Lambda) <= 1e-12


def test_dissipation_mixed_vanishes_equal_diffusivities(rng):
    data = ProblemData(2, 2, 1.5, 1.5, 1, 1, 2)
    g = Grid(16.0, 801)
    prof = solve_profile(data, g)
    y = g.nodes
    state = State(
        g,
        prof.U * (1 + 0.3 * np.exp(-(y**2))),
        prof.V * (1 - 0.2 * np.exp(-(y**2))),
        0.0,
    )
    rec = dissipation_total(state, prof)
    assert abs(rec.I_Lambda) <= 1e-9  # Lambda vanishes when d1 = d2


def test_dissipation_total_hellinger_without_half():
    # H^2 has one definition, E_(1/2) / 2, whether or not p = 1/2 is sampled
    data = ProblemData(2, 1, 1, 2, 1, 1, 2)
    prof = solve_profile(data, Grid(16.0, 801))
    state = _perturbed_state(prof, 0.1, -0.05)
    rec = dissipation_total(state, prof, (1.0, 2.0))
    assert set(rec.E_p) == {1.0, 2.0}
    assert rec.hellinger_sq == hellinger_sq(state, prof)
    with_half = dissipation_total(state, prof, (1.0, 0.5))
    assert with_half.hellinger_sq == 0.5 * with_half.E_p[0.5]
    assert with_half.hellinger_sq == rec.hellinger_sq


# the six problems of the benchmark's simulate cases (and the certified runs)
SIX_CASES = [
    (1, 1, 1, 3, 1, 1, 2),
    (1.5, 1.5, 1, 3, 1, 1, 2),
    (2, 2, 1, 3, 1, 1, 2),
    (4, 4, 1, 3, 1, 1, 2),
    (2, 2, 1, 1, 1, 1, 2),
    (2, 1, 1, 2, 1, 1, 2),
]


@pytest.mark.parametrize("case", SIX_CASES)
def test_dissipation_total_equals_its_functionals(case):
    # one sample shares densities, E_B and the profile's cached arrays; each
    # field must still be what its public functional gives on its own
    data = ProblemData(*case)
    prof = solve_profile(data, Grid(16.0, 2001))
    y = prof.grid.nodes
    u = prof.U * (1.0 + 0.2 * np.exp(-(y**2)))
    v = prof.V * (1.0 - 0.15 * np.exp(-((y - 1.0) ** 2)))
    state = State(prof.grid, u, v, 0.7)
    p_list = (0.5, 1.0, 2.0, data.alpha - 1.0, 1.0)
    rec = dissipation_total(state, prof, p_list)

    fresh = dataclasses.replace(prof)  # no cached arrays yet
    dens = relative_densities(state, fresh)
    assert rec.E_B == relative_entropy(state, fresh, 1.0)
    assert rec.E_p == {q: relative_entropy(state, fresh, q) for q in p_list}
    expected = {
        "I_Fisher": fisher_information(dens, fresh),
        "D_react": reactive_dissipation(dens, fresh),
        "I_Lambda": mixed_term(dens, fresh),
        "hellinger_sq": hellinger_sq(state, fresh),
    }
    if data.alpha > data.beta:
        expected["I_Lambda_1"], expected["I_Lambda_2"] = split_mixed_term(dens, fresh)
    else:
        expected["I_Lambda_1"], expected["I_Lambda_2"] = expected["I_Lambda"], 0.0
    expected["D_B_total"] = (
        expected["I_Fisher"]
        + 0.5 * rec.E_B
        - expected["I_Lambda"]
        + math.exp(state.tau) * expected["D_react"]
    )
    for name, value in expected.items():
        assert getattr(rec, name) == pytest.approx(value, rel=1e-13, abs=1e-300), name


# every field of one record, as printed with repr before the functionals lost
# their power-family branches (I_Fisher and D_B_total since the Fisher
# information took the solver's fourth-order D1; E_p and hellinger_sq since F_p
# took its expm1 and p = 1/2 forms and H^2 became E_(1/2) / 2): an operation
# moved in any of them changes a digit
PINNED_RECORDS = {
    (2, 2, 1, 3, 1, 1, 2): dict(
        E_B=0.10453512307739858,
        E_p={0.5: 0.10404972900403461, 1.0: 0.10453512307739858, 2.0: 0.10579076057720768},
        I_Fisher=0.39274195709355497,
        D_react=3.781625615273135,
        I_Lambda=0.029827977191165804,
        I_Lambda_1=0.029827977191165804,
        I_Lambda_2=0.0,
        hellinger_sq=0.05202486450201731,
        D_B_total=8.030440362837071,
    ),
    (2, 1, 1, 2, 1, 1, 2): dict(
        E_B=0.08228718445334894,
        E_p={0.5: 0.08235061849588525, 1.0: 0.08228718445334894, 2.0: 0.08237646159619266},
        I_Fisher=0.25667287586867943,
        D_react=0.8498275496935256,
        I_Lambda=-0.006078594505804992,
        I_Lambda_1=-0.006003871028662253,
        I_Lambda_2=-7.472347714273836e-05,
        hellinger_sq=0.041175309247942625,
        D_B_total=2.015237591679497,
    ),
}


@pytest.mark.parametrize("case", PINNED_RECORDS)
def test_dissipation_total_record_pinned(case):
    # the perturbed state of test_dissipation_total_equals_its_functionals
    data = ProblemData(*case)
    prof = solve_profile(data, Grid(16.0, 2001))
    y = prof.grid.nodes
    u = prof.U * (1.0 + 0.2 * np.exp(-(y**2)))
    v = prof.V * (1.0 - 0.15 * np.exp(-((y - 1.0) ** 2)))
    rec = dissipation_total(State(prof.grid, u, v, 0.7), prof, (0.5, 1.0, 2.0, data.alpha - 1.0))
    fields = dataclasses.asdict(rec)
    assert fields.pop("tau") == 0.7
    assert math.isnan(fields.pop("dissipation_residual"))
    assert list(fields.pop("E_p").items()) == list(PINNED_RECORDS[case]["E_p"].items())
    assert fields == {k: v for k, v in PINNED_RECORDS[case].items() if k != "E_p"}


@pytest.mark.parametrize("value", [1e200, 1e-305])
def test_dissipation_total_rejects_overflow_and_clamped_densities(value):
    # u = 1e200 overflows rho^alpha and the Fisher integrand; u = 1e-305
    # puts rho under the 1e-300 clamp of the reaction pairing
    data = ProblemData(4, 4, 1, 3, 1, 1, 2)
    prof = solve_profile(data, Grid(16.0, 2001))
    u = prof.U.copy()
    u[1000] = value
    state = State(prof.grid, u, prof.V.copy(), 0.0)
    with pytest.raises(DomainError), np.errstate(over="ignore"):
        dissipation_total(state, prof, (1.0, 0.5, 3.0))
