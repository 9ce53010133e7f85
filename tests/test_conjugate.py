import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmix import F_p, PhiFamily, c_tilde, m_hat, phi, phi_conjugate_bound, phi_conjugate_numeric
from rdmix import conjugate
from rdmix.conjugate import numeric_sup
from rdmix.entropy import F_p_conjugate
from rdmix.errors import DomainError, UnsupportedRegime


def test_phi_values():
    fam1 = PhiFamily("boltzmann_alpha", 1.0)
    assert phi(fam1, 0.0) == 0.0
    assert phi(fam1, math.e - 1.0) == pytest.approx(math.e - 1.0, abs=1e-14)
    assert phi(fam1, -1.0) == math.inf
    assert phi(fam1, -2.0) == math.inf
    fam_half = PhiFamily("general_p_alpha", 1.0, 0.5)
    assert phi(fam_half, 1.0) == pytest.approx(3.0, abs=1e-12)


def test_phi_half_closed_form():
    # 2 alpha z/(z+1) ((z+1)^(2 alpha) - 1) for p = 1/2
    for a in (1.0, 1.5, 2.0, 4.0):
        fam = PhiFamily("general_p_alpha", a, 0.5)
        z = np.linspace(-0.9, 5.0, 57)
        expected = 2.0 * a * z / (z + 1.0) * ((z + 1.0) ** (2 * a) - 1.0)
        np.testing.assert_allclose(phi(fam, z), expected, rtol=1e-12, atol=1e-12)


def test_phi_general_p_one_limit():
    # p -> 1 of the two-parameter family lands on the one-parameter family
    a = 2.0
    z = np.linspace(-0.5, 3.0, 29)
    lim = phi(PhiFamily("general_p_alpha", a, 1.0), z)
    np.testing.assert_allclose(lim, phi(PhiFamily("boltzmann_alpha", a), z), rtol=1e-12)
    near = phi(PhiFamily("general_p_alpha", a, 1.0 + 1e-9), z)
    np.testing.assert_allclose(near, lim, rtol=1e-6)


def test_phi_family_validation():
    with pytest.raises(DomainError):
        PhiFamily("boltzmann_alpha", 0.5)
    with pytest.raises(DomainError):
        PhiFamily("general_p_alpha", 2.0, -1.0)
    with pytest.raises(DomainError):
        PhiFamily("nope", 2.0)
    with pytest.raises(DomainError, match="general kind needs alpha > 0"):
        PhiFamily("general_p_alpha", 0.0, 1.0)


def test_conjugate_functions_reject_arguments_outside_their_domain():
    fam = PhiFamily("boltzmann_alpha", 2.0)
    for xi in (math.nan, np.array([0.5, math.nan]), np.array([math.inf])):
        with pytest.raises(DomainError, match="xi must be finite"):
            phi_conjugate_numeric(fam, xi)
    with pytest.raises(DomainError, match="power-growth coefficient needs alpha > 1"):
        c_tilde(1.0)
    with pytest.raises(DomainError, match="bound needs alpha >= 1"):
        phi_conjugate_bound(0.5, 1.0)


def test_conjugate_numeric_examples():
    for a in (1.0, 1.7, 3.0):
        assert phi_conjugate_numeric(PhiFamily("boltzmann_alpha", a), 0.0) == pytest.approx(
            0.0, abs=1e-12
        )
    assert phi_conjugate_numeric(PhiFamily("boltzmann_alpha", 1.0), 1.0) <= math.e - 2.0 + 1e-9
    assert phi_conjugate_numeric(PhiFamily("boltzmann_alpha", 2.0), 1.0) <= 0.25 + 1e-9


def test_conjugate_numeric_is_stable_under_grid_refinement(monkeypatch):
    fam = PhiFamily("boltzmann_alpha", 1.5)
    coarse = phi_conjugate_numeric(fam, 2.5)
    monkeypatch.setattr(conjugate, "_SWEEP_POINTS", 40_000)
    fine = phi_conjugate_numeric(fam, 2.5)
    assert coarse == pytest.approx(fine, rel=1e-8)


def test_conjugate_numeric_array_equals_scalar_calls():
    # the array call that the conjugate checks make in place of one call per xi
    xis = np.linspace(-5.0, 5.0, 41)
    zetas = np.linspace(-10.0, 10.0, 41)
    cases = [(PhiFamily("boltzmann_alpha", a), xis) for a in (1.0, 1.5, 2.0, 3.0)]
    pairs = [(0.5, 1.0), (0.5, 1.5), (0.5, 2.0), (0.5, 4.0), (1.0, 2.0), (1.5, 2.5), (2.0, 3.0)]
    cases += [(PhiFamily("general_p_alpha", a, p), zetas) for p, a in pairs]
    for fam, points in cases:
        column = phi_conjugate_numeric(fam, points)
        single = np.array([phi_conjugate_numeric(fam, float(x)) for x in points])
        assert column.shape == points.shape
        assert np.array_equal(column.view(np.int64), single.view(np.int64))  # bit for bit


def _tail_top_loop(fam, xi):
    """The upper sweep end of one xi by the decade-at-a-time tail scan."""
    decades_down, top, best_tail = 0, math.log10(1.0 + conjugate._Z_MAX), -np.inf
    while decades_down < 3 and top < 300:
        val = float(conjugate._objective(fam, xi, np.array([10.0**top - 1.0]))[0])
        if val < best_tail:
            decades_down += 1
        else:
            decades_down, best_tail = 0, val
        top += 1.0
    return top


def test_conjugate_tail_scan_equals_loop_reference():
    # the shared tail scan against a per-xi decade loop, a per-xi sweep to the
    # end that loop finds and a one-bracket refinement, bit for bit; the
    # general kind at alpha = 1/2, p = 2 grows sublinearly, so some of its
    # scans run to the 1e300 cap
    xis = np.array([-60.0, -5.0, -1.0, 0.0, 0.3, 2.0, 5.0, 60.0])
    fams = [PhiFamily("boltzmann_alpha", a) for a in (1.0, 1.5, 3.0)]
    fams += [PhiFamily("general_p_alpha", 2.0, 0.5), PhiFamily("general_p_alpha", 0.5, 2.0)]
    capped = 0
    for fam in fams:
        ref = []
        for x in xis.tolist():
            top = _tail_top_loop(fam, x)
            capped += top >= 300
            z = np.logspace(math.log10(conjugate._EDGE), top, conjugate._SWEEP_POINTS) - 1.0
            ref.append(max(0.0, numeric_sup(lambda t: conjugate._objective(fam, x, t), z)))
        assert phi_conjugate_numeric(fam, xis).tolist() == ref, fam
    assert capped


def _golden_refine_reference(f, a, b, best, tol):
    """The golden-section search kept in Python floats and lists: the reference per bracket."""
    g = conjugate._GOLDEN
    lo, hi = [float(x) for x in a], [float(x) for x in b]
    c = [y - g * (y - x) for x, y in zip(lo, hi)]
    d = [x + g * (y - x) for x, y in zip(lo, hi)]
    every = list(range(len(lo)))
    fc, fd = f(np.array(c), every).tolist(), f(np.array(d), every).tolist()
    live = [i for i in every if hi[i] - lo[i] > tol * max(1.0, abs(lo[i]), abs(hi[i]))]
    while live:
        left, t = [], []
        for i in live:
            if fc[i] > fd[i]:  # the maximum lies in [a, d]: b <- d, d <- c, c is new
                hi[i], d[i], fd[i] = d[i], c[i], fc[i]
                t.append(hi[i] - g * (hi[i] - lo[i]))
                left.append(True)
            else:  # it lies in [c, b]: a <- c, c <- d, d is new
                lo[i], c[i], fc[i] = c[i], d[i], fd[i]
                t.append(lo[i] + g * (hi[i] - lo[i]))
                left.append(False)
        for i, to_left, x, v in zip(live, left, t, f(np.array(t), live).tolist()):
            if to_left:
                c[i], fc[i] = x, v
            else:
                d[i], fd[i] = x, v
        live = [i for i in live if hi[i] - lo[i] > tol * max(1.0, abs(lo[i]), abs(hi[i]))]
    return np.array([max(b0, x, y) for b0, x, y in zip(best, fc, fd)])


def _search_objective(kind, k, shift):
    """f(t, i) with many local maxima, built from exactly rounded operations only.

    ``k`` and ``shift`` hold one value per bracket; ``steps`` and ``zeros``
    give exact ties, between 0.0 and -0.0 among them.
    """
    def f(t, i):
        s = t - shift[i]
        tri = 1.0 - np.abs((s * k[i]) % 2.0 - 1.0)  # a triangle wave with maxima 1
        if kind == "triangle":
            return tri * k[i]
        if kind == "quartic":  # two maxima, at s = +-sqrt(1/2) k
            s = s / k[i]
            return -(s * s - 0.5) * (s * s - 0.5)
        sign = np.where(s > 0.0, 1.0, -1.0)
        if kind == "steps":
            return np.floor(4.0 * tri) * sign
        return 0.0 * sign  # zeros

    return f


_brackets = st.lists(
    st.tuples(
        st.floats(-100.0, 100.0) | st.floats(-1e8, 1e8),
        st.sampled_from([0.0, 1e-14, 5e-324]) | st.floats(0.0, 1e-9) | st.floats(0.0, 50.0),
        st.sampled_from([-math.inf, 0.0, -0.0, 0.5]) | st.floats(-10.0, 10.0),
        st.floats(0.25, 8.0),
        st.floats(-0.5, 1.5),  # where the objective is centred, relative to the bracket
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    brackets=_brackets,
    tol=st.floats(1e-13, 1e-6),
    kind=st.sampled_from(["triangle", "quartic", "steps", "zeros"]),
)
@example(brackets=[(0.0, 1e-8, -math.inf, 1.0, 0.0)], tol=1e-8, kind="triangle")  # width = tol
@example(brackets=[(0.0, 10.0, -math.inf, 1.0, 0.5)], tol=1e-6, kind="zeros")  # every f ties
def test_golden_refine_equals_one_bracket_searches(brackets, tol, kind):
    # the array search over all brackets against the Python-float search of
    # each bracket alone, bit for bit, ties between 0.0 and -0.0 included
    lo, width, best, k, centre = (np.array(col) for col in zip(*brackets))
    f = _search_objective(kind, k, lo + centre * width)
    got = conjugate.golden_refine(f, lo, lo + width, best, tol)
    ref = np.concatenate([
        _golden_refine_reference(lambda t, _, j=j: f(t, [j]), [lo[j]], [lo[j] + width[j]],
                                 [best[j]], tol)
        for j in range(len(lo))
    ])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_conjugate_values_pinned():
    # repr of the values from the one-bracket-at-a-time refinement (F_p_conjugate
    # since it took its closed form)
    boltzmann = [(1.0, -3.0, 1.2680029043204382), (1.5, 2.5, 0.7842847603387336),
                 (3.0, 4.75, 0.5584335234344747), (2.0, 0.0, 0.0)]
    for a, xi, value in boltzmann:
        assert phi_conjugate_numeric(PhiFamily("boltzmann_alpha", a), xi) == value
    general = PhiFamily("general_p_alpha", 2.0, 0.5)
    assert phi_conjugate_numeric(general, 1.2) == 0.022081066923901233
    assert m_hat(0.5, 1.0) == 0.5
    assert m_hat(0.75, 1.5) == 0.27177970571594634
    assert m_hat(2.0, 3.0) == 0.2500000000043111
    assert F_p_conjugate(0.7, 2.0) == 0.945
    assert F_p_conjugate(1.5, 0.75) == 4.127999999999999
    assert F_p_conjugate(-2.0, 1.0) == -0.8646647167633873


def test_conjugate_bound_examples():
    # growth-branch values, where |xi| > alpha keeps the quadratic out of the minimum
    assert phi_conjugate_bound(1.0, 2.0) == pytest.approx(math.e**2 - 3.0, abs=1e-14)
    assert phi_conjugate_bound(3.0, 4.0) == pytest.approx(c_tilde(3.0) * 4.0**1.5, abs=1e-14)
    assert c_tilde(3.0) == pytest.approx((2.0 / 9.0) ** 0.5 * (2.0 / 3.0), abs=1e-14)
    assert c_tilde(2.0) == pytest.approx(0.25, abs=1e-15)
    # tightest bound picks up the small-xi quadratic
    for a in (1.0, 1.5, 2.0, 3.0, 5.0):
        assert phi_conjugate_bound(a, a / 2.0) <= a / 8.0 + 1e-14


def test_conjugate_bound_dominates_numeric():
    xis = np.linspace(-5.0, 5.0, 51)
    for a in (1.0, 1.5, 2.0, 3.0, 4.0):
        fam = PhiFamily("boltzmann_alpha", a)
        for xi, num in zip(xis, phi_conjugate_numeric(fam, xis).tolist()):
            assert num <= phi_conjugate_bound(a, float(xi)) + 1e-9


def test_conjugate_convex_nonnegative():
    fam = PhiFamily("boltzmann_alpha", 2.0)
    xis = np.linspace(-3.0, 3.0, 25)
    vals = phi_conjugate_numeric(fam, xis)
    assert np.all(vals >= -1e-12)
    assert vals[len(vals) // 2] == pytest.approx(0.0, abs=1e-10)
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert np.min(second) >= -1e-8  # discrete convexity


def test_appendix_lower_bounds():
    zs_neg = np.linspace(-1.0, 0.0, 2001)
    zs_pos = np.linspace(0.0, 50.0, 5001)
    for a in (1.0, 1.25, 2.0, 3.5):
        fam = PhiFamily("boltzmann_alpha", a)
        neg = phi(fam, zs_neg)
        assert np.all(neg >= a * zs_neg**2 - 1e-12)
        pos = phi(fam, zs_pos)
        lower = (a / 2.0) * np.maximum(a * zs_pos, zs_pos**a) * np.minimum(zs_pos, 1.0)
        assert np.all(pos >= lower - 1e-12)
    fam1 = PhiFamily("boltzmann_alpha", 1.0)
    z = np.linspace(-0.999, 30.0, 4001)
    lamb = np.array([F_p(1.0 + t, 1.0) for t in z])
    assert np.all(phi(fam1, z) >= lamb - 1e-12)


def _m_hat_rational_oracle(alpha: int) -> float:
    # for p = 1/2 and integer alpha the ratio reduces to
    # 2 w (w-1) / (w^(4 alpha... ) handled via polynomial division:
    # f(w) = (alpha/2) * w / sum_{j=0}^{4a... } -- construct numerically
    # ratio(z) = (alpha^2/(4 p^2)) z^2 / phi = alpha z^2 (w) / (2 w ... )
    # With p = 1/2: phi = 2 alpha (z/w) (w^(2 alpha) - 1), z = w - 1:
    # ratio = alpha z w / (2 (w^(2a) - 1)) = alpha w / (2 sum_{j=0}^{2a-1} w^j)
    two_a = int(round(2 * alpha))
    # stationary points: sum_j (1 - j) w^j = 0
    coeffs = [1.0 - j for j in range(two_a)]  # ascending powers
    roots = np.roots(list(reversed(coeffs)))
    best = 0.25  # z -> 0 limit
    for r in roots:
        if abs(r.imag) < 1e-12 and r.real > 0:
            w = r.real
            best = max(best, alpha * w / (2.0 * sum(w**j for j in range(two_a))))
    return best


def test_m_hat_known_values():
    assert m_hat(0.5, 1.0) == pytest.approx(0.5, abs=1e-6)
    for a in (2.0, 2.5, 3.0):
        assert m_hat(a - 1.0, a) == pytest.approx(0.25, abs=1e-6)


def test_m_hat_range_bounds():
    for a in (1.0, 1.5, 2.0, 4.0):
        val = m_hat(0.5, a)
        assert 0.25 - 1e-9 <= val <= a / 2.0 + 1e-9


def test_m_hat_against_rational_oracle():
    # independent closed-form reduction for p = 1/2 and integer alpha
    assert m_hat(0.5, 2.0) == pytest.approx(_m_hat_rational_oracle(2), abs=1e-9)
    assert m_hat(0.5, 4.0) == pytest.approx(_m_hat_rational_oracle(4), abs=1e-9)


def test_m_hat_regression_values():
    # pinned optimizer outputs
    assert m_hat(0.5, 2.0) == pytest.approx(0.2769531794, abs=1e-6)
    assert m_hat(0.5, 4.0) == pytest.approx(0.5021002369, abs=1e-6)


def test_m_hat_domain():
    with pytest.raises(DomainError):
        m_hat(1.5, 2.0)  # above max(alpha/2, alpha-1) = 1
    with pytest.raises(DomainError):
        m_hat(0.0, 2.0)


def test_c_tilde_past_the_float_range_names_the_constant():
    # (2/alpha^2)^(1/(alpha-1)) passes 2^1024 for alpha below about 1.00097
    assert c_tilde(1.001) == pytest.approx(1.45e297, rel=1e-2)
    with pytest.raises(UnsupportedRegime, match="c_tilde_alpha leaves the float range"):
        c_tilde(1.0005)


def test_conjugate_bound_past_the_float_range_names_itself():
    # |xi|^(alpha/(alpha-1)) = |xi|^1001 leaves the float range for |xi| above about 2
    assert phi_conjugate_bound(1.001, 1.0) == 0.5 / 1.001  # the quadratic, |xi| <= alpha
    for xi in (2.5, -5.0):
        with pytest.raises(UnsupportedRegime, match="bound = inf leaves the float range"):
            phi_conjugate_bound(1.001, xi)
    with pytest.raises(UnsupportedRegime, match="phi_conjugate_bound = inf"):
        phi_conjugate_bound(1.0, 800.0)  # e^xi
    with pytest.raises(UnsupportedRegime, match="phi_conjugate_bound = inf"):
        phi_conjugate_bound(2.0, 1e160)  # xi^2 as well
    assert phi_conjugate_bound(1.0, -1e200) == 1e200  # e^xi - xi - 1, past xi^2's range


def test_quadratic_conjugate_bound():
    for p, a in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0), (1.5, 2.5)):
        fam = PhiFamily("general_p_alpha", a, p)
        mh = m_hat(p, a)
        zetas = np.linspace(-10.0, 10.0, 41)
        for zeta, num in zip(zetas, phi_conjugate_numeric(fam, zetas).tolist()):
            assert num <= mh * (p * zeta / a) ** 2 + 1e-9


def test_m_hat_is_computed_once_per_pair():
    m_hat.cache_clear()
    first = m_hat(0.75, 1.5)
    assert m_hat.cache_info().misses == 1
    assert m_hat(0.75, 1.5) is first and m_hat.cache_info().hits == 1
    # the kept value is the one a fresh computation gives
    assert m_hat.__wrapped__(0.75, 1.5) == first


def test_m_hat_domain_error_is_raised_on_every_call():
    m_hat.cache_clear()
    for _ in range(3):
        with pytest.raises(DomainError):
            m_hat(1.5, 2.0)
    assert m_hat.cache_info().currsize == 0
