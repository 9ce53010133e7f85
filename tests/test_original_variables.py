"""``simulate.run`` against an independent solve of the system in the original variables.

Every other oracle of the time integration lives in the scaled variables
tau = log(1 + t), y = x / sqrt(1 + t), so a sign or factor error in the e^tau
reaction prefactor, the (y/2) drift or the map itself would move them together
with the scheme.  Here the system as the paper states it,

    u_t = d1 u_xx - alpha k (u^alpha - v^beta),  v_t = d2 v_xx + beta k (u^alpha - v^beta),

is solved on x in [-30, 30] by second-order central differences (not the fdops
stencils) with the ends held at the equilibria, by scipy's BDF with an analytic
sparse Jacobian, from the run's own initial state to t = e - 1.  ``run`` at tau = 1
is compared with it through x = y sqrt(1 + t) on |y| < 12.
"""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from rdmix import InitialConditionSpec, ProblemData, SimConfig, build_initial_state, run

_X_HALF_WIDTH, _X_NODES = 30.0, 4801
_COMPARED_Y = 12.0


def _config(data, dtau):
    return SimConfig(data, 1.0, grid_n=2001, grid_half_width=16.0, dtau_initial=dtau,
                     dtau_max=dtau, sample_interval=1.0, p_list=(1.0,),
                     ic=InitialConditionSpec("gaussian_bump", amplitude=0.2))


def _reference(data, state, t_end):
    """Cubic splines of u and v in x at ``t_end`` from ``state`` (given in y = x at t = 0)."""
    x = np.linspace(-_X_HALF_WIDTH, _X_HALF_WIDTH, _X_NODES)
    h, inner = x[1] - x[0], x[1:-1]
    ends = ((data.u_minus, data.u_plus), (data.v_minus, data.v_plus))
    y = state.grid.nodes
    start = []
    for row, (minus, plus) in zip((state.u, state.v), ends):
        # beyond the run's grid the state is flat at its end values
        values = np.where(inner < 0.0, float(minus), float(plus))
        inside = np.abs(inner) <= y[-1]
        values[inside] = CubicSpline(y, row)(inner[inside])
        start.append(values)
    m = inner.size
    lap = sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m), format="csr") / h**2
    # the held end values enter the first and last interior rows
    pin_u, pin_v = np.zeros(m), np.zeros(m)
    (pin_u[0], pin_u[-1]), (pin_v[0], pin_v[-1]) = np.divide(ends, h**2)
    a, b, k, d1, d2 = data.alpha, data.beta, data.k, data.d1, data.d2

    def rhs(t, w):
        u, v = w[:m], w[m:]
        r = k * (u**a - v**b)
        return np.concatenate((d1 * (lap @ u + pin_u) - a * r, d2 * (lap @ v + pin_v) + b * r))

    def jac(t, w):
        u, v = w[:m], w[m:]
        r_u, r_v = sparse.diags(k * a * u ** (a - 1.0)), sparse.diags(-k * b * v ** (b - 1.0))
        return sparse.bmat([[d1 * lap - a * r_u, -a * r_v], [b * r_u, d2 * lap + b * r_v]],
                           format="csc")

    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate(start), method="BDF", jac=jac,
                    rtol=1e-9, atol=1e-12)
    assert sol.success, sol.message
    final = sol.y[:, -1]
    return [CubicSpline(x, np.concatenate(([minus], final[r * m:(r + 1) * m], [plus])))
            for r, (minus, plus) in enumerate(ends)]


# measured max relative differences at dtau 1e-2 / 1e-3: 5.6e-6 / 7.5e-7 (closed-form
# root) and 1.5e-5 / 1.4e-6 (Newton root); at 1e-4 they are 5.5e-7 and 4.5e-7, the
# reference's own space error (2.2e-6 and 1.5e-6 on 2401 nodes, which the error at
# 1e-3 would meet).  A reaction prefactor of 1 reads 7e-3, a flipped drift 0.3
@pytest.mark.parametrize("data", [ProblemData(2, 1, 1, 2, 1, 1, 2),
                                  ProblemData(1.5, 1.5, 1, 3, 1, 1, 2)],
                         ids=["closed_form_root", "newton_root"])
def test_run_agrees_with_a_solve_in_the_original_variables(data):
    errors = []
    for dtau in (1e-2, 1e-3):
        result = run(_config(data, dtau))
        final = result.final_state
        assert final.tau == 1.0
        t_end = math.expm1(final.tau)
        if not errors:  # one reference per case: both runs start from the same state
            splines = _reference(data, build_initial_state(_config(data, dtau), result.profile),
                                 t_end)
        y = final.grid.nodes
        near = np.abs(y) < _COMPARED_Y
        x = y[near] * math.sqrt(1.0 + t_end)
        errors.append(max(np.max(np.abs(row[near] / spline(x) - 1.0))
                          for row, spline in zip((final.u, final.v), splines)))
    coarse, fine = errors
    assert fine <= 4e-5
    assert coarse >= 5.0 * fine  # first order in dtau, above the reference's own error
