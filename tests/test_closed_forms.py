from fractions import Fraction

import numpy as np
import pytest

from conftest import three_cycle_laplace

from kinvar import (
    build_rate_matrix,
    first_order_network,
    nonlinear_2A_B,
    nonlinear_2A_2B,
    simulate_linear,
    single_reversible,
    transfer_function_cofactor,
    two_step_concentrations,
    two_step_eigenvalues,
)
from kinvar.closed_forms import TwoStepEigenvalues

# Oracle values computed with scipy (expm for the linear chain, solve_ivp at
# rtol 1e-12 for the quadratic rate laws), frozen here so regressions cannot
# hide behind a shared implementation.
TWO_STEP_ORACLE_FROM_A = (0.25493017234698034, 0.17627165560990327, 0.5687981720431163)
TWO_STEP_ORACLE_FROM_B = (0.08813582780495159, 0.07865851673707693, 0.8332056554579709)
A2B_ORACLE = {"a_from_a": 0.6323807950194278, "a_from_b": 0.5813256947017508}
A2B2_ORACLE = {"a_from_a": 0.3868127028411943, "a_from_b": 0.3457253686118277}


def test_single_reversible_matches_linear_engine():
    kp, km = 2.5, 0.8
    times = np.concatenate(([0.0], np.geomspace(1e-3, 6.0, 50)))
    sol = single_reversible(kp, km, times)
    net = first_order_network(["A", "B"], [("A", "B", kp, km)])
    M = build_rate_matrix(net)
    from_a = simulate_linear(M, np.array([1.0, 0.0]), times)
    from_b = simulate_linear(M, np.array([0.0, 1.0]), times)
    np.testing.assert_allclose(sol.a_from_a, from_a.species(0), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(sol.b_from_a, from_a.species(1), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(sol.a_from_b, from_b.species(0), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(sol.b_from_b, from_b.species(1), rtol=1e-12, atol=1e-14)


def test_single_reversible_invariant():
    times = np.geomspace(1e-3, 8.0, 40)
    sol = single_reversible(4.0, 1.6, times)
    np.testing.assert_allclose(sol.b_from_a / sol.a_from_b, 2.5, rtol=1e-12)


def test_two_step_eigenvalues_interlace():
    lam = two_step_eigenvalues(2.0, 1.0, 3.0)
    assert lam.lambda1 > 3.0 > lam.lambda2 > 0.0
    assert lam.lambda1 > 2.0 > lam.lambda2


def test_two_step_eigenvalue_ordering_is_enforced():
    with pytest.raises(ValueError):
        TwoStepEigenvalues(1.0, 2.0)


def test_two_step_against_frozen_oracle():
    sol = two_step_concentrations(2.0, 1.0, 3.0, np.array([0.9]))
    got_a = (sol.a_from_a[0], sol.b_from_a[0], sol.c_from_a[0])
    got_b = (sol.a_from_b[0], sol.b_from_b[0], sol.c_from_b[0])
    np.testing.assert_allclose(got_a, TWO_STEP_ORACLE_FROM_A, rtol=1e-10)
    np.testing.assert_allclose(got_b, TWO_STEP_ORACLE_FROM_B, rtol=1e-10)


def test_two_step_matches_linear_engine():
    kp1, km1, kp2 = 1.7, 0.6, 2.9
    times = np.concatenate(([0.0], np.geomspace(1e-3, 5.0, 60)))
    sol = two_step_concentrations(kp1, km1, kp2, times)
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", kp1, km1), ("B", "C", kp2, 0.0)]
    )
    M = build_rate_matrix(net)
    from_a = simulate_linear(M, np.array([1.0, 0.0, 0.0]), times)
    from_b = simulate_linear(M, np.array([0.0, 1.0, 0.0]), times)
    for got, ref in [
        (sol.a_from_a, from_a.species(0)),
        (sol.b_from_a, from_a.species(1)),
        (sol.c_from_a, from_a.species(2)),
        (sol.a_from_b, from_b.species(0)),
        (sol.b_from_b, from_b.species(1)),
        (sol.c_from_b, from_b.species(2)),
    ]:
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)


def test_two_step_invariant_survives_irreversible_drain():
    times = np.geomspace(1e-3, 3.0, 50)
    sol = two_step_concentrations(1.3, 0.4, 5.0, times)
    np.testing.assert_allclose(sol.b_from_a / sol.a_from_b, 1.3 / 0.4, rtol=1e-10)


def test_three_cycle_laplace_matches_cofactor_route():
    rates = tuple(Fraction(x) for x in (2, 3, 5, 7, 11, 13))
    kp1, km1, kp2, km2, kp3, km3 = rates
    forms = three_cycle_laplace(*rates)
    # A -> B -> C -> A forward with the matching backward arrows
    net = first_order_network(
        ["A", "B", "C"],
        [
            ("A", "B", float(kp1), float(km1)),
            ("B", "C", float(kp2), float(km2)),
            ("C", "A", float(kp3), float(km3)),
        ],
    )
    M = build_rate_matrix(net)
    pairs = {
        forms.L_a_from_a: (0, 0),
        forms.L_b_from_a: (0, 1),
        forms.L_a_from_b: (1, 0),
    }
    for printed, (src, tgt) in pairs.items():
        direct = transfer_function_cofactor(M, src, tgt)
        assert printed.numerator == direct.numerator
        assert printed.denominator == direct.denominator
    assert forms.delta.coefficient(0) == 0  # conservation: s factors out
    assert forms.sigma1 == sum(rates)


def test_nonlinear_2A_B_against_frozen_oracle():
    sol = nonlinear_2A_B(1.0, 2.0, np.array([0.7]))
    np.testing.assert_allclose(sol.a_from_a[0], A2B_ORACLE["a_from_a"], rtol=1e-10)
    np.testing.assert_allclose(sol.a_from_b[0], A2B_ORACLE["a_from_b"], rtol=1e-10)


def test_nonlinear_2A_B_conservation_and_invariant():
    t = np.geomspace(1e-2, 12.0, 60)
    kp, km = 3.0, 1.5
    sol = nonlinear_2A_B(kp, km, t)
    np.testing.assert_allclose(sol.a_from_a + 2.0 * sol.b_from_a, 1.0, atol=1e-12)
    ratio = sol.b_from_a / (sol.a_from_a * sol.a_from_b)
    np.testing.assert_allclose(ratio, kp / km, rtol=1e-8)


def test_nonlinear_2A_B_saturates_to_equilibrium():
    sol = nonlinear_2A_B(2.0, 1.0, np.array([1e6]))
    kappa = 2.0
    gamma = np.sqrt(8.0 * kappa + 1.0)
    np.testing.assert_allclose(sol.a_from_a[0], 2.0 / (gamma + 1.0), rtol=1e-12)
    assert np.isfinite(sol.b_from_a[0]) and np.isfinite(sol.a_from_b[0])


def test_nonlinear_2A_2B_against_frozen_oracle():
    sol = nonlinear_2A_2B(3.0, 1.0, np.array([0.45]))
    np.testing.assert_allclose(sol.a_from_a[0], A2B2_ORACLE["a_from_a"], rtol=1e-10)
    np.testing.assert_allclose(sol.a_from_b[0], A2B2_ORACLE["a_from_b"], rtol=1e-10)


def test_nonlinear_2A_2B_invariant():
    t = np.geomspace(1e-2, 10.0, 60)
    kp, km = 2.0, 0.5
    sol = nonlinear_2A_2B(kp, km, t)
    np.testing.assert_allclose(sol.a_from_a + sol.b_from_a, 1.0, atol=1e-12)
    np.testing.assert_allclose(sol.a_from_b + sol.b_from_b, 1.0, atol=1e-12)
    ratio = (sol.b_from_a * sol.b_from_b) / (sol.a_from_a * sol.a_from_b)
    np.testing.assert_allclose(ratio, kp / km, rtol=1e-8)


@pytest.mark.parametrize("func", [single_reversible, nonlinear_2A_B, nonlinear_2A_2B])
def test_nonpositive_rates_rejected(func):
    with pytest.raises(ValueError):
        func(1.0, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        func(-1.0, 1.0, np.array([1.0]))
