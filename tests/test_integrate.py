import numpy as np
import pytest

from kinvar import (
    ConservationError,
    IntegratorConfig,
    Reaction,
    build_rate_matrix,
    conservation_vector,
    dual_experiment_nonlinear,
    first_order_network,
    integrate,
    make_network,
    nonlinear_2A_B,
    simulate_linear,
)
from kinvar import _kernels
from kinvar.integrate import pack_network


def _ab2(kp=3.0, km=1.0):
    return make_network(["A", "B"], [Reaction(((0, 2),), ((1, 1),), kp, km)])


def test_pack_network_splits_directions():
    net = _ab2(3.0, 1.0)
    term_k, term_ptr, term_sp, term_pw, chg_ptr, chg_sp, chg_co = pack_network(net)
    assert list(term_k) == [3.0, 1.0]
    # forward term consumes A twice
    sl = slice(term_ptr[0], term_ptr[1])
    assert list(term_sp[sl]) == [0] and list(term_pw[sl]) == [2]
    sl = slice(chg_ptr[0], chg_ptr[1])
    assert dict(zip(chg_sp[sl], chg_co[sl])) == {0: -2.0, 1: 1.0}


def test_integrate_matches_linear_engine():
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 3.0, 4.0)]
    )
    times = np.concatenate(([0.0], np.geomspace(1e-3, 5.0, 60)))
    c0 = np.array([1.0, 0.0, 0.0])
    exact = simulate_linear(build_rate_matrix(net), c0, times)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    numeric = integrate(net, c0, times, cfg)
    np.testing.assert_allclose(
        numeric.concentrations, exact.concentrations, rtol=1e-9, atol=1e-11
    )


def test_integrate_step_to_grid_mode():
    net = _ab2()
    times = np.linspace(0.0, 3.0, 12)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, dense_output=False)
    dense = integrate(net, np.array([1.0, 0.0]), times)
    stepped = integrate(net, np.array([1.0, 0.0]), times, cfg)
    np.testing.assert_allclose(
        stepped.concentrations, dense.concentrations, rtol=1e-8, atol=1e-10
    )


def test_integrate_conserves_mass():
    net = _ab2(5.0, 0.5)
    w = conservation_vector(net)
    times = np.concatenate(([0.0], np.geomspace(1e-4, 20.0, 100)))
    traj = integrate(net, np.array([0.7, 0.2]), times)
    totals = traj.concentrations @ w
    np.testing.assert_allclose(totals, totals[0], rtol=1e-12)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_step=0.0)


def test_integrate_rejects_negative_initial_state():
    with pytest.raises(ValueError):
        integrate(_ab2(), np.array([1.0, -0.1]), np.array([0.0, 1.0]))


def test_dual_experiment_nonlinear_derives_partner_amount():
    net = _ab2()
    times = np.concatenate(([0.0], np.geomspace(1e-3, 8.0, 40)))
    dual = dual_experiment_nonlinear(net, 0, 1, times=times)
    # priming with B must carry the same conserved total: w = (1, 2)
    np.testing.assert_allclose(dual.from_b.concentrations[0], [0.0, 0.5])
    assert dual.conserved_total == pytest.approx(1.0)


def test_dual_experiment_nonlinear_rejects_mismatched_totals():
    net = _ab2()
    times = np.array([0.0, 1.0])
    with pytest.raises(ConservationError) as err:
        dual_experiment_nonlinear(net, 0, 1, a0=1.0, b0=1.0, times=times)
    # the message should name both conserved totals
    assert "1" in str(err.value) and "2" in str(err.value)


def test_integrate_matches_nonlinear_2A_B_closed_form():
    net = _ab2(3.0, 1.0)
    t = np.concatenate(([0.0], np.geomspace(1e-3, 6.0, 50)))
    traj = integrate(net, np.array([1.0, 0.0]), t)
    exact = nonlinear_2A_B(3.0, 1.0, t)
    gap = max(
        np.max(np.abs(traj.species(0) - exact.a_from_a)),
        np.max(np.abs(traj.species(1) - exact.b_from_a)),
    )
    assert gap <= 1e-9


def test_integrate_rejects_bad_grid_before_stepping(monkeypatch):
    def unreachable(*args):
        raise AssertionError("integrated on a bad grid")

    monkeypatch.setattr(_kernels, "integrate_dp54", unreachable)
    for times in (np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate(_ab2(), np.array([1.0, 0.0]), times)
        with pytest.raises(ValueError, match="strictly increasing"):
            dual_experiment_nonlinear(_ab2(), 0, 1, times=times)
