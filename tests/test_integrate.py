import dataclasses
import logging

import numpy as np
import pytest

from kinvar import (
    ConservationError,
    IntegrationError,
    IntegratorConfig,
    Reaction,
    Trajectory,
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


def _stiff():
    # 2A <=> B fast, B <=> C slow
    return make_network(["A", "B", "C"], [
        Reaction(((0, 2),), ((1, 1),), 1e4, 1e3),
        Reaction(((1, 1),), ((2, 1),), 1e-2, 5e-3),
    ])


def _counting_rhs(monkeypatch):
    """Count the kernel's right-hand-side evaluations; returns the counter."""
    calls = [0]
    rhs = _kernels.rhs_packed

    def counted(*args):
        calls[0] += 1
        return rhs(*args)

    monkeypatch.setattr(_kernels, "rhs_packed", counted)
    return calls


def test_pack_network_splits_directions():
    net = _ab2(3.0, 1.0)
    (kf, factors, changes), (kb, _, _) = pack_network(net)
    assert [kf, kb] == [3.0, 1.0]
    # forward term consumes A twice
    assert factors == (0, 0)
    assert dict(changes) == {0: -2.0, 1: 1.0}


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


def test_integrate_rejects_negative_initial_state():
    with pytest.raises(ValueError):
        integrate(_ab2(), np.array([1.0, -0.1]), np.array([0.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_rejects_non_finite_initial_state(monkeypatch, bad):
    def unreachable(*args):
        raise AssertionError("integrated a non-finite initial state")

    monkeypatch.setattr(_kernels, "integrate_dp54", unreachable)
    with pytest.raises(ValueError, match="finite"):
        integrate(_ab2(), np.array([bad, 0.0]), np.array([0.0, 1.0]))


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


def test_integrate_step_sequence_is_pinned(monkeypatch):
    # the step sequence and output bits of the Dormand-Prince loop as first
    # recorded; any change to its arithmetic or controller moves them
    calls = _counting_rhs(monkeypatch)
    t = np.concatenate(([0.0], np.geomspace(1e-3, 6.0, 50)))
    traj = integrate(_ab2(3.0, 1.0), np.array([1.0, 0.0]), t)
    assert calls[0] == 1082
    c = traj.concentrations
    assert repr(float(c[1, 0])) == "0.9940387604760305"
    assert repr(float(c[25, 1])) == "0.14453838978183606"
    assert repr(float(c[-1, 0])) == "0.33333333333523946"
    assert traj.stats.rhs_evals == calls[0]


def test_integrate_negative_concentration_fails_at_pinned_time():
    cfg = IntegratorConfig(rel_tol=0.1, abs_tol=1e-16)
    times = np.concatenate(([0.0], np.geomspace(1e-6, 1.0, 200)))
    c0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(IntegrationError, match="concentration fell below") as err:
        integrate(_stiff(), c0, times, cfg)
    assert err.value.t == 0.025895066588000407

    # the kernel leaves the rows past the failure as NaN
    status, t_fail, out, _ = _kernels.integrate_dp54(
        pack_network(_stiff()), c0, times, cfg.rel_tol, cfg.abs_tol)
    assert status == _kernels.STATUS_NEGATIVE and t_fail == err.value.t
    reached = times <= t_fail
    assert np.all(np.isfinite(out[reached])) and np.all(np.isnan(out[~reached]))


def test_integrate_step_underflow_at_finite_time_blow_up():
    # 2A -> 3B and 2B -> 3A: d(a + b)/dt = a^2 + b^2 >= (a + b)^2 / 2, so from
    # a + b = 1 the solution blows up before t = 2 and the steps shrink to
    # nothing
    net = make_network(["A", "B"], [Reaction(((0, 2),), ((1, 3),), 1.0, 0.0),
                                    Reaction(((1, 2),), ((0, 3),), 1.0, 0.0)])
    t = np.concatenate(([0.0], np.geomspace(1e-3, 6.0, 50)))
    with pytest.raises(IntegrationError, match="step size underflow") as err:
        integrate(net, np.array([1.0, 0.0]), t)
    assert err.value.t == pytest.approx(1.91844, rel=1e-5)


def test_integrate_one_point_grid_returns_initial_state(monkeypatch):
    calls = _counting_rhs(monkeypatch)
    traj = integrate(_ab2(), np.array([0.25, 0.5]), np.array([0.0]))
    assert calls[0] == 0
    assert traj.concentrations.tolist() == [[0.25, 0.5]]
    assert traj.stats.accepted_steps == traj.stats.rhs_evals == 0


def test_integrate_irreversible_reaction_matches_exponential():
    net = make_network(["A", "B"], [Reaction(((0, 1),), ((1, 1),), 2.0, 0.0)])
    t = np.linspace(0.0, 3.0, 31)
    traj = integrate(net, np.array([1.0, 0.0]), t)
    np.testing.assert_allclose(traj.species(0), np.exp(-2.0 * t), rtol=0, atol=1e-10)
    np.testing.assert_allclose(traj.species(1), -np.expm1(-2.0 * t), rtol=0, atol=1e-10)


def test_integrator_stats_are_counted_and_logged(caplog):
    times = np.concatenate(([0.0], np.geomspace(1e-6, 1e-2, 40)))
    cfg = IntegratorConfig(rel_tol=1e-6)
    with caplog.at_level(logging.DEBUG, logger="kinvar.integrate"):
        traj = integrate(_stiff(), np.array([1.0, 0.0, 0.0]), times, cfg, "from A")
    stats = traj.stats
    assert stats.accepted_steps > 0 and stats.rejected_steps > 0
    # two evaluations choose the first step, then six per attempted step
    assert stats.rhs_evals == 2 + 6 * (stats.accepted_steps + stats.rejected_steps)
    assert 0.0 < stats.min_step <= stats.max_step <= times[-1]
    assert [r.message for r in caplog.records] == [f"integrate from A: {stats}"]
    field = {f.name: f for f in dataclasses.fields(Trajectory)}["stats"]
    assert field.default is None and not field.compare
