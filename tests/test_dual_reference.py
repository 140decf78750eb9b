"""The first-order dual experiment, its run checks and the invariant
evaluation, bit for bit against the references in ``dual_reference.py``."""

import numpy as np
import pytest

import dual_reference as R
from conftest import balanced_integer_network

from kinvar import (
    DegenerateExperimentError,
    InvariantSpec,
    balance_network,
    build_rate_matrix,
    butene_cycle,
    default_time_grid,
    dual_experiment,
    dual_experiment_nonlinear,
    evaluate_invariant,
    first_order_network,
    integrate,
    make_network,
    resolve_expected_K,
    simulate_linear,
    Reaction,
)
from kinvar import _kernels, closed_forms, linear
from kinvar.errors import NoReversiblePathError
from kinvar.scenario import _closed_form_dual
from kinvar.trajectory import DualExperiment, Trajectory


def _seeded(n, seed):
    rng = np.random.default_rng(seed)
    net, _ = balanced_integer_network(rng, n)
    pairs = [tuple(int(x) for x in rng.choice(n, size=2, replace=False)) for _ in range(3)]
    return net, pairs


def _chain(n=30):
    names = [f"S{i}" for i in range(n)]
    return first_order_network(names, [(names[i], names[i + 1], 1.0, 0.0)
                                       for i in range(n - 1)])


_CYCLE = first_order_network(list("ABC"), [("A", "B", 2.0, 1.0), ("B", "C", 3.0, 0.5),
                                           ("C", "A", 1.0, 4.0)])

# (id, network, pairs): balanced networks take the eigh path, the unbalanced
# cycle the eig path and the defective chain the series path
_CASES = [
    *((f"balanced-{n}", *_seeded(n, 700 + n)) for n in (10, 50, 200)),
    ("butene-balanced", balance_network(butene_cycle()), [(0, 1), (1, 2), (0, 2)]),
    ("unbalanced-cycle", _CYCLE, [(0, 1), (1, 2), (2, 0)]),
    ("defective-chain", _chain(), [(0, 1), (1, 0), (0, 29)]),
]


def _assert_runs_equal(new, ref):
    for run, ref_run in ((new.from_a, ref.from_a), (new.from_b, ref.from_b)):
        assert np.array_equal(run.times, ref_run.times)
        assert np.array_equal(run.concentrations, ref_run.concentrations)
        assert (run.initial_species, run.label) == (ref_run.initial_species, ref_run.label)
        assert run.network is ref_run.network
        assert not run.times.flags.writeable
    assert new.from_a.times is new.from_b.times
    assert (new.species_a, new.species_b, new.conserved_total) == (
        ref.species_a, ref.species_b, ref.conserved_total)


def _assert_reports_equal(evaluate_new, evaluate_ref):
    try:
        ref = evaluate_ref()
    except DegenerateExperimentError as exc:
        with pytest.raises(DegenerateExperimentError) as caught:
            evaluate_new()
        assert str(caught.value) == str(exc)
        return
    new = evaluate_new()
    assert np.array_equal(new.times, ref.times)
    assert np.array_equal(new.ratios, ref.ratios)
    assert type(new.max_rel_deviation) is float
    assert np.array_equal(new.max_rel_deviation, ref.max_rel_deviation)
    assert type(new.excluded_points) is int
    assert new.excluded_points == ref.excluded_points
    assert new.limit_at_zero == ref.limit_at_zero
    assert (new.verdict, new.t_min, new.tol, new.spec) == (ref.verdict, ref.t_min, ref.tol,
                                                           ref.spec)


def _specs(net, a, b):
    specs = [InvariantSpec("linear_ratio", (a, b), 1.0)]
    try:
        specs.append(resolve_expected_K(net, "linear_ratio", a, b))
    except NoReversiblePathError:
        pass
    return specs


@pytest.mark.parametrize("net, pairs", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_dual_and_reports_match_the_reference_bit_for_bit(net, pairs):
    times = default_time_grid(build_rate_matrix(net))
    for a, b in pairs:
        ref = R.dual_experiment(net, a, b, times)
        new = dual_experiment(net, a, b, times)
        _assert_runs_equal(new, ref)
        for spec in _specs(net, a, b):
            for tol in (1e-6, 1e-14):
                _assert_reports_equal(lambda: evaluate_invariant(new, spec, tol=tol),
                                      lambda: R.evaluate_invariant(ref, spec, tol=tol))


@pytest.mark.parametrize("kind, nu_b", [("nonlinear_2A_B", 1), ("nonlinear_2A_2B", 2)])
def test_nonlinear_reports_match_the_reference_bit_for_bit(kind, nu_b):
    net = make_network(["A", "B"], [Reaction(((0, 2),), ((1, nu_b),), 2.0, 1.0)])
    dual = dual_experiment_nonlinear(net, 0, 1, times=np.linspace(0.0, 3.0, 41))
    assert dual.from_a.times is dual.from_b.times
    spec = resolve_expected_K(net, kind, 0, 1)
    for floor in (1e-12, 1e-3):
        _assert_reports_equal(lambda: evaluate_invariant(dual, spec, denom_floor=floor),
                              lambda: R.evaluate_invariant(dual, spec, denom_floor=floor))


def _read_only(values):
    grid = np.array(values, dtype=float)
    grid.flags.writeable = False
    return grid


# bad grids, one fault each or two at once; a read-only grid is checked too
_BAD_GRIDS = [[1.0, 2.0], [1.0, 0.5], [[0.0, 1.0]], [], [0.0, 2.0, 1.0],
              [0.0, 1.0, 1.0], _read_only([0.0, 2.0, 1.0]), _read_only([0.5, 1.0])]


def _message(call) -> str:
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


_AB = first_order_network(["A", "B"], [("A", "B", 2.0, 1.0)])
_DIMER = make_network(["A", "B"], [Reaction(((0, 2),), ((1, 1),), 2.0, 1.0)])


def _engine_calls(monkeypatch, times):
    """Each engine on ``times``: the linear dual, a single linear run, the
    nonlinear run and dual, and the closed-form dual, none of which may
    propagate, integrate or evaluate a closed form."""
    def unreachable(*args):
        raise AssertionError("ran on a bad grid")

    monkeypatch.setattr(linear, "_propagators", unreachable)
    monkeypatch.setattr(_kernels, "integrate_dp54", unreachable)
    for form in ("single_reversible", "nonlinear_2A_B"):
        monkeypatch.setattr(closed_forms, form, unreachable)
    return [lambda: dual_experiment(_AB, 0, 1, times),
            lambda: simulate_linear(build_rate_matrix(_AB), [1.0, 0.0], times),
            lambda: integrate(_DIMER, [1.0, 0.0], times),
            lambda: dual_experiment_nonlinear(_DIMER, 0, 1, times=times),
            lambda: _closed_form_dual(_AB, 0, 1, times),
            lambda: _closed_form_dual(_DIMER, 0, 1, times)]


@pytest.mark.parametrize("times", _BAD_GRIDS, ids=range(len(_BAD_GRIDS)))
def test_bad_grids_give_their_messages_before_any_propagation(monkeypatch, times):
    expected = _message(lambda: R.dual_experiment(_AB, 0, 1, times))
    assert expected.startswith("time grid must")
    assert [_message(call) for call in _engine_calls(monkeypatch, times)] == [expected] * 6


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [0.0, np.inf],
                                   [0.0, 1.0, np.inf, np.nan], _read_only([0.0, np.nan])],
                         ids=["nan", "inf", "only-inf", "inf-nan", "read-only-nan"])
def test_non_finite_grids_fail_in_every_engine(monkeypatch, times):
    # the reference accepts each of these grids; the program names the fault
    assert [_message(call) for call in _engine_calls(monkeypatch, times)] == \
        ["time grid must be finite"] * 6


@pytest.mark.parametrize("times, rows", [
    ([0.0, 2.0, 1.0], 3), (np.array([0.0, 1.0, 1.0]), 3), ([0.0, 1.0, 2.0], 2),
    ([0.0, 2.0, 1.0], 2), ([0.5, 1.0, 2.0], 2)])
def test_a_trajectory_built_directly_checks_as_before(times, rows):
    conc = np.ones((rows, 2))
    expected = _message(lambda: R.Trajectory(times, conc, 0, ""))
    assert _message(lambda: Trajectory(times, conc, 0, "")) == expected


def test_runs_on_equal_grids_pair_and_on_different_grids_do_not():
    conc = np.ones((3, 1))
    run = Trajectory([0.0, 1.0, 2.0], conc, 0, "")
    assert DualExperiment(run, Trajectory([0.0, 1.0, 2.0], conc, 0, ""), 0, 1)
    other = [0.0, 1.0, 3.0]
    expected = _message(lambda: R.DualExperiment(R.Trajectory([0.0, 1.0, 2.0], conc, 0, ""),
                                                 R.Trajectory(other, conc, 0, ""), 0, 1))
    assert _message(lambda: DualExperiment(run, Trajectory(other, conc, 0, ""),
                                           0, 1)) == expected
