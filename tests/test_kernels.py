"""The generated per-shape Dormand-Prince kernel against its references.

``rhs_packed`` is the reference right-hand side, which the starting step
calls, and ``dp54_reference`` the list-based loop the generated code
replaced; both must be matched bit for bit, failure statuses included, on
the fused step loop and on the loop that calls the per-stage units. The property tests check the integrator itself
against the dimerization closed forms.
"""

import contextlib
import io
import logging
import math
import re
import tokenize
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dp54_reference
from kinvar import (
    IntegratorConfig,
    Reaction,
    conservation_vector,
    dual_experiment_nonlinear,
    make_network,
    nonlinear_2A_2B,
    nonlinear_2A_B,
)
from kinvar import _kernels
from kinvar.network import pack_network


def _same_run(terms, c0, times, rtol, atol):
    """Run both loops; assert equal status, failure time, rows and stats."""
    got = _kernels.integrate_dp54(terms, c0, times, rtol, atol)
    ref = dp54_reference.integrate_dp54(terms, c0, times, rtol, atol)
    assert got[0] == ref[0]
    assert repr(got[1]) == repr(ref[1])
    assert got[2].shape == ref[2].shape and got[2].tobytes() == ref[2].tobytes()
    assert repr(got[3]) == repr(ref[3])
    return got


def _dimer(kp, km, product_coeff):
    return make_network(["A", "B"], [Reaction(((0, 2),), ((1, product_coeff),), kp, km)])


def _stiff():
    return make_network(["A", "B", "C"], [Reaction(((0, 2),), ((1, 1),), 1e4, 1e3),
                                          Reaction(((1, 1),), ((2, 1),), 1e-2, 5e-3)])


def _alternating_chain(n=40, seed=7):
    # first-order steps with a second-order one every third link
    rng = np.random.default_rng(seed)
    reactions = [Reaction(((i, 2 if i % 3 == 0 else 1),), ((i + 1, 1),),
                          *(float(k) for k in rng.uniform(0.5, 4.0, size=2)))
                 for i in range(n - 1)]
    return make_network([f"S{i}" for i in range(n)], reactions)


def _geometric(t_max, points):
    return np.concatenate(([0.0], np.geomspace(1e-3 * t_max, t_max, points - 1)))


def _blow_up():
    # d(a + b)/dt >= (a + b)^2 / 2: the steps shrink to nothing before t = 2
    return make_network(["A", "B"], [Reaction(((0, 2),), ((1, 3),), 1.0, 0.0),
                                     Reaction(((1, 2),), ((0, 3),), 1.0, 0.0)])


# (network, initial state, grid, rel_tol, abs_tol)
_CASES = {
    "chain-from-first": (_alternating_chain(), np.eye(40)[0],
                         _geometric(20.0, 200), 1e-8, 1e-11),
    "chain-from-last": (_alternating_chain(), np.eye(40)[39] * 2.0 ** 13,
                        _geometric(20.0, 200), 1e-8, 1e-11),
    "2A<=>B": (_dimer(2.7, 0.6, 1), np.array([1.0, 0.0]), _geometric(10 / 0.6, 400),
               1e-10, 1e-12),
    "2A<=>B-from-B": (_dimer(2.7, 0.6, 1), np.array([0.0, 0.5]),
                      _geometric(10 / 0.6, 400), 1e-10, 1e-12),
    "2A<=>2B": (_dimer(0.9, 3.1, 2), np.array([1.0, 0.0]), _geometric(10 / 0.9, 400),
                1e-10, 1e-12),
    "stiff": (_stiff(), np.array([1.0, 0.0, 0.0]), _geometric(1.0, 200), 1e-6, 1e-12),
    "stiff-from-B": (_stiff(), np.array([0.0, 0.5, 0.0]), _geometric(1.0, 200),
                     1e-6, 1e-12),
    "A+B<=>C,2C<=>A+B": (
        make_network(["A", "B", "C"], [Reaction(((0, 1), (1, 1)), ((2, 1),), 2.0, 0.5),
                                       Reaction(((2, 2),), ((0, 1), (1, 1)), 0.3, 0.0)]),
        np.array([1.0, 0.7, 0.0]), _geometric(8.0, 60), 1e-10, 1e-12),
    "negative": (_stiff(), np.array([1.0, 0.0, 0.0]),
                 np.concatenate(([0.0], np.geomspace(1e-6, 1.0, 200))), 0.1, 1e-16),
    "blow-up": (_blow_up(), np.array([1.0, 0.0]), _geometric(6.0, 51), 1e-10, 1e-12),
    "one-point-grid": (_dimer(3.0, 1.0, 1), np.array([0.25, 0.5]), np.array([0.0]),
                       1e-10, 1e-12),
    "k_forward=1e308": (_dimer(1e308, 1.0, 1), np.array([1.0, 0.0]),
                        _geometric(10.0, 25), 1e-10, 1e-12),
}


@contextlib.contextmanager
def _per_stage_units(on=True):
    """Run every shape on the per-stage units (a budget of 0) when ``on``,
    else on the loop its source length chooses; no compiled code outlives it."""
    budget = _kernels._SOURCE_BUDGET
    _kernels._makers.cache_clear()
    if on:
        _kernels._SOURCE_BUDGET = 0
    try:
        yield
    finally:
        _kernels._SOURCE_BUDGET = budget
        _kernels._makers.cache_clear()


def _shape(net):
    return net.n, tuple((f, c) for _, f, c in pack_network(net))


def _same_case(case):
    net, c0, times, rtol, atol = _CASES[case]
    status, *_ = _same_run(pack_network(net), c0, times, rtol, atol)
    expected = {"negative": _kernels.STATUS_NEGATIVE, "blow-up": _kernels.STATUS_STEP_UNDERFLOW,
                "k_forward=1e308": _kernels.STATUS_STEP_UNDERFLOW}
    assert status == expected.get(case, _kernels.STATUS_OK)


@pytest.mark.parametrize("case", list(_CASES))
def test_kernel_is_bit_identical_to_the_list_loop(case):
    # the chain runs on the per-stage units, every other shape on the fused loop
    _same_case(case)


@pytest.mark.parametrize("case", list(_CASES))
def test_per_stage_units_are_bit_identical_to_the_list_loop(case):
    with _per_stage_units():
        _same_case(case)


def _recorded_steps(terms, c0, times, rtol, atol):
    """``(t, h)`` of every step the loop records on ``times``, as it computed them."""
    seen = []
    place = _kernels._place_rows

    def spy(out, grid, filled, rec, n):
        seen.append(np.frombuffer(rec).reshape(-1, 2 + 9 * n)[:, :2].copy())
        place(out, grid, filled, rec, n)

    with mock.patch.object(_kernels, "_place_rows", spy):
        _kernels.integrate_dp54(terms, c0, times, rtol, atol)
    return seen[0]


def _dimer_run(grid_of_ends):
    """``2A <=> B`` at rtol 1e-10, slow enough that a grid point 1e-13 t
    past a step end at t > 2 moves its row, on the grid that
    ``grid_of_ends`` builds from the step ends of the run on a 400-point
    grid; the steps do not depend on the grid points before its last."""
    terms, c0, t_max = pack_network(_dimer(0.027, 0.006, 1)), np.array([1.0, 0.0]), 1e3
    grid = np.concatenate(([0.0], np.geomspace(1e-3, t_max, 399)))
    t, h = _recorded_steps(terms, c0, grid, 1e-10, 1e-12).T
    return terms, c0, grid_of_ends(t + h, t_max), 1e-10, 1e-12


def _at_and_past_step_ends(ends, t_max):
    # the last step end before t = 1 and the first past t = 2 (rows 1 and 4),
    # each followed by a point inside the 1e-13 max(1, t) slack of the same
    # step (rows 2 and 5), there more than 1e-13 past the end, and by one
    # halfway to the next step end
    points = [0.0]
    for k in (np.flatnonzero(ends < 1.0)[-1], np.flatnonzero(ends > 2.0)[0]):
        points += [ends[k], ends[k] + 0.5e-13 * max(1.0, ends[k]), 0.5 * (ends[k] + ends[k + 1])]
    points.append(t_max)
    assert np.all(np.diff(points) > 0.0)
    return np.array(points)


def _nan_run():
    # the first step of this 2A <=> B has a NaN error norm, and 32 points
    # of the geometric grid lie below its end at 1e-6; a grid of those and
    # the step's end lets the step fill every row, so the run ends and the
    # reference can run. The rows add inf to -inf, which numpy would warn
    # about
    terms = pack_network(_dimer(1.75925889983114e+34, 5.659042239707541e+109, 1))
    c0 = np.array([3.091908603060316e-99, 0.0])
    times = np.concatenate(([0.0], np.geomspace(1e-30, 1.0, 40)))
    status, t_nan, *_ = _kernels.integrate_dp54(terms, c0, times, 1e-10, 1e-12)
    assert (status, t_nan) == (_kernels.STATUS_NAN_ERROR, 1e-6)
    return terms, c0, np.append(times[times < t_nan], t_nan), 1e-10, 1e-12


# grids that place rows in every way a step can: (terms, c0, grid, rtol, atol)
_EDGE_RUNS = {
    "many-points-per-step": lambda: _dimer_run(
        lambda ends, t_max: np.linspace(0.0, t_max, 4001)),
    "at-and-within-slack-of-step-ends": lambda: _dimer_run(_at_and_past_step_ends),
    "every-point-a-step-end": lambda: _dimer_run(
        lambda ends, t_max: np.concatenate(([0.0], ends[:-1], [t_max]))),
    "rows-on-the-nan-step": _nan_run,
}


@pytest.mark.parametrize("per_stage", [False, True], ids=["fused", "per-stage"])
@pytest.mark.parametrize("case", list(_EDGE_RUNS))
def test_rows_at_and_between_step_ends_are_bit_identical(case, per_stage):
    terms, c0, times, rtol, atol = _EDGE_RUNS[case]()
    with _per_stage_units(per_stage):
        status, _, rows, _ = _same_run(terms, c0, times, rtol, atol)
    assert status == _kernels.STATUS_OK
    if case == "at-and-within-slack-of-step-ends":
        # a point in the slack of a step end takes that step's end state
        assert rows[[1, 4]].tobytes() == rows[[2, 5]].tobytes()
    if case == "rows-on-the-nan-step":
        assert np.isnan(rows[1:]).all()


@st.composite
def _mass_action_networks(draw):
    """2-4 species, 1-4 irreversible steps of total order 1-3."""
    n = draw(st.integers(2, 4))
    reactions = []
    for _ in range(draw(st.integers(1, 4))):
        species = draw(st.permutations(range(n)))
        powers = draw(st.sampled_from(
            [p for p in ((1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1))
             if len(p) < n]))
        sinks = species[len(powers):]
        made = draw(st.lists(st.integers(1, 3), min_size=1, max_size=len(sinks)))
        reactions.append(Reaction(tuple(zip(species, powers)), tuple(zip(sinks, made)),
                                  draw(st.floats(0.05, 20.0))))
    return make_network([f"S{i}" for i in range(n)], reactions)


def _states(n):
    amounts = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    return st.lists(amounts, min_size=n, max_size=n)


def _generated_rhs(terms, n):
    """The right-hand side that every generated stage writes, compiled alone."""
    layout = tuple((factors, changes) for _, factors, changes in terms)
    z = _kernels._names("z", n)
    rates, sums = _kernels._rhs_lines(layout, n, z)
    body = _kernels._unpack(z, "c") + rates + [f"return {_kernels._tuple(sums)}"]
    maker = _kernels._compile("rhs", _kernels._unit("rhs", ["c"], body, len(layout)))
    return maker(tuple(k for k, _, _ in terms), 1e-12, 1e-10)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_generated_rhs_equals_rhs_packed_bitwise(data):
    net = data.draw(_mass_action_networks())
    terms = pack_network(net)
    rhs = _generated_rhs(terms, net.n)
    values = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e200, 5e-324]))
    for _ in range(3):
        c = data.draw(st.lists(values, min_size=net.n, max_size=net.n))
        assert np.array(rhs(c)).tobytes() == np.array(
            _kernels.rhs_packed(c, terms, net.n)).tobytes()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_kernel_equals_the_list_loop_on_random_networks(data):
    net = data.draw(_mass_action_networks())
    c0 = np.array(data.draw(_states(net.n)))
    # the horizon is 0.1-3 times the fastest rate constant's time scale: where
    # the draws create mass, the growth stiffens the system (A -> 3C + 3D with
    # C + D -> A + B reached 1e9 at about 1e5 steps, h = 1e-6, before t = 2),
    # and the explicit integrator, stability-limited there, runs for minutes
    k_max = max(k for k, _, _ in pack_network(net))
    times = _geometric(data.draw(st.floats(0.1, 3.0)) / k_max, data.draw(st.integers(1, 30)))
    rtol, atol = data.draw(st.sampled_from([(1e-10, 1e-12), (1e-6, 1e-10), (0.1, 1e-16)]))
    with _per_stage_units(data.draw(st.booleans(), label="per-stage units")):
        _same_run(pack_network(net), c0, times, rtol, atol)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(kp=st.floats(0.1, 10.0), km=st.floats(0.1, 10.0), coeff=st.sampled_from([1, 2]))
def test_dimerization_matches_closed_forms(kp, km, coeff):
    net = _dimer(kp, km, coeff)
    times = _geometric(10.0 / min(kp, km), 400)
    cfg = IntegratorConfig()
    dual = dual_experiment_nonlinear(net, 0, 1, times=times, cfg=cfg)
    sol = (nonlinear_2A_B if coeff == 1 else nonlinear_2A_2B)(kp, km, times)
    pairs = [(sol.a_from_a, dual.from_a.species(0)), (sol.b_from_a, dual.from_a.species(1)),
             (sol.a_from_b, dual.from_b.species(0))]
    if coeff == 2:
        pairs.append((sol.b_from_b, dual.from_b.species(1)))
    assert max(float(np.max(np.abs(x - y))) for x, y in pairs) <= 1e-9
    w = conservation_vector(net)
    for traj in (dual.from_a, dual.from_b):
        totals = traj.concentrations @ w
        assert np.max(np.abs(totals - dual.conserved_total)) <= 1e-10 * dual.conserved_total
        assert traj.concentrations.min() >= -10.0 * cfg.abs_tol


def test_one_compiled_kernel_serves_every_rate(caplog):
    _kernels._makers.cache_clear()
    times = _geometric(5.0, 20)
    with caplog.at_level(logging.DEBUG, logger="kinvar.integrate"):
        for kp, km in ((3.0, 1.0), (0.2, 7.0), (3.0, 1.0)):
            _same_run(pack_network(_dimer(kp, km, 1)), np.array([1.0, 0.0]), times,
                      1e-10, 1e-12)
    states = [r.message.rsplit(": ", 1)[1] for r in caplog.records
              if r.message.startswith("dp54 kernel for 2 species and 2 terms (fused loop)")]
    assert states == ["compiled", "reused", "reused"]
    assert _kernels._makers.cache_info().misses == 1


def test_code_cache_keeps_the_shapes_of_one_benchmark_pass():
    # a pass alternates the chain and two dimerization shapes; each compiles
    # once however often the pass repeats
    _kernels._makers.cache_clear()
    shapes = [(_alternating_chain(), np.eye(40)[0]), (_dimer(2.0, 1.0, 1), np.array([1.0, 0.0])),
              (_dimer(2.0, 1.0, 2), np.array([1.0, 0.0]))]
    for _ in range(3):
        for net, c0 in shapes:
            _kernels.integrate_dp54(pack_network(net), c0, _geometric(1.0, 5), 1e-8, 1e-11)
    info = _kernels._makers.cache_info()
    assert (info.misses, info.hits) == (3, 6)
    assert info.maxsize >= 3


@pytest.mark.parametrize("net, path, units", [
    (_dimer(2.0, 1.0, 1), "fused loop", 1),
    (_dimer(2.0, 1.0, 2), "fused loop", 1),
    (_stiff(), "fused loop", 1),
    (_alternating_chain(), "per-stage units", 8),
])
def test_small_shapes_fuse_the_step_loop_within_the_budget(net, path, units):
    # a fused loop compiles alone; past the budget, the loop calls the seven
    # per-stage units. Either way no unit is longer than the budget
    _kernels._makers.cache_clear()
    chosen, sources = _kernels._sources(*_shape(net))
    assert (chosen, len(sources)) == (path, units)
    assert max(len(source) for source in sources.values()) <= _kernels._SOURCE_BUDGET
    assert _kernels._makers(_shape(net))[0] == path
    assert len(_kernels._makers(_shape(net))[1]) == units


@pytest.mark.parametrize("n", range(1, 9))
def test_fused_floor_never_exceeds_the_fused_length(n):
    # a shape with no terms writes the shortest fused loop of n species
    assert _kernels._fused_floor(n) <= len(_kernels._loop_source(n, ()))


def test_the_chain_skips_writing_its_fused_loop():
    n, layout = _shape(_alternating_chain())
    floor = _kernels._fused_floor(n)
    assert _kernels._SOURCE_BUDGET < floor <= len(_kernels._loop_source(n, layout))


@pytest.mark.parametrize("case", list(_CASES))
def test_the_floor_leaves_every_path_as_the_fused_length_chooses(case):
    shape = _shape(_CASES[case][0])
    by_length = ("fused loop" if len(_kernels._loop_source(*shape)) <= _kernels._SOURCE_BUDGET
                 else "per-stage units")
    assert _kernels._sources(*shape)[0] == by_length


def test_generated_source_holds_only_indices_and_numbers():
    # names from the input never reach the source; every identifier in it is
    # one of the generator's own
    net = make_network(["import os", "__class__"],
                       [Reaction(((0, 2),), ((1, 3),), 2.0, 0.5)])
    allowed = re.compile(
        r"(mk|rates|atol|rtol|rhs|stage[1-6]|error|loop|c|y|w|h|u|v|err|ynew"
        r"|times|rec|pack|evals|m|t|t_end|t_new|floor|accepted|rejected|h_min|h_max|next_out"
        r"|facold|last_rejected|status|fac11|shrink|reach|factor|abs|len|any|float"
        r"|OverflowError|def|return|if|elif|else|while|for|in|and|or|try|except|break"
        r"|continue|True|False|[qyzwr]\d+|k\d(_\d+)?)$")
    names = set()
    for units in (False, True):
        with _per_stage_units(units):
            for source in _kernels._sources(*_shape(net))[1].values():
                tokens = tokenize.generate_tokens(io.StringIO(source).readline)
                names.update(tok.string for tok in tokens if tok.type == tokenize.NAME)
    assert {name for name in names if not allowed.match(name)} == set()


def test_overflowing_starting_step_is_a_status_of_its_own():
    # at k_forward = 1e200 the starting step's (f / sc) ** 2 is finite before
    # squaring; float ** raises OverflowError where * would give inf
    terms, c0 = pack_network(_dimer(1e200, 1.0, 1)), np.array([1.0, 0.0])
    times = _geometric(1.0, 50)
    with pytest.raises(OverflowError):
        dp54_reference.integrate_dp54(terms, c0, times, 1e-10, 1e-12)
    status, t, rows, stats = _kernels.integrate_dp54(terms, c0, times, 1e-10, 1e-12)
    assert (status, t) == (_kernels.STATUS_OVERFLOW, 0.0)
    assert rows[0].tolist() == c0.tolist() and np.isnan(rows[1:]).all()
    assert stats == (0, 0, 1, math.inf, 0.0)


def test_overflowing_error_norm_stops_the_run():
    # found by a scan of random networks: A <=> 3B from a trace of B at an
    # absolute tolerance of 9e-30 takes one step, and on a later attempt a
    # scaled error component squares past the float range inside the loop
    terms = pack_network(make_network(["A", "B"], [Reaction(
        ((0, 1),), ((1, 3),), 261697060858.4674, 2.6070363488890056e+73)]))
    c0 = np.array([0.0, 2.7849542001896835e-45])
    times = _geometric(0.09787189892706201, 21)
    args = (terms, c0, times, 4.596831946376988e-13, 9.064207816372723e-30)
    with pytest.raises(OverflowError):
        dp54_reference.integrate_dp54(*args)
    for units in (False, True):
        with _per_stage_units(units):
            status, t, rows, (accepted, rejected, evals, _, _) = _kernels.integrate_dp54(*args)
        assert (status, t, accepted) == (_kernels.STATUS_OVERFLOW, 1e-6, 1)
        # the attempt that overflowed evaluated its six stages too
        assert evals == 2 + 6 * (accepted + rejected + 1)
        assert np.isnan(rows[1:]).all()


def test_nan_error_norm_stops_the_run():
    # the error norm is NaN on a step that leaves rows to fill, where the step
    # controller (and the list loop, which cannot be run here) used to loop
    # forever on h = NaN
    terms = pack_network(_dimer(9.05281364985555e+194, 2.5297824747816608e+213, 1))
    c0 = np.array([3.397405482411133e-156, 0.0])
    times = _geometric(1.0, 51)
    for units in (False, True):
        with _per_stage_units(units):
            status, t, rows, (accepted, _, _, _, _) = _kernels.integrate_dp54(
                terms, c0, times, 1e-10, 1e-12)
        assert status == _kernels.STATUS_NAN_ERROR
        assert 0.0 < t < times[-1] and accepted >= 1
        assert np.isnan(rows[times > t]).all()
