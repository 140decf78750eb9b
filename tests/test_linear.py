import logging
import math
from collections import Counter

import numpy as np
import pytest

from conftest import balanced_integer_network, parallel_path_network

from kinvar import (
    MultipleEquilibriaError,
    RateMatrix,
    balance_network,
    build_rate_matrix,
    butene_cycle,
    default_time_grid,
    dual_experiment,
    equilibrium_composition,
    first_order_network,
    simulate_linear,
)
from kinvar import linear


def _ab(kf=2.0, kb=1.0):
    return first_order_network(["A", "B"], [("A", "B", kf, kb)])


def test_rate_matrix_columns_sum_to_zero():
    M = build_rate_matrix(butene_cycle())
    np.testing.assert_allclose(M.entries.sum(axis=0), 0.0, atol=1e-14)
    assert M.n == 3


def test_rate_matrix_merges_parallel_edges():
    net = first_order_network(
        ["A", "B"], [("A", "B", 1.0, 0.5), ("A", "B", 2.0, 0.25)]
    )
    M = build_rate_matrix(net)
    np.testing.assert_allclose(M.entries, [[-3.0, 0.75], [3.0, -0.75]])


def _accumulated_rate_matrix(net):
    """The dense ``np.zeros`` / ``+=`` accumulation that ``rate_entries`` replaced."""
    m = np.zeros((net.n, net.n))
    for rxn in net.reactions:
        u = rxn.reactants[0][0]
        v = rxn.products[0][0]
        m[v, u] += rxn.k_forward
        m[u, u] -= rxn.k_forward
        if rxn.reversible:
            m[u, v] += rxn.k_backward
            m[v, v] -= rxn.k_backward
    return m


def _random_float_network(n, seed):
    """``3 n`` random steps on ``n`` species with decimal-like float rates,
    a fifth of them irreversible; some pairs get parallel steps."""
    rng = np.random.default_rng(seed)
    names = [f"S{i}" for i in range(n)]
    edges = []
    for _ in range(3 * n):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        kb = float(rng.uniform(0.01, 10.0)) if rng.random() < 0.8 else 0.0
        edges.append((names[u], names[v], float(rng.uniform(0.01, 10.0)), kb))
    return first_order_network(names, edges)


@pytest.mark.parametrize("net", [parallel_path_network(), butene_cycle(),
                                 _random_float_network(200, 7)],
                         ids=["parallel-paths", "butene", "random-200"])
def test_rate_matrix_is_bit_identical_to_dense_accumulation(net):
    m = build_rate_matrix(net).entries
    assert m.tobytes() == _accumulated_rate_matrix(net).tobytes()


def test_rate_matrix_rejects_negative_off_diagonal():
    with pytest.raises(ValueError):
        RateMatrix(np.array([[-1.0, -0.5], [1.0, 0.5]]))


@pytest.mark.parametrize("rows, message", [
    ([[-1.0, -0.5], [1.0, 0.5]], "negative off-diagonal"),
    ([[-1.0, 2.0], [1.0, -1.0]], "sum to zero"),
])
def test_nested_list_rate_matrix_gets_the_array_checks(rows, message):
    with pytest.raises(ValueError, match=message):
        RateMatrix(np.array(rows))


def test_simulate_matches_exponential_relaxation():
    kf, kb = 2.0, 1.0
    net = _ab(kf, kb)
    times = np.concatenate(([0.0], np.geomspace(1e-3, 5.0, 80)))
    traj = simulate_linear(build_rate_matrix(net), np.array([1.0, 0.0]), times)
    lam = kf + kb
    expected_a = (kb + kf * np.exp(-lam * times)) / lam
    np.testing.assert_allclose(traj.species(0), expected_a, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(traj.species(1), 1.0 - expected_a, rtol=1e-12, atol=1e-14)


def test_simulate_requires_grid_starting_at_zero():
    M = build_rate_matrix(_ab())
    with pytest.raises(ValueError):
        simulate_linear(M, np.array([1.0, 0.0]), np.array([0.1, 1.0]))


def test_defective_matrix_falls_back_to_expm():
    # A -> B -> C with equal rates: eigenvalue -1 is defective, so the
    # eigendecomposition route must hand over to the matrix exponential.
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 1.0, 0.0), ("B", "C", 1.0, 0.0)]
    )
    times = np.linspace(0.0, 4.0, 30)
    traj = simulate_linear(build_rate_matrix(net), np.array([1.0, 0.0, 0.0]), times)
    np.testing.assert_allclose(traj.species(1), times * np.exp(-times), rtol=1e-9,
                               atol=1e-12)


def test_dual_experiment_ratio_is_constant():
    net = _ab(3.0, 0.75)
    times = np.concatenate(([0.0], np.geomspace(1e-3, 4.0, 60)))
    dual = dual_experiment(net, 0, 1, times)
    ratio = dual.from_a.species(1)[1:] / dual.from_b.species(0)[1:]
    np.testing.assert_allclose(ratio, 4.0, rtol=1e-10)
    assert dual.conserved_total == 1.0
    assert dual.from_a.label == "from A"


def test_dual_experiment_rejects_equal_species():
    with pytest.raises(ValueError):
        dual_experiment(_ab(), 1, 1, np.array([0.0, 1.0]))


def test_equilibrium_composition_butene():
    M = build_rate_matrix(butene_cycle())
    pi = equilibrium_composition(M)
    assert pi.shape == (3,)
    np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(M.entries @ pi, 0.0, atol=1e-12)


def test_equilibrium_composition_rejects_disconnected():
    net = first_order_network(
        ["A", "B", "C", "D"], [("A", "B", 1.0, 2.0), ("C", "D", 1.0, 3.0)]
    )
    with pytest.raises(MultipleEquilibriaError):
        equilibrium_composition(build_rate_matrix(net))


def test_default_time_grid_shape():
    M = build_rate_matrix(_ab(2.0, 1.0))
    times = default_time_grid(M, points=50)
    assert times[0] == 0.0
    assert len(times) == 51
    # slowest relaxation time for A<->B is 1/(kf+kb)
    np.testing.assert_allclose(times[-1], 10.0 / 3.0, rtol=1e-12)
    assert np.all(np.diff(times) > 0)


_RNG = np.random.default_rng(4711)
_BALANCED = [balanced_integer_network(_RNG, n, extra_edges=n // 10)[0] for n in (10, 50, 200)]


@pytest.mark.parametrize("net", _BALANCED, ids=["n10", "n50", "n200"])
def test_balanced_path_matches_eig_path(net):
    M = build_rate_matrix(net)
    S, _, _ = linear._symmetric_form(M.entries)
    assert S is not None
    times = default_time_grid(M)
    C0 = np.eye(net.n)[:, [0, net.n - 1]]
    reference, _ = linear._eig_propagators(M.entries, times, C0)
    np.testing.assert_allclose(linear._propagators(M, times, C0), reference,
                               rtol=0, atol=1e-11)


def _unfloored_propagators(M, times, C0):
    """The spectral sums of ``_propagators`` with every growth factor kept, however small."""
    S, root_h, _ = linear._symmetric_form(M.entries)
    if S is not None:
        lam, Q = np.linalg.eigh(S)
        growth = np.exp(np.outer(times, np.minimum(lam, 0.0)))
        return lam, np.stack([(growth * (Q.T @ (c / root_h))) @ Q.T * root_h
                              for c in C0.T])
    lam, V = np.linalg.eig(M.entries)
    growth = np.exp(np.outer(times, lam))
    return lam, np.stack([(V @ (growth * w).T).T.real
                          for w in np.linalg.solve(V, C0.astype(complex)).T])


_TWO_TIMESCALE = [("A", "B", 1e3, 5e2), ("B", "C", 1e-2, 2e-2)]


@pytest.mark.parametrize("net", [
    _BALANCED[2],
    first_order_network(list("ABC"), _TWO_TIMESCALE),
    first_order_network(list("ABC"), _TWO_TIMESCALE[:1] + [("B", "C", 1e-2, 0.0)]),
], ids=["n200", "two-timescale", "two-timescale-irreversible"])
def test_growth_floor_leaves_propagators_bit_identical(net):
    # the modes the floor drops lie far below the roundoff of the sum they
    # join, so flooring them changes no bit of the result
    M = build_rate_matrix(net)
    times = default_time_grid(M)
    C0 = np.eye(net.n)[:, [0, net.n - 1]]
    lam, reference = _unfloored_propagators(M, times, C0)
    assert np.outer(times, lam).real.min() < linear._GROWTH_FLOOR_EXPONENT
    assert np.array_equal(linear._propagators(M, times, C0), reference)


@pytest.mark.parametrize("net", _BALANCED, ids=["n10", "n50", "n200"])
def test_default_time_grid_matches_general_spectrum(net):
    M = build_rate_matrix(net)
    mags = np.abs(np.linalg.eigvals(M.entries))
    tau = 1.0 / mags[mags > 1e-12 * mags.max()].min()
    reference = np.concatenate(([0.0], np.geomspace(1e-3 * tau, 10.0 * tau, 400)))
    np.testing.assert_allclose(default_time_grid(M), reference, rtol=1e-12, atol=0)


def _triangle():
    """Unit triangle with one backward rate perturbed: no detailed balance."""
    return first_order_network(
        ["A", "B", "C"],
        [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0), ("C", "A", 1.0, 2.0)],
    )


def _irreversible_chain(n=30):
    names = [f"S{i}" for i in range(n)]
    return first_order_network(names, [(names[i], names[i + 1], 1.0, 0.0)
                                       for i in range(n - 1)])


# one network per propagator path
_PATH_CASES = {"eigh": balance_network(butene_cycle()), "eig": _triangle(),
               "expm": _irreversible_chain()}


def _poisson_profile(n, times, shift):
    """Equal-rate irreversible chain S0 -> S1 -> ... primed with pure S_shift.

    ``S_{shift+k}`` holds ``e^{-t} t^k / k!``; the last species holds the rest.
    """
    out = np.zeros((len(times), n))
    for k in range(n - 1 - shift):
        out[:, shift + k] = [math.exp(-t) * t**k / math.factorial(k) for t in times]
    out[:, n - 1] = 1.0 - out[:, :n - 1].sum(axis=1)
    return out


@pytest.mark.filterwarnings("error")
def test_fallback_matches_the_poisson_profile():
    # the defective chain takes the nonnegative scaling-and-squaring fallback
    net = _irreversible_chain()
    M = build_rate_matrix(net)
    times = default_time_grid(M)
    assert linear._eig_propagators(M.entries, times, np.eye(net.n)[:, :1])[0] is None
    dual = dual_experiment(net, 0, 1, times)
    for traj, shift in ((dual.from_a, 0), (dual.from_b, 1)):
        c = traj.concentrations
        np.testing.assert_allclose(c, _poisson_profile(net.n, times, shift),
                                   rtol=0, atol=1e-10)
        assert c.min() >= 0.0
        np.testing.assert_allclose(c.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def _stiff_defective_chain():
    """The 30-species equal-rate chain fed by a fast pair ``F <=> S0``: c t reaches 1.1e5."""
    names = [f"S{i}" for i in range(30)]
    return first_order_network(names + ["F"],
                               [(names[i], names[i + 1], 1.0, 0.0) for i in range(29)]
                               + [("F", "S0", 1e4, 1e3)])


@pytest.mark.filterwarnings("error")
def test_fallback_is_as_close_as_expm_on_a_stiff_defective_network():
    from scipy.linalg import expm

    mpmath = pytest.importorskip("mpmath")

    net = _stiff_defective_chain()
    M = build_rate_matrix(net)
    assert linear._eig_propagators(M.entries, np.array([0.0, 1.0]),
                                   np.eye(net.n)[:, :1])[0] is None
    # c t from 3.4 to 1.1e5 (the default grid's end) in steps of 2^5, so
    # that the reference at each time is the last one squared five times
    times = np.array([0.0] + [11.0 / 32.0**k for k in (3, 2, 1, 0)])
    C0 = np.eye(net.n)[:, [net.index_of("S0"), net.index_of("F")]]
    got = linear._propagators(M, times, C0)
    with mpmath.workdps(40):
        step = mpmath.expm(mpmath.matrix(M.entries.tolist()) * mpmath.mpf(times[1]))
        exact = []
        for k in range(1, len(times)):
            if k > 1:
                for _ in range(5):
                    step = step * step
            exact.append(np.array(step.tolist(), dtype=float) @ C0)
    for k, t in enumerate(times[1:], start=1):
        fallback_gap = np.abs(got[:, k].T - exact[k - 1]).max()
        expm_gap = np.abs(expm(M.entries * t) @ C0 - exact[k - 1]).max()
        assert fallback_gap <= expm_gap, (t, fallback_gap, expm_gap)
    assert got.min() >= 0.0


@pytest.mark.parametrize("path", _PATH_CASES)
def test_dual_experiment_equals_two_simulations(path):
    net = _PATH_CASES[path]
    M = build_rate_matrix(net)
    times = default_time_grid(M, points=60)
    a, b = 0, net.n - 1
    dual = dual_experiment(net, a, b, times)
    for traj, s in ((dual.from_a, a), (dual.from_b, b)):
        single = simulate_linear(M, np.eye(net.n)[s], times, f"from {net.names[s]}", net)
        np.testing.assert_array_equal(traj.concentrations, single.concentrations)
        assert (traj.label, traj.initial_species) == (single.label, single.initial_species)


@pytest.mark.parametrize("path", _PATH_CASES)
def test_propagator_path_is_logged(caplog, path):
    times = np.linspace(0.0, 1.0, 5)
    with caplog.at_level(logging.DEBUG, logger="kinvar.linear"):
        dual_experiment(_PATH_CASES[path], 0, 1, times)
    records = [r.getMessage() for r in caplog.records if r.name == "kinvar.linear"]
    assert len(records) == 1
    taken, reason = records[0].split(": ", 1)
    assert taken == f"propagator {path}"
    assert reason


def _forget_spectrum(monkeypatch):
    monkeypatch.setattr(linear, "_last_spectrum", None)


def test_propagator_log_says_whether_the_decomposition_was_reused(caplog, monkeypatch):
    _forget_spectrum(monkeypatch)
    net = _PATH_CASES["eigh"]
    with caplog.at_level(logging.DEBUG, logger="kinvar.linear"):
        times = default_time_grid(build_rate_matrix(net))
        dual_experiment(net, 0, 1, times)
        dual_experiment(net, 1, 2, times)
    records = [r.getMessage() for r in caplog.records if r.name == "kinvar.linear"]
    assert [r.rsplit("; ", 1)[1] for r in records] == ["decomposition computed",
                                                       "decomposition reused"]


def test_grid_and_dual_experiments_share_one_decomposition(monkeypatch):
    calls = Counter()
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    _forget_spectrum(monkeypatch)
    net = _BALANCED[1]
    times = default_time_grid(build_rate_matrix(net))
    for a, b in ((0, 1), (2, 3), (0, net.n - 1)):
        dual_experiment(net, a, b, times)
    assert calls == {"eigh": 1, "eigvalsh": 1}


def _outputs(net, M):
    """Grid of ``M``, the dual experiment of ``net`` on it, then ``M``'s propagators."""
    times = default_time_grid(M)
    dual = dual_experiment(net, 0, 1, times)
    out = linear._propagators(M, times, np.eye(net.n)[:, [0, net.n - 1]])
    return times, dual.from_a.concentrations, dual.from_b.concentrations, out


def _same(got, want):
    return all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))


_MEMO_CASES = {"n50": _BALANCED[1], "n200": _BALANCED[2],
               "butene-balanced": _PATH_CASES["eigh"], "defective": _PATH_CASES["expm"]}


@pytest.mark.parametrize("name", _MEMO_CASES)
def test_spectral_memo_gives_the_cold_arrays(monkeypatch, name):
    net, other = _MEMO_CASES[name], _BALANCED[0]
    _forget_spectrum(monkeypatch)
    cold = _outputs(net, build_rate_matrix(net))
    assert _same(_outputs(net, build_rate_matrix(net)), cold)  # all from the memo
    # alternating with another network: every call finds the other's data
    M, M_other = build_rate_matrix(net), build_rate_matrix(other)
    times = default_time_grid(M)
    default_time_grid(M_other)
    dual = dual_experiment(net, 0, 1, times)
    dual_experiment(other, 0, 1, default_time_grid(M_other))
    out = linear._propagators(M, times, np.eye(net.n)[:, [0, net.n - 1]])
    assert _same((times, dual.from_a.concentrations, dual.from_b.concentrations, out), cold)
    # an array edited in place holds a new generator; the dual experiment
    # rebuilds the unedited one between the edited grid and propagators
    default_time_grid(M)
    M.entries[:] *= 2.0
    edited = _outputs(net, M)
    _forget_spectrum(monkeypatch)
    assert _same(edited, _outputs(net, RateMatrix(M.entries.copy())))
    assert not np.array_equal(edited[0], cold[0])


def test_cached_spectral_arrays_refuse_writes():
    spectrum = linear._spectrum(build_rate_matrix(_BALANCED[0]).entries)
    S, root_h, _ = spectrum.form
    for cached in (spectrum.m, S, root_h, spectrum.grid_eigenvalues, *spectrum.eigh):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1.0


def test_bad_grid_fails_before_propagation(monkeypatch):
    def unreachable(*args):
        raise AssertionError("propagated on a bad grid")

    monkeypatch.setattr(linear, "_propagators", unreachable)
    net = _ab()
    M = build_rate_matrix(net)
    for times in (np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_linear(M, np.array([1.0, 0.0]), times)
        with pytest.raises(ValueError, match="strictly increasing"):
            dual_experiment(net, 0, 1, times)


@pytest.mark.filterwarnings("error")
def test_overflowing_eigen_residual_rejects_the_decomposition():
    # entries near the float limit overflow M V - V diag(lambda); the
    # residual is not finite, and neither overflow warns
    m = np.array([[-1.7e308, 1e308, 0.0], [1.7e308, -1e308, 1.0], [0.0, 0.0, -1.0]])
    out, why = linear._eig_propagators(m, np.array([0.0, 1.0]), np.eye(3))
    assert out is None and why == "eigen residual is not finite"
