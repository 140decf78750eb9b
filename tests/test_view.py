"""The first-order view: one slot of per-network data shared by every pair."""

import dataclasses
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import view_reference
from conftest import (
    balanced_integer_network,
    exact_pair_constant,
    parallel_path_network,
    perturbed_network,
)
from kinvar import (
    NoReversiblePathError,
    RateMatrix,
    Reaction,
    balance_network,
    build_rate_matrix,
    butene_cycle,
    default_time_grid,
    dual_experiment,
    first_order_network,
    make_network,
    path_equilibrium_constant,
    ratio_limit_at_zero,
    resolve_expected_K,
)
from kinvar.invariants import _initial_rate
from kinvar.network import first_order_view


def _rebuilt(net):
    """An equal network made from fresh objects."""
    return make_network(list(net.names), [Reaction(r.reactants, r.products, r.k_forward,
                                                   r.k_backward) for r in net.reactions])


def _other():
    return first_order_network(["X", "Y"], [("X", "Y", 1.0, 1.0)])


def _limit(dual, spec):
    """The t -> 0 limit, or None where the denominator's initial rate is 0."""
    try:
        return ratio_limit_at_zero(dual, spec)
    except ZeroDivisionError:
        return None


def _pair_results(net):
    """Every pair's K, t -> 0 limit and last dual row, through the public calls."""
    M = build_rate_matrix(net)
    times = default_time_grid(M, points=20)
    out = []
    for a in range(net.n):
        for b in range(net.n):
            if a == b:
                continue
            spec = resolve_expected_K(net, "linear_ratio", a, b)
            dual = dual_experiment(net, a, b, times)
            out.append((spec.expected_K, _limit(dual, spec),
                        dual.from_a.concentrations[-1].tobytes(),
                        dual.from_b.concentrations[-1].tobytes()))
    return out


def test_rebuilt_equal_network_hits_and_changed_rate_misses(rng):
    net, _ = balanced_integer_network(rng, 12)
    view = first_order_view(net)
    assert first_order_view(net) is view
    assert first_order_view(_rebuilt(net)) is view
    changed = first_order_network(
        list(net.names),
        [(net.names[r.reactants[0][0]], net.names[r.products[0][0]],
          r.k_forward * (1.5 if i == 3 else 1.0), r.k_backward)
         for i, r in enumerate(net.reactions)])
    fresh = first_order_view(changed)
    assert fresh is not view
    assert fresh.entries != view.entries
    assert first_order_view(net) is not fresh  # one slot: the first view is gone


def test_alternating_networks_give_the_cold_results(rng):
    nets = [balanced_integer_network(rng, 6)[0], parallel_path_network(), butene_cycle()]
    cold = []
    for net in nets:
        first_order_view(_other())  # empty the slot
        cold.append(_pair_results(net))
    for _ in range(2):
        for net, expected in zip(nets, cold):
            assert _pair_results(net) == expected
            assert _pair_results(_rebuilt(net)) == expected


def test_view_logs_whether_it_was_computed_or_reused(caplog, rng):
    net, _ = balanced_integer_network(rng, 5)
    first_order_view(_other())
    with caplog.at_level(logging.DEBUG, logger="kinvar.network"):
        first_order_view(net)
        first_order_view(_rebuilt(net))
        first_order_view(_other())
    records = [r.getMessage() for r in caplog.records if r.name == "kinvar.network"]
    assert records == ["first-order view of 5 species: computed",
                       "first-order view of 5 species: reused",
                       "first-order view of 2 species: computed"]


@pytest.mark.parametrize("n, seed", [(10, 1), (10, 2), (50, 3), (50, 4), (200, 5)])
def test_K_equals_the_breadth_first_product(n, seed):
    net, h = balanced_integer_network(np.random.default_rng(seed), n)
    assert first_order_view(net).certificate.failure is None
    # every pair at n <= 50; at n = 200 every pair with one of three species
    sources = range(n) if n <= 50 else (0, n // 2, n - 1)
    for a in sources:
        for b in range(n):
            K = path_equilibrium_constant(net, a, b)
            assert type(K) is Fraction
            assert K == view_reference.path_equilibrium_constant(net, a, b)
            assert K == exact_pair_constant(h, a, b)
            assert path_equilibrium_constant(net, b, a) == 1 / K


def _parallel_decimal_tree():
    """The tree A <=> B <=> C, balanced whatever its rates, with parallel A-B steps.

    k(A->B) = 0.1 + 0.2 and k(B->A) = 0.15 + 0.15 are sums of decimals whose
    float sums round, so K_AB must come from their exact sums.
    """
    return first_order_network(list("ABC"), [
        ("A", "B", 0.1, 0.15), ("A", "B", 0.2, 0.15), ("B", "C", 0.5, 0.25)])


@pytest.mark.parametrize("make", [
    butene_cycle,
    lambda: balance_network(butene_cycle()),
    parallel_path_network,
    _parallel_decimal_tree,
    lambda: perturbed_network(np.random.default_rng(7),
                              balanced_integer_network(np.random.default_rng(7), 9, 3)[0]),
])
def test_K_equals_the_breadth_first_product_on_every_route(make):
    net = make()
    for a in range(net.n):
        for b in range(net.n):
            assert path_equilibrium_constant(net, a, b) == \
                view_reference.path_equilibrium_constant(net, a, b)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    extra_edges=st.integers(0, 3),
    variant=st.sampled_from(["parallel", "perturbed", "irreversible"]),
    index=st.integers(0, 20),
)
def test_uncertified_K_equals_the_breadth_first_product(seed, n, extra_edges, variant,
                                                        index):
    rng = np.random.default_rng(seed)
    net, _ = balanced_integer_network(rng, n, extra_edges)
    reactions = list(net.reactions)
    i = index % len(reactions)
    if variant == "parallel":
        # a decimal step against reaction i, whose float sums round
        r = reactions[i]
        kf, kb = (round(float(x), 1) for x in rng.uniform(0.1, 2.0, size=2))
        reactions.append(Reaction(r.products, r.reactants, kf, kb))
    elif variant == "perturbed":
        reactions[i] = dataclasses.replace(
            reactions[i], k_backward=reactions[i].k_backward * float(rng.uniform(0.5, 2.0)))
    else:
        reactions[i] = dataclasses.replace(reactions[i], k_backward=0.0)
    net = make_network(list(net.names), reactions)
    for a in range(net.n):
        for b in range(net.n):
            try:
                expected = view_reference.path_equilibrium_constant(net, a, b)
            except NoReversiblePathError:
                with pytest.raises(NoReversiblePathError):
                    path_equilibrium_constant(net, a, b)
            else:
                assert path_equilibrium_constant(net, a, b) == expected


def test_certificate_verdicts():
    rng = np.random.default_rng(11)
    net, _ = balanced_integer_network(rng, 8, 3)
    assert first_order_view(net).certificate.failure is None
    parallel = _parallel_decimal_tree()
    assert first_order_view(parallel).certificate.failure is None
    exact = (Fraction(0.1) + Fraction(0.2)) / (2 * Fraction(0.15))
    assert path_equilibrium_constant(parallel, 0, 1) == exact
    assert exact != Fraction(0.1 + 0.2) / Fraction(0.15 + 0.15)
    # float balancing leaves the butene cycle off by roundoff, so the exact
    # certificate fails and the pairs keep the path product
    failure = first_order_view(balance_network(butene_cycle())).certificate.failure
    assert failure.startswith("rate products around")
    perturbed = perturbed_network(rng, net)
    assert first_order_view(perturbed).certificate.failure is not None
    chain = first_order_network(list("ABC"), [("A", "B", 1.0, 2.0), ("B", "C", 1.0, 0.0)])
    cert = first_order_view(chain).certificate
    assert cert.failure == "edge 1 -> 2 has no reverse"
    assert (cert.h, cert.root) == (None, None)
    assert path_equilibrium_constant(chain, 0, 1) == Fraction(1, 2)
    with pytest.raises(NoReversiblePathError):
        path_equilibrium_constant(chain, 0, 2)


def test_certified_components_stay_apart():
    net = first_order_network(list("ABCD"), [("A", "B", 2.0, 1.0), ("C", "D", 3.0, 1.0)])
    cert = first_order_view(net).certificate
    assert cert.failure is None
    assert cert.root == (0, 0, 2, 2)
    assert path_equilibrium_constant(net, 2, 3) == 3
    for a, b in ((0, 2), (3, 1)):
        with pytest.raises(NoReversiblePathError):
            path_equilibrium_constant(net, a, b)
        with pytest.raises(NoReversiblePathError):
            view_reference.path_equilibrium_constant(net, a, b)


def test_certificate_spans_the_float_range():
    # the rates scale by 2^1074 to become integers, and K stays exact
    net = first_order_network(list("ABC"), [("A", "B", 5e-324, 1e300),
                                            ("B", "C", 1e-300, 3.0)])
    assert first_order_view(net).certificate.failure is None
    for a in range(3):
        for b in range(3):
            assert path_equilibrium_constant(net, a, b) == \
                view_reference.path_equilibrium_constant(net, a, b)


def test_non_first_order_network_raises_as_before():
    net = make_network(["A", "B"], [Reaction(((0, 2),), ((1, 1),), 1.0, 1.0)])
    with pytest.raises(ValueError, match="merged rates need an all-first-order network"):
        path_equilibrium_constant(net, 0, 1)
    with pytest.raises(ValueError):
        _initial_rate(net, [1.0, 0.0], 1)


def _same_bits(x, y):
    return math.copysign(1.0, x) == math.copysign(1.0, y) and (x == y or x != x and y != y)


def test_initial_rate_is_bit_identical_to_the_reaction_loop():
    net = parallel_path_network()
    rng = np.random.default_rng(3)
    states = [list(row) for row in np.eye(net.n)]
    states += [rng.uniform(0.0, 1.0, net.n).tolist() for _ in range(50)]
    states += [[0.0] * net.n, [1e-300, 3.0, 1e300, 0.1]]
    for c in states:
        for s in range(net.n):
            new, old = _initial_rate(net, c, s), view_reference.initial_rate(net, c, s)
            assert _same_bits(new, old), (c, s, new, old)
    # drain terms: each species loses mass when it is the only one present
    for s in range(net.n):
        assert _initial_rate(net, states[s], s) < 0.0


def test_t0_limit_is_bit_identical_on_every_pair():
    net = parallel_path_network()
    times = default_time_grid(build_rate_matrix(net), points=10)
    for a in range(net.n):
        for b in range(net.n):
            if a == b:
                continue
            dual = dual_experiment(net, a, b, times)
            spec = resolve_expected_K(net, "linear_ratio", a, b)
            rate_b = view_reference.initial_rate(net, dual.from_a.concentrations[0].tolist(), b)
            rate_a = view_reference.initial_rate(net, dual.from_b.concentrations[0].tolist(), a)
            if rate_a == 0.0:  # a and b are not neighbours
                assert _limit(dual, spec) is None
            else:
                assert _same_bits(ratio_limit_at_zero(dual, spec), rate_b / rate_a)


def test_build_rate_matrix_returns_a_fresh_writable_array(rng):
    net, _ = balanced_integer_network(rng, 6)
    M1, M2 = build_rate_matrix(net), build_rate_matrix(net)
    assert type(M1) is RateMatrix and M1.n == net.n
    assert M1.entries is not M2.entries
    assert M1.entries.flags.writeable
    shared = first_order_view(net).rate_matrix
    assert not shared.entries.flags.writeable
    np.testing.assert_array_equal(M1.entries, shared.entries)
    M1.entries[0, 0] = 123.0
    assert M2.entries[0, 0] != 123.0
    assert shared.entries[0, 0] != 123.0
    assert build_rate_matrix(net).entries[0, 0] != 123.0
