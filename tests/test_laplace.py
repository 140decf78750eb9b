import dataclasses
import itertools
import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exact_view_reference
from exact_view_reference import cofactor_numerator, exact_entries
from conftest import (
    balanced_integer_network,
    exact_pair_constant,
    parallel_path_network,
    perturbed_network,
)

from kinvar import (
    BalanceError,
    NoReversiblePathError,
    Polynomial,
    all_transfer_functions_forest,
    balance_network,
    build_rate_matrix,
    butene_cycle,
    characteristic_polynomial,
    check_cycle_conditions,
    exact_balance,
    exact_cycle_violations,
    first_order_network,
    make_network,
    path_equilibrium_constant,
    prove_fixed_proportion,
    transfer_function_cofactor,
    transfer_function_forest,
)
from kinvar import linear
from kinvar.laplace import _scaled_det, exact_generator, exact_view
from kinvar.network import (
    CycleCondition,
    balanced_rates,
    merged_rates,
    path_products,
    potentials,
    reversible_edges,
    shortest_path,
)


def _p(*coeffs):
    return Polynomial([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# polynomial layer

def test_polynomial_basics():
    p = _p(1, 2, 1)  # (s+1)^2
    assert p.degree == 2
    assert p(3) == 16
    assert str(_p(0, 1)) == "s"
    assert Polynomial([]).is_zero
    assert (_p(1, 1) * _p(-1, 1)) == _p(-1, 0, 1)
    assert _p(1, 2) - _p(1, 2) == Polynomial([])
    assert _p(1, 1) * Fraction(3) == _p(3, 3)


def poly_det(rows):
    """Exact determinant of a square matrix of polynomials, by the Kronecker-Bareiss kernel."""
    scale = math.lcm(*(c.denominator for row in rows for p in row for c in p.coeffs))
    int_rows = [[[c.numerator * (scale // c.denominator) for c in p.coeffs] for p in row]
                for row in rows]
    return _scaled_det(int_rows, scale)


def test_poly_det_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ints = rng.integers(-5, 6, size=(4, 4))
        rows = [[_p(int(v)) for v in row] for row in ints]
        det = poly_det(rows)
        assert det.degree <= 0
        expected = round(float(np.linalg.det(ints.astype(float))))
        assert det.coefficient(0) == expected


def test_poly_det_singular_is_zero():
    rows = [[_p(1), _p(2)], [_p(2), _p(4)]]
    assert poly_det(rows).is_zero


def _laplace_det(rows):
    """Reference determinant: cofactor expansion along the first row."""
    if not rows:
        return Polynomial([1])
    total = Polynomial()
    for j, p in enumerate(rows[0]):
        if not p.is_zero:
            term = p * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
            total = total - term if j % 2 else total + term
    return total


_big_fractions = st.builds(Fraction, st.integers(-10**30, 10**30),
                           st.integers(1, 10**9) | st.just(1))
_entries = st.just(Polynomial()) | st.lists(_big_fractions, min_size=1,
                                            max_size=3).map(Polynomial)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    rows=st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)),
    zero_pivot=st.booleans(),
)
def test_poly_det_matches_laplace_expansion(rows, zero_pivot):
    # degree <= 2 entries with coefficients near 10^30, and a zero top-left
    # entry that forces a row swap: the integer evaluation must stay exact
    if zero_pivot:
        rows[0][0] = Polynomial()
    assert poly_det(rows) == _laplace_det(rows)


def test_characteristic_polynomial_two_species():
    net = first_order_network(["A", "B"], [("A", "B", 2.0, 1.0)])
    M = build_rate_matrix(net)
    assert characteristic_polynomial(M) == _p(0, 3, 1)  # s(s+3)


# ---------------------------------------------------------------------------
# transfer functions

def test_cofactor_transfer_function_two_species():
    net = first_order_network(["A", "B"], [("A", "B", 2.0, 1.0)])
    M = build_rate_matrix(net)
    f = transfer_function_cofactor(M, 0, 1)
    assert f.numerator == _p(2)
    assert f.denominator == _p(0, 3, 1)


def test_forest_route_equals_cofactor_route(rng):
    for trial in range(15):
        n = int(rng.integers(2, 6))
        net, _ = balanced_integer_network(rng, n)
        # integer rates, float rates with dyadic denominators, and the
        # non-dyadic Fractions of an exactly rebalanced copy. The forest
        # expansion reads only the rates, so the float copy gets its diagonal
        # as the exact column sums rather than their rounded float values.
        perturbed = exact_entries(build_rate_matrix(
            perturbed_network(np.random.default_rng(trial), net)))
        for j in range(n):
            perturbed[j][j] = -sum(perturbed[i][j] for i in range(n) if i != j)
        for M in (build_rate_matrix(net), perturbed, exact_balance(perturbed)):
            table = all_transfer_functions_forest(M)
            for src in range(n):
                for tgt in range(n):
                    direct = transfer_function_cofactor(M, src, tgt)
                    forest = table[(src, tgt)]
                    assert direct.numerator == forest.numerator
                    assert direct.denominator == forest.denominator


def test_forest_route_on_unbalanced_network():
    # the forest expansion is a determinant identity, not a balance property
    net = first_order_network(
        ["A", "B", "C"],
        [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0), ("C", "A", 2.0, 1.0)],
    )
    M = build_rate_matrix(net)
    for src, tgt in [(0, 0), (0, 2), (2, 1)]:
        direct = transfer_function_cofactor(M, src, tgt)
        forest = transfer_function_forest(M, src, tgt)
        assert direct.numerator == forest.numerator
        assert direct.denominator == forest.denominator


def test_forest_counts_on_unit_triangle():
    # complete reversible triangle with unit rates: every coefficient counts
    # spanning in-forests
    net = first_order_network(
        ["A", "B", "C"],
        [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0), ("C", "A", 1.0, 1.0)],
    )
    M = build_rate_matrix(net)
    table = all_transfer_functions_forest(M)
    # s^3: the empty forest; s^2: 3 root pairs, the third vertex picks one of
    # its 2 out-edges; s^1: 3 in-trees at each of the 3 roots
    assert characteristic_polynomial(M) == _p(0, 9, 6, 1)
    assert table[(0, 0)].denominator == _p(0, 9, 6, 1)
    # L[A <- C]: 3 in-trees rooted at A (s^0), and the one 2-rooted forest
    # {A, B} with C -> A (s^1)
    assert table[(2, 0)].numerator == _p(3, 1)


def test_forest_sum_reproduces_char_poly_coefficients():
    # chain A <-> B <-> C; the r-rooted forest weights, counted by hand:
    # r=1: C->B->A 7*3, A->B<-C 2*7, A->B->C 2*5; r=2: roots {A,B} 7,
    # {A,C} 3+5, {B,C} 2; r=3: the empty forest
    net = first_order_network(
        ["A", "B", "C"],
        [("A", "B", 2.0, 3.0), ("B", "C", 5.0, 7.0)],
    )
    M = build_rate_matrix(net)
    forest_sums = _p(0, 21 + 14 + 10, 7 + 8 + 2, 1)
    assert characteristic_polynomial(M) == forest_sums
    assert all_transfer_functions_forest(M)[(0, 2)].denominator == forest_sums


def test_forest_route_refuses_what_it_cannot_expand():
    # raw butene's float diagonals round their column sums; the second matrix
    # has the right diagonal but a negative rate. The cofactors would expand
    # both, the forests read only the rates and would disagree with them.
    raw = build_rate_matrix(butene_cycle())
    for M in (raw, [[-1, -1], [1, 1]]):
        with pytest.raises(ValueError, match="negative rate or a diagonal"):
            all_transfer_functions_forest(M)
        with pytest.raises(ValueError, match="negative rate or a diagonal"):
            transfer_function_forest(M, 0, 1)
    # exactly balanced butene has exact column sums and expands as before
    assert len(all_transfer_functions_forest(exact_balance(raw))) == 9


# ---------------------------------------------------------------------------
# cycle conditions and proofs

def test_exact_cycle_violations_balanced_is_empty(rng):
    net, _ = balanced_integer_network(rng, 5)
    assert exact_cycle_violations(build_rate_matrix(net)) == []


def test_exact_cycle_violations_unbalanced_triangle():
    net = first_order_network(
        ["A", "B", "C"],
        [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0), ("C", "A", 1.0, 2.0)],
    )
    violations = exact_cycle_violations(build_rate_matrix(net))
    assert len(violations) == 1
    v = violations[0]
    assert {v.forward_product, v.backward_product} == {Fraction(1), Fraction(2)}
    assert v.mismatch == Fraction(2)


def test_prove_chain_with_irreversible_drain():
    # the B -> C drain does not disturb the A/B proportion
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 3.0, 0.0)]
    )
    report = prove_fixed_proportion(build_rate_matrix(net), 0, 1)
    assert report.method == "cofactor"
    assert report.verified
    assert report.K == Fraction(2)
    assert report.failing_coefficient is None
    assert report.cycle_violations == ()


def test_prove_balanced_network_pairs(rng):
    net, h = balanced_integer_network(rng, 6)
    entries = exact_entries(build_rate_matrix(net))
    for a, b in [(0, 1), (2, 5), (3, 4)]:
        report = prove_fixed_proportion(entries, a, b)
        assert report.method == "certificate"
        assert report.verified
        assert report.K == exact_pair_constant(h, a, b)
        # the numerators are expanded only when read
        assert "numerator_b_from_a" not in vars(report)
        assert report.numerator_b_from_a == cofactor_numerator(entries, a, b)
        assert report.numerator_a_from_b == cofactor_numerator(entries, b, a)
        assert report.numerator_b_from_a == report.K * report.numerator_a_from_b


def test_prove_unbalanced_triangle_fails_with_diagnosis():
    net = first_order_network(
        ["A", "B", "C"],
        [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0), ("C", "A", 1.0, 2.0)],
    )
    report = prove_fixed_proportion(build_rate_matrix(net), 0, 1)
    assert report.method == "cofactor"
    assert not report.verified
    assert isinstance(report.failing_coefficient, int)
    assert len(report.cycle_violations) == 1
    payload = report.to_dict()
    assert set(payload) == {
        "pair", "K_num", "K_den", "verified", "method", "failing_coefficient",
        "cycle_violations", "certificate",
    }
    assert payload["verified"] is False
    assert payload["method"] == "cofactor"
    assert payload["certificate"] == "rate products around 1 -> 2 -> 0 -> 1 differ"


def test_prove_requires_reversible_path():
    net = first_order_network(["A", "B"], [("A", "B", 1.0, 0.0)])
    with pytest.raises(NoReversiblePathError):
        prove_fixed_proportion(build_rate_matrix(net), 0, 1)


def test_prove_across_reversible_components_raises_despite_certificate():
    net = first_order_network(
        ["A", "B", "C", "D"], [("A", "B", 2.0, 1.0), ("C", "D", 3.0, 5.0)]
    )
    M = build_rate_matrix(net)
    assert prove_fixed_proportion(M, 2, 3).method == "certificate"
    with pytest.raises(NoReversiblePathError):
        prove_fixed_proportion(M, 0, 2)


def test_prove_butene_raw_by_cofactors_and_balanced_by_certificate():
    M = build_rate_matrix(butene_cycle())
    E = exact_balance(M)
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        raw = prove_fixed_proportion(M, a, b)
        assert raw.method == "cofactor"
        assert not raw.verified
        assert len(raw.cycle_violations) == 1
        balanced = prove_fixed_proportion(E, a, b)
        assert balanced.method == "certificate"
        assert balanced.verified
        assert balanced.cycle_violations == ()
        assert balanced.K == E[b][a] / E[a][b]


def test_prove_negative_off_diagonal_entries_need_cofactors():
    # the negative A -> C -> B route is no rate, so the rate map holds only
    # the balanced A <=> B edge; the certificate must not vouch for it
    F = Fraction
    entries = [[F(-1), F(1), F(0)], [F(2), F(-1), F(-3)], [F(-1), F(0), F(3)]]
    report = prove_fixed_proportion(entries, 0, 1)
    assert report.method == "cofactor"
    assert not report.verified


_LOGGED_CASES = {
    "balanced": ([("A", "B", 2.0, 1.0), ("B", "C", 3.0, 4.0)],
                 "detailed balance holds on every edge"),
    "drain": ([("A", "B", 2.0, 1.0), ("B", "C", 3.0, 0.0)],
              "edge 1 -> 2 has no reverse"),
    "triangle": ([("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0), ("C", "A", 1.0, 2.0)],
                 "rate products around 1 -> 2 -> 0 -> 1 differ"),
}


@pytest.mark.parametrize("case", _LOGGED_CASES)
def test_proof_method_is_logged(caplog, case):
    spec, reason = _LOGGED_CASES[case]
    M = build_rate_matrix(first_order_network(["A", "B", "C"], spec))
    with caplog.at_level(logging.DEBUG, logger="kinvar.laplace"):
        report = prove_fixed_proportion(M, 0, 1)
    records = [r.getMessage() for r in caplog.records if r.name == "kinvar.laplace"]
    # the exact view's line, then the proof's
    assert len(records) == 2
    assert records[0].startswith("exact view of 3 species: ")
    taken, why = records[1].split(": ", 1)
    assert taken == f"proof {report.method}"
    assert why.startswith(reason)
    assert report.certificate_failure == (None if case == "balanced" else why)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 8),
    extra_edges=st.integers(1, 3),
    perturb=st.none() | st.tuples(
        st.integers(0, 20),
        st.fractions(Fraction(1, 5), 5, max_denominator=7).filter(lambda r: r != 1),
    ),
)
def test_certificate_agrees_with_cofactors(seed, n, extra_edges, perturb):
    net, _ = balanced_integer_network(np.random.default_rng(seed), n, extra_edges)
    entries = exact_entries(build_rate_matrix(net))
    if perturb is not None:
        # scale one k_backward; on an edge that closes no cycle the network
        # stays balanced, with new potentials
        index, factor = perturb
        rxn = net.reactions[index % len(net.reactions)]
        u, v = rxn.reactants[0][0], rxn.products[0][0]
        entries[u][v] *= factor
        entries[v][v] = -sum(entries[i][v] for i in range(n) if i != v)
    rates = {(u, v): entries[v][u] for u in range(n) for v in range(n)
             if u != v and entries[v][u] > 0}
    h = potentials(n, rates)
    balanced = not exact_cycle_violations(entries)
    nums = {(s, t): cofactor_numerator(entries, s, t)
            for s in range(n) for t in range(n) if s != t}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            report = prove_fixed_proportion(entries, a, b)
            assert (report.method == "certificate") == balanced
            assert report.verified == (nums[(a, b)] == report.K * nums[(b, a)])
            if balanced:
                assert report.K == h[b] / h[a]
                assert report.numerator_b_from_a == nums[(a, b)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    extra_edges=st.integers(0, 3),
    variant=st.sampled_from(["balanced", "k_forward + 1", "k_backward = 0"]),
    index=st.integers(0, 20),
)
def test_float_and_exact_paths_agree_on_balanced(seed, n, extra_edges, variant, index):
    # the float propagator's symmetric form exists exactly when the exact
    # detailed-balance certificate holds; raising a rate on an edge that
    # closes no cycle keeps the network balanced, with new potentials
    net, _ = balanced_integer_network(np.random.default_rng(seed), n, extra_edges)
    reactions = list(net.reactions)
    i = index % len(reactions)
    if variant == "k_forward + 1":
        reactions[i] = dataclasses.replace(reactions[i], k_forward=reactions[i].k_forward + 1)
    elif variant == "k_backward = 0":
        reactions[i] = dataclasses.replace(reactions[i], k_backward=0.0)
    M = build_rate_matrix(make_network(list(net.names), reactions))
    float_balanced = linear._symmetric_form(M.entries)[0] is not None
    assert float_balanced == (exact_view(M).certificate.failure is None)


def test_path_equilibrium_constant_chain():
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 3.0, 2.0)]
    )
    assert path_equilibrium_constant(net, 0, 2) == Fraction(3)
    assert path_equilibrium_constant(net, 2, 0) == Fraction(1, 3)
    assert path_equilibrium_constant(net, 1, 1) == Fraction(1)


def test_path_equilibrium_constant_unbalanced_takes_shortest_path():
    net = first_order_network(
        ["A", "B", "C"],
        [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0), ("C", "A", 1.0, 2.0)],
    )
    # A -> B directly (ratio 1), not A -> C -> B (ratio 2)
    assert path_equilibrium_constant(net, 0, 1) == 1
    assert path_equilibrium_constant(net, 0, 2) == 2


def test_path_equilibrium_constant_sums_parallel_rates_exactly():
    # the parallel rates are summed exactly, as the whole network in
    # Fractions sums them, not as their float sums
    net = parallel_path_network()
    def shortest_path_constant(rates):
        return Fraction(*path_products(rates, shortest_path(net.n, reversible_edges(rates), 0, 2)))

    K = path_equilibrium_constant(net, 0, 2)
    assert K == shortest_path_constant(merged_rates(net, Fraction))
    float_sums = {e: Fraction(k) for e, k in merged_rates(net).items()}
    assert K != shortest_path_constant(float_sums)


def test_path_equilibrium_constant_of_rational_rate_constants():
    # rate constants with odd denominators are scaled by the lcm of their
    # denominators, not by the largest power of two among them
    net = first_order_network(list("ABC"), [("A", "B", Fraction(1, 3), Fraction(1, 2)),
                                            ("B", "C", Fraction(2, 3), Fraction(1, 5))])
    assert path_equilibrium_constant(net, 0, 1) == Fraction(2, 3)
    assert path_equilibrium_constant(net, 0, 2) == Fraction(20, 9)
    subject = exact_generator(net.n, merged_rates(net, Fraction))
    assert prove_fixed_proportion(subject, 0, 2).K == Fraction(20, 9)


def test_float_and_exact_cycle_verdicts_agree(rng):
    violated = 0
    for trial in range(20):
        n = int(rng.integers(3, 9))
        net, _ = balanced_integer_network(rng, n, extra_edges=int(rng.integers(0, 4)))
        for subject in (net, perturbed_network(rng, net)):
            float_verdict = check_cycle_conditions(subject).satisfied
            exact_verdict = not exact_cycle_violations(build_rate_matrix(subject))
            assert float_verdict == exact_verdict
            if subject is net:
                assert float_verdict
            violated += not exact_verdict
    assert violated > 5  # the perturbed networks with cycles


def _undirected(condition):
    """A cycle condition's walk and products read from its least vertex
    towards its smaller neighbour, so both directions of one cycle match."""
    walk = list(condition.cycle[:-1])
    start = walk.index(min(walk))
    walk = walk[start:] + walk[:start]
    fwd, back = condition.forward_product, condition.backward_product
    if walk[-1] < walk[1]:
        walk, fwd, back = walk[:1] + walk[:0:-1], back, fwd
    return tuple(walk), fwd, back


def test_exact_cycle_violations_are_float_cycle_conditions():
    # one CycleCondition type in both arithmetics; the float cycles follow
    # the reaction order and the exact ones the row-major matrix, so a cycle
    # may run the other way
    nets = [butene_cycle()]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        net, _ = balanced_integer_network(rng, int(rng.integers(3, 9)),
                                          extra_edges=int(rng.integers(1, 4)))
        nets.append(perturbed_network(rng, net))
    checked = 0
    for net in nets:
        floats = {}
        for condition in check_cycle_conditions(net).cycles:
            assert isinstance(condition, CycleCondition)
            walk, fwd, back = _undirected(condition)
            floats[walk] = (fwd, back)
        for violation in exact_cycle_violations(build_rate_matrix(net)):
            assert isinstance(violation, CycleCondition)
            walk, fwd, back = _undirected(violation)
            assert type(fwd) is Fraction and type(back) is Fraction
            float_fwd, float_back = floats[walk]
            assert float(fwd) == pytest.approx(float_fwd, rel=1e-14, abs=0)
            assert float(back) == pytest.approx(float_back, rel=1e-14, abs=0)
            checked += 1
    assert checked > 12


def _exact_k_networks(rng):
    """Seeded balanced integer networks (n <= 12), raw and float-balanced
    butene, a chain with an irreversible step and a balanced network of two
    components."""
    nets = [balanced_integer_network(rng, n, extra_edges=int(rng.integers(0, 4)))[0]
            for n in (2, 3, 5, 8, 12)]
    return nets + [
        butene_cycle(), balance_network(butene_cycle()),
        first_order_network(list("ABC"), [("A", "B", 2.0, 1.0), ("B", "C", 0.5, 0.0)]),
        first_order_network(list("ABCD"), [("A", "B", 2.0, 1.0), ("C", "D", 3.0, 0.5)]),
    ]


def test_one_pair_constant_for_every_exact_caller(rng):
    # the network view and the proof read K from one routine; the per-call
    # proof walks a shortest path, which a holding certificate must agree with
    for net in _exact_k_networks(rng):
        M = build_rate_matrix(net)
        for a in range(net.n):
            for b in range(net.n):
                if a == b:
                    continue
                try:
                    K = path_equilibrium_constant(net, a, b)
                except NoReversiblePathError:
                    with pytest.raises(NoReversiblePathError):
                        prove_fixed_proportion(M, a, b)
                    continue
                assert prove_fixed_proportion(M, a, b).K == K
                assert exact_view_reference.prove_fixed_proportion(M, a, b).K == K
    balanced = exact_balance(build_rate_matrix(butene_cycle()))
    for a, b in itertools.permutations(range(3), 2):
        assert prove_fixed_proportion(balanced, a, b).K == \
            exact_view_reference.prove_fixed_proportion(balanced, a, b).K


def test_path_equilibrium_constant_is_potential_ratio(rng):
    for trial in range(20):
        n = int(rng.integers(2, 9))
        net, h = balanced_integer_network(rng, n, extra_edges=int(rng.integers(0, 4)))
        for a in range(n):
            for b in range(n):
                assert path_equilibrium_constant(net, a, b) == exact_pair_constant(h, a, b)


def test_exact_balance_restores_cycle_condition():
    net = first_order_network(
        ["A", "B", "C"],
        [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 1.0), ("C", "A", 1.0, 2.0)],
    )
    balanced = exact_balance(build_rate_matrix(net))
    assert exact_cycle_violations(balanced) == []
    cols = range(len(balanced))
    for j in cols:
        assert sum(balanced[i][j] for i in cols) == 0
    report = prove_fixed_proportion(balanced, 0, 2)
    assert report.verified


def test_exact_view_keeps_float_rates_at_their_binary_values():
    net = first_order_network(["A", "B"], [("A", "B", 0.1, 1.0)])
    view = exact_view(build_rate_matrix(net))
    # 0.1 is kept as the exact binary fraction actually simulated
    assert view.D == 2 ** 55
    assert Fraction(view.matrix[1][0], view.D) == Fraction(0.1)
    assert Fraction(view.matrix[1][0], view.D) != Fraction(1, 10)
    assert view.rates == {(0, 1): view.matrix[1][0], (1, 0): view.D}


def test_exact_view_same_from_array_and_lists(rng):
    net, _ = balanced_integer_network(rng, 16, 4)
    M = build_rate_matrix(net)
    by_element = [[Fraction(float(x)) for x in row] for row in M.entries]
    numpy_ints = [list(row) for row in M.entries.astype(np.int64)]  # integer rates
    for X in (M, M.entries, M.entries.tolist(), by_element, numpy_ints):
        view = exact_view(X)
        assert [[Fraction(x, view.D) for x in row] for row in view.matrix] == by_element
        assert all(type(x) is int for row in view.matrix for x in row)


def test_exact_balance_of_butene_rewrites_the_non_tree_edge():
    # The forest of the butene triangle is rooted at cis-2-butene (0) with
    # children 1-butene (1) and trans-2-butene (2); the non-tree edge 1 -> 2
    # keeps k(1->2) and gets k(2->1) = k(1->2) h_1 / h_2.
    M = build_rate_matrix(butene_cycle())
    expected = exact_entries(M)
    F = Fraction
    h1 = F(4.623) / F(10.344)
    h2 = F(5.616) / F(3.371)
    expected[1][2] = F(3.724) * h1 / h2
    for j in range(3):
        expected[j][j] = -sum(expected[i][j] for i in range(3) if i != j)
    assert exact_balance(M) == expected


def test_exact_balance_keeps_balanced_and_repairs_perturbed_networks(rng):
    # balance_network applies the same rule in floats
    for trial in range(20):
        n = int(rng.integers(3, 9))
        net, _ = balanced_integer_network(rng, n, extra_edges=int(rng.integers(1, 4)))
        M = build_rate_matrix(net)
        assert exact_balance(M) == exact_entries(M)
        assert balance_network(net) == net
        perturbed = perturbed_network(rng, net)
        before = exact_entries(build_rate_matrix(perturbed))
        after = exact_balance(before)
        after_float = exact_entries(build_rate_matrix(balance_network(perturbed)))
        assert exact_cycle_violations(after) == []
        cycles = len(check_cycle_conditions(net).cycles)
        for balanced in (after, after_float):
            changed = [(i, j) for i in range(n) for j in range(n)
                       if i != j and balanced[i][j] != before[i][j]]
            # one rate per basis cycle, each the reverse of a rate kept as is
            assert len(changed) <= cycles
            assert all(balanced[j][i] == before[j][i] for i, j in changed)
        np.testing.assert_allclose(np.array(after_float, dtype=float),
                                   np.array(after, dtype=float), rtol=1e-13)


def test_float_and_exact_balance_refuse_an_irreversible_cycle():
    # A <=> B <=> C closed by the irreversible C -> A; the drain of a chain
    # closes no cycle and balances
    cycle = first_order_network(list("ABC"), [("A", "B", 2.0, 1.0), ("B", "C", 1.0, 3.0),
                                              ("C", "A", 1.0, 0.0)])
    chain = first_order_network(list("ABC"), [("A", "B", 2.0, 1.0), ("B", "C", 1.0, 0.0)])
    for balance in (balance_network, lambda net: exact_balance(build_rate_matrix(net)),
                    lambda net: balanced_rates(net.n, merged_rates(net, Fraction))):
        with pytest.raises(BalanceError, match="^cycle contains an irreversible step; "
                                               "cannot balance$"):
            balance(cycle)
        balance(chain)


def test_float_and_exact_balance_give_butene_the_same_constants():
    exact = exact_balance(build_rate_matrix(butene_cycle()))
    balanced = balance_network(butene_cycle())
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        K = prove_fixed_proportion(exact, a, b).K
        K_float = float(path_equilibrium_constant(balanced, a, b))
        assert K_float == pytest.approx(float(K), rel=1e-13)
