"""The exact view: one slot of per-matrix exact data shared by every proof pair."""

import dataclasses
import logging
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_view_reference
from conftest import balanced_integer_network, benchmark_networks, perturbed_network
from kinvar import (
    NoReversiblePathError,
    all_transfer_functions_forest,
    build_rate_matrix,
    butene_cycle,
    characteristic_polynomial,
    exact_balance,
    exact_cycle_violations,
    first_order_network,
    make_network,
    prove_fixed_proportion,
    transfer_function_cofactor,
)
from kinvar import laplace
from kinvar.laplace import exact_view

_FIELDS = ("pair", "K", "verified", "failing_coefficient", "cycle_violations", "method",
           "certificate_failure", "numerator_b_from_a", "numerator_a_from_b")


def _outcome(prove, M, a, b):
    try:
        return prove(M, a, b)
    except NoReversiblePathError:
        return NoReversiblePathError


def _assert_same_reports(M):
    """Every ordered pair of ``M`` proves field by field as the per-call reference does."""
    n = len(exact_view_reference.exact_entries(M))
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            new = _outcome(prove_fixed_proportion, M, a, b)
            old = _outcome(exact_view_reference.prove_fixed_proportion, M, a, b)
            if old is NoReversiblePathError:
                assert new is NoReversiblePathError, (a, b)
                continue
            for name in _FIELDS:
                assert getattr(new, name) == getattr(old, name), (a, b, name)
            assert type(new.K) is Fraction
            assert (new.certificate_failure is None) == (new.method == "certificate")


@pytest.mark.parametrize("seed", [21, 41, 42])
def test_benchmark_networks_prove_as_the_reference(seed):
    for net in benchmark_networks(seed):
        _assert_same_reports(build_rate_matrix(net))


@pytest.mark.parametrize("balanced", [False, True])
def test_butene_proves_as_the_reference(balanced):
    M = build_rate_matrix(butene_cycle())
    _assert_same_reports(exact_balance(M) if balanced else M)


def _perturbed_networks():
    """Seeded balanced networks of 3-8 species with every backward rate scaled
    by a random factor: their float diagonals round the column sums."""
    rng = np.random.default_rng(29)
    return [perturbed_network(rng, balanced_integer_network(rng, n)[0]) for n in range(3, 9)]


def _one_form_subjects():
    """Raw and balanced butene, the exact-proof networks of seeds 21, 41 and
    42, and the perturbed networks, raw and exactly balanced."""
    butene = build_rate_matrix(butene_cycle())
    subjects = {"butene-raw": butene, "butene-balanced": exact_view_reference.exact_balance(butene)}
    for seed in (21, 41, 42):
        for net in benchmark_networks(seed):
            subjects[f"exact-proof-{seed}-n{net.n}"] = build_rate_matrix(net)
    for net in _perturbed_networks():
        M = build_rate_matrix(net)
        subjects[f"perturbed-n{net.n}"] = M
        subjects[f"perturbed-n{net.n}-balanced"] = exact_view_reference.exact_balance(M)
    return subjects


_SUBJECTS = _one_form_subjects()


def test_perturbed_float_diagonals_are_not_the_exact_column_sums():
    # so the cofactors there read a diagonal that the forests refuse
    rounded = 0
    for net in _perturbed_networks():
        M = build_rate_matrix(net).entries.tolist()
        rounded += any(Fraction(M[j][j]) != -sum(Fraction(M[i][j]) for i in range(net.n)
                                                   if i != j) for j in range(net.n))
    assert rounded >= 3


def _forest_outcome(forest, M):
    try:
        return forest(M)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name", _SUBJECTS)
def test_exact_routines_equal_the_per_call_reference(name):
    M = _SUBJECTS[name]
    n = len(exact_view_reference.exact_entries(M))
    assert characteristic_polynomial(M) == exact_view_reference.characteristic_polynomial(M)
    for source in range(n):
        for target in range(n):
            assert transfer_function_cofactor(M, source, target) == \
                exact_view_reference.transfer_function_cofactor(M, source, target)
    if n <= 8:
        assert _forest_outcome(all_transfer_functions_forest, M) == \
            _forest_outcome(exact_view_reference.all_transfer_functions_forest, M)
    assert exact_balance(M) == exact_view_reference.exact_balance(M)


@pytest.mark.parametrize("name", [name for name in _SUBJECTS if name.startswith("perturbed")])
def test_perturbed_networks_prove_as_the_reference(name):
    _assert_same_reports(_SUBJECTS[name])


def test_cofactors_of_one_matrix_expand_the_denominator_once(monkeypatch):
    calls = Counter()
    real = laplace._kronecker_det

    def counted(rows):
        calls["_kronecker_det"] += 1
        return real(rows)

    monkeypatch.setattr(laplace, "_kronecker_det", counted)
    monkeypatch.setattr(laplace, "_last_exact_view", None)
    M = _SUBJECTS["exact-proof-21-n6"]
    for source in range(M.n):
        for target in range(M.n):
            transfer_function_cofactor(M, source, target)
    # one minor per pair, and det(sI - M) once for all of them
    assert calls == {"_kronecker_det": M.n ** 2 + 1}


def _disconnected(net, other):
    """``net`` and ``other`` side by side, with no step between them."""
    names = list(net.names) + [f"{x}'" for x in other.names]
    shift = net.n
    moved = [dataclasses.replace(r, reactants=((r.reactants[0][0] + shift, 1),),
                                 products=((r.products[0][0] + shift, 1),))
             for r in other.reactions]
    return make_network(names, list(net.reactions) + moved)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    extra_edges=st.integers(0, 3),
    variant=st.sampled_from(["balanced", "perturbed", "irreversible", "disconnected"]),
    index=st.integers(0, 20),
)
def test_random_networks_prove_as_the_reference(seed, n, extra_edges, variant, index):
    rng = np.random.default_rng(seed)
    # a disconnected network adds a two-species component, so n stays at most 8
    size = max(2, n - 2) if variant == "disconnected" else n
    net, _ = balanced_integer_network(rng, size, extra_edges)
    if variant == "perturbed":
        net = perturbed_network(rng, net)
    elif variant == "irreversible":
        reactions = list(net.reactions)
        i = index % len(reactions)
        reactions[i] = dataclasses.replace(reactions[i], k_backward=0.0)
        net = make_network(list(net.names), reactions)
    elif variant == "disconnected":
        net = _disconnected(net, balanced_integer_network(rng, 2, 0)[0])
    _assert_same_reports(build_rate_matrix(net))


def test_rebuilt_equal_matrix_hits(rng):
    net, _ = balanced_integer_network(rng, 7)
    view = exact_view(build_rate_matrix(net))
    assert exact_view(build_rate_matrix(net)) is view
    assert exact_view(build_rate_matrix(net).entries) is view  # the bare array too
    other = exact_view(exact_view_reference.exact_entries(build_rate_matrix(net)))
    assert other is not view
    assert (other.D, other.matrix) == (view.D, view.matrix)


def test_nested_list_edited_in_place_misses(rng):
    net, _ = balanced_integer_network(rng, 5, extra_edges=2)
    rows = build_rate_matrix(net).entries.tolist()
    before = prove_fixed_proportion(rows, 0, 1)
    view = exact_view(rows)
    # scale one rate and its column's diagonal: the cycle it closes, if any, breaks
    j, i = next((j, i) for j in range(5) for i in range(5) if i != j and rows[i][j])
    rows[i][j] *= 3
    rows[j][j] -= 2 * rows[i][j] / 3
    assert exact_view(rows) is not view
    after = prove_fixed_proportion(rows, 0, 1)
    reference = exact_view_reference.prove_fixed_proportion(rows, 0, 1)
    for name in _FIELDS:
        assert getattr(after, name) == getattr(reference, name)
    assert after.view.matrix != before.view.matrix


def test_float_and_fraction_matrices_of_equal_value_agree(rng):
    net, _ = balanced_integer_network(rng, 6)
    M = build_rate_matrix(net)
    floats, fractions = M.entries.tolist(), exact_view_reference.exact_entries(M)
    assert exact_view(floats) is exact_view(fractions)
    for a, b in ((0, 1), (5, 2)):
        reports = [prove_fixed_proportion(X, a, b) for X in (M, floats, fractions)]
        for name in _FIELDS:
            assert len({repr(getattr(r, name)) for r in reports}) == 1


def test_alternating_matrices_give_the_cold_results(rng, monkeypatch):
    matrices = [build_rate_matrix(balanced_integer_network(rng, 6)[0]),
                build_rate_matrix(butene_cycle()),
                exact_balance(build_rate_matrix(butene_cycle()))]
    pairs = [(0, 1), (2, 0), (1, 2)]
    cold = {}
    for k, M in enumerate(matrices):
        for a, b in pairs:
            monkeypatch.setattr(laplace, "_last_exact_view", None)
            cold[k, a, b] = prove_fixed_proportion(M, a, b)
    for _ in range(2):
        for a, b in pairs:
            for k, M in enumerate(matrices):
                report = prove_fixed_proportion(M, a, b)
                for name in _FIELDS:
                    assert getattr(report, name) == getattr(cold[k, a, b], name)
                assert exact_cycle_violations(M) == list(cold[k, 0, 1].cycle_violations)


def test_report_rows_are_read_only(rng):
    net, _ = balanced_integer_network(rng, 4)
    report = prove_fixed_proportion(build_rate_matrix(net).entries.tolist(), 0, 1)
    with pytest.raises(TypeError):
        report.view.matrix[0][1] = 7
    with pytest.raises(TypeError):
        report.view.matrix[0] = (0,) * 4
    assert report.view is exact_view(build_rate_matrix(net).entries.tolist())


def test_certified_pairs_stay_within_their_component():
    net = first_order_network(list("ABCD"), [("A", "B", 2.0, 1.0), ("C", "D", 3.0, 1.0)])
    M = build_rate_matrix(net)
    assert exact_view(M).certificate.root == (0, 0, 2, 2)
    assert prove_fixed_proportion(M, 2, 3).K == 3
    for a, b in ((0, 2), (3, 1)):
        with pytest.raises(NoReversiblePathError):
            prove_fixed_proportion(M, a, b)


def test_certificate_fails_first_on_a_negative_rate():
    F = Fraction
    entries = [[F(-1), F(1), F(0)], [F(2), F(-1), F(-3)], [F(-1), F(0), F(3)]]
    assert exact_view(entries).certificate.failure == "an off-diagonal entry is negative"
    assert prove_fixed_proportion(entries, 0, 1).certificate_failure == \
        "an off-diagonal entry is negative"


def test_view_logs_whether_it_was_computed_or_reused(caplog, rng):
    net, _ = balanced_integer_network(rng, 5)
    exact_view([[0.0]])
    with caplog.at_level(logging.DEBUG, logger="kinvar.laplace"):
        exact_view(build_rate_matrix(net))
        exact_view(build_rate_matrix(net))
        exact_view([[-1.0, 1.0], [1.0, -1.0]])
    records = [r.getMessage() for r in caplog.records if r.name == "kinvar.laplace"]
    assert records == ["exact view of 5 species: computed",
                       "exact view of 5 species: reused",
                       "exact view of 2 species: computed"]
