"""The exact view: one slot of per-matrix exact data shared by every proof pair."""

import dataclasses
import importlib.util
import logging
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_view_reference
from conftest import balanced_integer_network, perturbed_network
from kinvar import (
    NoReversiblePathError,
    build_rate_matrix,
    butene_cycle,
    exact_balance,
    exact_cycle_violations,
    first_order_network,
    make_network,
    prove_fixed_proportion,
)
from kinvar import laplace
from kinvar.laplace import exact_entries, exact_view

_FIELDS = ("pair", "K", "verified", "failing_coefficient", "cycle_violations", "method",
           "numerator_b_from_a", "numerator_a_from_b")


def _benchmark_networks(seed):
    """The seeded balanced networks of the benchmark's exact-proof workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tasks.py"
    spec = importlib.util.spec_from_file_location("perfbench_tasks", path)
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module.build("exact-proof", seed).networks


def _outcome(prove, M, a, b):
    try:
        return prove(M, a, b)
    except NoReversiblePathError:
        return NoReversiblePathError


def _assert_same_reports(M):
    """Every ordered pair of ``M`` proves field by field as the per-call reference does."""
    n = len(exact_entries(M))
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
    for net in _benchmark_networks(seed):
        _assert_same_reports(build_rate_matrix(net))


@pytest.mark.parametrize("balanced", [False, True])
def test_butene_proves_as_the_reference(balanced):
    M = build_rate_matrix(butene_cycle())
    _assert_same_reports(exact_balance(M) if balanced else M)


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
    other = exact_view(exact_entries(build_rate_matrix(net)))
    assert other.entries == view.entries


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
    assert after.entries != before.entries


def test_float_and_fraction_matrices_of_equal_value_agree(rng):
    net, _ = balanced_integer_network(rng, 6)
    M = build_rate_matrix(net)
    floats, fractions = M.entries.tolist(), exact_entries(M)
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
        report.entries[0][1] = Fraction(7)
    with pytest.raises(TypeError):
        report.entries[0] = (Fraction(0),) * 4
    assert report.entries is exact_view(build_rate_matrix(net).entries.tolist()).entries


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
