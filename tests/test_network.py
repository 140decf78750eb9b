import logging
from fractions import Fraction

import numpy as np
import pytest

from conftest import balanced_integer_network, perturbed_network

from kinvar import (
    ConfigError,
    ConservationError,
    NetworkValidationError,
    Reaction,
    ReactionNetwork,
    Species,
    BalanceError,
    balance_network,
    build_rate_matrix,
    butene_cycle,
    check_cycle_conditions,
    conservation_vector,
    first_order_network,
    load_network,
    make_network,
    prove_fixed_proportion,
    save_network,
    stoichiometric_matrix,
    validate_network,
)
from kinvar._kernels import rhs_packed
from kinvar.network import (
    _lp_conservation_vector,
    merged_rates,
    network_from_dict,
    pack_network,
    potentials,
)


def test_first_order_network_sets_order_kind():
    net = first_order_network(["A", "B"], [("A", "B", 2.0, 1.0)])
    assert net.order_kind == "all-first-order"
    assert net.n == 2
    assert net.index_of("B") == 1


def test_general_order_detected():
    net = make_network(["A", "B"], [Reaction(((0, 2),), ((1, 1),), 3.0, 1.0)])
    assert net.order_kind == "general-mass-action"


@pytest.mark.parametrize(
    "species, reactions",
    [
        # duplicate name
        (["A", "A"], [Reaction(((0, 1),), ((1, 1),), 1.0)]),
        # index out of range
        (["A", "B"], [Reaction(((0, 1),), ((2, 1),), 1.0)]),
        # nonpositive forward rate
        (["A", "B"], [Reaction(((0, 1),), ((1, 1),), 0.0)]),
        # negative backward rate
        (["A", "B"], [Reaction(((0, 1),), ((1, 1),), 1.0, -1.0)]),
        # species on both sides
        (["A", "B"], [Reaction(((0, 1),), ((0, 1),), 1.0)]),
        # zero coefficient
        (["A", "B"], [Reaction(((0, 0),), ((1, 1),), 1.0)]),
        # empty product list
        (["A", "B"], [Reaction(((0, 1),), (), 1.0)]),
    ],
)
def test_validation_rejects(species, reactions):
    with pytest.raises(NetworkValidationError):
        make_network(species, reactions)


@pytest.mark.parametrize("field, value", [("k_backward", float("nan")),
                                          ("k_forward", float("inf"))])
def test_network_from_dict_rejects_non_finite_rates(field, value):
    rxn = {"reactants": [["A", 1]], "products": [["B", 1]],
           "k_forward": 2.0, "k_backward": 1.0, field: value}
    with pytest.raises(ConfigError, match="reaction 0: non-finite rate constant"):
        network_from_dict({"species": ["A", "B"], "reactions": [rxn]})


def test_validation_rejects_shuffled_species_indices():
    net = ReactionNetwork((Species(1, "A"), Species(0, "B")), ())
    with pytest.raises(NetworkValidationError):
        validate_network(net)


def test_mass_action_rhs_first_order():
    net = first_order_network(["A", "B"], [("A", "B", 2.0, 1.0)])
    terms = pack_network(net)
    np.testing.assert_allclose(rhs_packed([1.0, 0.0], terms, net.n), [-2.0, 2.0])
    np.testing.assert_allclose(rhs_packed([0.0, 1.0], terms, net.n), [1.0, -1.0])


def test_mass_action_rhs_second_order():
    # 2A <-> B with kf=3, kb=5 at c=(2, 7): forward rate 12, backward 35
    net = make_network(["A", "B"], [Reaction(((0, 2),), ((1, 1),), 3.0, 5.0)])
    np.testing.assert_allclose(
        rhs_packed([2.0, 7.0], pack_network(net), net.n), [-24.0 + 70.0, 12.0 - 35.0]
    )


def test_stoichiometric_matrix():
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 1.0, 1.0), ("B", "C", 1.0, 0.0)]
    )
    np.testing.assert_array_equal(
        stoichiometric_matrix(net), [[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]
    )


def test_conservation_vector_first_order_is_uniform():
    net = butene_cycle()
    np.testing.assert_allclose(conservation_vector(net), np.ones(3))


def test_conservation_vector_counts_atoms():
    net = make_network(["A", "B"], [Reaction(((0, 2),), ((1, 1),), 3.0, 1.0)])
    np.testing.assert_allclose(conservation_vector(net), [1.0, 2.0])


def _one_a_side(names, steps):
    """Network of reactions ``(u, cu, v, cv, k_backward)`` named by species."""
    index = {nm: i for i, nm in enumerate(names)}
    return make_network(names, [Reaction(((index[u], cu),), ((index[v], cv),), 1.0, kb)
                                for u, cu, v, cv, kb in steps])


def _tree_route_cases(rng):
    cases = {
        # o S_i <=> S_{i+1} with o = 2 on every third step: weights up to 2**13
        "chain": _one_a_side([f"S{i}" for i in range(40)],
                             [(f"S{i}", 2 if i % 3 == 0 else 1, f"S{i + 1}", 1, 1.0)
                              for i in range(39)]),
        "2A<=>B": _one_a_side(["A", "B"], [("A", 2, "B", 1, 1.0)]),
        "2A<=>2B": _one_a_side(["A", "B"], [("A", 2, "B", 2, 1.0)]),
        "stiff": _one_a_side(["A", "B", "C"], [("A", 2, "B", 1, 1.0), ("B", 1, "C", 1, 1.0)]),
        "butene": butene_cycle(),
        # two components; in the first the smallest weight is not the root's
        "A<=>2B, 3C->D": _one_a_side(list("ABCD"), [("A", 1, "B", 2, 1.0),
                                                  ("C", 3, "D", 1, 0.0)]),
    }
    for k in range(8):
        net, _ = balanced_integer_network(rng, int(rng.integers(2, 12)),
                                          extra_edges=int(rng.integers(0, 4)))
        cases[f"random-{k}"] = perturbed_network(rng, net) if k % 2 else net
    return cases


def test_conservation_tree_route_is_bit_equal_to_the_lp(rng, caplog):
    for name, net in _tree_route_cases(rng).items():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="kinvar.network"):
            w = conservation_vector(net)
        assert [r.getMessage() for r in caplog.records] == [
            "conservation weights: coefficient tree"], name
        assert w.tolist() == _lp_conservation_vector(net).tolist(), name


def test_conservation_tree_route_rejects_an_inconsistent_cycle():
    # A <=> 2B forces w_A = 2 w_B, while B <=> C <=> A forces w_A = w_B
    net = _one_a_side(list("ABC"), [("A", 1, "B", 2, 1.0), ("B", 1, "C", 1, 1.0),
                                    ("C", 1, "A", 1, 1.0)])
    with pytest.raises(ConservationError, match="around B -> C -> A -> B"):
        conservation_vector(net)
    with pytest.raises(ConservationError):
        _lp_conservation_vector(net)


@pytest.mark.parametrize("reactions, expected", [
    # A <=> B and 2A <=> 2B give one pair two coefficient sets
    ([Reaction(((0, 1),), ((1, 1),), 1.0, 1.0), Reaction(((0, 2),), ((1, 2),), 1.0, 1.0)],
     [1.0, 1.0, 1.0]),
    # A + B <=> C has two species on one side
    ([Reaction(((0, 1), (1, 1)), ((2, 1),), 1.0, 1.0)], [1.0, 1.0, 2.0]),
])
def test_conservation_vector_falls_back_to_the_lp(caplog, reactions, expected):
    net = make_network(["A", "B", "C"], reactions)
    with caplog.at_level(logging.DEBUG, logger="kinvar.network"):
        w = conservation_vector(net)
    assert [r.getMessage() for r in caplog.records] == [
        "conservation weights: linear program (a reaction has several species on "
        "one side, or one pair has two coefficient sets)"]
    np.testing.assert_allclose(w, expected)


def test_butene_cycle_condition_mismatch():
    report = check_cycle_conditions(butene_cycle())
    assert len(report.cycles) == 1
    assert not report.satisfied
    # the literature constants miss the cycle condition by roughly 1e-3
    assert 5e-4 < report.max_mismatch < 2e-3


def test_balance_network_repairs_butene():
    raw = butene_cycle()
    balanced = balance_network(raw)
    report = check_cycle_conditions(balanced)
    assert report.satisfied
    assert report.max_mismatch <= 1e-12
    # the repair should barely move the constants
    for a, b in zip(raw.reactions, balanced.reactions):
        assert abs(b.k_forward / a.k_forward - 1.0) < 1e-3
        assert abs(b.k_backward / a.k_backward - 1.0) < 1e-3


def test_balance_network_reaches_roundoff_on_200_species(rng):
    net, _ = balanced_integer_network(rng, 200, extra_edges=40)
    balanced = balance_network(perturbed_network(rng, net))
    assert check_cycle_conditions(balanced).max_mismatch <= 1e-12


def test_cycle_products_survive_float_overflow():
    # 400 rates of 10 each way multiply to 1e400, beyond the float range
    names = [f"S{i}" for i in range(400)]
    ring = [(names[i], names[(i + 1) % 400], 10.0, 10.0) for i in range(400)]
    assert check_cycle_conditions(first_order_network(names, ring)).max_mismatch == 0.0
    ring[0] = (names[0], names[1], 10.0, 12.0)
    balanced = balance_network(first_order_network(names, ring))
    assert check_cycle_conditions(balanced).max_mismatch <= 1e-12


@pytest.mark.parametrize("k_forward, k_backward", [(5e-324, 1.0), (2.0, 1e308)])
def test_cycle_products_survive_a_ratio_beyond_the_float_range(k_forward, k_backward):
    # the products along and against the cycle differ by more than the float
    # range, so one of them must underflow rather than the other overflow
    net = first_order_network(list("ABC"), [("A", "B", k_forward, k_backward),
                                            ("B", "C", 3.0, 0.5), ("C", "A", 1.0, 4.0)])
    assert check_cycle_conditions(net).max_mismatch == pytest.approx(1.0)


def test_balance_network_without_cycles_is_identity():
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 3.0, 4.0)]
    )
    assert balance_network(net) == net


def test_parallel_reactions_judged_by_merged_rates():
    # two A <=> B reactions with ratios 2/1 and 1/3 merge into one edge with
    # k(A->B) = 3 and k(B->A) = 4, which is what the dynamics see
    net = first_order_network(["A", "B"], [("A", "B", 2.0, 1.0), ("A", "B", 1.0, 3.0)])
    report = check_cycle_conditions(net)
    assert report.satisfied
    assert report.cycles == ()
    assert balance_network(net) == net
    proof = prove_fixed_proportion(build_rate_matrix(net), 0, 1)
    assert proof.verified
    assert proof.K == 0.75


def test_balance_network_rejects_irreversible_step_on_cycle():
    # the irreversible A -> C step closes the cycle against its direction
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 3.0, 4.0), ("A", "C", 1.0, 0.0)]
    )
    with pytest.raises(BalanceError):
        balance_network(net)


def test_json_round_trip(tmp_path):
    net = butene_cycle()
    path = tmp_path / "net.json"
    save_network(net, path)
    assert load_network(path) == net


def test_network_from_dict_rejects_unknown_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"species": ["A"], "reactions": [], "color": "red"}')
    with pytest.raises(ConfigError):
        load_network(path)


def test_potentials_are_ratios_to_the_first_species(rng):
    for trial in range(20):
        n = int(rng.integers(2, 12))
        net, h = balanced_integer_network(rng, n, extra_edges=int(rng.integers(0, 4)))
        exact = potentials(n, merged_rates(net, Fraction))
        assert exact == [Fraction(h[v], h[0]) for v in range(n)]
        np.testing.assert_allclose(potentials(n, merged_rates(net)),
                                   [h[v] / h[0] for v in range(n)], rtol=1e-14)


def test_potentials_start_each_component_at_one():
    net = first_order_network(
        ["A", "B", "C", "D", "E"],
        [("A", "B", 2.0, 1.0), ("C", "D", 1.0, 4.0), ("D", "E", 3.0, 0.0)],
    )
    assert potentials(net.n, merged_rates(net, Fraction)) == [1, 2, 1, Fraction(1, 4), 1]
