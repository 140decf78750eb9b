"""``kinvar prove`` on the network's exact merged rates.

The proof's subject is ``exact_generator(n, merged_rates(net, Fraction))``.
Where no two reactions join one pair of species, its rates are the float
matrix's at their binary values and only its diagonals differ, so every
``proof.json`` and ``proofs.json`` equals the float matrix's
(``prove_reference``). Where parallel reactions join a pair, K is the
exactly summed path constant that ``kinvar invariants`` uses.
"""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

import prove_reference
from conftest import (
    balanced_integer_network,
    benchmark_networks,
    parallel_path_network,
    perturbed_network,
    reversibly_connected_pairs,
)
from kinvar import (
    butene_cycle,
    first_order_network,
    path_equilibrium_constant,
    save_network,
    transfer_function_cofactor,
    transfer_function_forest,
)
from kinvar.cli import main
from kinvar.laplace import exact_balance, exact_generator
from kinvar.network import merged_rates, rate_entries


def _seeded_networks():
    """Balanced integer networks of 3-8 species with every backward rate
    scaled by a random factor, so most rates and diagonals are not integers."""
    rng = np.random.default_rng(25)
    return [perturbed_network(rng, balanced_integer_network(rng, n)[0]) for n in range(3, 9)]


def _has_parallel_reactions(net):
    directions = sum(1 + rxn.reversible for rxn in net.reactions)
    return len(merged_rates(net)) != directions


def _subject(net):
    return exact_generator(net.n, merged_rates(net, Fraction))


def _prove(tmp_path, net, argv):
    """Exit code of ``kinvar prove`` on ``net`` and the JSON it wrote, or None."""
    save_network(net, tmp_path / "net.json")
    out = tmp_path / "out"
    for stale in out.glob("*.json"):
        stale.unlink()
    rc = main(["prove", "--config", str(tmp_path / "net.json"), "--out", str(out), *argv])
    written = list(out.glob("*.json"))
    return rc, json.loads(written[0].read_text()) if written else None


@pytest.mark.parametrize("net", [butene_cycle(), *_seeded_networks()],
                         ids=["butene", *(f"seeded-{n}" for n in range(3, 9))])
def test_proofs_equal_the_float_matrix_without_parallel_reactions(tmp_path, capsys, net):
    assert not _has_parallel_reactions(net)
    for balance in (False, True):
        flag = ["--balance"] if balance else []
        assert _prove(tmp_path, net, ["--all-pairs", *flag]) == \
            prove_reference.proofs(net, balance)
        for names in itertools.permutations(net.names, 2):
            assert _prove(tmp_path, net, ["--pair", ",".join(names), *flag]) == \
                prove_reference.proof(net, names, balance)
    capsys.readouterr()


@pytest.mark.parametrize("seed", [21, 41, 42])
def test_proofs_of_the_benchmark_networks_equal_the_float_matrix(tmp_path, capsys, seed):
    # every network of the exact-proof workload at once, and three pairs of each
    for net in benchmark_networks(seed):
        for balance in (False, True):
            flag = ["--balance"] if balance else []
            assert _prove(tmp_path, net, ["--all-pairs", *flag]) == \
                prove_reference.proofs(net, balance)
            names = net.names
            for pair in ((names[0], names[1]), (names[-1], names[0]), (names[1], names[-2])):
                assert _prove(tmp_path, net, ["--pair", ",".join(pair), *flag]) == \
                    prove_reference.proof(net, pair, balance)
    capsys.readouterr()


def test_the_seeded_float_diagonals_are_not_the_exact_ones():
    # the comparison above sees a difference of subject on these networks
    differ = 0
    for net in _seeded_networks():
        floats = rate_entries(net)
        exact = _subject(net)
        differ += any(Fraction(floats[(i, i)]) != exact[i][i] for i in range(net.n))
    assert differ >= 3


# A <=> B as two reactions whose rates sum inexactly in floats:
# 0.1 + 0.2 = 0.30000000000000004 against 0.7 + 0.3 = 1.0
_TWO_REACTIONS = first_order_network(["A", "B"], [("A", "B", 0.1, 0.7), ("A", "B", 0.2, 0.3)])
# a tree of reversible edges, two reactions on each, so the certificate holds
_PARALLEL_TREE = first_order_network(list("ABC"), [
    ("A", "B", 0.1, 0.7), ("B", "A", 0.3, 0.2), ("B", "C", 0.3, 0.1), ("C", "B", 0.6, 1.1)])


# the certificate holds on the trees, so --all-pairs lists every connected
# pair there, and fails on the unbalanced four-cycle
@pytest.mark.parametrize("net, certified", [(_TWO_REACTIONS, True), (_PARALLEL_TREE, True),
                                            (parallel_path_network(), False)],
                         ids=["two-reactions", "parallel-tree", "parallel-paths"])
def test_prove_K_is_the_exact_path_constant_with_parallel_reactions(tmp_path, capsys, net,
                                                                    certified):
    assert _has_parallel_reactions(net)
    rc, proofs = _prove(tmp_path, net, ["--all-pairs"])
    all_pairs = {tuple(p["pair"]): Fraction(p["K_num"], p["K_den"]) for p in proofs["pairs"]}
    assert rc == (0 if certified else 1)
    assert len(all_pairs) == (len(reversibly_connected_pairs(net)) if certified else 0)
    for a, b in reversibly_connected_pairs(net):
        K = path_equilibrium_constant(net, a, b)
        names = (net.names[a], net.names[b])
        _, proof = _prove(tmp_path, net, ["--pair", ",".join(names)])
        assert Fraction(proof["K_num"], proof["K_den"]) == K
        assert all_pairs.get(names, K) == K
    capsys.readouterr()


def test_two_reactions_prove_the_exact_sum_not_the_float_one(tmp_path, capsys):
    _, proof = _prove(tmp_path, _TWO_REACTIONS, ["--pair", "A,B"])
    K = Fraction(proof["K_num"], proof["K_den"])
    assert K == Fraction(3602879701896397, 12009599006321322)
    assert K == (Fraction(0.1) + Fraction(0.2)) / (Fraction(0.7) + Fraction(0.3))
    assert K != Fraction(0.1 + 0.2) / Fraction(0.7 + 0.3)
    assert capsys.readouterr().out == f"verified: A->B fixed proportion K = {K} (exact)\n"


@pytest.mark.parametrize("net", [butene_cycle(), parallel_path_network(),
                                 *_seeded_networks()[-2:]],
                         ids=["butene", "parallel-paths", "seeded-7", "seeded-8"])
def test_exact_generator_columns_sum_to_exactly_zero(net):
    rates = merged_rates(net, Fraction)
    for M in (exact_generator(net.n, rates), exact_balance(exact_generator(net.n, rates))):
        assert all(sum(row[j] for row in M) == 0 for j in range(net.n))
    M = exact_generator(net.n, rates)
    assert {(u, v): M[v][u] for u in range(net.n) for v in range(net.n)
            if u != v and M[v][u]} == rates


def test_forest_route_accepts_the_proof_subject_of_raw_butene():
    net = butene_cycle()
    with pytest.raises(ValueError, match="negative rate or a diagonal"):
        transfer_function_forest(prove_reference.float_subject(net, False), 0, 1)
    subject = _subject(net)
    for source, target in itertools.permutations(range(3), 2):
        assert transfer_function_forest(subject, source, target) == \
            transfer_function_cofactor(subject, source, target)
