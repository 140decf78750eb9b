import dataclasses
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import balanced_integer_network
from kinvar import butene_cycle, first_order_network, save_network
from kinvar.cli import _stats_json, main
from kinvar.scenario import load_scenario, parse_scenario, run_scenario
from kinvar.trajectory import IntegratorStats


def _scenario(**overrides) -> dict:
    scn = {
        "network": {
            "species": ["A", "B"],
            "reactions": [
                {
                    "reactants": [["A", 1]],
                    "products": [["B", 1]],
                    "k_forward": 2.0,
                    "k_backward": 1.0,
                }
            ],
        },
        "experiment": {"a": "A", "b": "B"},
        "grid": {"t_max": 4.0, "points": 25, "spacing": "geometric"},
        "invariants": [{"kind": "linear_ratio", "pair": ["A", "B"]}],
    }
    scn.update(overrides)
    return scn


def _rxn(reactant, product, kf, kb):
    return {"reactants": [reactant], "products": [product],
            "k_forward": kf, "k_backward": kb}


def _write_scenario(tmp_path, name="scn.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_scenario(**overrides)))
    return path


def _butene_scenario(tmp_path):
    net_path = tmp_path / "butene.json"
    save_network(butene_cycle(), net_path)
    scn = {
        "network_file": "butene.json",
        "experiment": {"a": "cis-2-butene", "b": "1-butene"},
        "grid": {"t_max": 2.0, "points": 30, "spacing": "geometric"},
        "invariants": [
            {"kind": "linear_ratio", "pair": ["cis-2-butene", "1-butene"]}
        ],
    }
    path = tmp_path / "butene_scn.json"
    path.write_text(json.dumps(scn))
    return path


def test_simulate_writes_csvs_and_summary(tmp_path, capsys):
    cfg = _write_scenario(tmp_path)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = tmp_path / "out"
    header = (out / "from_A.csv").read_text().splitlines()[0]
    assert header == "t,A,B"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["engine"] == "linear"
    assert summary["conserved_total"] == 1.0
    assert "integrator" not in summary


def test_simulate_writes_the_integrator_statistics(tmp_path):
    cfg = _write_scenario(tmp_path, engine="nonlinear")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "summary.json").read_text()
    summary = json.loads(text)
    _, _, _, dual = run_scenario(load_scenario(cfg))
    assert summary["integrator"] == {
        "from_A": dataclasses.asdict(dual.from_a.stats),
        "from_B": dataclasses.asdict(dual.from_b.stats)}
    assert summary["integrator"].keys() == summary["files"].keys()
    # a run without an accepted step has no smallest step: null, never Infinity
    assert _stats_json(IntegratorStats(0, 0, 0, math.inf, 0.0))["min_step"] is None


def test_simulate_oracle_cross_check(tmp_path):
    cfg = _write_scenario(tmp_path)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--oracle"])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["oracle"]["reference_engine"] == "nonlinear"
    assert summary["oracle"]["max_abs_diff"] < 1e-8


def test_dump_config_round_trips(tmp_path, capsys):
    cfg = _write_scenario(tmp_path)
    rc = main(["simulate", "--config", str(cfg), "--dump-config"])
    assert rc == 0
    dumped = json.loads(capsys.readouterr().out)
    original = parse_scenario(json.loads(cfg.read_text()), tmp_path)
    assert parse_scenario(dumped, tmp_path) == original


def test_grid_flag_overrides_scenario(tmp_path):
    cfg = _write_scenario(tmp_path)
    out = tmp_path / "g"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--grid", "1.0,10,linear"])
    assert rc == 0
    rows = (out / "from_A.csv").read_text().splitlines()
    assert len(rows) == 1 + 11  # header plus t = 0 and 10 linear points


def test_invariants_verdict_pass(tmp_path, capsys):
    cfg = _write_scenario(tmp_path)
    rc = main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "i")])
    assert rc == 0
    assert "pass" in capsys.readouterr().out
    payload = json.loads((tmp_path / "i" / "invariants.json").read_text())
    assert payload["reports"][0]["verdict"] is True


def test_invariants_unbalanced_requires_tol(tmp_path, capsys):
    cfg = _butene_scenario(tmp_path)
    rc = main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "i")])
    assert rc == 2
    assert "--tol" in capsys.readouterr().err


def test_invariants_unbalanced_with_loose_tol(tmp_path):
    cfg = _butene_scenario(tmp_path)
    rc = main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "i"),
               "--tol", "5e-3"])
    assert rc == 0


def test_invariants_unbalanced_tight_tol_fails(tmp_path):
    cfg = _butene_scenario(tmp_path)
    rc = main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "i"),
               "--tol", "1e-8"])
    assert rc == 1


def test_invariants_balance_flag_restores_invariant(tmp_path):
    cfg = _butene_scenario(tmp_path)
    rc = main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "i"),
               "--balance"])
    assert rc == 0
    payload = json.loads((tmp_path / "i" / "invariants.json").read_text())
    assert payload["reports"][0]["max_rel_deviation"] < 1e-8


@pytest.mark.parametrize("pair", [["cis-2-butene", "trans-2-butene"],
                                  ["1-butene", "cis-2-butene"]])
def test_invariant_pair_must_be_the_experiment_pair(tmp_path, capsys, pair):
    # the runs are primed from the experiment pair, so no other pair's ratio
    # can be read from them
    cfg = _butene_scenario(tmp_path)
    scn = json.loads(cfg.read_text())
    scn["invariants"][0]["pair"] = pair
    cfg.write_text(json.dumps(scn))
    rc = main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "i"),
               "--balance"])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(pair) in err
    assert "['cis-2-butene', '1-butene']" in err
    assert not (tmp_path / "i").exists()


def test_prove_verified_chain(tmp_path, capsys):
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 3.0, 0.0)]
    )
    path = tmp_path / "chain.json"
    save_network(net, path)
    rc = main(["prove", "--config", str(path), "--pair", "A,B",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "proof.json").read_text())
    assert payload["verified"] is True
    assert payload["K_num"] == 2 and payload["K_den"] == 1


def test_prove_unbalanced_fails_and_balance_repairs(tmp_path, capsys):
    path = tmp_path / "butene.json"
    save_network(butene_cycle(), path)
    rc = main(["prove", "--config", str(path), "--pair",
               "cis-2-butene,1-butene", "--out", str(tmp_path / "raw")])
    assert rc == 1
    assert "cycle" in capsys.readouterr().out
    rc = main(["prove", "--config", str(path), "--pair",
               "cis-2-butene,1-butene", "--balance",
               "--out", str(tmp_path / "bal")])
    assert rc == 0


def test_prove_all_pairs_matches_each_pair(tmp_path, capsys):
    path = tmp_path / "butene.json"
    save_network(butene_cycle(), path)
    assert main(["prove", "--config", str(path), "--balance", "--all-pairs",
                 "--out", str(tmp_path / "all")]) == 0
    proofs = json.loads((tmp_path / "all" / "proofs.json").read_text())
    assert proofs["balanced"] is True and proofs["certificate"] is None
    names = list(butene_cycle().names)
    assert [p["pair"] for p in proofs["pairs"]] == [names[:2], names[::2], names[1:]]
    for entry in proofs["pairs"]:
        out = tmp_path / "-".join(entry["pair"])
        assert main(["prove", "--config", str(path), "--balance", "--pair",
                     ",".join(entry["pair"]), "--out", str(out)]) == 0
        proof = json.loads((out / "proof.json").read_text())
        assert proof["certificate"] is None
        assert (entry["K_num"], entry["K_den"]) == (proof["K_num"], proof["K_den"])
        # K = h_b / h_a
        (pa, qa), (pb, qb) = (proofs["potentials"][x] for x in entry["pair"])
        assert Fraction(entry["K_num"], entry["K_den"]) == Fraction(pb * qa, qb * pa)
    assert proofs["potentials"][names[0]] == [1, 1]


def test_every_proofs_json_pair_has_the_pair_proofs_K(tmp_path, capsys):
    rng = np.random.default_rng(24)
    nets = {f"seeded-{n}": balanced_integer_network(rng, n)[0] for n in (4, 12)}
    nets.update(butene=butene_cycle(), chain=first_order_network(
        list("ABC"), [("A", "B", 2.0, 1.0), ("B", "C", 0.5, 0.0)]))
    checked = 0
    for name, net in nets.items():
        path = tmp_path / f"{name}.json"
        save_network(net, path)
        for balance in ([], ["--balance"]):
            out = tmp_path / "out"
            main(["prove", "--config", str(path), "--all-pairs", "--out", str(out)] + balance)
            proofs = {}
            for p in json.loads((out / "proofs.json").read_text())["pairs"]:
                proofs[tuple(p["pair"])] = Fraction(p["K_num"], p["K_den"])
                proofs[tuple(p["pair"][::-1])] = 1 / proofs[tuple(p["pair"])]
            for pair in proofs:
                assert main(["prove", "--config", str(path), "--pair", ",".join(pair),
                             "--out", str(out)] + balance) == 0
                proof = json.loads((out / "proof.json").read_text())
                assert Fraction(proof["K_num"], proof["K_den"]) == proofs[pair]
                checked += 1
    # every ordered pair of the seeded networks, raw and balanced, and of
    # balanced butene; raw butene and the chain fail the certificate
    assert checked == 2 * (4 * 3 + 12 * 11) + 3 * 2
    capsys.readouterr()


def test_prove_all_pairs_fails_with_the_certificate_reason(tmp_path, capsys):
    path = tmp_path / "butene.json"
    save_network(butene_cycle(), path)
    assert main(["prove", "--config", str(path), "--all-pairs",
                 "--out", str(tmp_path)]) == 1
    reason = "rate products around 1 -> 2 -> 0 -> 1 differ"
    assert capsys.readouterr().out == f"NOT verified: {reason}\n"
    proofs = json.loads((tmp_path / "proofs.json").read_text())
    assert proofs == {"balanced": False, "certificate": reason, "potentials": None,
                      "pairs": []}
    # the single-pair proof names the same reason and expands cofactors
    assert main(["prove", "--config", str(path), "--pair", "cis-2-butene,1-butene",
                 "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "proof.json").read_text())["certificate"] == reason


@pytest.mark.parametrize("flags", [[], ["--pair", "A,B", "--all-pairs"],
                                   ["--balance"], ["--balance", "--all-pairs", "--pair", "A,B"]])
def test_prove_pair_flag_misuse_exits_2_in_one_line(tmp_path, capsys, flags):
    path = tmp_path / "net.json"
    save_network(first_order_network(["A", "B"], [("A", "B", 2.0, 1.0)]), path)
    assert main(["prove", "--config", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: prove takes exactly one of --pair A,B and --all-pairs\n"
    assert not (tmp_path / "o").exists()


def test_prove_unknown_species(tmp_path, capsys):
    path = tmp_path / "butene.json"
    save_network(butene_cycle(), path)
    assert main(["prove", "--config", str(path), "--pair", "cis-2-butene,X"]) == 2


def test_fig1_is_deterministic(tmp_path):
    rc = main(["fig1", "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(["fig1", "--out", str(tmp_path / "b")])
    assert rc == 0
    first = (tmp_path / "a" / "fig1.csv").read_bytes()
    second = (tmp_path / "b" / "fig1.csv").read_bytes()
    assert first == second
    lines = first.decode().splitlines()
    assert lines[0] == "t,BA_over_AA,BB_over_AB,BA_over_AB"
    assert len(lines) == 401


def test_balance_command(tmp_path, capsys):
    path = tmp_path / "butene.json"
    save_network(butene_cycle(), path)
    rc = main(["balance", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "balance_report.json").read_text())
    assert report["max_mismatch_before"] > 1e-4
    assert report["max_mismatch_after"] < 1e-12
    assert (tmp_path / "balanced_network.json").exists()


def test_balance_report_counts_forward_rescaling(tmp_path, capsys):
    # The basis cycle C -> B -> A -> C closes on the non-tree edge C -> B, so
    # balancing rescales the merged k(B -> C), to which the B -> C reaction
    # contributes its k_forward. In the first network a C -> B reaction
    # shares that factor on its k_backward; in the second it is irreversible
    # and the k_forward is the only rate that changes.
    shared = [("A", "B", 1.0, 1.0), ("A", "C", 1.0, 1.0), ("C", "B", 2.0, 1.0),
              ("B", "C", 1.0, 1.0)]
    forward_only = shared[:2] + [("C", "B", 2.0, 0.0), ("B", "C", 1.0, 1.0)]
    expected = [(shared, (2.0, 1.5), (1.5, 1.0), 0.5),
                (forward_only, (2.0, 0.0), (3.0, 1.0), 2.0)]
    for k, (edges, c_to_b, b_to_c, change) in enumerate(expected):
        path = tmp_path / f"net{k}.json"
        save_network(first_order_network(list("ABC"), edges), path)
        out = tmp_path / f"out{k}"
        assert main(["balance", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "balance_report.json").read_text())
        balanced = json.loads((out / "balanced_network.json").read_text())
        rates = [(r["k_forward"], r["k_backward"]) for r in balanced["reactions"]]
        assert rates == [(1.0, 1.0), (1.0, 1.0), c_to_b, b_to_c]
        assert report["max_relative_change"] == change


@pytest.mark.parametrize("field, value", [("k_backward", float("nan")),
                                          ("k_forward", float("inf"))])
def test_non_finite_rate_constant_exits_2(tmp_path, capsys, field, value):
    network = {"species": ["A", "B"],
               "reactions": [{"reactants": [["A", 1]], "products": [["B", 1]],
                              "k_forward": 2.0, "k_backward": 1.0, field: value}]}
    cfg = _write_scenario(tmp_path, network=network)
    assert main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 2
    assert "reaction 0: non-finite rate constant" in capsys.readouterr().err


def test_simulate_balance_reports_mismatch_before_and_after(tmp_path, capsys):
    cfg = _butene_scenario(tmp_path)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s"),
               "--balance"])
    assert rc == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["balance"] == "enforce"
    assert 9e-4 < summary["cycle_max_mismatch"] < 1e-3
    assert summary["cycle_max_mismatch_after"] <= 1e-15


@pytest.mark.parametrize(
    "mutation, message_part",
    [
        ({"grid": [1, 2]}, "grid must be an object"),
        ({"invariants": {"kind": "linear_ratio", "pair": ["A", "B"]}},
         "invariants must be a list"),
        ({"invariants": ["linear_ratio"]}, "each invariant must be an object"),
        ({"network": {"species": "AB", "reactions": []}},
         "species must be a list of names"),
        ({"network": {"species": ["A", "B"], "reactions": 3}},
         "reactions must be a list"),
        ({"experiment": {"a": "A", "b": "B", "a0": [1.0]}},
         "experiment a0 must be a number, got [1.0]"),
        ({"grid": {"t_max": [4.0], "points": 25}}, "grid t_max must be a number"),
        ({"network": {"species": ["A", "B"],
                      "reactions": [{"reactants": [["A", 1]], "products": [["B", 1]],
                                     "k_forward": [2.0], "k_backward": 1.0}]}},
         "reaction 0: k_forward must be a number"),
        ({"invariants": [{"kind": "linear_ratio", "pair": ["A", "B"],
                          "expected_K": [2.0]}]},
         "invariant expected_K must be a number"),
        ({"network": {"species": ["A", "B"],
                      "reactions": [{"reactants": 1, "products": [["B", 1]],
                                     "k_forward": 2.0}]}},
         "reactants must be a list of [name, coefficient] pairs"),
        ({"invariants": [{"kind": "linear_ratoi", "pair": ["A", "B"]}]},
         "unknown invariant kind 'linear_ratoi'; valid kinds: linear_ratio, "
         "nonlinear_2A_B, nonlinear_2A_2B, path_product"),
        ({"invariants": [{"pair": ["A", "B"]}]}, "invariant missing field 'kind'"),
    ],
)
def test_malformed_scenario_types_exit_2(tmp_path, capsys, mutation, message_part):
    cfg = _write_scenario(tmp_path, **mutation)
    for command in ("simulate", "invariants"):
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message_part in err
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid, flag, message", [
    ({"t_max": math.inf, "points": 25}, None,
     "grid t_max must be positive and finite, got inf"),
    ({"t_max": math.nan, "points": 25}, None,
     "grid t_max must be positive and finite, got nan"),
    (None, "inf,25,geometric", "grid t_max must be positive and finite, got inf"),
    ({"t_max": 4.0, "points": 1e9}, None,
     "grid points must be between 2 and 100000, got 1000000000"),
    (None, "4,1000000000,linear",
     "grid points must be between 2 and 100000, got 1000000000"),
    # an integer field is never truncated, and a bool is not a count
    ({"t_max": 4.0, "points": 25.7}, None, "grid points must be an integer, got 25.7"),
    ({"t_max": 4.0, "points": True}, None, "grid points must be an integer, got True"),
    (None, "4,25.7,linear", "--grid points must be an integer, got 25.7"),
])
def test_grid_out_of_range_exits_2(tmp_path, capsys, grid, flag, message):
    # checked before any time is computed: 1e9 points would ask for 7.45 GiB
    cfg = _write_scenario(tmp_path, **({} if grid is None else {"grid": grid}))
    for command in ("simulate", "invariants"):
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv + (["--grid", flag] if flag else [])) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, message", [
    ("1,abc,linear", "--grid points must be a number, got 'abc'"),
    ("1,nan,linear", "--grid points must be a number, got 'nan'"),
    ("1,1e400,linear", "--grid points must be a number, got '1e400'"),
    ("abc,10,linear", "--grid t_max must be a number, got 'abc'"),
])
def test_malformed_grid_flag_names_the_part(tmp_path, capsys, flag, message):
    cfg = _write_scenario(tmp_path)
    for argv in (["simulate", "--config", str(cfg)], ["fig1"]):
        assert main(argv + ["--out", str(tmp_path / "o"), "--grid", flag]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_integral_grid_flag_text_counts_through_its_float(tmp_path):
    # "1e3" in a scenario file is the number 1000, and so it is in --grid
    cfg = _write_scenario(tmp_path)
    for argv in (["simulate", "--config", str(cfg)], ["invariants", "--config", str(cfg)],
                 ["fig1"]):
        outs = []
        for points in ("1e3", "1000"):
            out = tmp_path / f"{argv[0]}-{points}"
            assert main(argv + ["--out", str(out), "--grid", f"1,{points},linear"]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]


@pytest.mark.parametrize("tol, code", [
    ("nan", 2), ("-1", 2), ("inf", 2), ("0", 1), ("1e-3", 0),
])
def test_tol_must_be_finite_and_nonnegative(tmp_path, capsys, tol, code):
    # butene deviates by about 2e-4 from its path constant
    cfg = _butene_scenario(tmp_path)
    out = tmp_path / "i"
    assert main(["invariants", "--config", str(cfg), "--out", str(out), "--tol", tol]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == f"error: --tol must be finite and nonnegative, got {float(tol)!r}\n"
        assert not out.exists()
    else:
        assert err == ""
        assert json.loads((out / "invariants.json").read_text())["tol"] == float(tol)


def test_overflowing_equilibrium_constant_exits_2(tmp_path, capsys):
    # K = 2 / 5e-324 lies beyond the largest float
    network = {"species": ["A", "B"],
               "reactions": [{"reactants": [["A", 1]], "products": [["B", 1]],
                              "k_forward": 2.0, "k_backward": 5e-324}]}
    cfg = _write_scenario(tmp_path, network=network)
    assert main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "error: equilibrium constant of 'A' -> 'B' overflows a float\n"


@pytest.mark.parametrize("command", ["simulate", "invariants"])
def test_subnormal_expected_K_exits_2(tmp_path, capsys, command):
    # 5e-324 is positive, but the ratios divided by it overflow
    cfg = _write_scenario(tmp_path, invariants=[
        {"kind": "linear_ratio", "pair": ["A", "B"], "expected_K": 5e-324}])
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: invariant expected_K 5e-324 is below the smallest normal float "
        "2.2250738585072014e-308\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [("a0", math.inf), ("a0", -math.inf),
                                          ("b0", math.nan)])
def test_non_finite_priming_amount_exits_2(tmp_path, capsys, field, value):
    # the linear engine never reads the amounts, so only the parser sees them
    cfg = _write_scenario(tmp_path, experiment={"a": "A", "b": "B", field: value})
    assert main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: experiment {field} must be finite, got {value!r}\n"


# A drains into B and C at 1e308 each: the diagonal entry -2e308 of the
# rate matrix overflows to -inf
_OVERFLOWING_OUTFLOW = {"species": ["A", "B", "C"],
                        "reactions": [_rxn(["A", 1], ["B", 1], 1e308, 1.0),
                                      _rxn(["A", 1], ["C", 1], 1e308, 1.0)]}


@pytest.mark.parametrize("command", ["prove", "invariants"])
def test_overflowing_total_rate_exits_2(tmp_path, capsys, command):
    if command == "prove":
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(_OVERFLOWING_OUTFLOW))
        argv = ["prove", "--pair", "A,B"]
    else:
        cfg = _write_scenario(tmp_path, network=_OVERFLOWING_OUTFLOW)
        argv = ["invariants", "--tol", "1"]
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "error: the total rate out of 'A' is not finite (-inf)\n"
    assert not (tmp_path / "o").exists()



# balancing the basis cycle B -> C -> A -> B rescales k(C -> B) by the cycle's
# product along over against; every input rate is finite, but the rescaled
# one overflows, or underflows to 0 (which would make the step irreversible)
@pytest.mark.parametrize("rates, moved", [
    ([(2.0, 5e-324), (3.0, 0.5), (1.0, 4.0)], "0.5 to inf"),
    ([(1e300, 1e-300)] * 3, "1e-300 to inf"),
    ([(1e-300, 1e300)] * 3, "1e+300 to 0.0"),
], ids=["overflow", "product-underflow", "underflow"])
def test_balance_rescaling_past_the_float_range_exits_2(tmp_path, capsys, rates, moved):
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps({"species": ["A", "B", "C"], "reactions": [
        _rxn([u, 1], [v, 1], kf, kb) for (u, v), (kf, kb) in zip(("AB", "BC", "CA"), rates)]}))
    assert main(["balance", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: balancing the cycle B -> C -> A -> B takes k(C -> B) = {moved}, "
        "outside the float range\n")
    assert not (tmp_path / "o").exists()
    # the exact route balances the same rates in rationals
    assert main(["prove", "--balance", "--pair", "A,B", "--config", str(cfg),
                 "--out", str(tmp_path / "p")]) == 0

def test_network_file_must_be_a_path_exits_2(tmp_path, capsys):
    cfg = _write_scenario(tmp_path)
    scn = json.loads(cfg.read_text())
    del scn["network"]
    scn["network_file"] = 3
    cfg.write_text(json.dumps(scn))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: network_file must be a path string\n"


def test_overflowing_rate_exits_3(tmp_path, capsys):
    # k_forward = 1e308 overflows the initial rate of 2A <=> B, which leaves
    # the starting-step heuristic no positive step
    network = {"species": ["A", "B"],
               "reactions": [{"reactants": [["A", 2]], "products": [["B", 1]],
                              "k_forward": 1e308, "k_backward": 1.0}]}
    cfg = _write_scenario(tmp_path, network=network, invariants=[])
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert "step size underflow (at t=0)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mutation, message_part",
    [
        ({"extra_field": 1}, "unknown"),
        ({"experiment": {"a": "A", "b": "A"}}, "distinct"),
        ({"experiment": {"a": "A", "b": "X"}}, "not in"),
        ({"engine": "quantum"}, "engine"),
        ({"grid": {"t_max": -1.0, "points": 10, "spacing": "linear"}}, "t_max"),
    ],
)
def test_bad_scenarios_exit_2(tmp_path, capsys, mutation, message_part):
    cfg = _write_scenario(tmp_path, **mutation)
    rc = main(["invariants", "--config", str(cfg)])
    assert rc == 2
    assert message_part in capsys.readouterr().err


def test_engine_mismatch_exits_2(tmp_path, capsys):
    scn = {
        "network": {
            "species": ["A", "B"],
            "reactions": [
                {
                    "reactants": [["A", 2]],
                    "products": [["B", 1]],
                    "k_forward": 3.0,
                    "k_backward": 1.0,
                }
            ],
        },
        "experiment": {"a": "A", "b": "B"},
        "grid": {"t_max": 2.0, "points": 10, "spacing": "linear"},
        "engine": "linear",
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "first-order" in capsys.readouterr().err


def test_closed_form_engine_rejects_odd_topology(tmp_path, capsys):
    cfg = _write_scenario(
        tmp_path,
        network={
            "species": ["A", "B", "C"],
            "reactions": [
                {"reactants": [["A", 1]], "products": [["B", 1]],
                 "k_forward": 1.0, "k_backward": 1.0},
                {"reactants": [["B", 1]], "products": [["C", 1]],
                 "k_forward": 1.0, "k_backward": 1.0},
            ],
        },
        invariants=[],
    )
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
               "--engine", "closed-form"])
    assert rc == 2


_CLOSED_FORM_SHAPES = {
    "A<=>B": (["A", "B"], [_rxn(["A", 1], ["B", 1], 2.0, 1.0)]),
    # the irreversible step listed first: the shape is read off the reactions
    "A<=>B->C": (["A", "B", "C"], [_rxn(["B", 1], ["C", 1], 3.0, 0.0),
                                   _rxn(["A", 1], ["B", 1], 2.0, 1.0)]),
    "2A<=>B": (["A", "B"], [_rxn(["A", 2], ["B", 1], 3.0, 1.0)]),
    "2A<=>2B": (["A", "B"], [_rxn(["A", 2], ["B", 2], 3.0, 1.0)]),
}


@pytest.mark.parametrize("shape", list(_CLOSED_FORM_SHAPES))
def test_closed_form_engine_matches_oracle_on_every_shape(tmp_path, shape):
    species, reactions = _CLOSED_FORM_SHAPES[shape]
    cfg = _write_scenario(tmp_path, invariants=[],
                          network={"species": species, "reactions": reactions})
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--engine", "closed-form", "--oracle"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["engine"] == "closed-form"
    assert summary["conserved_total"] == 1.0
    assert summary["oracle"]["max_abs_diff"] < 1e-8
    header = (out / "from_A.csv").read_text().splitlines()[0]
    assert header == "t," + ",".join(species)


def test_closed_form_engine_rejects_reversed_pair(tmp_path, capsys):
    species, reactions = _CLOSED_FORM_SHAPES["2A<=>B"]
    cfg = _write_scenario(tmp_path, invariants=[], experiment={"a": "B", "b": "A"},
                          network={"species": species, "reactions": reactions})
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--engine", "closed-form"])
    assert rc == 2
    assert "reactant -> product orientation" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_mismatched_explicit_amounts_exit_2_before_simulation(tmp_path, capsys):
    cfg = _write_scenario(
        tmp_path,
        network={
            "species": ["A", "B"],
            "reactions": [{"reactants": [["A", 2]], "products": [["B", 1]],
                           "k_forward": 3.0, "k_backward": 1.0}],
        },
        experiment={"a": "A", "b": "B", "a0": 1.0, "b0": 1.0},
        invariants=[],
    )
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    # w = (1, 2): one unit of A carries 1, one unit of B carries 2
    assert "w.c = 1 from 'A' but 2 from 'B'" in err
    assert not out.exists()


_A_2B = {"species": ["A", "B"], "reactions": [_rxn(["A", 1], ["B", 2], 3.0, 1.0)]}


def test_oracle_refuses_an_uncovered_shape_before_writing(tmp_path, capsys):
    # no closed form covers A <=> 2B, so the reference run fails; it must
    # fail before either trajectory is written
    cfg = _write_scenario(tmp_path, invariants=[], network=_A_2B)
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--oracle"])
    assert rc == 2
    assert "does not cover this network shape" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["linear_ratio", "path_product"])
def test_first_order_kind_on_second_order_network_exits_2(tmp_path, capsys, kind):
    cfg = _write_scenario(tmp_path, network=_A_2B,
                          invariants=[{"kind": kind, "pair": ["A", "B"]}])
    rc = main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "i"),
               "--tol", "1e-3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"invariant kind {kind!r} needs an all-first-order network, " \
           "not a general-mass-action one" in err
    assert not (tmp_path / "i").exists()


def _modules_after(argv) -> set:
    """Names in ``sys.modules`` after ``kinvar <argv>`` runs in a fresh process."""
    script = ("import sys\n"
              "from kinvar.cli import main\n"
              "rc = main(sys.argv[1:])\n"
              "print(' '.join(sys.modules))\n"
              "sys.exit(rc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_mass_action_simulate_never_imports_scipy_optimize(tmp_path):
    # conservation weights of 2A <=> B come from the coefficient tree, so the
    # linear program's import stays out of the process
    species, reactions = _CLOSED_FORM_SHAPES["2A<=>B"]
    cfg = _write_scenario(tmp_path, invariants=[],
                          network={"species": species, "reactions": reactions})
    modules = _modules_after(["simulate", "--config", str(cfg),
                              "--out", str(tmp_path / "o"), "--oracle"])
    assert "scipy.optimize" not in modules


# A <=> B draining into an equal-rate irreversible chain B -> C -> D -> E:
# C and D share the eigenvalue -1 without two eigenvectors, so the spectrum
# is defective and propagation takes the expm fallback; A and B are joined
# only by their own reversible step, so B_A / A_B is K = 2 throughout
_DEFECTIVE_CHAIN = {"species": ["A", "B", "C", "D", "E"],
                    "reactions": [_rxn(["A", 1], ["B", 1], 2.0, 1.0),
                                  _rxn(["B", 1], ["C", 1], 1.0, 0.0),
                                  _rxn(["C", 1], ["D", 1], 1.0, 0.0),
                                  _rxn(["D", 1], ["E", 1], 1.0, 0.0)]}


def test_defective_chain_scenario_takes_the_expm_fallback(tmp_path, caplog):
    cfg = _write_scenario(tmp_path, network=_DEFECTIVE_CHAIN)
    with caplog.at_level(logging.DEBUG, logger="kinvar.linear"):
        assert main(["invariants", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
    assert [r.getMessage().split(":")[0] for r in caplog.records
            if r.name == "kinvar.linear"] == ["propagator expm"]


@pytest.mark.parametrize("field, command, code", [
    ("k_forward", ["simulate"], 0), ("k_forward", ["invariants", "--tol", "1e-3"], 3),
    ("k_backward", ["simulate"], 0), ("k_backward", ["invariants", "--tol", "1e-3"], 0)],
    ids=["forward-simulate", "forward-invariants", "backward-simulate", "backward-invariants"])
def test_defective_chain_at_the_float_limit_runs_unwarned(tmp_path, field, command, code):
    # a rate of 1e308 overflows the norm of the rate matrix; the eig path is
    # still rejected as defective and the exit code is unchanged
    network = json.loads(json.dumps(_DEFECTIVE_CHAIN))
    network["reactions"][0][field] = 1e308
    cfg = _write_scenario(tmp_path, network=network)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", ["invariants", "prove", "invariants-defective",
                                     "simulate-defective"])
def test_first_order_commands_never_import_scipy(tmp_path, command):
    # a balanced first-order network takes the symmetric eigen path, a
    # defective one the numpy-only expm fallback, and the proof runs on
    # integers: none of them needs any part of scipy
    if command == "prove":
        save_network(butene_cycle(), tmp_path / "butene.json")
        argv = ["prove", "--balance", "--config", str(tmp_path / "butene.json"),
                "--pair", "cis-2-butene,1-butene"]
    elif command.endswith("-defective"):
        argv = [command.split("-")[0], "--config",
                str(_write_scenario(tmp_path, network=_DEFECTIVE_CHAIN))]
    else:
        argv = ["invariants", "--config", str(_write_scenario(tmp_path))]
    modules = _modules_after(argv + ["--out", str(tmp_path / "o")])
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


@pytest.mark.parametrize("command", ["prove", "prove-balance", "prove-all-pairs",
                                     "prove-balance-all-pairs", "balance"])
def test_network_commands_never_import_numpy(tmp_path, command):
    # the proof runs on exact integers and balancing on float rate maps
    net = {"prove": first_order_network(["A", "B", "C"], [("A", "B", 2.0, 1.0),
                                                          ("B", "C", 3.0, 0.0)]),
           "prove-all-pairs": first_order_network(["A", "B", "C"], [("A", "B", 2.0, 1.0),
                                                                    ("B", "C", 3.0, 4.0)]),
           }.get(command, butene_cycle())
    save_network(net, tmp_path / "net.json")
    argv = {"prove": ["prove", "--pair", "A,B"],
            "prove-balance": ["prove", "--balance", "--pair", "cis-2-butene,1-butene"],
            "prove-all-pairs": ["prove", "--all-pairs"],
            "prove-balance-all-pairs": ["prove", "--balance", "--all-pairs"],
            "balance": ["balance"]}[command]
    modules = _modules_after(argv + ["--config", str(tmp_path / "net.json"),
                                     "--out", str(tmp_path / "o")])
    assert "numpy" not in modules


# 2A <=> B scenarios on which the Dormand-Prince run fails
_DP5_FAULTS = [
    # the error norm turns NaN on a step that leaves grid rows unfilled: the
    # step controller used to accept it and loop forever on h = NaN
    (9.05281364985555e+194, 2.5297824747816608e+213, 3.397405482411133e-156,
     "numerical failure: the error estimate is NaN (at t="),
    # a finite scaled derivative squares past the float range in the
    # starting-step heuristic, where float ** raises OverflowError
    (1e200, 1.0, None,
     "numerical failure: the step-size control overflows the float range (at t=0)"),
]


def _dp5_fault_scenario(k_forward, k_backward, a0):
    experiment = {"a": "A", "b": "B"}
    if a0 is not None:
        experiment["a0"] = a0
    return _scenario(invariants=[], experiment=experiment,
                     network={"species": ["A", "B"],
                              "reactions": [_rxn(["A", 2], ["B", 1], k_forward, k_backward)]},
                     grid={"t_max": 1, "points": 50, "spacing": "geometric"})


# one-field mutations of a 2A <=> B, of the defective first-order scenario
# and of the two DP5 faults (with the closed-form invariant, so that
# ``invariants`` runs the integrator too); the exit-code contract is 0 ok,
# 1 verdict failed, 2 bad input, 3 numerical failure, and never an uncaught
# exception (a traceback, exit 1)
_DIMER_INVARIANTS = [{"kind": "nonlinear_2A_B", "pair": ["A", "B"]}]
_FUZZ_BASES = [
    _scenario(network=dict(zip(("species", "reactions"), _CLOSED_FORM_SHAPES["2A<=>B"])),
              invariants=_DIMER_INVARIANTS),
    _scenario(network=_DEFECTIVE_CHAIN),
    *({**_dp5_fault_scenario(*fault[:3]), "invariants": _DIMER_INVARIANTS}
      for fault in _DP5_FAULTS),
]
_FUZZ_FIELDS = [
    ("network",), ("network", "species"), ("network", "reactions"),
    ("network", "reactions", 0), ("network", "reactions", 0, "reactants"),
    ("network", "reactions", 0, "products"), ("network", "reactions", 0, "k_forward"),
    ("network", "reactions", 0, "k_backward"),
    ("experiment",), ("experiment", "a"), ("experiment", "a0"), ("experiment", "b0"),
    ("grid",), ("grid", "t_max"), ("grid", "points"), ("grid", "spacing"),
    ("invariants",), ("invariants", 0), ("invariants", 0, "kind"),
    ("invariants", 0, "pair"), ("invariants", 0, "expected_K"),
    ("engine",), ("balance",),
]
_MISSING = object()
# wrong types, a missing key, non-finite and extreme numbers, empty containers
_FUZZ_VALUES = [_MISSING, None, True, "x", 3, [], {}, [1.0], ["A"], {"a": 1},
                math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 1e-300, 0, -1.0,
                10**400]


def _mutated(base: dict, path: tuple, value) -> dict:
    scn = json.loads(json.dumps(base))
    node = scn
    for key in path[:-1]:
        node = node[key]
    if value is not _MISSING:
        node[path[-1]] = value
    elif isinstance(node, dict):
        node.pop(path[-1], None)
    else:
        del node[path[-1]]
    return scn


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_field_mutations_keep_the_exit_code_contract(tmp_path, capsys):
    cfg = tmp_path / "scn.json"
    broken = []
    for base, path, value, command in itertools.product(
            _FUZZ_BASES, _FUZZ_FIELDS, _FUZZ_VALUES,
            [["simulate"], ["invariants", "--tol", "1e-3"]]):
        # the explicit integrator takes stability-limited steps, so on 2A <=> B
        # a horizon of 1e6 already runs for minutes (an implicit engine is the
        # planned fix): horizons above 1e3 are left out of the nonlinear bases
        if (base is not _FUZZ_BASES[1] and path == ("grid", "t_max")
                and isinstance(value, float) and 1e3 < value < math.inf):
            continue
        cfg.write_text(json.dumps(_mutated(base, path, value)))
        case = (_FUZZ_BASES.index(base), path, value, command[0])
        try:
            rc = main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        except Exception as exc:  # every escape is a finding
            broken.append((*case, repr(exc)))
            continue
        if rc not in (0, 1, 2, 3) or "Traceback" in capsys.readouterr().err:
            broken.append((*case, rc))
    assert broken == []


# every one-field mutation of two network files under the commands that read
# them: an unbalanced three-cycle and the overflowing outflow; the contract is
# the same, and the 1200 runs take about a second
_NETWORK_FUZZ_BASES = [
    {"species": ["A", "B", "C"],
     "reactions": [_rxn(["A", 1], ["B", 1], 2.0, 1.0), _rxn(["B", 1], ["C", 1], 3.0, 0.5),
                   _rxn(["C", 1], ["A", 1], 1.0, 4.0)]},
    _OVERFLOWING_OUTFLOW,
]
_NETWORK_FUZZ_FIELDS = [
    ("network",), ("network", "species"), ("network", "reactions"),
    ("network", "reactions", 0), ("network", "reactions", 0, "reactants"),
    ("network", "reactions", 0, "products"), ("network", "reactions", 0, "k_forward"),
    ("network", "reactions", 0, "k_backward"), ("network", "reactions", 1, "k_forward"),
    ("network", "reactions", 1, "k_backward"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_network_file_mutations_keep_the_exit_code_contract(tmp_path, capsys):
    cfg = tmp_path / "net.json"
    broken = []
    for base, path, value, command in itertools.product(
            _NETWORK_FUZZ_BASES, _NETWORK_FUZZ_FIELDS, _FUZZ_VALUES,
            [["prove", "--pair", "A,B"], ["prove", "--balance", "--pair", "B,C"],
             ["prove", "--all-pairs"], ["prove", "--balance", "--all-pairs"],
             ["balance"]]):
        cfg.write_text(json.dumps(_mutated({"network": base}, path, value).get("network")))
        case = (_NETWORK_FUZZ_BASES.index(base), path, value, command[:2])
        try:
            rc = main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        except Exception as exc:  # every escape is a finding
            broken.append((*case, repr(exc)))
            continue
        if rc not in (0, 1, 2, 3):
            broken.append((*case, rc))
    capsys.readouterr()
    assert broken == []


# two rate fields of reactions 0 and 1 at once, each set to one of the
# numeric fuzz values, under one command of each kind that reads them
_RATE_FIELDS = [("network", "reactions", r, k)
                for r in (0, 1) for k in ("k_forward", "k_backward")]
_NUMERIC_FUZZ_VALUES = [v for v in _FUZZ_VALUES
                        if isinstance(v, (int, float)) and not isinstance(v, bool)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_two_rate_field_mutations_keep_the_exit_code_contract(tmp_path, capsys):
    cfg = tmp_path / "net.json"
    broken = []
    for base, fields, values, command in itertools.product(
            _NETWORK_FUZZ_BASES, itertools.combinations(_RATE_FIELDS, 2),
            itertools.product(_NUMERIC_FUZZ_VALUES, repeat=2),
            [["prove", "--pair", "A,B"], ["prove", "--balance", "--all-pairs"], ["balance"]]):
        scn = {"network": base}
        for path, value in zip(fields, values):
            scn = _mutated(scn, path, value)
        cfg.write_text(json.dumps(scn["network"]))
        case = (_NETWORK_FUZZ_BASES.index(base), fields, values, command[:2])
        try:
            rc = main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        except Exception as exc:  # every escape is a finding
            broken.append((*case, repr(exc)))
            continue
        if rc not in (0, 1, 2, 3) or len(capsys.readouterr().err.splitlines()) > 1:
            broken.append((*case, rc))
    assert broken == []


def _kinvar_process(argv, timeout):
    """``kinvar <argv>`` in a fresh process, killed after ``timeout`` seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "kinvar.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("k_forward, k_backward, a0, message", _DP5_FAULTS)
def test_dp5_numerical_faults_exit_3_in_one_line(tmp_path, k_forward, k_backward, a0,
                                                message):
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps(_dp5_fault_scenario(k_forward, k_backward, a0)))
    proc = _kinvar_process(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")],
                           timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith(message)
    assert proc.stderr.count("\n") == 1
