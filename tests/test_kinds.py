"""One table for the invariant kinds: the ratio each kind forms and the K it takes."""

import json

import pytest

import kinds_reference
from kinvar import (
    Reaction,
    butene_cycle,
    dual_experiment,
    first_order_network,
    make_network,
)
from kinvar.errors import ConfigError
from kinvar.integrate import dual_experiment_nonlinear
from kinvar.invariants import KINDS, InvariantSpec, evaluate_invariant, resolve_expected_K
from kinvar.scenario import GridSpec, _closed_form_dual, parse_scenario

TIMES = GridSpec(5.0, 40, "geometric").times()
UNKNOWN = ("unknown invariant kind 'linear_ratoi'; valid kinds: linear_ratio, "
           "nonlinear_2A_B, nonlinear_2A_2B, path_product")


def _reaction(nu_a, nu_b, written_backward=False, kp=3.0, km=1.5):
    """``nu_a A <=> nu_b B``, or the same reaction written ``nu_b B <=> nu_a A``."""
    left, right = ((0, nu_a),), ((1, nu_b),)
    rxn = Reaction(right, left, km, kp) if written_backward else Reaction(left, right, kp, km)
    return make_network(["A", "B"], [rxn])


def _linear(net):
    return dual_experiment(net, 0, 1, TIMES)


def _nonlinear(net):
    return dual_experiment_nonlinear(net, 0, 1, None, None, TIMES)


def _closed_form(net):
    return _closed_form_dual(net, 0, 1, TIMES)


A_B = first_order_network(["A", "B"], [("A", "B", 2.0, 1.0)])
CHAIN = first_order_network(["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 0.5, 0.25)])
IRREVERSIBLE = first_order_network(["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 0.5, 0.0)])
DUALS = {
    "linear-A<=>B": (_linear, A_B),
    "linear-A<=>B<=>C": (_linear, CHAIN),
    "linear-A<=>B->C": (_linear, IRREVERSIBLE),
    "linear-butene": (_linear, butene_cycle()),
    "nonlinear-A<=>B": (_nonlinear, A_B),
    "nonlinear-2A<=>B": (_nonlinear, _reaction(2, 1)),
    "nonlinear-B<=>2A": (_nonlinear, _reaction(2, 1, written_backward=True)),
    "nonlinear-2A<=>2B": (_nonlinear, _reaction(2, 2)),
    "nonlinear-2B<=>2A": (_nonlinear, _reaction(2, 2, written_backward=True)),
    "closed-form-A<=>B": (_closed_form, A_B),
    "closed-form-A<=>B->C": (_closed_form, IRREVERSIBLE),
    "closed-form-2A<=>B": (_closed_form, _reaction(2, 1)),
    "closed-form-2A<=>2B": (_closed_form, _reaction(2, 2)),
}


def _outcome(fn, *args):
    """What ``fn(*args)`` gives, in a form that compares bit for bit: the
    float reprs round-trip, and an error is its type and message."""
    try:
        out = fn(*args)
    except Exception as exc:  # every error must match too
        return type(exc), str(exc)
    return json.dumps(out.to_dict(), sort_keys=True) if hasattr(out, "to_dict") else repr(out)


@pytest.mark.parametrize("engine_net", DUALS.values(), ids=DUALS.keys())
def test_the_table_reproduces_the_per_kind_branches(engine_net):
    run, net = engine_net
    dual = run(net)
    for kind in KINDS:
        for a, b in ((0, 1), (1, 0)):
            resolved = _outcome(resolve_expected_K, net, kind, a, b)
            assert resolved == _outcome(kinds_reference.resolve_expected_K, net, kind, a, b)
            specs = [InvariantSpec(kind, (a, b), 1.5)]
            if isinstance(resolved, str):
                specs.append(resolve_expected_K(net, kind, a, b))
            for spec in specs:
                assert _outcome(evaluate_invariant, dual, spec) == \
                    _outcome(kinds_reference.evaluate_invariant, dual, spec)


@pytest.mark.parametrize("nu, kind", [((2, 1), "nonlinear_2A_B"), ((2, 2), "nonlinear_2A_2B")])
def test_a_reaction_written_either_way_gives_one_K(nu, kind):
    forward = resolve_expected_K(_reaction(*nu), kind, 0, 1)
    backward = resolve_expected_K(_reaction(*nu, written_backward=True), kind, 0, 1)
    assert forward == backward == InvariantSpec(kind, (0, 1), 2.0, "from-rates")
    # the other kind's reaction does not join the pair
    other = "nonlinear_2A_2B" if kind == "nonlinear_2A_B" else "nonlinear_2A_B"
    with pytest.raises(ValueError, match=f"no reversible {other} reaction"):
        resolve_expected_K(_reaction(*nu), other, 0, 1)


def test_an_unknown_kind_is_refused_by_name():
    # the old search read any unknown name as 2A <=> 2B, and found this one
    net = _reaction(2, 2)
    with pytest.raises(ValueError) as exc:
        resolve_expected_K(net, "linear_ratoi", 0, 1)
    assert str(exc.value) == UNKNOWN
    with pytest.raises(ValueError) as exc:
        InvariantSpec("linear_ratoi", (0, 1), 1.0)
    assert str(exc.value) == UNKNOWN
    scenario = {"network": {"species": ["A", "B"], "reactions": [
                    {"reactants": [["A", 2]], "products": [["B", 2]],
                     "k_forward": 3.0, "k_backward": 1.5}]},
                "experiment": {"a": "A", "b": "B"},
                "invariants": [{"kind": "linear_ratoi", "pair": ["A", "B"]}]}
    with pytest.raises(ConfigError) as exc:
        parse_scenario(scenario)
    assert str(exc.value) == UNKNOWN
