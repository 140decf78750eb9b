import numpy as np
import pytest

from conftest import balanced_integer_network, exact_pair_constant, parallel_path_network

from kinvar import (
    DegenerateExperimentError,
    InvariantSpec,
    build_rate_matrix,
    butene_cycle,
    dual_experiment,
    dual_experiment_nonlinear,
    evaluate_invariant,
    first_order_network,
    make_network,
    overshoot_scan,
    ratio_limit_at_zero,
    resolve_expected_K,
    Reaction,
)
from kinvar._kernels import rhs_packed
from kinvar.network import pack_network
from kinvar.trajectory import DualExperiment, Trajectory


def _grid(t_max=5.0, points=60):
    return np.concatenate(([0.0], np.geomspace(1e-3, t_max, points)))


def _ab_dual(kf=2.0, kb=1.0):
    net = first_order_network(["A", "B"], [("A", "B", kf, kb)])
    return net, dual_experiment(net, 0, 1, _grid())


def test_invariant_spec_validation():
    with pytest.raises(ValueError):
        InvariantSpec("no-such-kind", (0, 1), 1.0)
    with pytest.raises(ValueError):
        InvariantSpec("linear_ratio", (1, 1), 1.0)
    with pytest.raises(ValueError):
        InvariantSpec("linear_ratio", (0, 1), 0.0)
    with pytest.raises(ValueError):
        InvariantSpec("linear_ratio", (0, 1), 1.0, provenance="guessed")


def test_resolve_expected_K_path_product():
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 3.0, 2.0)]
    )
    spec = resolve_expected_K(net, "path_product", 0, 2)
    assert spec.expected_K == pytest.approx(3.0)
    assert spec.provenance == "from-path-product"


def test_resolve_expected_K_unbalanced_uses_direct_edge():
    spec = resolve_expected_K(butene_cycle(), "linear_ratio", 1, 0)
    # 1-butene -> cis-2-butene is itself the shortest reversible path
    assert spec.expected_K == pytest.approx(10.344 / 4.623)


def test_resolve_expected_K_large_balanced_network(rng):
    # 200 species with 40 extra edges have far too many simple paths to
    # enumerate; one shortest path gives the same product on balanced rates
    net, h = balanced_integer_network(rng, 200, extra_edges=40)
    for a, b in [(0, 199), (17, 3), (120, 64)]:
        spec = resolve_expected_K(net, "linear_ratio", a, b)
        assert spec.expected_K == float(exact_pair_constant(h, a, b))


def test_resolve_expected_K_nonlinear_from_rates():
    net = make_network(["A", "B"], [Reaction(((0, 2),), ((1, 1),), 3.0, 2.0)])
    spec = resolve_expected_K(net, "nonlinear_2A_B", 0, 1)
    assert spec.expected_K == pytest.approx(1.5)
    assert spec.provenance == "from-rates"
    with pytest.raises(ValueError):
        resolve_expected_K(net, "nonlinear_2A_2B", 1, 0)


def test_evaluate_invariant_linear_pass():
    net, dual = _ab_dual(2.0, 1.0)
    spec = resolve_expected_K(net, "linear_ratio", 0, 1)
    report = evaluate_invariant(dual, spec)
    assert report.verdict
    assert report.max_rel_deviation < 1e-10
    assert report.excluded_points == 1  # only the t = 0 row
    assert report.t_min == pytest.approx(1e-3)
    assert report.limit_at_zero == pytest.approx(2.0, rel=1e-9)


def test_evaluate_invariant_flags_wrong_constant():
    net, dual = _ab_dual(2.0, 1.0)
    spec = InvariantSpec("linear_ratio", (0, 1), 3.0)
    report = evaluate_invariant(dual, spec)
    assert not report.verdict
    assert report.max_rel_deviation > 0.3


def test_evaluate_invariant_degenerate_grid():
    net, dual = _ab_dual()
    spec = resolve_expected_K(net, "linear_ratio", 0, 1)
    with pytest.raises(DegenerateExperimentError):
        evaluate_invariant(dual, spec, denom_floor=1e300)


def test_report_serialization_schema():
    net, dual = _ab_dual()
    report = evaluate_invariant(dual, resolve_expected_K(net, "linear_ratio", 0, 1))
    payload = report.to_dict()
    assert set(payload) == {
        "spec", "expected_K", "t_min", "max_rel_deviation", "limit_at_zero",
        "excluded_points", "tol", "verdict", "series",
    }
    assert payload["spec"]["kind"] == "linear_ratio"
    assert len(payload["series"]) == len(dual.times) - 1


def test_nonlinear_invariant_report():
    net = make_network(["A", "B"], [Reaction(((0, 2),), ((1, 1),), 3.0, 1.0)])
    dual = dual_experiment_nonlinear(net, 0, 1, times=_grid(t_max=8.0))
    spec = resolve_expected_K(net, "nonlinear_2A_B", 0, 1)
    report = evaluate_invariant(dual, spec)
    assert report.verdict
    assert report.max_rel_deviation < 1e-6


def test_ratio_limit_at_zero_rates():
    net, dual = _ab_dual(5.0, 2.0)
    spec = resolve_expected_K(net, "linear_ratio", 0, 1)
    assert ratio_limit_at_zero(dual, spec) == pytest.approx(2.5)


def test_ratio_limit_at_zero_is_the_rhs_quotient(rng):
    # the limit sums the initial fluxes reaction by reaction; it must be bit
    # for bit the quotient of the two initial rates M c0, which the unit
    # priming reads off the rate matrix exactly
    for net in (balanced_integer_network(rng, 6)[0], butene_cycle()):
        rxn = net.reactions[0]  # a directly connected pair
        a, b = rxn.reactants[0][0], rxn.products[0][0]
        dual = dual_experiment(net, a, b, _grid())
        spec = resolve_expected_K(net, "linear_ratio", a, b)
        M = build_rate_matrix(net).entries
        rate_b = (M @ dual.from_a.concentrations[0])[b]
        rate_a = (M @ dual.from_b.concentrations[0])[a]
        assert ratio_limit_at_zero(dual, spec) == float(rate_b / rate_a)


def test_ratio_limit_at_zero_matches_the_packed_rhs_bit_for_bit():
    # parallel reactions feed and drain both species; from any initial state
    # the limit sums the same terms in the same order as the packed kernel
    net = parallel_path_network()
    terms = pack_network(net)
    rng = np.random.default_rng(5)
    duals = [dual_experiment(net, 0, 1, _grid())]
    for _ in range(5):
        conc = rng.uniform(0.0, 1.0, (2, len(_grid()), net.n))
        duals.append(DualExperiment(Trajectory(_grid(), conc[0], 0, "", net),
                                    Trajectory(_grid(), conc[1], 1, "", net), 0, 1))
    spec = resolve_expected_K(net, "linear_ratio", 0, 1)
    for dual in duals:
        rate_b = rhs_packed(dual.from_a.concentrations[0].tolist(), terms, net.n)[1]
        rate_a = rhs_packed(dual.from_b.concentrations[0].tolist(), terms, net.n)[0]
        assert ratio_limit_at_zero(dual, spec) == rate_b / rate_a


def test_ratio_limit_at_zero_needs_direct_feed():
    net = first_order_network(
        ["A", "B", "C"], [("A", "B", 2.0, 1.0), ("B", "C", 3.0, 2.0)]
    )
    dual = dual_experiment(net, 0, 2, _grid())
    spec = resolve_expected_K(net, "path_product", 0, 2)
    # C is not produced directly from A, so the t -> 0 rate ratio is 0/0
    with pytest.raises(ZeroDivisionError):
        ratio_limit_at_zero(dual, spec)


def test_overshoot_scan_butene():
    net = butene_cycle()
    dual = dual_experiment(net, 0, 1, _grid(t_max=2.0, points=300))
    scan = overshoot_scan(dual.from_a, 0, 1)
    assert scan.crossed
    assert 0.1 < scan.crossing_times[0] < 0.4
    assert scan.magnitude > 5e-3
    payload = scan.to_dict()
    assert payload["crossed"] is True


def test_overshoot_scan_monotone_pair():
    net, dual = _ab_dual()
    scan = overshoot_scan(dual.from_a, 0, 1)
    assert not scan.crossed
    assert scan.crossing_times == ()
    assert scan.magnitude == 0.0
