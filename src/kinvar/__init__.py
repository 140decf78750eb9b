"""Dual-experiment kinetics toolkit.

Simulate mass-action reaction networks primed with pure starting substances,
evaluate the cross-experiment concentration ratios that stay constant in time,
and prove those invariants exactly in the Laplace domain.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# public names by the submodule that defines them; each is imported on first
# use (PEP 562), so ``import kinvar`` loads no numeric module, and a command
# that needs none, such as ``kinvar prove``, never imports numpy
_EXPORTS = {
    "errors": ("BalanceError", "ConfigError", "ConservationError",
               "DegenerateExperimentError", "IntegrationError", "KinvarError",
               "MultipleEquilibriaError", "NetworkValidationError",
               "NoReversiblePathError"),
    "network": ("Reaction", "ReactionNetwork", "Species", "balance_network",
                "butene_cycle", "check_cycle_conditions", "conservation_vector",
                "first_order_network", "load_network", "make_network", "rate_entries",
                "save_network", "stoichiometric_matrix", "validate_network"),
    "trajectory": ("DualExperiment", "IntegratorStats", "Trajectory",
                   "write_trajectory_csv"),
    "linear": ("RateMatrix", "build_rate_matrix", "default_time_grid",
               "dual_experiment", "equilibrium_composition", "simulate_linear"),
    "closed_forms": ("TwoStepEigenvalues", "nonlinear_2A_B", "nonlinear_2A_2B",
                     "single_reversible", "two_step_concentrations",
                     "two_step_eigenvalues"),
    "laplace": ("Polynomial", "RationalFunction", "all_transfer_functions_forest",
                "characteristic_polynomial", "exact_balance", "exact_cycle_violations",
                "path_equilibrium_constant", "prove_fixed_proportion",
                "transfer_function_cofactor", "transfer_function_forest"),
    "integrate": ("IntegratorConfig", "dual_experiment_nonlinear", "integrate"),
    "invariants": ("InvariantReport", "InvariantSpec", "evaluate_invariant",
                   "overshoot_scan", "ratio_limit_at_zero", "resolve_expected_K"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package's module type, for the one export named like a submodule.

    Importing the submodule ``kinvar.integrate`` binds it as the package
    attribute ``integrate``. This property ignores that binding, so
    ``kinvar.integrate`` and ``from kinvar import integrate`` give the
    function of that name whatever was imported first.
    """

    @property
    def integrate(self):
        return importlib.import_module(".integrate", __name__).integrate

    @integrate.setter
    def integrate(self, _submodule) -> None:
        pass


sys.modules[__name__].__class__ = _Package
