"""Self-consistent network valuation of interbank claims.

Build a :class:`FinancialNetwork`, pick a :class:`ValuationSpec`, and solve
for the greatest or least self-consistent equity vector; the analysis layer
adds stress tests, limit experiments and a Monte Carlo estimate of globally
valued equities, and the CLI exposes the same operations on JSON inputs.
"""

from .network import (EquityVector, FinancialNetwork, NetworkError,
                      TopologyInfo, topology)
from .valuation import (BoundValuation, Family, FeasibilityReport,
                        FeasibilityViolation, SpecError, ValuationSpec,
                        debtrank_interbank, en_interbank,
                        exante_en_gbm_interbank, exante_en_uniform_interbank,
                        exante_interbank, feasibility_probe, furfine_interbank,
                        gbm_default_probability, gbm_endogenous_recovery,
                        probe_curve, rv_external, rv_interbank, rv_lender,
                        uniform_default_probability, unit_external,
                        uniform_endogenous_recovery)
from .solver import (SolveConfig, SolveReport, UniquenessReport,
                     default_epsilon, en_clearing_payments, greatest_solution,
                     least_solution, solve, solve_dag,
                     uniqueness_check)
from .analysis import (DiscountComparison, LimitSeries, MonteCarloResult,
                       StressResult, debtrank_limit_experiment,
                       maturity_limit_experiment, merton_vs_network_discount,
                       monte_carlo_global_valuation, stress_test)
from .files import (CurveTable, FileFormatError, Scenario, dump_network,
                    evaluate_curves, load_network, load_scenario,
                    network_to_dict, serialize_results, write_output)

__version__ = "0.1.0"

__all__ = [
    "EquityVector", "FinancialNetwork", "NetworkError", "TopologyInfo",
    "topology",
    "BoundValuation", "Family", "FeasibilityReport",
    "FeasibilityViolation", "SpecError", "ValuationSpec",
    "debtrank_interbank", "en_interbank",
    "exante_en_gbm_interbank", "exante_en_uniform_interbank",
    "exante_interbank", "feasibility_probe", "furfine_interbank",
    "gbm_default_probability", "gbm_endogenous_recovery", "probe_curve",
    "rv_external", "rv_interbank", "rv_lender",
    "uniform_default_probability", "uniform_endogenous_recovery",
    "unit_external",
    "SolveConfig", "SolveReport", "UniquenessReport", "default_epsilon",
    "en_clearing_payments", "greatest_solution", "least_solution",
    "solve", "solve_dag", "uniqueness_check",
    "DiscountComparison", "LimitSeries", "MonteCarloResult", "StressResult",
    "debtrank_limit_experiment", "maturity_limit_experiment",
    "merton_vs_network_discount", "monte_carlo_global_valuation",
    "stress_test",
    "CurveTable", "FileFormatError", "Scenario", "dump_network",
    "evaluate_curves", "load_network", "load_scenario", "network_to_dict",
    "serialize_results", "write_output",
    "__version__",
]
