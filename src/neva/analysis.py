"""Scenario-level experiments built on the fixed-point solver.

Covers balance-sheet stress tests with a normalized network-effect metric,
the comparison of single-name (book-equity) discounts against the
network-consistent ones, limit experiments in the time-to-maturity and in
the exogenous-recovery parameter, and a seeded Monte Carlo estimate of the
globally valued expected equities.
"""
from __future__ import annotations

import logging
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .network import FinancialNetwork, Record, _is_number
from .solver import SolveConfig, SolveReport, _certify, _reports, _solve, greatest_solution
from .valuation import PARAMETER_CHECKS, SpecError, ValuationSpec, _number

__all__ = [
    "StressResult",
    "DiscountComparison",
    "LimitSeries",
    "MonteCarloResult",
    "stress_test",
    "merton_vs_network_discount",
    "maturity_limit_experiment",
    "debtrank_limit_experiment",
    "monte_carlo_global_valuation",
]

log = logging.getLogger("neva")


class StressResult(Record):
    """One shocked solve.

    ``delta_equity`` measures losses against the unshocked book values;
    ``network_effect`` is the asset-weighted average claim write-off,
    normalized to ``[0, 1]``, and ``None`` when the solve did not converge.
    """

    alpha: Optional[float]
    shock: np.ndarray
    report: SolveReport
    delta_equity: np.ndarray
    network_effect: Optional[float]


class DiscountComparison(Record):
    """Per-edge gap between the single-name discount (family evaluated at
    the shocked book equity) and the network-consistent discount (evaluated
    at the solved equity)."""

    alpha: Optional[float]
    shock: np.ndarray
    edges: tuple
    merton: np.ndarray
    network: Optional[np.ndarray]
    difference: Optional[np.ndarray]
    converged: bool


class LimitSeries(Record):
    """Solutions along a monotone parameter sequence plus a reference
    solution and the sup-norm deviations from it."""

    parameter_name: str
    parameters: tuple
    equities: tuple
    reference: np.ndarray
    deviations: tuple
    converged: tuple
    partial: bool
    notes: tuple = ()


class MonteCarloResult(Record):
    """Sample mean and standard error of the globally valued equities, and
    ``bias_bound``, the most the ``certified`` samples' early stops raise them.

    ``valid`` is False when more than 1% of the samples were dropped unconverged.
    """

    mean: np.ndarray
    std_error: np.ndarray
    samples: int
    dropped: int
    seed: int
    valid: bool
    bias_bound: np.ndarray
    certified: int


def _shocked(net: FinancialNetwork, spec: ValuationSpec, alphas: Sequence,
             config: Optional[SolveConfig]) -> tuple:
    """Every shock of ``alphas`` solved as one stack: the shock rows, uniform
    fractions (None for a vector), bound spec, greatest solves and solutions."""
    alphas = list(alphas)
    shocks = np.array([net.shock_vector(alpha) for alpha in alphas])
    shocks = shocks.reshape(len(alphas), net.n)
    uniform = [float(alpha) if np.ndim(alpha) == 0 else None for alpha in alphas]
    bound = spec.bind(net, (1.0 - shocks) * net.external_assets)
    solved = _solve(bound, bound.book_equity, config)
    reports = _reports(solved)
    for alpha, report in zip(alphas, reports):
        if not report.converged:
            log.warning("shock %s did not converge; its metrics are omitted", alpha)
    return shocks, uniform, bound, reports, solved[0]


def stress_test(net: FinancialNetwork, spec: ValuationSpec,
                alphas: Sequence, config: Optional[SolveConfig] = None) -> list:
    """Shock external assets, re-solve, and measure the induced losses.

    Each entry of ``alphas`` is a uniform relative shock or a per-bank
    vector of fractions in ``[0, 1]``.  Valuation constants (book equities,
    external assets) are those of the shocked network.  All points are
    solved as one stack, and the network effect sums over the claims that
    exist: O(points x edges).
    """
    shocks, uniform, bound, reports, solutions = _shocked(net, spec, alphas, config)
    claims = net.amounts
    total = claims.sum()
    write_offs = (claims * (1.0 - bound.edge_factor(net.creditors, net.debtors, solutions))
                  ).sum(axis=-1)
    base_book = net.book_equity()
    results = []
    for k, report in enumerate(reports):
        effect = None
        if report.converged:
            effect = float(write_offs[k] / total) if total > 0 else 0.0
        results.append(StressResult(uniform[k], shocks[k], report,
                                    base_book - report.solution, effect))
    return results


def _before_maturity(spec: ValuationSpec) -> None:
    """Reject a spec whose interbank family is not a before-maturity one."""
    if not spec.is_exante:
        raise SpecError(f"merton_vs_network_discount requires an exante family, "
                        f"got {spec.interbank_kind!r}")


def merton_vs_network_discount(net: FinancialNetwork, spec: ValuationSpec,
                               alphas: Sequence,
                               config: Optional[SolveConfig] = None) -> list:
    """For each shock, compare per-edge discounts evaluated at the shocked
    book equities against those at the network-consistent solution.

    Only meaningful for the before-maturity families (elsewhere the book
    discount carries no uncertainty information).  All points are solved
    as one stack.
    """
    _before_maturity(spec)
    shocks, uniform, bound, reports, solutions = _shocked(net, spec, alphas, config)
    lenders, borrowers = net.creditors, net.debtors
    edges = tuple(zip(lenders, borrowers))
    merton = bound.edge_factor(lenders, borrowers, bound.book_equity)
    network = bound.edge_factor(lenders, borrowers, solutions)
    return [DiscountComparison(uniform[k], shocks[k], edges, merton[k],
                               network[k] if report.converged else None,
                               merton[k] - network[k] if report.converged else None,
                               report.converged)
            for k, report in enumerate(reports)]


def _run_limit(net: FinancialNetwork, sequence: str, parameter_name: str, parameters,
               outside: tuple, spec, reference_spec: ValuationSpec,
               config: Optional[SolveConfig], notes: tuple = ()) -> LimitSeries:
    """Greatest solutions of ``spec(p)`` for each ``p`` of ``parameters``, numbers none
    of which pass ``outside[0]`` (else ``{sequence} sequence must {outside[1]}``), non-empty
    and strictly decreasing, against the greatest solution of ``reference_spec``."""
    parameters = [_number(sequence, p) for p in parameters]
    if any(map(outside[0], parameters)):
        raise SpecError(f"{sequence} sequence must {outside[1]}")
    if not parameters:
        raise SpecError(f"{sequence} sequence must not be empty")
    if any(b >= a for a, b in zip(parameters, parameters[1:])):
        raise SpecError(f"{sequence} sequence must be strictly decreasing")
    # both end specs check the spread and variance (monotone in the value); the rest alone
    first, _ = spec(parameters[0]), spec(parameters[-1])
    for p in parameters[1:-1]:
        PARAMETER_CHECKS[parameter_name](parameter_name, p)
    reference = greatest_solution(net, reference_spec, config)
    if not reference.converged:
        notes = notes + ("reference solve did not converge",)
    # one stack over the network's own balance sheet, a row per parameter:
    # only the parameter column and what the kernel derives from it vary by row
    bound = first.bind(net, **{parameter_name: np.array(parameters, dtype=float)[:, np.newaxis]})
    solutions, *_, converged = _solve(
        bound, np.broadcast_to(bound.book_equity, (len(parameters), net.n)), config)
    return LimitSeries(
        parameter_name=parameter_name,
        parameters=tuple(float(p) for p in parameters),
        equities=tuple(solutions),
        reference=reference.solution,
        deviations=tuple(np.max(np.abs(solutions - reference.solution), axis=1).tolist()),
        converged=tuple(converged.tolist()),
        partial=not (reference.converged and converged.all()),
        notes=notes,
    )


def maturity_limit_experiment(net: FinancialNetwork, sigma,
                              taus: Sequence[float], beta: float = 1.0,
                              config: Optional[SolveConfig] = None) -> LimitSeries:
    """Greatest solutions of the log-normal before-maturity family along a
    decreasing sequence of times to maturity, referenced against their
    limit at maturity: pro-rata clearing with haircut ``beta`` on what
    defaulted borrowers pay, the eisenberg_noe_haircut family (eisenberg_noe
    when ``beta`` is 1)."""
    return _run_limit(net, "tau", "maturity", taus, (lambda t: t <= 0, "be positive"),
                      lambda tau: ValuationSpec.exante_en_gbm(sigma, tau, beta),
                      ValuationSpec.eisenberg_noe_haircut(beta), config)


def debtrank_limit_experiment(net: FinancialNetwork, betas: Sequence[float],
                              config: Optional[SolveConfig] = None) -> LimitSeries:
    """Greatest solutions of the uniform-shock family along a decreasing
    sequence of exogenous recovery fractions, referenced against the linear
    distress-propagation solution (their common limit at zero recovery)."""
    notes = ()
    degenerate = [net.bank_ids[j] for j in np.nonzero(net.book_equity() <= 0)[0]]
    if degenerate:
        notes = (f"banks with non-positive book equity valued at zero: "
                 f"{', '.join(degenerate)}",)
    return _run_limit(net, "beta", "beta", betas, (lambda b: b < 0 or b > 1, "lie in [0, 1]"),
                      ValuationSpec.exante_en_uniform, ValuationSpec.linear_debtrank(),
                      config, notes)


def monte_carlo_global_valuation(net: FinancialNetwork, sigma, tau: float,
                                 beta: float, samples: int, seed: int = 0,
                                 config: Optional[SolveConfig] = None) -> MonteCarloResult:
    """Expected equities when claims are valued at maturity for each
    realization of the external assets, then averaged.

    Terminal external assets are drawn per bank from the zero-drift log-normal law
    over horizon ``tau``; each draw is cleared with the pro-rata factors (haircut
    ``beta``) from face values, all draws as one stack, and each bank's sample mean
    and standard error (SE) are returned.  A sample stops at the configured epsilon,
    as its drawn network's solve does; without one, ``_certify`` stops it early where
    a certificate bounds its error, at a step that keeps every bank's ``bias_bound``
    within ``BIAS_SHARE`` (5%) of its SE, or else at the default tolerance.  Sample
    ``s`` is row ``s`` of ``np.random.default_rng(seed).standard_normal((samples, n))``,
    so more samples extend a run and never change the earlier ones; the final
    reduction runs in ascending sample order.
    """
    for name, value, least in (("samples", samples, 1), ("seed", seed, 0)):
        if not (_is_number(value, Integral) and value >= least):
            raise SpecError(f"{name} must be a whole number of at least {least}, "
                            f"got {value!r}")
    # the parameters are those of the before-maturity (local) counterpart
    local = ValuationSpec.exante_en_gbm(sigma, tau, beta)
    sigma, tau, beta = local.sigma_vector(net.n), local.maturity, local.beta

    terminal = np.random.default_rng(seed).standard_normal((samples, net.n))  # in place
    terminal *= sigma * np.sqrt(tau)
    terminal += -0.5 * sigma * sigma * tau
    terminal = np.multiply(np.exp(terminal, out=terminal), net.external_assets, out=terminal)
    bound = ValuationSpec.eisenberg_noe_haircut(beta).bind(net, terminal)
    # the rows are read as arrays: no per-sample report
    *_, converged, certified, (mean, std_error, bias_bound, step) = _certify(bound, config)
    dropped = samples - int(converged.sum())
    if dropped:
        log.warning("monte carlo: dropped %d of %d unconverged samples", dropped, samples)
    log.info("monte carlo: %d of %d samples certified, bias bound %.3g%s", certified.sum(),
             samples, bias_bound.max(),
             "" if step is None else f", step {step:.3g} of the median scale")
    return MonteCarloResult(mean=mean, std_error=std_error, samples=samples,
                            dropped=dropped, seed=int(seed), valid=dropped <= 0.01 * samples,
                            bias_bound=bias_bound, certified=int(certified.sum()))
