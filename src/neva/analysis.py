"""Scenario-level experiments built on the fixed-point solver.

Covers balance-sheet stress tests with a normalized network-effect metric,
the comparison of single-name (book-equity) discounts against the
network-consistent ones, limit experiments in the time-to-maturity and in
the exogenous-recovery parameter, and a seeded Monte Carlo estimate of the
globally valued expected equities.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .network import FinancialNetwork
from .solver import SolveConfig, SolveReport, greatest_solution
from .valuation import SpecError, ValuationSpec, en_interbank

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


@dataclass(frozen=True, eq=False)
class StressResult:
    """One shocked solve.

    ``delta_equity`` measures losses against the unshocked book values;
    ``network_effect`` is the asset-weighted average claim write-off,
    normalized to ``[0, 1]`` (``None`` when the solve did not converge).
    ``edge_discounts[i, j]`` is the solved discount on bank i's claim
    against bank j.
    """

    alpha: Optional[float]
    shock: np.ndarray
    report: SolveReport
    delta_equity: np.ndarray
    network_effect: Optional[float]
    edge_discounts: Optional[np.ndarray]


@dataclass(frozen=True, eq=False)
class DiscountComparison:
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


@dataclass(frozen=True, eq=False)
class LimitSeries:
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


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Sample mean and standard error of the globally valued equities.

    ``valid`` is False when more than 1% of the samples had to be dropped
    for non-convergence of the inner clearing solve.
    """

    mean: np.ndarray
    std_error: np.ndarray
    samples: int
    dropped: int
    seed: int
    valid: bool


def _as_shock_vector(net: FinancialNetwork, alpha) -> tuple:
    arr = np.asarray(alpha, dtype=float)
    if arr.ndim == 0:
        return np.full(net.n, float(arr)), float(arr)
    return arr, None


def stress_test(net: FinancialNetwork, spec: ValuationSpec,
                alphas: Sequence, config: Optional[SolveConfig] = None) -> list:
    """Shock external assets, re-solve, and measure the induced losses.

    Each entry of ``alphas`` is a uniform relative shock or a per-bank
    vector of fractions in ``[0, 1]``.  Valuation constants (book equities,
    external assets) are those of the shocked network.
    """
    base_book = net.book_equity()
    results = []
    for alpha in alphas:
        shock, uniform = _as_shock_vector(net, alpha)
        shocked = net.apply_shock(shock)
        report = greatest_solution(shocked, spec, config)
        delta = base_book - report.solution
        if report.converged:
            bound = spec.bind(shocked)
            discounts = bound.edge_discounts(report.solution)
            claims = shocked.interbank_assets
            total = claims.sum()
            effect = float((claims * (1.0 - discounts)).sum() / total) if total > 0 else 0.0
            results.append(StressResult(uniform, shock, report, delta, effect, discounts))
        else:
            log.warning("stress point %s did not converge; metric omitted", alpha)
            results.append(StressResult(uniform, shock, report, delta, None, None))
    return results


def merton_vs_network_discount(net: FinancialNetwork, spec: ValuationSpec,
                               alphas: Sequence,
                               config: Optional[SolveConfig] = None) -> list:
    """For each shock, compare per-edge discounts evaluated at the shocked
    book equities against those at the network-consistent solution.

    Only meaningful for the before-maturity families (elsewhere the book
    discount carries no uncertainty information).
    """
    if not spec.is_exante:
        raise SpecError("merton_vs_network_discount requires an exante family")
    edges = tuple(zip(*np.nonzero(net.interbank_assets > 0)))
    results = []
    for alpha in alphas:
        shock, uniform = _as_shock_vector(net, alpha)
        shocked = net.apply_shock(shock)
        bound = spec.bind(shocked)
        book = bound.book_equity
        merton_matrix = bound.edge_discounts(book)
        merton = np.array([merton_matrix[i, j] for i, j in edges])
        report = greatest_solution(shocked, spec, config)
        if report.converged:
            network_matrix = bound.edge_discounts(report.solution)
            network = np.array([network_matrix[i, j] for i, j in edges])
            results.append(DiscountComparison(uniform, shock, edges, merton,
                                              network, merton - network, True))
        else:
            log.warning("discount point %s did not converge", alpha)
            results.append(DiscountComparison(uniform, shock, edges, merton,
                                              None, None, False))
    return results


def _run_limit(net: FinancialNetwork, parameter_name: str, parameters,
               specs, reference_spec: ValuationSpec,
               config: Optional[SolveConfig], notes: tuple = ()) -> LimitSeries:
    reference = greatest_solution(net, reference_spec, config)
    if not reference.converged:
        notes = notes + ("reference solve did not converge",)
    equities = []
    deviations = []
    converged = []
    for spec in specs:
        report = greatest_solution(net, spec, config)
        equities.append(report.solution)
        deviations.append(float(np.max(np.abs(report.solution - reference.solution))))
        converged.append(report.converged)
    partial = not (reference.converged and all(converged))
    return LimitSeries(
        parameter_name=parameter_name,
        parameters=tuple(float(p) for p in parameters),
        equities=tuple(equities),
        reference=reference.solution,
        deviations=tuple(deviations),
        converged=tuple(converged),
        partial=partial,
        notes=notes,
    )


def maturity_limit_experiment(net: FinancialNetwork, sigma,
                              taus: Sequence[float], beta: float = 1.0,
                              config: Optional[SolveConfig] = None) -> LimitSeries:
    """Greatest solutions of the log-normal before-maturity family along a
    decreasing sequence of times to maturity, referenced against the
    at-maturity pro-rata solution."""
    taus = [float(t) for t in taus]
    if not taus or any(t <= 0 for t in taus):
        raise SpecError("tau sequence must be positive")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise SpecError("tau sequence must be strictly decreasing")
    specs = [ValuationSpec.exante_en_gbm(sigma, tau, beta) for tau in taus]
    return _run_limit(net, "maturity", taus, specs,
                      ValuationSpec.eisenberg_noe(), config)


def debtrank_limit_experiment(net: FinancialNetwork, betas: Sequence[float],
                              config: Optional[SolveConfig] = None) -> LimitSeries:
    """Greatest solutions of the uniform-shock family along a decreasing
    sequence of exogenous recovery fractions, referenced against the linear
    distress-propagation solution (their common limit at zero recovery)."""
    betas = [float(b) for b in betas]
    if not betas or any(b < 0 or b > 1 for b in betas):
        raise SpecError("beta sequence must lie in [0, 1]")
    if any(b >= a for a, b in zip(betas, betas[1:])):
        raise SpecError("beta sequence must be strictly decreasing")
    notes = ()
    degenerate = [net.bank_ids[j] for j in np.nonzero(net.book_equity() <= 0)[0]]
    if degenerate:
        notes = (f"banks with non-positive book equity valued at zero: "
                 f"{', '.join(degenerate)}",)
    specs = [ValuationSpec.exante_en_uniform(beta) for beta in betas]
    return _run_limit(net, "beta", betas, specs,
                      ValuationSpec.linear_debtrank(), config, notes)


def monte_carlo_global_valuation(net: FinancialNetwork, sigma, tau: float,
                                 beta: float, samples: int, seed: int = 0,
                                 config: Optional[SolveConfig] = None) -> MonteCarloResult:
    """Expected equities when claims are valued at maturity for each
    realization of the external assets, then averaged.

    Terminal external assets are drawn per bank from the zero-drift
    log-normal law over horizon ``tau``; each draw is cleared with the
    pro-rata factors (haircut ``beta``) from face values, and the sample
    mean and standard error of each bank's equity are returned.  Sample
    ``s`` derives its randomness from ``(seed, s)`` alone, so results are
    reproducible bit for bit regardless of batching or scheduling, and the
    final reduction runs in ascending sample order.
    """
    if samples < 1:
        raise SpecError("samples must be at least 1")
    # the parameters are those of the before-maturity (local) counterpart
    local = ValuationSpec.exante_en_gbm(sigma, tau, beta)
    n = net.n
    sigma, tau, beta = local.sigma_vector(n), local.maturity, local.beta
    config = config or SolveConfig()
    epsilon = config.resolve_epsilon(net)

    normals = np.empty((samples, n))
    for s, child in enumerate(np.random.SeedSequence(seed).spawn(samples)):
        normals[s] = np.random.default_rng(child).standard_normal(n)

    drift = -0.5 * sigma * sigma * tau
    terminal_assets = net.external_assets * np.exp(sigma * np.sqrt(tau) * normals + drift)

    claims = net.interbank_assets
    obligations = net.total_obligations()
    fixed = -net.external_liabilities - obligations
    equities = terminal_assets + fixed + claims.sum(axis=1)  # face values per draw
    active = np.ones(samples, dtype=bool)
    for _ in range(config.max_iterations):
        if not active.any():
            break
        rows = equities[active]
        factors = en_interbank(rows, obligations, beta)
        updated = terminal_assets[active] + fixed + factors @ claims.T
        steps = np.max(np.abs(updated - rows), axis=1)
        equities[active] = updated
        still = steps > epsilon
        active[np.nonzero(active)[0][~still]] = False
    dropped = int(active.sum())
    if dropped:
        log.warning("monte carlo: dropped %d of %d unconverged samples",
                    dropped, samples)
    kept = equities[~active]
    count = samples - dropped
    if count > 0:
        mean = kept.sum(axis=0) / count
        if count > 1:
            std_error = kept.std(axis=0, ddof=1) / np.sqrt(count)
        else:
            std_error = np.zeros(n)
    else:
        mean = np.full(n, np.nan)
        std_error = np.full(n, np.nan)
    valid = dropped <= 0.01 * samples
    return MonteCarloResult(mean=mean, std_error=std_error, samples=samples,
                            dropped=dropped, seed=int(seed), valid=valid)
